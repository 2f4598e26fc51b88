import sys
from pathlib import Path

import pytest

# make the sibling oracle module importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def bracket_calls(monkeypatch):
    """One-element list counting `lie_bracket` calls made through any
    rank2dist module namespace that holds the function."""
    import rank2dist
    real = rank2dist.geometry.lie_bracket
    count = [0]

    def counting(x, y):
        count[0] += 1
        return real(x, y)

    for name, mod in list(sys.modules.items()):
        if name.startswith("rank2dist") and \
                getattr(mod, "lie_bracket", None) is real:
            monkeypatch.setattr(mod, "lie_bracket", counting)
    return count


@pytest.fixture
def field_evals(monkeypatch):
    """One-element list counting `VectorField.at` evaluations."""
    from rank2dist.geometry import VectorField
    real = VectorField.at
    count = [0]

    def counting(self, point):
        count[0] += 1
        return real(self, point)

    monkeypatch.setattr(VectorField, "at", counting)
    return count
