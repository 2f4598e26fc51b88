"""CLI: subcommands, exit codes, deterministic JSON, schema validation."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rank2dist.cli import main

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "rank2dist" / "schema" /
     "report-v1.json").read_text())


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def validate(report):
    import jsonschema
    jsonschema.validate(report, SCHEMA)


class TestAnalyze:
    def test_monge6(self, tmp_path):
        code, rep = run_cli(["analyze", "--model", "monge", "--n", "6"],
                            tmp_path)
        assert code == 0
        assert rep["kind"] == "analyze"
        assert rep["growth_vector"] == [2, 3, 5, 6]
        assert rep["cube_dim"] == 5
        assert rep["class"]["m"] == 3
        assert rep["class"]["maximal_class"] is True
        assert rep["corank_bound"] == 1
        validate(rep)

    def test_cartan_jet_reports_deprolongation(self, tmp_path):
        code, rep = run_cli(["analyze", "--model", "cartan-jet", "--k", "4"],
                            tmp_path)
        assert code == 0
        assert rep["cube_dim"] == 4
        assert rep["goursat"] is True
        assert rep["deprolongation"] == {"degree": 2, "terminal": "engel"}
        validate(rep)

    def test_prolonged_monge(self, tmp_path):
        code, rep = run_cli(["analyze", "--model", "monge", "--n", "5",
                             "--prolong", "1"], tmp_path)
        assert code == 0
        assert rep["cube_dim"] == 4
        assert rep["deprolongation"] == {"degree": 1, "terminal": "cube5"}

    def test_input_file(self, tmp_path):
        spec = {
            "coordinates": ["x", "y0", "y1", "y2", "z"],
            "fields": [["1", "y1", "y2", "0", "y2^2"],
                       ["0", "0", "0", "1", "0"]],
            "point": ["0", "0", "0", "0", "0"],
        }
        path = tmp_path / "input.json"
        path.write_text(json.dumps(spec))
        code, rep = run_cli(["analyze", "--input", str(path)], tmp_path)
        assert code == 0
        assert rep["growth_vector"] == [2, 3, 5]
        assert rep["class"]["m"] == 2

    def test_determinism_byte_identical(self, tmp_path):
        _, _ = run_cli(["analyze", "--model", "monge", "--n", "6",
                        "--seed", "3"], tmp_path, "a.json")
        _, _ = run_cli(["analyze", "--model", "monge", "--n", "6",
                        "--seed", "3"], tmp_path, "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()


class TestTrace:
    def test_monge6_trace(self, tmp_path):
        code, rep = run_cli(["trace", "--model", "monge", "--n", "6",
                             "--T", "0.05", "--steps", "50"], tmp_path)
        assert code == 0
        assert rep["kind"] == "trace"
        assert rep["nu_endpoint"] == 3
        assert rep["corank_claim"] == 1
        assert max(rep["h_residuals"]) <= 1e-8
        validate(rep)

    def test_t0_reports_the_exact_class(self, tmp_path):
        # the float rank at t=0 is marginal here and reads 4
        code, rep = run_cli(["trace", "--model", "monge", "--n", "8",
                             "--seed", "0", "--T", "0.25", "--steps", "50"],
                            tmp_path)
        assert code == 0
        assert rep["nu_trace"][0] == 5
        assert rep["nu_marginal"][0] is False

    def test_trace_needs_cube5(self, tmp_path):
        code, rep = run_cli(["trace", "--model", "cartan-jet", "--k", "3"],
                            tmp_path)
        assert code == 2


class TestSymmetries:
    def test_monge5(self, tmp_path):
        code, rep = run_cli(["symmetries", "--model", "monge", "--n", "5"],
                            tmp_path)
        assert code == 0
        assert rep["dim"] == 14
        assert rep["stabilized"] is True
        validate(rep)

    def test_fixed_degree(self, tmp_path):
        code, rep = run_cli(["symmetries", "--model", "monge", "--n", "5",
                             "--degree", "2"], tmp_path)
        assert code == 0
        assert rep["degree"] == 2
        assert rep["stabilized"] is False


class TestErrors:
    def test_missing_model_and_input(self, tmp_path):
        code, _ = run_cli(["analyze"], tmp_path)
        assert code == 1

    def test_unknown_model(self, tmp_path):
        code, _ = run_cli(["analyze", "--model", "nope"], tmp_path)
        assert code == 1

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1

    def test_bad_expression(self, tmp_path):
        p = tmp_path / "bad_expr.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y"],
            "fields": [["1", "x +"], ["0", "1"]],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1

    def test_missing_file(self, tmp_path):
        code, _ = run_cli(["analyze", "--input",
                           str(tmp_path / "nothere.json")], tmp_path)
        assert code == 1

    def test_depth_cap_below_the_class(self, tmp_path, capsys):
        code, _ = run_cli(["analyze", "--model", "monge", "--n", "6",
                           "--depth-cap", "1", "--samples", "1"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition failed:")
        assert len(err.strip().splitlines()) == 1

    def test_degenerate_frame(self, tmp_path):
        p = tmp_path / "degen.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y", "z"],
            "fields": [["x", "0", "0"], ["0", "1", "0"]],
            "point": ["0", "0", "0"],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 2


def test_console_script_entry_point():
    out = subprocess.run([sys.executable, "-m", "rank2dist.cli",
                          "analyze", "--model", "monge", "--n", "5"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["growth_vector"] == [2, 3, 5]
