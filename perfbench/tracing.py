"""Spans and counters around the public functions of each rank2dist layer.

The wrappers live here, not in the package: `Tracer.install` replaces each
target function in every loaded `rank2dist` module namespace that holds it
(and `VectorField.at` on its class), and `uninstall` puts the originals
back.  Every call records a span (name, start, end, parent, request) in
memory; totals count the outermost call of a name only, so recursion is not
counted twice, and self time subtracts the time of wrapped callees.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

# (module, function) pairs whose calls are recorded
TARGETS = {
    "kernel": ["poly_gcd", "rf_nullspace", "rf_solve_minimal", "q_nullspace"],
    "geometry": ["lie_bracket"],
    "symplectic": ["fiber_sample", "class_at_sample", "class_at_point",
                   "char_field", "annihilator_basis", "cone_J_generators"],
    "extremals": ["integrate_char", "nu_along"],
    "symmetry": ["symmetry_basis", "stabilized_symmetry_basis",
                 "detect_weights", "annihilator_forms"],
    "distribution": ["weak_flag", "strong_flag", "is_goursat",
                     "equiregular_check", "tanaka_symbol"],
    "models": ["build_model", "prolong", "deprolongation_degree"],
    "parsing": ["parse_expr"],
    "cli": ["resolve_input", "emit"],
}

# per-layer metrics of a traced run: (name, unit)
PER_LAYER = [
    ("kernel.poly_gcd.calls", "count"),
    ("kernel.poly_gcd.s", "s"),
    ("kernel.rf_nullspace.s", "s"),
    ("kernel.rf_solve_minimal.s", "s"),
    ("kernel.q_nullspace.s", "s"),
    ("geometry.lie_bracket.calls", "count"),
    ("geometry.lie_bracket.s", "s"),
    ("geometry.lie_bracket.max_terms", "count"),
    ("geometry.field_at.calls", "count"),
    ("geometry.field_at.s", "s"),
    ("symplectic.fiber_sample.calls", "count"),
    ("symplectic.class_at_sample.calls", "count"),
    ("symplectic.sample_yield", "ratio"),
    ("symplectic.class_at_sample.s", "s"),
    ("symplectic.char_field.calls", "count"),
    ("symplectic.annihilator_basis.calls", "count"),
    ("symplectic.cone_J_generators.s", "s"),
    ("extremals.integrate_char.s", "s"),
    ("extremals.rk4_steps_per_s", "1/s"),
    ("extremals.nu_along.s", "s"),
    ("symmetry.symmetry_basis.calls", "count"),
    ("symmetry.symmetry_basis.s", "s"),
    ("symmetry.unknowns", "count"),
    ("symmetry.detect_weights.s", "s"),
    ("symmetry.annihilator_forms.s", "s"),
    ("distribution.weak_flag.calls", "count"),
    ("distribution.weak_flag.s", "s"),
    ("distribution.strong_flag.s", "s"),
    ("distribution.is_goursat.s", "s"),
    ("distribution.equiregular_check.s", "s"),
    ("distribution.tanaka_symbol.s", "s"),
    ("models.build_model.s", "s"),
    ("models.prolong.s", "s"),
    ("models.deprolongation_degree.s", "s"),
    ("parsing.parse_expr.calls", "count"),
    ("parsing.parse_expr.s", "s"),
    ("cli.resolve_input.s", "s"),
    ("cli.emit.s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_pct", "%"),
]

MAX_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.spans = []             # (name, start, end, parent, request)
        self.dropped = 0
        self.calls = {}
        self.total = {}             # inclusive, outermost calls only
        self.self_time = {}
        self.counters = {"lie_bracket.max_terms": 0, "class_ok": 0,
                         "rk4_steps": 0, "unknowns": 0, "report_bytes": 0}
        self.request = None
        self._stack = []            # [name, span index, child seconds]
        self._active = {}
        self._patched = []

    # -- patching --------------------------------------------------------

    def install(self):
        import rank2dist.geometry as geometry
        mods = {name: sys.modules["rank2dist." + name] for name in TARGETS}
        originals = {}
        for mod, names in TARGETS.items():
            for fn in names:
                originals[id(getattr(mods[mod], fn))] = (
                    "%s.%s" % (mod, fn), getattr(mods[mod], fn))
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if not (modname == "rank2dist" or
                    modname.startswith("rank2dist.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None:
                    continue
                name, fn = hit
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                setattr(module, attr, wrappers[id(fn)])
                self._patched.append((module, attr, value))
        at = geometry.VectorField.at
        geometry.VectorField.at = self._wrap("geometry.field_at", at)
        self._patched.append((geometry.VectorField, "at", at))

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    def _wrap(self, name, fn):
        stack = self._stack
        active = self._active
        spans = self.spans
        calls = self.calls
        total = self.total
        self_time = self.self_time
        post = _POST.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = -1
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                spans.append(None)
            else:
                self.dropped += 1
            frame = [name, idx, 0.0]
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[name] -= 1
                dt = t1 - t0
                calls[name] = calls.get(name, 0) + 1
                if not active[name]:
                    total[name] = total.get(name, 0.0) + dt
                self_time[name] = self_time.get(name, 0.0) + dt - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dt
                if idx >= 0:
                    spans[idx] = (name, t0, t1,
                                  parent[1] if parent else -1, self.request)
            if post is not None:
                post(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self, rounds, overhead_pct):
        """Per-layer metrics, each per round (one pass over the workload's
        operation list)."""
        c, t, k = self.calls, self.total, self.counters
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_pct":
                v = overhead_pct
            elif name == "symplectic.sample_yield":
                draws = c.get("symplectic.fiber_sample", 0)
                v = k["class_ok"] / draws if draws else 0.0
            elif name == "extremals.rk4_steps_per_s":
                s = t.get("extremals.integrate_char", 0.0)
                v = k["rk4_steps"] / s if s else 0.0
            elif name == "geometry.lie_bracket.max_terms":
                v = k["lie_bracket.max_terms"]
            elif name == "symmetry.unknowns":
                v = k["unknowns"] / rounds
            elif name == "cli.report_bytes":
                v = k["report_bytes"] / rounds
            elif name.endswith(".calls"):
                v = c.get(name[:-len(".calls")], 0) / rounds
            else:
                v = t.get(name[:-len(".s")], 0.0) / rounds
            out[name] = {"value": v, "unit": unit}
        return out

    def write(self, path, meta):
        t0 = min((s[1] for s in self.spans if s), default=0.0)
        doc = {
            "meta": meta,
            "functions": {
                name: {"calls": self.calls[name],
                       "total_s": self.total.get(name, 0.0),
                       "self_s": self.self_time.get(name, 0.0)}
                for name in sorted(self.calls)},
            "counters": self.counters,
            "spans_dropped": self.dropped,
            "span_fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7),
                       s[3], s[4]] for s in self.spans if s],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _post_bracket(tr, args, kwargs, out):
    terms = max((len(c.num.terms) + len(c.den.terms) for c in out.components),
                default=0)
    if terms > tr.counters["lie_bracket.max_terms"]:
        tr.counters["lie_bracket.max_terms"] = terms


def _post_class(tr, args, kwargs, out):
    tr.counters["class_ok"] += 1


def _post_integrate(tr, args, kwargs, out):
    tr.counters["rk4_steps"] += len(out.states) - 1


def _post_symmetry(tr, args, kwargs, out):
    dist = args[0]
    d = args[1] if len(args) > 1 else kwargs["d"]
    n = dist.chart.dim
    tr.counters["unknowns"] += n * math.comb(n + d, d)


def _post_emit(tr, args, kwargs, out):
    cli_args = args[1]
    if cli_args.out and os.path.exists(cli_args.out):
        tr.counters["report_bytes"] += os.path.getsize(cli_args.out)


_POST = {
    "geometry.lie_bracket": _post_bracket,
    "symplectic.class_at_sample": _post_class,
    "extremals.integrate_char": _post_integrate,
    "symmetry.symmetry_basis": _post_symmetry,
    "cli.emit": _post_emit,
}
