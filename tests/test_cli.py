"""CLI: subcommands, exit codes, deterministic JSON, schema validation."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rank2dist.cli import _BLOCK_ROWS, main, write_json

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src" / "rank2dist" / "schema" /
     "report-v1.json").read_text())


# z' = y3^2 - 2/3 y3 y1 + 5/2 x y0^2 + y2^3 at a point off the origin
RANDOM_MONGE6 = {
    "coordinates": ["x", "y0", "y1", "y2", "y3", "z"],
    "fields": [["1", "y1", "y2", "y3", "0",
                "y3^2 - 2/3*y3*y1 + 5/2*x*y0^2 + y2^3"],
               ["0", "0", "0", "0", "1", "0"]],
    "point": ["1/2", "-1", "0", "2", "1/3", "0"],
}


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

    @pytest.mark.parametrize("argv", [
        ["--model", "monge", "--n", "5"], ["--model", "monge", "--n", "6"],
        ["--model", "monge", "--n", "7"], ["--model", "monge", "--n", "8"],
        ["--model", "free-flat", "--step", "4"],
        ["--model", "free-flat", "--step", "5"], None],
        ids=["monge5", "monge6", "monge7", "monge8", "free-flat4",
             "free-flat5", "random-monge"])
    def test_tanaka_dims_are_the_symbol_dims(self, tmp_path, argv):
        # the report reads the grading off the weak growth vector
        from rank2dist.cli import build_parser, resolve_input
        from rank2dist.distribution import tanaka_symbol
        if argv is None:
            path = tmp_path / "random_monge.json"
            path.write_text(json.dumps(RANDOM_MONGE6))
            argv = ["--input", str(path)]
        code, rep = run_cli(["analyze"] + argv, tmp_path)
        assert code == 0
        dist, point, _ = resolve_input(
            build_parser().parse_args(["analyze"] + argv))
        assert rep["tanaka_symbol_dims"] == \
            tanaka_symbol(dist, point, samples=0).dims

    @pytest.mark.parametrize("argv", [
        ["--model", "cartan-jet", "--k", "12"], ["--model", "monge", "--n", "6"],
    ], ids=["cartan-jet12", "monge6"])
    def test_one_weak_and_one_strong_flag_at_the_base_point(
            self, tmp_path, monkeypatch, argv):
        # each flag checks the frame once at its point; the memo serves the
        # Goursat, equiregularity and deprolongation steps
        from rank2dist.distribution import Distribution
        from rank2dist.kernel import as_q
        real = Distribution.check_frame_at
        at_base = []

        def counting(dist, q):
            if all(as_q(x) == 0 for x in q):
                at_base.append(list(q))
            return real(dist, q)

        monkeypatch.setattr(Distribution, "check_frame_at", counting)
        code, _ = run_cli(["analyze"] + argv, tmp_path)
        assert code == 0
        assert len(at_base) == 2

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
        # the exact class at the starting covector is 5 = n - 3
        code, rep = run_cli(["trace", "--model", "monge", "--n", "8",
                             "--seed", "0", "--T", "0.25", "--steps", "50"],
                            tmp_path)
        assert code == 0
        assert rep["nu_trace"][0] == 5

    @pytest.mark.parametrize("args", [
        ["--n", "8", "--seed", "3"],
        ["--n", "10", "--seed", "35754"],
        ["--n", "6", "--seed", "856657", "--T", "0.25", "--steps", "6000"],
    ], ids=["n8-seed3", "n10-seed35754", "n6-seed856657"])
    def test_flat_model_class_is_maximal_along_the_trace(self, args,
                                                          tmp_path):
        # a float rank once read a lower class at some states of these runs
        code, rep = run_cli(["trace", "--model", "monge"] + args, tmp_path)
        assert code == 0
        n = int(args[1])
        assert rep["nu_trace"] == [n - 3] * len(rep["nu_trace"])
        validate(rep)

    def test_report_bytes_pinned(self, tmp_path):
        # the bytes written before the RK4 step was generated and the report
        # streamed
        out = tmp_path / "trace.json"
        assert main(["trace", "--model", "monge", "--n", "7", "--seed", "5",
                     "--T", "0.25", "--steps", "2000", "--out",
                     str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2066eab61cdc59092579f46e7d70b0aee255e8c0f88c25d2bc840cfd72ef64bf")

    @pytest.mark.parametrize("args", [
        ["--model", "monge", "--n", "6", "--T", "1e80"],
        ["--model", "free-flat", "--step", "4", "--T", "1e45"],
        ["--model", "monge", "--n", "6", "--T", "1e65"],
    ], ids=["monge-pow-overflow", "free-flat-pow-overflow",
            "monge-infinite-state"])
    def test_float_overflow_halts_the_trace(self, args, tmp_path):
        # ** raised OverflowError, or an infinite state was recorded
        code, _ = run_cli(["trace"] + args + ["--steps", "1"], tmp_path)
        assert code == 0

        def reject(name):
            raise ValueError("non-finite %s in the report" % name)

        rep = json.loads((tmp_path / "out.json").read_text(),
                         parse_constant=reject)
        assert rep["halted"] is True
        assert rep["halt_reason"] == "float overflow at step 1"
        assert len(rep["states"]) == 1
        validate(rep)

    def test_float_division_by_zero_halts_the_trace(self, tmp_path):
        # z' = y2^2 + 1/x from x = 1 with x' = -8: the second RK4 stage of
        # step 1 lands on x = 0.0 exactly, and 1/x divided by a float zero
        p = tmp_path / "pole.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y0", "y1", "y2", "z"],
            "fields": [["1", "y1", "y2", "0", "y2^2 + 1/x"],
                       ["0", "0", "0", "1", "0"]],
            "point": ["1", "0", "0", "1", "0"],
        }))
        code, rep = run_cli(["trace", "--input", str(p), "--T", "0.25",
                             "--steps", "1"], tmp_path)
        assert code == 0
        assert rep["halted"] is True
        assert rep["halt_reason"] == "float division by zero at step 1"
        assert len(rep["states"]) == 1
        validate(rep)

    def test_float_zero_denominator_at_the_start(self, tmp_path, capsys):
        # y0 = y1 = 10^-200 are exact nonzero rationals, but their squares
        # are 0.0 in floats, so y0^2/(y0^2+y1^2) is 0.0/0.0 at the start
        tiny = "0." + "0" * 199 + "1"
        p = tmp_path / "underflow.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y0", "y1", "y2", "z"],
            "fields": [["1", "y1", "y2", "0", "y2^2 + y0^2/(y0^2+y1^2)"],
                       ["0", "0", "0", "1", "0"]],
            "point": ["0", tiny, tiny, "1", "0"],
        }))
        code, _ = run_cli(["trace", "--input", str(p), "--T", "0.1",
                           "--steps", "10"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition failed:")
        assert len(err.strip().splitlines()) == 1

    def test_trace_needs_cube5(self, tmp_path, capsys):
        code, rep = run_cli(["trace", "--model", "cartan-jet", "--k", "3"],
                            tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition failed:")
        assert len(err.strip().splitlines()) == 1


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


class TestLongCoefficients:
    def test_report_prints_values_past_the_digit_limit(self, tmp_path):
        # z' = 2^15000 y2^2: the fiber samples have coordinates of about
        # 4500 decimal digits, past Python's int-to-string limit
        p = tmp_path / "long.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y0", "y1", "y2", "z"],
            "fields": [["1", "y1", "y2", "0", "2^15000*y2^2"],
                       ["0", "0", "0", "1", "0"]],
            "point": ["0", "0", "0", "1", "0"],
        }))
        limit = sys.get_int_max_str_digits()
        code, rep = run_cli(["analyze", "--input", str(p), "--samples", "1"],
                            tmp_path)
        assert code == 0
        assert rep["class"]["m"] == 2
        momentum = rep["class"]["samples"][0]["momentum"]
        assert max(len(v) for v in momentum) > limit
        assert sys.get_int_max_str_digits() == limit

    def test_sampled_points_past_the_digit_limit(self, tmp_path, capsys):
        # X2 vanishes on x = C + 1/2, a sampling-box point whose numerator
        # 2C + 1 has 4301 digits; its DegenerateFrame message must not
        # fail to format, so the sampler skips the point
        c = "9" * 4300
        p = tmp_path / "long_point.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y"],
            "fields": [["1", "0"], ["0", "2*x - 2*%s - 1" % c]],
            "point": [c, "0"],
        }))
        limit = sys.get_int_max_str_digits()
        code, rep = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert (code, capsys.readouterr().err) == (0, "")
        assert rep["equiregular_sampled"] is True
        assert sys.get_int_max_str_digits() == limit

    def test_parsing_keeps_the_digit_limit(self, tmp_path, capsys):
        p = tmp_path / "long_literal.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y", "z"],
            "fields": [["1", "0", "1" * 5000 + "*y"], ["0", "1", "0"]],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1
        assert "limit" in capsys.readouterr().err


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

    @pytest.mark.parametrize("spec", [
        {"coordinates": ["x", "y", "z"]},
        [["1", "0", "y"], ["0", "1", "0"]],
        {"coordinates": ["x", "y", "z"],
         "fields": [["1", "0", "y"], ["0", "1", "0"]],
         "point": ["1/0", "0", "0"]},
        {"coordinates": ["x", "y", "z"],
         "fields": [["1", "0", "(" * 2000 + "x" + ")" * 2000],
                    ["0", "1", "0"]]},
        {"coordinates": ["x", "y", "z"],
         "fields": [["1", "0", "-" * 5000 + "x"], ["0", "1", "0"]]},
    ], ids=["no-fields", "not-an-object", "zero-denominator-point",
            "nested-parentheses", "nested-minus"])
    def test_malformed_input_is_one_line(self, tmp_path, capsys, spec):
        p = tmp_path / "malformed.json"
        p.write_text(json.dumps(spec))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert len(err.strip().splitlines()) == 1

    def test_deeply_nested_json_is_one_line(self, tmp_path, capsys):
        # raw text: json.dumps itself would recurse this deep
        p = tmp_path / "nested.json"
        p.write_text('{"coordinates": ["x", "y", "z"], "fields": %s%s}'
                     % ("[" * 100000, "]" * 100000))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("coords", [["x", "y z", "2w"], ["x", "", "z"]],
                             ids=["space-and-digit", "empty"])
    def test_coordinate_names_outside_the_grammar(self, tmp_path, capsys,
                                                  coords):
        # the report's basis strings must parse back on the same chart
        p = tmp_path / "names.json"
        p.write_text(json.dumps({
            "coordinates": coords,
            "fields": [["1", "0", "0"], ["0", "1", "0"]],
        }))
        code, _ = run_cli(["symmetries", "--input", str(p), "--degree", "1"],
                          tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: coordinate name")
        assert len(err.strip().splitlines()) == 1

    def test_exponent_point_fails_fast(self, tmp_path, capsys):
        # Fraction("1e99999999") alone would build a 10^99999999 integer
        p = tmp_path / "huge_point.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y", "z"],
            "fields": [["1", "0", "y"], ["0", "1", "0"]],
            "point": ["1e99999999", "0", "0"],
        }))
        start = time.perf_counter()
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert len(err.strip().splitlines()) == 1

    def test_huge_constant_power_is_one_line(self, tmp_path, capsys):
        p = tmp_path / "huge_power.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y", "z"],
            "fields": [["1", "0", "(2^65535)^1024"], ["0", "1", "0"]],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert len(err.strip().splitlines()) == 1

    def test_product_exponent_overflow_is_an_input_error(self, tmp_path,
                                                         capsys):
        # x^40000*x^40000 used to wrap into x^14464*y
        p = tmp_path / "wrap.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y", "z"],
            "fields": [["1", "0", "x^40000*x^40000"], ["0", "1", "0"]],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 1
        assert "exceeds 65535" in capsys.readouterr().err

    def test_symmetry_equation_exponent_overflow_is_an_input_error(
            self, tmp_path, capsys):
        # y^40000 * y^40000 in the symmetry equations used to carry into
        # the next exponent field
        p = tmp_path / "wrap_symmetries.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y", "z"],
            "fields": [["1", "0", "y^40000"], ["0", "1", "x^40000*z"]],
        }))
        code, _ = run_cli(["symmetries", "--input", str(p), "--degree", "1"],
                          tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "exceeds 65535" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("args, flag", [
        (["--model", "monge"], "--n"),
        (["--model", "free-flat"], "--step"),
        (["--model", "cartan-jet"], "--k"),
        (["--model", "prolonged"], "--prolong"),
    ], ids=["monge", "free-flat", "cartan-jet", "prolonged"])
    def test_missing_model_parameter(self, tmp_path, capsys, args, flag):
        code, _ = run_cli(["analyze"] + args, tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert flag in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv, named", [
        (["analyze", "--n", "abc"], "--n"),
        (["analyze", "--model", "monge", "--n", "5", "--bogus"], "--bogus"),
        (["nope"], "nope"),
        ([], "command"),
        (["trace", "--model", "monge", "--n", "6", "--T", "inf"], "--T"),
        (["trace", "--model", "monge", "--n", "6", "--T", "nan"], "--T"),
        (["analyze", "--model", "monge", "--n", "6", "--samples", "0"],
         "--samples"),
        (["trace", "--model", "monge", "--n", "5", "--steps", "-5"],
         "--steps"),
        (["analyze", "--model", "monge", "--n", "5", "--prolong", "-1"],
         "--prolong"),
        (["analyze", "--model", "monge", "--n", "6", "--depth-cap", "3"],
         "--depth-cap"),
        (["trace", "--model", "monge", "--n", "5", "--samples", "1"],
         "--samples"),
        (["symmetries", "--model", "monge", "--n", "5", "--samples", "1"],
         "--samples"),
    ], ids=["bad-int", "unknown-flag", "unknown-command", "no-command",
            "T-inf", "T-nan", "samples-0", "steps-negative",
            "prolong-negative", "depth-cap-removed", "trace-samples",
            "symmetries-samples"])
    def test_argument_errors_are_input_errors(self, capsys, argv, named):
        # exit 2 is kept for geometric precondition failures
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert named in err
        assert len(err.strip().splitlines()) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert "--model" in capsys.readouterr().out

    @pytest.mark.parametrize("degree", ["65536", "-1", "300"])
    def test_symmetry_degree_out_of_range(self, tmp_path, capsys, degree):
        # the exponent guard and the bound on unknowns (degree 300: about
        # 1.1e11 of them) run before any monomial is enumerated
        start = time.perf_counter()
        code, _ = run_cli(["symmetries", "--model", "monge", "--n", "5",
                           "--degree", degree], tmp_path)
        assert code == 1
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_an_input_error(self, tmp_path, capsys, where):
        out = tmp_path / "nothere" / "x.json" if where == "missing-directory" \
            else tmp_path
        assert main(["analyze", "--model", "monge", "--n", "5", "--out",
                     str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_file(self, tmp_path):
        code, _ = run_cli(["analyze", "--input",
                           str(tmp_path / "nothere.json")], tmp_path)
        assert code == 1

    def test_poles_around_the_base_point(self, tmp_path, capsys):
        # every sampling-box point but the base point is a pole, so the
        # equiregularity check cannot draw its samples
        d = "*".join("(4*%s^2-1)*(%s^2-1)*(4*%s^2-9)" % (v, v, v)
                     for v in "xy")
        p = tmp_path / "poles.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y"],
            "fields": [["1/(%s)" % d, "0"], ["0", "1"]],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
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

    def test_precondition_spells_the_point_like_the_report(self, tmp_path,
                                                           capsys):
        # coordinates read as in provenance.base_point, under either backend
        p = tmp_path / "x2_zero.json"
        p.write_text(json.dumps({
            "coordinates": ["x", "y0", "y1", "y2", "z"],
            "fields": [["1", "y1", "y2", "0", "y2^2"],
                       ["0", "0", "0", "0", "0"]],
            "point": ["0", "0", "1/2", "-3", "0"],
        }))
        code, _ = run_cli(["analyze", "--input", str(p)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == (
            "precondition failed: frame fields dependent at "
            "[0, 0, 1/2, -3, 0]\n")


def _pieces(obj):
    """The pieces write_json hands to `write`, checked against json.dumps."""
    chunks = []
    write_json(obj, chunks.append)
    text = "".join(chunks)
    expected = json.dumps(obj, indent=2, sort_keys=True)
    if text != expected:
        # pytest's diff of two long texts would take minutes
        at = len(os.path.commonprefix([text, expected]))
        pytest.fail("differs from json.dumps at offset %d: %r, not %r"
                    % (at, text[at:at + 40], expected[at:at + 40]))
    return chunks


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() |
            st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                             1e308]) | st.text())
_JSON = st.recursive(_SCALARS, lambda kids: (
    st.lists(kids) | st.lists(kids).map(tuple) |
    st.dictionaries(st.text(), kids)), max_leaves=30)


@given(_JSON)
@example([1, [], {}, (), "\u00e9\x00\n\"", -0.0,
          [5e-324, 1e308, math.nan, math.inf, -math.inf, True, None]])
@example({"b": ({"c": [[1.5], "x"]},), "a": {}, "\x7f": [[]]})
def test_writer_spells_reports_like_json_dumps(obj):
    _pieces(obj)


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
def test_row_blocks_are_written_in_chunks(rows):
    block = [[k * 0.1, -k, 1e-300 * k, k % 2 == 0, None, "r%d" % k]
             [:k % 6 + 1] for k in range(rows)]
    # one piece per chunk of rows, plus the closing brackets
    assert len(_pieces(block)) == -(-rows // _BLOCK_ROWS) + 1
    _pieces({"b": {"states": block, "times": [0.5] * rows}, "a": [block]})


def test_row_block_strings_that_look_like_row_boundaries():
    block = [["],\n    [", "[", "\n"], ["]"], ["a],", "],\n  ["]] * 200
    assert len(_pieces(block)) == -(-600 // _BLOCK_ROWS) + 1
    _pieces({"x": [block, block]})


@pytest.mark.parametrize("block", [
    [[1.0], []],
    [[1.0], (2.0,)],
    [[1.0, {"a": 1}]],
    [[1.0, [2.0]]],
], ids=["empty-row", "tuple-row", "dict-in-row", "list-in-row"])
def test_other_lists_of_rows_take_the_per_item_path(block):
    # the per-item path writes each row in its own pieces
    assert len(_pieces(block)) > len(block) + 1
    _pieces({"k": block * 300})


class _Recorder:
    """A stdout that keeps only the length of each written piece."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))


def test_long_trace_report_is_streamed(monkeypatch):
    # one write of a whole states block would hold a copy of its text, as
    # large as most of the report, in memory at once
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["trace", "--model", "monge", "--n", "7",
                 "--steps", "12000"]) == 0
    assert sum(out.sizes) > 4_000_000
    assert max(out.sizes) <= sum(out.sizes) / 8


_TRACE_MODELS = (
    st.integers(5, 9).map(lambda n: ["--model", "monge", "--n", str(n)]) |
    st.integers(3, 4).map(lambda k: ["--model", "free-flat",
                                     "--step", str(k)]))


@settings(max_examples=50, deadline=None)
@given(_TRACE_MODELS,
       st.floats(allow_nan=False, allow_infinity=False) |
       st.sampled_from([5e-324, -5e-324, 1e308, -1.7e308, 2.2e-308]),
       st.integers(0, 40), st.integers())
def test_trace_fuzz_keeps_the_exit_code_contract(model, T, steps, seed):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["trace"] + model + ["--T=%r" % T, "--steps", str(steps),
                                         "--seed=%d" % seed])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    if code == 0:
        assert json.loads(out.getvalue())["steps"] == steps


_COORDS = ("x", "y", "z", "u", "v")


@st.composite
def _input_specs(draw):
    """An input spec on 2-5 coordinates: every frame entry a polynomial of
    degree <= 2 with small integer coefficients, one entry plus a rational
    atom c/(v + d), and an optional base point."""
    names = _COORDS[:draw(st.integers(2, 5))]
    term = st.tuples(st.integers(-3, 3),
                     st.lists(st.sampled_from(names), max_size=2))
    fields = [[" + ".join("%d%s" % (c, "".join("*" + v for v in m))
                          for c, m in draw(st.lists(term, max_size=3))) or "0"
               for _ in names] for _ in range(2)]
    a, i = draw(st.integers(0, 1)), draw(st.integers(0, len(names) - 1))
    fields[a][i] += " + %d/(%s + %d)" % (
        draw(st.integers(-3, 3)), draw(st.sampled_from(names)),
        draw(st.integers(-2, 2)))
    spec = {"coordinates": list(names), "fields": fields}
    if draw(st.booleans()):
        spec["point"] = draw(st.lists(
            st.sampled_from(["0", "1", "-1", "1/2", "-2/3"]),
            min_size=len(names), max_size=len(names)))
    return spec


@settings(max_examples=40, deadline=None)
@given(_input_specs(),
       st.sampled_from([["analyze", "--samples", "1"],
                        ["symmetries", "--degree", "0"],
                        ["symmetries", "--degree", "1"],
                        ["trace", "--steps", "3"]]),
       st.integers())
def test_input_fuzz_keeps_the_exit_code_contract(spec, command, seed):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dist.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(command + ["--input", path, "--seed=%d" % seed])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1
    if code == 0:
        assert json.loads(out.getvalue())["kind"] == command[0]


def test_console_script_entry_point():
    out = subprocess.run([sys.executable, "-m", "rank2dist.cli",
                          "analyze", "--model", "monge", "--n", "5"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["growth_vector"] == [2, 3, 5]
