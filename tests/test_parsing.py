"""Expression grammar: precedence, errors with positions, round trips."""

import time

import pytest

from rank2dist.kernel import PoleError, PolyRing, Q, RatFunc
from rank2dist.parsing import MAX_NESTING, ExpressionError, parse_expr

RING = PolyRing(("x", "y", "z"))


def ev(text, point=(1, 2, 3)):
    return parse_expr(text, RING).eval([Q(v) for v in point])


class TestGrammar:
    def test_precedence(self):
        assert ev("1 + 2*3") == Q(7)
        assert ev("2*x^2") == Q(2)
        assert ev("-x^2") == Q(-1)          # unary binds looser than ^
        assert ev("(1+2)*3") == Q(9)

    def test_right_assoc_power_rejected_on_nonliteral(self):
        with pytest.raises(ExpressionError):
            parse_expr("x^y", RING)

    def test_division(self):
        assert ev("x/y/2") == Q(1, 4)

    def test_rational_constants(self):
        assert ev("3/4 + 1/4", point=(0, 0, 0)) == Q(1)

    def test_unary_chain(self):
        assert ev("--x") == Q(1)
        assert ev("-+x") == Q(-1)

    def test_rational_function(self):
        f = parse_expr("(x^2 - y^2)/(x - y)", RING)
        assert f == RatFunc.from_poly(RING.var("x") + RING.var("y"))

    def test_pole_detection(self):
        f = parse_expr("1/(x - 1)", RING)
        with pytest.raises(PoleError):
            f.eval([Q(1), Q(0), Q(0)])


class TestErrors:
    def test_unknown_variable(self):
        with pytest.raises(ExpressionError):
            parse_expr("x + w", RING)

    def test_position_reported(self):
        with pytest.raises(ExpressionError) as e:
            parse_expr("x + ", RING)
        assert e.value.pos is not None

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionError):
            parse_expr("(x + y", RING)

    def test_bad_exponent(self):
        with pytest.raises(ExpressionError):
            parse_expr("x^-2", RING)

    def test_exponent_beyond_packed_range(self):
        assert parse_expr("x^65535", RING).num.degree_in(0) == 65535
        with pytest.raises(ExpressionError):
            parse_expr("x^65536", RING)

    def test_product_exponent_beyond_packed_range(self):
        with pytest.raises(OverflowError):
            parse_expr("x^40000*x^40000", RING)

    def test_power_coefficient_size_bounded(self):
        # the literal cap bounds each exponent, not their product
        assert parse_expr("2^65535", RING).num.const_value() == 2 ** 65535
        for text in ("(2^65535)^1024", "(2^65535*x)^65535"):
            with pytest.raises(OverflowError):
                parse_expr(text, RING)

    def test_power_of_a_sum_size_bounded(self):
        # (x+1)^65535 has 65536 terms of up to 65535 bits each
        start = time.perf_counter()
        with pytest.raises(OverflowError):
            parse_expr("(x+1)^65535", RING)
        assert time.perf_counter() - start < 1
        assert parse_expr("(x+y)^200", RING).num.total_degree() == 200

    def test_nesting_bounded(self):
        assert ev("(" * 100 + "x" + ")" * 100) == Q(1)
        assert ev("-" * 100 + "x") == Q(1)
        assert ev("(-" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2)
                  ) == Q(1)
        for text in ("(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x",
                     "x + " + "(" * (MAX_NESTING + 1) + "y"):
            with pytest.raises(ExpressionError) as e:
                parse_expr(text, RING)
            assert "nested deeper than %d" % MAX_NESTING in str(e.value)
        assert e.value.pos == 4 + MAX_NESTING

    def test_garbage_token(self):
        with pytest.raises(ExpressionError):
            parse_expr("x $ y", RING)

    def test_empty(self):
        with pytest.raises(ExpressionError):
            parse_expr("", RING)


def test_to_str_round_trip():
    texts = ["x^2 + 2*x*y - z", "(x + y)/(z + 1)", "1/2*x - 3"]
    for t in texts:
        f = parse_expr(t, RING)
        again = parse_expr(f.to_str(), RING)
        assert f == again
