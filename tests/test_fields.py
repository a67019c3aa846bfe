"""Expression DSL, vector fields, chart maps, and domain boxes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym.errors import (
    DomainError,
    ParseError,
    SingularChartError,
    UnknownVariableError,
    ZeroVectorError,
    each_row,
    take_rows,
)
from finsym.fields import (
    _MAX_NESTING,
    _pow_value,
    ChartMap,
    DomainBox,
    ScalarFieldSpec,
    VectorFieldSpec,
    chart_jacobians,
)

from conftest import fd_estimate

V2 = ["x1", "x2"]
V4 = ["x1", "x2", "y1", "y2"]


class TestParser:
    def test_simple_product(self):
        f = ScalarFieldSpec.parse("x1^2*x2", V2)
        assert f.evaluate([2.0, 3.0]) == 12.0

    def test_norm_field(self):
        f = ScalarFieldSpec.parse("sqrt(y1^2+y2^2)", V4)
        assert f.evaluate([0.0, 0.0, 3.0, 4.0]) == 5.0

    def test_quartic_norm(self):
        f = ScalarFieldSpec.parse("(y1^4+y2^4)^0.25", V4)
        assert f.evaluate([0.0, 0.0, 1.0, 1.0]) == pytest.approx(2 ** 0.25)

    def test_precedence(self):
        f = ScalarFieldSpec.parse("1+2*3^2", V2)
        assert f.evaluate([0.0, 0.0]) == 19.0

    def test_unary_minus(self):
        f = ScalarFieldSpec.parse("-x1^2", V2)
        assert f.evaluate([3.0, 0.0]) == -9.0
        g = ScalarFieldSpec.parse("2*-3", V2)
        assert g.evaluate([0.0, 0.0]) == -6.0

    def test_negative_exponent(self):
        f = ScalarFieldSpec.parse("x1^-2", V2)
        assert f.evaluate([2.0, 0.0]) == 0.25

    @pytest.mark.parametrize("p,entries", [
        (3.0, [0.5, -1.25, 7.0, 0.0]),
        (-1.0, [2.0, -4.0, 1e-300]),
        (2.0, [0.5, 1e200, -3.0, 1e300]),      # overflows at the second
        (-2.0, [0.5, -3.0, 0.0, 2.0, 0.0]),    # 0^-2 at the third
        (-3.0, [1e-120, 0.0]),                 # overflows before 0^-3
        (1.5, [4.0, 0.0, -1.0, 2.0]),          # fractional: fails at 0
        (0.5, [4.0, 2.0]),
    ])
    def test_array_power_is_the_per_entry_power(self, p, entries):
        """A power of an array is each entry's power as a Python float,
        bit for bit, or the first failing entry's error, type and text."""
        def per_entry():
            return np.array([_pow_value(e, p) for e in entries])

        try:
            expected = per_entry()
        except DomainError as exc:
            with pytest.raises(DomainError) as err:
                _pow_value(np.array(entries), p)
            assert str(err.value) == str(exc)
        else:
            found = _pow_value(np.array(entries), p)
            assert found.tobytes() == expected.tobytes()

    def test_division(self):
        f = ScalarFieldSpec.parse("x1/x2", V2)
        assert f.evaluate([1.0, 4.0]) == 0.25
        with pytest.raises(DomainError):
            f.evaluate([1.0, 0.0])

    def test_whitespace_insignificant(self):
        a = ScalarFieldSpec.parse(" x1 + 2 * x2 ", V2)
        b = ScalarFieldSpec.parse("x1+2*x2", V2)
        assert a.program == b.program

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError) as err:
            ScalarFieldSpec.parse("x1+z9", V2)
        assert err.value.position == 3

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            ScalarFieldSpec.parse("x1+*x2", V2)
        assert err.value.position == 3

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            ScalarFieldSpec.parse("(x1+x2", V2)

    def test_exponent_must_be_literal(self):
        with pytest.raises(ParseError):
            ScalarFieldSpec.parse("x1^x2", V2)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            ScalarFieldSpec.parse("x1 x2", V2)

    @pytest.mark.parametrize("opening, closing", [
        ("(", ")"), ("sqrt(", ")"), ("-", ""), ("-(", ")")])
    def test_nesting_limit(self, opening, closing):
        depth = _MAX_NESTING // (2 if opening == "-(" else 1)
        at_limit = opening * depth + "x1" + closing * depth
        ScalarFieldSpec.parse(at_limit, V2)
        with pytest.raises(ParseError, match="nested more than"):
            ScalarFieldSpec.parse(opening + at_limit + closing, V2)

    def test_long_sum_costs_no_stack_depth(self):
        f = ScalarFieldSpec.parse("+".join(["x1*x2"] * 3000), V2)
        assert f.evaluate([0.5, 2.0]) == 3000.0
        jet = f.eval_jet([0.5, 2.0], 2)
        assert jet.value.tolist() == [3000.0]
        assert jet.derivatives(1).tolist() == [[6000.0, 1500.0]]
        assert jet.derivatives(2).tolist() == [[[0.0, 3000.0],
                                                [3000.0, 0.0]]]


@st.composite
def _expressions(draw, depth=0):
    """Expression text, every compound in parentheses, with the postfix
    program the parser must emit for it."""
    if depth >= 3:
        leaf = draw(st.integers(0, 2))
        if leaf == 0:
            value = float(draw(st.integers(0, 9)))
            return repr(value), (("num", value),)
        return f"x{leaf}", (("var", leaf - 1),)
    kind = draw(st.integers(0, 7))
    if kind == 0:
        value = float(draw(st.integers(0, 9)))
        return repr(value), (("num", value),)
    if kind == 1:
        i = draw(st.integers(1, 2))
        return f"x{i}", (("var", i - 1),)
    a_text, a_program = draw(_expressions(depth=depth + 1))
    b_text, b_program = draw(_expressions(depth=depth + 1))
    if kind <= 5:
        op = "+-*/"[kind - 2]
        return f"({a_text}{op}{b_text})", a_program + b_program + ((op, None),)
    if kind == 6:
        return f"(-{a_text})", a_program + (("neg", None),)
    if draw(st.booleans()):
        p = float(draw(st.sampled_from([-2, -1, 2, 3, 0.5, 1.5])))
        return f"({a_text}^{p!r})", a_program + (("^", p),)
    return f"sqrt({a_text})", a_program + (("sqrt", None),)


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_print_parse_round_trip(expression):
    text, program = expression
    assert ScalarFieldSpec.parse(text, V2).program == program


def _specs(*texts):
    return tuple(ScalarFieldSpec.parse(t, V2) for t in texts)


class TestVectorField:
    def test_constant_field(self):
        w = VectorFieldSpec(_specs("1", "0"))
        assert w.values([[0.3, -0.2]])[0].tolist() == [1.0, 0.0]
        assert not w.jacobian([[0.3, -0.2]])[0].any()

    def test_zero_at_origin(self):
        w = VectorFieldSpec(_specs("-x2", "x1"))
        with pytest.raises(ZeroVectorError):
            w.values([[0.0, 0.0]])

    @pytest.mark.parametrize("texts,rows", [
        (("x1", "x2"), [[0.5, 0.5], [0.0, 0.0], [0.0, 1e-7], [1.0, 1.0]]),
        (("1/x1", "1"), [[0.5, 0.5], [2.0, 1.0], [0.0, 0.3], [-1e-300, 1.0]]),
        (("1", "x2^-400"), [[1.0, 1.0], [1.0, 1e-5], [1.0, 0.0]]),
    ])
    def test_stack_raises_the_first_failing_rows_error(self, texts, rows):
        """The stack raises, and its rows replayed by ``each_row`` give
        first the error of the first row that fails alone, as the FD
        stencil reads it."""
        w = VectorFieldSpec(_specs(*texts))
        rows = np.array(rows)
        expected = None
        for r in rows:
            try:
                w.values([r])
            except (DomainError, ZeroVectorError) as exc:
                expected = exc
                break
        with pytest.raises(type(expected)):
            w.values(rows)
        _, _, errors = each_row(w.values, rows)
        first = errors[min(errors)]
        assert type(first) is type(expected)
        assert str(first) == str(expected)

    def test_polynomial_jacobian(self):
        w = VectorFieldSpec(_specs("1+x1^2", "x2"))
        assert np.allclose(w.values([[1.0, 2.0]])[0], [2.0, 2.0])
        jac = w.jacobian([[1.0, 2.0]])[0]
        assert jac[0, 0] == 2.0
        assert jac[1, 1] == 1.0
        assert jac[0, 1] == jac[1, 0] == 0.0


def _chart(fwd, inv, **kw):
    return ChartMap(forward=_specs(*fwd), inverse=_specs(*inv), **kw)


class TestChartMap:
    def test_identity(self):
        c = _chart(["x1", "x2"], ["x1", "x2"])
        jac = take_rows(chart_jacobians(c, [[0.4, -0.7]]), 0)
        assert np.allclose(jac.fwd, np.eye(2))
        assert np.allclose(jac.inv, np.eye(2))
        assert np.max(np.abs(jac.inv2)) == 0.0

    def test_linear(self):
        c = _chart(["x1+x2", "x2"], ["x1-x2", "x2"])
        jac = take_rows(chart_jacobians(c, [[0.3, 0.5]]), 0)
        assert np.allclose(jac.fwd, [[1, 1], [0, 1]])
        assert np.allclose(jac.inv, [[1, -1], [0, 1]])
        assert np.max(np.abs(jac.inv2)) == 0.0

    def test_quadratic_second_derivative(self):
        c = _chart(["x1", "x2+x1^2/2"], ["x1", "x2-x1^2/2"])
        jac = take_rows(chart_jacobians(c, [[0.8, -0.1]]), 0)
        assert jac.inv2[1, 0, 0] == pytest.approx(-1.0, abs=1e-12)
        # independent oracle on the inverse component
        inv2_fd = fd_estimate(c.inverse[1], jac.xhat, (2, 0))
        assert abs(jac.inv2[1, 0, 0] - inv2_fd) < 1e-8

    def test_chain_rule_identity(self):
        c = _chart(["x1", "x2+x1^2/2"], ["x1", "x2-x1^2/2"])
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = -1 + 2 * rng.random(2)
            jac = take_rows(chart_jacobians(c, [x]), 0)
            assert np.max(np.abs(jac.fwd @ jac.inv - np.eye(2))) <= 1e-8

    def test_singular_chart(self):
        c = _chart(["x1*x2", "x2"], ["x1/x2", "x2"])
        with pytest.raises(SingularChartError):
            take_rows(chart_jacobians(c, [[0.5, 0.0000000001]]), 0)

    def test_inconsistent_inverse(self):
        c = _chart(["x1", "x2+x1^2/2"], ["x1", "x2-x1^2"])
        with pytest.raises(SingularChartError):
            take_rows(chart_jacobians(c, [[0.8, -0.1]]), 0)
        # the right Jacobian, but the inverse does not return to x
        shifted = _chart(["x1", "x2"], ["x1+0.3", "x2"])
        with pytest.raises(SingularChartError, match="round-trip"):
            take_rows(chart_jacobians(shifted, [[0.4, -0.7]]), 0)

    def test_swapped(self):
        c = _chart(["x1+x2", "x2"], ["x1-x2", "x2"])
        x = np.array([0.2, 0.9])
        jac = take_rows(chart_jacobians(c, [x]), 0)
        back = take_rows(chart_jacobians(c.swapped(), [jac.xhat]), 0)
        assert np.allclose(back.xhat, x)
        assert np.allclose(back.fwd, jac.inv)


class TestDomainBox:
    def test_contains(self):
        box = DomainBox((-1.0, -1.0), (1.0, 1.0),
                        excluded=(((0.0, 0.0), 0.25),))
        assert box.contains([0.5, 0.5])
        assert not box.contains([1.5, 0.0])
        assert not box.contains([0.1, 0.1])  # inside the excluded ball
        assert box.contains([0.25, 0.0])     # on the ball boundary

    def test_non_finite_coordinates_are_outside(self):
        """Every comparison with NaN is false, so NaN would pass the box
        test; a non-finite coordinate is outside even an unbounded box."""
        box = DomainBox((0.0,), (1.0,))
        assert not box.contains([math.nan])
        assert not box.contains([math.inf])
        wide = DomainBox((-math.inf, -1.0), (math.inf, 1.0),
                         excluded=(((5.0, 0.0), 1.0),))
        assert wide.contains([1e308, 0.0])
        rows = np.array([[0.5, 0.5], [math.nan, 0.0], [math.inf, 0.0],
                         [0.0, math.nan], [5.0, 0.5], [-1e308, -1.0]])
        assert wide.contains_rows(rows).tolist() == [
            True, False, False, False, False, True]
        assert [wide.contains(x) for x in rows] == [
            True, False, False, False, False, True]

    def test_require(self):
        box = DomainBox((0.0,), (1.0,))
        with pytest.raises(DomainError):
            box.require([2.0])

    def test_far_excluded_ball(self):
        # the distance to the centre is finite; its square is not
        box = DomainBox((-1.0, -1.0), (1.0, 1.0),
                        excluded=(((1e308, 1e308), 1e300),))
        assert box.contains([0.5, -0.5])
        near = DomainBox((-1.0, -1.0), (1.0, 1.0),
                         excluded=(((1e308, 1e308), 1.5e308),))
        assert not near.contains([0.5, -0.5])
        # the offset from the centre overflows to -inf: outside the ball
        far = DomainBox((-1.7e308, -1.0), (1.0, 1.0),
                        excluded=(((1.7e308, 0.0), 1.0),))
        assert far.contains([-1.7e308, 0.0])

    def test_empty_interior_rejected(self):
        with pytest.raises(ValueError):
            DomainBox((1.0,), (1.0,))
