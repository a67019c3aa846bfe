"""Jet arithmetic, derivative extraction, and the finite-difference oracle."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym.errors import DomainError, OrderError
from finsym.fields import ScalarFieldSpec
from finsym.jets import (
    Jet,
    _power_factors,
    _reciprocal_factors,
    fd_base_step,
    fd_oracle,
    fd_stencil,
    multi_index_degree,
    multi_index_factorial,
)

from conftest import partial


def test_multi_index_helpers():
    assert multi_index_degree((2, 1, 0)) == 3
    assert multi_index_factorial((2, 1, 0)) == 2
    assert multi_index_factorial((3, 2)) == 12


class TestJetEval:
    def test_polynomial_partials(self):
        f = ScalarFieldSpec.parse("x1^2*x2", ["x1", "x2"])
        j = f.eval_jet([2.0, 3.0], 3)
        assert j.value == 12.0
        assert j.derivatives(1)[0] == 12.0
        assert j.derivatives(2)[0, 0] == 6.0
        assert j.derivatives(3)[0, 0, 1] == 2.0
        assert j.derivatives(2)[1, 1] == 0.0

    def test_constant_field(self):
        f = ScalarFieldSpec.parse("7", ["x1", "x2"])
        j = f.eval_jet([0.3, -0.5], 2)
        assert j.value == 7.0
        assert not j.derivatives(1).any() and not j.derivatives(2).any()

    def test_sqrt_field_against_oracle(self):
        f = ScalarFieldSpec.parse("sqrt(x1^2+x2^2)", ["x1", "x2"])
        j = f.eval_jet([3.0, 4.0], 2)
        assert j.value == pytest.approx(5.0, abs=1e-14)
        assert j.derivatives(1)[0] == pytest.approx(0.6, abs=1e-14)
        fd = fd_oracle(f, [3.0, 4.0], (2, 0))
        assert abs(j.derivatives(2)[0, 0] - fd) < 1e-8

    def test_callable_field(self):
        v = [Jet.variable(i, p, 2, 2) for i, p in enumerate([2.0, 3.0])]
        j = v[0] * v[0] * v[1]
        assert j.value == 12.0
        assert j.derivatives(2)[0, 1] == 4.0

    def test_partial_beyond_order(self):
        f = ScalarFieldSpec.parse("x1^2*x2", ["x1", "x2"])
        j = f.eval_jet([2.0, 3.0], 2)
        with pytest.raises(OrderError):
            j.derivatives(3)

    def test_idx_zero_is_value(self):
        f = ScalarFieldSpec.parse("x1^2*x2", ["x1", "x2"])
        j = f.eval_jet([2.0, 3.0], 2)
        assert j.derivatives(0) == j.value

    def test_singular_point_raises(self):
        f = ScalarFieldSpec.parse("x1^0.5", ["x1"])
        with pytest.raises(DomainError):
            f.eval_jet([-1.0], 2)
        with pytest.raises(DomainError):
            f.eval_jet([0.0], 2)

    def test_division_by_zero_value(self):
        f = ScalarFieldSpec.parse("1/x1", ["x1"])
        with pytest.raises(DomainError):
            f.eval_jet([0.0], 2)

    @pytest.mark.parametrize("text,x", [
        ("1/x1", 1e-75),        # 1/v^(k+1) underflows to a zero divisor
        ("1/x1", 1e100),        # v^(k+1) overflows
        ("x1^0.5", 1e-200),     # v^(1/2-k) overflows
        ("x1^-2", 1e-80),
    ])
    def test_extreme_values_are_domain_errors(self, text, x):
        f = ScalarFieldSpec.parse(text, ["x1"])
        with pytest.raises(DomainError, match="floating-point range"):
            f.eval_jet([x], 4)


def test_derivatives_match_partial():
    """Every slot of derivatives(k) holds the closed-form partial of
    L^4, L = 1 + x1 + 2 x2 + 3 x3, for the multi-index of its slots:
    4!/(4-k)! * L^(4-k) * prod of the slot coefficients."""
    f = ScalarFieldSpec.parse("(1+x1+2*x2+3*x3)^4", ["x1", "x2", "x3"])
    x = [0.3, -0.7, 1.2]
    L = 1 + x[0] + 2 * x[1] + 3 * x[2]
    j = f.eval_jet(x, 4)
    for k in range(5):
        d = j.derivatives(k)
        assert d.shape == (3,) * k
        falling = float(np.prod(range(4 - k + 1, 5)))
        for slots in np.ndindex(*d.shape):
            expected = falling * L ** (4 - k) * np.prod([v + 1 for v in slots])
            assert d[slots] == pytest.approx(expected, rel=1e-12)
    with pytest.raises(OrderError):
        j.derivatives(5)


class TestJetArithmetic:
    def test_shape_mismatch(self):
        a = Jet.constant(1.0, 2, 2)
        b = Jet.constant(1.0, 2, 3)
        with pytest.raises(ValueError):
            _ = a * b

    def test_reciprocal_and_negative_power(self):
        f = ScalarFieldSpec.parse("(1+x1)^-2", ["x1"])
        j = f.eval_jet([0.5], 3)
        assert j.value == pytest.approx(1.5 ** -2, rel=1e-14)
        assert j.derivatives(1)[0] == pytest.approx(-2 * 1.5 ** -3, rel=1e-13)
        assert j.derivatives(3)[0, 0, 0] == pytest.approx(-24 * 1.5 ** -5,
                                                          rel=1e-12)

    def test_fractional_power(self):
        f = ScalarFieldSpec.parse("x1^1.5", ["x1"])
        j = f.eval_jet([4.0], 2)
        assert j.value == pytest.approx(8.0, rel=1e-14)
        assert j.derivatives(1)[0] == pytest.approx(1.5 * 2.0, rel=1e-14)
        assert j.derivatives(2)[0, 0] == pytest.approx(1.5 * 0.5 / 2.0,
                                                       rel=1e-13)


@st.composite
def _poly_jets(draw, num_vars=2, order=3):
    """Random integer polynomial jets built from variables and constants."""
    point = [float(draw(st.integers(-2, 2))) for _ in range(num_vars)]
    vs = [Jet.variable(i, point[i], num_vars, order) for i in range(num_vars)]

    def term():
        c = draw(st.integers(-3, 3))
        out = Jet.constant(float(c), num_vars, order)
        for _ in range(draw(st.integers(0, 2))):
            out = out * vs[draw(st.integers(0, num_vars - 1))]
        return out

    out = term()
    for _ in range(draw(st.integers(0, 2))):
        out = out + term()
    return out


@settings(max_examples=60, deadline=None)
@given(_poly_jets(), _poly_jets())
def test_product_ring_homomorphism(a, b):
    """Multiplying integer polynomial jets is exact: every derivative of
    the product is the general Leibniz sum over splits of its slots."""
    prod = a * b
    for k in range(prod.order + 1):
        expected = prod.derivatives(k)
        for slots in np.ndindex(*expected.shape):
            acc = 0.0
            for split in product((True, False), repeat=k):
                left = tuple(v for v, s in zip(slots, split) if s)
                right = tuple(v for v, s in zip(slots, split) if not s)
                acc += (a.derivatives(len(left))[left]
                        * b.derivatives(len(right))[right])
            assert acc == expected[slots]


@settings(max_examples=60, deadline=None)
@given(_poly_jets(), _poly_jets())
def test_leibniz_first_derivative(a, b):
    prod = a * b
    lhs = prod.derivatives(1)[0]
    rhs = a.value * b.derivatives(1)[0] + b.value * a.derivatives(1)[0]
    assert lhs == rhs


def _full_power(jet, n):
    """x^n as n full products starting from the constant-1 jet."""
    out = Jet.constant(1.0, jet.num_vars, jet.order)
    for _ in range(n):
        out = out * jet
    return out


def _full_compose(jet, dcoef):
    """Horner's scheme for g(jet) starting from a constant jet."""
    h = jet._nilpotent()
    out = Jet.constant(dcoef[-1], jet.num_vars, jet.order)
    for k in range(len(dcoef) - 2, -1, -1):
        out = out * h
        out.c[0] += dcoef[k]
    return out


@pytest.mark.parametrize("num_vars,order", [(1, 0), (1, 1), (2, 2), (3, 3),
                                            (6, 3), (4, 4)])
def test_shortcuts_match_the_full_products(num_vars, order):
    """Integer powers start from the jet itself and compositions from
    dcoef[-1] * h, one full product fewer; both agree with the full
    products bit for bit."""
    rng = np.random.default_rng(11)
    size = Jet.constant(0.0, num_vars, order).c.size
    for _ in range(10):
        jet = Jet(num_vars, order, rng.uniform(0.5, 2.0, size))
        for n in (1, 2, 3, 5):
            assert (jet ** n).c.tobytes() == _full_power(jet, n).c.tobytes()
        assert ((jet ** -2).c.tobytes()
                == _full_compose(_full_power(jet, 2), _reciprocal_factors(
                    _full_power(jet, 2).value, order)).c.tobytes())
        for p in (0.5, 0.25, -1.5):
            dcoef = _power_factors(jet.value, order, p)
            assert ((jet ** p).c.tobytes()
                    == _full_compose(jet, dcoef).c.tobytes())
        dcoef = rng.normal(size=order + 1).tolist()
        assert (jet._compose(dcoef).c.tobytes()
                == _full_compose(jet, dcoef).c.tobytes())


class TestColumns:
    """A jet with a column per point equals the one-point jets bit for
    bit, column by column."""

    TEXTS = ["x1^2*x2+x2^3", "sqrt(1+x1^2+x2^2)", "(x1^4+x2^4)^0.25",
             "x1/(1+x2^2)", "(1+x1*x2)^-3", "-x1^0.5+2/x2-x1^1.5*x2", "7"]

    @pytest.mark.parametrize("text", TEXTS)
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_eval_jet_columns(self, text, order):
        f = ScalarFieldSpec.parse(text, ["x1", "x2"])
        points = 0.2 + 1.5 * np.random.default_rng(5).random((9, 2))
        block = f.eval_jet(points, order)
        assert block.c.shape[1:] == (9,)
        for p, point in enumerate(points):
            one = f.eval_jet(point, order)
            assert block.c[:, p].tobytes() == one.c.tobytes()
            for k in range(order + 1):
                assert (block.derivatives(k)[p].tobytes()
                        == one.derivatives(k).tobytes())

    @pytest.mark.parametrize("text", TEXTS)
    def test_evaluate_columns(self, text):
        f = ScalarFieldSpec.parse(text, ["x1", "x2"])
        points = 0.2 + 1.5 * np.random.default_rng(6).random((9, 2))
        values = f.evaluate(points)
        assert values.shape == (9,)
        assert values.tolist() == [f.evaluate(point) for point in points]

    @pytest.mark.parametrize("text,bad", [("x1^0.5", -1.0), ("1/x1", 0.0),
                                          ("sqrt(x1)", -1.0),
                                          ("sqrt(x1)", 0.0)])
    def test_a_bad_column_raises_for_the_block(self, text, bad):
        f = ScalarFieldSpec.parse(text, ["x1"])
        with pytest.raises(DomainError):
            f.eval_jet(np.array([[1.0], [bad], [2.0]]), 3)


class TestFdOracle:
    def test_cube_first_derivative(self):
        f = ScalarFieldSpec.parse("x1^3", ["x1"])
        assert abs(fd_oracle(f, [2.0], (1,)) - 12.0) < 1e-8

    def test_cube_third_derivative(self):
        f = ScalarFieldSpec.parse("x1^3", ["x1"])
        assert abs(fd_oracle(f, [2.0], (3,)) - 6.0) < 1e-5

    def test_mixed_partial_cross_check(self):
        f = ScalarFieldSpec.parse("sqrt(x1^2+x2^2)", ["x1", "x2"])
        j = f.eval_jet([3.0, 4.0], 2)
        fd = fd_oracle(f, [3.0, 4.0], (1, 1))
        assert abs(fd - j.derivatives(2)[0, 1]) < 1e-6

    def test_degree_zero_is_value(self):
        f = ScalarFieldSpec.parse("x1*x2", ["x1", "x2"])
        assert fd_oracle(f, [2.0, 3.0], (0, 0)) == 6.0

    def test_values_on_the_stencil_give_the_callables_estimate(self):
        """Values taken at ``fd_stencil``, in its order, give what the
        callable gives, bit for bit: the coarse central stencil, then the
        fine one, with the step scaled by max(1, |x_v|)."""
        f = ScalarFieldSpec.parse("x1^2*x2/(1+x2^2)", ["x1", "x2"])
        x = [0.7, -1.3]
        for idx in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 3)]:
            stencil = fd_stencil(x, idx)
            assert len(stencil) == (2 ** (sum(idx) + 1) if sum(idx) else 1)
            values = f.evaluate(np.array(stencil))
            assert fd_oracle(values, x, idx) == fd_oracle(f, x, idx)
        h, v = fd_base_step(1), fd_base_step(1) * 1.3
        assert [p.tolist() for p in fd_stencil(x, (0, 1))] == [
            [0.7, -1.3 + v], [0.7, -1.3 - v],
            [0.7, -1.3 + v / 2], [0.7, -1.3 - v / 2]]
        assert fd_stencil(x, (1, 0))[0].tolist() == [0.7 + h, -1.3]


@pytest.mark.parametrize("text,vars_,box", [
    ("x1^2*x2+x2^3", ["x1", "x2"], (-2.0, 2.0)),
    ("sqrt(1+x1^2+x2^2)", ["x1", "x2"], (-2.0, 2.0)),
    ("(x1^4+x2^4)^0.25", ["x1", "x2"], (0.5, 2.0)),
    ("x1/(1+x2^2)", ["x1", "x2"], (-2.0, 2.0)),
])
def test_jet_fd_agreement_sampled(text, vars_, box):
    """Every derivative of degree <= 3 agrees with the oracle at random points."""
    f = ScalarFieldSpec.parse(text, vars_)
    rng = np.random.default_rng(7)
    indices = [(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 3]
    for _ in range(10):
        x = box[0] + (box[1] - box[0]) * rng.random(2)
        j = f.eval_jet(x, 3)
        for idx in indices:
            fd = fd_oracle(f, x, idx)
            assert abs(partial(j, idx) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_euler_homogeneity_of_norm_field():
    """y . dF/dy = F for a 1-homogeneous field (sanity for downstream use)."""
    f = ScalarFieldSpec.parse("sqrt(y1^2+y2^2)", ["y1", "y2"])
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = 0.3 + rng.random(2)
        j = f.eval_jet(y, 1)
        lhs = y @ j.derivatives(1)
        assert abs(lhs - j.value) <= 1e-9 * j.value
