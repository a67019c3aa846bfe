"""Jet arithmetic, derivative extraction, and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym.errors import DomainError, OrderError
from finsym.fields import parse_field
from finsym.jets import (
    Jet,
    fd_oracle,
    jet_compose,
    jet_eval,
    jet_partial,
    multi_index_degree,
    multi_index_factorial,
)


def test_multi_index_helpers():
    assert multi_index_degree((2, 1, 0)) == 3
    assert multi_index_factorial((2, 1, 0)) == 2
    assert multi_index_factorial((3, 2)) == 12


class TestJetEval:
    def test_polynomial_partials(self):
        f = parse_field("x1^2*x2", ["x1", "x2"])
        j = jet_eval(f, [2.0, 3.0], 3)
        assert j.value == 12.0
        assert jet_partial(j, (1, 0)) == 12.0
        assert jet_partial(j, (2, 0)) == 6.0
        assert jet_partial(j, (2, 1)) == 2.0
        assert jet_partial(j, (0, 2)) == 0.0

    def test_constant_field(self):
        f = parse_field("7", ["x1", "x2"])
        j = jet_eval(f, [0.3, -0.5], 2)
        assert j.value == 7.0
        assert all(c == 0.0 for idx, c in j.coeffs.items() if sum(idx) > 0)

    def test_sqrt_field_against_oracle(self):
        f = parse_field("sqrt(x1^2+x2^2)", ["x1", "x2"])
        j = jet_eval(f, [3.0, 4.0], 2)
        assert j.value == pytest.approx(5.0, abs=1e-14)
        assert jet_partial(j, (1, 0)) == pytest.approx(0.6, abs=1e-14)
        fd = fd_oracle(f, [3.0, 4.0], (2, 0))
        assert abs(jet_partial(j, (2, 0)) - fd) < 1e-8

    def test_callable_field(self):
        j = jet_eval(lambda v: v[0] * v[0] * v[1], [2.0, 3.0], 2)
        assert j.value == 12.0
        assert jet_partial(j, (1, 1)) == 4.0

    def test_order_cap(self):
        f = parse_field("x1", ["x1"])
        with pytest.raises(OrderError):
            jet_eval(f, [1.0], 5)

    def test_partial_beyond_order(self):
        f = parse_field("x1^2*x2", ["x1", "x2"])
        j = jet_eval(f, [2.0, 3.0], 2)
        with pytest.raises(OrderError):
            jet_partial(j, (2, 1))

    def test_idx_zero_is_value(self):
        f = parse_field("x1^2*x2", ["x1", "x2"])
        j = jet_eval(f, [2.0, 3.0], 2)
        assert jet_partial(j, (0, 0)) == j.value

    def test_singular_point_raises(self):
        f = parse_field("x1^0.5", ["x1"])
        with pytest.raises(DomainError):
            jet_eval(f, [-1.0], 2)
        with pytest.raises(DomainError):
            jet_eval(f, [0.0], 2)

    def test_division_by_zero_value(self):
        f = parse_field("1/x1", ["x1"])
        with pytest.raises(DomainError):
            jet_eval(f, [0.0], 2)


def test_derivatives_match_partial():
    f = parse_field("x1^2*x2*sqrt(1+x3^2)+x2^3/(2+x1)", ["x1", "x2", "x3"])
    j = jet_eval(f, [0.3, -0.7, 1.2], 4)
    for k in range(5):
        d = j.derivatives(k)
        assert d.shape == (3,) * k
        for slots in np.ndindex(*d.shape):
            idx = [0, 0, 0]
            for v in slots:
                idx[v] += 1
            assert d[slots] == j.partial(idx)
    with pytest.raises(OrderError):
        j.derivatives(5)


class TestJetArithmetic:
    def test_shape_mismatch(self):
        a = Jet.constant(1.0, 2, 2)
        b = Jet.constant(1.0, 2, 3)
        with pytest.raises(ValueError):
            _ = a * b

    def test_truncation_and_derivative(self):
        f = parse_field("x1^3+x1*x2^2", ["x1", "x2"])
        j = jet_eval(f, [1.5, -0.5], 3)
        d1 = j.derivative(0)
        assert d1.order == 2
        # d/dx1 = 3 x1^2 + x2^2
        assert d1.value == pytest.approx(3 * 1.5 ** 2 + 0.25, abs=1e-13)
        assert d1.partial((1, 0)) == pytest.approx(6 * 1.5, abs=1e-13)
        t = j.truncated(1)
        assert t.order == 1
        assert t.value == j.value
        assert t.partial((1, 0)) == j.partial((1, 0))

    def test_reciprocal_and_negative_power(self):
        f = parse_field("(1+x1)^-2", ["x1"])
        j = jet_eval(f, [0.5], 3)
        assert j.value == pytest.approx(1.5 ** -2, rel=1e-14)
        assert j.partial((1,)) == pytest.approx(-2 * 1.5 ** -3, rel=1e-13)
        assert j.partial((3,)) == pytest.approx(-24 * 1.5 ** -5, rel=1e-12)

    def test_fractional_power(self):
        f = parse_field("x1^1.5", ["x1"])
        j = jet_eval(f, [4.0], 2)
        assert j.value == pytest.approx(8.0, rel=1e-14)
        assert j.partial((1,)) == pytest.approx(1.5 * 2.0, rel=1e-14)
        assert j.partial((2,)) == pytest.approx(1.5 * 0.5 / 2.0, rel=1e-13)


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
    """Multiplying integer polynomial jets is exact coefficient-wise."""
    prod = a * b
    dense_a, dense_b = a.coeffs, b.coeffs
    for idx, expected in prod.coeffs.items():
        acc = 0.0
        for ia, ca in dense_a.items():
            for ib, cb in dense_b.items():
                if tuple(p + q for p, q in zip(ia, ib)) == idx:
                    acc += ca * cb
        assert acc == expected


@settings(max_examples=60, deadline=None)
@given(_poly_jets(), _poly_jets())
def test_leibniz_first_derivative(a, b):
    prod = a * b
    lhs = prod.partial((1, 0))
    rhs = a.value * b.partial((1, 0)) + b.value * a.partial((1, 0))
    assert lhs == rhs


class TestFdOracle:
    def test_cube_first_derivative(self):
        f = parse_field("x1^3", ["x1"])
        assert abs(fd_oracle(f, [2.0], (1,)) - 12.0) < 1e-8

    def test_cube_third_derivative(self):
        f = parse_field("x1^3", ["x1"])
        assert abs(fd_oracle(f, [2.0], (3,)) - 6.0) < 1e-5

    def test_mixed_partial_cross_check(self):
        f = parse_field("sqrt(x1^2+x2^2)", ["x1", "x2"])
        j = jet_eval(f, [3.0, 4.0], 2)
        fd = fd_oracle(f, [3.0, 4.0], (1, 1))
        assert abs(fd - jet_partial(j, (1, 1))) < 1e-6

    def test_degree_zero_is_value(self):
        f = parse_field("x1*x2", ["x1", "x2"])
        assert fd_oracle(f, [2.0, 3.0], (0, 0)) == 6.0

    def test_domain_guard(self):
        from finsym.fields import DomainBox
        f = parse_field("x1^2", ["x1"])
        box = DomainBox((0.0,), (1.0,))
        with pytest.raises(DomainError):
            fd_oracle(f, [0.9999999], (1,), base_step=0.01, domain=box)


@pytest.mark.parametrize("text,vars_,box", [
    ("x1^2*x2+x2^3", ["x1", "x2"], (-2.0, 2.0)),
    ("sqrt(1+x1^2+x2^2)", ["x1", "x2"], (-2.0, 2.0)),
    ("(x1^4+x2^4)^0.25", ["x1", "x2"], (0.5, 2.0)),
    ("x1/(1+x2^2)", ["x1", "x2"], (-2.0, 2.0)),
])
def test_jet_fd_agreement_sampled(text, vars_, box):
    """Every derivative of degree <= 3 agrees with the oracle at random points."""
    f = parse_field(text, vars_)
    rng = np.random.default_rng(7)
    indices = [(i, j) for i in range(4) for j in range(4) if 0 < i + j <= 3]
    for _ in range(10):
        x = box[0] + (box[1] - box[0]) * rng.random(2)
        j = jet_eval(f, x, 3)
        for idx in indices:
            fd = fd_oracle(f, x, idx)
            assert abs(jet_partial(j, idx) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_jet_compose_chain_rule():
    """Composition utility implements the multivariate chain rule."""
    g = parse_field("x1^2*x2", ["x1", "x2"])
    u = parse_field("x1+x2^2", ["x1", "x2"])
    v = parse_field("3*x1*x2", ["x1", "x2"])
    x0 = [0.7, -0.4]
    args = [jet_eval(u, x0, 2), jet_eval(v, x0, 2)]
    inner = [args[0].value, args[1].value]
    composed = jet_compose(jet_eval(g, inner, 2), args)

    direct = parse_field("(x1+x2^2)^2*(3*x1*x2)", ["x1", "x2"])
    expect = jet_eval(direct, x0, 2)
    for idx in expect.coeffs:
        assert composed.coefficient(idx) == pytest.approx(
            expect.coefficient(idx), rel=1e-12, abs=1e-12)


def test_euler_homogeneity_of_norm_field():
    """y . dF/dy = F for a 1-homogeneous field (sanity for downstream use)."""
    f = parse_field("sqrt(y1^2+y2^2)", ["y1", "y2"])
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = 0.3 + rng.random(2)
        j = jet_eval(f, y, 1)
        lhs = y[0] * j.partial((1, 0)) + y[1] * j.partial((0, 1))
        assert abs(lhs - j.value) <= 1e-9 * j.value
