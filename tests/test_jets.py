"""Jet arithmetic, derivative extraction, and the finite-difference oracle."""

import hashlib
import os
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym import jets
from finsym.errors import DomainError, FinsymError, OrderError
from finsym.fields import ScalarFieldSpec, _run
from finsym.jets import (
    Jet,
    _derivative_gather,
    _power_factors,
    _reciprocal_factors,
    _table,
    fd_base_step,
    fd_oracle,
    fd_stencil,
    multi_index_degree,
    multi_index_factorial,
)
from finsym.scenario import build_scenario, load_config

from conftest import fd_estimate, partial


def test_multi_index_helpers():
    assert multi_index_degree((2, 1, 0)) == 3
    assert multi_index_factorial((2, 1, 0)) == 2
    assert multi_index_factorial((3, 2)) == 12


class TestJetEval:
    def test_polynomial_partials(self):
        f = ScalarFieldSpec.parse("x1^2*x2", ["x1", "x2"])
        j = f.eval_jet([2.0, 3.0], 3)
        assert j.c.shape == (10, 1)  # one point is one column
        assert j.value.tolist() == [12.0]
        assert j.derivatives(1)[0, 0] == 12.0
        assert j.derivatives(2)[0, 0, 0] == 6.0
        assert j.derivatives(3)[0, 0, 0, 1] == 2.0
        assert j.derivatives(2)[0, 1, 1] == 0.0

    def test_constant_field(self):
        f = ScalarFieldSpec.parse("7", ["x1", "x2"])
        j = f.eval_jet([0.3, -0.5], 2)
        assert j.value == 7.0
        assert not j.derivatives(1).any() and not j.derivatives(2).any()

    def test_sqrt_field_against_oracle(self):
        f = ScalarFieldSpec.parse("sqrt(x1^2+x2^2)", ["x1", "x2"])
        j = f.eval_jet([3.0, 4.0], 2)
        assert j.value[0] == pytest.approx(5.0, abs=1e-14)
        assert j.derivatives(1)[0, 0] == pytest.approx(0.6, abs=1e-14)
        fd = fd_estimate(f, [3.0, 4.0], (2, 0))
        assert abs(j.derivatives(2)[0, 0, 0] - fd) < 1e-8

    def test_callable_field(self):
        v = [Jet.variable(i, p, 2, 2) for i, p in enumerate([2.0, 3.0])]
        j = v[0] * v[0] * v[1]
        assert j.value.tolist() == [12.0]
        assert j.derivatives(2)[0, 0, 1] == 4.0

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
        assert d.shape == (1,) + (3,) * k and d.flags.c_contiguous
        d = d[0]
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
        expected = prod.derivatives(k)[0]
        for slots in np.ndindex(*expected.shape):
            acc = 0.0
            for split in product((True, False), repeat=k):
                left = tuple(v for v, s in zip(slots, split) if s)
                right = tuple(v for v, s in zip(slots, split) if not s)
                acc += (a.derivatives(len(left))[0][left]
                        * b.derivatives(len(right))[0][right])
            assert acc == expected[slots]


@settings(max_examples=60, deadline=None)
@given(_poly_jets(), _poly_jets())
def test_leibniz_first_derivative(a, b):
    prod = a * b
    lhs = prod.derivatives(1)[0, 0]
    rhs = (a.value[0] * b.derivatives(1)[0, 0]
           + b.value[0] * a.derivatives(1)[0, 0])
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
        jet = Jet(num_vars, order, rng.uniform(0.5, 2.0, (size, 1)))
        for n in (1, 2, 3, 5):
            assert (jet ** n).c.tobytes() == _full_power(jet, n).c.tobytes()
        assert ((jet ** -2).c.tobytes()
                == _full_compose(_full_power(jet, 2), _reciprocal_factors(
                    _full_power(jet, 2).value[0], order)).c.tobytes())
        for p in (0.5, 0.25, -1.5):
            dcoef = _power_factors(jet.value[0], order, p)
            assert ((jet ** p).c.tobytes()
                    == _full_compose(jet, dcoef).c.tobytes())
        dcoef = rng.normal(size=order + 1).tolist()
        assert (jet._compose(dcoef).c.tobytes()
                == _full_compose(jet, dcoef).c.tobytes())


class TestColumns:
    """A jet with a column per point equals the jets of one-row stacks bit
    for bit, column by column."""

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
        assert abs(fd_estimate(f, [2.0], (1,)) - 12.0) < 1e-8

    def test_cube_third_derivative(self):
        f = ScalarFieldSpec.parse("x1^3", ["x1"])
        assert abs(fd_estimate(f, [2.0], (3,)) - 6.0) < 1e-5

    def test_mixed_partial_cross_check(self):
        f = ScalarFieldSpec.parse("sqrt(x1^2+x2^2)", ["x1", "x2"])
        j = f.eval_jet([3.0, 4.0], 2)
        fd = fd_estimate(f, [3.0, 4.0], (1, 1))
        assert abs(fd - j.derivatives(2)[0, 0, 1]) < 1e-6

    def test_degree_zero_is_value(self):
        f = ScalarFieldSpec.parse("x1*x2", ["x1", "x2"])
        assert fd_estimate(f, [2.0, 3.0], (0, 0)) == 6.0

    def test_values_on_the_stencil_give_the_callables_estimate(self):
        """Values taken at ``fd_stencil``, in its order, give the Richardson
        estimate (4 fine - coarse) / 3: the coarse central stencil, then the
        fine one, with the step scaled by max(1, |x_v|).  Here each central
        difference is a signed sum over its 2^degree points, which take +
        before - along each differentiated axis in turn."""
        f = ScalarFieldSpec.parse("x1^2*x2/(1+x2^2)", ["x1", "x2"])
        x = [0.7, -1.3]
        for idx in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (0, 3)]:
            stencil = fd_stencil(x, idx)
            degree = sum(idx)
            assert len(stencil) == (2 ** (degree + 1) if degree else 1)
            values = f.evaluate(np.array(stencil))
            if not degree:
                assert fd_oracle(values, x, idx) == values[0]
                continue
            steps = fd_base_step(degree) * np.maximum(1.0, np.abs(x))
            width = np.prod([steps[v] for v, e in enumerate(idx)
                             for _ in range(e)])
            signs = [(-1) ** bin(p).count("1") for p in range(2 ** degree)]
            coarse, fine = (values.reshape(2, -1) @ signs
                            / (width * np.array([2.0 ** degree, 1.0])))
            assert fd_oracle(values, x, idx) == pytest.approx(
                (4.0 * fine - coarse) / 3.0, rel=1e-9, abs=1e-9)
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
            fd = fd_estimate(f, x, idx)
            assert abs(partial(j, idx) - fd) <= 1e-6 * max(1.0, abs(fd))


def test_euler_homogeneity_of_norm_field():
    """y . dF/dy = F for a 1-homogeneous field (sanity for downstream use)."""
    f = ScalarFieldSpec.parse("sqrt(y1^2+y2^2)", ["y1", "y2"])
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = 0.3 + rng.random(2)
        j = f.eval_jet(y, 1)
        lhs = y @ j.derivatives(1)[0]
        assert abs(lhs - j.value[0]) <= 1e-9 * j.value[0]


# -- non-finite data ------------------------------------------------------------

_XY = ["x1", "x2", "y1", "y2"]
_GOOD, _BAD = [0.5, -1.5, 2.0, 0.75], [100.0, -1.5, 2.0, 0.75]
_AT = {"bad": np.array(_BAD), "block": np.array([_GOOD, _BAD, _GOOD])}
_FIRST, _BAD_TEXT = (f"DomainError: non-finite field data at {p}"
                     for p in (_GOOD, _BAD))

# (field, points, order) -> "type: text" of the error, or the first 16 hex
# digits of the sha256 of the jet's coefficient bytes
_NON_FINITE_PINS = {
    # a 1e999 literal is inf: inf times a variable's zero coefficients is nan
    ("1e999*y1", "bad", 3): _BAD_TEXT,
    ("1e999*y1", "block", 4): _FIRST,
    ("x1 + 1e999*y1", "bad", 4): _BAD_TEXT,
    ("x1 + 1e999*y1", "block", 3): _FIRST,
    ("1e200*1e200*y1", "bad", 3): _BAD_TEXT,
    ("1e200*1e200*y1", "block", 4): _FIRST,
    # x1^200 overflows at x1 = 100 only: the error names that column
    ("1/(x1^200*y1)", "bad", 3): _BAD_TEXT,
    ("1/(x1^200*y1)", "block", 4): _BAD_TEXT,
    ("(x1^200*y1)^-0.5", "bad", 4): _BAD_TEXT,
    ("(x1^200*y1)^-0.5", "block", 3): _BAD_TEXT,
    ("y2*(x1^200*y1)^-1.5", "block", 3): _BAD_TEXT,
    ("y2*(x1^200*y1)^-1.5", "block", 4): (
        "DomainError: Taylor factors of 1.2446e-60^-1.5 leave the "
        "floating-point range"),
    ("sqrt(x1^200*y1)*y2", "block", 4): _BAD_TEXT,
    # finite jets from non-finite intermediates
    ("y2/1e999 + x1*y1", "bad", 3): "b630be92505672a0",
    ("y2/1e999 + x1*y1", "block", 4): "e0f71395f20dda98",
    ("(1e999*x1)^0*y2", "bad", 4): "affce42f556493a7",
    ("(1e999*x1)^0*y2", "block", 3): "76303264665fef1f",
    ("x1*y2/(y1+1e999)", "bad", 4): "738c079dff6c9b77",
    ("x1*y2/(y1+1e999)", "block", 3): "16d0edc8b7ad7705",
}


def _outcome(evaluate):
    """The coefficient bytes of a jet, or the type and text of its error."""
    try:
        return evaluate().c.tobytes()
    except FinsymError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("text,where,order", sorted(_NON_FINITE_PINS))
def test_non_finite_intermediates_are_pinned(text, where, order):
    """Where a non-finite value meets a jet, the jet or the error (type,
    text and first failing column) stays as pinned."""
    found = _outcome(lambda: ScalarFieldSpec.parse(text, _XY).eval_jet(
        _AT[where], order))
    if isinstance(found, bytes):
        found = hashlib.sha256(found).hexdigest()[:16]
    assert found == _NON_FINITE_PINS[text, where, order]


def _full_support_eval_jet(field, point, order):
    """``ScalarFieldSpec.eval_jet`` run on jets made from raw coefficients."""
    n = field.num_vars
    x = np.asarray(point, dtype=float).reshape(-1, n)
    env = [Jet(n, order, Jet.variable(i, x.T[i], n, order).c)
           for i in range(n)]
    with np.errstate(all="ignore"):
        out = _run(field.program, env)
    if not isinstance(out, Jet):
        out = Jet.constant(np.full(len(x), float(out)), n, order)
    if not out.is_finite():
        x = x[np.argmin(np.isfinite(out.c).all(axis=0))]
        raise DomainError(f"non-finite field data at {x.tolist()}")
    return out


def _configs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for directory in (os.path.join(root, "configs"),
                      os.path.join(root, "tests", "data")):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".json"):
                yield os.path.join(directory, name)


@pytest.mark.parametrize("path", list(_configs()),
                         ids=lambda p: os.path.basename(p)[:-5])
def test_energy_jets_equal_full_support_runs(path):
    """The energy of every shipped and test config, at orders 3 and 4, on
    one point and on a block: ``eval_jet`` equals the program run on jets
    made from raw coefficients, bit for bit."""
    s = build_scenario(load_config(path))
    points = np.array([np.concatenate([x, y]) for x, ys in zip(
        s.plan.xs, s.plan.ys) for y in ys][:6])
    phi = s.metric.phi_field
    for order in (3, 4):
        for at in (points[0], points):
            assert (phi.eval_jet(at, order).c.tobytes()
                    == _full_support_eval_jet(phi, at, order).c.tobytes())


_LEAVES = ["x1", "x2", "y1", "y2", "2", "0.5", "0", "1e-200", "1e200",
           "1e999", "1e999"]
_EXPONENTS = ["0", "2", "3", "-1", "-2", "0.5", "-0.5", "1.5", "200"]
_POINTS = [[0.5, 1.5, 2.0, 0.75], [100.0, 1.5, 2.0, 0.75],
           [0.3, 1e150, 1e-3, 2.5], [1e-160, 3.0, -2.0, 1e5]]


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: f"({t[0]}{t[1]}{t[2]})"),
        st.tuples(sub, st.sampled_from(_EXPONENTS)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda e: f"sqrt({e})"),
        sub.map(lambda e: f"-{e}"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=10),
       st.lists(st.sampled_from(range(len(_POINTS))), min_size=1,
                max_size=3),
       st.booleans(), st.integers(0, 4))
def test_random_programs_equal_full_support_runs(text, rows, block, order):
    """Random fields over literals that overflow, underflow or are inf, at
    points where powers overflow: ``eval_jet`` gives the jet, or the error
    type, text and first failing column, of the run on jets made from raw
    coefficients."""
    field = ScalarFieldSpec.parse(text, _XY)
    at = np.array([_POINTS[r] for r in rows]) if block else np.array(
        _POINTS[rows[0]])
    assert (_outcome(lambda: field.eval_jet(at, order))
            == _outcome(lambda: _full_support_eval_jet(field, at, order)))


# -- supports -------------------------------------------------------------------


def test_supports_follow_the_operations():
    """Variables and constants start the supports; sums and products take
    the union; negation, finite scalars and compositions keep it; raw
    coefficients give full support."""
    x, y, z = (Jet.variable(i, 0.5 + i, 4, 3) for i in range(3))
    assert (x.support, y.support, Jet.constant(2.0, 4, 3).support) == (
        0b1, 0b10, 0)
    assert ((x + y).support, (x - z).support, (x * z).support) == (
        0b11, 0b101, 0b101)
    for jet in (-x, x * 3.0, 3.0 * x, x / 3.0, 2.0 - x, x + 1.0,
                x._nilpotent(), x.sqrt(), x ** 0.5, x ** -2, x ** 0):
        assert jet.support == 0b1 and not jet.is_marked()
    assert Jet(4, 3, x.c).support == 0b1111


@pytest.mark.parametrize("make", [
    lambda x: x * float("inf"), lambda x: float("nan") * x,
    lambda x: x / float("nan"), lambda x: x / np.inf,
    lambda x: x * np.array([1.0, np.inf]),
    lambda x: (x * 1e308 * 10.0 + 1.0).sqrt(),
    lambda x: (x + float("inf")) ** -1])
def test_non_finite_scalars_and_compositions_mark_the_jet(make):
    """A non-finite scalar factor or a composition of non-finite data gives
    full support and the mark, and the mark spreads."""
    x, y = (Jet.variable(i, np.array([0.5, 2.0]), 3, 2) for i in range(2))
    with np.errstate(all="ignore"):
        jet = make(x)
        assert jet.is_marked() and jet.support == 0b1111
        assert (jet * y).is_marked() and (y - jet).is_marked()
        # finite scalars keep the support, even where the product overflows
        assert not (x * 1e308).is_marked()


_SHAPES = [(n, o) for n in range(1, 9) for o in range(5)]
_NON_FINITE = [np.inf, -np.inf, np.nan]


@st.composite
def _supported_pairs(draw):
    """Two jets of one shape, each with random coefficients on a random
    support and signed zeros outside it; in some draws, non-finite
    coefficients inside the support."""
    num_vars, order = draw(st.sampled_from(_SHAPES))
    columns = draw(st.sampled_from([(1,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    exponents = np.array(_reference_indices(num_vars, order))
    jets, supports = [], []
    for _ in range(2):
        support = draw(st.integers(0, 2 ** num_vars - 1))
        inside = ((exponents > 0) & ~(support >> np.arange(num_vars) & 1)
                  .astype(bool)).sum(axis=1) == 0
        c = rng.normal(size=(len(exponents),) + columns)
        c[~inside] = np.copysign(0.0, rng.normal(size=c[~inside].shape))
        if draw(st.booleans()):
            at = rng.choice(np.flatnonzero(inside), draw(st.integers(1, 3)))
            c[at] = rng.choice(_NON_FINITE, (len(at),) + columns)
        jets.append(c)
        supports.append(support)
    return num_vars, order, jets, supports


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_supported_pairs())
def test_restricted_products_equal_the_full_table(pair):
    """The product on the operands' supports equals the product on full
    supports bit for bit when the coefficients are finite.  With non-finite
    ones, the values are bit-identical and the same columns are
    non-finite, so an error names the same first failing column."""
    num_vars, order, (ca, cb), (sa, sb) = pair
    a, b = Jet(num_vars, order, ca), Jet(num_vars, order, cb)
    a.support, b.support = sa, sb
    with np.errstate(all="ignore"):
        restricted = a * b
        full = Jet(num_vars, order, ca) * Jet(num_vars, order, cb)
    assert restricted.support == sa | sb
    if np.isfinite(ca).all() and np.isfinite(cb).all():
        assert restricted.c.tobytes() == full.c.tobytes()
    else:
        assert restricted.c[0].tobytes() == full.c[0].tobytes()
        assert (np.isfinite(restricted.c).all(axis=0).tolist()
                == np.isfinite(full.c).all(axis=0).tolist())


# -- table construction -----------------------------------------------------------


def _reference_indices(num_vars, order):
    """All multi-indices of total degree <= order, graded, then in
    lexicographic order within a degree."""
    out = []
    for deg in range(order + 1):
        block = set()
        for combo in product(range(num_vars), repeat=deg):
            exps = [0] * num_vars
            for v in combo:
                exps[v] += 1
            block.add(tuple(exps))
        out.extend(sorted(block))
    return out


def _reference_table(num_vars, order):
    """The product table as nested loops: degree of a, degree of b, then
    a and b in index order."""
    indices = _reference_indices(num_vars, order)
    index_of = {idx: k for k, idx in enumerate(indices)}
    rows = []
    for da in range(order + 1):
        for db in range(order + 1 - da):
            for ka, ia in enumerate(indices):
                if sum(ia) != da:
                    continue
                for kb, ib in enumerate(indices):
                    if sum(ib) == db:
                        out = tuple(p + q for p, q in zip(ia, ib))
                        rows.append((ka, kb, index_of[out], ia, ib))
    return indices, rows


def _inside(rows, sa, sb):
    """The reference table's entries (ka, kb, out) whose factors lie inside
    the supports sa and sb, in table order."""
    return [(ka, kb, out) for ka, kb, out, ia, ib in rows
            if all(e == 0 or sa >> v & 1 for v, e in enumerate(ia))
            and all(e == 0 or sb >> v & 1 for v, e in enumerate(ib))]


def _assert_layout(p, inside):
    """The product ``p`` holds the entries ``inside`` (in table order) by
    rank, then by slot: each output's entries in table order, the k-th
    entries of every output that has more than k of them in the slice
    ``ranks[k]:ranks[k + 1]`` over its first slots, and the slots ordered
    by entry count, most first, then by output position."""
    by_out = {}
    for ka, kb, out in inside:
        by_out.setdefault(out, []).append((ka, kb))
    slots = sorted(by_out, key=lambda out: (-len(by_out[out]), out))
    counts = [len(by_out[out]) for out in slots]
    # the number of outputs with more than k entries, for each rank k
    widths = [sum(c > k for c in counts)
              for k in range(max(counts, default=0))]
    assert p.out.dtype == p.a.dtype == p.b.dtype == np.intp
    assert p.out.tolist() == slots
    assert list(p.ranks) == [0, *accumulate(widths)]
    for k, (start, width) in enumerate(zip(p.ranks, widths)):
        entries = slice(start, start + width)
        assert list(zip(p.a[entries].tolist(), p.b[entries].tolist())) == [
            by_out[out][k] for out in slots[:width]]


@pytest.mark.parametrize("num_vars,order", _SHAPES)
def test_tables_equal_the_loop_construction(num_vars, order):
    """The product tables (full and restricted) hold the entries of a plain
    loop construction in the rank layout, and the derivative gathers and
    their factorial weights equal the loop's, entry for entry and in
    order."""
    t = _table(num_vars, order)
    indices, rows = _reference_table(num_vars, order)
    assert t.indices == indices
    full = (1 << num_vars) - 1
    rng = np.random.default_rng(num_vars * 10 + order)
    for sa, sb in [(full, full), (0, full), (1, full - 1)] + [
            tuple(rng.integers(0, full + 1, 2)) for _ in range(3)]:
        sa, sb = int(sa), int(sb)
        _assert_layout(t.product(sa, sb), _inside(rows, sa, sb))
    for k in range(order + 1):
        pos, fac = _derivative_gather(num_vars, order, k)
        assert pos.shape == fac.shape == (num_vars,) * k
        assert pos.dtype == np.intp and fac.dtype == np.float64
        for slots in np.ndindex(*pos.shape):
            idx = [0] * num_vars
            for v in slots:
                idx[v] += 1
            assert pos[slots] == indices.index(tuple(idx))
            assert fac[slots] == float(multi_index_factorial(idx))


_WIDTHS = [1, 2, 64, 65, 307]
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]


@st.composite
def _wide_pairs(draw):
    """Two jets of one shape of order 2 or more, the orders whose products
    go through the table, with a width from ``_WIDTHS``, random supports
    and coefficients, some of them ±0, ±inf or nan anywhere."""
    num_vars, order = draw(st.sampled_from(
        [(n, o) for n, o in _SHAPES if o >= 2]))
    width = draw(st.sampled_from(_WIDTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = len(_reference_indices(num_vars, order))
    coefficients = []
    for _ in range(2):
        c = rng.normal(size=(size, width))
        special = rng.random(c.shape) < draw(st.sampled_from([0.0, 0.05,
                                                              0.5]))
        c[special] = rng.choice(_SPECIAL, special.sum())
        coefficients.append(c)
    supports = [draw(st.integers(0, 2 ** num_vars - 1)) for _ in range(2)]
    return num_vars, order, coefficients, supports


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_wide_pairs())
def test_products_equal_a_sequential_sum(pair):
    """A product on any supports and at any width equals the plain sum of
    its restricted table's terms, each coefficient from +0.0 in table
    order, bit for bit.  Only where two nans meet can the sign of the nan
    differ: numpy picks it per loop, as ``np.bincount`` did."""
    num_vars, order, (ca, cb), (sa, sb) = pair
    a, b = Jet(num_vars, order, ca), Jet(num_vars, order, cb)
    a.support, b.support = sa, sb
    _, rows = _reference_table(num_vars, order)
    expected = np.zeros_like(ca)
    with np.errstate(all="ignore"):
        found = (a * b).c
        for ka, kb, out in _inside(rows, sa, sb):
            expected[out] = expected[out] + ca[ka] * cb[kb]
    assert found.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(found), nan)
    assert found[~nan].tobytes() == expected[~nan].tobytes()


def test_product_index_data_does_not_depend_on_the_width():
    """Products at 1, 7, 64, 65 and 307 columns read the same index data:
    each table's arrays hold one entry per entry of the restricted table
    (the outputs one per slot), none is replaced, and no product past the
    first width adds an entry to any cache of the kernel."""
    rng = np.random.default_rng(24)
    shapes = [(2, 3), (3, 3), (4, 4), (6, 3), (8, 4)]

    def caches():
        return ({name: fn.cache_info().currsize
                 for name, fn in vars(jets).items()
                 if hasattr(fn, "cache_info")},
                {shape: {key: (p.a, p.b, p.out, p.ranks) for key, p
                         in _table(*shape).products.items()}
                 for shape in shapes})

    def products(width):
        for num_vars, order in shapes:
            full = (1 << num_vars) - 1
            size = len(_reference_indices(num_vars, order))
            for sa, sb in [(full, full), (1, full - 1), (3, 2)]:
                a = Jet(num_vars, order, rng.normal(size=(size, width)))
                b = Jet(num_vars, order, rng.normal(size=(size, width)))
                a.support, b.support = sa & full, sb & full
                assert (a * b).c.shape == (size, width)

    products(1)
    before = caches()
    for width in [7, 64, 65, 307]:
        products(width)
    after = caches()
    assert after[0] == before[0]
    for shape in shapes:
        _, rows = _reference_table(*shape)
        assert after[1][shape].keys() == before[1][shape].keys()
        for key, arrays in after[1][shape].items():
            assert all(x is y for x, y in zip(arrays, before[1][shape][key]))
            entries = len(_inside(rows, *key))
            a, b, out, ranks = arrays
            assert len(a) == len(b) == ranks[-1] == entries
            assert len(out) == len(set(out.tolist())) <= entries
