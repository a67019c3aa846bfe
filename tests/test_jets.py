"""Jet tapes against the full-table reference arithmetic, derivative
extraction, and the finite-difference oracle."""

import hashlib
import os
import tracemalloc
from functools import lru_cache
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym import jets
from finsym.errors import DomainError, FinsymError, OrderError
from finsym.fields import ScalarFieldSpec, _run, _tape
from finsym.jets import (
    _compose_into,
    _derivative_gather,
    _multiply_into,
    _power_factors,
    _reciprocal_factors,
    _sqrt_factors,
    _table,
    _taylor,
    fd_base_step,
    fd_oracle,
    fd_stencil,
    multi_index_degree,
    multi_index_factorial,
)
from finsym.scenario import build_scenario, load_config

from conftest import fd_estimate, partial


class Jet(jets.Jet):
    """The package's jet with the reference arithmetic the tapes are held
    to: every product and composition reads the whole table (products
    through ``_multiply_into``, compositions through ``_compose_into`` and
    ``_taylor``), with no supports.  ``fields._run`` on these jets runs a
    program as ``eval_jet`` runs its tape (Griewank & Walther, *Evaluating
    Derivatives*, 2nd ed., SIAM 2008, ch. 13)."""

    __slots__ = ()

    def _new(self, c: np.ndarray) -> "Jet":
        """A jet of this shape with coefficients ``c``."""
        return Jet(self.num_vars, self.order, c, self.x_vars)

    @classmethod
    def constant(cls, value, num_vars: int, order: int,
                 x_vars: int = 0) -> "Jet":
        """A constant jet with one column per entry of ``value`` (a float is
        one column)."""
        value = np.atleast_1d(value)
        c = np.zeros((_table(num_vars, order, x_vars).size,) + value.shape)
        c[0] = value
        return cls(num_vars, order, c, x_vars)

    def _full(self):
        full = (1 << self.num_vars) - 1
        return _table(self.num_vars, self.order, self.x_vars).product(full,
                                                                      full)

    def _check(self, other: "Jet") -> None:
        mine = (self.num_vars, self.order, self.x_vars)
        theirs = (other.num_vars, other.order, other.x_vars)
        if mine != theirs:
            raise ValueError(f"jet shape mismatch: {mine} vs {theirs}")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._new(self.c + other.c)
        c = self.c.copy()
        c[0] += other
        return self._new(c)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._new(self.c - other.c)
        c = self.c.copy()
        c[0] -= other
        return self._new(c)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return self._new(c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return self._new(self.c * other)
        self._check(other)
        p = self._full()
        c = np.empty(self.c.shape)
        _multiply_into(p, self.c, other.c, c,
                       np.empty((2 * len(p.a),) + c.shape[1:]))
        return self._new(c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self._new(self.c / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _nilpotent(self) -> "Jet":
        c = self.c.copy()
        c[0] = 0.0
        return self._new(c)

    def _compose(self, dcoef) -> "Jet":
        """Analytic composition g(self) given dcoef[k] = g^(k)(value)/k!,
        one per column."""
        h = self._nilpotent().c
        p = self._full()
        out = np.empty(h.shape)
        _compose_into(p, h, dcoef, out,
                      np.empty((2 * len(p.a),) + h.shape[1:]))
        return self._new(out)

    def _reciprocal(self) -> "Jet":
        return self._compose(_taylor(_reciprocal_factors, self.c[0],
                                     self.order))

    def sqrt(self) -> "Jet":
        return self._compose(_taylor(_sqrt_factors, self.c[0], self.order))

    def __pow__(self, p: float) -> "Jet":
        p = float(p)
        if p.is_integer():
            n = int(p)
            if n == 0:
                return Jet.constant(np.ones(self.c.shape[1:]), self.num_vars,
                                    self.order, self.x_vars)
            out = self
            for _ in range(abs(n) - 1):
                out = out * self
            return out if n > 0 else out._reciprocal()
        return self._compose(_taylor(_power_factors, self.c[0], self.order,
                                     p))

    def __repr__(self) -> str:
        return f"Jet(num_vars={self.num_vars}, order={self.order}, value={self.value})"


def _reference(jet):
    """A jet ``eval_jet`` returned, with the reference arithmetic."""
    return Jet(jet.num_vars, jet.order, jet.c, jet.x_vars)


def _variable(i, value, num_vars, order):
    """The jet of coordinate i with one column per entry of ``value`` (a
    float is one column): the value, 1.0 on x_i and +0.0 elsewhere."""
    c = Jet.constant(value, num_vars, order).c
    if order:
        c[_table(num_vars, order).indices.index(
            tuple(int(v == i) for v in range(num_vars)))] = 1.0
    return Jet(num_vars, order, c)


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
        v = [_variable(i, p, 2, 2) for i, p in enumerate([2.0, 3.0])]
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
    vs = [_variable(i, point[i], num_vars, order) for i in range(num_vars)]

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


@settings(max_examples=60, deadline=None, derandomize=True)
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


@settings(max_examples=60, deadline=None, derandomize=True)
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
                    _full_power(jet, 2).value.tolist(), order)).c.tobytes())
        for p in (0.5, 0.25, -1.5):
            dcoef = _power_factors(jet.value.tolist(), order, p)
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

    @pytest.mark.parametrize("text,column,error", [
        ("sqrt(x1)", [4.0, -1.0, 0.0], "sqrt of non-positive jet value -1.0"),
        ("sqrt(x1)", [4.0, 0.0, -1.0], "sqrt of non-positive jet value 0.0"),
        ("x1^0.25", [2.0, -3.0, 0.0],
         "fractional power 0.25 of non-positive jet value -3.0"),
        ("x1^-1.5", [2.0, 1e-250, -1.0],
         "Taylor factors of 1e-250^-1.5 leave the floating-point range"),
        ("x1^2.5", [2.0, 1e200, 1e300],
         "Taylor factors of 1e+200^2.5 leave the floating-point range"),
        ("1/x1", [2.0, 0.0, 1e-100], "division by a jet with zero value"),
        ("1/x1", [2.0, 1e-100, 0.0],
         "Taylor factors of 1/1e-100 leave the floating-point range"),
        ("x1^-2", [2.0, 1e-100, 0.0],
         "Taylor factors of 1/1e-200 leave the floating-point range"),
    ])
    def test_the_first_bad_column_after_a_good_one_raises(self, text, column,
                                                          error):
        """The Taylor factors of a block are made row by row in one pass;
        where that fails, the column that fails first raises its own
        error, as alone, on a tape and on full-table jets."""
        f = ScalarFieldSpec.parse(text, ["x1"])
        at = np.array(column)[:, None]
        with pytest.raises(DomainError) as caught:
            f.eval_jet(at, 3)
        assert str(caught.value) == error
        assert _outcome(lambda: _full_support_eval_jet(f, at, 3)) == (
            f"DomainError: {error}")
        with pytest.raises(DomainError) as caught:
            f.eval_jet(at[1], 3)
        assert str(caught.value) == error


_TAYLOR_VALUES = [0.5, 1.5, 2.0, 3.7, 1e-30, 1e-60, 1e30, 1e100, 7e-5,
                  np.inf, np.nan, 1e-300, 5e-324]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(_TAYLOR_VALUES),
                          st.floats(1e-80, 1e80)), min_size=1, max_size=6),
       st.integers(0, 4),
       st.sampled_from([(jets._reciprocal_factors, ()),
                        (jets._sqrt_factors, ()),
                        (jets._power_factors, (-1.5,)),
                        (jets._power_factors, (0.25,)),
                        (jets._power_factors, (2.5,))]))
def test_one_pass_taylor_factors_equal_the_per_entry_calls(values, order,
                                                          factors):
    """``_taylor``'s one pass gives the factors of each entry's own call,
    bit for bit, or the first failing entry's error."""
    fn, args = factors
    values = np.array(values)

    def per_entry():
        return np.hstack([fn([v], order, *args) for v in values.tolist()])

    found = _outcome(lambda: Jet(1, order, _taylor(fn, values, order, *args)))
    assert found == _outcome(lambda: Jet(1, order, per_entry()))


# (factors, args, a failing entry, a different failing entry): an entry
# that is zero, not positive, overflows or underflows to a zero divisor
_FAILING_ENTRIES = [
    (_reciprocal_factors, (), 0.0, 1e100),
    (_reciprocal_factors, (), -0.0, 1e-75),
    (_reciprocal_factors, (), 1e100, 0.0),      # v^5 overflows
    (_reciprocal_factors, (), 1e-75, 0.0),      # v^5 underflows to 0
    (_sqrt_factors, (), 0.0, 1e-200),
    (_sqrt_factors, (), -1.0, 0.0),
    (_sqrt_factors, (), 1e-200, -1.0),          # v^(1/2 - 4) overflows
    (_power_factors, (0.25,), 0.0, 1e-100),
    (_power_factors, (0.25,), -3.0, 0.0),
    (_power_factors, (0.25,), 1e-100, -3.0),    # v^(1/4 - 4) overflows
    (_power_factors, (2.5,), 1e200, 0.0),       # v^(5/2) overflows
    (_power_factors, (-1.5,), 1e-250, -1.0),    # v^(-3/2) overflows
]
# per function, an entry whose last factor at order 4 is subnormal or 0
_TINY_FACTORS = {(_reciprocal_factors, ()): -1.7e61, (_sqrt_factors, ()): 1e300,
                 (_power_factors, (0.25,)): 1e300,
                 (_power_factors, (2.5,)): 1e-150,
                 (_power_factors, (-1.5,)): 1e300}


@pytest.mark.parametrize("fn,args,bad,later", _FAILING_ENTRIES)
def test_the_first_failing_entry_raises_its_one_entry_error(fn, args, bad,
                                                            later):
    """Good entries, then a failing one, then one that fails otherwise:
    ``_taylor`` raises the error type and text of the failing entry's
    one-entry call, and the good entries alone give their one-entry calls'
    factors bit for bit."""
    good = [0.5, 1.5, 3.7, _TINY_FACTORS[fn, args]]
    with pytest.raises(DomainError) as alone:
        fn([bad], 4, *args)
    with pytest.raises(DomainError) as caught:
        _taylor(fn, np.array(good + [bad, later]), 4, *args)
    assert type(caught.value) is type(alone.value)
    assert str(caught.value) == str(alone.value)
    for order in range(5):
        rows = _taylor(fn, np.array(good), order, *args)
        assert rows.tobytes() == np.hstack(
            [fn([v], order, *args) for v in good]).tobytes()


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
    # x1^0 keeps x1's support: its zero x1 coefficient times the inf value
    # is nan, which a constant's empty support would skip
    ("1/((x1^0)*(y1+1e999))", "bad", 3): _BAD_TEXT,
    ("1/((x1^0)*(y1+1e999))", "block", 4): _FIRST,
    # finite jets from non-finite intermediates
    ("y2/1e999 + x1*y1", "bad", 3): "b630be92505672a0",
    ("y2/1e999 + x1*y1", "block", 4): "e0f71395f20dda98",
    ("(1e999*x1)^0*y2", "bad", 4): "affce42f556493a7",
    ("(1e999*x1)^0*y2", "block", 3): "76303264665fef1f",
    ("x1*y2/(y1+1e999)", "bad", 4): "738c079dff6c9b77",
    ("x1*y2/(y1+1e999)", "block", 3): "16d0edc8b7ad7705",
    # 1e999-1e999 is a nan scalar: as a factor, a divisor and under sqrt
    ("(1e999-1e999)*y1", "bad", 3): _BAD_TEXT,
    ("(1e999-1e999)*y1", "block", 4): _FIRST,
    ("y1/(1e999-1e999)", "bad", 4): _BAD_TEXT,
    ("y1/(1e999-1e999)", "block", 3): _FIRST,
    ("sqrt(y1+(1e999-1e999))", "bad", 3): _BAD_TEXT,
    ("sqrt(y1+(1e999-1e999))", "block", 4): _FIRST,
    # an operand that overflows to inf under a reciprocal, a power and sqrt
    ("y2/(x1*1e999)", "bad", 4): _BAD_TEXT,
    ("y2/(x1*1e999)", "block", 3): _FIRST,
    ("(1e999*x1)^-1*y2", "bad", 3): _BAD_TEXT,
    ("(1e999*x1)^-1*y2", "block", 4): _FIRST,
    ("(x1*1e999)^0.5*y2", "bad", 4): _BAD_TEXT,
    ("(x1*1e999)^0.5*y2", "block", 3): _FIRST,
    ("sqrt(x1*1e999)*y1", "bad", 3): _BAD_TEXT,
    ("sqrt(x1*1e999)*y1", "block", 4): _FIRST,
}


def _outcome(evaluate):
    """The coefficient bytes of a jet, or the type and text of its error."""
    try:
        return evaluate().c.tobytes()
    except FinsymError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.usefixtures("numpy_policy")
@pytest.mark.parametrize("text,where,order", sorted(_NON_FINITE_PINS))
def test_non_finite_intermediates_are_pinned(text, where, order):
    """Where a non-finite value meets a jet, the jet or the error (type,
    text and first failing column) stays as pinned."""
    found = _outcome(lambda: ScalarFieldSpec.parse(text, _XY).eval_jet(
        _AT[where], order))
    if isinstance(found, bytes):
        found = hashlib.sha256(found).hexdigest()[:16]
    assert found == _NON_FINITE_PINS[text, where, order]


@pytest.mark.parametrize("text,error", [
    ("sqrt(x1-5)+1/0", "sqrt of non-positive jet value -4.0"),
    ("1/0+sqrt(x1-5)", "division by zero"),
    ("x2*(0^-1)", "zero raised to a negative power"),
])
@pytest.mark.parametrize("at", [[1.0, 2.0], [[1.0, 2.0], [9.0, 2.0]],
                                [[9.0, 2.0], [1.0, 2.0]]])
@pytest.mark.parametrize("order", [1, 3])
def test_constant_errors_keep_their_place_in_the_order(text, error, at,
                                                       order):
    """A constant subexpression that raises does so where the program
    reaches it: after an earlier failing jet operation, and before a later
    one, on one row and on a block in either row order."""
    field = ScalarFieldSpec.parse(text, ["x1", "x2"])
    with pytest.raises(DomainError) as caught:
        field.eval_jet(at, order)
    assert str(caught.value) == error


def test_constant_errors_are_raised_fresh():
    """Each call raises a new exception object, so one stored error does
    not grow another call's traceback."""
    field = ScalarFieldSpec.parse("x1/0", ["x1"])
    raised = []
    for _ in range(2):
        with pytest.raises(DomainError) as caught:
            field.eval_jet([1.0], 2)
        raised.append(caught.value)
    assert raised[0] is not raised[1]
    assert str(raised[0]) == str(raised[1]) == "division by zero"


def _full_support_eval_jet(field, point, order, kept=slice(None)):
    """``ScalarFieldSpec.eval_jet`` as ``_run`` on jets, whose products
    and compositions read the full table, keeping the coefficient rows
    ``kept``: a column fails where one of those is non-finite."""
    n = field.num_vars
    x = np.asarray(point, dtype=float).reshape(-1, n)
    env = [_variable(i, x.T[i], n, order) for i in range(n)]
    with np.errstate(all="ignore"):
        out = _run(field.program, env)
    if not isinstance(out, Jet):
        out = Jet.constant(np.full(len(x), float(out)), n, order)
    out = Jet(n, order, out.c[kept])
    finite = np.isfinite(out.c).all(axis=0)
    if not finite.all():
        x = x[np.argmin(finite)]
        raise DomainError(f"non-finite field data at {x.tolist()}")
    return out


def _x_degree_at_most(num_vars, order, x_vars, cap):
    """Which rows of the full table of ``(num_vars, order)`` have degree at
    most ``cap`` in the first ``x_vars`` variables, counted from the
    multi-indices."""
    return np.array([sum(idx[:x_vars]) <= cap
                     for idx in _table(num_vars, order).indices])


def _configs():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for directory in (os.path.join(root, "configs"),
                      os.path.join(root, "tests", "data")):
        for name in sorted(os.listdir(directory)):
            if name.endswith(".json"):
                yield os.path.join(directory, name)


@lru_cache(maxsize=None)
def _scenario(path):
    return build_scenario(load_config(path))


def _field_programs(path):
    """Every field program the config at ``path`` builds, by name, with
    the points it is evaluated at: six (x, y) pairs of the plan for F and
    the energy, their base points for the metric, covector, W, chart and
    two-form entries, and the chart's images of them for its inverse."""
    s = _scenario(path)
    n = s.dimension
    xy = np.array([np.concatenate([x, y]) for x, ys in zip(
        s.plan.xs, s.plan.ys) for y in ys][:6])
    xs = xy[:, :n]
    fields = {"phi": (s.metric.phi_field, xy), "F": (s.metric.F_field, xy)}
    for i, row in enumerate(s.metric.g_entries or ()):
        for j, entry in enumerate(row):
            fields[f"g{i + 1}{j + 1}"] = entry, xs
    for i, entry in enumerate(s.metric.b_fields or ()):
        fields[f"b{i + 1}"] = entry, xs
    for i, entry in enumerate(getattr(s.vector_field, "components", ())):
        fields[f"W{i + 1}"] = entry, xs
    if s.chart is not None:
        xhat = np.stack([c.evaluate(xs) for c in s.chart.forward], axis=1)
        for i, (fwd, inv) in enumerate(zip(s.chart.forward,
                                           s.chart.inverse)):
            fields[f"chart{i + 1}"] = fwd, xs
            fields[f"inverse{i + 1}"] = inv, xhat
    for (i, j), entry in getattr(s.two_form, "entries", {}).items():
        fields[f"form{i + 1}{j + 1}"] = entry, xs
    return fields


def _field_cases():
    """(config, field name) pairs; the energy's case keeps the config's
    name as its id."""
    for path in _configs():
        config = os.path.basename(path)[:-5]
        for name in _field_programs(path):
            yield pytest.param(path, name, id=config if name == "phi"
                               else f"{config}-{name}")


@pytest.mark.parametrize("path,name", list(_field_cases()))
def test_energy_jets_equal_full_support_runs(path, name):
    """Every field program of every shipped and test config (F, the
    energy, the metric or alpha and b entries, W, the chart's forward and
    inverse maps and the two-form entries), at orders 1 to 4, on one point
    and on a block: ``eval_jet`` equals the program run on jets made from
    raw coefficients, bit for bit, on every row it keeps.  The energy's
    jets at orders 3 and 4 drop exactly the rows of x-degree above
    order - 2 in x1..xn; every other jet keeps every row."""
    field, points = _field_programs(path)[name]
    n = _scenario(path).dimension
    assert field.x_vars == (n if name == "phi" else 0)
    for order in (1, 2, 3, 4):
        kept = _x_degree_at_most(field.num_vars, order, n,
                                 order - 2 if name == "phi" and order > 2
                                 else order)
        assert kept.all() == (name != "phi" or order < 3)
        for at in (points[0], points):
            jet = field.eval_jet(at, order)
            assert jet.c.shape[0] == kept.sum()
            assert (jet.c.tobytes() == _full_support_eval_jet(
                field, at, order, kept).c.tobytes())


@pytest.mark.parametrize("text", ["x1^2*x2+sqrt(1+x2^2)", "x2", "7"])
def test_returned_jets_share_no_memory(text):
    """A jet ``eval_jet`` returns owns its coefficients: writing into them
    leaves the next call's jet unchanged, on one row and on a block."""
    f = ScalarFieldSpec.parse(text, ["x1", "x2"])
    points = np.array([[0.5, 1.5], [2.0, -0.25], [1.25, 3.0]])
    for at in (points[0], points):
        first = f.eval_jet(at, 3)
        expected = first.c.copy()
        first.c[...] = 12345.0
        again = f.eval_jet(at, 3)
        assert again.c.tobytes() == expected.tobytes()
        assert not np.shares_memory(first.c, again.c)


def test_tapes_and_working_blocks_are_not_retained():
    """Evaluating many distinct programs leaves the traced memory within a
    fixed bound, so the compiled tapes are a bounded cache; and a call's
    working block is freed on return, so a wide call leaves only the jet
    it returns."""
    def run(offsets):
        for k in offsets:
            ScalarFieldSpec.parse(f"x1^2*x2+sqrt({k}+x2^2)/x1",
                                  ["x1", "x2"]).eval_jet([0.5, 1.5], 2)

    run(range(1, 301))  # fills the cache
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run(range(301, 1301))
        grown = tracemalloc.get_traced_memory()[0] - before
        wide = 0.5 + np.random.default_rng(29).random((20_000, 2))
        f = ScalarFieldSpec.parse("x1^2*x2+sqrt(1+x2^2)/x1", ["x1", "x2"])
        f.eval_jet(wide[:1], 3)
        before = tracemalloc.get_traced_memory()[0]
        jet = f.eval_jet(wide, 3)
        left = tracemalloc.get_traced_memory()[0] - before - jet.c.nbytes
    finally:
        tracemalloc.stop()
    assert grown < 256 * 1024
    assert left < 64 * 1024


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


@pytest.mark.usefixtures("numpy_policy")
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


@pytest.mark.usefixtures("numpy_policy")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=10),
       st.lists(st.sampled_from(range(len(_POINTS))), min_size=1,
                max_size=3),
       st.booleans(), st.integers(0, 4))
def test_random_truncated_programs_keep_the_full_runs_rows(text, rows, block,
                                                           order):
    """The random fields of the test above with x1 and x2 counted as x:
    at orders 3 and 4 ``eval_jet`` gives the rows of x-degree at most
    order - 2 of the run on full-table jets, or the error type, text and
    first failing column of that run where those rows are non-finite; at
    orders 0 to 2 the whole run."""
    field = ScalarFieldSpec(tuple(_XY), ScalarFieldSpec.parse(
        text, _XY).program, 2)
    at = np.array([_POINTS[r] for r in rows]) if block else np.array(
        _POINTS[rows[0]])
    kept = _x_degree_at_most(4, order, 2, order - 2 if order > 2 else order)
    assert (_outcome(lambda: field.eval_jet(at, order))
            == _outcome(lambda: _full_support_eval_jet(field, at, order,
                                                       kept)))


@pytest.mark.usefixtures("numpy_policy")
def test_a_column_non_finite_only_in_dropped_rows_does_not_raise():
    """At x1 = 1e-70 the coefficients of (y1/x1)^2 of x-degree 3 overflow,
    and those of x-degree 1 or less stay finite: the full jet raises, the
    jet truncated at x-degree 1 does not, and its rows are those of the
    full run.  So a custom metric with F = |y|/x1 samples there."""
    names = ["x1", "y1"]
    program = ScalarFieldSpec.parse("(y1/x1)^2", names).program
    at = np.array([[0.5, 1.0], [1e-70, 1.0]])
    with pytest.raises(DomainError, match=r"at \[1e-70, 1.0\]"):
        ScalarFieldSpec(tuple(names), program).eval_jet(at, 3)
    jet = ScalarFieldSpec(tuple(names), program, 1).eval_jet(at, 3)
    with np.errstate(all="ignore"):
        full = _run(program, [_variable(i, at[:, i], 2, 3)
                              for i in range(2)]).c
    dropped = ~_x_degree_at_most(2, 3, 1, 1)
    assert not np.isfinite(full[dropped, 1]).all()
    assert jet.c.tobytes() == full[~dropped].tobytes()

    from finsym.fields import DomainBox
    from finsym.finsler import MetricSpec, sample_block
    metric = MetricSpec.custom("sqrt(y1^2+y2^2)/x1", 2, DomainBox(
        (1e-80, -1.0), (1.0, 1.0)))
    xs, ys = [[1e-70, 0.5]], [[1.0, 0.5]]
    with pytest.raises(DomainError, match="non-finite field data"):
        ScalarFieldSpec(metric.phi_field.variables,
                        metric.phi_field.program).eval_jet(
            np.concatenate([xs, ys], axis=1), 3)
    sample = sample_block(metric, xs, ys)
    assert np.isfinite(sample.chern).all() and np.isfinite(sample.g).all()


def test_truncated_jets_hold_no_dropped_partial():
    """A truncated jet gives no partial it dropped: its full partials of
    degree order - 1 and up raise, and the form with two fiber
    derivatives gives the full jet's partials on the fiber axes."""
    names = ["x1", "x2", "y1", "y2"]
    text = "(1+x1^2*x2)*(y1^2+x2*y1*y2+3*y2^2)+x1^3*y2"
    at = np.array([[0.5, 1.5, 2.0, 0.75], [1.25, -0.5, 0.3, 1.1]])
    full = ScalarFieldSpec.parse(text, names)
    cut = ScalarFieldSpec(full.variables, full.program, 2)
    for order in (3, 4):
        jet, reference = cut.eval_jet(at, order), full.eval_jet(at, order)
        for k in range(order + 1):
            if k < order - 1:
                assert (jet.derivatives(k).tobytes()
                        == reference.derivatives(k).tobytes())
            else:
                with pytest.raises(OrderError):
                    jet.derivatives(k)
            if k >= 2:
                axes = (slice(None),) * (k - 1) + (slice(2, 4),) * 2
                assert (jet.derivatives(k, fiber=2).tobytes()
                        == np.ascontiguousarray(
                            reference.derivatives(k)[axes]).tobytes())
        with pytest.raises(OrderError):
            jet.derivatives(order, fiber=1)


def test_truncated_jet_arithmetic_keeps_the_full_rows():
    """``Jet`` operators on truncated jets read the truncated table and
    give the kept rows of the same operators on full jets, bit for bit;
    jets truncated differently do not mix."""
    names = ["x1", "y1", "y2"]
    at = np.array([[0.5, 1.5, 2.0], [1.25, -0.5, 0.3]])
    texts = ("x1^2*y1+y2", "1+x1*y2^2")
    for order in (3, 4):
        kept = _x_degree_at_most(3, order, 1, order - 2)
        cut = [_reference(ScalarFieldSpec(tuple(names), ScalarFieldSpec.parse(
            t, names).program, 1).eval_jet(at, order)) for t in texts]
        full = [_reference(ScalarFieldSpec.parse(t, names).eval_jet(at, order))
                for t in texts]
        for op in (lambda a, b: a * b, lambda a, b: a / b,
                   lambda a, b: a - 2.0 * b, lambda a, b: (a * a).sqrt(),
                   lambda a, b: b ** -1.5 + a ** 3, lambda a, b: a ** 0):
            found, want = op(*cut), op(*full)
            assert found.x_vars == 1
            assert found.c.tobytes() == want.c[kept].tobytes()
        with pytest.raises(ValueError, match="jet shape mismatch"):
            cut[0] * full[1]


# -- supports -------------------------------------------------------------------


def _support(text):
    """The support a tape records for ``text`` over x1..x4 at order 3."""
    program = ScalarFieldSpec.parse(text, ["x1", "x2", "x3", "x4"]).program
    return _tape(program, 4, 3).support


def test_supports_follow_the_operations():
    """Variables and constants start the supports; sums, differences and
    products take the union; negation, scalars, divisors, compositions and
    integer powers keep it."""
    assert [_support(t) for t in ("x1", "x2", "2")] == [0b1, 0b10, 0]
    assert [_support(t) for t in ("x1+x2", "x1-x3", "x1*x3", "x1/x3")] == [
        0b11, 0b101, 0b101, 0b101]
    for text in ("-x1", "x1*3", "3*x1", "x1/3", "2-x1", "x1+1", "2/x1",
                 "sqrt(x1)", "x1^0.5", "x1^-2", "x1^3", "x1^0"):
        assert _support(text) == 0b1


@pytest.mark.parametrize("make", [
    lambda x: f"{x}*1e999", lambda x: f"(1e999-1e999)*{x}",
    lambda x: f"{x}/(1e999-1e999)", lambda x: f"{x}/1e999",
    lambda x: f"sqrt({x}*1e308*10+1)",
    lambda x: f"({x}+1e999)^-1"])
def test_non_finite_scalars_and_compositions_keep_the_support(make):
    """On a tape, a non-finite scalar factor or divisor and a composition
    of non-finite data keep the operand's support, and the jet, its
    product with another variable and a difference give the values and the
    non-finite columns of the same programs run on full-table jets."""
    names, points = ["x1", "x2", "x3"], np.array([[0.5, 0.5, 1.0],
                                                  [2.0, 2.0, 1.0]])
    env = [_variable(i, points[:, i], 3, 2) for i in range(3)]
    for text, support in ((make("x1"), 0b1), (f"({make('x1')})*x2", 0b11),
                          (f"x2-({make('x1')})", 0b11)):
        program = ScalarFieldSpec.parse(text, names).program
        tape = _tape(program, 3, 2)
        assert tape.support == support
        with np.errstate(all="ignore"):
            out, want = tape.run(points), _run(program, env).c
        assert out[0].tobytes() == want[0].tobytes()
        assert (np.isfinite(out).all(axis=0).tolist()
                == np.isfinite(want).all(axis=0).tolist())
    # finite scalars keep the support, even where the product overflows
    assert _tape(ScalarFieldSpec.parse("x1*1e308", names).program, 3,
                 2).support == 0b1


def _restricted_product(num_vars, order, ca, cb, sa, sb):
    """The product of the coefficients ``ca`` and ``cb`` on the table
    restricted to the supports ``sa`` and ``sb``, as a tape makes it."""
    p = _table(num_vars, order).product(sa, sb)
    out = np.empty(ca.shape)
    _multiply_into(p, ca, cb, out, np.empty((2 * len(p.a),) + ca.shape[1:]))
    return out


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
    with np.errstate(all="ignore"):
        restricted = _restricted_product(num_vars, order, ca, cb, sa, sb)
        full = (Jet(num_vars, order, ca) * Jet(num_vars, order, cb)).c
    if np.isfinite(ca).all() and np.isfinite(cb).all():
        assert restricted.tobytes() == full.tobytes()
    else:
        assert restricted[0].tobytes() == full[0].tobytes()
        assert (np.isfinite(restricted).all(axis=0).tolist()
                == np.isfinite(full).all(axis=0).tolist())


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
    _, rows = _reference_table(num_vars, order)
    expected = np.zeros_like(ca)
    with np.errstate(all="ignore"):
        found = _restricted_product(num_vars, order, ca, cb, sa, sb)
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
                ca, cb = rng.normal(size=(2, size, width))
                assert _restricted_product(num_vars, order, ca, cb,
                                           sa & full, sb & full).shape == (
                    size, width)

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
