"""Exact higher-order forward-mode differentiation via truncated Taylor jets.

A :class:`Jet` stores the Taylor coefficients of a smooth scalar field at a
point, over ``num_vars`` coordinates, truncated at total degree ``order``.
The partial derivative for a multi-index equals the stored coefficient
times the multi-index factorial.  Arithmetic is closed on jets of equal
shape and is exact for polynomial operations; analytic operations (sqrt,
real powers, reciprocals) are exact to the truncation order.
Derivatives leave a jet only as arrays (:meth:`Jet.derivatives`); chain
rules through a known Jacobian are numpy contractions over those arrays,
done by the callers, not jet compositions.

A jet holds one field at P points: its coefficients have shape
``(size, P)``, one column per point, so each operation is one numpy call
for all of them (Taylor propagation vectorised over points, Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  One point
is P = 1.  Every column is bit-identical to the jet of its point alone: a
product sums each coefficient's terms from +0.0 in table order whatever P
is, one numpy call per rank over index data that does not depend on P
(:class:`_Product`), and the Taylor factors of sqrt, real powers and
reciprocals are computed per column with Python float ``**``, which can
round differently from ``np.power``.  Only the sign of a nan where two
nans meet is numpy's choice per loop; a non-finite jet is an error.

Each jet carries its variable support, a bitmask of the variables its
coefficients can depend on; every other coefficient is ±0.  A variable
has its own bit and a constant none; sums, differences and products take
the union; negation, finite scalar factors and divisors and compositions
keep it; a jet made from raw coefficients has all of them (dependence
propagation in forward mode, as in Griewank & Walther).  A product reads
only the entries of its table whose two factors lie inside their
operands' supports: a cached restriction of the full table, of which
the full table is the (full, full) case.  Each skipped term has a ±0
factor, so with finite operands it is ±0, and every sum starts at +0.0,
where adding ±0 changes no partial sum: every coefficient equals the full
product's bit for bit.

With a non-finite factor a skipped term is nan, which the full product
keeps and the restricted one drops.  A product carries any non-finite
coefficient of an operand into its own column, and values never depend
on higher coefficients, so the two forms part only where a non-finite
scalar multiplies or divides a jet (its zeros become nan), where a
composition reads non-finite data (it can give finite coefficients), or
in the non-finite coefficients themselves.  The first two give full
support and mark the jet with bit ``num_vars`` (:meth:`Jet.is_marked`),
which spreads as support does; ``ScalarFieldSpec.eval_jet`` runs the
program again on full supports when its result is marked or non-finite,
so it returns the full product's jet and raises its error.

An independent finite-difference oracle (:func:`fd_oracle`) is provided to
cross-check jet output; it never goes through jet arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DomainError, OrderError


def multi_index_degree(idx: Sequence[int]) -> int:
    return int(sum(idx))


def multi_index_factorial(idx: Sequence[int]) -> int:
    out = 1
    for e in idx:
        out *= math.factorial(e)
    return out


def _graded_indices(num_vars: int, order: int) -> list[tuple[int, ...]]:
    """All multi-indices of total degree <= order, graded then lexicographic."""
    out: list[tuple[int, ...]] = []
    for deg in range(order + 1):
        block = set()
        for combo in combinations_with_replacement(range(num_vars), deg):
            exps = [0] * num_vars
            for v in combo:
                exps[v] += 1
            block.add(tuple(exps))
        out.extend(sorted(block))
    return out


class _Product:
    """The entries of a product table whose two factors lie inside given
    supports: entry e multiplies coefficient ``a[e]`` of the left factor by
    ``b[e]`` of the right one.  An entry's rank is its position among the
    entries of its output, in table order; slots order the outputs by entry
    count, most first, ``out[slot]`` the output.  The entries come by rank,
    then by slot, so those of rank k are ``ranks[k]:ranks[k + 1]`` and add
    to the first slots, whatever the number of columns."""

    __slots__ = ("a", "b", "out", "ranks")

    def __init__(self, a: np.ndarray, b: np.ndarray, out: np.ndarray):
        """The entries ``a``, ``b``, ``out`` in table order."""
        by_out = np.argsort(out, kind="stable")
        outputs, first, counts = np.unique(out[by_out], return_index=True,
                                           return_counts=True)
        rank = np.empty_like(out)
        rank[by_out] = np.arange(len(out)) - np.repeat(first, counts)
        by_count = np.argsort(-counts, kind="stable")
        slot = np.empty_like(by_count)
        slot[by_count] = np.arange(len(by_count))
        layout = np.lexsort((slot[np.searchsorted(outputs, out)], rank))
        self.a, self.b, self.out = a[layout], b[layout], outputs[by_count]
        self.ranks = tuple(np.searchsorted(
            rank[layout], np.arange(counts.max(initial=0) + 1)).tolist())


class _JetTable:
    """Precomputed index bookkeeping for one (num_vars, order) shape."""

    __slots__ = ("num_vars", "order", "indices", "index_of", "size",
                 "factorials", "_by_key", "_keys", "_pairs", "products")

    def __init__(self, num_vars: int, order: int):
        self.num_vars = num_vars
        self.order = order
        self.indices = _graded_indices(num_vars, order)
        self.size = len(self.indices)
        self.index_of = {idx: k for k, idx in enumerate(self.indices)}
        exponents = np.array(self.indices, dtype=np.intp).reshape(
            self.size, num_vars)
        self.factorials = np.array([multi_index_factorial(idx)
                                    for idx in self.indices], dtype=float)
        # each multi-index as one integer, its exponents the digits in base
        # order + 1, sorted for lookup
        keys = exponents @ (order + 1) ** np.arange(num_vars)
        self._by_key = np.argsort(keys)
        self._keys = keys[self._by_key]

        # every pair of coefficients whose degrees sum to at most order, by
        # degree of a, then degree of b, then a, then b
        start = np.searchsorted(exponents.sum(axis=1),
                                np.arange(order + 2))
        blocks = [np.arange(start[d], start[d + 1]) for d in range(order + 1)]
        pairs = [(np.repeat(ka, len(kb)), np.tile(kb, len(ka)))
                 for da, ka in enumerate(blocks)
                 for kb in blocks[:order + 1 - da]]
        a = np.concatenate([ka for ka, _ in pairs])
        b = np.concatenate([kb for _, kb in pairs])
        out = self.positions(exponents[a] + exponents[b])
        support = (exponents > 0) @ (1 << np.arange(num_vars))
        self._pairs = (a, b, out, support[a], support[b])
        self.products: dict[tuple[int, int], _Product] = {}

    def positions(self, exponents: np.ndarray) -> np.ndarray:
        """The coefficient position of each row of a multi-index array."""
        keys = exponents @ (self.order + 1) ** np.arange(self.num_vars)
        return self._by_key[np.searchsorted(self._keys, keys)]

    def product(self, sa: int, sb: int) -> _Product:
        """The product table restricted to factors whose variables lie in
        the supports ``sa`` and ``sb``; cached in ``products``."""
        found = self.products.get((sa, sb))
        if found is None:
            a, b, out, support_a, support_b = self._pairs
            keep = np.flatnonzero(((support_a & ~sa) == 0)
                                  & ((support_b & ~sb) == 0))
            found = self.products[sa, sb] = _Product(a[keep], b[keep],
                                                     out[keep])
        return found


@lru_cache(maxsize=None)
def _table(num_vars: int, order: int) -> _JetTable:
    return _JetTable(num_vars, order)


@lru_cache(maxsize=None)
def _derivative_gather(num_vars: int, order: int,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient positions and multi-index factorial weights of every k-th
    partial, laid out as ``(num_vars,)*k`` arrays."""
    t = _table(num_vars, order)
    shape = (num_vars,) * k
    slots = np.indices(shape).reshape(k, num_vars ** k)
    pos = t.positions((slots[..., None] == np.arange(num_vars)).sum(axis=0))
    pos = pos.reshape(shape)
    return pos, t.factorials[pos]


def _finite(scalar) -> bool:
    """Whether a scalar, or every entry of an array of them, is finite."""
    if isinstance(scalar, np.ndarray):
        return bool(np.isfinite(scalar).all())
    return math.isfinite(scalar)


def _reciprocal_factors(v: float, order: int) -> list[float]:
    if v == 0.0:
        raise DomainError("division by a jet with zero value")
    try:
        return [(-1.0) ** k / v ** (k + 1) for k in range(order + 1)]
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"Taylor factors of 1/{v:.6g} leave the "
                          "floating-point range") from None


def _power_factors(v: float, order: int, p: float) -> list[float]:
    if v <= 0.0:
        raise DomainError(f"fractional power {p} of non-positive jet value {v}")
    dcoef = []
    binom = 1.0
    try:
        for k in range(order + 1):
            dcoef.append(binom * v ** (p - k))
            binom *= (p - k) / (k + 1)
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"Taylor factors of {v:.6g}^{p:g} leave the "
                          "floating-point range") from None
    return dcoef


def _sqrt_factors(v: float, order: int) -> list[float]:
    if v <= 0.0:
        raise DomainError(f"sqrt of non-positive jet value {v}")
    return _power_factors(v, order, 0.5)


class Jet:
    """Truncated multivariate Taylor expansion of a scalar field at P points.

    ``c`` holds the Taylor coefficients in graded multi-index order, with a
    trailing column axis, one column per point; the partial derivative
    for a multi-index is its coefficient times ``multi_index_factorial``,
    read out through :meth:`derivatives`.

    ``support`` is a bitmask of the variables the coefficients can depend
    on: every coefficient whose multi-index has a variable outside it is
    ±0.  A jet made from raw coefficients has full support.  Bit
    ``num_vars``, above the variables, marks a jet whose data met a
    non-finite scalar factor or went through a composition of non-finite
    data; a marked jet has full support, and the mark spreads as support
    does.
    """

    __slots__ = ("num_vars", "order", "c", "support")

    def __init__(self, num_vars: int, order: int, c: np.ndarray):
        self.num_vars = num_vars
        self.order = order
        self.c = c
        self.support = (1 << num_vars) - 1

    def _new(self, c: np.ndarray, support: int) -> "Jet":
        """A jet of this shape with coefficients ``c`` and ``support``."""
        out = Jet.__new__(Jet)
        out.num_vars, out.order, out.c, out.support = (
            self.num_vars, self.order, c, support)
        return out

    def _marked(self, c: np.ndarray) -> "Jet":
        return self._new(c, (2 << self.num_vars) - 1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value, num_vars: int, order: int) -> "Jet":
        """A constant jet with one column per entry of ``value`` (a float is
        one column)."""
        value = np.atleast_1d(value)
        c = np.zeros((_table(num_vars, order).size,) + value.shape)
        c[0] = value
        out = cls(num_vars, order, c)
        out.support = 0
        return out

    @classmethod
    def variable(cls, i: int, value, num_vars: int, order: int) -> "Jet":
        """The jet of coordinate i with one column per entry of ``value``
        (a float is one column)."""
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range for {num_vars} vars")
        t = _table(num_vars, order)
        value = np.atleast_1d(value)
        c = np.zeros((t.size,) + value.shape)
        c[0] = value
        if order >= 1:
            unit = tuple(1 if v == i else 0 for v in range(num_vars))
            c[t.index_of[unit]] = 1.0
        out = cls(num_vars, order, c)
        out.support = 1 << i
        return out

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> np.ndarray:
        """The values, one per column."""
        return self.c[0].copy()

    def derivatives(self, k: int) -> np.ndarray:
        """Every k-th partial at each column, as symmetric
        ``(num_vars,)*k`` arrays after the column axis: ``out[p, v1, ...,
        vk]`` is the partial in the variables v1..vk at column p."""
        if not 0 <= k <= self.order:
            raise OrderError(f"derivative degree {k} outside 0..{self.order}")
        pos, fac = _derivative_gather(self.num_vars, self.order, k)
        # C order, so that each column's array is laid out as a lone
        # point's: numpy may sum in another order over other strides
        return np.multiply(self.c.T[:, pos], fac, order="C")

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.c).all())

    def is_marked(self) -> bool:
        """Whether a non-finite scalar factor or composition met the data
        of this jet or of one it was computed from."""
        return bool(self.support >> self.num_vars)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Jet") -> None:
        if self.num_vars != other.num_vars or self.order != other.order:
            raise ValueError(
                "jet shape mismatch: "
                f"({self.num_vars},{self.order}) vs ({other.num_vars},{other.order})"
            )

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._new(self.c + other.c, self.support | other.support)
        c = self.c.copy()
        c[0] += other
        return self._new(c, self.support)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.c, self.support)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return self._new(self.c - other.c, self.support | other.support)
        c = self.c.copy()
        c[0] -= other
        return self._new(c, self.support)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return self._new(c, self.support)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = self.c * other
            return (self._new(c, self.support) if _finite(other)
                    else self._marked(c))
        self._check(other)
        support = self.support | other.support
        if self.order == 0:
            return self._new(self.c * other.c, support)
        if self.order == 1:
            a, b = self.c, other.c
            out = a[0] * b + b[0] * a
            out[0] = a[0] * b[0]
            return self._new(out, support)
        t = _table(self.num_vars, self.order)
        p = t.product(self.support, other.support)
        prod = self.c[p.a]
        prod *= other.c[p.b]
        # each output's sum starts at +0.0 and adds its terms in table order,
        # rank by rank, in the head of prod: the same float operations in
        # the same order whatever the number of columns
        sums = prod[:len(p.out)]
        sums += 0.0
        for start, stop in zip(p.ranks[1:], p.ranks[2:]):
            sums[:stop - start] += prod[start:stop]
        c = np.zeros((t.size,) + prod.shape[1:])
        c[p.out] = sums
        return self._new(c, support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        c = self.c / other
        return (self._new(c, self.support) if _finite(other)
                else self._marked(c))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _nilpotent(self) -> "Jet":
        c = self.c.copy()
        c[0] = 0.0
        return self._new(c, self.support)

    def _factors(self, factors: Callable, *args) -> np.ndarray:
        """``factors(v, order, *args)`` at each column's value, as an
        ``(order + 1, P)`` array; always on Python floats."""
        return np.array([factors(v, self.order, *args)
                         for v in self.c[0].tolist()]).T

    def _compose(self, dcoef) -> "Jet":
        """Analytic composition g(self) given dcoef[k] = g^(k)(value)/k!,
        one per column."""
        h = self._nilpotent()
        if not self.is_finite():
            h = h._marked(h.c)
        if self.order == 0:
            return h + dcoef[0]
        out = h * dcoef[-1]
        for k in range(len(dcoef) - 2, 0, -1):
            out.c[0] += dcoef[k]
            out = out * h
        out.c[0] += dcoef[0]
        return out

    def _reciprocal(self) -> "Jet":
        return self._compose(self._factors(_reciprocal_factors))

    def sqrt(self) -> "Jet":
        return self._compose(self._factors(_sqrt_factors))

    def __pow__(self, p: float) -> "Jet":
        p = float(p)
        if p.is_integer():
            n = int(p)
            if n == 0:
                # the operand's support, so that a run on full supports
                # reads the full table in every product
                one = Jet.constant(np.ones(self.c.shape[1:]), self.num_vars,
                                   self.order)
                return self._new(one.c, self.support)
            out = self
            for _ in range(abs(n) - 1):
                out = out * self
            return out if n > 0 else out._reciprocal()
        return self._compose(self._factors(_power_factors, p))

    def __repr__(self) -> str:
        return f"Jet(num_vars={self.num_vars}, order={self.order}, value={self.value})"


def fd_base_step(degree: int) -> float:
    # balances O(h^4) truncation (after Richardson) against cancellation noise
    return float(np.finfo(float).eps ** (1.0 / (degree + 4)))


def _central_points(x: np.ndarray, idx: tuple, steps: np.ndarray) -> list:
    """The points at which :func:`_central` reads the field, in its order;
    each is a stack where x is."""
    for v, e in enumerate(idx):
        if e > 0:
            rest = idx[:v] + (e - 1,) + idx[v + 1:]
            xp = x.copy()
            xp[..., v] += steps[..., v]
            xm = x.copy()
            xm[..., v] -= steps[..., v]
            return (_central_points(xp, rest, steps)
                    + _central_points(xm, rest, steps))
    return [x]


def _central(values: Iterator, idx: tuple, steps: np.ndarray):
    """The central difference from the field's values at
    :func:`_central_points`, taken from ``values`` in that order.  Where
    the steps are a (P, n) stack, each value's leading axis is the row's,
    and each row is divided by its own step."""
    for v, e in enumerate(idx):
        if e > 0:
            rest = idx[:v] + (e - 1,) + idx[v + 1:]
            plus = _central(values, rest, steps)
            step = 2.0 * steps[..., v]
            step = step.reshape(step.shape + (1,) * (np.ndim(plus)
                                                     - step.ndim))
            return (plus - _central(values, rest, steps)) / step
    return next(values)


def _fd_steps(x: np.ndarray, idx: tuple) -> np.ndarray:
    return fd_base_step(multi_index_degree(idx)) * np.maximum(1.0, np.abs(x))


def fd_stencil(point: Sequence[float], idx: Sequence[int]) -> list:
    """The points at which :func:`fd_oracle` reads the field, in the order
    it reads them: the coarse central stencil, then the fine one.  For a
    first derivative along axis v that is x + h e_v, x - h e_v,
    x + h/2 e_v, x - h/2 e_v; a degree-0 index reads x alone.  A (P, n)
    stack of points gives each stencil point as a (P, n) stack, each row
    bit for bit that of the row's own stencil."""
    idx = tuple(int(e) for e in idx)
    x = np.asarray(point, dtype=float)
    if multi_index_degree(idx) == 0:
        return [x]
    steps = _fd_steps(x, idx)
    return (_central_points(x, idx, steps)
            + _central_points(x, idx, steps / 2.0))


def fd_oracle(values, point: Sequence[float], idx: Sequence[int]):
    """Finite-difference derivative estimate, independent of jet arithmetic.

    Composite central differences with step ``fd_base_step(degree)`` scaled
    by max(1, |x_v|), one Richardson extrapolation step (O(step^4) error for
    first derivatives).  ``values`` are the field's values at the points of
    :func:`fd_stencil`, in that order.  A value may be a float or an array,
    which is differentiated entrywise.  At a (P, n) stack of points each
    value is a stack too, its leading axis the row's, and each row of the
    estimate is bit for bit that of the row alone.  The stencil is not
    checked against a domain here: whatever evaluates the field rejects the
    points it cannot.
    """
    idx = tuple(int(e) for e in idx)
    x = np.asarray(point, dtype=float)
    values = iter(values)
    if multi_index_degree(idx) == 0:
        return next(values)
    steps = _fd_steps(x, idx)
    coarse = _central(values, idx, steps)
    fine = _central(values, idx, steps / 2.0)
    return (4.0 * fine - coarse) / 3.0
