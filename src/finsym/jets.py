"""Exact higher-order forward-mode differentiation via truncated Taylor jets.

A :class:`Jet` stores the Taylor coefficients of a smooth scalar field at a
point, over ``num_vars`` coordinates, truncated at total degree ``order``.
The partial derivative for a multi-index equals the stored coefficient
times the multi-index factorial.  ``Jet`` is a container: the package's
one jet arithmetic is the tapes of ``fields.ScalarFieldSpec.eval_jet``,
exact for polynomial operations and, for the analytic ones (sqrt, real
powers, reciprocals), to the truncation order.  The full-table ``Jet``
operators the tapes are held to live in the tests (``tests/test_jets.py``).
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
reciprocals are computed with Python float ``**``, which can round
differently from ``np.power``: row by row in one pass over the columns,
and column by column where that pass raises, so the first failing column
raises its own error (:func:`_taylor`).  Only the sign of a nan where two
nans meet is numpy's choice per loop; a non-finite jet is an error.

A table can be truncated (:class:`_JetTable`): with ``x_vars``, it keeps
only the multi-indices of degree at most ``order - 2`` in the first
``x_vars`` variables, the partials with two derivatives in the others and
their divisors, which is all the energy's readers take.  That set is
closed under taking divisors, so each kept coefficient of a product or a
composition is the full table's, bit for bit; a jet on such a table holds
only those rows, and :meth:`Jet.derivatives` raises for a partial it
dropped.  A non-finite value in a dropped coefficient alone is no error.

A product reads a table of coefficient pairs (:meth:`_JetTable.product`),
which can be restricted to the pairs whose two factors depend only on the
variables of given supports, bitmasks of variables.  The tapes read
restricted tables, and ``fields._TapeJet`` states how a tape decides the
supports and why that leaves every coefficient as the whole table's; the
tests' reference reads the whole table.

Two kernels do the arithmetic, shared by the tapes and the tests'
reference: :func:`_multiply_into`, the one product routine, and
:func:`_compose_into`, the one composition routine (Horner's scheme over
it), both writing into arrays the caller provides; :func:`_taylor`
computes the Taylor factors they compose with, one routine per function.

An independent finite-difference oracle (:func:`fd_oracle`) is provided to
cross-check jet output; it never goes through jet arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement, repeat
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

    __slots__ = ("a", "b", "out", "ranks", "partial")

    def __init__(self, a: np.ndarray, b: np.ndarray, out: np.ndarray,
                 size: int):
        """The entries ``a``, ``b``, ``out`` of a table of ``size``
        coefficients, in table order; ``partial`` whether some coefficient
        is no entry's output."""
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
        self.partial = len(outputs) < size


class _JetTable:
    """Precomputed index bookkeeping for one (num_vars, order, x_vars)
    shape.  With ``x_vars``, the first ``x_vars`` variables count as x and
    the table keeps only the multi-indices of x-degree at most
    ``order - 2``: every partial with at least two derivatives in the
    other variables, and its divisors.  That set is closed under taking
    divisors, so a kept coefficient of a product has only kept factors
    and the truncated product keeps exactly its full-table terms, in table
    order (weighted-order truncation, Berz, *Modern Map Methods in
    Particle Beam Physics*, 1999, ch. 2).  A truncated table has order 3
    or more, so it keeps every first-order monomial."""

    __slots__ = ("num_vars", "order", "x_vars", "indices", "size",
                 "factorials", "_by_key", "_keys", "_pairs", "bank",
                 "products", "banked")

    def __init__(self, num_vars: int, order: int, x_vars: int = 0):
        if x_vars and order < 3:
            raise ValueError(f"no truncation at order {order}")
        self.num_vars = num_vars
        self.order = order
        self.x_vars = x_vars
        indices = _graded_indices(num_vars, order)
        kept = self.keeps(np.array(indices).reshape(len(indices), num_vars))
        self.indices = [idx for idx, k in zip(indices, kept) if k]
        self.size = len(self.indices)
        exponents = np.array(self.indices, dtype=np.intp).reshape(
            self.size, num_vars)
        self.factorials = np.array([multi_index_factorial(idx)
                                    for idx in self.indices], dtype=float)
        # each multi-index as one integer, its exponents the digits in base
        # order + 1, sorted for lookup
        keys = exponents @ (order + 1) ** np.arange(num_vars)
        self._by_key = np.argsort(keys)
        self._keys = keys[self._by_key]

        # every pair of coefficients whose product the table keeps, by
        # degree of a, then degree of b, then a, then b
        start = np.searchsorted(exponents.sum(axis=1),
                                np.arange(order + 2))
        blocks = [np.arange(start[d], start[d + 1]) for d in range(order + 1)]
        pairs = [(np.repeat(ka, len(kb)), np.tile(kb, len(ka)))
                 for da, ka in enumerate(blocks)
                 for kb in blocks[:order + 1 - da]]
        a = np.concatenate([ka for ka, _ in pairs])
        b = np.concatenate([kb for _, kb in pairs])
        kept = np.flatnonzero(self.keeps(exponents[a] + exponents[b]))
        a, b = a[kept], b[kept]
        out = self.positions(exponents[a] + exponents[b])
        support = (exponents > 0) @ (1 << np.arange(num_vars))
        self._pairs = (a, b, out, support[a], support[b])
        # bank[i, k]: the row of coefficient k of variable i's jet in a bank
        # of the variables' values, a row of 1.0 and a row of +0.0
        self.bank = np.full((num_vars, self.size), num_vars + 1,
                            dtype=np.intp)
        self.bank[:, 0] = np.arange(num_vars)
        if order:
            self.bank[np.arange(num_vars), self.positions(
                np.eye(num_vars, dtype=np.intp))] = num_vars
        self.products: dict[tuple[int, int], _Product] = {}
        self.banked: dict[tuple, _Product] = {}

    def keeps(self, exponents: np.ndarray) -> np.ndarray:
        """Whether the table keeps each row of a multi-index array."""
        return (exponents[..., :self.x_vars].sum(axis=-1)
                <= (self.order - 2 if self.x_vars else self.order))

    def positions(self, exponents: np.ndarray) -> np.ndarray:
        """The coefficient position of each row of a multi-index array,
        every one kept."""
        keys = exponents @ (self.order + 1) ** np.arange(self.num_vars)
        return self._by_key[np.searchsorted(self._keys, keys)]

    def product(self, sa: int, sb: int, bank_a: bool = False,
                bank_b: bool = False) -> _Product:
        """The product table restricted to factors whose variables lie in
        the supports ``sa`` and ``sb``; cached in ``products``.  A factor
        marked ``bank_a`` or ``bank_b`` is a variable, its support one bit,
        read from a bank of ``num_vars + 2`` rows (see ``bank``); those
        tables are cached in ``banked``."""
        if bank_a or bank_b:
            found = self.banked.get((sa, sb, bank_a, bank_b))
            if found is None:
                p = self.product(sa, sb)
                found = _Product.__new__(_Product)
                found.a, found.b = p.a, p.b
                if bank_a:
                    found.a = self.bank[sa.bit_length() - 1, p.a]
                if bank_b:
                    found.b = self.bank[sb.bit_length() - 1, p.b]
                found.out, found.ranks, found.partial = (p.out, p.ranks,
                                                         p.partial)
                self.banked[sa, sb, bank_a, bank_b] = found
            return found
        found = self.products.get((sa, sb))
        if found is None:
            a, b, out, support_a, support_b = self._pairs
            keep = np.flatnonzero(((support_a & ~sa) == 0)
                                  & ((support_b & ~sb) == 0))
            found = self.products[sa, sb] = _Product(a[keep], b[keep],
                                                     out[keep], self.size)
        return found


def _multiply_into(p: _Product, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray, scratch: np.ndarray) -> None:
    """The product of the coefficient arrays ``a`` and ``b`` on the table
    ``p``, written to ``out``, which may be ``a`` or ``b``; the two factors
    are gathered into ``scratch``, which has at least ``2 * len(p.a)``
    rows.  Each output's sum starts at +0.0 and adds its terms in table
    order, rank by rank, in the head of the gathered left factor: the same
    float operations in the same order whatever the number of columns.
    Shared by the tapes and the tests' full-table reference."""
    prod, right = scratch[:len(p.a)], scratch[len(p.a):2 * len(p.a)]
    # mode="clip" writes straight to out; the default buffers it
    np.take(a, p.a, axis=0, out=prod, mode="clip")
    np.take(b, p.b, axis=0, out=right, mode="clip")
    prod *= right
    sums = prod[:len(p.out)]
    sums += 0.0
    for start, stop in zip(p.ranks[1:], p.ranks[2:]):
        sums[:stop - start] += prod[start:stop]
    if p.partial:
        out.fill(0.0)
    out[p.out] = sums


def _compose_into(p: _Product | None, h: np.ndarray, dcoef,
                  out: np.ndarray, scratch: np.ndarray) -> None:
    """The analytic composition g(value + h), written to ``out``, from the
    nilpotent part ``h`` of a jet (its value row +0.0) and dcoef[k] =
    g^(k)(value)/k!, one per column: Horner's scheme from dcoef[-1] * h,
    with ``p`` the product table of h's support with itself, which only
    orders 2 and up use.  Shared by the tapes and the tests' full-table
    reference."""
    np.multiply(h, dcoef[-1], out=out)
    for k in range(len(dcoef) - 2, 0, -1):
        out[0] += dcoef[k]
        _multiply_into(p, out, h, out, scratch)
    out[0] += dcoef[0]


@lru_cache(maxsize=None)
def _table(num_vars: int, order: int, x_vars: int = 0) -> _JetTable:
    return _JetTable(num_vars, order, x_vars)


@lru_cache(maxsize=None)
def _derivative_gather(num_vars: int, order: int, k: int, x_vars: int = 0,
                       fiber: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient positions and multi-index factorial weights of every k-th
    partial whose last ``fiber`` variables are not among the first
    ``x_vars``, laid out as ``(num_vars,)*(k - fiber)`` then
    ``(num_vars - x_vars,)*fiber`` arrays; OrderError if the table of
    ``(num_vars, order, x_vars)`` drops one of them."""
    t = _table(num_vars, order, x_vars)
    shape = (num_vars,) * (k - fiber) + (num_vars - x_vars,) * fiber
    slots = np.indices(shape).reshape(k, math.prod(shape))
    slots[k - fiber:] += x_vars
    exponents = (slots[..., None] == np.arange(num_vars)).sum(axis=0)
    if not t.keeps(exponents).all():
        raise OrderError(f"a jet truncated at x-degree {order - 2} in its "
                         f"first {x_vars} variables holds no partial of "
                         f"degree {k} with {fiber} fiber derivatives")
    pos = t.positions(exponents).reshape(shape)
    return pos, t.factorials[pos]


def _taylor(factors: Callable, values: np.ndarray, order: int,
            *args) -> np.ndarray:
    """``factors(entries, order, *args)`` over the entries of ``values``,
    as an ``(order + 1, P)`` array; always on Python floats, which
    np.power need not match.  Where the pass over all entries raises, the
    entries are run one at a time, so the first failing entry raises its
    own error."""
    values = values.tolist()
    try:
        return np.array(factors(values, order, *args))
    except DomainError:
        pass  # replayed below, outside the handler, so no error chains to it
    return np.hstack([factors([v], order, *args) for v in values])


def _reciprocal_factors(values: list, order: int) -> list[list[float]]:
    """The Taylor factors (-1)^k / v^(k + 1) of 1/v at each entry v, one
    row per k <= order.  DomainError where an entry is zero or a factor
    leaves the floating-point range; the range error names the first
    entry, the failing one in the one-entry calls ``_taylor`` falls back
    to."""
    if 0.0 in values:
        raise DomainError("division by a jet with zero value")
    rows = []
    try:
        for k in range(order + 1):
            sign = (-1.0) ** k
            rows.append([sign / t for t in map(pow, values, repeat(k + 1))])
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"Taylor factors of 1/{values[0]:.6g} leave the "
                          "floating-point range") from None
    return rows


def _power_factors(values: list, order: int,
                   p: float) -> list[list[float]]:
    """The Taylor factors binom(p, k) v^(p - k) of v^p at each entry v, one
    row per k <= order.  DomainError where an entry is not positive,
    naming the first such entry, or where a factor leaves the
    floating-point range, naming the first entry (see
    :func:`_reciprocal_factors`)."""
    bad = next(filter((0.0).__ge__, values), None)
    if bad is not None:
        raise DomainError(f"fractional power {p} of non-positive jet value "
                          f"{bad}")
    rows, binom = [], 1.0
    try:
        for k in range(order + 1):
            rows.append([binom * t for t in map(pow, values, repeat(p - k))])
            binom *= (p - k) / (k + 1)
    except (ZeroDivisionError, OverflowError):
        raise DomainError(f"Taylor factors of {values[0]:.6g}^{p:g} leave "
                          "the floating-point range") from None
    return rows


def _sqrt_factors(values: list, order: int) -> list[list[float]]:
    """:func:`_power_factors` at p = 1/2, with its own word for a
    non-positive entry."""
    bad = next(filter((0.0).__ge__, values), None)
    if bad is not None:
        raise DomainError(f"sqrt of non-positive jet value {bad}")
    return _power_factors(values, order, 0.5)


class Jet:
    """Truncated multivariate Taylor expansion of a scalar field at P points.

    ``c`` holds the Taylor coefficients in graded multi-index order, with a
    trailing column axis, one column per point; the partial derivative
    for a multi-index is its coefficient times ``multi_index_factorial``,
    read out through :meth:`derivatives`.  With ``x_vars``, ``c`` holds
    only the coefficients the table of ``(num_vars, order, x_vars)`` keeps
    (:class:`_JetTable`).  A container: the tapes do the arithmetic.
    """

    __slots__ = ("num_vars", "order", "c", "x_vars")

    def __init__(self, num_vars: int, order: int, c: np.ndarray,
                 x_vars: int = 0):
        self.num_vars = num_vars
        self.order = order
        self.c = c
        self.x_vars = x_vars

    @property
    def value(self) -> np.ndarray:
        """The values, one per column."""
        return self.c[0].copy()

    def derivatives(self, k: int, fiber: int = 0) -> np.ndarray:
        """Every k-th partial at each column, as symmetric
        ``(num_vars,)*k`` arrays after the column axis: ``out[p, v1, ...,
        vk]`` is the partial in the variables v1..vk at column p.  With
        ``fiber``, only the partials whose last ``fiber`` variables are
        not among the first ``x_vars``, those axes indexing the variables
        after them.  OrderError for a partial the jet does not hold: a
        truncated jet gives its partials of degree ``order - 1`` and up
        only with ``fiber`` 2."""
        if not 0 <= k <= self.order:
            raise OrderError(f"derivative degree {k} outside 0..{self.order}")
        if not 0 <= fiber <= k:
            raise OrderError(f"{fiber} fiber derivatives outside 0..{k}")
        pos, fac = _derivative_gather(self.num_vars, self.order, k,
                                      self.x_vars, fiber)
        # C order, so that each column's array is laid out as a lone
        # point's: numpy may sum in another order over other strides
        return np.multiply(self.c.T[:, pos], fac, order="C")


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
