"""Exact higher-order forward-mode differentiation via truncated Taylor jets.

A :class:`Jet` stores the Taylor coefficients of a smooth scalar field at a
point, over ``num_vars`` coordinates, truncated at total degree ``order``
(at most 4).  The partial derivative for a multi-index equals the stored
coefficient times the multi-index factorial.  Arithmetic is closed on jets
of equal shape and is exact for polynomial operations; analytic operations
(sqrt, real powers, reciprocals) are exact to the truncation order.

An independent finite-difference oracle (:func:`fd_oracle`) is provided to
cross-check jet output; it never goes through jet arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, OrderError

MAX_ORDER = 4

MultiIndex = tuple  # exponent per variable, nonnegative ints


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


class _JetTable:
    """Precomputed index bookkeeping for one (num_vars, order) shape."""

    __slots__ = (
        "num_vars", "order", "indices", "index_of", "size",
        "degrees", "factorials", "mul_a", "mul_b", "mul_out",
        "deriv_src", "deriv_fac",
    )

    def __init__(self, num_vars: int, order: int):
        self.num_vars = num_vars
        self.order = order
        self.indices = _graded_indices(num_vars, order)
        self.size = len(self.indices)
        self.index_of = {idx: k for k, idx in enumerate(self.indices)}
        self.degrees = np.array([sum(idx) for idx in self.indices], dtype=np.intp)
        self.factorials = np.array(
            [multi_index_factorial(idx) for idx in self.indices], dtype=np.float64
        )

        mul_a, mul_b, mul_out = [], [], []
        by_degree: dict[int, list[int]] = {}
        for k, idx in enumerate(self.indices):
            by_degree.setdefault(sum(idx), []).append(k)
        for da, ka_list in by_degree.items():
            for db, kb_list in by_degree.items():
                if da + db > order:
                    continue
                for ka in ka_list:
                    ia = self.indices[ka]
                    for kb in kb_list:
                        ib = self.indices[kb]
                        tgt = tuple(a + b for a, b in zip(ia, ib))
                        mul_a.append(ka)
                        mul_b.append(kb)
                        mul_out.append(self.index_of[tgt])
        self.mul_a = np.array(mul_a, dtype=np.intp)
        self.mul_b = np.array(mul_b, dtype=np.intp)
        self.mul_out = np.array(mul_out, dtype=np.intp)

        # deriv_src[v][k] = position in this table of (indices_small[k] + e_v),
        # deriv_fac[v][k] = indices_small[k][v] + 1, where indices_small is the
        # table one order down.  Empty for order 0.
        self.deriv_src = []
        self.deriv_fac = []
        if order >= 1:
            small = _graded_indices(num_vars, order - 1)
            for v in range(num_vars):
                src = np.empty(len(small), dtype=np.intp)
                fac = np.empty(len(small), dtype=np.float64)
                for k, idx in enumerate(small):
                    bumped = idx[:v] + (idx[v] + 1,) + idx[v + 1:]
                    src[k] = self.index_of[bumped]
                    fac[k] = idx[v] + 1
                self.deriv_src.append(src)
                self.deriv_fac.append(fac)


@lru_cache(maxsize=None)
def _table(num_vars: int, order: int) -> _JetTable:
    return _JetTable(num_vars, order)


@lru_cache(maxsize=None)
def _derivative_gather(num_vars: int, order: int,
                       k: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient positions and multi-index factorials of every k-th
    partial, laid out as ``(num_vars,)*k`` arrays."""
    index_of = _table(num_vars, order).index_of
    shape = (num_vars,) * k
    pos = np.empty(shape, dtype=np.intp)
    fac = np.empty(shape)
    for slots in np.ndindex(*shape):
        idx = [0] * num_vars
        for v in slots:
            idx[v] += 1
        pos[slots] = index_of[tuple(idx)]
        fac[slots] = multi_index_factorial(idx)
    return pos, fac


class Jet:
    """Truncated multivariate Taylor expansion of a scalar field at a point.

    ``coeffs[idx]`` is the Taylor coefficient for multi-index ``idx``; the
    partial derivative is ``coeffs[idx] * multi_index_factorial(idx)``.
    """

    __slots__ = ("num_vars", "order", "c")

    def __init__(self, num_vars: int, order: int, c: np.ndarray):
        self.num_vars = num_vars
        self.order = order
        self.c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, num_vars: int, order: int) -> "Jet":
        c = np.zeros(_table(num_vars, order).size)
        c[0] = value
        return cls(num_vars, order, c)

    @classmethod
    def variable(cls, i: int, value: float, num_vars: int, order: int) -> "Jet":
        if not 0 <= i < num_vars:
            raise ValueError(f"variable index {i} out of range for {num_vars} vars")
        t = _table(num_vars, order)
        c = np.zeros(t.size)
        c[0] = value
        if order >= 1:
            unit = tuple(1 if v == i else 0 for v in range(num_vars))
            c[t.index_of[unit]] = 1.0
        return cls(num_vars, order, c)

    # -- accessors ---------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    @property
    def coeffs(self) -> dict:
        t = _table(self.num_vars, self.order)
        return {idx: float(self.c[k]) for k, idx in enumerate(t.indices)}

    def coefficient(self, idx: Sequence[int]) -> float:
        idx = tuple(int(e) for e in idx)
        t = _table(self.num_vars, self.order)
        if multi_index_degree(idx) > self.order:
            raise OrderError(
                f"multi-index {idx} exceeds jet order {self.order}"
            )
        return float(self.c[t.index_of[idx]])

    def partial(self, idx: Sequence[int]) -> float:
        """Partial derivative for the given multi-index."""
        return self.coefficient(idx) * multi_index_factorial(idx)

    def derivatives(self, k: int) -> np.ndarray:
        """Every k-th partial as a symmetric ``(num_vars,)*k`` array:
        ``out[v1, ..., vk]`` is the partial in the variables v1..vk."""
        if not 0 <= k <= self.order:
            raise OrderError(f"derivative degree {k} outside 0..{self.order}")
        pos, fac = _derivative_gather(self.num_vars, self.order, k)
        return self.c[pos] * fac

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.c).all())

    # -- structure ---------------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        if order > self.order:
            raise OrderError(f"cannot extend order {self.order} jet to {order}")
        size = _table(self.num_vars, order).size
        return Jet(self.num_vars, order, self.c[:size].copy())

    def derivative(self, v: int) -> "Jet":
        """Jet of the partial derivative in variable ``v``, one order lower."""
        if self.order < 1:
            raise OrderError("cannot differentiate an order-0 jet")
        t = _table(self.num_vars, self.order)
        return Jet(self.num_vars, self.order - 1,
                   self.c[t.deriv_src[v]] * t.deriv_fac[v])

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
            return Jet(self.num_vars, self.order, self.c + other.c)
        c = self.c.copy()
        c[0] += other
        return Jet(self.num_vars, self.order, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.num_vars, self.order, -self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.num_vars, self.order, self.c - other.c)
        c = self.c.copy()
        c[0] -= other
        return Jet(self.num_vars, self.order, c)

    def __rsub__(self, other):
        c = -self.c
        c[0] += other
        return Jet(self.num_vars, self.order, c)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.num_vars, self.order, self.c * other)
        self._check(other)
        if self.order == 0:
            return Jet(self.num_vars, 0, self.c * other.c)
        if self.order == 1:
            a, b = self.c, other.c
            out = a[0] * b + b[0] * a
            out[0] = a[0] * b[0]
            return Jet(self.num_vars, 1, out)
        t = _table(self.num_vars, self.order)
        prod = self.c[t.mul_a] * other.c[t.mul_b]
        return Jet(self.num_vars, self.order,
                   np.bincount(t.mul_out, weights=prod, minlength=t.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return Jet(self.num_vars, self.order, self.c / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _nilpotent(self) -> "Jet":
        c = self.c.copy()
        c[0] = 0.0
        return Jet(self.num_vars, self.order, c)

    def _compose(self, dcoef: Sequence[float]) -> "Jet":
        """Analytic composition g(self) given dcoef[k] = g^(k)(value)/k!."""
        h = self._nilpotent()
        out = Jet.constant(dcoef[-1], self.num_vars, self.order)
        for k in range(len(dcoef) - 2, -1, -1):
            out = out * h
            out.c[0] += dcoef[k]
        return out

    def _reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise DomainError("division by a jet with zero value")
        dcoef = [(-1.0) ** k / v ** (k + 1) for k in range(self.order + 1)]
        return self._compose(dcoef)

    def sqrt(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise DomainError(f"sqrt of non-positive jet value {v}")
        return self.__pow__(0.5)

    def __pow__(self, p: float) -> "Jet":
        p = float(p)
        if p.is_integer():
            n = int(p)
            if n >= 0:
                out = Jet.constant(1.0, self.num_vars, self.order)
                for _ in range(n):
                    out = out * self
                return out
            return (self.__pow__(-n))._reciprocal()
        v = self.value
        if v <= 0.0:
            raise DomainError(
                f"fractional power {p} of non-positive jet value {v}"
            )
        dcoef = []
        binom = 1.0
        for k in range(self.order + 1):
            dcoef.append(binom * v ** (p - k))
            binom *= (p - k) / (k + 1)
        return self._compose(dcoef)

    def __repr__(self) -> str:
        return f"Jet(num_vars={self.num_vars}, order={self.order}, value={self.value})"


def jet_eval(field, point: Sequence[float], order: int) -> Jet:
    """Evaluate a scalar field at ``point`` as a jet of the given order.

    ``field`` is either an object exposing ``eval_jet(point, order)`` (the
    expression specs do) or a callable taking a list of jets, one per
    coordinate, and combining them with jet arithmetic.
    """
    if order < 0 or order > MAX_ORDER:
        raise OrderError(f"order {order} outside supported range 0..{MAX_ORDER}")
    if hasattr(field, "eval_jet"):
        out = field.eval_jet(point, order)
    else:
        num_vars = len(point)
        args = [Jet.variable(i, float(point[i]), num_vars, order)
                for i in range(num_vars)]
        with np.errstate(all="ignore"):  # non-finite data raises below
            out = field(args)
        if not isinstance(out, Jet):
            out = Jet.constant(float(out), num_vars, order)
    if not out.is_finite():
        raise DomainError("non-finite derivative data at point "
                          f"{np.asarray(point, float).tolist()}")
    return out


def jet_partial(jet: Jet, idx: Sequence[int]) -> float:
    """Partial derivative stored in ``jet`` for multi-index ``idx``."""
    return jet.partial(idx)


def fd_base_step(degree: int) -> float:
    # balances O(h^4) truncation (after Richardson) against cancellation noise
    return float(np.finfo(float).eps ** (1.0 / (degree + 4)))


def _central(f: Callable, x: np.ndarray, idx: tuple, steps: np.ndarray) -> float:
    for v, e in enumerate(idx):
        if e > 0:
            rest = idx[:v] + (e - 1,) + idx[v + 1:]
            xp = x.copy()
            xp[v] += steps[v]
            xm = x.copy()
            xm[v] -= steps[v]
            return (_central(f, xp, rest, steps)
                    - _central(f, xm, rest, steps)) / (2.0 * steps[v])
    return float(f(x))


def fd_oracle(field, point: Sequence[float], idx: Sequence[int],
              base_step: float | None = None, domain=None) -> float:
    """Finite-difference derivative estimate, independent of jet arithmetic.

    Composite central differences, one Richardson extrapolation step
    (O(step^4) error for first derivatives).  ``field`` is called with a
    plain coordinate array.  If ``domain`` is given, every stencil point is
    required to lie inside it.
    """
    idx = tuple(int(e) for e in idx)
    x = np.asarray(point, dtype=float)
    degree = multi_index_degree(idx)
    if degree == 0:
        return float(field(x))
    if base_step is None:
        base_step = fd_base_step(degree)
    steps = base_step * np.maximum(1.0, np.abs(x))

    f = field
    if domain is not None:
        reach = np.zeros_like(x)
        for v, e in enumerate(idx):
            reach[v] = e * steps[v]
        for corner in (x + reach, x - reach):
            if not domain.contains(corner):
                raise DomainError(
                    f"finite-difference stencil leaves the domain near {x.tolist()}"
                )

    coarse = _central(f, x, idx, steps)
    fine = _central(f, x, idx, steps / 2.0)
    return (4.0 * fine - coarse) / 3.0


def jet_compose(g: Jet, args: Sequence[Jet]) -> Jet:
    """Compose a jet with jet-valued arguments (multivariate chain rule).

    ``g`` holds the Taylor data of a function of ``g.num_vars`` variables
    around the point given by the argument values; each element of ``args``
    is a jet over the *target* variables whose value equals the matching
    expansion coordinate.  The result is the jet of the composite over the
    target variables, truncated at the arguments' order.
    """
    if len(args) != g.num_vars:
        raise ValueError("argument count does not match jet variable count")
    tgt_vars = args[0].num_vars
    tgt_order = args[0].order
    h = [a._nilpotent() for a in args]

    t = _table(g.num_vars, min(g.order, tgt_order))
    monomials: dict[tuple, Jet] = {t.indices[0]: Jet.constant(1.0, tgt_vars, tgt_order)}
    out = Jet.constant(0.0, tgt_vars, tgt_order)
    for idx in t.indices:
        if idx not in monomials:
            v = next(i for i, e in enumerate(idx) if e > 0)
            parent = idx[:v] + (idx[v] - 1,) + idx[v + 1:]
            monomials[idx] = monomials[parent] * h[v]
        coef = g.coefficient(idx)
        if coef != 0.0:
            out = out + monomials[idx] * coef
    return out
