"""Two-form fields, symplectic validity checks, and preservation residuals.

A two-form is either a :class:`TwoFormField`, stored by its strictly-upper
entries, or the exact form d(beta) of a covector (:class:`ExactTwoForm`),
read off the covector's derivative arrays; skewness is structural in both.
The lift of a base two-form to the pulled-back bundle has the same
components evaluated at the base point, so preservation conditions are
evaluated directly on the base entries, at a stack of base points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, OddDimensionError
from .fields import ScalarFieldSpec
from .finsler import MetricSpec, finsler_sample


@dataclass(eq=False)
class TwoFormField:
    """Skew matrix-valued field on a chart; entries stored for i < j."""

    dimension: int
    entries: Mapping  # (i, j) with i < j -> ScalarFieldSpec

    def __post_init__(self):
        for (i, j) in self.entries:
            if not (0 <= i < j < self.dimension):
                raise ValueError(f"entry key ({i},{j}) must satisfy 0 <= i < j < dim")

    def data(self, xs) -> list[tuple[np.ndarray, np.ndarray]]:
        """The components w[i, j] and their partials d[k, i, j] =
        d omega_ij / d x^k at each row of a (P, dim) stack, as one (w, d)
        pair per row, from one order-1 jet per entry."""
        m = self.dimension
        xs = np.asarray(xs, dtype=float)
        w = np.zeros((len(xs), m, m))
        d = np.zeros((len(xs), m, m, m))
        for (i, j), entry in self.entries.items():
            jet = entry.eval_jet(xs, 1)
            w[:, i, j], w[:, j, i] = jet.value, -jet.value
            d[:, :, i, j] = jet.derivatives(1)
            d[:, :, j, i] = -d[:, :, i, j]
        return list(zip(w, d))


def covector_derivatives(b: Sequence[ScalarFieldSpec],
                         xs) -> list[tuple[np.ndarray, np.ndarray]]:
    """The first two derivative arrays of the covector b at each row of a
    (P, n) stack, as one (db, ddb) pair per row: db[l, j] = d b_j / d x^l
    and ddb[k, l, j] = d^2 b_j / d x^k d x^l, from one order-2 jet per
    component."""
    jets = [c.eval_jet(xs, 2) for c in b]
    return list(zip(*(np.stack([j.derivatives(k) for j in jets], axis=-1)
                      for k in (1, 2))))


def exact_form_data(db: np.ndarray,
                    ddb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(beta) and its partials from the derivative arrays of b (see
    :func:`covector_derivatives`): w[i, j] = d_i b_j - d_j b_i and
    d[k, i, j] = d w_ij / d x^k."""
    return db - db.T, ddb - ddb.transpose(0, 2, 1)


@dataclass(frozen=True, eq=False)
class ExactTwoForm:
    """The exterior derivative of beta = b_i dx^i:
    (d beta)_ij = d_i b_j - d_j b_i, read off the derivative arrays of b."""

    b: tuple[ScalarFieldSpec, ...]

    @property
    def dimension(self) -> int:
        return len(self.b)

    def data(self, xs) -> list[tuple[np.ndarray, np.ndarray]]:
        """The components and their partials at each row of a (P, n) stack,
        from one order-2 evaluation of b."""
        return [exact_form_data(*row)
                for row in covector_derivatives(self.b, xs)]


# what every consumer of a two-form reads: dimension, data
TwoForm = TwoFormField | ExactTwoForm


def standard_form(n: int) -> TwoFormField:
    """The constant form sum_i dx^i wedge dx^{n+i} on a 2n-dimensional chart."""
    if n < 1:
        raise ValueError("half-dimension must be >= 1")
    dim = 2 * n
    names = tuple(f"x{i + 1}" for i in range(dim))
    one = ScalarFieldSpec.parse("1", names)
    return TwoFormField(dim, {(i, n + i): one for i in range(n)})


def explicit_two_form(dimension: int, entries: Mapping) -> TwoFormField:
    """Build a two-form from {(i, j): expression} over x1..x_dim, 0-based i < j."""
    names = tuple(f"x{i + 1}" for i in range(dimension))
    parsed = {}
    for (i, j), text in entries.items():
        if isinstance(text, ScalarFieldSpec):
            parsed[(i, j)] = text
        else:
            parsed[(i, j)] = ScalarFieldSpec.parse(str(text), names)
    return TwoFormField(dimension, parsed)


def closedness(d: np.ndarray) -> float:
    """max over i<j<k of |d_i w_jk + d_j w_ki + d_k w_ij| for the form's
    derivative data d[k, i, j] (vacuous in dim 2)."""
    m = d.shape[0]
    worst = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                worst = max(worst, abs(d[i, j, k] + d[j, k, i] + d[k, i, j]))
    return worst


def nondegeneracy(w: np.ndarray) -> float:
    """|det(w)| of the component matrix w; compare against the
    nondegeneracy tolerance."""
    if w.shape[0] % 2 != 0:
        raise OddDimensionError(
            f"nondegenerate two-forms need even dimension, got {w.shape[0]}"
        )
    return float(abs(np.linalg.det(w)))


@dataclass(frozen=True, eq=False)
class PreservationResidual:
    """Residual array of the lift-preservation condition at one (x, y)."""

    entries: np.ndarray  # (k, i, j)
    max_abs: float

    @classmethod
    def of(cls, w: np.ndarray, dw: np.ndarray,
           G: np.ndarray) -> "PreservationResidual":
        """residual_kij = d_k w_ij - w_il G^l_kj + w_jl G^l_ki from the form
        w, its partials dw[k, i, j] and the coefficients G[l, k, j]."""
        entries = (dw - np.einsum("il,lkj->kij", w, G)
                   + np.einsum("jl,lki->kij", w, G))
        return cls(entries=entries, max_abs=float(np.max(np.abs(entries))))


def chern_preservation_residual(m: MetricSpec, omega: TwoForm,
                                x, y) -> PreservationResidual:
    """Does the Finsler connection preserve the lifted form at (x, y)?

    The lift has base-point-only components, so the fiber derivative of the
    form vanishes and the condition reduces to the chart components here.
    """
    if omega.dimension != m.dimension:
        raise DimensionMismatchError(
            f"form dimension {omega.dimension} != metric dimension {m.dimension}"
        )
    chern = finsler_sample(m, x, y).chern
    return PreservationResidual.of(*omega.data([x])[0], chern)


def randers_condition(db: np.ndarray, ddb: np.ndarray,
                      G: np.ndarray) -> np.ndarray:
    """Pointwise preservation condition of a Randers metric against d(beta),
    per (k, i, j), from the covector's derivative arrays db and ddb at x
    (see :func:`covector_derivatives`) and the connection coefficients G at
    (x, y).  It equals the negated lift residual of d(beta)."""
    bracket1 = (np.einsum("lki,lj->kij", G, db)
                - np.einsum("lkj,li->kij", G, db))
    bracket2 = (np.einsum("lkj,il->kij", G, db)
                - np.einsum("lki,jl->kij", G, db))
    bracket3 = ddb.transpose(0, 2, 1) - ddb  # d_k d_j b_i - d_k d_i b_j
    return bracket1 + bracket2 + bracket3
