"""Two-form fields, symplectic validity checks, and preservation residuals.

A two-form is either a :class:`TwoFormField`, stored by its strictly-upper
entries, or the exact form d(beta) of a covector (:class:`ExactTwoForm`),
read off the covector's derivative arrays; skewness is structural in both.
The lift of a base two-form to the pulled-back bundle has the same
components evaluated at the base point, so preservation conditions are
evaluated directly on the base entries; every function here takes and
gives stacks, arrays with a leading row axis p.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, OddDimensionError, take_rows
from .fields import ScalarFieldSpec
from .finsler import MetricSpec, _max_of, sample_block


@dataclass(eq=False)
class TwoFormField:
    """Skew matrix-valued field on a chart; entries stored for i < j."""

    dimension: int
    entries: Mapping  # (i, j) with i < j -> ScalarFieldSpec

    def __post_init__(self):
        for (i, j) in self.entries:
            if not (0 <= i < j < self.dimension):
                raise ValueError(f"entry key ({i},{j}) must satisfy 0 <= i < j < dim")

    def data(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """The components w[p, i, j] and their partials d[p, k, i, j] =
        d omega_ij / d x^k at each row p of a (P, dim) stack, from one
        order-1 jet per entry."""
        m = self.dimension
        xs = np.asarray(xs, dtype=float)
        w = np.zeros((len(xs), m, m))
        d = np.zeros((len(xs), m, m, m))
        for (i, j), entry in self.entries.items():
            jet = entry.eval_jet(xs, 1)
            w[:, i, j], w[:, j, i] = jet.value, -jet.value
            d[:, :, i, j] = jet.derivatives(1)
            d[:, :, j, i] = -d[:, :, i, j]
        return w, d


def covector_derivatives(b: Sequence[ScalarFieldSpec],
                         xs) -> tuple[np.ndarray, np.ndarray]:
    """The first two derivative arrays of the covector b at each row of a
    (P, n) stack: db[p, l, j] = d b_j / d x^l and ddb[p, k, l, j] =
    d^2 b_j / d x^k d x^l, from one order-2 jet per component."""
    jets = [c.eval_jet(xs, 2) for c in b]
    return tuple(np.stack([j.derivatives(k) for j in jets], axis=-1)
                 for k in (1, 2))


def exact_form_data(db: np.ndarray,
                    ddb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """d(beta) and its partials from the derivative arrays of b (see
    :func:`covector_derivatives`): w[p, i, j] = d_i b_j - d_j b_i and
    d[p, k, i, j] = d w_ij / d x^k."""
    return db - db.transpose(0, 2, 1), ddb - ddb.transpose(0, 1, 3, 2)


@dataclass(frozen=True, eq=False)
class ExactTwoForm:
    """The exterior derivative of beta = b_i dx^i:
    (d beta)_ij = d_i b_j - d_j b_i, read off the derivative arrays of b."""

    b: tuple[ScalarFieldSpec, ...]

    @property
    def dimension(self) -> int:
        return len(self.b)

    def data(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """The components and their partials at each row of a (P, n) stack,
        from one order-2 evaluation of b."""
        return exact_form_data(*covector_derivatives(self.b, xs))


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
    return TwoFormField(dimension, {
        key: text if isinstance(text, ScalarFieldSpec)
        else ScalarFieldSpec.parse(str(text), names)
        for key, text in entries.items()})


def closedness(d: np.ndarray) -> np.ndarray:
    """max over i<j<k of |d_i w_jk + d_j w_ki + d_k w_ij| at each row of a
    stack of the form's derivative data d[p, k, i, j] (vacuous in dim 2)."""
    return _max_of(np.zeros(len(d)), *(
        np.abs(d[:, i, j, k] + d[:, j, k, i] + d[:, k, i, j])
        for i, j, k in combinations(range(d.shape[1]), 3)))


def nondegeneracy(w: np.ndarray) -> np.ndarray:
    """|det(w)| of the component matrix w[p] at each row of a stack;
    compare against the nondegeneracy tolerance."""
    if w.shape[1] % 2 != 0:
        raise OddDimensionError(
            f"nondegenerate two-forms need even dimension, got {w.shape[1]}"
        )
    return np.abs(np.linalg.det(w))  # an overflowing |det| is +inf


class PreservationResidual(NamedTuple):
    """Residual arrays of the lift-preservation condition at a stack of
    points (x, y), entries[p, k, i, j], and their largest |entry|."""

    entries: np.ndarray
    max_abs: np.ndarray

    @classmethod
    def stacked(cls, w, dw, G) -> "PreservationResidual":
        """residual_kij = d_k w_ij - w_il G^l_kj + w_jl G^l_ki at each row
        of stacks of the form w, its partials dw[p, k, i, j] and the
        coefficients G[p, l, k, j], as one array computation over the
        stack."""
        # C-contiguous stacks, so einsum sums each row in a lone row's order
        w, dw, G = map(np.ascontiguousarray, (w, dw, G))
        entries = (dw - np.einsum("pil,plkj->pkij", w, G)
                   + np.einsum("pjl,plki->pkij", w, G))
        return cls(entries, np.abs(entries).max(axis=(1, 2, 3)))


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
    return take_rows(PreservationResidual.stacked(
        *omega.data([x]), sample_block(m, [x], [y]).chern), 0)


def randers_condition(db, ddb, G) -> np.ndarray:
    """Pointwise preservation condition of a Randers metric against d(beta),
    per (p, k, i, j), at each row p of stacks of the covector's derivative
    arrays db and ddb at x (see :func:`covector_derivatives`) and the
    connection coefficients G at (x, y).  It equals the negated lift
    residual of d(beta)."""
    # C-contiguous stacks, so einsum sums each row in a lone row's order
    db, ddb, G = map(np.ascontiguousarray, (db, ddb, G))
    bracket1 = (np.einsum("plki,plj->pkij", G, db)
                - np.einsum("plkj,pli->pkij", G, db))
    bracket2 = (np.einsum("plkj,pil->pkij", G, db)
                - np.einsum("plki,pjl->pkij", G, db))
    bracket3 = ddb.transpose(0, 1, 3, 2) - ddb  # d_k d_j b_i - d_k d_i b_j
    return bracket1 + bracket2 + bracket3
