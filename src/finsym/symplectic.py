"""Two-form fields, symplectic validity checks, and preservation residuals.

A two-form is stored by its strictly-upper entries; skewness is structural.
The lift of a base two-form to the pulled-back bundle has the same
components evaluated at the base point, so preservation conditions are
evaluated directly on the base entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotRandersError,
    OddDimensionError,
)
from .fields import ScalarFieldSpec
from .finsler import MetricSpec, finsler_sample
from .jets import Jet


class ExteriorDerivativeEntry:
    """Entry (d beta)_ij = d_i b_j - d_j b_i, differentiated numerically."""

    def __init__(self, b_i: ScalarFieldSpec, b_j: ScalarFieldSpec, i: int, j: int):
        self.b_i = b_i
        self.b_j = b_j
        self.i = i
        self.j = j

    def evaluate(self, x) -> float:
        return self.eval_jet(x, 0).value

    __call__ = evaluate

    def eval_jet(self, x, order: int) -> Jet:
        ji = self.b_j.eval_jet(x, order + 1).derivative(self.i)
        jj = self.b_i.eval_jet(x, order + 1).derivative(self.j)
        return ji - jj


@dataclass(eq=False)
class TwoFormField:
    """Skew matrix-valued field on a chart; entries stored for i < j."""

    dimension: int
    entries: Mapping  # (i, j) with i < j -> entry with evaluate/eval_jet
    standard: bool = False

    def __post_init__(self):
        for (i, j) in self.entries:
            if not (0 <= i < j < self.dimension):
                raise ValueError(f"entry key ({i},{j}) must satisfy 0 <= i < j < dim")

    def values(self, x) -> np.ndarray:
        w = np.zeros((self.dimension, self.dimension))
        for (i, j), entry in self.entries.items():
            v = entry.evaluate(x)
            w[i, j] = v
            w[j, i] = -v
        return w

    def derivative_values(self, x) -> np.ndarray:
        """d[k, i, j] = d omega_ij / d x^k."""
        m = self.dimension
        d = np.zeros((m, m, m))
        for (i, j), entry in self.entries.items():
            v = entry.eval_jet(x, 1).derivatives(1)
            d[:, i, j] = v
            d[:, j, i] = -v
        return d


def standard_form(n: int) -> TwoFormField:
    """The constant form sum_i dx^i wedge dx^{n+i} on a 2n-dimensional chart."""
    if n < 1:
        raise ValueError("half-dimension must be >= 1")
    dim = 2 * n
    names = tuple(f"x{i + 1}" for i in range(dim))
    one = ScalarFieldSpec.parse("1", names)
    return TwoFormField(dim, {(i, n + i): one for i in range(n)}, standard=True)


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


def closedness_residual(omega: TwoFormField, x) -> float:
    """max over i<j<k of |d_i w_jk + d_j w_ki + d_k w_ij| (vacuous in dim 2)."""
    return closedness(omega.derivative_values(x))


def closedness(d: np.ndarray) -> float:
    """:func:`closedness_residual` of derivative data d[k, i, j]."""
    m = d.shape[0]
    worst = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                worst = max(worst, abs(d[i, j, k] + d[j, k, i] + d[k, i, j]))
    return worst


def nondegeneracy_check(omega: TwoFormField, x) -> float:
    """|det(omega_ij(x))|; compare against the nondegeneracy tolerance."""
    return nondegeneracy(omega.values(x))


def nondegeneracy(w: np.ndarray) -> float:
    """:func:`nondegeneracy_check` of the component matrix w."""
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
    def of(cls, entries: np.ndarray) -> "PreservationResidual":
        return cls(entries=entries, max_abs=float(np.max(np.abs(entries))))


def preservation_entries(omega_values: np.ndarray,
                         omega_derivs: np.ndarray,
                         gamma: np.ndarray) -> np.ndarray:
    """residual_kij = d_k w_ij - w_il G^l_kj + w_jl G^l_ki for given data."""
    term1 = np.einsum("il,lkj->kij", omega_values, gamma)
    term2 = np.einsum("jl,lki->kij", omega_values, gamma)
    return omega_derivs - term1 + term2


def chern_preservation_residual(m: MetricSpec, omega: TwoFormField,
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
    return PreservationResidual.of(preservation_entries(
        omega.values(x), omega.derivative_values(x), chern))


def randers_two_form(b: Sequence[ScalarFieldSpec]) -> TwoFormField:
    """The exterior derivative of beta = b_i dx^i as a two-form field."""
    n = len(b)
    entries = {}
    for i in range(n):
        for j in range(i + 1, n):
            entries[(i, j)] = ExteriorDerivativeEntry(b[i], b[j], i, j)
    return TwoFormField(n, entries)


@dataclass(frozen=True, eq=False)
class RandersPreservation:
    """Pointwise preservation condition of a Randers metric against d(beta).

    ``entries`` holds the general condition per (k, i, j); ``residual`` its
    max magnitude.  ``darboux_residual`` drops the second-derivative
    bracket, the form the condition takes when the covector is linear
    (constant d(beta)); ``second_deriv_max`` reports how far from that case
    the covector is.
    """

    entries: np.ndarray
    residual: float
    darboux_residual: float
    second_deriv_max: float


def randers_preservation_condition(m: MetricSpec, x, y) -> RandersPreservation:
    if m.family != "randers":
        raise NotRandersError(f"metric family is {m.family!r}")
    return randers_condition(m, x, finsler_sample(m, x, y).chern)


def randers_condition(m: MetricSpec, x, G: np.ndarray) -> RandersPreservation:
    """:func:`randers_preservation_condition` given the connection
    coefficients G at (x, y)."""
    jets = [b.eval_jet(np.asarray(x, dtype=float), 2) for b in m.b_fields]
    # db[l, j] = d b_j / d x^l, ddb[k, l, j] = d^2 b_j / d x^k d x^l
    db = np.stack([j.derivatives(1) for j in jets], axis=-1)
    ddb = np.stack([j.derivatives(2) for j in jets], axis=-1)

    bracket1 = (np.einsum("lki,lj->kij", G, db)
                - np.einsum("lkj,li->kij", G, db))
    bracket2 = (np.einsum("lkj,il->kij", G, db)
                - np.einsum("lki,jl->kij", G, db))
    bracket3 = ddb.transpose(0, 2, 1) - ddb  # d_k d_j b_i - d_k d_i b_j
    entries = bracket1 + bracket2 + bracket3
    darboux = bracket1 + bracket2
    return RandersPreservation(
        entries=entries,
        residual=float(np.max(np.abs(entries))),
        darboux_residual=float(np.max(np.abs(darboux))),
        second_deriv_max=float(np.max(np.abs(ddb))),
    )
