"""Induced symplectic connections along a vector field, and chart behavior.

The induced connection evaluates the Finsler connection coefficients along a
nowhere-zero vector field, G^k_ij(x) = Gtilde^k_ij(x, W_x).  When the
Finsler connection preserves the lifted two-form, the result is a symmetric
connection preserving it on the base, i.e. a Fedosov structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotMinkowskianError,
    ZeroVectorError,
)
from .fields import ChartJacobians, VectorFieldSpec
from .finsler import MetricSpec, finsler_sample, max_pairwise_spread
from .symplectic import TwoForm


@dataclass(frozen=True, eq=False)
class ConnectionCoefficients:
    """Rank-(1,2) coefficient array G^k_ij at a point, array[k, i, j];
    symmetric in the lower pair (i, j), which construction checks."""

    dimension: int
    array: np.ndarray

    def __post_init__(self):
        if self.array.shape != (self.dimension,) * 3:
            raise DimensionMismatchError(
                f"coefficient array shape {self.array.shape} does not match "
                f"dimension {self.dimension}"
            )
        if not np.array_equal(self.array, self.array.transpose(0, 2, 1)):
            raise ValueError("coefficients are not symmetric in the lower pair")

    @classmethod
    def zero(cls, dimension: int) -> "ConnectionCoefficients":
        return cls(dimension, np.zeros((dimension,) * 3))


@dataclass(frozen=True, eq=False)
class FedosovScenario:
    """A metric, an optional two-form, and a nowhere-zero vector field."""

    metric: MetricSpec
    vector_field: VectorFieldSpec
    two_form: TwoForm | None = None

    def __post_init__(self):
        if self.vector_field.dimension != self.metric.dimension:
            raise DimensionMismatchError(
                "vector field dimension does not match metric dimension"
            )
        if (self.two_form is not None
                and self.two_form.dimension != self.metric.dimension):
            raise DimensionMismatchError(
                "two-form dimension does not match metric dimension"
            )


def induce_connection(s: FedosovScenario, x) -> ConnectionCoefficients:
    """Connection coefficients at x along the scenario's vector field."""
    w = s.vector_field.values(x)
    sample = finsler_sample(s.metric, x, w)
    return ConnectionCoefficients(s.metric.dimension, sample.chern)


def covariant_residual(G: np.ndarray, w: np.ndarray, dw: np.ndarray) -> float:
    """max |d_k w_ij - (G^l_ki w_lj + G^l_kj w_il)| from the coefficients
    G[l, k, i], the form w and its partials dw[k, i, j] at one point."""
    covariant = np.einsum("lki,lj->kij", G, w) + np.einsum("lkj,il->kij", G, w)
    return float(np.max(np.abs(dw - covariant)))


def darboux_relations_residual(gamma: ConnectionCoefficients, n: int) -> float:
    """Worst violation of the four standard-form coefficient relations.

    For a symmetric connection preserving sum dx^i wedge dx^{n+i} on a
    2n-chart, all four families vanish for every k.
    """
    G = gamma.array
    if gamma.dimension != 2 * n:
        raise DimensionMismatchError(
            f"connection dimension {gamma.dimension} != 2n = {2 * n}"
        )
    A, B = G[n:, :, :n], G[:n, :, n:]
    C, D = G[n:, :, n:], G[:n, :, :n]
    return max(_max_abs(A - A.transpose(2, 1, 0)),
               _max_abs(C + D.transpose(2, 1, 0)),
               _max_abs(D + C.transpose(2, 1, 0)),
               _max_abs(B - B.transpose(2, 1, 0)))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def transform_connection(gamma: ConnectionCoefficients,
                         jac: ChartJacobians) -> ConnectionCoefficients:
    """Coefficients in the hatted chart at jac.xhat, from the chart
    derivatives ``jac`` at the point where ``gamma`` is given.

    Ghat^p_qr = d_i xhat^p * dhat_q dhat_r x^i
              + d_i xhat^p * G^i_jk * dhat_q x^j * dhat_r x^k
    """
    m = jac.fwd.shape[0]
    if gamma.dimension != m:
        raise DimensionMismatchError(
            f"connection dimension {gamma.dimension} != chart dimension {m}")
    inhom = np.einsum("pi,iqr->pqr", jac.fwd, jac.inv2)
    tensorial = np.einsum("pi,ijk,jq,kr->pqr",
                          jac.fwd, gamma.array, jac.inv, jac.inv)
    out = inhom + tensorial
    for q in range(m):
        for r in range(q + 1, m):
            out[:, r, q] = out[:, q, r]
    return ConnectionCoefficients(m, out)


def hatted_two_form_data(w: np.ndarray, dw: np.ndarray,
                         jac: ChartJacobians) -> tuple[np.ndarray, np.ndarray]:
    """Pull a two-form back through the inverse chart map.

    ``w[i, j]`` and ``dw[l, i, j]`` are the form and its partials at jac.x.
    Returns (values, derivs): values[q, r] the component in the hatted
    chart at jac.xhat and derivs[k, q, r] its hatted partial.  With
    J = dhat x and H = dhat^2 x, values = J^T w J and derivs follow from the
    chain rule as contractions; both are made exactly skew from their
    strict upper triangles.
    """
    m = jac.inv.shape[0]
    if w.shape != (m, m):
        raise DimensionMismatchError(
            f"form dimension {w.shape[0]} != chart dimension {m}")
    J, H = jac.inv, jac.inv2
    values = np.einsum("ij,iq,jr->qr", w, J, J)
    derivs = (np.einsum("lij,lk,iq,jr->kqr", dw, J, J, J)
              + np.einsum("ij,ikq,jr->kqr", w, H, J)
              + np.einsum("ij,iq,jkr->kqr", w, J, H))
    return _skew(values), _skew(derivs)


def _skew(a: np.ndarray) -> np.ndarray:
    upper = np.triu(a, 1)
    return upper - np.swapaxes(upper, -1, -2)


class MinkowskiResiduals(NamedTuple):
    natural: float
    hatted: float


_MINKOWSKI_PROBE_BASE = (1.0, 0.6, 1.3, 0.8, 1.1, 0.7, 1.4, 0.9)
_FLATNESS_TOL = 1e-8


def require_minkowskian(m: MetricSpec, x) -> None:
    """Raise NotMinkowskianError unless the connection coefficients vanish
    at x on three fixed fiber probes, as they do for an x-independent
    metric."""
    base = np.array(_MINKOWSKI_PROBE_BASE[:m.dimension])
    worst = 0.0
    for y in (base, base[::-1] * 0.75, base + 0.5):
        sample = finsler_sample(m, x, y)
        worst = max(worst, _max_abs(sample.chern))
    if worst > _FLATNESS_TOL:
        raise NotMinkowskianError(
            f"connection coefficients reach {worst:.3e} in the natural chart "
            f"(> {_FLATNESS_TOL:g}); metric is not x-independent here"
        )


def minkowski_preservation_check(dw: np.ndarray, jac: ChartJacobians,
                                 hatted: tuple[np.ndarray, np.ndarray]
                                 ) -> MinkowskiResiduals:
    """Preservation conditions of an x-independent metric (see
    :func:`require_minkowskian`) in both charts.

    natural: max |d_k w_ij| in the natural chart, from the form's partials
    ``dw`` at jac.x.  hatted: the residual of the transformed condition in
    the hatted chart, built from the chart's second derivatives and the
    :func:`hatted_two_form_data` of the form.
    """
    values, derivs = hatted
    second = np.einsum("lh,hki->lki", jac.fwd, jac.inv2)
    term1 = np.einsum("lki,lj->kij", second, values)
    term2 = np.einsum("lkj,il->kij", second, values)
    return MinkowskiResiduals(natural=_max_abs(dw),
                              hatted=_max_abs(term1 + term2 - derivs))


def berwald_uniqueness_probe(s: FedosovScenario, x,
                             w_list: Sequence) -> float:
    """Max pairwise coefficient difference across candidate vector values."""
    ws = [np.asarray(w, dtype=float) for w in w_list]
    if len(ws) < 2:
        raise ValueError("need at least two vector values to probe uniqueness")
    floor = s.vector_field.w_min
    for w in ws:
        if float(np.linalg.norm(w)) < floor:
            raise ZeroVectorError(
                f"probe vector norm {np.linalg.norm(w):.3e} below floor {floor}"
            )
    return max_pairwise_spread([finsler_sample(s.metric, x, w).chern
                                for w in ws])
