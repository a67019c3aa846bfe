"""Induced symplectic connections along a vector field, and chart behavior.

The induced connection evaluates the Finsler connection coefficients along a
nowhere-zero vector field, G^k_ij(x) = Gtilde^k_ij(x, W_x).  When the
Finsler connection preserves the lifted two-form, the result is a symmetric
connection preserving it on the base, i.e. a Fedosov structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotMinkowskianError,
    ZeroVectorError,
)
from .fields import ChartMap, VectorFieldSpec, chart_jacobians
from .finsler import MetricSpec, finsler_sample, max_pairwise_spread
from .jets import jet_compose, jet_eval
from .symplectic import PreservationResidual, TwoFormField, preservation_entries


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
    two_form: TwoFormField | None = None

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


def induced_connection_field(s: FedosovScenario) -> Callable:
    """The induced connection as a field x -> ConnectionCoefficients."""
    return lambda x: induce_connection(s, x)


def _coefficients_at(gamma, x) -> ConnectionCoefficients:
    if isinstance(gamma, ConnectionCoefficients):
        return gamma
    return gamma(x)


def symplectic_connection_residual(gamma, omega: TwoFormField, x) -> float:
    """max |d_k w_ij - (G^l_ki w_lj + G^l_kj w_il)| at x.

    ``gamma`` may be coefficients at x or a connection field.
    """
    coeffs = _coefficients_at(gamma, x)
    if coeffs.dimension != omega.dimension:
        raise DimensionMismatchError(
            f"connection dimension {coeffs.dimension} != form dimension "
            f"{omega.dimension}"
        )
    return covariant_residual(coeffs.array, omega.values(x),
                              omega.derivative_values(x))


def covariant_residual(G: np.ndarray, w: np.ndarray, dw: np.ndarray) -> float:
    """:func:`symplectic_connection_residual` of coefficient and form data."""
    covariant = np.einsum("lki,lj->kij", G, w) + np.einsum("lkj,il->kij", G, w)
    return float(np.max(np.abs(dw - covariant)))


def darboux_relations_families(gamma: ConnectionCoefficients,
                               n: int) -> np.ndarray:
    """Residuals of the four standard-form coefficient relations, per family.

    For a symmetric connection preserving sum dx^i wedge dx^{n+i} on a
    2n-chart, all four families vanish.
    """
    G = gamma.array
    if gamma.dimension != 2 * n:
        raise DimensionMismatchError(
            f"connection dimension {gamma.dimension} != 2n = {2 * n}"
        )
    res = np.zeros(4)
    for k in range(2 * n):
        for i in range(n):
            for j in range(n):
                res[0] = max(res[0], abs(G[i + n, k, j] - G[j + n, k, i]))
                res[3] = max(res[3], abs(G[i, k, j + n] - G[j, k, i + n]))
        for i in range(n):
            for j in range(n, 2 * n):
                res[1] = max(res[1], abs(G[i + n, k, j] + G[j - n, k, i]))
        for i in range(n, 2 * n):
            for j in range(n):
                res[2] = max(res[2], abs(G[i - n, k, j] + G[j + n, k, i]))
    return res


def darboux_relations_residual(gamma: ConnectionCoefficients, n: int) -> float:
    """Worst violation over the four relation families and all k."""
    return float(np.max(darboux_relations_families(gamma, n)))


def transform_connection(gamma: ConnectionCoefficients, chart: ChartMap,
                         x) -> ConnectionCoefficients:
    """Coefficients in the hatted chart at xhat(x).

    Ghat^p_qr = d_i xhat^p * dhat_q dhat_r x^i
              + d_i xhat^p * G^i_jk * dhat_q x^j * dhat_r x^k
    """
    if gamma.dimension != chart.dimension:
        raise DimensionMismatchError(
            f"connection dimension {gamma.dimension} != chart dimension "
            f"{chart.dimension}"
        )
    jac = chart_jacobians(chart, x)
    inhom = np.einsum("pi,iqr->pqr", jac.fwd, jac.inv2)
    tensorial = np.einsum("pi,ijk,jq,kr->pqr",
                          jac.fwd, gamma.array, jac.inv, jac.inv)
    out = inhom + tensorial
    m = chart.dimension
    for q in range(m):
        for r in range(q + 1, m):
            out[:, r, q] = out[:, q, r]
    return ConnectionCoefficients(m, out)


def hatted_two_form_data(omega: TwoFormField, chart: ChartMap, x):
    """Hatted-chart components of a two-form and their hatted derivatives.

    Returns (values, derivs, xhat) with values[q, r] the component in the
    hatted chart at xhat(x) and derivs[k, q, r] its hatted partial.
    """
    if omega.dimension != chart.dimension:
        raise DimensionMismatchError(
            f"form dimension {omega.dimension} != chart dimension "
            f"{chart.dimension}"
        )
    m = chart.dimension
    xhat = chart.forward_point(x)
    inv_jets = [jet_eval(c, xhat, 2) for c in chart.inverse]
    x_back = np.array([j.value for j in inv_jets])
    args = [j.truncated(1) for j in inv_jets]
    d_inv = [[inv_jets[i].derivative(q) for q in range(m)] for i in range(m)]

    values = np.zeros((m, m))
    derivs = np.zeros((m, m, m))
    composed = {key: jet_compose(entry.eval_jet(x_back, 1), args)
                for key, entry in omega.entries.items()}
    for q in range(m):
        for r in range(q + 1, m):
            acc = None
            for (i, j), wij in composed.items():
                term = wij * (d_inv[i][q] * d_inv[j][r]
                              - d_inv[j][q] * d_inv[i][r])
                acc = term if acc is None else acc + term
            if acc is None:
                continue
            values[q, r] = acc.value
            values[r, q] = -acc.value
            v = acc.derivatives(1)
            derivs[:, q, r] = v
            derivs[:, r, q] = -v
    return values, derivs, xhat


def hatted_preservation_residual(omega: TwoFormField, chart: ChartMap, x,
                                 gamma_hat: ConnectionCoefficients
                                 ) -> PreservationResidual:
    """Lift-preservation residual computed entirely in the hatted chart."""
    values, derivs, _ = hatted_two_form_data(omega, chart, x)
    return PreservationResidual.of(
        preservation_entries(values, derivs, gamma_hat.array))


class MinkowskiResiduals(NamedTuple):
    natural: float
    hatted: float


_MINKOWSKI_PROBE_BASE = (1.0, 0.6, 1.3, 0.8, 1.1, 0.7, 1.4, 0.9)


def default_fiber_probes(n: int) -> list[np.ndarray]:
    base = np.array(_MINKOWSKI_PROBE_BASE[:n])
    return [base, base[::-1].copy() * 0.75, base + 0.5]


def minkowski_preservation_check(m: MetricSpec, omega: TwoFormField,
                                 chart: ChartMap, x,
                                 y_probes: Sequence | None = None,
                                 flatness_tol: float = 1e-8
                                 ) -> MinkowskiResiduals:
    """Preservation conditions for an x-independent metric, both charts.

    natural: max |d_k w_ij| in the natural chart.  hatted: the residual of
    the transformed condition in the hatted chart, built from the chart's
    second derivatives and the hatted components of the form.
    """
    n = m.dimension
    if y_probes is None:
        y_probes = default_fiber_probes(n)
    worst = 0.0
    for y in y_probes:
        sample = finsler_sample(m, x, y)
        worst = max(worst, float(np.max(np.abs(sample.chern))))
    if worst > flatness_tol:
        raise NotMinkowskianError(
            f"connection coefficients reach {worst:.3e} in the natural chart "
            f"(> {flatness_tol:g}); metric is not x-independent here"
        )

    natural = float(np.max(np.abs(omega.derivative_values(x))))

    jac = chart_jacobians(chart, x)
    values, derivs, _ = hatted_two_form_data(omega, chart, x)
    second = np.einsum("lh,hki->lki", jac.fwd, jac.inv2)
    term1 = np.einsum("lki,lj->kij", second, values)
    term2 = np.einsum("lkj,il->kij", second, values)
    hatted = float(np.max(np.abs(term1 + term2 - derivs)))
    return MinkowskiResiduals(natural=natural, hatted=hatted)


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
