"""Induced symplectic connections along a vector field, and chart behavior.

The induced connection evaluates the Finsler connection coefficients along a
nowhere-zero vector field, G^k_ij(x) = Gtilde^k_ij(x, W_x).  When the
Finsler connection preserves the lifted two-form, the result is a symmetric
connection preserving it on the base, i.e. a Fedosov structure.

Every connection here is a plain coefficient array G[k, i, j] = G^k_ij,
symmetric in the lower pair.  The residual functions take such arrays and
other point data; only :func:`induce_connections`, which the
finite-difference curvature differentiates, and :func:`induce_connection`,
the same quantity at one point, sample the metric themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (DimensionMismatchError, FinsymError,
                     NotMinkowskianError, each_row)
from .fields import ChartJacobians, VectorFieldSpec
from .finsler import MetricSpec, _mirror, finsler_sample, sample_block
from .symplectic import TwoForm


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


def induce_connection(s: FedosovScenario, x) -> np.ndarray:
    """Connection coefficients G[k, i, j] at x along the scenario's vector
    field: the sample at (x, W(x)), x taken as a stack of one row."""
    x = np.asarray([x], dtype=float)
    return finsler_sample(s.metric, x[0], s.vector_field.values(x)[0]).chern


def _connections(s: FedosovScenario, xs: np.ndarray) -> list:
    return [sample.chern for sample in
            sample_block(s.metric, xs, s.vector_field.values(xs))]


def induce_connections(s: FedosovScenario, xs: np.ndarray) -> list:
    """The connection coefficients at each row of a ``(P, n)`` stack, from W
    on the whole stack and one :func:`sample_block`.  Raises the first
    failing row's error, W's before the sample's: a stack that fails is
    replayed as one-row stacks (:func:`each_row`), up to that row."""
    out = []
    for G in each_row(partial(_connections, s), xs):
        if isinstance(G, FinsymError):
            raise G
        out.append(G)
    return out


def covariant_residual(G: np.ndarray, w: np.ndarray, dw: np.ndarray) -> float:
    """max |d_k w_ij - (G^l_ki w_lj + G^l_kj w_il)| from the coefficients
    G[l, k, i], the form w and its partials dw[k, i, j] at one point."""
    covariant = np.einsum("lki,lj->kij", G, w) + np.einsum("lkj,il->kij", G, w)
    return float(np.max(np.abs(dw - covariant)))


def darboux_relations_residual(G: np.ndarray, n: int) -> float:
    """Worst violation of the four standard-form coefficient relations.

    For a symmetric connection G[k, i, j] preserving sum dx^i wedge dx^{n+i}
    on a 2n-chart, all four families vanish for every k.
    """
    if G.shape[0] != 2 * n:
        raise DimensionMismatchError(
            f"connection dimension {G.shape[0]} != 2n = {2 * n}"
        )
    A, B = G[n:, :, :n], G[:n, :, n:]
    C, D = G[n:, :, n:], G[:n, :, :n]
    return max(_max_abs(A - A.transpose(2, 1, 0)),
               _max_abs(C + D.transpose(2, 1, 0)),
               _max_abs(D + C.transpose(2, 1, 0)),
               _max_abs(B - B.transpose(2, 1, 0)))


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def transform_connection(G: np.ndarray, jac: ChartJacobians) -> np.ndarray:
    """Coefficients in the hatted chart at jac.xhat, from the chart
    derivatives ``jac`` at the point where ``G`` is given.

    Ghat^p_qr = d_i xhat^p * dhat_q dhat_r x^i
              + d_i xhat^p * G^i_jk * dhat_q x^j * dhat_r x^k
    """
    m = jac.fwd.shape[0]
    if G.shape[0] != m:
        raise DimensionMismatchError(
            f"connection dimension {G.shape[0]} != chart dimension {m}")
    inhom = np.einsum("pi,iqr->pqr", jac.fwd, jac.inv2)
    tensorial = np.einsum("pi,ijk,jq,kr->pqr", jac.fwd, G, jac.inv, jac.inv)
    return _mirror(inhom + tensorial)


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


def minkowski_probes(n: int) -> tuple[np.ndarray, ...]:
    """The three fixed fiber points at which :func:`require_minkowskian`
    reads the connection."""
    base = np.array(_MINKOWSKI_PROBE_BASE[:n])
    return base, base[::-1] * 0.75, base + 0.5


def require_minkowskian(probes: Sequence[np.ndarray]) -> None:
    """Raise NotMinkowskianError unless the connection arrays at x on the
    :func:`minkowski_probes` vanish, as they do for an x-independent
    metric."""
    worst = 0.0
    for G in probes:
        worst = max(worst, _max_abs(G))
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
