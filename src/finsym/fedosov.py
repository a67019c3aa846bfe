"""Induced symplectic connections along a vector field, and chart behavior.

The induced connection evaluates the Finsler connection coefficients along a
nowhere-zero vector field, G^k_ij(x) = Gtilde^k_ij(x, W_x).  When the
Finsler connection preserves the lifted two-form, the result is a symmetric
connection preserving it on the base, i.e. a Fedosov structure.

Every connection here is a stack of coefficient arrays G[p, k, i, j] =
G^k_ij at each row p, symmetric in the lower pair.  The residual functions
take such stacks and other stacked point data and give a stack; only
:func:`induce_connections` and the one stack under it, which the
finite-difference curvature differentiates, and :func:`induce_connection`,
the same quantity at one point, sample the metric themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatchError, FinsymError,
                     NotMinkowskianError, row_by_row)
from .fields import ChartJacobians, VectorFieldSpec
from .finsler import (MetricSpec, _max_abs_rows, _max_of, _mirror,
                      finsler_sample, sample_block)
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


def _connections(s: FedosovScenario, xs: np.ndarray) -> np.ndarray:
    return sample_block(s.metric, xs, s.vector_field.values(xs)).chern


def induce_connections(s: FedosovScenario, xs: np.ndarray) -> np.ndarray:
    """The connection coefficients at each row of a ``(P, n)`` stack, from W
    on the whole stack and one :func:`sample_block`.  Raises the first
    failing row's error, W's before the sample's: a stack that fails is
    replayed as one-row stacks, up to that row."""
    try:
        return _connections(s, xs)
    except FinsymError:
        if len(xs) == 1:
            raise
    return row_by_row(lambda rows: _connections(s, rows), xs)


def covariant_residual(G: np.ndarray, w: np.ndarray,
                       dw: np.ndarray) -> np.ndarray:
    """max |d_k w_ij - (G^l_ki w_lj + G^l_kj w_il)| from the coefficients
    G[p, l, k, i], the form w and its partials dw[p, k, i, j] at each row
    of the stacks."""
    covariant = (np.einsum("plki,plj->pkij", G, w)
                 + np.einsum("plkj,pil->pkij", G, w))
    return _max_abs_rows(dw - covariant)


def darboux_relations_residual(G: np.ndarray, n: int) -> np.ndarray:
    """Worst violation of the four standard-form coefficient relations at
    each row of a stack.

    For a symmetric connection G[p, k, i, j] preserving sum dx^i wedge
    dx^{n+i} on a 2n-chart, all four families vanish for every k.
    """
    if G.shape[1] != 2 * n:
        raise DimensionMismatchError(
            f"connection dimension {G.shape[1]} != 2n = {2 * n}"
        )
    A, B = G[:, n:, :, :n], G[:, :n, :, n:]
    C, D = G[:, n:, :, n:], G[:, :n, :, :n]
    return _max_of(_max_abs_rows(A - A.transpose(0, 3, 2, 1)),
                   _max_abs_rows(C + D.transpose(0, 3, 2, 1)),
                   _max_abs_rows(D + C.transpose(0, 3, 2, 1)),
                   _max_abs_rows(B - B.transpose(0, 3, 2, 1)))


def transform_connection(G: np.ndarray, jac: ChartJacobians) -> np.ndarray:
    """Coefficients in the hatted chart at jac.xhat, from the chart
    derivatives ``jac`` at the points where ``G`` is given, at each row of
    the stacks.

    Ghat^p_qr = d_i xhat^p * dhat_q dhat_r x^i
              + d_i xhat^p * G^i_jk * dhat_q x^j * dhat_r x^k
    """
    m = jac.fwd.shape[1]
    if G.shape[1] != m:
        raise DimensionMismatchError(
            f"connection dimension {G.shape[1]} != chart dimension {m}")
    inhom = np.einsum("zpi,ziqr->zpqr", jac.fwd, jac.inv2)
    tensorial = np.einsum("zpi,zijk,zjq,zkr->zpqr", jac.fwd, G, jac.inv,
                          jac.inv)
    return _mirror(inhom + tensorial, 2)


def hatted_two_form_data(w: np.ndarray, dw: np.ndarray,
                         jac: ChartJacobians) -> tuple[np.ndarray, np.ndarray]:
    """Pull a two-form back through the inverse chart map, at each row of
    the stacks.

    ``w[p, i, j]`` and ``dw[p, l, i, j]`` are the form and its partials at
    jac.x.  Returns (values, derivs): values[p, q, r] the component in the
    hatted chart at jac.xhat and derivs[p, k, q, r] its hatted partial.
    With J = dhat x and H = dhat^2 x, values = J^T w J and derivs follow
    from the chain rule as contractions; both are made exactly skew from
    their strict upper triangles.
    """
    m = jac.inv.shape[1]
    if w.shape[1:] != (m, m):
        raise DimensionMismatchError(
            f"form dimension {w.shape[1]} != chart dimension {m}")
    J, H = jac.inv, jac.inv2
    values = np.einsum("pij,piq,pjr->pqr", w, J, J)
    derivs = (np.einsum("plij,plk,piq,pjr->pkqr", dw, J, J, J)
              + np.einsum("pij,pikq,pjr->pkqr", w, H, J)
              + np.einsum("pij,piq,pjkr->pkqr", w, J, H))
    return _skew(values), _skew(derivs)


def _skew(a: np.ndarray) -> np.ndarray:
    upper = np.triu(a, 1)
    return upper - np.swapaxes(upper, -1, -2)


class MinkowskiResiduals(NamedTuple):
    natural: np.ndarray
    hatted: np.ndarray


_MINKOWSKI_PROBE_BASE = (1.0, 0.6, 1.3, 0.8, 1.1, 0.7, 1.4, 0.9)
_FLATNESS_TOL = 1e-8


def minkowski_probes(n: int) -> tuple[np.ndarray, ...]:
    """The three fixed fiber points at which :func:`require_minkowskian`
    reads the connection."""
    base = np.array(_MINKOWSKI_PROBE_BASE[:n])
    return base, base[::-1] * 0.75, base + 0.5


def require_minkowskian(probes: np.ndarray) -> np.ndarray:
    """The largest |coefficient| over the connection arrays probes[p, a]
    at x on the :func:`minkowski_probes`, at each row of a stack; raises
    NotMinkowskianError unless they vanish, as they do for an
    x-independent metric."""
    worst = _max_of(np.zeros(len(probes)), *np.abs(probes).reshape(
        probes.shape[:2] + (-1,)).max(axis=2).T)
    if (worst > _FLATNESS_TOL).any():
        raise NotMinkowskianError(
            f"connection coefficients reach {worst.max():.3e} in the natural "
            f"chart (> {_FLATNESS_TOL:g}); metric is not x-independent here"
        )
    return worst


def minkowski_preservation_check(dw: np.ndarray, jac: ChartJacobians,
                                 hatted: tuple[np.ndarray, np.ndarray]
                                 ) -> MinkowskiResiduals:
    """Preservation conditions of an x-independent metric (see
    :func:`require_minkowskian`) in both charts, at each row of the
    stacks.

    natural: max |d_k w_ij| in the natural chart, from the form's partials
    ``dw`` at jac.x.  hatted: the residual of the transformed condition in
    the hatted chart, built from the chart's second derivatives and the
    :func:`hatted_two_form_data` of the form.
    """
    values, derivs = hatted
    second = np.einsum("plh,phki->plki", jac.fwd, jac.inv2)
    term1 = np.einsum("plki,plj->pkij", second, values)
    term2 = np.einsum("plkj,pil->pkij", second, values)
    return MinkowskiResiduals(natural=_max_abs_rows(dw),
                              hatted=_max_abs_rows(term1 + term2 - derivs))
