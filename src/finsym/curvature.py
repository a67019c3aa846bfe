"""Curvature of the induced connection and its identity residuals.

The curvature comes from the chain-rule expansion of the commutator formula
for x -> Gtilde(x, W(x)): chart derivatives of the coefficients at fixed
fiber point, plus fiber derivatives contracted with the Jacobian of W, plus
the quadratic terms.  An independent finite-difference path over the induced
connection field cross-checks the expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .fedosov import FedosovScenario, induce_connection
from .finsler import chern_with_derivatives
from .jets import fd_base_step
from .symplectic import TwoForm


@dataclass(frozen=True, eq=False)
class CurvatureAtPoint:
    """Curvature array at one chart point.

    ``up[l, i, j, k]`` follows R(d_j, d_k) d_i = R^l_ijk d_l and is exactly
    antisymmetric in (j, k).
    """

    dimension: int
    up: np.ndarray


def induced_derivatives(s: FedosovScenario, x, w) -> tuple:
    """Jet-path data (G, dG_dx, dG_dy, dW) of x -> Gtilde(x, W(x)) at x.

    ``w`` is W(x); G and its chart and fiber derivatives are taken at
    (x, w), and dW[p, j] = d W^p / d x^j.
    """
    G, dG_dx, dG_dy = chern_with_derivatives(s.metric, x, w)
    return G, dG_dx, dG_dy, s.vector_field.jacobian(x)


def _derivative_data(s: FedosovScenario, x) -> tuple:
    return induced_derivatives(s, x, s.vector_field.values(x))


def curvature_up(G, dG_dx, dG_dy, dW) -> np.ndarray:
    """R^l_ijk from the induced-connection derivative data."""
    half = (np.einsum("lkij->lijk", dG_dx)
            + np.einsum("lkip,pj->lijk", dG_dy, dW)
            + np.einsum("mki,ljm->lijk", G, G))
    return half - half.swapaxes(2, 3)


def curvature_induced(s: FedosovScenario, x) -> CurvatureAtPoint:
    """R^l_ijk of the induced connection via the chain-rule expansion."""
    return CurvatureAtPoint(dimension=s.metric.dimension,
                            up=curvature_up(*_derivative_data(s, x)))


def _lowered(w: np.ndarray, up: np.ndarray) -> np.ndarray:
    return np.einsum("in,njkl->ijkl", w, up)


def lower_curvature(c: CurvatureAtPoint, omega: TwoForm, x) -> np.ndarray:
    """R_ijkl = w_in(x) R^n_jkl (first-slot lowering)."""
    if omega.dimension != c.dimension:
        raise DimensionMismatchError(
            f"form dimension {omega.dimension} != curvature dimension "
            f"{c.dimension}"
        )
    return _lowered(omega.values(x), c.up)


def curvature_fd_commutator(s: FedosovScenario, x,
                            base_step: float | None = None) -> np.ndarray:
    """Finite-difference curvature of the induced-connection field.

    Central differences with one Richardson step applied directly to
    x -> induce_connection(s, x), assembled into the commutator formula.
    Independent of the jet-based chain-rule path.
    """
    n = s.metric.dimension
    x = np.asarray(x, dtype=float)
    if base_step is None:
        base_step = fd_base_step(1)

    def coeffs(pt: np.ndarray) -> np.ndarray:
        return induce_connection(s, pt).array

    G0 = coeffs(x)
    dG = np.empty((n, n, n, n))  # [l, a, b, t] = d G^l_ab / d x^t
    for t in range(n):
        h = base_step * max(1.0, abs(x[t]))
        e = np.zeros(n)
        e[t] = 1.0
        coarse = (coeffs(x + h * e) - coeffs(x - h * e)) / (2.0 * h)
        fine = (coeffs(x + 0.5 * h * e) - coeffs(x - 0.5 * h * e)) / h
        dG[:, :, :, t] = (4.0 * fine - coarse) / 3.0

    half = np.einsum("lkij->lijk", dG) + np.einsum("mki,ljm->lijk", G0, G0)
    return half - half.swapaxes(2, 3)


def brace_array(G, dG_dx, dG_dy, dW) -> np.ndarray:
    """B[n, j, k, l]: the printed one-brace expression of the curvature."""
    return (np.einsum("nljk->njkl", dG_dx)
            + np.einsum("nljp,pk->njkl", dG_dy, dW)
            - dG_dx
            - np.einsum("njkp,pl->njkl", dG_dy, dW)
            + np.einsum("plj,nkp->njkl", G, G)
            - np.einsum("pjk,nlp->njkl", G, G))


def _cyclic(last3: np.ndarray) -> np.ndarray:
    """Sum over cyclic permutations of the last three axes (labels jkl)."""
    return (last3
            + np.einsum("nklj->njkl", last3)
            + np.einsum("nljk->njkl", last3))


class TwoPathResidual(NamedTuple):
    """The same identity evaluated by its printed formula and by assembling
    the curvature output; ``paths_delta`` bounds their disagreement and
    ``scale`` is the term magnitude for relative comparisons."""

    direct: float
    assembled: float
    paths_delta: float
    scale: float

    @classmethod
    def of(cls, direct: np.ndarray, assembled: np.ndarray,
           lowered: np.ndarray) -> "TwoPathResidual":
        return cls(
            direct=float(np.max(np.abs(direct))),
            assembled=float(np.max(np.abs(assembled))),
            paths_delta=float(np.max(np.abs(direct - assembled))),
            scale=max(1.0, float(np.max(np.abs(lowered)))),
        )


def bianchi_cyclic_residual(s: FedosovScenario, x) -> tuple[float, float]:
    """Uncontracted first-Bianchi residual and its comparison scale."""
    return cyclic_residual(curvature_induced(s, x).up)


def cyclic_residual(up: np.ndarray) -> tuple[float, float]:
    """:func:`bianchi_cyclic_residual` of a curvature array."""
    scale = max(1.0, float(np.max(np.abs(up))))
    return float(np.max(np.abs(_cyclic(up)))), scale


def _with_two_form(s: FedosovScenario, x, what: str) -> tuple:
    if s.two_form is None:
        raise DimensionMismatchError(f"scenario carries no two-form to {what}")
    data = _derivative_data(s, x)
    return curvature_up(*data), brace_array(*data), s.two_form.values(x)


def bianchi_contracted_residual(s: FedosovScenario, x) -> TwoPathResidual:
    """Cyclic curvature sum contracted with the two-form, both code paths."""
    return contracted_two_path(*_with_two_form(s, x, "contract"))


def contracted_two_path(up, brace, w) -> TwoPathResidual:
    """:func:`bianchi_contracted_residual` from the curvature ``up``, the
    brace array and the two-form components w at the point."""
    return TwoPathResidual.of(_lowered(w, _cyclic(brace)),
                              _lowered(w, _cyclic(up)), _lowered(w, up))


def pair_symmetry_residual(s: FedosovScenario, x) -> TwoPathResidual:
    """Symmetry of the lowered curvature in its first index pair.

    ``assembled`` is max |R_ijkl - R_jikl| from the lowered curvature;
    ``direct`` evaluates the printed two-brace condition.
    """
    return pair_two_path(*_with_two_form(s, x, "lower with"))


def pair_two_path(up, brace, w) -> TwoPathResidual:
    """:func:`pair_symmetry_residual` from the same data as
    :func:`contracted_two_path`."""
    direct = _lowered(w, brace) - np.einsum("jn,nikl->ijkl", w, brace)
    lowered = _lowered(w, up)
    return TwoPathResidual.of(direct, lowered - lowered.transpose(1, 0, 2, 3),
                              lowered)
