"""Curvature of the induced connection and its identity residuals.

The curvature comes from the chain-rule expansion of the commutator formula
for x -> Gtilde(x, W(x)): chart derivatives of the coefficients at fixed
fiber point, plus fiber derivatives contracted with the Jacobian of W, plus
the quadratic terms.  An independent finite-difference path over the induced
connection field cross-checks the expansion.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fedosov import FedosovScenario, _connections, induce_connections
from .finsler import chern_block
from .jets import fd_oracle, fd_stencil


def induced_derivatives(s: FedosovScenario, xs, ws) -> list:
    """Jet-path data (G, dG_dx, dG_dy, dW) of x -> Gtilde(x, W(x)) at each
    row of a (P, n) stack of base points, with W there in ``ws``.

    G and its chart and fiber derivatives are taken at (x, W(x)), and
    dW[p, j] = d W^p / d x^j.
    """
    return [chern + (dW,) for chern, dW in zip(
        chern_block(s.metric, xs, ws), s.vector_field.jacobian(xs))]


def curvature_up(G, dG_dx, dG_dy, dW) -> np.ndarray:
    """R^l_ijk from the induced-connection derivative data."""
    half = (np.einsum("lkij->lijk", dG_dx)
            + np.einsum("lkip,pj->lijk", dG_dy, dW)
            + np.einsum("mki,ljm->lijk", G, G))
    return half - half.swapaxes(2, 3)


def curvature_induced(s: FedosovScenario, x) -> np.ndarray:
    """R^l_ijk of the induced connection via the chain-rule expansion.

    ``up[l, i, j, k]`` follows R(d_j, d_k) d_i = R^l_ijk d_l and is exactly
    antisymmetric in (j, k).
    """
    x = np.asarray([x], dtype=float)  # a stack of one row
    (derivatives,) = induced_derivatives(s, x, s.vector_field.values(x))
    return curvature_up(*derivatives)


def _lowered(w: np.ndarray, up: np.ndarray) -> np.ndarray:
    """R_ijkl = w_in R^n_jkl (first-slot lowering)."""
    return np.einsum("in,njkl->ijkl", w, up)


def curvature_fd_commutator(s: FedosovScenario, x) -> np.ndarray:
    """Finite-difference curvature of the induced-connection field at x:
    :func:`curvature_fd_commutators` on a stack of one base point."""
    return curvature_fd_commutators(s, [x])[0]


def curvature_fd_commutators(s: FedosovScenario, xs,
                             max_rows: int = 1) -> list:
    """Finite-difference curvature of the induced-connection field at each
    row of a (P, n) stack of base points.

    Each base point's stencil is its centre and every axis's
    :func:`fd_stencil` (9 points at n = 2, 17 at n = 4).  The stencils
    are stacked and sampled in runs of whole stencils, at most
    ``max_rows`` rows a run and at least one stencil, each run one
    :func:`sample_block` with W on the run.  The first derivatives of
    x -> induce_connection(s, x) come from :func:`fd_oracle` (central
    differences, one Richardson step), one coefficient array per axis,
    assembled into the commutator formula at each base point.

    A run that fails raises some point's error; the caller replays the
    stack one base point at a time (:func:`each_row`).  A stack of one
    base point goes through :func:`induce_connections` instead, which
    raises the first failing point's error in stencil order, W's before
    the sample's.  The stencils are this call's own: independent of the
    jet-based chain-rule path, they share no sample with the checks'
    other readers.
    """
    n = s.metric.dimension
    xs = np.asarray(xs, dtype=float)
    if not len(xs):
        return []
    axes = np.eye(n, dtype=int)
    stencils = [np.array([x] + [p for axis in axes
                                for p in fd_stencil(x, axis)]) for x in xs]
    size = len(stencils[0])
    per_axis, per_run = (size - 1) // n, max(1, max_rows // size)
    sample = induce_connections if len(xs) == 1 else _connections
    Gs = [G for start in range(0, len(xs), per_run)
          for G in sample(s, np.concatenate(stencils[start:start + per_run]))]
    out = []
    for p, x in enumerate(xs):
        G0, *axis_Gs = Gs[p * size:(p + 1) * size]
        # dG[l, a, b, t] = d G^l_ab / d x^t, from axis t's run of the stencil
        dG = np.stack([fd_oracle(axis_Gs[t * per_axis:(t + 1) * per_axis],
                                 x, axes[t]) for t in range(n)], axis=-1)
        half = (np.einsum("lkij->lijk", dG)
                + np.einsum("mki,ljm->lijk", G0, G0))
        out.append(half - half.swapaxes(2, 3))
    return out


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


def cyclic_residual(up: np.ndarray) -> tuple[float, float]:
    """Uncontracted first-Bianchi residual of a curvature array and its
    comparison scale."""
    scale = max(1.0, float(np.max(np.abs(up))))
    return float(np.max(np.abs(_cyclic(up)))), scale


def contracted_two_path(up, brace, w) -> TwoPathResidual:
    """Cyclic curvature sum contracted with the two-form, both code paths,
    from the curvature ``up``, the brace array and the two-form components
    w at the point."""
    return TwoPathResidual.of(_lowered(w, _cyclic(brace)),
                              _lowered(w, _cyclic(up)), _lowered(w, up))


def pair_two_path(up, brace, w) -> TwoPathResidual:
    """Symmetry of the lowered curvature in its first index pair, from the
    same data as :func:`contracted_two_path`.

    ``assembled`` is max |R_ijkl - R_jikl| from the lowered curvature;
    ``direct`` evaluates the printed two-brace condition.
    """
    direct = _lowered(w, brace) - np.einsum("jn,nikl->ijkl", w, brace)
    lowered = _lowered(w, up)
    return TwoPathResidual.of(direct, lowered - lowered.transpose(1, 0, 2, 3),
                              lowered)
