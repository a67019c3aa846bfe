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

from . import finsler
from .fedosov import FedosovScenario, _connections, induce_connections
from .finsler import _max_abs_rows, _scale, chern_block
from .jets import fd_oracle, fd_stencil


def induced_derivatives(s: FedosovScenario, xs, ws) -> tuple:
    """Jet-path data (G, dG_dx, dG_dy, dW) of x -> Gtilde(x, W(x)) at each
    row of a (P, n) stack of base points, with W there in ``ws``, a stack
    each.

    G and its chart and fiber derivatives are taken at (x, W(x)), and
    dW[p, q, j] = d W^q / d x^j.
    """
    return chern_block(s.metric, xs, ws) + (s.vector_field.jacobian(xs),)


def curvature_up(G, dG_dx, dG_dy, dW) -> np.ndarray:
    """R^l_ijk at each row of (P, ...) stacks of the induced-connection
    derivative data: ``up[p, l, i, j, k]``."""
    half = (np.einsum("plkij->plijk", dG_dx)
            + np.einsum("plkiq,pqj->plijk", dG_dy, dW)
            + np.einsum("pmki,pljm->plijk", G, G))
    return half - half.swapaxes(3, 4)


def curvature_induced(s: FedosovScenario, x) -> np.ndarray:
    """R^l_ijk of the induced connection via the chain-rule expansion.

    ``up[l, i, j, k]`` follows R(d_j, d_k) d_i = R^l_ijk d_l and is exactly
    antisymmetric in (j, k).
    """
    x = np.asarray([x], dtype=float)  # a stack of one row
    return curvature_up(*induced_derivatives(
        s, x, s.vector_field.values(x)))[0]


def _lowered(w: np.ndarray, up: np.ndarray) -> np.ndarray:
    """R_ijkl = w_in R^n_jkl (first-slot lowering) at each row."""
    return np.einsum("pin,pnjkl->pijkl", w, up)


def curvature_fd_commutator(s: FedosovScenario, x) -> np.ndarray:
    """Finite-difference curvature of the induced-connection field at x:
    :func:`curvature_fd_commutators` on a stack of one base point."""
    return curvature_fd_commutators(s, [x])[0]


def curvature_fd_commutators(s: FedosovScenario, xs) -> np.ndarray:
    """Finite-difference curvature of the induced-connection field at each
    row of a (P, n) stack of base points, ``fd[p, l, i, j, k]``.

    Each base point's stencil is its centre and every axis's
    :func:`fd_stencil` (9 points at n = 2, 17 at n = 4), one call per axis
    over the stack, sampled in runs of whole stencils of at most
    ``finsler._block_pairs(n)`` rows (at least one stencil; 51 rows at
    n = 4, 306 at n = 2), the runner's bound on a block's plan pairs, each
    run one :func:`sample_block` with W on the run.  One :func:`fd_oracle`
    call per axis (central differences, one Richardson step) differentiates
    x -> induce_connection(s, x); one contraction assembles the formula.

    A failing run raises some point's error, and the caller replays the
    stack one base point at a time (:func:`each_row`); a stack of one base
    point goes through :func:`induce_connections`, which raises the first
    failing point's error in stencil order, W's before the sample's.  The
    stencils are this call's own, so the independent path shares no sample
    with the jet-based one.
    """
    n = s.metric.dimension
    xs = np.asarray(xs, dtype=float)
    axes = np.eye(n, dtype=int)
    # stencils[p]: base point p, then each axis's stencil around it
    stencils = np.stack([xs] + [point for axis in axes
                                for point in fd_stencil(xs, axis)], axis=1)
    P, size = stencils.shape[:2]
    per_axis = (size - 1) // n
    per_run = max(1, finsler._block_pairs(n) // size)
    sample = induce_connections if P == 1 else _connections
    Gs = np.concatenate([sample(s, stencils[start:start + per_run]
                                .reshape(-1, n))
                         for start in range(0, P, per_run)])
    Gs = Gs.reshape((P, size) + Gs.shape[1:])
    G0 = Gs[:, 0]
    # dG[p, l, a, b, t] = d G^l_ab / d x^t at base point p, from axis t's
    # run of its stencil
    dG = np.stack([fd_oracle(Gs[:, 1 + t * per_axis:1 + (t + 1) * per_axis]
                             .swapaxes(0, 1), xs, axes[t])
                   for t in range(n)], axis=-1)
    half = (np.einsum("plkij->plijk", dG)
            + np.einsum("pmki,pljm->plijk", G0, G0))
    return half - half.swapaxes(3, 4)


def brace_array(G, dG_dx, dG_dy, dW) -> np.ndarray:
    """B[p, n, j, k, l]: the printed one-brace expression of the curvature
    at each row of the stacks :func:`curvature_up` takes."""
    return (np.einsum("pnljk->pnjkl", dG_dx)
            + np.einsum("pnljq,pqk->pnjkl", dG_dy, dW)
            - dG_dx
            - np.einsum("pnjkq,pql->pnjkl", dG_dy, dW)
            + np.einsum("pqlj,pnkq->pnjkl", G, G)
            - np.einsum("pqjk,pnlq->pnjkl", G, G))


def _cyclic(last3: np.ndarray) -> np.ndarray:
    """Sum over cyclic permutations of the last three axes (labels jkl) at
    each row."""
    return (last3
            + np.einsum("pnklj->pnjkl", last3)
            + np.einsum("pnljk->pnjkl", last3))


class TwoPathResidual(NamedTuple):
    """The same identity evaluated by its printed formula and by assembling
    the curvature output; ``paths_delta`` bounds their disagreement and
    ``scale`` is the term magnitude for relative comparisons."""

    direct: np.ndarray
    assembled: np.ndarray
    paths_delta: np.ndarray
    scale: np.ndarray

    @classmethod
    def stacked(cls, direct: np.ndarray, assembled: np.ndarray,
                lowered: np.ndarray) -> "TwoPathResidual":
        """The residuals at each row of the stacks, a (P,) stack each."""
        return cls(_max_abs_rows(direct), _max_abs_rows(assembled),
                   _max_abs_rows(direct - assembled),
                   _scale(_max_abs_rows(lowered)))


def cyclic_residual(up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uncontracted first-Bianchi residual of each row of a stack of
    curvature arrays, with its comparison scale."""
    return _max_abs_rows(_cyclic(up)), _scale(_max_abs_rows(up))


def contracted_two_path(up, brace, w) -> TwoPathResidual:
    """Cyclic curvature sum contracted with the two-form, both code paths,
    at each row of stacks of the curvature ``up``, the brace array and the
    two-form components w."""
    return TwoPathResidual.stacked(_lowered(w, _cyclic(brace)),
                                   _lowered(w, _cyclic(up)), _lowered(w, up))


def pair_two_path(up, brace, w) -> TwoPathResidual:
    """Symmetry of the lowered curvature in its first index pair, at each
    row of the stacks :func:`contracted_two_path` takes.

    ``assembled`` is max |R_ijkl - R_jikl| from the lowered curvature;
    ``direct`` evaluates the printed two-brace condition.
    """
    direct = _lowered(w, brace) - np.einsum("pjn,pnikl->pijkl", w, brace)
    lowered = _lowered(w, up)
    return TwoPathResidual.stacked(
        direct, lowered - lowered.transpose(0, 2, 1, 3, 4), lowered)
