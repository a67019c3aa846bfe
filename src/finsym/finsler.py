"""Finsler fundamental quantities and connection coefficients at points.

Everything is driven by one jet of the energy Phi(x, y) = F^2/2 over the 2n
chart-plus-fiber variables: g is its fiber Hessian and C = (1/2) dg/dy.  The
connection assembly is written once, as numpy products over arrays with a
leading batch axis, one entry per point, and a trailing tangent axis
(forward-mode dual numbers).  A tangent axis of length 1 gives the values
(:func:`sample_block`), one of length 1 + 2n the values plus their first
derivatives in (x, y) (:func:`chern_block`), each from one jet with a column
per point, and gives stacks, arrays with a row per point.  A single point is
a block of one row: :func:`finsler_sample`.  F cancels from the assembly
and enters only the reported Cartan tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    NonPositiveError,
    NotPositiveDefiniteError,
    NotRandersError,
    each_row,
)
from .fields import DomainBox, ScalarFieldSpec
from .jets import Jet
from .records import CheckRecord

DEFAULT_Y_MIN = 1e-6
DEFAULT_TOL_PD = 1e-10


# The runner's blocks hold at most _block_pairs(n) plan pairs, in whole base
# points, and each run of the FD commutator's stencils at most as many rows:
# the pairs whose order-3 energy jets hold at most _BLOCK_COEFFICIENTS
# coefficients, summed (1,075, 307, 128 and 65 at n = 1 to 4).  A wide block
# spreads the fixed cost of each call over its rows: a warm round of the five
# shipped configs took 335-373 ms at 64 pairs and 171-188 ms at 307 on 2 vCPUs.
# The peak RSS grows with the width: 45.2 MB at 64 pairs and 69.0 MB in one
# block on a 3-d Randers plan of 1,600 pairs, and about 7 MB more at n = 4 with
# 64 base points in a block than with 32.
_BLOCK_COEFFICIENTS = 10_752


def _block_pairs(n: int) -> int:
    """The most plan pairs a block of an n-dimensional scenario holds, and
    the most rows of one run of the FD commutator's stencils."""
    return max(1, _BLOCK_COEFFICIENTS // math.comb(2 * n + 3, 3))


def _xy_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))


# postfix instructions (see :mod:`fields`) spliced around the entries' programs
_ADD, _MUL, _SQRT, _SQUARE = ("+", None), ("*", None), ("sqrt", None), ("^", 2.0)


def _sum_programs(programs) -> tuple:
    """The program of the left-associated sum of the given programs."""
    out = programs[0]
    for program in programs[1:]:
        out += program + (_ADD,)
    return out


def _half(program: tuple) -> tuple:
    return (("num", 0.5),) + program + (_MUL,)


@dataclass(frozen=True, eq=False)
class MetricSpec:
    """Declarative description of a Finsler metric on an n-dimensional chart.

    Families: ``riemannian`` (matrix g_ij(x)), ``randers`` (riemannian alpha
    matrix plus covector b_i(x), F = alpha + b_i y^i), ``custom`` (one scalar
    field F(x, y)).  ``F_field`` and ``phi_field`` are derived expressions
    over the joint variables x1..xn, y1..yn.  ``tol_pd`` is the floor every
    leading principal minor of the fundamental tensor must exceed.
    """

    family: str
    dimension: int
    domain: DomainBox
    F_field: ScalarFieldSpec
    phi_field: ScalarFieldSpec
    y_min: float = DEFAULT_Y_MIN
    g_entries: tuple | None = None
    b_fields: tuple | None = None
    tol_pd: float = DEFAULT_TOL_PD

    @staticmethod
    def _as_spec(entry, variables) -> ScalarFieldSpec:
        if isinstance(entry, ScalarFieldSpec):
            return entry
        return ScalarFieldSpec.parse(str(entry), variables)

    @classmethod
    def _symmetric(cls, entries, name: str) -> tuple:
        """The matrix of field specs; ValueError unless it is symmetric."""
        n = len(entries)
        xvars = tuple(f"x{i + 1}" for i in range(n))
        a = tuple(tuple(cls._as_spec(entries[i][j], xvars) for j in range(n))
                  for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if a[i][j].program != a[j][i].program:
                    raise ValueError(
                        f"{name} matrix not symmetric at ({i},{j})")
        return a

    @classmethod
    def riemannian(cls, entries, domain: DomainBox,
                   y_min: float = DEFAULT_Y_MIN) -> "MetricSpec":
        n = len(entries)
        g = cls._symmetric(entries, "metric")
        quad = _quadratic_form(g, n)
        allvars = _xy_vars(n)
        F = ScalarFieldSpec(allvars, quad + (_SQRT,))
        phi = ScalarFieldSpec(allvars, _half(quad))
        return cls("riemannian", n, domain, F, phi, y_min, g_entries=g)

    @classmethod
    def randers(cls, alpha_entries, b_components, domain: DomainBox,
                y_min: float = DEFAULT_Y_MIN) -> "MetricSpec":
        n = len(alpha_entries)
        a = cls._symmetric(alpha_entries, "alpha")
        b = tuple(cls._as_spec(c, tuple(f"x{i + 1}" for i in range(n)))
                  for c in b_components)
        if len(b) != n:
            raise ValueError("covector component count must match dimension")
        beta = _sum_programs([b[i].program + (("var", n + i), _MUL)
                              for i in range(n)])
        F_program = _quadratic_form(a, n) + (_SQRT,) + beta + (_ADD,)
        allvars = _xy_vars(n)
        F = ScalarFieldSpec(allvars, F_program)
        phi = ScalarFieldSpec(allvars, _half(F_program + (_SQUARE,)))
        return cls("randers", n, domain, F, phi, y_min, g_entries=a, b_fields=b)

    @classmethod
    def custom(cls, F, dimension: int, domain: DomainBox,
               y_min: float = DEFAULT_Y_MIN) -> "MetricSpec":
        allvars = _xy_vars(dimension)
        F_spec = cls._as_spec(F, allvars)
        phi = ScalarFieldSpec(allvars, _half(F_spec.program + (_SQUARE,)))
        return cls("custom", dimension, domain, F_spec, phi, y_min)


def _quadratic_form(entries, n: int) -> tuple:
    """The program of sum_ij a_ij * (y_i * y_j), summed left to right."""
    return _sum_programs([
        entries[i][j].program + (("var", n + i), ("var", n + j), _MUL, _MUL)
        for i in range(n) for j in range(n)])


def _require_points(m: MetricSpec, xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Two (P, n) stacks as float arrays, checked as stacks: a DomainError
    for the first failing pair, its x before its y."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not len(xs):
        return xs, ys
    if xs.shape[1:] != (m.dimension,) or ys.shape[1:] != (m.dimension,):
        raise DomainError(f"point shapes {xs.shape[1:]}/{ys.shape[1:]} do "
                          f"not match dimension {m.dimension}")
    bad_x = ~m.domain.contains_rows(xs)
    # scaled, so a large y cannot overflow
    norms = [math.hypot(*y) for y in ys.tolist()]
    bad = bad_x | (np.array(norms) < m.y_min)
    if bad.any():
        p = int(np.argmax(bad))
        if bad_x[p]:
            m.domain.require(xs[p], "base point")
        raise DomainError(
            f"fiber point norm {norms[p]:.3e} below slit floor {m.y_min}")
    return xs, ys


# -- connection assembly ---------------------------------------------------------
#
# Every array below carries a leading batch axis z, one entry per point,
# and a trailing tangent axis: slot 0 holds the value and slots 1.. the
# first derivatives in the 2n variables (x, y).  The value path uses a
# tangent axis of length 1 and does no tangent work.


def _value(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a[..., 0])


def _mul(spec: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum(spec)`` of two such arrays, by the product rule."""
    a0, b0 = _value(a), _value(b)
    value = np.einsum(spec, a0, b0)[..., None]
    if a.shape[-1] == 1:
        return value
    inputs, out = spec.split("->")
    sa, sb = inputs.split(",")
    tangent = (np.einsum(f"{sa}...,{sb}->{out}...", a[..., 1:], b0)
               + np.einsum(f"{sa},{sb}...->{out}...", a0, b[..., 1:]))
    return np.concatenate([value, tangent], axis=-1)


def _inverse(g: np.ndarray) -> np.ndarray:
    """Matrix inverse, with d(g^-1) = -g^-1 (dg) g^-1 in the tangent slots."""
    try:
        inv = np.linalg.inv(_value(g))
    except np.linalg.LinAlgError:
        raise DomainError("singular fundamental tensor") from None
    if g.shape[-1] == 1:
        return inv[..., None]
    tangent = -np.einsum("zis,zsra,zrj->zija", inv, g[..., 1:], inv)
    return np.concatenate([inv[..., None], tangent], axis=-1)


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def _mirror(a: np.ndarray, axis: int = 1) -> np.ndarray:
    """Copy the upper triangle of the lower index pair, axes ``axis`` and
    ``axis + 1``, onto the lower one, so the pair symmetry is exact."""
    i, j = _strict_upper(a.shape[axis])
    lead = (slice(None),) * axis
    a[lead + (j, i)] = a[lead + (i, j)]
    return a


def _permute(a: np.ndarray, *axes: int) -> np.ndarray:
    """``a.transpose(axes)`` on the four axes after the batch axis."""
    return a.transpose(0, *[k + 1 for k in axes])


def _metric_data(phi: Jet, n: int) -> tuple:
    """g_ij, dg_ij/dx^t as [t, i, j] and dg_ij/dy^k as [k, i, j] at each
    column of the jet of the energy, with a tangent axis of length 1 + 2n
    from an order-4 jet and of length 1 from an order-3 one.  Each is
    C-contiguous: einsum sums the slices of a 64-row block of strided
    order-4 data in another order than a lone row's."""
    fiber = slice(n, 2 * n)
    g = phi.derivatives(2)[:, fiber, fiber, None]
    d3 = phi.derivatives(3)[:, :, fiber, fiber]         # [p, a, i, j]
    dg = d3[..., None]
    if phi.order == 4:
        g = np.concatenate([g, d3.transpose(0, 2, 3, 1)], axis=-1)
        dg = np.concatenate([dg, phi.derivatives(4)[:, :, fiber, fiber]],
                            axis=-1)
    return tuple(np.ascontiguousarray(a) for a in (g, dg[:, :n], dg[:, n:]))


def _connection(g, dg_dx, dg_dy, y) -> tuple:
    """(g^-1, C, gamma, N, chern) from the metric data and the fiber point.

    C_ijk = (1/2) dg_ij/dy^k, gamma^i_jk the formal Christoffel symbols,
    N^i_j = gamma^i_jk y^k - C^i_jk gamma^k_rs y^r y^s the nonlinear
    connection and chern^l_jk = gamma^l_jk - g^li (C_ijs N^s_k
    - C_jks N^s_i + C_kis N^s_j); F cancels from all of them.
    """
    g_inv = _inverse(g)
    gamma = _mirror(0.5 * _mul(
        "zis,zsjk->zijk", g_inv,
        _permute(dg_dx, 1, 2, 0, 3) + _permute(dg_dx, 1, 0, 2, 3) - dg_dx),
        2)
    C = 0.5 * _permute(dg_dy, 1, 2, 0, 3)
    spray = _mul("zkr,zr->zk", _mul("zkrs,zs->zkr", gamma, y), y)
    N = (_mul("zijk,zk->zij", gamma, y)
         - _mul("zijk,zk->zij", _mul("zil,zljk->zijk", g_inv, C), spray))
    M = _mul("zijs,zsk->zijk", C, N)
    chern = _mirror(gamma - _mul(
        "zli,zijk->zljk", g_inv,
        M - _permute(M, 2, 0, 1, 3) + _permute(M, 1, 2, 0, 3)), 2)
    return g_inv, C, gamma, N, chern


# -- point samples -------------------------------------------------------------


class FinslerSample(NamedTuple):
    """All fundamental quantities of a metric at a stack of points (x, y),
    or at one point (:func:`finsler_sample`), where F is a float."""

    x: np.ndarray
    y: np.ndarray
    F: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    A: np.ndarray
    gamma: np.ndarray
    N: np.ndarray
    chern: np.ndarray
    dg_dx: np.ndarray  # (t, i, j); kept for the structural residual


def _check_pd(g: np.ndarray, tol_pd: float) -> None:
    """Every leading principal minor of each g must exceed ``tol_pd``."""
    n = g.shape[-1]
    for k in range(1, n + 1):
        with np.errstate(over="ignore"):  # an overflowing minor is ±inf
            minor = np.linalg.det(g[:, :k, :k]).min()
        if not minor > tol_pd:
            raise NotPositiveDefiniteError(
                f"leading principal minor {k} is {minor:.3e} (<= {tol_pd:g})"
            )


def _positive(F: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """F at each pair; NonPositiveError at the first where it is not > 0."""
    if not (F > 0.0).all():
        p = int(np.argmin(F > 0.0))
        raise NonPositiveError(f"F = {F[p]:.3e} <= 0 at x={xs[p].tolist()}, "
                               f"y={ys[p].tolist()}")
    return F


def _assembly(m: MetricSpec, xs, ys, order: int, y: np.ndarray) -> tuple:
    """(g, dg_dx, g_inv, C, gamma, N, chern) at each pair of checked
    stacks, from one order-``order`` jet of the energy with a column per
    pair and the fiber points as ``y``; non-finite results are the
    caller's to raise."""
    phi = m.phi_field.eval_jet(np.concatenate([xs, ys], axis=1), order)
    g, dg_dx, dg_dy = _metric_data(phi, m.dimension)
    _check_pd(_value(g), m.tol_pd)
    with np.errstate(all="ignore"):
        return (g, dg_dx) + _connection(g, dg_dx, dg_dy, y)


def finsler_sample(m: MetricSpec, x, y) -> FinslerSample:
    """The fundamental quantities at (x, y): the row of
    :func:`sample_block` on a block of one row."""
    sample = sample_block(m, [x], [y])
    return FinslerSample(*(a[0] for a in sample._replace(
        F=sample.F.tolist())))


def sample_block(m: MetricSpec, xs, ys) -> FinslerSample:
    """The samples at each pair of two (P, n) stacks of equal length, as
    one stack, from one order-3 jet of the energy with a column per pair.
    Raises a FinsymError if any row fails: where rows fail at different
    stages, not necessarily the first failing row's."""
    xs, ys = _require_points(m, xs, ys)
    F = _positive(m.F_field.evaluate(np.concatenate([xs, ys], axis=1)),
                  xs, ys)
    g, dg_dx, g_inv, C, gamma, N, chern = (
        _value(a) for a in _assembly(m, xs, ys, 3, ys[..., None]))
    with np.errstate(all="ignore"):  # non-finite results raise below
        A = F[:, None, None, None] * C
    finite = np.isfinite(np.concatenate(
        [a.reshape(len(xs), -1) for a in (g_inv, A, gamma, N, chern)],
        axis=1)).all(axis=1)
    if not finite.all():
        p = int(np.argmin(finite))
        raise DomainError(f"non-finite connection data at x={xs[p].tolist()}"
                          f", y={ys[p].tolist()}")
    return FinslerSample(xs, ys, F, g, g_inv, A, gamma, N, chern, dg_dx)


def finsler_samples(m: MetricSpec, xs, ys) -> tuple:
    """The fundamental quantities at each pair (xs[p], ys[p]) of two
    (P, n) stacks: the value path of the connection assembly, as one
    :func:`sample_block`.

    Gives :func:`each_row`'s ``(rows, samples, errors)``: each row holds
    what the block of its row alone gives."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} base points but {len(ys)} fiber points")
    if not len(xs):
        return np.arange(0), None, {}
    return each_row(partial(sample_block, m), xs, ys)


class StructuralResiduals(NamedTuple):
    """Residuals of the two defining structural equations, (P,) each."""

    torsion: np.ndarray
    compat: np.ndarray
    scale: np.ndarray


def structural_residuals(samples: FinslerSample) -> StructuralResiduals:
    """Torsion-freeness and almost-metric-compatibility residuals at each
    row of a stack of samples, as one array computation over the stack.

    The compatibility residual is the dx-component of the structural
    equation: dg_ij/dx^t - g_kj G^k_it - g_ik G^k_jt - 2 A_ijs N^s_t / F.
    ``scale`` is max(1, largest |term|), for relative comparisons.
    """
    # C-contiguous stacks, so einsum sums each row in a lone row's order
    g, chern, A, N, dg_dx = (np.ascontiguousarray(a) for a in (
        samples.g, samples.chern, samples.A, samples.N, samples.dg_dx))
    F = samples.F[:, None, None, None]
    torsion = _max_abs_rows(chern - chern.transpose(0, 1, 3, 2))

    term_g = dg_dx.transpose(0, 2, 3, 1)                      # (p, i, j, t)
    term_a = np.einsum("pkj,pkit->pijt", g, chern)
    term_b = np.einsum("pik,pkjt->pijt", g, chern)
    term_c = 2.0 * np.einsum("pijs,pst->pijt", A, N) / F
    residual = term_g - term_a - term_b - term_c
    largest = zip(*(_max_abs_rows(t).tolist()
                    for t in (term_g, term_a, term_b, term_c)))
    return StructuralResiduals(torsion, _max_abs_rows(residual), np.array(
        [max(1.0, max(m)) for m in largest]))


def chern_with_derivatives(m: MetricSpec, x, y):
    """:func:`chern_block` at (x, y), the row of a block of one row."""
    return tuple(a[0] for a in chern_block(m, [x], [y]))


def chern_block(m: MetricSpec, xs, ys) -> tuple:
    """Connection coefficients plus their chart and fiber first derivatives
    at each pair of two (P, n) stacks, from one order-4 jet of the energy.

    Gives the stacks (G, dG_dx, dG_dy): G[p, l, j, k], dG_dx[p, l, j, k, t]
    the derivative in x^t and dG_dy[p, l, j, k, q] the derivative in y^q,
    all at (xs[p], ys[p]); G equals the value path's chern bit for bit.
    Raises a FinsymError if any row fails."""
    xs, ys = _require_points(m, xs, ys)
    n = m.dimension
    # y as a dual number: value y, unit tangent along each fiber variable
    unit = np.broadcast_to(np.eye(n, 2 * n, k=n), (len(ys), n, 2 * n))
    chern = _assembly(m, xs, ys, 4,
                      np.concatenate([ys[..., None], unit], axis=-1))[-1]
    finite = np.isfinite(chern.reshape(len(xs), -1)).all(axis=1)
    if not finite.all():
        raise DomainError("non-finite connection derivatives at "
                          f"x={xs[np.argmin(finite)].tolist()}")
    return (_value(chern), np.ascontiguousarray(chern[..., 1:n + 1]),
            np.ascontiguousarray(chern[..., n + 1:]))


def _max_abs_rows(a: np.ndarray) -> np.ndarray:
    """max |a| over each row of a stack of arrays."""
    return np.abs(a).max(axis=tuple(range(1, a.ndim)))


def _scale(*terms: np.ndarray) -> np.ndarray:
    """max(1.0, ...) of the terms at each row, as Python's max takes it: a
    nan term after 1.0 is passed over."""
    return np.array([max(1.0, *row)
                     for row in zip(*(t.tolist() for t in terms))])


# -- validity and probes --------------------------------------------------------


def randers_alpha_norm(m: MetricSpec, xs) -> np.ndarray:
    """alpha-norm sqrt(a^{ij} b_i b_j) of the covector b at each row of a
    (P, n) stack; the solve and the product run row by row."""
    if m.family != "randers":
        raise NotRandersError(f"metric family is {m.family!r}")
    n = m.dimension
    xs = np.asarray(xs, dtype=float)
    a = np.stack([np.stack([m.g_entries[i][j].evaluate(xs) for j in range(n)],
                           axis=1) for i in range(n)], axis=1)
    b = np.stack([c.evaluate(xs) for c in m.b_fields], axis=1)
    out = []
    for x, a_x, b_x in zip(xs, a, b):
        try:
            with np.errstate(all="ignore"):  # checked right below
                q = float(b_x @ np.linalg.solve(a_x, b_x))
        except np.linalg.LinAlgError:
            raise DomainError(
                f"singular alpha matrix at x={x.tolist()}") from None
        if not 0.0 <= q < np.inf:
            raise DomainError(f"a^ij b_i b_j = {q:.3e} is negative or "
                              f"non-finite at x={x.tolist()}")
        out.append(float(np.sqrt(q)))
    return np.array(out)


# fiber scalings at which the homogeneity residual compares F(x, lam y)
# with lam F(x, y)
_LAMBDAS = (0.5, 2.0, 3.0)


def homogeneity_residuals(m: MetricSpec, xs, ys) -> np.ndarray:
    """Largest relative gap |F(x, lam y) - lam F(x, y)| / (lam F(x, y))
    over the fiber scalings lam in ``_LAMBDAS``, at each pair of two (P, n)
    stacks: F on the pairs, then on each scaling of them.  F must be
    positive on the slit domain, and lam F(x, y) may not underflow to 0."""
    xs, ys = _require_points(m, xs, ys)
    F = _positive(m.F_field.evaluate(np.concatenate([xs, ys], axis=1)),
                  xs, ys).tolist()
    rel = [0.0] * len(F)
    for lam in _LAMBDAS:  # per pair on Python floats, as one point's
        Fl = m.F_field.evaluate(np.concatenate([xs, lam * ys], axis=1))
        scaled = [lam * b for b in F]
        if 0.0 in scaled:
            p = scaled.index(0.0)
            raise DomainError(f"lam F = {lam:g} * {F[p]:.3e} underflows to 0 "
                              f"at x={xs[p].tolist()}, y={ys[p].tolist()}")
        rel = [max(r, abs(a - s) / abs(s))
               for r, a, s in zip(rel, Fl.tolist(), scaled)]
    return np.array(rel)


def euler_residuals(m: MetricSpec, xs, ys) -> np.ndarray:
    """Relative defect of Euler's identity y^i dF/dy^i = F at each pair of
    two (P, n) stacks, from one order-1 jet of F with a column per pair.
    The contraction with y runs row by row, as a Python sum."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    Fj = m.F_field.eval_jet(np.concatenate([xs, ys], axis=1), 1)
    F = _positive(Fj.value, xs, ys).tolist()
    return np.array([abs(sum(y * dF) - F_xy) / abs(F_xy) for y, dF, F_xy
                     in zip(ys, Fj.derivatives(1)[:, m.dimension:], F)])


def cartan_trace_residual(samples: FinslerSample) -> np.ndarray:
    """|A_ijk y^k|, which vanishes for a homogeneous F, relative to
    max(1, max|A| |y|), at each row of a stack of samples."""
    A, ys = np.ascontiguousarray(samples.A), np.ascontiguousarray(samples.y)
    trace = np.abs(np.einsum("pijk,pk->pij", A, ys)).max(axis=(1, 2))
    # |y| as np.linalg.norm takes it of one row, a dot product: an axis
    # norm of the stack sums the squares by another route, and its last bit
    # can differ
    norm = np.sqrt(np.vecdot(ys, ys))
    return trace / _scale(_max_abs_rows(A) * norm)


def metric_validity(m: MetricSpec, samples,
                    homogeneity_tol: float = 1e-9) -> list[CheckRecord]:
    """The ``metric-validity`` check's records, sorted by record id, with
    each sampled (x, y) pair as its own base point.  Failures never raise;
    they come back as error records."""
    from .checks import run_checks
    from .scenario import DEFAULT_TOLERANCES, BuiltScenario, SamplePlan

    plan = SamplePlan(xs=np.array([x for x, _ in samples], dtype=float),
                      ys=np.array([[y] for _, y in samples], dtype=float))
    tolerances = dict(DEFAULT_TOLERANCES, homogeneity=homogeneity_tol)
    return run_checks(BuiltScenario(m.dimension, m, plan, tolerances),
                      ["metric-validity"])


def max_pairwise_spread(arrays: np.ndarray) -> np.ndarray:
    """Largest entrywise difference between any two of the arrays
    ``arrays[p, a]`` at each row p of a stack."""
    k = arrays.shape[1]
    gaps = [_max_abs_rows(arrays[:, a] - arrays[:, b]).tolist()
            for a in range(k) for b in range(a + 1, k)]
    return np.array([max(0.0, *row) for row in zip(*gaps)] if gaps
                    else [0.0] * len(arrays))
