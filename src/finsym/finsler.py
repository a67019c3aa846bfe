"""Finsler fundamental quantities and connection coefficients at a point.

Everything is driven by one jet of the energy Phi(x, y) = F^2/2 over the 2n
chart-plus-fiber variables: g is its fiber Hessian and C = (1/2) dg/dy.  The
connection assembly is written once, as numpy products over arrays with a
trailing tangent axis (forward-mode dual numbers): a tangent axis of length
1 gives the values (:func:`finsler_sample`), one of length 1 + 2n the values
plus their first derivatives in (x, y) (:func:`chern_with_derivatives`).
F cancels from the assembly and enters only the reported Cartan tensor
A = F C.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    NonPositiveError,
    NotPositiveDefiniteError,
    NotRandersError,
)
from .fields import Add, DomainBox, Mul, Num, Pow, ScalarFieldSpec, Sqrt, Var
from .jets import Jet
from .records import CheckRecord

DEFAULT_Y_MIN = 1e-6
DEFAULT_TOL_PD = 1e-10


def _xy_vars(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n))


def _y_var(n: int, i: int) -> Var:
    return Var(f"y{i + 1}", n + i)


def _sum_nodes(nodes):
    out = nodes[0]
    for node in nodes[1:]:
        out = Add(out, node)
    return out


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
    def riemannian(cls, entries, domain: DomainBox,
                   y_min: float = DEFAULT_Y_MIN) -> "MetricSpec":
        n = len(entries)
        xvars = tuple(f"x{i + 1}" for i in range(n))
        g = tuple(tuple(cls._as_spec(entries[i][j], xvars) for j in range(n))
                  for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j].root != g[j][i].root:
                    raise ValueError(f"metric matrix not symmetric at ({i},{j})")
        quad = _quadratic_form_node(g, n)
        allvars = _xy_vars(n)
        F = ScalarFieldSpec(allvars, Sqrt(quad))
        phi = ScalarFieldSpec(allvars, Mul(Num(0.5), quad))
        return cls("riemannian", n, domain, F, phi, y_min, g_entries=g)

    @classmethod
    def randers(cls, alpha_entries, b_components, domain: DomainBox,
                y_min: float = DEFAULT_Y_MIN) -> "MetricSpec":
        n = len(alpha_entries)
        xvars = tuple(f"x{i + 1}" for i in range(n))
        a = tuple(tuple(cls._as_spec(alpha_entries[i][j], xvars) for j in range(n))
                  for i in range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if a[i][j].root != a[j][i].root:
                    raise ValueError(f"alpha matrix not symmetric at ({i},{j})")
        b = tuple(cls._as_spec(c, xvars) for c in b_components)
        if len(b) != n:
            raise ValueError("covector component count must match dimension")
        quad = _quadratic_form_node(a, n)
        beta = _sum_nodes([Mul(b[i].root, _y_var(n, i)) for i in range(n)])
        F_node = Add(Sqrt(quad), beta)
        allvars = _xy_vars(n)
        F = ScalarFieldSpec(allvars, F_node)
        phi = ScalarFieldSpec(allvars, Mul(Num(0.5), Pow(F_node, 2.0)))
        return cls("randers", n, domain, F, phi, y_min, g_entries=a, b_fields=b)

    @classmethod
    def custom(cls, F, dimension: int, domain: DomainBox,
               y_min: float = DEFAULT_Y_MIN) -> "MetricSpec":
        allvars = _xy_vars(dimension)
        F_spec = cls._as_spec(F, allvars)
        phi = ScalarFieldSpec(allvars, Mul(Num(0.5), Pow(F_spec.root, 2.0)))
        return cls("custom", dimension, domain, F_spec, phi, y_min)


def _quadratic_form_node(entries, n: int):
    terms = []
    for i in range(n):
        for j in range(n):
            terms.append(Mul(entries[i][j].root, Mul(_y_var(n, i), _y_var(n, j))))
    return _sum_nodes(terms)


def _require_point(m: MetricSpec, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (m.dimension,) or y.shape != (m.dimension,):
        raise DomainError(
            f"point shapes {x.shape}/{y.shape} do not match dimension {m.dimension}"
        )
    m.domain.require(x, "base point")
    if float(np.linalg.norm(y)) < m.y_min:
        raise DomainError(
            f"fiber point norm {np.linalg.norm(y):.3e} below slit floor {m.y_min}"
        )
    return x, y


# -- connection assembly ---------------------------------------------------------
#
# Every array below carries a trailing tangent axis: slot 0 holds the value
# and slots 1.. the first derivatives in the 2n variables (x, y).  The value
# path uses a tangent axis of length 1 and does no tangent work; the value
# slot is computed by the same operations on the same operands either way.


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
    tangent = -np.einsum("is,sra,rj->ija", inv, g[..., 1:], inv)
    return np.concatenate([inv[..., None], tangent], axis=-1)


@lru_cache(maxsize=None)
def _strict_upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(n, 1)


def _mirror(a: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of the lower index pair onto the lower one,
    so the pair symmetry is exact."""
    i, j = _strict_upper(a.shape[1])
    a[:, j, i] = a[:, i, j]
    return a


def _metric_data(phi: Jet, n: int) -> tuple:
    """g_ij, dg_ij/dx^t as [t, i, j] and dg_ij/dy^k as [k, i, j] from the
    jet of the energy, with a tangent axis of length 1 + 2n from an order-4
    jet and of length 1 from an order-3 one."""
    fiber = slice(n, 2 * n)
    g = phi.derivatives(2)[fiber, fiber][..., None]
    d3 = phi.derivatives(3)[:, fiber, fiber]          # [a, i, j]
    dg = d3[..., None]
    if phi.order == 4:
        g = np.concatenate([g, d3.transpose(1, 2, 0)], axis=-1)
        dg = np.concatenate([dg, phi.derivatives(4)[:, fiber, fiber]],
                            axis=-1)
    return g, dg[:n], dg[n:]


def _connection(g, dg_dx, dg_dy, y) -> tuple:
    """(g^-1, C, gamma, N, chern) from the metric data and the fiber point.

    C_ijk = (1/2) dg_ij/dy^k, gamma^i_jk the formal Christoffel symbols,
    N^i_j = gamma^i_jk y^k - C^i_jk gamma^k_rs y^r y^s the nonlinear
    connection and chern^l_jk = gamma^l_jk - g^li (C_ijs N^s_k
    - C_jks N^s_i + C_kis N^s_j); F cancels from all of them.
    """
    g_inv = _inverse(g)
    gamma = _mirror(0.5 * _mul(
        "is,sjk->ijk", g_inv,
        dg_dx.transpose(1, 2, 0, 3) + dg_dx.transpose(1, 0, 2, 3) - dg_dx))
    C = 0.5 * dg_dy.transpose(1, 2, 0, 3)
    spray = _mul("kr,r->k", _mul("krs,s->kr", gamma, y), y)
    N = (_mul("ijk,k->ij", gamma, y)
         - _mul("ijk,k->ij", _mul("il,ljk->ijk", g_inv, C), spray))
    M = _mul("ijs,sk->ijk", C, N)
    chern = _mirror(gamma - _mul(
        "li,ijk->ljk", g_inv,
        M - M.transpose(2, 0, 1, 3) + M.transpose(1, 2, 0, 3)))
    return g_inv, C, gamma, N, chern


# -- point samples -------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FinslerSample:
    """All fundamental quantities of a metric at one point (x, y)."""

    x: np.ndarray
    y: np.ndarray
    F: float
    g: np.ndarray
    g_inv: np.ndarray
    A: np.ndarray
    gamma: np.ndarray
    N: np.ndarray
    chern: np.ndarray
    dg_dx: np.ndarray  # (t, i, j); kept for the structural residual


def _check_pd(g: np.ndarray, tol_pd: float) -> None:
    n = g.shape[0]
    for k in range(1, n + 1):
        minor = float(np.linalg.det(g[:k, :k]))
        if not minor > tol_pd:
            raise NotPositiveDefiniteError(
                f"leading principal minor {k} is {minor:.3e} (<= {tol_pd:g})"
            )


def finsler_value(m: MetricSpec, x, y) -> float:
    """F(x, y); positive on the slit domain or the metric is invalid."""
    x, y = _require_point(m, x, y)
    value = m.F_field.evaluate(np.concatenate([x, y]))
    if not value > 0.0:
        raise NonPositiveError(
            f"F = {value:.3e} <= 0 at x={x.tolist()}, y={y.tolist()}")
    return value


def finsler_sample(m: MetricSpec, x, y) -> FinslerSample:
    """The fundamental quantities at (x, y): the value path of the
    connection assembly, from the order-3 jet of the energy."""
    x, y = _require_point(m, x, y)
    n = m.dimension
    F = finsler_value(m, x, y)
    phi = m.phi_field.eval_jet(np.concatenate([x, y]), 3)
    g, dg_dx, dg_dy = _metric_data(phi, n)
    g0 = _value(g)
    _check_pd(g0, m.tol_pd)

    with np.errstate(all="ignore"):  # non-finite results raise below
        g_inv, C, gamma, N, chern = (
            _value(a) for a in _connection(g, dg_dx, dg_dy, y[:, None]))
        A = F * C
    for arr in (g_inv, A, gamma, N, chern):
        if not np.isfinite(arr).all():
            raise DomainError(f"non-finite connection data at x={x.tolist()}, "
                              f"y={y.tolist()}")
    return FinslerSample(x=x, y=y, F=F, g=g0, g_inv=g_inv, A=A,
                         gamma=gamma, N=N, chern=chern, dg_dx=_value(dg_dx))


def fundamental_tensor(m: MetricSpec, x, y) -> np.ndarray:
    """g_ij, the fiber Hessian of F^2/2; checked positive-definite."""
    x, y = _require_point(m, x, y)
    n = m.dimension
    phi = m.phi_field.eval_jet(np.concatenate([x, y]), 2)
    g = phi.derivatives(2)[n:, n:]
    _check_pd(g, m.tol_pd)
    return g


def cartan_tensor(m: MetricSpec, x, y) -> np.ndarray:
    """A_ijk = (F/2) d g_ij / d y^k; totally symmetric by construction."""
    return finsler_sample(m, x, y).A


def formal_christoffel(m: MetricSpec, x, y) -> np.ndarray:
    return finsler_sample(m, x, y).gamma


def nonlinear_connection(m: MetricSpec, x, y) -> np.ndarray:
    return finsler_sample(m, x, y).N


def chern_coefficients(m: MetricSpec, x, y) -> np.ndarray:
    """Connection coefficients, symmetric in the lower index pair."""
    return finsler_sample(m, x, y).chern


class StructuralResiduals(NamedTuple):
    """Residuals of the two defining structural equations at one point."""

    torsion: float
    compat: float
    scale: float


def chern_structural_residuals(m: MetricSpec, x, y) -> StructuralResiduals:
    """Torsion-freeness and almost-metric-compatibility residuals.

    The compatibility residual is the dx-component of the structural
    equation: dg_ij/dx^t - g_kj G^k_it - g_ik G^k_jt - 2 A_ijs N^s_t / F.
    ``scale`` is max(1, largest |term|), for relative comparisons.
    """
    return structural_residuals(finsler_sample(m, x, y))


def structural_residuals(s: FinslerSample) -> StructuralResiduals:
    """:func:`chern_structural_residuals` of an existing sample."""
    torsion = float(np.max(np.abs(s.chern - s.chern.transpose(0, 2, 1))))

    term_g = s.dg_dx.transpose(1, 2, 0)                       # (i, j, t)
    term_a = np.einsum("kj,kit->ijt", s.g, s.chern)
    term_b = np.einsum("ik,kjt->ijt", s.g, s.chern)
    term_c = 2.0 * np.einsum("ijs,st->ijt", s.A, s.N) / s.F
    residual = term_g - term_a - term_b - term_c
    scale = max(1.0, max(float(np.max(np.abs(t)))
                         for t in (term_g, term_a, term_b, term_c)))
    return StructuralResiduals(torsion, float(np.max(np.abs(residual))), scale)


def chern_with_derivatives(m: MetricSpec, x, y):
    """Connection coefficients plus their chart and fiber first derivatives.

    Returns (G, dG_dx, dG_dy) with G[l, j, k], dG_dx[l, j, k, t] the
    derivative in x^t, dG_dy[l, j, k, p] the derivative in y^p, all at
    (x, y).  Uses one order-4 jet of the energy; G equals the value path's
    ``finsler_sample(m, x, y).chern`` bit for bit.
    """
    x, y = _require_point(m, x, y)
    n = m.dimension
    phi = m.phi_field.eval_jet(np.concatenate([x, y]), 4)
    g, dg_dx, dg_dy = _metric_data(phi, n)
    _check_pd(_value(g), m.tol_pd)

    y_dual = np.concatenate([y[:, None], np.eye(n, 2 * n, k=n)], axis=-1)
    with np.errstate(all="ignore"):  # non-finite results raise below
        chern = _connection(g, dg_dx, dg_dy, y_dual)[-1]
    G = _value(chern)
    dG_dx = np.ascontiguousarray(chern[..., 1:n + 1])
    dG_dy = np.ascontiguousarray(chern[..., n + 1:])
    if not np.isfinite(chern).all():
        raise DomainError(f"non-finite connection derivatives at x={x.tolist()}")
    return G, dG_dx, dG_dy


# -- validity and probes --------------------------------------------------------


def randers_alpha_norm(m: MetricSpec, x) -> float:
    """alpha-norm of the covector b at x: sqrt(a^{ij} b_i b_j)."""
    if m.family != "randers":
        raise NotRandersError(f"metric family is {m.family!r}")
    n = m.dimension
    a = np.array([[m.g_entries[i][j].evaluate(x) for j in range(n)]
                  for i in range(n)])
    b = np.array([c.evaluate(x) for c in m.b_fields])
    with np.errstate(all="ignore"):  # checked right below
        q = float(b @ np.linalg.solve(a, b))
    if not 0.0 <= q < np.inf:
        raise DomainError(f"a^ij b_i b_j = {q:.3e} is negative or non-finite "
                          f"at x={np.asarray(x, float).tolist()}")
    return float(np.sqrt(q))


def metric_validity(m: MetricSpec, samples: Sequence,
                    lambdas=(0.5, 2.0, 3.0),
                    homogeneity_tol: float = 1e-9) -> list[CheckRecord]:
    """Homogeneity, Euler, Cartan-trace, positive-definiteness, and (for
    Randers) covector-smallness records over the sampled (x, y) pairs.

    Failures never raise; they come back as failing records.
    """
    records: list[CheckRecord] = []
    for x, y in samples:
        records.extend(pair_validity(m, x, y, lambda: finsler_sample(m, x, y),
                                     lambdas, homogeneity_tol))
    return records


def pair_validity(m: MetricSpec, x, y, sample: Callable[[], FinslerSample],
                  lambdas=(0.5, 2.0, 3.0),
                  homogeneity_tol: float = 1e-9) -> list[CheckRecord]:
    """:func:`metric_validity` records at one pair (x, y).  ``sample()``
    returns ``finsler_sample(m, x, y)``, so a caller that already holds the
    sample passes it in rather than having it evaluated again."""
    records: list[CheckRecord] = []
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pt = tuple(np.concatenate([x, y]))

    try:
        F = finsler_value(m, x, y)
        rel = 0.0
        for lam in lambdas:
            Fl = m.F_field.evaluate(np.concatenate([x, lam * y]))
            rel = max(rel, abs(Fl - lam * F) / abs(lam * F))
        records.append(CheckRecord.evaluated(
            "metric-validity:homogeneity", pt, rel, homogeneity_tol))
    except Exception as exc:  # noqa: BLE001 - failures become records
        records.append(CheckRecord.failed(
            "metric-validity:homogeneity", pt, str(exc), homogeneity_tol))

    try:
        Fj = m.F_field.eval_jet(np.concatenate([x, y]), 1)
        F = Fj.value
        euler = abs(sum(y * Fj.derivatives(1)[m.dimension:]) - F) / abs(F)
        records.append(CheckRecord.evaluated(
            "metric-validity:euler", pt, euler, homogeneity_tol))
    except Exception as exc:  # noqa: BLE001
        records.append(CheckRecord.failed(
            "metric-validity:euler", pt, str(exc), homogeneity_tol))

    try:
        s = sample()
        trace = float(np.max(np.abs(np.einsum("ijk,k->ij", s.A, y))))
        scale = max(1.0, float(np.max(np.abs(s.A))) * float(np.linalg.norm(y)))
        records.append(CheckRecord.evaluated(
            "metric-validity:cartan-trace", pt, trace / scale, homogeneity_tol))
        records.append(CheckRecord.evaluated(
            "metric-validity:positive-definite", pt, 0.0, 0.0))
    except NotPositiveDefiniteError as exc:
        records.append(CheckRecord.failed(
            "metric-validity:positive-definite", pt, str(exc), 0.0))
    except Exception as exc:  # noqa: BLE001
        records.append(CheckRecord.failed(
            "metric-validity:cartan-trace", pt, str(exc), homogeneity_tol))

    if m.family == "randers":
        try:
            norm = randers_alpha_norm(m, x)
            records.append(CheckRecord.evaluated(
                "metric-validity:randers-bound", pt, norm, 1.0 - 1e-6))
        except Exception as exc:  # noqa: BLE001
            records.append(CheckRecord.failed(
                "metric-validity:randers-bound", pt, str(exc), 1.0 - 1e-6))
    return records


def berwald_probe(m: MetricSpec, x, y_samples: Sequence) -> float:
    """Spread of the connection coefficients across fiber points at fixed x.

    Near zero identifies Berwald behavior (coefficients depend on x only).
    """
    ys = [np.asarray(y, dtype=float) for y in y_samples]
    if len(ys) < 2:
        raise DomainError("berwald probe needs at least two fiber samples")
    return max_pairwise_spread([finsler_sample(m, x, y).chern for y in ys])


def max_pairwise_spread(arrays: Sequence[np.ndarray]) -> float:
    """Largest entrywise difference between any two of the arrays."""
    spread = 0.0
    for a in range(len(arrays)):
        for b in range(a + 1, len(arrays)):
            spread = max(spread, float(np.max(np.abs(arrays[a] - arrays[b]))))
    return spread
