"""Finsler fundamental quantities and connection coefficients at a point.

Everything is driven by jets of the energy Phi(x, y) = F^2/2 over the 2n
chart-plus-fiber variables.  The Christoffel-style assembly is written once,
generically over a commutative ring, so the same code produces plain values
(float scalars) and values-plus-first-derivatives (order-1 jet scalars).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


# -- ring-generic connection assembly ----------------------------------------


def _scalar_value(s) -> float:
    return s.value if isinstance(s, Jet) else float(s)


def _ring_inverse(mat, n: int):
    """Gauss-Jordan inverse over a commutative ring with unit magnitudes."""
    work = [list(row) for row in mat]
    out = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(_scalar_value(work[r][col])))
        if abs(_scalar_value(work[piv][col])) == 0.0:
            raise DomainError("singular matrix in ring inversion")
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            out[col], out[piv] = out[piv], out[col]
        pivot = work[col][col]
        work[col] = [e / pivot for e in work[col]]
        out[col] = [e / pivot for e in out[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if isinstance(factor, float) and factor == 0.0:
                continue
            work[r] = [wr - factor * wc for wr, wc in zip(work[r], work[col])]
            out[r] = [orr - factor * oc for orr, oc in zip(out[r], out[col])]
    return out


class _PipelineData(NamedTuple):
    g_inv: list
    cartan: list
    gamma: list
    nonlinear: list
    chern: list


def _connection_pipeline(g, dg_dx, dg_dy, F, y, n: int) -> _PipelineData:
    """Formal Christoffel symbols, nonlinear connection, and connection
    coefficients from metric data, generically over the scalar ring.

    g[i][j]          fundamental tensor
    dg_dx[t][i][j]   d g_ij / d x^t
    dg_dy[k][i][j]   d g_ij / d y^k
    F                metric value, y[i] fiber coordinates
    """
    g_inv = _ring_inverse(g, n)

    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                acc = sum(
                    g_inv[i][s] * (dg_dx[k][s][j] + dg_dx[j][s][k] - dg_dx[s][j][k])
                    for s in range(n)
                )
                val = 0.5 * acc
                gamma[i][j][k] = val
                gamma[i][k][j] = val

    cartan = [[[0.5 * (F * dg_dy[k][i][j]) for k in range(n)]
               for j in range(n)] for i in range(n)]
    cartan_up = [[[sum(g_inv[i][l] * cartan[l][j][k] for l in range(n))
                   for k in range(n)] for j in range(n)] for i in range(n)]

    spray = [sum(gamma[k][r][s] * y[r] * y[s]
                 for r in range(n) for s in range(n)) for k in range(n)]
    nonlinear = [[sum(gamma[i][j][k] * y[k] for k in range(n))
                  - sum(cartan_up[i][j][k] * spray[k] for k in range(n)) / F
                  for j in range(n)] for i in range(n)]

    chern = [[[None] * n for _ in range(n)] for _ in range(n)]
    for l in range(n):
        for j in range(n):
            for k in range(j, n):
                corr = sum(
                    g_inv[l][i] * sum(
                        cartan[i][j][s] * nonlinear[s][k]
                        - cartan[j][k][s] * nonlinear[s][i]
                        + cartan[k][i][s] * nonlinear[s][j]
                        for s in range(n)
                    )
                    for i in range(n)
                )
                val = gamma[l][j][k] - corr / F
                chern[l][j][k] = val
                chern[l][k][j] = val

    return _PipelineData(g_inv, cartan, gamma, nonlinear, chern)


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


def _unit2n(n2: int, *positions: int) -> tuple[int, ...]:
    e = [0] * n2
    for p in positions:
        e[p] += 1
    return tuple(e)


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
    x, y = _require_point(m, x, y)
    point = np.concatenate([x, y])
    n = m.dimension
    n2 = 2 * n

    F = finsler_value(m, x, y)
    phi = m.phi_field.eval_jet(point, 3)

    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = phi.partial(_unit2n(n2, n + i, n + j))
    _check_pd(g, m.tol_pd)

    dg_dx = np.empty((n, n, n))
    dg_dy = np.empty((n, n, n))
    for i in range(n):
        for j in range(i, n):
            for t in range(n):
                v = phi.partial(_unit2n(n2, t, n + i, n + j))
                dg_dx[t, i, j] = dg_dx[t, j, i] = v
            for k in range(n):
                v = phi.partial(_unit2n(n2, n + k, n + i, n + j))
                dg_dy[k, i, j] = dg_dy[k, j, i] = v

    data = _connection_pipeline(
        [[g[i, j] for j in range(n)] for i in range(n)],
        [[[dg_dx[t, i, j] for j in range(n)] for i in range(n)] for t in range(n)],
        [[[dg_dy[k, i, j] for j in range(n)] for i in range(n)] for k in range(n)],
        F, [y[i] for i in range(n)], n,
    )

    sample = FinslerSample(
        x=x, y=y, F=F, g=g,
        g_inv=np.array(data.g_inv),
        A=np.array(data.cartan),
        gamma=np.array(data.gamma),
        N=np.array(data.nonlinear),
        chern=np.array(data.chern),
        dg_dx=dg_dx,
    )
    for arr in (sample.g_inv, sample.A, sample.gamma, sample.N, sample.chern):
        if not np.isfinite(arr).all():
            raise DomainError(f"non-finite connection data at x={x.tolist()}, "
                              f"y={y.tolist()}")
    return sample


def fundamental_tensor(m: MetricSpec, x, y) -> np.ndarray:
    """g_ij, the fiber Hessian of F^2/2; checked positive-definite."""
    x, y = _require_point(m, x, y)
    point = np.concatenate([x, y])
    n = m.dimension
    phi = m.phi_field.eval_jet(point, 2)
    g = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            g[i, j] = g[j, i] = phi.partial(_unit2n(2 * n, n + i, n + j))
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
    (x, y).  Uses one order-4 jet of the energy and runs the shared
    assembly over order-1 jet scalars.
    """
    x, y = _require_point(m, x, y)
    point = np.concatenate([x, y])
    n = m.dimension
    n2 = 2 * n

    phi = m.phi_field.eval_jet(point, 4)

    g_val = np.empty((n, n))
    g1 = [[None] * n for _ in range(n)]
    dgdx1 = [[[None] * n for _ in range(n)] for _ in range(n)]
    dgdy1 = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            jij = phi.derivative_jet(_unit2n(n2, n + i, n + j)).truncated(1)
            g1[i][j] = g1[j][i] = jij
            g_val[i, j] = g_val[j, i] = jij.value
            for t in range(n):
                jd = phi.derivative_jet(_unit2n(n2, t, n + i, n + j))
                dgdx1[t][i][j] = dgdx1[t][j][i] = jd
            for k in range(n):
                jd = phi.derivative_jet(_unit2n(n2, n + k, n + i, n + j))
                dgdy1[k][i][j] = dgdy1[k][j][i] = jd
    _check_pd(g_val, m.tol_pd)

    F1 = (2.0 * phi.truncated(1)).sqrt()
    y_ring = [Jet.variable(n + i, y[i], n2, 1) for i in range(n)]

    data = _connection_pipeline(g1, dgdx1, dgdy1, F1, y_ring, n)

    G = np.empty((n, n, n))
    dG_dx = np.empty((n, n, n, n))
    dG_dy = np.empty((n, n, n, n))
    for l in range(n):
        for j in range(n):
            for k in range(n):
                jet = data.chern[l][j][k]
                G[l, j, k] = jet.value
                for t in range(n):
                    dG_dx[l, j, k, t] = jet.partial(_unit2n(n2, t))
                for p in range(n):
                    dG_dy[l, j, k, p] = jet.partial(_unit2n(n2, n + p))
    if not (np.isfinite(G).all() and np.isfinite(dG_dx).all()
            and np.isfinite(dG_dy).all()):
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
    return float(np.sqrt(b @ np.linalg.solve(a, b)))


def metric_validity(m: MetricSpec, samples: Sequence,
                    lambdas=(0.5, 2.0, 3.0),
                    homogeneity_tol: float = 1e-9) -> list[CheckRecord]:
    """Homogeneity, Euler, Cartan-trace, positive-definiteness, and (for
    Randers) covector-smallness records over the sampled (x, y) pairs.

    Failures never raise; they come back as failing records.
    """
    records: list[CheckRecord] = []
    for x, y in samples:
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
            point = np.concatenate([x, y])
            Fj = m.F_field.eval_jet(point, 1)
            F = Fj.value
            euler = abs(sum(
                y[k] * Fj.partial(_unit2n(2 * m.dimension, m.dimension + k))
                for k in range(m.dimension)) - F) / abs(F)
            records.append(CheckRecord.evaluated(
                "metric-validity:euler", pt, euler, homogeneity_tol))
        except Exception as exc:  # noqa: BLE001
            records.append(CheckRecord.failed(
                "metric-validity:euler", pt, str(exc), homogeneity_tol))

        try:
            s = finsler_sample(m, x, y)
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
