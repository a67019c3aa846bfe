"""Check registry: every verification the engine can run over a scenario.

A check is a named group of facets.  A facet is one residual with its own
record id, tolerance rule and point set: the base points x, or the (x, y)
pairs of the plan.  The runner visits each base point once and fills a
lazy :class:`PointContext` there, so a quantity several facets read is
computed once and dropped with the context.  It walks the base points in
blocks: each facet names the fiber points whose samples it reads (the plan
pairs, W(x), the Berwald probes, the Minkowski probes), and every such
point of a block is sampled in one :func:`finsler_samples` call before
the block's facets run.  The finite-difference commutator samples its own
stencil block and reads none of these.  Domain failures never abort a
suite: :func:`_evaluate`, which makes every record, gives an error record
where a facet raises or its residual or tolerance is not finite.  Record
order is fixed: record ids sorted, then points in plan order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .curvature import (
    brace_array,
    contracted_two_path,
    curvature_fd_commutator,
    curvature_up,
    cyclic_residual,
    induced_derivatives,
    pair_two_path,
)
from .errors import ConfigError, DomainError, FinsymError, ZeroVectorError
from .fedosov import (
    FedosovScenario,
    covariant_residual,
    darboux_relations_residual,
    hatted_two_form_data,
    minkowski_preservation_check,
    minkowski_probes,
    require_minkowskian,
    transform_connection,
)
from .fields import chart_jacobians
from .finsler import (
    FinslerSample,
    cartan_trace_residual,
    euler_residual,
    finsler_samples,
    homogeneity_residual,
    max_pairwise_spread,
    randers_alpha_norm,
    structural_residuals,
)
from .records import CheckRecord
from .scenario import BuiltScenario, build_scenario
from .symplectic import (
    PreservationResidual,
    closedness,
    covector_derivatives,
    exact_form_data,
    nondegeneracy,
    randers_condition,
    standard_form,
)


# fiber points per finsler_samples call, the plan pairs and the points the
# facets read beside them, in whole base points.  On a 3-d Randers plan, 64
# and 128 ran fastest; 256 ran slower and raised the peak RSS by about 2 MB
# more than 64 does.
_BLOCK_PAIRS = 64


def _cached(cache: dict, key, fn):
    """``cache[key]``, computed by ``fn()`` on first use.  A FinsymError is
    kept like a value and raised again on every read, so a failed quantity
    is not recomputed."""
    if key not in cache:
        try:
            cache[key] = (fn(), None)
        except FinsymError as exc:
            cache[key] = (None, exc)
    value, exc = cache[key]
    if exc is not None:
        raise exc
    return value


class _once:
    """A lazily computed attribute, cached by :func:`_cached`."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.key = f"_{name}"

    def __get__(self, obj, owner=None):
        return _cached(obj.__dict__, self.key, lambda: self.fn(obj))


def _minkowski_probes(c: "PointContext") -> tuple[np.ndarray, ...]:
    return minkowski_probes(c.s.dimension)


def _minkowski(c: "PointContext") -> tuple[float, float, float]:
    require_minkowskian([c.sample(y).chern for y in _minkowski_probes(c)])
    mk = minkowski_preservation_check(c.form[1], c.jac, c.hatted)
    ghat = transform_connection(np.zeros((c.s.dimension,) * 3), c.jac)
    hatted = PreservationResidual.of(*c.hatted, ghat)
    return mk.natural, mk.hatted, abs(mk.hatted - hatted.max_abs)


class PointContext:
    """What the facets read at one base point x and its plan fiber points
    ``ys``, each computed on first use.

    :meth:`sample` is the value path at (x, y), kept once per distinct
    fiber point y in ``samples``: the plan's pairs, W(x), the Berwald probe
    vectors and the Minkowski probes all read it.  Each is sampled with
    the rest of its block before any facet runs, for the facets that name
    it (:meth:`fiber_points`, :func:`_sample_blocks`).  ``sample_w`` is
    the sample at (x, W(x)) and ``derivatives`` the jet path there.
    ``lift_w`` is the lift-preservation residual of the scenario's form
    along W, ``standard_lift_w`` that of the standard form.  ``jac`` holds
    the chart derivatives at x and ``hatted`` the scenario's form pulled
    back through them.  ``form`` holds the scenario's two-form and its
    partials at x; ``covector`` the first and second derivative
    arrays of the Randers covector b there, from which a d(beta) form is
    read rather than evaluating b again, and ``alpha_norm`` the Randers
    covector's alpha-norm, shared by the pairs at x.  The finite-difference
    curvature ``fd`` samples its own stencil block and reads nothing else
    from the context.  A context refers to no block, so reference counting
    frees it once its block is done.
    """

    def __init__(self, s: BuiltScenario, sc: FedosovScenario | None, x, ys):
        self.s, self.sc, self.x, self.ys = s, sc, x, ys
        self.samples: dict = {}  # by y.tobytes(), as _cached keeps values

    def fiber_points(self, readers) -> dict:
        """The distinct fiber points that ``readers``, the selected facets'
        ``reads``, name at x, by cache key.  A reader that raises names
        none; its facet raises the same error when it runs, before it reads
        a sample."""
        out = {}
        for read in readers:
            try:
                ys = read(self)
            except FinsymError:
                continue
            for y in ys:
                y = np.asarray(y, dtype=float)
                out.setdefault(y.tobytes(), y)
        return out

    def sample(self, y) -> FinslerSample:
        """The Finsler sample at (x, y), taken with the block."""
        value, exc = self.samples[np.asarray(y, dtype=float).tobytes()]
        if exc is not None:
            raise exc
        return value

    w = _once(lambda c: c.s.vector_field.values(c.x))
    sample_w = property(lambda c: c.sample(c.w))
    form = _once(lambda c: (exact_form_data(*c.covector)
                            if c.s.two_form_kind == "randers-dbeta"
                            else c.s.two_form.data(c.x)))
    # G is read first: where both the connection and the form fail, the
    # record carries the connection's error
    lift_w = _once(lambda c: PreservationResidual.of(
        G=c.sample_w.chern, w=c.form[0], dw=c.form[1]))
    standard_lift_w = _once(lambda c: PreservationResidual.of(
        *_standard_data(c.s.dimension // 2), c.sample_w.chern))
    derivatives = _once(lambda c: induced_derivatives(c.sc, c.x, c.w))
    up = _once(lambda c: curvature_up(*c.derivatives))
    brace = _once(lambda c: brace_array(*c.derivatives))
    pair = _once(lambda c: pair_two_path(c.up, c.brace, c.form[0]))
    # The FD path samples its own centre and stencil, (x, W(x)) included, in
    # a block of its own: reading sample_w would let it share a result with
    # the path it checks.
    fd = _once(lambda c: curvature_fd_commutator(c.sc, c.x))
    jac = _once(lambda c: chart_jacobians(c.s.chart, c.x))
    hatted = _once(lambda c: hatted_two_form_data(*c.form, c.jac))
    covector = _once(lambda c: covector_derivatives(c.s.metric.b_fields,
                                                    c.x, 2))
    minkowski = _once(_minkowski)
    alpha_norm = _once(lambda c: randers_alpha_norm(c.s.metric, c.x))


@lru_cache(maxsize=None)
def _standard_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard form's components and partials: constant, so read once
    (at the origin) and shared, read-only, by every base point."""
    w, dw = standard_form(n).data(np.zeros(2 * n))
    w.flags.writeable = dw.flags.writeable = False
    return w, dw


def _sample_blocks(s: BuiltScenario, sc: FedosovScenario | None,
                   facets: list) -> Iterator[list[PointContext]]:
    """The base points' contexts in plan order, in blocks of whole base
    points with at most ``_BLOCK_PAIRS`` fiber points to sample, or one
    base point that alone has more.  Each block comes with the samples its
    facets read, taken in one :func:`finsler_samples` call."""
    readers = list(dict.fromkeys(f.reads for f in facets if f.reads))
    block, todo = [], []
    for x, ys in zip(s.plan.xs, s.plan.ys):
        ctx = PointContext(s, sc, x, ys)
        wanted = ctx.fiber_points(readers)
        if block and len(todo) + len(wanted) > _BLOCK_PAIRS:
            _sample_into(s.metric, todo)
            yield block
            block, todo = [], []
        block.append(ctx)
        todo.extend((ctx, key, y) for key, y in wanted.items())
    if block:
        _sample_into(s.metric, todo)
        yield block


def _sample_into(metric, todo: list) -> None:
    """Sample each (context, key, y) of ``todo`` and keep the sample, or
    its error, in the context's cache."""
    found = finsler_samples(metric, [ctx.x for ctx, _, _ in todo],
                            [y for _, _, y in todo])
    for (ctx, key, _), result in zip(todo, found):
        ctx.samples[key] = ((None, result) if isinstance(result, FinsymError)
                            else (result, None))


class FiberContext:
    """What the facets read at one pair (x, y) of the plan."""

    def __init__(self, base: PointContext, y):
        self.base, self.y = base, y
        self.point = np.concatenate([base.x, y])

    sample = property(lambda f: f.base.sample(f.y))

    structural = _once(lambda f: structural_residuals(f.sample))
    lift = _once(lambda f: PreservationResidual.of(
        G=f.sample.chern, w=f.base.form[0], dw=f.base.form[1]))


@dataclass(frozen=True)
class Facet:
    """One residual of a check, recorded under ``name``.

    ``residual`` maps the context (a FiberContext when ``fiber``) to the
    residual, or to (residual, scale) where the bound is relative: the
    record's tolerance is ``tolerances[tol] * scale``, or the fixed
    ``bound * scale`` when ``tol`` is None.  A ``gate`` returns a
    preservation residual along W; the point is skipped where it exceeds
    the preservation-gate tolerance.  ``when`` limits the facet to
    scenarios it applies to.  ``reads`` maps the base point's context to
    the fiber points whose samples the facet (its gate included) reads
    there; the runner samples them with the rest of the block.
    """

    name: str
    residual: Callable
    tol: str | None = None
    fiber: bool = False
    gate: Callable | None = None
    when: Callable[[BuiltScenario], bool] | None = None
    bound: float = 0.0
    reads: Callable[[PointContext], Iterable] | None = None


@dataclass(frozen=True)
class Check:
    """A check id, what it verifies, the config blocks it needs and its
    facets.  An ``even_dimension`` check is left out of the default suite
    on odd dimensions and rejected when requested there."""

    id: str
    description: str
    requires: tuple[str, ...]
    facets: tuple[Facet, ...]
    even_dimension: bool = False


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _nondegeneracy(c: PointContext) -> float:
    return max(0.0, c.s.tolerances["tol_nd"] - nondegeneracy(c.form[0]))


def _randers_equivalence(f: FiberContext) -> float:
    pres = f.lift
    cond = randers_condition(*f.base.covector, f.sample.chern)
    scale = max(1.0, _max_abs(pres.entries))
    return _max_abs(cond + pres.entries) / scale


def _exactness(c: PointContext) -> float:
    G = c.sample_w.chern
    pres = c.lift_w
    return abs(covariant_residual(G, *c.form) - pres.max_abs)


def _roundtrip(c: PointContext) -> float:
    G = c.sample_w.chern
    ghat = transform_connection(G, c.jac)
    back = transform_connection(
        ghat, chart_jacobians(c.s.chart.swapped(), c.jac.xhat))
    return _max_abs(back - G)


def _plan_pairs(c: PointContext):
    return c.ys


def _w(c: PointContext) -> tuple[np.ndarray]:
    return (c.w,)


def _berwald_probes(c: PointContext) -> tuple[np.ndarray, ...]:
    """The Berwald probe vectors; ZeroVectorError if one is below W's
    floor."""
    floor = c.s.vector_field.w_min
    for v in c.s.berwald_vectors:
        norm = math.hypot(*v)  # scaled, so a large probe cannot overflow
        if norm < floor:
            raise ZeroVectorError(
                f"probe vector norm {norm:.3e} below floor {floor}"
            )
    return c.s.berwald_vectors


def _berwald_spread(c: PointContext) -> float:
    return max_pairwise_spread([c.sample(v).chern
                                for v in _berwald_probes(c)])


def _fd_consistency(c: PointContext) -> tuple[float, float]:
    up, fd = c.up, c.fd
    scale = max(1.0, _max_abs(up), _max_abs(fd))
    return _max_abs(up - fd), scale


def _has_two_form(s: BuiltScenario) -> bool:
    return s.two_form is not None


def _positive_definite(f: FiberContext) -> float:
    """0 where the pair sample exists: ``finsler_sample`` raises
    NotPositiveDefiniteError where a leading minor of g is below tol_pd."""
    _ = f.sample
    return 0.0


CHECKS = (
    Check("metric-validity",
          "homogeneity, Euler identity, Cartan trace, positive-definiteness, "
          "Randers covector bound",
          (), (
              Facet("metric-validity:homogeneity",
                    lambda f: homogeneity_residual(f.base.s.metric,
                                                   f.base.x, f.y),
                    "homogeneity", fiber=True),
              Facet("metric-validity:euler",
                    lambda f: euler_residual(f.base.s.metric, f.base.x, f.y),
                    "homogeneity", fiber=True),
              Facet("metric-validity:cartan-trace",
                    lambda f: cartan_trace_residual(f.sample),
                    "homogeneity", fiber=True, reads=_plan_pairs),
              Facet("metric-validity:positive-definite", _positive_definite,
                    fiber=True, reads=_plan_pairs),
              Facet("metric-validity:randers-bound",
                    lambda f: f.base.alpha_norm, fiber=True,
                    when=lambda s: s.metric.family == "randers",
                    bound=1.0 - 1e-6),
          )),
    Check("structural",
          "torsion-freeness and almost-metric-compatibility residuals of the "
          "connection coefficients",
          (), (
              Facet("structural:torsion", lambda f: f.structural.torsion,
                    fiber=True, reads=_plan_pairs),
              Facet("structural:compat",
                    lambda f: (f.structural.compat, f.structural.scale),
                    "structural-compat", fiber=True, reads=_plan_pairs),
          )),
    Check("preservation",
          "two-form validity (closedness, nondegeneracy) and the "
          "lift-preservation residual; Randers d(beta) equivalence",
          ("two_form",), (
              Facet("preservation:closedness",
                    lambda c: closedness(c.form[1]), "closedness"),
              Facet("preservation:nondegeneracy", _nondegeneracy),
              Facet("preservation:lift", lambda f: f.lift.max_abs,
                    "preservation", fiber=True, reads=_plan_pairs),
              Facet("preservation:randers-equivalence", _randers_equivalence,
                    "randers-equivalence", fiber=True, reads=_plan_pairs,
                    when=lambda s: (s.metric.family == "randers"
                                    and s.two_form_kind == "randers-dbeta")),
          )),
    Check("induce",
          "symmetry of the induced connection and exact agreement of its "
          "two-form residual with the lift residual along W",
          ("vector_field",), (
              Facet("induce:symmetry", lambda c: _max_abs(
                  c.sample_w.chern - c.sample_w.chern.transpose(0, 2, 1)),
                    reads=_w),
              Facet("induce:exactness", _exactness, "exactness",
                    when=_has_two_form, reads=_w),
          )),
    Check("darboux",
          "standard-form coefficient relations at points where the "
          "connection preserves the standard two-form",
          ("vector_field",), (
              Facet("darboux:relations",
                    lambda c: darboux_relations_residual(
                        c.sample_w.chern, c.s.dimension // 2),
                    "darboux", gate=lambda c: c.standard_lift_w.max_abs,
                    reads=_w),
          ), even_dimension=True),
    Check("transform",
          "round trip of the coefficient transformation law through the "
          "configured chart and back",
          ("vector_field", "chart"), (
              Facet("transform:roundtrip", _roundtrip, "transform",
                    reads=_w),
          )),
    Check("minkowski",
          "preservation conditions of an x-independent metric in natural "
          "and hatted charts, and their consistency with the transformation "
          "law",
          ("two_form", "chart"), (
              Facet("minkowski:natural", lambda c: c.minkowski[0],
                    "minkowski", reads=_minkowski_probes),
              Facet("minkowski:hatted", lambda c: c.minkowski[1],
                    "minkowski", reads=_minkowski_probes),
              Facet("minkowski:equivalence", lambda c: c.minkowski[2],
                    "minkowski", reads=_minkowski_probes),
          )),
    Check("berwald-uniqueness",
          "spread of the induced connection across distinct probe vector "
          "fields",
          ("vector_field",), (
              Facet("berwald-uniqueness:spread", _berwald_spread,
                    "berwald-uniqueness", reads=_berwald_probes),
          )),
    Check("curvature",
          "chain-rule curvature against a finite-difference commutator of "
          "the induced-connection field; exact last-pair antisymmetry",
          ("vector_field",), (
              Facet("curvature:fd-consistency", _fd_consistency,
                    "curvature-fd"),
              Facet("curvature:antisymmetry",
                    lambda c: _max_abs(c.up + c.up.swapaxes(2, 3))),
          )),
    Check("bianchi",
          "cyclic curvature sum (first Bianchi identity) and the contracted "
          "two-path comparison",
          ("vector_field",), (
              Facet("bianchi:cyclic", lambda c: cyclic_residual(c.up),
                    "bianchi"),
              Facet("bianchi:two-path",
                    lambda c: contracted_two_path(
                        c.up, c.brace, c.form[0]).paths_delta,
                    "two-path", when=_has_two_form),
          )),
    Check("pair-symmetry",
          "first-pair symmetry of the lowered curvature at preserving "
          "points; printed-formula two-path comparison",
          ("vector_field", "two_form"), (
              Facet("pair-symmetry:two-path", lambda c: c.pair.paths_delta,
                    "two-path"),
              Facet("pair-symmetry:lowered",
                    lambda c: (c.pair.assembled, c.pair.scale),
                    "pair-symmetry", gate=lambda c: c.lift_w.max_abs,
                    reads=_w),
          )),
)

CHECK_IDS = tuple(check.id for check in CHECKS)
_BY_ID = {check.id: check for check in CHECKS}


def available_checks(s: BuiltScenario) -> list[str]:
    """Check ids whose required config blocks are present and whose
    dimension rule the scenario meets."""
    return [check.id for check in CHECKS
            if all(getattr(s, need) is not None for need in check.requires)
            and not (check.even_dimension and s.dimension % 2 != 0)]


def _evaluate(facet: Facet, ctx, point, tolerances: dict
              ) -> CheckRecord | None:
    tolerance = tolerances[facet.tol] if facet.tol else facet.bound
    t0 = time.perf_counter()
    try:
        if (facet.gate is not None
                and facet.gate(ctx) > tolerances["preservation-gate"]):
            return None  # asserted only where the connection keeps the form
        out = facet.residual(ctx)
        residual, scale = out if isinstance(out, tuple) else (out, 1.0)
        bound = tolerance * scale
        if not np.isfinite([residual, bound]).all():
            raise DomainError(f"non-finite residual {residual:.3e} or "
                              f"bound {bound:.3e}")
    except FinsymError as exc:
        return CheckRecord.failed(facet.name, point,
                                  f"{type(exc).__name__}: {exc}", tolerance,
                                  time.perf_counter() - t0)
    return CheckRecord.evaluated(facet.name, point, residual, bound,
                                 time.perf_counter() - t0)


def _select(s: BuiltScenario, suite) -> list[Check]:
    ids = available_checks(s) if suite is None else list(suite)
    for cid in ids:
        if cid not in _BY_ID:
            raise ConfigError(f"unknown check id {cid!r}", "/suite")
        for need in _BY_ID[cid].requires:
            if getattr(s, need) is None:
                raise ConfigError(f"check {cid!r} requires the {need} block",
                                  f"/{need}")
    checks = [_BY_ID[cid] for cid in sorted(set(ids))]
    for check in checks:
        if check.even_dimension and s.dimension % 2 != 0:
            raise ConfigError(f"{check.id} relations need an even dimension, "
                              f"got {s.dimension}", "/dimension")
    return checks


def run_scenario(config: dict, suite=None, seed_override: int | None = None,
                 tolerance_overrides: dict | None = None) -> list[CheckRecord]:
    """Run the requested checks over one scenario config.

    ``suite`` is an iterable of check ids; None runs every check in
    :func:`available_checks`.  Records come back sorted by record id, then by
    sample-point order.  Sampling is deterministic for a given config and
    seed, so two runs produce identical records.
    """
    return run_checks(build_scenario(config, seed_override=seed_override,
                                     tolerance_overrides=tolerance_overrides),
                      suite)


def run_checks(s: BuiltScenario, suite=None) -> list[CheckRecord]:
    """Run the requested checks over a built scenario's sample plan, as
    :func:`run_scenario` does."""
    checks = _select(s, suite)
    facets = [f for check in checks for f in check.facets
              if f.when is None or f.when(s)]
    records: list[CheckRecord] = []
    sc = (FedosovScenario(s.metric, s.vector_field, s.two_form)
          if s.vector_field is not None else None)
    for block in _sample_blocks(s, sc, facets):
        for ctx in block:
            records.extend(_run_point(ctx, facets))
    records.sort(key=lambda r: r.check)
    return records


def _run_point(ctx: PointContext, facets: list[Facet]) -> list:
    """The records of the facets at one base point, in facet order."""
    fibers = [FiberContext(ctx, y) for y in ctx.ys]
    records = []
    for facet in facets:
        if facet.fiber:
            found = [_evaluate(facet, f, f.point, ctx.s.tolerances)
                     for f in fibers]
        else:
            found = [_evaluate(facet, ctx, ctx.x, ctx.s.tolerances)]
        records.extend(r for r in found if r is not None)
    return records
