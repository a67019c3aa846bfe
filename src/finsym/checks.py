"""Check registry: every verification the engine can run over a scenario.

A check is a named group of facets.  A facet is one residual with its own
record id, tolerance rule and point set: the base points x, or the (x, y)
pairs of the plan.  The runner cuts the plan into blocks of consecutive
base points and visits each base point once, filling a lazy
:class:`PointContext` there, so a quantity several facets read is
computed once and dropped with its block.  Every field quantity is a
column of the block, one call over its rows on first read
(:class:`_batched`); W(x) is one of them.  Every Finsler sample, at the
plan pairs, (x, W(x)), the Berwald probes or the Minkowski probes, comes
from the block's one sample cache, which samples the pairs it has not
seen in one :func:`finsler_samples` call.  The finite-difference
commutator samples its own stencil block and reads none of these.  Domain
failures never abort a suite: :func:`_evaluate`, which makes every record,
gives an error record where a facet raises or its residual or tolerance is
not finite.  Record order is fixed: record ids sorted, then points in plan
order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

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
from .errors import (ConfigError, DomainError, FinsymError, ZeroVectorError,
                     each_row)
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
    cartan_trace_residual,
    euler_residuals,
    finsler_samples,
    homogeneity_residuals,
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


# plan pairs per block, in whole base points: a block holds
# max(1, _BLOCK_PAIRS // y_per_x) base points.  On a 3-d Randers plan, 64
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
            cache[key] = (None, exc.with_traceback(None))
    return _read(cache[key])


def _read(entry: tuple):
    """The value of a ``(value, error)`` cache entry, or its error raised
    afresh.  Who drops a raised error clears its traceback: the frames hold
    the caching context, a cycle reference counting cannot free."""
    value, exc = entry
    if exc is not None:
        raise exc.with_traceback(None)
    return value


def _entry(result) -> tuple:
    """The ``(value, error)`` cache entry of a value or a FinsymError."""
    if isinstance(result, FinsymError):
        return None, result
    return result, None


def _rows(fn, *stacks) -> list:
    """The entry of each row of ``fn`` over the stacks (:func:`each_row`)."""
    return [_entry(r) for r in each_row(fn, *stacks)]


def _where(entries: list, fn, xs: np.ndarray) -> list:
    """``fn(xs, values)`` on the rows whose entry holds a value, the values
    stacked; every other row keeps its entry's error."""
    ok = [p for p, (_, exc) in enumerate(entries) if exc is None]
    out = list(entries)
    if ok:
        values = np.array([entries[p][0] for p in ok])
        for p, entry in zip(ok, _rows(fn, xs[ok], values)):
            out[p] = entry
    return out


class _once:
    """A lazily computed attribute, cached by :func:`_cached`."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.key = f"_{name}"

    def __get__(self, obj, owner=None):
        return _cached(obj.__dict__, self.key, lambda: self.fn(obj))


class _batched(_once):
    """A context's row of a block column: ``fn(block)`` gives one entry per
    row of the context's block, computed on the block's first read."""

    def __get__(self, c, owner=None):
        return self if c is None else _read(self.rows(c.block)[c.row])

    def rows(self, block) -> list:
        return _cached(block.__dict__, self.key, lambda: self.fn(block))


class _Block:
    """The plan's base points ``start`` to ``stop`` and their pairs,
    stacked, over which the contexts' :class:`_batched` columns run, with
    the Finsler samples taken there.  A block refers to no context."""

    def __init__(self, s: BuiltScenario, sc: FedosovScenario | None,
                 start: int, stop: int):
        self.s, self.sc = s, sc
        self.xs, self.ys = s.plan.xs[start:stop], s.plan.ys[start:stop]
        self.pairs = (np.repeat(self.xs, self.ys.shape[1], axis=0),
                      self.ys.reshape(-1, s.dimension))
        self._samples: dict = {}  # by x.tobytes() + y.tobytes()

    def samples(self, xs, ys) -> list:
        """What :func:`finsler_samples` gives at each pair (xs[p], ys[p]).
        Each distinct pair is sampled once per block: those not seen
        before, in one call."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keys = [x.tobytes() + y.tobytes() for x, y in zip(xs, ys)]
        todo = {k: p for p, k in enumerate(keys) if k not in self._samples}
        if todo:
            rows = list(todo.values())
            self._samples.update(zip(todo, finsler_samples(
                self.s.metric, xs[rows], ys[rows])))
        return [self._samples[k] for k in keys]


def _probe_samples(b: _Block, probes) -> list:
    """Each row's samples at the probe vectors, one :meth:`_Block.samples`
    call per probe, as an entry: the error of the row's first failing
    probe, in probe order, where one fails.  A row is sampled at a probe
    only while its earlier probes succeed."""
    rows = [([], None) for _ in b.xs]
    for v in probes:
        ok = [p for p, (_, exc) in enumerate(rows) if exc is None]
        found = b.samples(b.xs[ok], np.tile(v, (len(ok), 1)))
        for p, result in zip(ok, found):
            if isinstance(result, FinsymError):
                rows[p] = (None, result)
            else:
                rows[p][0].append(result)
    return rows


def _minkowski(c: "PointContext") -> tuple[float, float, float]:
    require_minkowskian([smp.chern for smp in c.minkowski_samples])
    mk = minkowski_preservation_check(c.form[1], c.jac, c.hatted)
    ghat = transform_connection(np.zeros((c.s.dimension,) * 3), c.jac)
    hatted = PreservationResidual.of(*c.hatted, ghat)
    return mk.natural, mk.hatted, abs(mk.hatted - hatted.max_abs)


def _swapped_jacobians(b: _Block) -> list:
    """The swapped chart's derivatives at each row's mapped point."""
    chart = b.s.chart.swapped()
    return _where([(None, exc) if exc else (jac.xhat, None)
                   for jac, exc in PointContext.jac.rows(b)],
                  lambda _, xhats: chart_jacobians(chart, xhats), b.xs)


class PointContext:
    """What the facets read at one base point x, the ``row``-th of its
    block, and its plan fiber points ``ys``, each computed on first use.

    Every field quantity is a :class:`_batched` column of the block, and
    every Finsler sample comes from the block's one sample cache
    (:meth:`_Block.samples`), so each distinct (x, y) is sampled once
    whichever facets read it.  ``w`` is W(x), ``sample_w`` the sample at
    (x, W(x)) and ``derivatives`` the jet path there; ``berwald_samples``
    and ``minkowski_samples`` are the samples at the Berwald probe vectors
    and the Minkowski probes.  ``lift_w`` is the lift-preservation
    residual of the scenario's form along W, ``standard_lift_w`` that of
    the standard form.  ``jac`` holds the chart derivatives at x, ``back``
    the swapped chart's at the mapped point, and ``hatted`` the scenario's
    form pulled back through ``jac``.  ``form`` holds the scenario's
    two-form and its partials at x; ``covector`` the first and second
    derivative arrays of the Randers covector b there, from which a
    d(beta) form is read rather than evaluating b again, and
    ``alpha_norm`` the Randers covector's alpha-norm, shared by the pairs
    at x.  The finite-difference curvature ``fd`` samples its own stencil
    block and reads nothing else from the context.
    """

    def __init__(self, block: _Block, row: int):
        self.block, self.row = block, row
        self.s, self.sc = block.s, block.sc
        self.x, self.ys = block.xs[row], block.ys[row]

    w = _batched(lambda b: _rows(b.s.vector_field.values, b.xs))
    sample_w = _batched(lambda b: _where(
        PointContext.w.rows(b), b.samples, b.xs))
    berwald_samples = _batched(lambda b: _probe_samples(
        b, _berwald_probes(b.s)))
    minkowski_samples = _batched(lambda b: _probe_samples(
        b, minkowski_probes(b.s.dimension)))
    form = _once(lambda c: (exact_form_data(*c.covector)
                            if c.s.two_form_kind == "randers-dbeta"
                            else c.form_data))
    form_data = _batched(lambda b: _rows(b.s.two_form.data, b.xs))
    # G is read first: where both the connection and the form fail, the
    # record carries the connection's error
    lift_w = _once(lambda c: PreservationResidual.of(
        G=c.sample_w.chern, w=c.form[0], dw=c.form[1]))
    standard_lift_w = _once(lambda c: PreservationResidual.of(
        *_standard_data(c.s.dimension // 2), c.sample_w.chern))
    derivatives = _batched(lambda b: _where(
        PointContext.w.rows(b), partial(induced_derivatives, b.sc), b.xs))
    up = _once(lambda c: curvature_up(*c.derivatives))
    brace = _once(lambda c: brace_array(*c.derivatives))
    pair = _once(lambda c: pair_two_path(c.up, c.brace, c.form[0]))
    # The FD path samples its own centre and stencil, (x, W(x)) included, in
    # a block of its own: reading sample_w would let it share a result with
    # the path it checks.
    fd = _once(lambda c: curvature_fd_commutator(c.sc, c.x))
    jac = _batched(lambda b: _rows(partial(chart_jacobians, b.s.chart), b.xs))
    back = _batched(_swapped_jacobians)
    hatted = _once(lambda c: hatted_two_form_data(*c.form, c.jac))
    covector = _batched(lambda b: _rows(
        partial(covector_derivatives, b.s.metric.b_fields), b.xs))
    minkowski = _once(_minkowski)
    alpha_norm = _batched(lambda b: _rows(
        partial(randers_alpha_norm, b.s.metric), b.xs))


@lru_cache(maxsize=None)
def _standard_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard form's components and partials: constant, so read once
    (at the origin) and shared, read-only, by every base point."""
    (w, dw), = standard_form(n).data(np.zeros((1, 2 * n)))
    w.flags.writeable = dw.flags.writeable = False
    return w, dw


class FiberContext:
    """What the facets read at one pair (x, y) of the plan, the ``row``-th
    pair of its block."""

    def __init__(self, base: PointContext, y, row: int):
        self.base, self.y = base, y
        self.block, self.row = base.block, row
        self.point = np.concatenate([base.x, y])

    sample = _batched(lambda b: _rows(b.samples, *b.pairs))

    structural = _once(lambda f: structural_residuals(f.sample))
    lift = _once(lambda f: PreservationResidual.of(
        G=f.sample.chern, w=f.base.form[0], dw=f.base.form[1]))
    homogeneity = _batched(lambda b: _rows(
        partial(homogeneity_residuals, b.s.metric), *b.pairs))
    euler = _batched(lambda b: _rows(
        partial(euler_residuals, b.s.metric), *b.pairs))


@dataclass(frozen=True)
class Facet:
    """One residual of a check, recorded under ``name``.

    ``residual`` maps the context (a FiberContext when ``fiber``) to the
    residual, or to (residual, scale) where the bound is relative: the
    record's tolerance is ``tolerances[tol] * scale``, or the fixed
    ``bound * scale`` when ``tol`` is None.  A ``gate`` returns a
    preservation residual along W; the point is skipped where it exceeds
    the preservation-gate tolerance.  ``when`` limits the facet to
    scenarios it applies to.  What a facet reads, samples included, is
    computed for its whole block on first read, so a facet declares
    nothing beyond its residual.
    """

    name: str
    residual: Callable
    tol: str | None = None
    fiber: bool = False
    gate: Callable | None = None
    when: Callable[[BuiltScenario], bool] | None = None
    bound: float = 0.0


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
    return _max_abs(transform_connection(ghat, c.back) - G)


def _berwald_probes(s: BuiltScenario) -> tuple[np.ndarray, ...]:
    """The Berwald probe vectors; ZeroVectorError if one is below W's
    floor."""
    floor = s.vector_field.w_min
    for v in s.berwald_vectors:
        norm = math.hypot(*v)  # scaled, so a large probe cannot overflow
        if norm < floor:
            raise ZeroVectorError(
                f"probe vector norm {norm:.3e} below floor {floor}"
            )
    return s.berwald_vectors


def _berwald_spread(c: PointContext) -> float:
    return max_pairwise_spread([smp.chern for smp in c.berwald_samples])


def _fd_consistency(c: PointContext) -> tuple[float, float]:
    up, fd = c.up, c.fd
    scale = max(1.0, _max_abs(up), _max_abs(fd))
    return _max_abs(up - fd), scale


def _has_two_form(s: BuiltScenario) -> bool:
    return s.two_form is not None


def _positive_definite(f: FiberContext) -> float:
    """0 where the pair sample exists: the sample of a pair is a
    NotPositiveDefiniteError where a leading minor of g is below tol_pd."""
    _ = f.sample
    return 0.0


CHECKS = (
    Check("metric-validity",
          "homogeneity, Euler identity, Cartan trace, positive-definiteness, "
          "Randers covector bound",
          (), (
              Facet("metric-validity:homogeneity", lambda f: f.homogeneity,
                    "homogeneity", fiber=True),
              Facet("metric-validity:euler", lambda f: f.euler,
                    "homogeneity", fiber=True),
              Facet("metric-validity:cartan-trace",
                    lambda f: cartan_trace_residual(f.sample),
                    "homogeneity", fiber=True),
              Facet("metric-validity:positive-definite", _positive_definite,
                    fiber=True),
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
                    fiber=True),
              Facet("structural:compat",
                    lambda f: (f.structural.compat, f.structural.scale),
                    "structural-compat", fiber=True),
          )),
    Check("preservation",
          "two-form validity (closedness, nondegeneracy) and the "
          "lift-preservation residual; Randers d(beta) equivalence",
          ("two_form",), (
              Facet("preservation:closedness",
                    lambda c: closedness(c.form[1]), "closedness"),
              Facet("preservation:nondegeneracy", _nondegeneracy),
              Facet("preservation:lift", lambda f: f.lift.max_abs,
                    "preservation", fiber=True),
              Facet("preservation:randers-equivalence", _randers_equivalence,
                    "randers-equivalence", fiber=True,
                    when=lambda s: (s.metric.family == "randers"
                                    and s.two_form_kind == "randers-dbeta")),
          )),
    Check("induce",
          "symmetry of the induced connection and exact agreement of its "
          "two-form residual with the lift residual along W",
          ("vector_field",), (
              Facet("induce:symmetry", lambda c: _max_abs(
                  c.sample_w.chern - c.sample_w.chern.transpose(0, 2, 1))),
              Facet("induce:exactness", _exactness, "exactness",
                    when=_has_two_form),
          )),
    Check("darboux",
          "standard-form coefficient relations at points where the "
          "connection preserves the standard two-form",
          ("vector_field",), (
              Facet("darboux:relations",
                    lambda c: darboux_relations_residual(
                        c.sample_w.chern, c.s.dimension // 2),
                    "darboux", gate=lambda c: c.standard_lift_w.max_abs),
          ), even_dimension=True),
    Check("transform",
          "round trip of the coefficient transformation law through the "
          "configured chart and back",
          ("vector_field", "chart"), (
              Facet("transform:roundtrip", _roundtrip, "transform"),
          )),
    Check("minkowski",
          "preservation conditions of an x-independent metric in natural "
          "and hatted charts, and their consistency with the transformation "
          "law",
          ("two_form", "chart"), (
              Facet("minkowski:natural", lambda c: c.minkowski[0],
                    "minkowski"),
              Facet("minkowski:hatted", lambda c: c.minkowski[1],
                    "minkowski"),
              Facet("minkowski:equivalence", lambda c: c.minkowski[2],
                    "minkowski"),
          )),
    Check("berwald-uniqueness",
          "spread of the induced connection across distinct probe vector "
          "fields",
          ("vector_field",), (
              Facet("berwald-uniqueness:spread", _berwald_spread,
                    "berwald-uniqueness"),
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
                    "pair-symmetry", gate=lambda c: c.lift_w.max_abs),
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
        exc.__traceback__ = None  # see _read
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
    size = max(1, _BLOCK_PAIRS // s.plan.ys.shape[1])
    for start in range(0, len(s.plan.xs), size):
        block = _Block(s, sc, start, start + size)
        for row in range(len(block.xs)):
            records.extend(_run_point(PointContext(block, row), facets))
    records.sort(key=lambda r: r.check)
    return records


def _run_point(ctx: PointContext, facets: list[Facet]) -> list:
    """The records of the facets at one base point, in facet order."""
    first = ctx.row * len(ctx.ys)  # the block's pairs, base point by point
    fibers = [FiberContext(ctx, y, first + j) for j, y in enumerate(ctx.ys)]
    records = []
    for facet in facets:
        if facet.fiber:
            found = [_evaluate(facet, f, f.point, ctx.s.tolerances)
                     for f in fibers]
        else:
            found = [_evaluate(facet, ctx, ctx.x, ctx.s.tolerances)]
        records.extend(r for r in found if r is not None)
    return records
