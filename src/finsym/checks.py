"""Check registry: every verification the engine can run over a scenario.

A check is a named group of facets.  A facet is one residual with its own
record id, tolerance rule and point set: the base points x, or the (x, y)
pairs of the plan.  The runner visits each base point once and fills a
lazy :class:`PointContext` there, so a quantity several facets read is
computed once and dropped with the context.  Domain failures never abort a
suite: a facet whose evaluation raises gets an error record.  Record order
is fixed: record ids sorted, then points in plan order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
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
from .errors import ConfigError, FinsymError
from .fedosov import (
    ConnectionCoefficients,
    FedosovScenario,
    berwald_uniqueness_probe,
    covariant_residual,
    darboux_relations_residual,
    hatted_preservation_residual,
    minkowski_preservation_check,
    transform_connection,
)
from .finsler import finsler_sample, pair_validity, structural_residuals
from .records import CheckRecord
from .scenario import BuiltScenario, build_scenario
from .symplectic import (
    PreservationResidual,
    closedness,
    nondegeneracy,
    preservation_entries,
    randers_condition,
    standard_form,
)


class _once:
    """A lazily computed attribute.  An exception is kept like a value and
    raised again on every read, so a failed quantity is not recomputed."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.key = f"_{name}"

    def __get__(self, obj, owner=None):
        cache = obj.__dict__
        if self.key not in cache:
            try:
                cache[self.key] = (self.fn(obj), None)
            except Exception as exc:  # noqa: BLE001 - re-raised on every read
                cache[self.key] = (None, exc)
        value, exc = cache[self.key]
        if exc is not None:
            raise exc
        return value


def _lift(chern, w, dw) -> PreservationResidual:
    return PreservationResidual.of(preservation_entries(w, dw, chern))


def _minkowski(c: "PointContext") -> tuple[float, float, float]:
    s, x = c.s, c.x
    mk = minkowski_preservation_check(s.metric, s.two_form, s.chart, x)
    ghat = transform_connection(
        ConnectionCoefficients.zero(s.dimension), s.chart, x)
    hatted = hatted_preservation_residual(s.two_form, s.chart, x, ghat)
    return mk.natural, mk.hatted, abs(mk.hatted - hatted.max_abs)


class PointContext:
    """What the facets read at one base point x, each computed on first use.

    ``sample_w`` is the value path at (x, W(x)) and ``derivatives`` the jet
    path there.  ``lift_w`` is the lift-preservation residual of the
    scenario's form along W, ``standard_lift_w`` that of the standard form.
    The finite-difference curvature ``fd`` evaluates its own stencil and
    reads nothing else from the context.
    """

    def __init__(self, s: BuiltScenario, sc: FedosovScenario | None, x):
        self.s, self.sc, self.x = s, sc, x

    w = _once(lambda c: c.s.vector_field.values(c.x))
    sample_w = _once(lambda c: finsler_sample(c.s.metric, c.x, c.w))
    gamma = _once(lambda c: ConnectionCoefficients(c.s.dimension,
                                                   c.sample_w.chern))
    omega = _once(lambda c: c.s.two_form.values(c.x))
    domega = _once(lambda c: c.s.two_form.derivative_values(c.x))
    lift_w = _once(lambda c: _lift(c.sample_w.chern, c.omega, c.domega))
    standard_lift_w = _once(lambda c: _lift(
        c.sample_w.chern, *_standard_data(c.s.dimension // 2, c.x)))
    derivatives = _once(lambda c: induced_derivatives(c.sc, c.x, c.w))
    up = _once(lambda c: curvature_up(*c.derivatives))
    brace = _once(lambda c: brace_array(*c.derivatives))
    pair = _once(lambda c: pair_two_path(c.up, c.brace, c.omega))
    fd = _once(lambda c: curvature_fd_commutator(c.sc, c.x))
    minkowski = _once(_minkowski)


def _standard_data(n: int, x) -> tuple[np.ndarray, np.ndarray]:
    std = standard_form(n)
    return std.values(x), std.derivative_values(x)


class FiberContext:
    """What the facets read at one pair (x, y) of the plan."""

    def __init__(self, base: PointContext, y):
        self.base, self.y = base, y
        self.point = np.concatenate([base.x, y])

    sample = _once(lambda f: finsler_sample(f.base.s.metric, f.base.x, f.y))
    structural = _once(lambda f: structural_residuals(f.sample))
    lift = _once(lambda f: _lift(f.sample.chern, f.base.omega,
                                 f.base.domega))


@dataclass(frozen=True)
class Facet:
    """One residual of a check, recorded under ``name``.

    ``residual`` maps the context (a FiberContext when ``fiber``) to the
    residual, or to (residual, scale) where the bound is relative: the
    record's tolerance is ``tolerances[tol] * scale``, and 0 when ``tol``
    is None.  A ``gate`` returns a preservation residual along W; the point
    is skipped where it exceeds the preservation-gate tolerance.  ``when``
    limits the facet to scenarios it applies to.
    """

    name: str
    residual: Callable
    tol: str | None = None
    fiber: bool = False
    gate: Callable | None = None
    when: Callable[[BuiltScenario], bool] | None = None


@dataclass(frozen=True)
class Check:
    """A check id, what it verifies, the config blocks it needs, and either
    its facets or a ``pair_records`` function producing all its records at
    one (x, y) pair from that pair's FiberContext.  An ``even_dimension``
    check is left out of the default suite on odd dimensions and rejected
    when requested there."""

    id: str
    description: str
    requires: tuple[str, ...]
    facets: tuple[Facet, ...] = ()
    pair_records: Callable[[FiberContext], list[CheckRecord]] | None = None
    even_dimension: bool = False


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _nondegeneracy(c: PointContext) -> float:
    return max(0.0, c.s.tolerances["tol_nd"] - nondegeneracy(c.omega))


def _randers_equivalence(f: FiberContext) -> float:
    pres = f.lift
    cond = randers_condition(f.base.s.metric, f.base.x, f.sample.chern)
    scale = max(1.0, _max_abs(pres.entries))
    return _max_abs(cond.entries + pres.entries) / scale


def _exactness(c: PointContext) -> float:
    gam = c.gamma
    pres = c.lift_w
    return abs(covariant_residual(gam.array, c.omega, c.domega) - pres.max_abs)


def _roundtrip(c: PointContext) -> float:
    chart, gam = c.s.chart, c.gamma
    ghat = transform_connection(gam, chart, c.x)
    back = transform_connection(ghat, chart.swapped(), chart.forward_point(c.x))
    return _max_abs(back.array - gam.array)


def _fd_consistency(c: PointContext) -> tuple[float, float]:
    up, fd = c.up, c.fd
    scale = max(1.0, _max_abs(up), _max_abs(fd))
    return _max_abs(up - fd), scale


def _has_two_form(s: BuiltScenario) -> bool:
    return s.two_form is not None


def _metric_validity(f: FiberContext) -> list[CheckRecord]:
    s = f.base.s
    return pair_validity(s.metric, f.base.x, f.y, lambda: f.sample,
                         homogeneity_tol=s.tolerances["homogeneity"])


CHECKS = (
    Check("metric-validity",
          "homogeneity, Euler identity, Cartan trace, positive-definiteness, "
          "Randers covector bound",
          (), pair_records=_metric_validity),
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
              Facet("preservation:closedness", lambda c: closedness(c.domega),
                    "closedness"),
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
                  c.gamma.array - c.gamma.array.transpose(0, 2, 1))),
              Facet("induce:exactness", _exactness, "exactness",
                    when=_has_two_form),
          )),
    Check("darboux",
          "standard-form coefficient relations at points where the "
          "connection preserves the standard two-form",
          ("vector_field",), (
              Facet("darboux:relations",
                    lambda c: darboux_relations_residual(
                        c.gamma, c.s.dimension // 2),
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
              Facet("berwald-uniqueness:spread",
                    lambda c: berwald_uniqueness_probe(
                        c.sc, c.x, c.s.berwald_vectors),
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
                        c.up, c.brace, c.omega).paths_delta,
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
    tolerance = tolerances[facet.tol] if facet.tol else 0.0
    t0 = time.perf_counter()
    try:
        if (facet.gate is not None
                and facet.gate(ctx) > tolerances["preservation-gate"]):
            return None  # asserted only where the connection keeps the form
        out = facet.residual(ctx)
    except FinsymError as exc:
        return CheckRecord.failed(facet.name, point,
                                  f"{type(exc).__name__}: {exc}", tolerance,
                                  time.perf_counter() - t0)
    residual, scale = out if isinstance(out, tuple) else (out, 1.0)
    return CheckRecord.evaluated(facet.name, point, residual,
                                 tolerance * scale, time.perf_counter() - t0)


def _timed_batch(pair_records: Callable, f: FiberContext
                 ) -> list[CheckRecord]:
    t0 = time.perf_counter()
    batch = pair_records(f)
    elapsed = (time.perf_counter() - t0) / max(1, len(batch))
    for r in batch:
        r.elapsed = elapsed
    return batch


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
    s = build_scenario(config, seed_override=seed_override,
                       tolerance_overrides=tolerance_overrides)
    checks = _select(s, suite)
    pair_checks = [check.pair_records for check in checks
                   if check.pair_records is not None]
    facets = [f for check in checks for f in check.facets
              if f.when is None or f.when(s)]
    records: list[CheckRecord] = []
    sc = (FedosovScenario(s.metric, s.vector_field, s.two_form)
          if s.vector_field is not None else None)
    for x, ys in zip(s.plan.xs, s.plan.ys):
        ctx = PointContext(s, sc, x)
        fibers = [FiberContext(ctx, y) for y in ys]
        for pair_records in pair_checks:
            for f in fibers:
                records.extend(_timed_batch(pair_records, f))
        for facet in facets:
            if facet.fiber:
                found = [_evaluate(facet, f, f.point, s.tolerances)
                         for f in fibers]
            else:
                found = [_evaluate(facet, ctx, x, s.tolerances)]
            records.extend(r for r in found if r is not None)
    records.sort(key=lambda r: r.check)
    return records
