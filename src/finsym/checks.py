"""Check registry: every verification the engine can run over a scenario.

A check is a named group of facets.  A facet is one residual with its own
record id and tolerance rule, at each base point x or each (x, y) pair of
the plan.  The runner cuts the plan into blocks of consecutive base
points, and a facet is a column of a block (:class:`_Column`).  A column
is a struct of arrays: one stack of its values, each field an array with
a row per block row that holds a value, and a ``{row: FinsymError}`` map
of the other rows.  What a facet reads is a column of the block too,
computed on first read and kept with the block, so each quantity is
computed once.  A column is one call over the rows where every input
column holds a value, the inputs gathered there by fancy indexing, and
every other row carries its first failing input's error (:func:`_inputs`,
:func:`_stacked`).  The Finsler samples of every kind come from the
block's one sample cache (:meth:`_Block.samples`).  The finite-difference
commutator, stacked over the rows where the chain-rule curvature exists,
samples its base points' own stencils and reads no other column.  A gated
facet computes its residual only on the rows its gate lets through.
Records are made from the columns (:func:`_records`), and a row that holds
an error, or whose residual or bound is not finite, gets an error record,
so domain failures never abort a suite.  Record order is fixed: record ids
sorted, then points in plan order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable

import numpy as np

from . import finsler
from .curvature import (
    brace_array,
    contracted_two_path,
    curvature_fd_commutators,
    curvature_up,
    cyclic_residual,
    induced_derivatives,
    pair_two_path,
)
from .errors import (ConfigError, DomainError, FinsymError, ZeroVectorError,
                     concat_rows, each_row, take_rows)
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
    _max_abs_rows,
    _scale,
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


@dataclass(frozen=True, eq=False)
class _Column:
    """A quantity at each row of a block: each base point, or each plan
    pair where ``fiber``.  ``compute(block, rows)`` gives it at the
    ascending block rows ``rows`` as :func:`each_row` does: the rows that
    hold a value, one stack of their values and each other row's error."""

    compute: Callable
    fiber: bool = False


class _Block:
    """The plan's base points ``start`` to ``stop`` and their pairs,
    stacked, with the columns read there and the Finsler samples taken
    there."""

    def __init__(self, s: BuiltScenario, sc: FedosovScenario | None,
                 start: int, stop: int):
        self.s, self.sc = s, sc
        self.xs, self.ys = s.plan.xs[start:stop], s.plan.ys[start:stop]
        self.per_x = self.ys.shape[1]
        self.pairs = (np.repeat(self.xs, self.per_x, axis=0),
                      self.ys.reshape(-1, s.dimension))
        # each row's sample point as floats: base points, then pairs
        self.points = ([tuple(x) for x in self.xs.tolist()],
                       [tuple(x + y) for x, y in zip(
                           self.pairs[0].tolist(), self.pairs[1].tolist())])
        self._columns: dict = {}  # column -> its entries at every row
        # by the bytes of x then y: a row of _store, or the pair's error
        self._keys: dict = {}
        self._store: FinslerSample | None = None

    def read(self, column: _Column) -> tuple:
        """The column at every row, computed on its first read."""
        found = self._columns.get(column)
        if found is None:
            rows = np.arange(len(self.points[column.fiber]))
            found = self._columns[column] = column.compute(self, rows)
        return found

    def samples(self, xs, ys) -> FinslerSample:
        """The stack of what :func:`finsler_samples` gives at each pair
        (xs[p], ys[p]), gathered from the block's samples; raises the
        first failing pair's error.  Each distinct pair is sampled once
        per block: those not seen before, in one call."""
        xy = np.concatenate([xs, ys], axis=1)
        keys = xy.view(f"V{xy.shape[1] * 8}").ravel().tolist()
        todo = {k: p for p, k in enumerate(keys) if k not in self._keys}
        if todo:
            new, picked = list(todo), list(todo.values())
            rows, found, errors = finsler_samples(self.s.metric, xs[picked],
                                                  ys[picked])
            size = 0 if self._store is None else len(self._store.x)
            self._keys.update((new[p], e) for p, e in errors.items())
            self._keys.update((new[p], size + r)
                              for r, p in enumerate(rows.tolist()))
            if len(rows):
                self._store = found if self._store is None else concat_rows(
                    [self._store, found])
        at = [self._keys[k] for k in keys]
        for entry in at:
            if isinstance(entry, FinsymError):
                raise entry
        return take_rows(self._store, at)


def _inputs(b: _Block, inputs, rows: np.ndarray,
            fiber: bool) -> tuple[np.ndarray, list, dict]:
    """The inputs at ``rows`` of a column over the plan pairs where
    ``fiber``, a pair reading a base-point input at its base point, in
    order: ``(live, values, errors)``, the rows where every input holds a
    value, each input's stack gathered there, and each other row's first
    failing input's error."""
    def at(column, rows):
        return rows // b.per_x if fiber and not column.fiber else rows

    errors: dict = {}
    live, read = rows, []
    for column in inputs:
        held, values, failed = b.read(column)
        index = np.full(len(b.points[column.fiber]), -1)  # row -> its value
        index[held] = np.arange(len(held))
        bad = index[at(column, live)] < 0
        errors.update((p, failed[q]) for p, q in zip(
            live[bad].tolist(), at(column, live[bad]).tolist()))
        live = live[~bad]
        read.append((column, index, values))
    if not len(live):
        return live, [], errors
    return live, [take_rows(values, index[at(column, live)])
                  for column, index, values in read], errors


def _stacked(fn, *inputs: _Column, fiber: bool = False) -> _Column:
    """A column over the plan pairs where ``fiber`` or an input is: one call
    ``fn(block, xs, *values)``, or ``fn(block, xs, ys, *values)`` over
    pairs, on the rows where every input holds a value (:func:`_inputs`),
    giving a stack of them; a row where it fails holds the error its row
    alone raises (:func:`each_row`), and every other row its first input
    error."""
    fiber = fiber or any(column.fiber for column in inputs)

    def compute(b: _Block, rows: np.ndarray) -> tuple:
        live, values, errors = _inputs(b, inputs, rows, fiber)
        if not len(live):
            return live, None, errors
        stacks = [s[live] for s in (b.pairs if fiber else (b.xs,))]
        held, found, failed = each_row(partial(fn, b), *stacks, *values)
        errors.update(zip(live[list(failed)].tolist(), failed.values()))
        return live[held], found, errors
    return _Column(compute, fiber)


def _probe_chern(b: _Block, xs, probes) -> np.ndarray:
    """Each base point's connection arrays at the probe vectors,
    ``[p, probe, l, j, k]``, from one :meth:`_Block.samples` read; a base
    point alone raises its first failing probe's error."""
    k = len(probes)
    chern = b.samples(np.repeat(xs, k, axis=0),
                      np.tile(np.asarray(probes), (len(xs), 1))).chern
    return chern.reshape((len(xs), k) + chern.shape[1:])


def _berwald_probes(s: BuiltScenario) -> tuple[np.ndarray, ...]:
    """The Berwald probe vectors; ZeroVectorError if one is below W's
    floor."""
    floor = s.vector_field.w_min
    for v in s.berwald_vectors:
        norm = math.hypot(*v)  # scaled, so a large probe cannot overflow
        if norm < floor:
            raise ZeroVectorError(
                f"probe vector norm {norm:.3e} below floor {floor}")
    return s.berwald_vectors


@lru_cache(maxsize=None)
def _standard_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard form's components and partials, a stack of one row:
    constant, so read once (at the origin) and shared, read-only."""
    w, dw = standard_form(n).data(np.zeros((1, 2 * n)))
    w.flags.writeable = dw.flags.writeable = False
    return w, dw


def _lifts(samples: FinslerSample, form) -> PreservationResidual:
    """The lift-preservation residuals of a form at stacked samples, each
    with its base point's form; a column reads the sample before the form,
    so where both fail, the sample's error shows."""
    return PreservationResidual.stacked(*form, samples.chern)


def _minkowski(b: _Block, xs, _, form, jac, hatted) -> tuple:
    natural, hatted_residual = minkowski_preservation_check(form[1], jac,
                                                            hatted)
    ghat = transform_connection(np.zeros((len(xs),) + (b.s.dimension,) * 3),
                                jac)
    pres = PreservationResidual.stacked(*hatted, ghat)
    return natural, hatted_residual, np.abs(hatted_residual - pres.max_abs)


# The columns the facets read.  W is W(x), SAMPLE_W the sample at
# (x, W(x)) and DERIVATIVES the jet path there; SAMPLE is the sample at
# each plan pair, STRUCTURAL the structural residuals there and LIFT the
# lift residual of the scenario's form there, as LIFT_W is at (x, W(x))
# and STANDARD_LIFT_W that of the standard form.  JAC holds the chart
# derivatives at x, BACK the swapped chart's at the mapped point, and
# HATTED the form pulled back through JAC.  FD, over the rows where UP
# holds a value, takes W and the samples again on its base points' own
# stencils, (x, W(x)) included, in runs of at most finsler._block_pairs(n)
# rows, so it shares no result with the path it checks; a row carries its
# stencil's first failing point's error.
W = _stacked(lambda b, xs: b.s.vector_field.values(xs))
SAMPLE_W = _stacked(lambda b, xs, ws: b.samples(xs, ws), W)
DERIVATIVES = _stacked(lambda b, xs, ws: induced_derivatives(b.sc, xs, ws), W)
BERWALD_CHERN = _stacked(lambda b, xs: _probe_chern(
    b, xs, _berwald_probes(b.s)))
MINKOWSKI_CHERN = _stacked(lambda b, xs: _probe_chern(
    b, xs, minkowski_probes(b.s.dimension)))
COVECTOR = _stacked(lambda b, xs: covector_derivatives(b.s.metric.b_fields,
                                                       xs))
# a d(beta) form is read off the covector's derivative arrays, which
# randers-equivalence reads too, rather than evaluating b again
_FIELD_FORM = _stacked(lambda b, xs: b.s.two_form.data(xs))
_EXACT_FORM = _stacked(lambda b, xs, covector: exact_form_data(*covector),
                       COVECTOR)
FORM = _Column(lambda b, rows: b.read(
    _EXACT_FORM if b.s.two_form_kind == "randers-dbeta" else _FIELD_FORM))
JAC = _stacked(lambda b, xs: chart_jacobians(b.s.chart, xs))
BACK = _stacked(lambda b, xs, jac: chart_jacobians(b.s.chart.swapped(),
                                                   jac.xhat), JAC)
ALPHA_NORM = _stacked(lambda b, xs: randers_alpha_norm(b.s.metric, xs))
LIFT_W = _stacked(lambda b, xs, samples, form: _lifts(samples, form),
                  SAMPLE_W, FORM)
STANDARD_LIFT_W = _stacked(lambda b, xs, samples: _lifts(samples, [
    np.repeat(a, len(xs), axis=0) for a in _standard_data(
        b.s.dimension // 2)]), SAMPLE_W)
UP = _stacked(lambda b, xs, ds: curvature_up(*ds), DERIVATIVES)
BRACE = _stacked(lambda b, xs, ds: brace_array(*ds), DERIVATIVES)
PAIR = _stacked(lambda b, xs, up, brace, form: pair_two_path(up, brace,
                                                             form[0]),
                UP, BRACE, FORM)
FD = _stacked(lambda b, xs, up: curvature_fd_commutators(b.sc, xs), UP)
HATTED = _stacked(lambda b, xs, form, jac: hatted_two_form_data(*form, jac),
                  FORM, JAC)
MINKOWSKIAN = _stacked(lambda b, xs, chern: require_minkowskian(chern),
                       MINKOWSKI_CHERN)
MINKOWSKI = _stacked(_minkowski, MINKOWSKIAN, FORM, JAC, HATTED)
SAMPLE = _stacked(lambda b, xs, ys: b.samples(xs, ys), fiber=True)
STRUCTURAL = _stacked(lambda b, xs, ys, samples: structural_residuals(
    samples), SAMPLE)
LIFT = _stacked(lambda b, xs, ys, samples, form: _lifts(samples, form),
                SAMPLE, FORM)
HOMOGENEITY = _stacked(lambda b, xs, ys: homogeneity_residuals(
    b.s.metric, xs, ys), fiber=True)
EULER = _stacked(lambda b, xs, ys: euler_residuals(b.s.metric, xs, ys),
                 fiber=True)


@dataclass(frozen=True)
class Facet:
    """One residual of a check, recorded under ``name``.

    ``residual`` is a column of the block: at each base point, or at each
    plan pair where the column is ``fiber``, a stack of residuals, or a
    tuple (residuals, scales) where the bound is relative.  The record's
    tolerance is ``tolerances[tol] * scale``, or the fixed ``bound *
    scale`` when ``tol`` is None.  A ``gate`` is a column of preservation
    residuals along W: a row where its ``max_abs`` exceeds the
    preservation-gate tolerance gets no record, and the residual is
    computed only on the rows the gate lets through.
    ``when`` limits the facet to scenarios it applies to.
    """

    name: str
    residual: _Column
    tol: str | None = None
    gate: _Column | None = None
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


def _nondegeneracy(b: _Block, xs, form) -> np.ndarray:
    tol_nd = b.s.tolerances["tol_nd"]
    return np.array([max(0.0, tol_nd - d)
                     for d in nondegeneracy(form[0]).tolist()])


def _randers_equivalence(b: _Block, xs, ys, lifts, covector,
                         samples) -> np.ndarray:
    gap = randers_condition(*covector, samples.chern) + lifts.entries
    return _max_abs_rows(gap) / _scale(lifts.max_abs)


def _symmetry(b: _Block, xs, samples) -> np.ndarray:
    return _max_abs_rows(samples.chern - samples.chern.transpose(0, 1, 3, 2))


def _exactness(b: _Block, xs, samples, lift_w, form) -> np.ndarray:
    return np.abs(covariant_residual(samples.chern, *form) - lift_w.max_abs)


def _roundtrip(b: _Block, xs, samples, jac, back) -> np.ndarray:
    G = samples.chern
    return _max_abs_rows(transform_connection(transform_connection(G, jac),
                                              back) - G)


def _fd_consistency(b: _Block, xs, up, fd) -> tuple:
    return _max_abs_rows(up - fd), _scale(_max_abs_rows(up),
                                          _max_abs_rows(fd))


def _antisymmetry(b: _Block, xs, up) -> np.ndarray:
    return _max_abs_rows(up + up.swapaxes(3, 4))


def _two_path(b: _Block, xs, up, brace, form) -> np.ndarray:
    return contracted_two_path(up, brace, form[0]).paths_delta


def _has_two_form(s: BuiltScenario) -> bool:
    return s.two_form is not None


CHECKS = (
    Check("metric-validity",
          "homogeneity, Euler identity, Cartan trace, positive-definiteness, "
          "Randers covector bound",
          (), (
              Facet("metric-validity:homogeneity", HOMOGENEITY,
                    "homogeneity"),
              Facet("metric-validity:euler", EULER, "homogeneity"),
              Facet("metric-validity:cartan-trace",
                    _stacked(lambda b, xs, ys, samples: cartan_trace_residual(
                        samples), SAMPLE), "homogeneity"),
              # 0 where the pair sample exists: it is a
              # NotPositiveDefiniteError where a minor of g is below tol_pd
              Facet("metric-validity:positive-definite",
                    _stacked(lambda b, xs, ys, samples: np.zeros(len(xs)),
                             SAMPLE)),
              Facet("metric-validity:randers-bound",
                    _stacked(lambda b, xs, ys, norm: norm, ALPHA_NORM,
                             fiber=True),
                    when=lambda s: s.metric.family == "randers",
                    bound=1.0 - 1e-6),
          )),
    Check("structural",
          "torsion-freeness and almost-metric-compatibility residuals of the "
          "connection coefficients",
          (), (
              Facet("structural:torsion", _stacked(
                  lambda b, xs, ys, st: st.torsion, STRUCTURAL)),
              Facet("structural:compat", _stacked(
                  lambda b, xs, ys, st: (st.compat, st.scale), STRUCTURAL),
                  "structural-compat"),
          )),
    Check("preservation",
          "two-form validity (closedness, nondegeneracy) and the "
          "lift-preservation residual; Randers d(beta) equivalence",
          ("two_form",), (
              Facet("preservation:closedness",
                    _stacked(lambda b, xs, form: closedness(form[1]), FORM),
                    "closedness"),
              Facet("preservation:nondegeneracy",
                    _stacked(_nondegeneracy, FORM)),
              Facet("preservation:lift", _stacked(
                  lambda b, xs, ys, lift: lift.max_abs, LIFT), "preservation"),
              Facet("preservation:randers-equivalence",
                    _stacked(_randers_equivalence, LIFT, COVECTOR, SAMPLE),
                    "randers-equivalence",
                    when=lambda s: (s.metric.family == "randers"
                                    and s.two_form_kind == "randers-dbeta")),
          )),
    Check("induce",
          "symmetry of the induced connection and exact agreement of its "
          "two-form residual with the lift residual along W",
          ("vector_field",), (
              Facet("induce:symmetry", _stacked(_symmetry, SAMPLE_W)),
              Facet("induce:exactness",
                    _stacked(_exactness, SAMPLE_W, LIFT_W, FORM),
                    "exactness", when=_has_two_form),
          )),
    Check("darboux",
          "standard-form coefficient relations at points where the "
          "connection preserves the standard two-form",
          ("vector_field",), (
              Facet("darboux:relations",
                    _stacked(lambda b, xs, samples: darboux_relations_residual(
                        samples.chern, b.s.dimension // 2), SAMPLE_W),
                    "darboux", gate=STANDARD_LIFT_W),
          ), even_dimension=True),
    Check("transform",
          "round trip of the coefficient transformation law through the "
          "configured chart and back",
          ("vector_field", "chart"), (
              Facet("transform:roundtrip",
                    _stacked(_roundtrip, SAMPLE_W, JAC, BACK), "transform"),
          )),
    Check("minkowski",
          "preservation conditions of an x-independent metric in natural "
          "and hatted charts, and their consistency with the transformation "
          "law",
          ("two_form", "chart"), tuple(
              Facet(f"minkowski:{name}",
                    _stacked(lambda b, xs, mk, k=k: mk[k], MINKOWSKI),
                    "minkowski")
              for k, name in enumerate(("natural", "hatted", "equivalence")))),
    Check("berwald-uniqueness",
          "spread of the induced connection across distinct probe vector "
          "fields",
          ("vector_field",), (
              Facet("berwald-uniqueness:spread",
                    _stacked(lambda b, xs, chern: max_pairwise_spread(chern),
                             BERWALD_CHERN),
                    "berwald-uniqueness"),
          )),
    Check("curvature",
          "chain-rule curvature against a finite-difference commutator of "
          "the induced-connection field; exact last-pair antisymmetry",
          ("vector_field",), (
              Facet("curvature:fd-consistency",
                    _stacked(_fd_consistency, UP, FD), "curvature-fd"),
              Facet("curvature:antisymmetry", _stacked(_antisymmetry, UP)),
          )),
    Check("bianchi",
          "cyclic curvature sum (first Bianchi identity) and the contracted "
          "two-path comparison",
          ("vector_field",), (
              Facet("bianchi:cyclic",
                    _stacked(lambda b, xs, up: cyclic_residual(up), UP),
                    "bianchi"),
              Facet("bianchi:two-path",
                    _stacked(_two_path, UP, BRACE, FORM), "two-path",
                    when=_has_two_form),
          )),
    Check("pair-symmetry",
          "first-pair symmetry of the lowered curvature at preserving "
          "points; printed-formula two-path comparison",
          ("vector_field", "two_form"), (
              Facet("pair-symmetry:two-path", _stacked(
                  lambda b, xs, pair: pair.paths_delta, PAIR), "two-path"),
              Facet("pair-symmetry:lowered", _stacked(
                  lambda b, xs, pair: (pair.assembled, pair.scale), PAIR),
                  "pair-symmetry", gate=LIFT_W),
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


def _records(facet: Facet, b: _Block) -> list[CheckRecord]:
    """The facet's records over the block, in row order, made from its
    residual column's arrays: an error record where the row holds an error
    or its residual or bound is not finite, and none where the gate stops
    the row."""
    tolerances = b.s.tolerances
    tolerance = tolerances[facet.tol] if facet.tol else facet.bound
    points, name = b.points[facet.residual.fiber], facet.name
    if facet.gate is None:
        rows, values, errors = b.read(facet.residual)
    else:
        # asserted only where the connection keeps the form
        held, gate, errors = b.read(facet.gate)
        if len(held):
            held = held[~(gate.max_abs > tolerances["preservation-gate"])]
        rows, values, failed = facet.residual.compute(b, held)
        errors = {**errors, **failed}
    records = []
    if len(rows):
        residual, scale = (values if isinstance(values, tuple)
                           else (values, np.ones(len(rows))))
        with np.errstate(over="ignore"):  # an overflowing bound is inf
            bound = tolerance * scale
        finite = np.isfinite(residual) & np.isfinite(bound)
        errors = {**errors, **{
            p: DomainError(f"non-finite residual {r:.3e} or bound {t:.3e}")
            for p, r, t in zip(rows[~finite].tolist(),
                               residual[~finite].tolist(),
                               bound[~finite].tolist())}}
        rows = rows[finite].tolist()
        evaluated = CheckRecord.evaluated
        records = [evaluated(name, points[p], r, t) for p, r, t in zip(
            rows, residual[finite].tolist(), bound[finite].tolist())]
    if not errors:
        return records
    failed = [(p, CheckRecord.failed(name, points[p],
                                     f"{type(e).__name__}: {e}", tolerance))
              for p, e in errors.items()]
    return [r for _, r in sorted(list(zip(rows, records)) + failed,
                                 key=itemgetter(0))]


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
    size = max(1, finsler._block_pairs(s.dimension)
               // max(2, s.plan.ys.shape[1]))
    for start in range(0, len(s.plan.xs), size):
        block = _Block(s, sc, start, start + size)
        for facet in facets:
            records.extend(_records(facet, block))
    records.sort(key=lambda r: r.check)
    return records
