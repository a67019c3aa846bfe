"""Check registry: every verification the engine can run over a scenario.

A check is a named group of facets.  A facet is one residual with its own
record id and tolerance rule, at each base point x or each (x, y) pair of
the plan.  The runner cuts the plan into blocks of consecutive base
points, and a facet is a column of a block (:class:`_Column`): one entry
per base point or pair, the residual or that row's FinsymError.  What a
facet reads is a column of the block too, computed on first read and kept
with the block, so each quantity is computed once.  A column reads its
input columns in order, each only on the rows where the earlier ones hold
values, and a row carries its first failing input's error
(:func:`_inputs`).  A field quantity, W(x) and every kind of Finsler
sample among them, is one call over the rows where its inputs hold values
(:func:`_stacked`); the samples come from the block's one sample cache
(:meth:`_Block.samples`).  So are the numerics made from the samples at
every row (the structural and Cartan-trace residuals, the lift residuals
and the Randers equivalence) and the curvature numerics (the curvature
and brace arrays, both two-path comparisons and the cyclic, antisymmetry
and FD-consistency residuals), each one array computation over the stack.
The finite-difference commutator is stacked too, over the rows where the
chain-rule curvature exists, but it samples its base points' own stencils
and reads no sample, W or other quantity of the block.  The rest (the
facets that pick a field from such a column, the Darboux relations and
the Minkowski columns among the quantities) is computed row by row, on
the rows read (:func:`_derived`).  Domain failures never abort a suite:
:func:`_records` makes an error record where a row's entry is an error
or its residual or tolerance is not finite.
Record order is fixed: record ids sorted, then points in plan order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .curvature import (
    _max_abs_rows,
    brace_array,
    contracted_two_path,
    curvature_fd_commutators,
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
# max(1, _BLOCK_PAIRS // max(2, y_per_x)) base points, so at most 64 pairs
# (one base point alone when it has more) and at most 32 base points.  On a
# 3-d Randers plan, 64 and 128 pairs ran fastest; 256 ran slower and raised
# the peak RSS by about 2 MB more than 64 does.  The base-point cap bounds
# the order-4 column (chern_block): 64 columns wide at n = 4 it raised the
# peak RSS by about 7 MB over 32.
_BLOCK_PAIRS = 64


@dataclass(frozen=True, eq=False)
class _Column:
    """A quantity at each row of a block: each base point, or each plan
    pair where ``fiber``.  ``compute(block, todo)`` gives
    ``{row: entry}`` for at least the rows in ``todo``; an entry is the
    row's value or its FinsymError, without frames."""

    compute: Callable
    fiber: bool = False


class _Block:
    """The plan's base points ``start`` to ``stop`` and their pairs,
    stacked, with the entries of the columns read there and the Finsler
    samples taken there."""

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
        self._columns: dict = {}  # column -> {row: entry}
        self._samples: dict = {}  # by x.tobytes() + y.tobytes()

    def read(self, column: _Column, rows) -> list:
        """The column's entries at ``rows``, computing those not read
        before."""
        found = self._columns.setdefault(column, {})
        todo = [p for p in dict.fromkeys(rows) if p not in found]
        if todo:
            found.update(column.compute(self, todo))
        return [found[p] for p in rows]

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


def _inputs(b: _Block, inputs, rows, fiber: bool) -> tuple[dict, dict]:
    """The inputs' entries at ``rows`` of a column over the plan pairs
    where ``fiber``: read in order, each only on the rows where the earlier
    ones hold values, a pair reading a base-point input at its base point.
    Gives ``({row: its first error}, {row: its input values})``."""
    errors, values = {}, {p: [] for p in rows}
    for column in inputs:
        live = [p for p in rows if p not in errors]
        at = ([p // b.per_x for p in live] if fiber and not column.fiber
              else live)
        for p, entry in zip(live, b.read(column, at)):
            if isinstance(entry, FinsymError):
                errors[p] = entry
            else:
                values[p].append(entry)
    return errors, values


def _stacked(fn, *inputs: _Column, fiber: bool = False) -> _Column:
    """A column computed at every row on its first read, over the plan
    pairs where ``fiber`` or an input is: one call ``fn(block, xs,
    *values)``, or ``fn(block, xs, ys, *values)`` over pairs, on the rows
    where every input holds a value (:func:`_inputs`), stacked, one entry
    per row (:func:`each_row`); every other row keeps its first input
    error."""
    fiber = fiber or any(column.fiber for column in inputs)

    def compute(b: _Block, _) -> dict:
        rows = range(len(b.points[fiber]))
        out, values = _inputs(b, inputs, rows, fiber)
        ok = [p for p in rows if p not in out]
        if ok:
            stacks = [s[ok] for s in (b.pairs if fiber else (b.xs,))]
            stacks += zip(*(values[p] for p in ok))
            out.update(zip(ok, each_row(partial(fn, b), *stacks)))
        return out
    return _Column(compute, fiber)


def _derived(fn, *inputs: _Column, fiber: bool = False) -> _Column:
    """``fn(block, *values)`` row by row, from the inputs' values there
    (:func:`_inputs`): a column over the plan pairs where ``fiber`` or an
    input is, computed only on the rows read.  A row where an input holds
    an error carries the first such error, and fn runs only where none
    does."""
    fiber = fiber or any(column.fiber for column in inputs)

    def compute(b: _Block, todo: list) -> dict:
        out, values = _inputs(b, inputs, todo, fiber)
        for p in todo:
            if p not in out:
                try:
                    out[p] = fn(b, *values[p])
                except FinsymError as exc:
                    out[p] = exc.with_traceback(None)
        return out
    return _Column(compute, fiber)


def _probe_samples(b: _Block, xs, probes) -> list:
    """Each base point's samples at the probe vectors, from one
    :meth:`_Block.samples` read over every base point at every probe; a
    base point carries the error of its first failing probe."""
    k = len(probes)
    found = b.samples(np.repeat(xs, k, axis=0),
                      np.tile(np.asarray(probes), (len(xs), 1)))
    rows = [found[p * k:(p + 1) * k] for p in range(len(xs))]
    return [next((e for e in row if isinstance(e, FinsymError)), row)
            for row in rows]


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


@lru_cache(maxsize=None)
def _standard_data(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The standard form's components and partials: constant, so read once
    (at the origin) and shared, read-only, by every base point."""
    (w, dw), = standard_form(n).data(np.zeros((1, 2 * n)))
    w.flags.writeable = dw.flags.writeable = False
    return w, dw


def _lifts(samples, forms) -> list[PreservationResidual]:
    """The lift-preservation residuals of the scenario's form at stacked
    samples, each with its base point's form; a column reads the sample
    before the form, so where both fail, the sample's error shows."""
    return PreservationResidual.stacked([w for w, _ in forms],
                                        [dw for _, dw in forms],
                                        [sample.chern for sample in samples])


def _curvature_stacks(ups, braces, forms) -> tuple[np.ndarray, ...]:
    """The rows' curvature, brace arrays and two-form components, each
    stacked."""
    return np.stack(ups), np.stack(braces), np.stack([w for w, _ in forms])


def _minkowski(b: _Block, _, form, jac, hatted) -> tuple:
    mk = minkowski_preservation_check(form[1], jac, hatted)
    ghat = transform_connection(np.zeros((b.s.dimension,) * 3), jac)
    pres = PreservationResidual.of(*hatted, ghat)
    return mk.natural, mk.hatted, abs(mk.hatted - pres.max_abs)


# The columns the facets read.  W is W(x), SAMPLE_W the sample at
# (x, W(x)) and DERIVATIVES the jet path there; SAMPLE is the sample at
# each plan pair, STRUCTURAL the structural residuals there and LIFT the
# lift residual of the scenario's form there, as LIFT_W is at (x, W(x))
# and STANDARD_LIFT_W that of the standard form.  JAC holds the chart
# derivatives at x, BACK the swapped chart's at the mapped point, and
# HATTED the scenario's form pulled back through JAC.  The
# finite-difference curvature FD is stacked over the rows where UP, the
# chain-rule curvature it is compared with, holds a value.  It takes W and
# the samples again on its base points' own stencils, (x, W(x)) included,
# stacked in runs of whole stencils of at most _BLOCK_PAIRS rows: reading
# W, SAMPLE_W or _Block.samples would let it share a result with the path
# it checks.  A failing stack is replayed one base point at a time, and
# each base point's stencil point by point up to its first failing point,
# so a row carries that point's error.
X = _stacked(lambda b, xs: xs)
W = _stacked(lambda b, xs: b.s.vector_field.values(xs))
SAMPLE_W = _stacked(lambda b, xs, ws: b.samples(xs, ws), W)
DERIVATIVES = _stacked(lambda b, xs, ws: induced_derivatives(b.sc, xs, ws), W)
BERWALD_SAMPLES = _stacked(lambda b, xs: _probe_samples(
    b, xs, _berwald_probes(b.s)))
MINKOWSKI_SAMPLES = _stacked(lambda b, xs: _probe_samples(
    b, xs, minkowski_probes(b.s.dimension)))
COVECTOR = _stacked(lambda b, xs: covector_derivatives(b.s.metric.b_fields,
                                                       xs))
# a d(beta) form is read off the covector's derivative arrays, which
# randers-equivalence reads too, rather than evaluating b again
_FIELD_FORM = _stacked(lambda b, xs: b.s.two_form.data(xs))
_EXACT_FORM = _derived(lambda b, covector: exact_form_data(*covector),
                       COVECTOR)
FORM = _Column(lambda b, rows: dict(zip(rows, b.read(
    _EXACT_FORM if b.s.two_form_kind == "randers-dbeta" else _FIELD_FORM,
    rows))))
JAC = _stacked(lambda b, xs: chart_jacobians(b.s.chart, xs))
BACK = _stacked(lambda b, xs, jacs: chart_jacobians(
    b.s.chart.swapped(), [jac.xhat for jac in jacs]), JAC)
ALPHA_NORM = _stacked(lambda b, xs: randers_alpha_norm(b.s.metric, xs))
LIFT_W = _stacked(lambda b, xs, samples, forms: _lifts(samples, forms),
                  SAMPLE_W, FORM)
STANDARD_LIFT_W = _stacked(lambda b, xs, samples: _lifts(
    samples, [_standard_data(b.s.dimension // 2)] * len(samples)), SAMPLE_W)
UP = _stacked(lambda b, xs, ds: curvature_up(*map(np.stack, zip(*ds))),
              DERIVATIVES)
BRACE = _stacked(lambda b, xs, ds: brace_array(*map(np.stack, zip(*ds))),
                 DERIVATIVES)
PAIR = _stacked(lambda b, xs, ups, braces, forms: pair_two_path(
    *_curvature_stacks(ups, braces, forms)), UP, BRACE, FORM)
FD = _stacked(lambda b, xs, ups: curvature_fd_commutators(b.sc, xs,
                                                           _BLOCK_PAIRS), UP)
HATTED = _derived(lambda b, form, jac: hatted_two_form_data(*form, jac),
                  FORM, JAC)
MINKOWSKIAN = _derived(lambda b, samples: require_minkowskian(
    [smp.chern for smp in samples]), MINKOWSKI_SAMPLES)
MINKOWSKI = _derived(_minkowski, MINKOWSKIAN, FORM, JAC, HATTED)
SAMPLE = _stacked(lambda b, xs, ys: b.samples(xs, ys), fiber=True)
STRUCTURAL = _stacked(lambda b, xs, ys, samples: structural_residuals(
    samples), SAMPLE)
LIFT = _stacked(lambda b, xs, ys, samples, forms: _lifts(samples, forms),
                SAMPLE, FORM)
HOMOGENEITY = _stacked(lambda b, xs, ys: homogeneity_residuals(
    b.s.metric, xs, ys), fiber=True)
EULER = _stacked(lambda b, xs, ys: euler_residuals(b.s.metric, xs, ys),
                 fiber=True)


@dataclass(frozen=True)
class Facet:
    """One residual of a check, recorded under ``name``.

    ``residual`` is a column of the block: at each base point, or at each
    plan pair where the column is ``fiber``, the residual, or (residual,
    scale) where the bound is relative.  The record's tolerance is
    ``tolerances[tol] * scale``, or the fixed ``bound * scale`` when
    ``tol`` is None.  A ``gate`` is a column of preservation residuals
    along W: a row where its ``max_abs`` exceeds the preservation-gate
    tolerance gets no record, and the residual is computed only on the
    rows the gate lets through.
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


def _max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a)))


def _nondegeneracy(b: _Block, form) -> float:
    return max(0.0, b.s.tolerances["tol_nd"] - nondegeneracy(form[0]))


def _randers_equivalence(b: _Block, xs, ys, lifts, covectors,
                         samples) -> list[float]:
    cond = randers_condition([db for db, _ in covectors],
                             [ddb for _, ddb in covectors],
                             [sample.chern for sample in samples])
    gap = np.abs(cond + np.stack([lift.entries for lift in lifts]))
    return [d / max(1.0, lift.max_abs)
            for d, lift in zip(gap.max(axis=(1, 2, 3)).tolist(), lifts)]


def _exactness(b: _Block, sample, lift_w, form) -> float:
    return abs(covariant_residual(sample.chern, *form) - lift_w.max_abs)


def _roundtrip(b: _Block, sample, jac, back) -> float:
    G = sample.chern
    return _max_abs(transform_connection(transform_connection(G, jac), back)
                    - G)


def _berwald_spread(b: _Block, samples) -> float:
    return max_pairwise_spread([smp.chern for smp in samples])


def _fd_consistency(b: _Block, xs, ups, fds) -> list[tuple[float, float]]:
    up, fd = np.stack(ups), np.stack(fds)
    return [(delta, max(1.0, u, f)) for delta, u, f in zip(
        _max_abs_rows(up - fd), _max_abs_rows(up), _max_abs_rows(fd))]


def _antisymmetry(b: _Block, xs, ups) -> list[float]:
    up = np.stack(ups)
    return _max_abs_rows(up + up.swapaxes(3, 4))


def _two_path(b: _Block, xs, ups, braces, forms) -> list[float]:
    return [r.paths_delta for r in contracted_two_path(
        *_curvature_stacks(ups, braces, forms))]


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
                    _derived(lambda b, sample: 0.0, SAMPLE)),
              Facet("metric-validity:randers-bound",
                    _derived(lambda b, norm: norm, ALPHA_NORM, fiber=True),
                    when=lambda s: s.metric.family == "randers",
                    bound=1.0 - 1e-6),
          )),
    Check("structural",
          "torsion-freeness and almost-metric-compatibility residuals of the "
          "connection coefficients",
          (), (
              Facet("structural:torsion",
                    _derived(lambda b, st: st.torsion, STRUCTURAL)),
              Facet("structural:compat",
                    _derived(lambda b, st: (st.compat, st.scale), STRUCTURAL),
                    "structural-compat"),
          )),
    Check("preservation",
          "two-form validity (closedness, nondegeneracy) and the "
          "lift-preservation residual; Randers d(beta) equivalence",
          ("two_form",), (
              Facet("preservation:closedness",
                    _derived(lambda b, form: closedness(form[1]), FORM),
                    "closedness"),
              Facet("preservation:nondegeneracy",
                    _derived(_nondegeneracy, FORM)),
              Facet("preservation:lift",
                    _derived(lambda b, lift: lift.max_abs, LIFT),
                    "preservation"),
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
              Facet("induce:symmetry", _derived(lambda b, sample: _max_abs(
                  sample.chern - sample.chern.transpose(0, 2, 1)), SAMPLE_W)),
              Facet("induce:exactness",
                    _derived(_exactness, SAMPLE_W, LIFT_W, FORM),
                    "exactness", when=_has_two_form),
          )),
    Check("darboux",
          "standard-form coefficient relations at points where the "
          "connection preserves the standard two-form",
          ("vector_field",), (
              Facet("darboux:relations",
                    _derived(lambda b, sample: darboux_relations_residual(
                        sample.chern, b.s.dimension // 2), SAMPLE_W),
                    "darboux", gate=STANDARD_LIFT_W),
          ), even_dimension=True),
    Check("transform",
          "round trip of the coefficient transformation law through the "
          "configured chart and back",
          ("vector_field", "chart"), (
              Facet("transform:roundtrip",
                    _derived(_roundtrip, SAMPLE_W, JAC, BACK), "transform"),
          )),
    Check("minkowski",
          "preservation conditions of an x-independent metric in natural "
          "and hatted charts, and their consistency with the transformation "
          "law",
          ("two_form", "chart"), (
              Facet("minkowski:natural",
                    _derived(lambda b, mk: mk[0], MINKOWSKI), "minkowski"),
              Facet("minkowski:hatted",
                    _derived(lambda b, mk: mk[1], MINKOWSKI), "minkowski"),
              Facet("minkowski:equivalence",
                    _derived(lambda b, mk: mk[2], MINKOWSKI), "minkowski"),
          )),
    Check("berwald-uniqueness",
          "spread of the induced connection across distinct probe vector "
          "fields",
          ("vector_field",), (
              Facet("berwald-uniqueness:spread",
                    _derived(_berwald_spread, BERWALD_SAMPLES),
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
                    _stacked(lambda b, xs, ups: cyclic_residual(
                        np.stack(ups)), UP), "bianchi"),
              Facet("bianchi:two-path",
                    _stacked(_two_path, UP, BRACE, FORM), "two-path",
                    when=_has_two_form),
          )),
    Check("pair-symmetry",
          "first-pair symmetry of the lowered curvature at preserving "
          "points; printed-formula two-path comparison",
          ("vector_field", "two_form"), (
              Facet("pair-symmetry:two-path",
                    _derived(lambda b, pair: pair.paths_delta, PAIR),
                    "two-path"),
              Facet("pair-symmetry:lowered",
                    _derived(lambda b, pair: (pair.assembled, pair.scale),
                             PAIR),
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
    """The facet's records over the block, in row order: an error record
    where the row's entry is an error or its residual or bound is not
    finite, and none where the gate stops the row."""
    tolerances = b.s.tolerances
    tolerance = tolerances[facet.tol] if facet.tol else facet.bound
    points = b.points[facet.residual.fiber]
    rows = range(len(points))
    entries = {}
    if facet.gate is not None:
        # asserted only where the connection keeps the form
        limit = tolerances["preservation-gate"]
        entries = {p: g for p, g in zip(rows, b.read(facet.gate, rows))
                   if isinstance(g, FinsymError) or not g.max_abs > limit}
        rows = [p for p, g in entries.items()
                if not isinstance(g, FinsymError)]
    entries.update(zip(rows, b.read(facet.residual, rows)))
    records = []
    for p, e in entries.items():
        if not isinstance(e, FinsymError):
            residual, scale = e if isinstance(e, tuple) else (e, 1.0)
            bound = tolerance * scale
            if math.isfinite(residual) and math.isfinite(bound):
                records.append(CheckRecord.evaluated(facet.name, points[p],
                                                     residual, bound))
                continue
            e = DomainError(f"non-finite residual {residual:.3e} or "
                            f"bound {bound:.3e}")
        records.append(CheckRecord.failed(
            facet.name, points[p], f"{type(e).__name__}: {e}", tolerance))
    return records


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
    size = max(1, _BLOCK_PAIRS // max(2, s.plan.ys.shape[1]))
    for start in range(0, len(s.plan.xs), size):
        block = _Block(s, sc, start, start + size)
        for facet in facets:
            records.extend(_records(facet, block))
    records.sort(key=lambda r: r.check)
    return records
