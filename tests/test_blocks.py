"""Every block function, row by row: a stack of points is evaluated in one
call, and each row must be what the call on that row alone gives, bit for
bit, error type and text included.  The stacks mix good rows with rows that
fail in every way a block can: outside the domain, below the slit or W's
floor, at a singular chart or alpha, where g is not positive definite,
where F <= 0, and where a field's value or jet is not finite."""

import os
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym import checks, curvature, finsler
from finsym.checks import run_scenario
from finsym.curvature import (_cyclic, brace_array, contracted_two_path,
                              curvature_fd_commutator,
                              curvature_fd_commutators, curvature_up,
                              cyclic_residual, induced_derivatives,
                              pair_two_path)
from finsym.errors import FinsymError, each_row, take_rows
from finsym.fedosov import (FedosovScenario, darboux_relations_residual,
                            hatted_two_form_data, minkowski_probes,
                            require_minkowskian)
from finsym.fields import (ChartMap, DomainBox, ScalarFieldSpec,
                           VectorFieldSpec, chart_jacobians)
from finsym.jets import fd_oracle, fd_stencil
from finsym.finsler import (FinslerSample, MetricSpec, cartan_trace_residual,
                            chern_block, euler_residuals,
                            homogeneity_residuals, max_pairwise_spread,
                            randers_alpha_norm, sample_block,
                            structural_residuals)
from finsym.report import emit_report
from finsym.scenario import (build_scenario, default_berwald_vectors,
                             load_config)
from finsym.symplectic import (ExactTwoForm, PreservationResidual, closedness,
                               covector_derivatives, exact_form_data,
                               explicit_two_form, randers_condition)

XY = ("x1", "x2")
BOX = DomainBox((-2.0, -2.0), (2.0, 2.0))


def _specs(*texts):
    return tuple(ScalarFieldSpec.parse(t, XY) for t in texts)


# sqrt(x1) fails below 0, 1/x2 at 0, x1^1.5 overflows at 1e300
FIELD = ScalarFieldSpec.parse("sqrt(x1)+1/x2+x1^1.5*x2^-2", XY)
FIELD_ROWS = ([[0.5, 1.0], [2.0, -0.5], [1.3, 0.7]],
              [[-1.0, 1.0], [0.5, 0.0], [1e300, 1e-300]])
# W vanishes below its floor at (0, 1e6) and divides by zero at x2 = 0
W = VectorFieldSpec(_specs("x1", "1/x2"), w_min=1e-3)
W_ROWS = ([[0.5, 1.0], [-0.3, 2.0], [1.1, -0.6]],
          [[0.0, 1e6], [0.5, 0.0]])
# singular at x1 = 0, outside its domain at x1 = 3, no cube root below 0
CHART = ChartMap(_specs("x1^3", "x2"), _specs("x1^0.3333333333333333", "x2"),
                 forward_domain=BOX)
CHART_ROWS = ([[0.5, 0.3], [1.2, -0.4], [0.9, 1.5]],
              [[0.0, 0.3], [3.0, 0.0], [-0.5, 0.2]])
FORM = explicit_two_form(2, {(0, 1): "sqrt(x1)*x2+1/x2"})
# sqrt(x2) fails at and below 0, x1^2 x2 overflows at 1e300
COVECTOR = _specs("x1^2*x2", "sqrt(x2)")
COVECTOR_ROWS = ([[0.5, 1.0], [1.3, 0.7], [-1.0, 1.0]],
                 [[2.0, -0.5], [0.5, 0.0], [1e300, 1e-300]])
# alpha is singular at x1 = -1 and indefinite below it
RANDERS = MetricSpec.randers([["1+x1", "0"], ["0", "1"]], ["0.5", "0.5*x2"],
                             BOX)
ALPHA_ROWS = ([[0.5, 0.2], [0.0, -0.4], [1.5, 1.0]],
              [[-1.0, 0.3], [-1.5, 0.3]])
# sqrt(alpha^2) + x1 y1 with alpha^2 = (1 + x2) y1^2 + y2^2
MIXED = MetricSpec.custom("sqrt(y1^2+y2^2+x2*y1^2)+x1*y1", 2, BOX)
MIXED_ROWS = (
    [([0.1, 0.2], [1.0, 0.7]), ([-0.3, 0.4], [0.6, 1.1]),
     ([0.2, -0.1], [1.2, 0.4])],
    [([3.0, 0.0], [1.0, 0.5]),        # outside the domain
     ([0.1, 0.2], [1e-9, 0.0]),       # below the slit floor
     ([-1.5, 0.0], [1.0, 0.0]),       # F = -0.5
     ([0.0, -1.5], [1.0, 0.0])])      # sqrt(-0.5)
# g is not positive definite on the fiber axes
QUARTIC = MetricSpec.custom("(y1^4+y2^4)^0.25", 2,
                            DomainBox((-1.0, -1.0), (1.0, 1.0)))
QUARTIC_ROWS = ([([0.1, 0.2], [1.0, 0.7]), ([-0.3, 0.4], [0.6, 1.1])],
                [([0.0, 0.0], [1.0, 0.0]), ([1.5, 0.0], [1.0, 0.5])])
# dW divides by zero at x2 = 0; the connection fails on the fiber axes
SCENARIO = FedosovScenario(
    QUARTIC, VectorFieldSpec(_specs("1+x1^2", "1/x2")))
INDUCED_ROWS = ([([0.3, 0.5], [1.0, 0.7]), ([-0.2, 0.8], [0.6, 1.1])],
                [([0.3, 0.0], [1.0, 0.7]), ([0.3, 0.5], [0.0, 1.0])])
# the pair numerics on a stack of samples, where the sample fails as above
LIFTED = explicit_two_form(2, {(0, 1): "1+x1*x2^2"})
RANDERS_ROWS = ([([0.5, 0.2], [1.0, 0.3]), ([0.0, -0.4], [0.4, 1.1]),
                 ([1.5, 1.0], [-0.7, 0.5])],
                [([3.0, 0.0], [1.0, 0.5]), ([0.5, 0.2], [1e-9, 0.0])])

# a curved scenario: W divides by zero at x2 = 0, F < 0 at (-1.5, 0.5), and
# at x1 = 1.9996 the curvature exists but the FD stencil leaves the box
CURVED = FedosovScenario(MIXED, VectorFieldSpec(_specs("1+x1^2", "1/x2")))
CURVED_ROWS = ([[0.1, 0.5], [-0.3, 0.8], [0.2, -0.6]],
               [[0.3, 0.0], [-1.5, 0.5], [3.0, 0.5]])
FD_ROWS = (CURVED_ROWS[0], CURVED_ROWS[1] + [[1.9996, 0.5]])


def _curvature_values(xs):
    """The values of UP, BRACE and FORM (with LIFTED as the form) at each
    row, as the runner's columns hold them."""
    d = induced_derivatives(CURVED, xs, CURVED.vector_field.values(xs))
    return curvature_up(*d), brace_array(*d), LIFTED.data(xs)


def _fd_consistency_rows(xs):
    return checks._fd_consistency(None, xs, _curvature_values(xs)[0],
                                  _fd_commutators(xs))


def _lift_rows(xs, ys):
    return PreservationResidual.stacked(*LIFTED.data(xs),
                                        sample_block(MIXED, xs, ys).chern)


def _randers_rows(xs, ys):
    """The randers-equivalence facet's residual on d(beta)."""
    samples = sample_block(RANDERS, xs, ys)
    covector = covector_derivatives(RANDERS.b_fields, xs)
    lifts = PreservationResidual.stacked(*exact_form_data(*covector),
                                         samples.chern)
    return checks._randers_equivalence(None, xs, ys, lifts, covector,
                                       samples)


def _jet_rows(order, xs):
    """The field's jet at each row: its coefficients and every partial."""
    jet = FIELD.eval_jet(xs, order)
    return (jet.c.T,) + tuple(jet.derivatives(k) for k in range(order + 1))


# the facets made from the form, the chart, the samples and the probes; a
# block stand-in holds the tolerance and dimension they read
BLOCK = SimpleNamespace(s=SimpleNamespace(tolerances={"tol_nd": 1e-8},
                                          dimension=2))
# a 4-d form: sqrt(x1) fails below 0 and 1/x4 at 0
FORM4 = explicit_two_form(4, {(0, 1): "sqrt(x1)*x3", (0, 3): "x1*x2*x3",
                              (1, 2): "x2*x4+2", (2, 3): "1/x4"})
FORM4_ROWS = ([[0.5, 1.0, -0.3, 0.7], [1.3, -0.2, 0.4, -1.1],
               [0.1, 0.6, 1.5, 0.9]],
              [[-1.0, 1.0, 0.2, 0.3], [0.5, 0.2, 0.1, 0.0]])
# x1 > 0, where the chart and MIXED hold values, then the chart failing
TRANSFORM_ROWS = ([([0.5, 0.3], [1.0, 0.7]), ([1.2, -0.4], [0.6, 1.1])],
                  [([0.0, 0.3], [1.0, 0.5]), ([3.0, 0.0], [1.0, 0.5])])
# the probes fail where the sample does: outside the box and where F < 0
PROBE_ROWS = ([[0.1, 0.2], [-0.3, 0.4], [0.2, -0.1]],
              [[3.0, 0.0], [-1.5, 0.0]])
# Minkowskian within 1e-8 near the origin, not at x1 = 100, and outside its
# box at x1 = 300
FLATISH = MetricSpec.custom("sqrt((1+0.000000001*x1^2)*y1^2+y2^2)", 2,
                            DomainBox((-200.0, -200.0), (200.0, 200.0)))
FLATISH_ROWS = ([[0.5, 0.2], [-0.3, 0.1], [0.2, -0.4]],
                [[100.0, 0.0], [300.0, 0.0]])


def _probe_chern(m, xs, probes):
    """The connection arrays at each row's probes, as the probe columns
    hold them."""
    k = len(probes)
    chern = sample_block(m, np.repeat(xs, k, axis=0),
                         np.tile(np.asarray(probes), (len(xs), 1))).chern
    return chern.reshape((len(xs), k) + chern.shape[1:])


def _hatted_rows(xs):
    return hatted_two_form_data(*FORM.data(xs), chart_jacobians(CHART, xs))


def _minkowski_rows(xs):
    jac = chart_jacobians(CHART, xs)
    form = FORM.data(xs)
    return checks._minkowski(BLOCK, xs, None, form, jac,
                             hatted_two_form_data(*form, jac))


def _exactness_rows(xs, ys):
    samples = sample_block(MIXED, xs, ys)
    form = LIFTED.data(xs)
    return checks._exactness(BLOCK, xs, samples,
                             checks._lifts(samples, form), form)


def _roundtrip_rows(xs, ys):
    jac = chart_jacobians(CHART, xs)
    return checks._roundtrip(BLOCK, xs, sample_block(MIXED, xs, ys), jac,
                             chart_jacobians(CHART.swapped(), jac.xhat))


def _points(rows):
    good, bad = rows
    return [(r,) for r in good], [(r,) for r in bad]


def _fd_commutators(xs):
    """The FD commutator on CURVED with the block rule at 64 pairs, so that
    a run holds up to 7 stencils."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finsler, "_block_pairs", lambda n: 64)
        return curvature_fd_commutators(CURVED, xs)


# name -> (block function, (good rows, failing rows)); a row holds one row
# of each stack the function takes
CASES = {
    **{f"eval_jet-{order}": (partial(_jet_rows, order), _points(FIELD_ROWS))
       for order in range(5)},
    "evaluate": (FIELD.evaluate, _points(FIELD_ROWS)),
    "values": (W.values, _points(W_ROWS)),
    "jacobian": (W.jacobian, _points((W_ROWS[0], W_ROWS[1][1:]))),
    "chart_jacobians": (partial(chart_jacobians, CHART),
                        _points(CHART_ROWS)),
    "two-form": (FORM.data, _points(FIELD_ROWS)),
    "covector": (partial(covector_derivatives, COVECTOR),
                 _points(COVECTOR_ROWS)),
    "exact-form": (ExactTwoForm(COVECTOR).data, _points(COVECTOR_ROWS)),
    "alpha-norm": (partial(randers_alpha_norm, RANDERS), _points(ALPHA_ROWS)),
    "homogeneity": (partial(homogeneity_residuals, MIXED), MIXED_ROWS),
    # F alone: no domain or slit check, as at one point
    "euler": (partial(euler_residuals, MIXED),
              (MIXED_ROWS[0], MIXED_ROWS[1][2:])),
    "sample-mixed": (partial(sample_block, MIXED), MIXED_ROWS),
    "sample-quartic": (partial(sample_block, QUARTIC), QUARTIC_ROWS),
    "chern-mixed": (partial(chern_block, MIXED), MIXED_ROWS),
    "chern-quartic": (partial(chern_block, QUARTIC), QUARTIC_ROWS),
    "induced": (partial(induced_derivatives, SCENARIO), INDUCED_ROWS),
    "structural": (lambda xs, ys: structural_residuals(
        sample_block(MIXED, xs, ys)), MIXED_ROWS),
    "cartan-trace": (lambda xs, ys: cartan_trace_residual(
        sample_block(MIXED, xs, ys)), MIXED_ROWS),
    "lift": (_lift_rows, MIXED_ROWS),
    "randers-equivalence": (_randers_rows, RANDERS_ROWS),
    # the facets stacked from the form, the chart, the samples and probes
    "closedness": (lambda xs: closedness(FORM4.data(xs)[1]),
                   _points(FORM4_ROWS)),
    "nondegeneracy": (lambda xs: checks._nondegeneracy(
        BLOCK, xs, FORM4.data(xs)), _points(FORM4_ROWS)),
    "hatted": (_hatted_rows, _points(CHART_ROWS)),
    "minkowski": (_minkowski_rows, _points(CHART_ROWS)),
    "minkowskian": (lambda xs: require_minkowskian(_probe_chern(
        FLATISH, xs, minkowski_probes(2))), _points(FLATISH_ROWS)),
    "berwald-spread": (lambda xs: max_pairwise_spread(
        _probe_chern(MIXED, xs, default_berwald_vectors(2))),
        _points(PROBE_ROWS)),
    "symmetry": (lambda xs, ys: checks._symmetry(
        BLOCK, xs, sample_block(MIXED, xs, ys)), MIXED_ROWS),
    "darboux": (lambda xs, ys: darboux_relations_residual(
        sample_block(MIXED, xs, ys).chern, 1), MIXED_ROWS),
    "exactness": (_exactness_rows, MIXED_ROWS),
    "roundtrip": (_roundtrip_rows, TRANSFORM_ROWS),
    # the curvature columns, each over the rows where its inputs exist
    "curvature-up": (lambda xs: _curvature_values(xs)[0],
                     _points(CURVED_ROWS)),
    "brace": (lambda xs: _curvature_values(xs)[1], _points(CURVED_ROWS)),
    "pair-two-path": (lambda xs: (lambda up, brace, form: pair_two_path(
        up, brace, form[0]))(*_curvature_values(xs)), _points(CURVED_ROWS)),
    "bianchi-two-path": (lambda xs: checks._two_path(
        None, xs, *_curvature_values(xs)), _points(CURVED_ROWS)),
    "bianchi-cyclic": (lambda xs: cyclic_residual(
        _curvature_values(xs)[0]), _points(CURVED_ROWS)),
    "antisymmetry": (lambda xs: checks._antisymmetry(
        None, xs, _curvature_values(xs)[0]), _points(CURVED_ROWS)),
    "fd-commutator": (_fd_commutators, _points(FD_ROWS)),
    "fd-consistency": (_fd_consistency_rows, _points(FD_ROWS)),
}


def _one_row(fn, row):
    """What ``fn`` gives on the stacks of one row: a stack of one row, or
    its error."""
    try:
        return fn(*(np.array([r]) for r in row))
    except FinsymError as exc:
        return exc


def _assert_same(a, b):
    """Bit for bit, through tuples and named tuples of stacks; errors by
    type and text."""
    assert type(a) is type(b)
    if isinstance(a, FinsymError):
        assert str(a) == str(b)
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_same(u, v)
    else:
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _rows(found, size):
    """The entries of :func:`each_row`'s ``(rows, values, errors)``, in
    row order: each row's value as a stack of one row, or its error."""
    rows, values, errors = found
    entries = dict(errors)
    entries.update((p, take_rows(values, slice(i, i + 1)))
                   for i, p in enumerate(rows.tolist()))
    assert sorted(entries) == list(range(size))
    return [entries[p] for p in range(size)]


def test_every_case_has_good_and_failing_rows():
    for name, (fn, (good, bad)) in CASES.items():
        assert good and bad, name
        assert not any(isinstance(_one_row(fn, r), FinsymError)
                       for r in good), name
        assert all(isinstance(_one_row(fn, r), FinsymError)
                   for r in bad), name


@settings(max_examples=350, deadline=None, derandomize=True)
@given(st.data())
def test_block_rows_equal_one_row_calls(data):
    """Each row of a stack, through :func:`each_row`, equals the call on
    its row alone; a stack of good rows is one call, so its rows are the
    stacked computation's own."""
    fn, (good, bad) = CASES[data.draw(st.sampled_from(sorted(CASES)))]
    pool = good if data.draw(st.booleans()) else good + bad
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    stacks = [np.array(column) for column in zip(*rows)]
    found = _rows(each_row(fn, *stacks), len(rows))
    for row, entry in zip(rows, found):
        _assert_same(entry, _one_row(fn, row))


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# field evaluations (ScalarFieldSpec.evaluate and eval_jet calls) of a full
# run outside the FD commutator: (before the first block, in each block).
# Every field quantity, W included, is one call per block, and so is each
# kind of Finsler sample (the plan pairs, (x, W(x)), the Berwald probes and
# the Minkowski probes, each at every base point, not sampled before in the
# block), so nothing is evaluated before the first block and a block of 4
# base points costs what one of 12 does.
EVALUATIONS = {
    "configs/curved_volume.json": (0, 17),
    "configs/euclidean_standard.json": (0, 27),
    "configs/polar_riemannian.json": (0, 15),
    "configs/quartic_minkowski_chart.json": (0, 25),
    "configs/randers_dbeta.json": (0, 24),
    "tests/data/curvature-n4-v3.json": (0, 44),
}


@pytest.mark.parametrize("block_pairs", [None, 7, 1])
@pytest.mark.parametrize("path", sorted(EVALUATIONS))
def test_field_evaluations_depend_on_the_blocks(monkeypatch, path,
                                                block_pairs):
    """Outside the FD commutator, which samples its own stencil, a run
    evaluates fields a fixed number of times per block, whatever the
    block's number of base points and pairs: the same at the default block
    size, at 3 base points per block (7 pairs at 2 per base point) and
    with one base point per block."""
    config = load_config(os.path.join(ROOT, path))
    if config["dimension"] % 2 == 0:
        checks._standard_data(config["dimension"] // 2)  # once a process
    if block_pairs is not None:
        monkeypatch.setattr(finsler, "_block_pairs",
                            lambda n, pairs=block_pairs: pairs)
    counts, sizes, in_fd = [0], [], []
    evaluate = ScalarFieldSpec.evaluate
    eval_jet = ScalarFieldSpec.eval_jet
    init, commutators = checks._Block.__init__, checks.curvature_fd_commutators

    def counted(original):
        def call(*args):
            if not in_fd:
                counts[-1] += 1
            return original(*args)
        return call

    def counted_init(block, *args):
        counts.append(0)
        init(block, *args)
        sizes.append(len(block.xs))

    def fd(s, xs, *args):
        in_fd.append(xs)
        try:
            return commutators(s, xs, *args)
        finally:
            in_fd.pop()

    monkeypatch.setattr(ScalarFieldSpec, "evaluate", counted(evaluate))
    monkeypatch.setattr(ScalarFieldSpec, "eval_jet", counted(eval_jet))
    monkeypatch.setattr(checks._Block, "__init__", counted_init)
    monkeypatch.setattr(checks, "curvature_fd_commutators", fd)
    run_scenario(config)
    before, per_block = EVALUATIONS[path]
    assert counts == [before] + [per_block] * len(sizes)
    # one base point per block at 1 pair, several otherwise
    assert (max(sizes) == 1) == (block_pairs == 1)


@pytest.mark.parametrize("block_pairs", [None, 7])
@pytest.mark.parametrize("path", ["configs/euclidean_standard.json",
                                  "configs/quartic_minkowski_chart.json"])
def test_np_stack_grows_with_blocks_and_columns(monkeypatch, path,
                                                block_pairs):
    """A column's values are gathered from stacks by fancy indexing, not
    re-stacked from rows: over a full run of a config with a chart,
    finsym calls ``np.stack`` at most once per column computed in a block,
    whatever the number of rows.  At the default width a shipped config is
    one block, so there its plan takes 8 fiber points per base point: 3
    blocks of at most 38 base points."""
    config = load_config(os.path.join(ROOT, path))
    if block_pairs is None:
        config["sampling"]["y_per_x"] = 8
    else:
        monkeypatch.setattr(finsler, "_block_pairs",
                            lambda n, pairs=block_pairs: pairs)
    stack, init = np.stack, checks._Block.__init__
    calls, blocks = [0], []

    def counted(*args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        calls[0] += caller.startswith("finsym")
        return stack(*args, **kwargs)

    def kept(block, *args):
        init(block, *args)
        blocks.append(block)

    monkeypatch.setattr(np, "stack", counted)
    monkeypatch.setattr(checks._Block, "__init__", kept)
    records = run_scenario(config)
    columns = sum(len(block._columns) for block in blocks)
    assert len(records) > columns >= len(blocks) > 1
    assert calls[0] <= columns


def _randers(n: int, count: int, y_per_x: int) -> dict:
    """A Randers config on [-1, 1]^n with x-dependent alpha and b, a vector
    field that never vanishes there, and a random plan."""
    alpha = [[f"1+0.2*x{i + 1}^2" if i == j
              else f"0.03*x{min(i, j) + 1}*x{max(i, j) + 1}"
              for j in range(n)] for i in range(n)]
    return {"dimension": n,
            "metric": {"family": "randers", "alpha": alpha,
                       "b": [f"{0.1 * (-1) ** i:.1f}*x{(i + 1) % n + 1}"
                             for i in range(n)],
                       "domain": {"lower": [-1] * n, "upper": [1] * n}},
            "vector_field": {"components": [f"1+0.2*x{(i + 1) % n + 1}"
                                            for i in range(n)]},
            "sampling": {"mode": "random", "count": count, "seed": 3,
                         "y_per_x": y_per_x}}


def _block_sizes(monkeypatch) -> list:
    """The number of base points of each block a run makes from now on."""
    sizes, init = [], checks._Block.__init__

    def counted(block, *args):
        init(block, *args)
        sizes.append(len(block.xs))

    monkeypatch.setattr(checks._Block, "__init__", counted)
    return sizes


def _fd_runs(monkeypatch) -> list:
    """The number of stencil rows of each run the FD commutator samples
    from now on."""
    runs, connections = [], curvature._connections

    def counted(sc, xs):
        runs.append(len(xs))
        return connections(sc, xs)

    monkeypatch.setattr(curvature, "_connections", counted)
    return runs


# n -> (plan pairs per block, rows of a full FD run: whole stencils of
# 1 + 4n rows)
BLOCK_RULE = {1: (1075, 1075), 2: (307, 306), 3: (128, 117), 4: (65, 51)}


@pytest.mark.parametrize("n", sorted(BLOCK_RULE))
def test_block_width_follows_the_energy_jet(monkeypatch, n):
    """A block holds at most 10,752 // C(2n + 3, 3) plan pairs, the number
    of order-3 coefficients of the energy summed over its pairs, and one
    run of the FD commutator's stencils at most as many rows: here a run
    of the curvature check over one stencil more than a full run."""
    pairs, rows = BLOCK_RULE[n]
    assert finsler._block_pairs(n) == pairs
    stencil = 1 + 4 * n
    config = _randers(n, rows // stencil + 1, 1)
    sizes, runs = _block_sizes(monkeypatch), _fd_runs(monkeypatch)
    run_scenario(config, ["curvature"])
    assert sizes == [rows // stencil + 1]
    assert runs == [rows, stencil]


def test_curvature_n4_keeps_its_block_widths(monkeypatch):
    """At n = 4 with 2 fiber points per base point a block holds 32 base
    points and an FD run 3 of them, 51 rows, as when every block held 64
    pairs.  A block of one base point samples its stencil through
    ``induce_connections``, so it makes no run here."""
    config = load_config(os.path.join(ROOT, "tests", "data",
                                      "curvature-n4-v3.json"))
    config["sampling"]["count"] = 33
    sizes, runs = _block_sizes(monkeypatch), _fd_runs(monkeypatch)
    run_scenario(config, ["curvature"])
    assert sizes == [32, 1]
    assert runs == [51] * 10 + [34]


@pytest.mark.parametrize("name", sorted(
    f for f in os.listdir(os.path.join(ROOT, "configs"))
    if f.endswith(".json")))
def test_each_shipped_config_is_one_block(monkeypatch, name):
    """The blocks depend only on the plan; a shipped config's plan of 100
    base points at n = 2 fits in one block."""
    sizes = _block_sizes(monkeypatch)
    run_scenario(load_config(os.path.join(ROOT, "configs", name)),
                 ["structural"])
    assert sizes == [100]


@pytest.mark.parametrize("n,count,y_per_x,blocks", [(3, 100, 4, 4),
                                                    (1, 600, 2, 2)])
def test_reports_over_several_default_blocks_are_unchanged(
        monkeypatch, n, count, y_per_x, blocks):
    """A plan the default width cuts into several blocks gives the same
    report bytes there as at 7 pairs and at 1 pair per block."""
    config = _randers(n, count, y_per_x)
    sizes = _block_sizes(monkeypatch)
    expected = emit_report(run_scenario(config))
    assert len(sizes) == blocks
    for pairs in (7, 1):
        monkeypatch.setattr(finsler, "_block_pairs",
                            lambda n, pairs=pairs: pairs)
        assert emit_report(run_scenario(config)) == expected


def test_a_stacked_column_over_pairs_reads_base_point_inputs():
    """A stacked column over the plan pairs with a base-point input, W:
    one call on the pairs whose base point holds a value, each pair with
    its base point's W; the pairs of the base point where W vanishes carry
    W's error."""
    s = build_scenario(load_config(os.path.join(
        ROOT, "tests/data/errors-w-vanishing.json")))
    block = checks._Block(s, None, 0, len(s.plan.xs))
    calls = []

    def fn(b, xs, ys, ws):
        calls.append(len(xs))
        return np.array([float(y @ w) for y, w in zip(ys, ws)])

    rows = range(len(block.pairs[0]))
    found = _rows(block.read(checks._stacked(fn, checks.W, fiber=True)),
                     len(rows))
    ws = _rows(block.read(checks.W), len(block.xs))
    assert sum(isinstance(w, FinsymError) for w in ws) == 1
    for p, entry in zip(rows, found):
        w = ws[p // block.per_x]
        assert entry is w if isinstance(w, FinsymError) else entry[0] == (
            block.pairs[1][p] @ w[0])
    assert calls == [len(rows) - block.per_x]


FD_CONFIGS = ["configs/randers_dbeta.json"] + [
    f"tests/data/errors-{name}.json" for name in (
        "berwald-floor", "narrow-box", "not-minkowskian", "tol-pd",
        "w-vanishing")]


@pytest.mark.parametrize("path", FD_CONFIGS)
def test_each_fd_entry_is_the_one_point_commutator(path):
    """The FD column samples its base points' stencils in stacks; each
    entry is what the one-point commutator gives there, bit for bit, or
    its error, type and text.  Where the chain-rule curvature fails, the
    entry is that error and the commutator does not run."""
    s = build_scenario(load_config(os.path.join(ROOT, path)))
    sc = FedosovScenario(s.metric, s.vector_field, s.two_form)
    block = checks._Block(s, sc, 0, len(s.plan.xs))
    size = len(block.xs)
    outcomes = set()
    for x, up, fd in zip(block.xs, _rows(block.read(checks.UP), size),
                         _rows(block.read(checks.FD), size)):
        if isinstance(up, FinsymError):
            assert fd is up
            continue
        try:
            one = curvature_fd_commutator(sc, x)
        except FinsymError as exc:
            assert type(fd) is type(exc) and str(fd) == str(exc)
            outcomes.add("error")
        else:
            assert fd[0].shape == one.shape
            assert fd[0].tobytes() == one.tobytes()
            outcomes.add("value")
    # on the narrow box every stencil leaves the box
    assert outcomes == ({"error"} if "narrow-box" in path else {"value"})


def _facet_column(name):
    return next(facet.residual for check in checks.CHECKS
                for facet in check.facets if facet.name == name)


def _one_lift(b, sample, form):
    return PreservationResidual.stacked(*form, sample.chern)


# stacked column -> (the scenarios it applies to, its inputs, the call on
# one row's input values, each a stack of one row)
PAIR_COLUMNS = {
    "structural": (checks.STRUCTURAL, lambda s: True, (checks.SAMPLE,),
                   lambda b, sample: structural_residuals(sample)),
    "cartan-trace": (
        _facet_column("metric-validity:cartan-trace"), lambda s: True,
        (checks.SAMPLE,), lambda b, sample: cartan_trace_residual(sample)),
    "lift": (checks.LIFT, lambda s: s.two_form is not None,
             (checks.SAMPLE, checks.FORM), _one_lift),
    "lift-w": (checks.LIFT_W, lambda s: None not in (s.two_form,
                                                     s.vector_field),
               (checks.SAMPLE_W, checks.FORM), _one_lift),
    "standard-lift-w": (
        checks.STANDARD_LIFT_W,
        lambda s: s.vector_field is not None and s.dimension % 2 == 0,
        (checks.SAMPLE_W,), lambda b, sample: _one_lift(
            b, sample, checks._standard_data(b.s.dimension // 2))),
    "randers-equivalence": (
        _facet_column("preservation:randers-equivalence"),
        lambda s: s.two_form_kind == "randers-dbeta",
        (checks.LIFT, checks.COVECTOR, checks.SAMPLE),
        lambda b, lift, covector, sample: checks._randers_equivalence(
            b, None, None, lift, covector, sample)),
}


def _one_row_entries(block, column, inputs, one_row):
    """What ``one_row`` gives at each row of a column from that row's input
    values, each a stack of one row, or the row's first failing input's
    error."""
    size = len(block.points[column.fiber])
    read = [(c, _rows(block.read(c), len(block.points[c.fiber])))
            for c in inputs]
    out = []
    for p in range(size):
        values = [entries[p // block.per_x if column.fiber and not c.fiber
                          else p] for c, entries in read]
        error = next((v for v in values if isinstance(v, FinsymError)), None)
        out.append(error if error is not None else one_row(block, *values))
    return out


PAIR_CONFIGS = sorted(
    [f"configs/{name}" for name in os.listdir(os.path.join(ROOT, "configs"))]
    + [f"tests/data/{name}" for name in os.listdir(os.path.join(ROOT,
                                                                "tests/data"))])
# (config, column) whose rows mix values with their inputs' errors: pairs
# failing tol_pd, and a base point where W vanishes
MIXED_ENTRIES = ({("tests/data/errors-tol-pd.json", name)
                  for name in PAIR_COLUMNS}
                 | {("tests/data/errors-w-vanishing.json", name)
                    for name in ("lift-w", "standard-lift-w")})


@pytest.mark.parametrize("path", PAIR_CONFIGS)
def test_each_pair_numeric_entry_is_the_one_row_call(path):
    """The structural, Cartan-trace, lift and Randers-equivalence columns
    are one call over a block's rows whose inputs hold values; each entry
    is what the call on its row alone gives, bit for bit, through every
    byte of a lift's entries, and a row whose input fails carries that
    input's error.  The block is the whole plan, up to 1,600 rows."""
    s = build_scenario(load_config(os.path.join(ROOT, path)))
    sc = (FedosovScenario(s.metric, s.vector_field, s.two_form)
          if s.vector_field is not None else None)
    block = checks._Block(s, sc, 0, len(s.plan.xs))
    mixed = set()
    for name, (column, applies, inputs, one_row) in PAIR_COLUMNS.items():
        if not applies(s):
            continue
        found = _rows(block.read(column), len(block.points[column.fiber]))
        one = _one_row_entries(checks._Block(s, sc, 0, len(s.plan.xs)),
                               column, inputs, one_row)
        for a, b in zip(found, one):
            _assert_same(a, b)
        if len({isinstance(e, FinsymError) for e in found}) == 2:
            mixed.add((path, name))
    assert mixed == {key for key in MIXED_ENTRIES if key[0] == path}


# The one-point formulas the stacked pair numerics replaced, kept as their
# reference: a stack must give each row's one-point result, bit for bit.


def _one_point_structural(s):
    torsion = float(np.max(np.abs(s.chern - s.chern.transpose(0, 2, 1))))
    term_g = s.dg_dx.transpose(1, 2, 0)
    term_a = np.einsum("kj,kit->ijt", s.g, s.chern)
    term_b = np.einsum("ik,kjt->ijt", s.g, s.chern)
    term_c = 2.0 * np.einsum("ijs,st->ijt", s.A, s.N) / s.F
    residual = term_g - term_a - term_b - term_c
    scale = max(1.0, max(float(np.max(np.abs(t)))
                         for t in (term_g, term_a, term_b, term_c)))
    return (torsion, float(np.max(np.abs(residual))), scale)


def _one_point_cartan(s):
    trace = float(np.max(np.abs(np.einsum("ijk,k->ij", s.A, s.y))))
    scale = max(1.0, float(np.max(np.abs(s.A))) * float(np.linalg.norm(s.y)))
    return trace / scale


def _one_point_lift(w, dw, G):
    return (dw - np.einsum("il,lkj->kij", w, G)
            + np.einsum("jl,lki->kij", w, G))


def _one_point_randers(db, ddb, G):
    return ((np.einsum("lki,lj->kij", G, db)
             - np.einsum("lkj,li->kij", G, db))
            + (np.einsum("lkj,il->kij", G, db)
               - np.einsum("lki,jl->kij", G, db))
            + (ddb.transpose(0, 2, 1) - ddb))


@pytest.mark.parametrize("magnitude", [1e-3, 1e-1, 1.0, 1e2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_pair_numerics_equal_their_one_point_formulas(n, magnitude):
    """Random 64-row stacks at each dimension and magnitude: each row of
    the structural residuals, the Cartan trace (whose scale takes |y| as a
    1-D norm, a dot product), the lift residual and the Randers condition
    is its one-point formula's result, bit for bit."""
    rng = np.random.default_rng(int(n * 1000 * magnitude))
    P = 64

    def draw(*shape):
        return magnitude * rng.uniform(-1.0, 1.0, (P,) + shape)

    F = np.abs(draw()) + magnitude
    samples = FinslerSample(
        draw(n), draw(n), F, draw(n, n), draw(n, n), draw(n, n, n),
        draw(n, n, n), draw(n, n), draw(n, n, n), draw(n, n, n))
    rows = [take_rows(samples, p) for p in range(P)]
    for res, s in zip(zip(*structural_residuals(samples)), rows):
        assert res == _one_point_structural(s)
    assert cartan_trace_residual(samples).tolist() == [
        _one_point_cartan(s) for s in rows]
    w, dw, G = draw(n, n), draw(n, n, n), draw(n, n, n)
    db, ddb = draw(n, n), draw(n, n, n)
    lifts = PreservationResidual.stacked(w, dw, G)
    for entries, max_abs, row in zip(*lifts, zip(w, dw, G)):
        expected = _one_point_lift(*row)
        assert entries.tobytes() == expected.tobytes()
        assert max_abs == float(np.max(np.abs(expected)))
    for cond, row in zip(randers_condition(db, ddb, G), zip(db, ddb, G)):
        assert cond.tobytes() == _one_point_randers(*row).tobytes()


# The one-point curvature formulas the stacked ones replaced, kept as their
# reference: a stack must give each row's one-point result, bit for bit.


def _one_point_up(G, dG_dx, dG_dy, dW):
    half = (np.einsum("lkij->lijk", dG_dx)
            + np.einsum("lkip,pj->lijk", dG_dy, dW)
            + np.einsum("mki,ljm->lijk", G, G))
    return half - half.swapaxes(2, 3)


def _one_point_brace(G, dG_dx, dG_dy, dW):
    return (np.einsum("nljk->njkl", dG_dx)
            + np.einsum("nljp,pk->njkl", dG_dy, dW)
            - dG_dx
            - np.einsum("njkp,pl->njkl", dG_dy, dW)
            + np.einsum("plj,nkp->njkl", G, G)
            - np.einsum("pjk,nlp->njkl", G, G))


def _one_point_cyclic(last3):
    return (last3
            + np.einsum("nklj->njkl", last3)
            + np.einsum("nljk->njkl", last3))


def _one_point_lowered(w, up):
    return np.einsum("in,njkl->ijkl", w, up)


def _one_point_two_path(direct, assembled, lowered):
    return (float(np.max(np.abs(direct))), float(np.max(np.abs(assembled))),
            float(np.max(np.abs(direct - assembled))),
            max(1.0, float(np.max(np.abs(lowered)))))


def _one_point_cyclic_residual(up):
    scale = max(1.0, float(np.max(np.abs(up))))
    return float(np.max(np.abs(_one_point_cyclic(up)))), scale


def _one_point_contracted(up, brace, w):
    return _one_point_two_path(
        _one_point_lowered(w, _one_point_cyclic(brace)),
        _one_point_lowered(w, _one_point_cyclic(up)),
        _one_point_lowered(w, up))


def _one_point_pair(up, brace, w):
    direct = (_one_point_lowered(w, brace)
              - np.einsum("jn,nikl->ijkl", w, brace))
    lowered = _one_point_lowered(w, up)
    return _one_point_two_path(
        direct, lowered - lowered.transpose(1, 0, 2, 3), lowered)


def _one_point_fd_consistency(up, fd):
    scale = max(1.0, float(np.max(np.abs(up))), float(np.max(np.abs(fd))))
    return float(np.max(np.abs(up - fd))), scale


def _bits(values) -> bytes:
    """The bytes of a tuple of floats, so nan rows compare too."""
    return np.asarray(values, dtype=float).tobytes()


def _assert_curvature_values(G, dG_dx, dG_dy, dW, w, fd):
    """Each row of every stacked curvature quantity is its one-point
    formula's result on that row, bit for bit."""
    up, brace = curvature_up(G, dG_dx, dG_dy, dW), brace_array(
        G, dG_dx, dG_dy, dW)
    ups = list(up)
    rows = list(zip(G, dG_dx, dG_dy, dW, w, fd))
    for p, row in enumerate(rows):
        assert up[p].tobytes() == _one_point_up(*row[:4]).tobytes()
        assert brace[p].tobytes() == _one_point_brace(*row[:4]).tobytes()
    for a, row in zip(_cyclic(up), ups):
        assert a.tobytes() == _one_point_cyclic(row).tobytes()
    for found, row in zip(zip(*cyclic_residual(up)), ups):
        assert _bits(found) == _bits(_one_point_cyclic_residual(row))
    for fn, one in ((contracted_two_path, _one_point_contracted),
                    (pair_two_path, _one_point_pair)):
        for found, row in zip(zip(*fn(up, brace, w)), zip(ups, brace, w)):
            assert _bits(found) == _bits(one(*row))
    for found, row in zip(zip(*checks._fd_consistency(None, None, up, fd)),
                          zip(ups, fd)):
        assert _bits(found) == _bits(_one_point_fd_consistency(*row))
    assert _bits(checks._antisymmetry(None, None, up)) == _bits(
        [float(np.max(np.abs(u + u.swapaxes(2, 3)))) for u in ups])


def _curvature_stacks(rng, n, P, magnitude):
    def draw(*shape):
        return magnitude * rng.uniform(-1.0, 1.0, (P,) + shape)

    return (draw(n, n, n), draw(n, n, n, n), draw(n, n, n, n), draw(n, n),
            draw(n, n), draw(n, n, n, n))


@pytest.mark.parametrize("magnitude", [1e-3, 1e-1, 1.0, 1e2])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_curvature_numerics_equal_their_one_point_formulas(n, magnitude):
    """Random 64-row stacks at each dimension and magnitude: each row of
    the curvature, the brace array, the cyclic sum and its residual, both
    two-path comparisons and the FD-consistency and antisymmetry residuals
    is its one-point formula's result, bit for bit."""
    rng = np.random.default_rng(int(n * 1000 * magnitude) + 7)
    _assert_curvature_values(*_curvature_stacks(rng, n, 64, magnitude))


@pytest.mark.parametrize("n", [2, 4])
def test_curvature_scales_skip_non_finite_rows(n):
    """Rows holding nan or inf: every scale is Python's max(1.0, ...), in
    which a nan term after 1.0 is passed over, as at one point; each row is
    still its one-point result, bit for bit, and the finite rows are
    untouched."""
    rng = np.random.default_rng(n)
    G, dG_dx, dG_dy, dW, w, fd = _curvature_stacks(rng, n, 8, 1.0)
    dG_dx[1, 0, 0, 0, 1] = np.nan   # a nan curvature entry
    dW[2, 0, 0] = np.inf            # inf times 0 and inf - inf: nan
    w[3, 0, 1] = np.nan             # a nan form: the lowered arrays
    fd[4, 1, 0, 1, 0] = np.nan      # the FD side alone
    fd[5, 0, 1, 0, 1] = np.inf
    G[6] = 1e300                    # products overflow to inf
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_curvature_values(G, dG_dx, dG_dy, dW, w, fd)
        # np.maximum would make this scale nan
        (delta,), (scale,) = checks._fd_consistency(
            None, None, fd[:1] * 0.0, fd[4:5])
    assert np.isnan(delta) and scale == 1.0


# (point, index) pairs the tests and the FD commutator difference at
FD_INDICES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3), (2, 2),
              (4, 0), (1, 1, 1), (0, 0, 1)]


@pytest.mark.parametrize("idx", FD_INDICES)
def test_stacked_fd_stencil_and_oracle_equal_their_one_point_calls(idx):
    """A (P, n) stack of points: each stencil point is a stack whose rows
    are the points of each row's own stencil, and the estimate from stacked
    values (a scalar per row, and an array per row) is each row's 1-D
    estimate, bit for bit, at every derivative degree the tests take."""
    n = len(idx)
    rng = np.random.default_rng(sum(idx) * 10 + n)
    xs = rng.uniform(-3.0, 3.0, (16, n))
    xs[0] = 0.0
    xs[1, 0] = 1e-300
    stencil = fd_stencil(xs, idx)
    ones = [fd_stencil(x, idx) for x in xs]
    assert len(stencil) == len(ones[0])
    for k, points in enumerate(stencil):
        assert points.shape == xs.shape
        for p, one in enumerate(ones):
            assert points[p].tobytes() == one[k].tobytes()
    field = ScalarFieldSpec.parse(
        "+".join(f"x{v + 1}^3*sqrt(2+x{v + 1}^2)" for v in range(n)),
        [f"x{v + 1}" for v in range(n)])
    scalars = [field.evaluate(points) for points in stencil]
    arrays = [np.stack([np.outer(points[:, 0], points[:, -1]).T] * 2,
                       axis=-1) for points in stencil]
    found = fd_oracle(scalars, xs, idx), fd_oracle(arrays, xs, idx)
    for p, x in enumerate(xs):
        one_scalar = fd_oracle([v[p] for v in scalars], x, idx)
        one_array = fd_oracle([a[p] for a in arrays], x, idx)
        assert found[0][p].tobytes() == np.float64(one_scalar).tobytes()
        assert found[1][p].tobytes() == one_array.tobytes()
