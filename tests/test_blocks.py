"""Every block function, row by row: a stack of points is evaluated in one
call, and each row must be what the call on that row alone gives, bit for
bit, error type and text included.  The stacks mix good rows with rows that
fail in every way a block can: outside the domain, below the slit or W's
floor, at a singular chart or alpha, where g is not positive definite,
where F <= 0, and where a field's value or jet is not finite."""

import dataclasses
import os
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym import checks
from finsym.checks import run_scenario
from finsym.curvature import induced_derivatives
from finsym.errors import FinsymError, each_row
from finsym.fedosov import FedosovScenario
from finsym.fields import (ChartMap, DomainBox, ScalarFieldSpec,
                           VectorFieldSpec, chart_jacobians)
from finsym.finsler import (MetricSpec, chern_block, euler_residuals,
                            homogeneity_residuals, randers_alpha_norm,
                            sample_block)
from finsym.scenario import load_config
from finsym.symplectic import (ExactTwoForm, covector_derivatives,
                               explicit_two_form)

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


def _jet_rows(order, xs):
    """The field's jet at each row: its coefficients and every partial."""
    jet = FIELD.eval_jet(xs, order)
    return list(zip(jet.c.T, *(jet.derivatives(k) for k in range(order + 1))))


def _points(rows):
    good, bad = rows
    return [(r,) for r in good], [(r,) for r in bad]


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
}


def _one_row(fn, row):
    """What ``fn`` gives on the stacks of one row: its entry, or its
    error."""
    try:
        (found,) = fn(*(np.array([r]) for r in row))
    except FinsymError as exc:
        return exc
    return found


def _assert_same(a, b):
    """Bit for bit, through tuples, lists and dataclasses; errors by type
    and text."""
    assert type(a) is type(b)
    if isinstance(a, FinsymError):
        assert str(a) == str(b)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            _assert_same(u, v)
    elif dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            _assert_same(getattr(a, field.name), getattr(b, field.name))
    else:
        assert np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


def test_every_case_has_good_and_failing_rows():
    for name, (fn, (good, bad)) in CASES.items():
        assert good and bad, name
        assert not any(isinstance(_one_row(fn, r), FinsymError)
                       for r in good), name
        assert all(isinstance(_one_row(fn, r), FinsymError)
                   for r in bad), name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_block_rows_equal_one_row_calls(data):
    """Each row of a stack, through :func:`each_row`, equals the call on
    its row alone; a stack of good rows is one call, so its rows are the
    stacked computation's own."""
    fn, (good, bad) = CASES[data.draw(st.sampled_from(sorted(CASES)))]
    pool = good if data.draw(st.booleans()) else good + bad
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    stacks = [np.array(column) for column in zip(*rows)]
    found = list(each_row(fn, *stacks))
    assert len(found) == len(rows)
    for row, entry in zip(rows, found):
        _assert_same(entry, _one_row(fn, row))


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# field evaluations (ScalarFieldSpec.evaluate and eval_jet calls) of a full
# run outside the FD commutator: (before the first block, in each block).
# W is evaluated over the whole plan first, one call per component; every
# other field quantity is one call per block, so a block of 4 base points
# costs what one of 12 does.
EVALUATIONS = {
    "configs/curved_volume.json": (2, 11),
    "configs/euclidean_standard.json": (2, 19),
    "configs/polar_riemannian.json": (2, 11),
    "configs/quartic_minkowski_chart.json": (2, 19),
    "configs/randers_dbeta.json": (2, 18),
    "tests/data/curvature-n4-v3.json": (4, 36),
}


@pytest.mark.parametrize("block_pairs", [None, 7])
@pytest.mark.parametrize("path", sorted(EVALUATIONS))
def test_field_evaluations_depend_on_the_blocks(monkeypatch, path,
                                                block_pairs):
    """Outside the FD commutator, which samples its own stencil, a run
    evaluates fields a fixed number of times per block, whatever the
    block's number of base points and pairs: the same at the default block
    size and with one base point per block."""
    config = load_config(os.path.join(ROOT, path))
    run_scenario(config)  # the standard form's data is read once a process
    if block_pairs is not None:
        monkeypatch.setattr(checks, "_BLOCK_PAIRS", block_pairs)
    counts, sizes, in_fd = [0], [], []
    evaluate = ScalarFieldSpec.evaluate
    eval_jet = ScalarFieldSpec.eval_jet
    close, commutator = checks._close, checks.curvature_fd_commutator

    def counted(original):
        def call(*args):
            if not in_fd:
                counts[-1] += 1
            return original(*args)
        return call

    def counted_close(block, todo):
        counts.append(0)
        sizes.append(len(block))
        return close(block, todo)

    def fd(s, x):
        in_fd.append(x)
        try:
            return commutator(s, x)
        finally:
            in_fd.pop()

    monkeypatch.setattr(ScalarFieldSpec, "evaluate", counted(evaluate))
    monkeypatch.setattr(ScalarFieldSpec, "eval_jet", counted(eval_jet))
    monkeypatch.setattr(checks, "_close", counted_close)
    monkeypatch.setattr(checks, "curvature_fd_commutator", fd)
    run_scenario(config)
    before, per_block = EVALUATIONS[path]
    assert counts == [before] + [per_block] * len(sizes)
    # one base point per block at 7 pairs, several at the default
    assert (max(sizes) == 1) == (block_pairs == 7)
