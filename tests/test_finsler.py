"""Fundamental tensors, connection coefficients, and structural residuals."""

import glob
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym import checks, finsler
from finsym.checks import run_scenario
from finsym.errors import (
    DomainError,
    FinsymError,
    NonPositiveError,
    NotPositiveDefiniteError,
    take_rows,
)
from finsym.fields import DomainBox, ScalarFieldSpec
from finsym.finsler import (
    FinslerSample,
    MetricSpec,
    _require_points,
    chern_block,
    chern_with_derivatives,
    finsler_sample,
    finsler_samples,
    max_pairwise_spread,
    metric_validity,
    sample_block,
    structural_residuals,
)
from finsym.report import emit_report
from finsym.scenario import build_scenario, load_config

from conftest import (BOX2, POLAR_BOX, fd_estimate, randers_metric,
                      xy_samples)


def finsler_value(m, x, y):
    """F(x, y), as the sample there reads it."""
    return finsler_sample(m, x, y).F


class TestFinslerValue:
    def test_euclidean(self, euclid2):
        assert finsler_value(euclid2, [0.1, 0.2], [3.0, 4.0]) == pytest.approx(5.0)

    def test_polar(self, polar):
        assert finsler_value(polar, [2.0, 0.5], [0.0, 1.0]) == pytest.approx(2.0)

    def test_randers_direct_substitution(self, randers01):
        # alpha = 1, beta = b . y = 0 at x = (1, 0), y = (1, 0)
        assert finsler_value(randers01, [1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_outside_domain(self, euclid2):
        with pytest.raises(DomainError):
            finsler_value(euclid2, [2.0, 0.0], [1.0, 1.0])

    def test_slit_floor(self, euclid2):
        with pytest.raises(DomainError):
            finsler_value(euclid2, [0.0, 0.0], [1e-9, 0.0])

    def test_non_positive_custom(self):
        m = MetricSpec.custom("y1-2*y2", 2, BOX2)
        with pytest.raises(NonPositiveError):
            finsler_value(m, [0.0, 0.0], [1.0, 1.0])


class TestFundamentalTensor:
    def test_euclidean_identity(self, euclid2):
        g = finsler_sample(euclid2, [0.2, -0.1], [0.6, 1.1]).g
        assert np.allclose(g, np.eye(2), atol=1e-12)

    def test_riemannian_returns_matrix(self, polar):
        for y in ([1.0, 0.5], [0.3, 1.2]):
            g = finsler_sample(polar, [2.0, 0.5], y).g
            assert np.allclose(g, np.diag([1.0, 4.0]), atol=1e-12)

    def test_quartic_frozen_values(self, quartic2):
        g = finsler_sample(quartic2, [0.0, 0.0], [1.0, 1.0]).g
        r2 = np.sqrt(2.0)
        assert np.allclose(g, [[r2, -r2 / 2], [-r2 / 2, r2]], atol=1e-12)

    def test_quartic_against_oracle(self, quartic2):
        x, y = np.zeros(2), np.array([1.0, 1.0])
        g = finsler_sample(quartic2, x, y).g
        half_f2 = ScalarFieldSpec.parse("0.5*(x1^4+x2^4)^0.5", ["x1", "x2"])
        for i in range(2):
            for j in range(2):
                idx = tuple((1 if k == i else 0) + (1 if k == j else 0)
                            for k in range(2))
                assert g[i, j] == pytest.approx(
                    fd_estimate(half_f2, y, idx), abs=1e-8)

    def test_degenerate_on_axis(self, quartic2):
        with pytest.raises(NotPositiveDefiniteError):
            finsler_sample(quartic2, [0.0, 0.0], [1.0, 0.0]).g

    def test_symmetric_exactly(self, randers01):
        g = finsler_sample(randers01, [0.3, 0.2], [1.0, 0.5]).g
        assert np.array_equal(g, g.T)


class TestCartanTensor:
    def test_riemannian_vanishes(self, polar):
        A = finsler_sample(polar, [2.0, 0.5], [1.0, 1.0]).A
        assert np.max(np.abs(A)) < 1e-14

    def test_trace_vanishes(self, quartic2):
        y = np.array([1.0, 1.0])
        A = finsler_sample(quartic2, [0.0, 0.0], y).A
        assert np.max(np.abs(np.einsum("ijk,k->ij", A, y))) < 1e-12

    def test_quartic_entry_against_oracle(self, quartic2):
        x, y = np.zeros(2), np.array([1.0, 2.0])
        A = finsler_sample(quartic2, x, y).A
        F = finsler_value(quartic2, x, y)
        f2 = ScalarFieldSpec.parse("(x1^4+x2^4)^0.5", ["x1", "x2"])
        expect = (F / 4.0) * fd_estimate(f2, y, (3, 0))
        assert A[0, 0, 0] == pytest.approx(expect, abs=1e-6)

    def test_total_symmetry(self, randers01):
        A = finsler_sample(randers01, [0.3, 0.2], [1.0, 0.5]).A
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.array_equal(A, np.transpose(A, perm))


class TestFormalChristoffel:
    def test_x_independent_metric(self, quartic2):
        gam = finsler_sample(quartic2, [0.3, -0.4], [1.0, 0.7]).gamma
        assert np.max(np.abs(gam)) == 0.0

    def test_euclidean(self, euclid2):
        gam = finsler_sample(euclid2, [0.3, -0.4], [1.0, 0.7]).gamma
        assert np.max(np.abs(gam)) == 0.0

    def test_polar_closed_form(self, polar):
        # classical values: only gamma^1_22 = -r and gamma^2_12 = 1/r
        gam = finsler_sample(polar, [2.0, 0.5], [1.0, 1.0]).gamma
        assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert gam[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -2.0
        expected[1, 0, 1] = expected[1, 1, 0] = 0.5
        assert np.allclose(gam, expected, atol=1e-12)


class TestNonlinearConnection:
    def test_locally_minkowskian(self, quartic2):
        N = finsler_sample(quartic2, [0.3, -0.4], [1.0, 0.7]).N
        assert np.max(np.abs(N)) == 0.0

    def test_riemannian_reduction(self, polar):
        x, y = [2.0, 0.5], np.array([1.0, 1.0])
        s = finsler_sample(polar, x, y)
        assert np.allclose(s.N, np.einsum("ijk,k->ij", s.gamma, y), atol=1e-12)

    def test_polar_entry(self, polar):
        N = finsler_sample(polar, [2.0, 0.5], [1.0, 1.0]).N
        assert N[0, 1] == pytest.approx(-2.0, abs=1e-12)

    def test_positive_homogeneity(self, randers01):
        x, y = [0.3, 0.2], np.array([1.0, 0.5])
        N1 = finsler_sample(randers01, x, y).N
        N2 = finsler_sample(randers01, x, 2.0 * y).N
        scale = max(1.0, float(np.max(np.abs(N1))))
        assert np.max(np.abs(N2 - 2.0 * N1)) <= 1e-8 * scale


class TestChernCoefficients:
    def test_euclidean_zero(self, euclid2):
        G = finsler_sample(euclid2, [0.1, 0.1], [1.0, 2.0]).chern
        assert np.max(np.abs(G)) == 0.0

    def test_riemannian_reduction(self, polar):
        """For a quadratic metric the coefficients equal the Levi-Civita
        symbols and are fiber-independent."""
        x = [2.0, 0.5]
        g1 = finsler_sample(polar, x, [1.0, 1.0]).chern
        gam = finsler_sample(polar, x, [1.0, 1.0]).gamma
        assert np.max(np.abs(g1 - gam)) < 1e-14
        g2 = finsler_sample(polar, x, [0.3, 1.7]).chern
        assert np.max(np.abs(g1 - g2)) < 1e-10

    def test_lower_index_symmetry_exact(self, randers01):
        G = finsler_sample(randers01, [0.3, 0.2], [1.0, 0.5]).chern
        assert np.array_equal(G, G.transpose(0, 2, 1))

    def test_randers_validated_by_structural(self, randers01):
        res = take_rows(structural_residuals(
            sample_block(randers01, [[0.3, 0.2]], [[1.0, 0.5]])), 0)
        assert res.compat <= 1e-7 * res.scale


class TestStructuralResiduals:
    def test_euclidean_zero(self, euclid2):
        res = take_rows(structural_residuals(
            sample_block(euclid2, [[0.2, 0.3]], [[1.0, 0.5]])), 0)
        assert res.torsion == 0.0
        assert res.compat == 0.0

    def test_polar(self, polar):
        res = take_rows(structural_residuals(
            sample_block(polar, [[2.0, 0.5]], [[1.0, 1.0]])), 0)
        assert res.torsion == 0.0
        assert res.compat <= 1e-9

    def test_quartic_exact(self, quartic2):
        res = take_rows(structural_residuals(
            sample_block(quartic2, [[0.4, -0.2]], [[1.0, 0.7]])), 0)
        assert res.torsion == 0.0
        assert res.compat == 0.0

    def test_sampled_metrics(self, euclid2, polar, quartic2, randers01):
        rng = np.random.default_rng(5)
        cases = [(euclid2, BOX2), (polar, POLAR_BOX),
                 (quartic2, BOX2), (randers01, BOX2)]
        for metric, box in cases:
            xs, ys = zip(*xy_samples(rng, box, 25))
            res = structural_residuals(sample_block(metric, xs, ys))
            assert len(res.torsion) == 25
            assert (res.torsion == 0.0).all()
            assert (res.compat <= 1e-7 * res.scale).all()


class TestMetricValidity:
    def test_euclidean_all_pass(self, euclid2):
        rng = np.random.default_rng(2)
        records = metric_validity(euclid2, xy_samples(rng, BOX2, 10))
        assert records and all(r.passed for r in records)

    def test_randers_bound(self, randers01):
        rng = np.random.default_rng(2)
        records = metric_validity(randers01, xy_samples(rng, BOX2, 10))
        bound = [r for r in records if r.check == "metric-validity:randers-bound"]
        assert bound and all(r.passed for r in bound)
        assert max(r.residual for r in bound) <= 0.1 * np.sqrt(2.0)

    def test_degree_two_counterexample_fails_homogeneity(self):
        m = MetricSpec.custom("y1^2+y2^2", 2, BOX2)
        rng = np.random.default_rng(2)
        records = metric_validity(m, xy_samples(rng, BOX2, 5))
        homog = [r for r in records if r.check == "metric-validity:homogeneity"]
        assert homog and all(not r.passed for r in homog)

    def test_euler_identity_all_metrics(self, euclid2, polar, quartic2, randers01):
        rng = np.random.default_rng(9)
        for metric, box in [(euclid2, BOX2), (polar, POLAR_BOX),
                            (quartic2, BOX2), (randers01, BOX2)]:
            records = metric_validity(metric, xy_samples(rng, box, 10))
            euler = [r for r in records if r.check == "metric-validity:euler"]
            assert euler and all(r.passed for r in euler)


class TestBerwaldProbe:
    YS = ([1.0, 0.5], [0.5, 1.3], [2.0, 3.0])

    def test_riemannian(self, polar):
        (spread,) = max_pairwise_spread(np.array(
            [[finsler_sample(polar, [2.0, 0.5], y).chern for y in self.YS]]))
        assert spread <= 1e-10

    def test_locally_minkowskian_exact(self, quartic2):
        (spread,) = max_pairwise_spread(np.array(
            [[finsler_sample(quartic2, [0.4, -0.2], y).chern
              for y in self.YS]]))
        assert spread == 0.0

    def test_randers_is_not_berwald(self, randers01):
        (spread,) = max_pairwise_spread(np.array(
            [[finsler_sample(randers01, [0.3, 0.2], y).chern
              for y in self.YS]]))
        assert spread > 1e-3


class TestChernWithDerivatives:
    POINTS = {2: ([0.3, 0.2], [1.0, 0.5]),
              3: ([0.3, -0.2, 0.5], [1.0, 0.5, 0.8]),
              4: ([0.3, -0.2, 0.5, -0.6], [1.0, 0.5, 0.8, 0.6])}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_values_match_sample(self, n):
        m = randers_metric(n)
        x, y = self.POINTS[n]
        G, _, _ = chern_with_derivatives(m, x, y)
        assert np.array_equal(G, finsler_sample(m, x, y).chern)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_derivatives_against_differences(self, n):
        m = randers_metric(n)
        x, y = (np.array(v) for v in self.POINTS[n])
        _, dGx, dGy = chern_with_derivatives(m, x, y)
        h = 1e-5
        for t in range(n):
            e = np.zeros(n)
            e[t] = h
            num = (finsler_sample(m, x + e, y).chern
                   - finsler_sample(m, x - e, y).chern) / (2 * h)
            assert np.max(np.abs(num - dGx[:, :, :, t])) < 1e-8
            num = (finsler_sample(m, x, y + e).chern
                   - finsler_sample(m, x, y - e).chern) / (2 * h)
            assert np.max(np.abs(num - dGy[:, :, :, t])) < 1e-8

    def test_fiber_independence_for_riemannian(self, graph2):
        x = [0.4, -0.3]
        _, _, dGy = chern_with_derivatives(graph2, x, [1.0, 0.5])
        assert np.max(np.abs(dGy)) < 1e-11


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
CONFIGS = SHIPPED + sorted(glob.glob(os.path.join(ROOT, "tests", "data",
                                                  "*.json")))


def _assert_same_sample(a: FinslerSample, b: FinslerSample) -> None:
    for name in FinslerSample._fields:
        va, vb = getattr(a, name), getattr(b, name)
        assert type(va) is type(vb), name
        assert np.shape(va) == np.shape(vb), name
        assert np.asarray(va).tobytes() == np.asarray(vb).tobytes(), name


def _entries(found) -> list:
    """The rows of what :func:`finsler_samples` gives, in order: each row's
    sample as :func:`finsler_sample` gives one, or its error."""
    rows, samples, errors = found
    entries = dict(errors)
    if samples is not None:
        samples = samples._replace(F=samples.F.tolist())
        entries.update((p, FinslerSample(*(a[i] for a in samples)))
                       for i, p in enumerate(rows.tolist()))
    return [entries[p] for p in sorted(entries)]


def _assert_one_point_result(m, x, y, entry) -> None:
    """``entry`` is what finsler_sample gives at (x, y): the same sample
    bit for bit, or an error of the same type and text."""
    try:
        one = finsler_sample(m, x, y)
    except FinsymError as exc:
        assert type(entry) is type(exc) and str(entry) == str(exc)
        return
    _assert_same_sample(entry, one)


def _per_row_check(m, xs, ys):
    """The domain check one pair at a time, x before y: the reference the
    stacked check in :func:`_require_points` must agree with."""
    for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)):
        if x.shape != (m.dimension,) or y.shape != (m.dimension,):
            raise DomainError(f"point shapes {x.shape}/{y.shape} do not "
                              f"match dimension {m.dimension}")
        m.domain.require(x, "base point")
        norm = math.hypot(*y)
        if norm < m.y_min:
            raise DomainError(
                f"fiber point norm {norm:.3e} below slit floor {m.y_min}")


def _outcome(fn, *args):
    try:
        fn(*args)
    except FinsymError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


class TestRequirePoints:
    BALLED = MetricSpec.custom("sqrt(y1^2+y2^2)", 2, DomainBox(
        (-2.0, -2.0), (2.0, 2.0), excluded=(((1.0, 1.0), 0.5),)))
    GOOD = [([0.1 * k, -0.2], [1.0, 0.1 * k]) for k in range(7)]
    BAD = {
        "box": ([3.0, 0.0], [1.0, 0.5]),
        "ball": ([1.1, 0.9], [1.0, 0.5]),
        "slit": ([0.1, 0.2], [1e-9, 0.0]),
        "nan": ([math.nan, 0.0], [1.0, 0.5]),
        "x-and-y": ([0.0, -2.5], [0.0, 1e-8]),  # x's error comes first
    }

    @pytest.mark.parametrize("where", [0, 3, 6], ids=["first", "middle",
                                                      "last"])
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_stacked_check_raises_the_per_row_error(self, bad, where):
        """The first failing row's error, type and text, whatever fails
        after it."""
        pairs = list(self.GOOD)
        pairs[where] = self.BAD[bad]
        if where < 6:  # a later row failing another way
            pairs[6] = self.BAD["slit" if bad == "box" else "box"]
        xs, ys = zip(*pairs)
        expected = _outcome(_per_row_check, self.BALLED, xs, ys)
        assert expected is not None
        assert _outcome(_require_points, self.BALLED, xs, ys) == expected

    def test_good_stacks_pass(self):
        xs, ys = zip(*self.GOOD)
        found = _require_points(self.BALLED, xs, ys)
        assert all(np.array_equal(a, b) for a, b in zip(found, (xs, ys)))
        assert _outcome(_require_points, self.BALLED, [[0.0]], [[1.0]]) == (
            "DomainError: point shapes (1,)/(1,) do not match dimension 2")

    def test_nan_base_point_is_outside(self):
        with pytest.raises(DomainError, match=r"base point \[nan, 0.0\] "
                           "outside domain"):
            finsler_sample(self.BALLED, [math.nan, 0.0], [1.0, 0.0])


class TestSampleBlocks:
    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_block_equals_one_point_calls(self, path):
        s = build_scenario(load_config(path))
        xs = np.repeat(s.plan.xs, s.plan.ys.shape[1], axis=0)
        ys = s.plan.ys.reshape(-1, s.dimension)
        found = _entries(finsler_samples(s.metric, xs, ys))
        assert len(found) == len(xs)
        for x, y, entry in zip(xs, ys, found):
            _assert_one_point_result(s.metric, x, y, entry)

    # sqrt(alpha^2) + x1 y1 with alpha^2 = (1 + x2) y1^2 + y2^2
    MIXED = MetricSpec.custom("sqrt(y1^2+y2^2+x2*y1^2)+x1*y1", 2,
                              DomainBox((-2.0, -2.0), (2.0, 2.0)))
    QUARTIC = MetricSpec.custom("(y1^4+y2^4)^0.25", 2,
                                DomainBox((-1.0, -1.0), (1.0, 1.0)))
    GOOD = [([0.1, 0.2], [1.0, 0.7]), ([-0.3, 0.4], [0.6, 1.1]),
            ([0.2, -0.1], [1.2, 0.4])]

    @pytest.mark.parametrize("metric,x,y,error", [
        (MIXED, [3.0, 0.0], [1.0, 0.5], DomainError),         # outside
        (MIXED, [0.1, 0.2], [1e-9, 0.0], DomainError),        # slit floor
        (MIXED, [-1.5, 0.0], [1.0, 0.0], NonPositiveError),   # F = -0.5
        (MIXED, [0.0, -1.5], [1.0, 0.0], DomainError),        # sqrt(-0.5)
        (QUARTIC, [0.0, 0.0], [1.0, 0.0], NotPositiveDefiniteError),
    ], ids=["outside", "slit", "F<=0", "sqrt", "not-pd"])
    def test_bad_point_in_a_block(self, metric, x, y, error):
        """A bad column gets the one-point call's error, type and text;
        the good columns around it are unchanged."""
        with pytest.raises(error) as raised:
            finsler_sample(metric, x, y)
        pairs = self.GOOD[:2] + [(x, y)] + self.GOOD[2:]
        found = _entries(finsler_samples(metric, *zip(*pairs)))
        assert type(found[2]) is error
        assert str(found[2]) == str(raised.value)
        alone = _entries(finsler_samples(metric, *zip(*self.GOOD)))
        for (gx, gy), entry, clean in zip(self.GOOD, found[:2] + found[3:],
                                          alone):
            _assert_same_sample(entry, clean)
            _assert_one_point_result(metric, gx, gy, entry)

    # g11 = 1e-9 + 1e300 x1: positive definite on x1 >= 0, but at x1 = 0
    # g^11 dg_11/dx1 overflows
    STEEP = MetricSpec.riemannian(
        [["0.000000001+1e300*x1", "0"], ["0", "1"]],
        DomainBox((0.0, -1.0), (1.0, 1.0)))
    # the energy's jet overflows once x1 is away from 0
    HUGE = MetricSpec.custom("sqrt(y1^2+y2^2)*(1+1e200*x1^2)", 2,
                             DomainBox((-2.0, -2.0), (2.0, 2.0)))
    # F itself overflows once x1 is away from 0
    BIG = MetricSpec.custom("sqrt(y1^2+y2^2)+1e300*x1*1e300", 2,
                            DomainBox((-2.0, -2.0), (2.0, 2.0)))

    # the type and text of each one-point error, as the one-point path
    # gave them before the block path became the only value path
    PINNED = [
        (MIXED, [3.0, 0.0], [1.0, 0.5], DomainError,
         "base point [3.0, 0.0] outside domain"),
        (MIXED, [0.1, 0.2], [1e-9, 0.0], DomainError,
         "fiber point norm 1.000e-09 below slit floor 1e-06"),
        (MIXED, [-1.5, 0.0], [1.0, 0.0], NonPositiveError,
         "F = -5.000e-01 <= 0 at x=[-1.5, 0.0], y=[1.0, 0.0]"),
        (MIXED, [0.0, -1.5], [1.0, 0.0], DomainError,
         "sqrt of negative value -0.5"),
        (QUARTIC, [0.0, 0.0], [1.0, 0.0], NotPositiveDefiniteError,
         "leading principal minor 2 is 0.000e+00 (<= 1e-10)"),
        (STEEP, [0.0, 0.5], [1.0, 0.3], DomainError,
         "non-finite connection data at x=[0.0, 0.5], y=[1.0, 0.3]"),
        (HUGE, [1.0, 0.0], [1.0, 0.0], DomainError,
         "non-finite field data at [1.0, 0.0, 1.0, 0.0]"),
        (BIG, [0.1, 0.0], [1.0, 0.0], DomainError,
         "non-finite field value at [0.1, 0.0, 1.0, 0.0]"),
    ]

    @pytest.mark.parametrize(
        "metric,x,y,error,text", PINNED,
        ids=["outside", "slit", "F<=0", "sqrt", "not-pd", "non-finite",
             "jet-overflow", "F-overflow"])
    def test_one_point_error_text_is_pinned(self, metric, x, y, error, text):
        """The one-point error and the entry of a failing row in a block
        carry the pinned type and text."""
        with pytest.raises(error) as raised:
            finsler_sample(metric, x, y)
        assert type(raised.value) is error and str(raised.value) == text
        good = self.GOOD_AT[metric]
        found = _entries(finsler_samples(metric,
                                         *zip(good[0], (x, y), good[1])))
        assert type(found[1]) is error and str(found[1]) == text

    # good points of each metric above
    GOOD_AT = {
        MIXED: GOOD,
        QUARTIC: [([0.1, 0.2], [1.0, 0.7]), ([-0.3, 0.4], [0.6, 1.1])],
        STEEP: [([0.2, 0.1], [1.0, 0.5]), ([0.5, -0.3], [0.4, 0.9])],
        HUGE: [([0.0, 0.3], [1.0, 0.5]), ([0.0, -0.6], [0.4, 0.9])],
        BIG: [([0.0, 0.3], [1.0, 0.5]), ([0.0, -0.6], [0.4, 0.9])],
    }

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_block_entries_equal_one_row_blocks(self, data):
        """In a block that mixes good and failing points at random places,
        entry p is what the one-row block of row p gives: the same sample
        bit for bit, or an error of the same type and text."""
        metric = data.draw(st.sampled_from(list(self.GOOD_AT)))
        pool = self.GOOD_AT[metric] + [(x, y) for m, x, y, *_ in self.PINNED
                                       if m is metric]
        pairs = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=8))
        found = _entries(finsler_samples(metric, *zip(*pairs)))
        assert len(found) == len(pairs)
        for (x, y), entry in zip(pairs, found):
            (alone,) = _entries(finsler_samples(metric, [x], [y]))
            if isinstance(alone, FinsymError):
                assert type(entry) is type(alone)
                assert str(entry) == str(alone)
            else:
                _assert_same_sample(entry, alone)
            _assert_one_point_result(metric, x, y, entry)

    @pytest.mark.parametrize("path,suite,y_per_x", [
        ("configs/randers_dbeta.json", None, 1),
        ("tests/data/curvature-n4-v3.json",
         ["metric-validity", "structural", "preservation", "induce"], 2),
        ("tests/data/structural-n3-v3.json", ["structural"], 3),
    ] + [(os.path.relpath(path, ROOT), None, None) for path in SHIPPED]
        + [("tests/data/curvature-n4-v3.json", None, None)])
    def test_block_size_leaves_reports_unchanged(self, monkeypatch, path,
                                                 suite, y_per_x):
        """The report does not depend on how the base points are cut into
        blocks.  ``y_per_x`` None runs the config's own plan."""
        config = load_config(os.path.join(ROOT, path))
        if y_per_x is not None:
            config["sampling"].update(count=40, y_per_x=y_per_x)
        expected = emit_report(run_scenario(config, suite))
        for size in (1, 7):
            monkeypatch.setattr(finsler, "_block_pairs",
                                lambda n, pairs=size: pairs)
            assert emit_report(run_scenario(config, suite)) == expected

    def test_block_size_leaves_one_fiber_point_reports_unchanged(
            self, monkeypatch):
        """At one fiber point per base point a block holds 32 base points,
        half of ``_block_pairs(4)``; the 4-d report at 64 base points is the
        same there, at block sizes 1 and 7, and in one block of all 64,
        where the order-4 column is 64 wide."""
        config = load_config(os.path.join(ROOT, "tests", "data",
                                          "curvature-n4-v3.json"))
        config["sampling"].update(count=64, y_per_x=1)
        expected = emit_report(run_scenario(config))
        for size in (1, 7, 128):
            monkeypatch.setattr(finsler, "_block_pairs",
                                lambda n, pairs=size: pairs)
            assert emit_report(run_scenario(config)) == expected

    @pytest.mark.parametrize("rows", [64, 65])
    def test_wide_order4_block_equals_one_row_calls(self, rows):
        """chern_block on 64 and 65 rows at n = 4 gives each row what the
        call on that row alone gives, bit for bit."""
        config = load_config(os.path.join(ROOT, "tests", "data",
                                          "curvature-n4-v3.json"))
        config["sampling"].update(count=rows, y_per_x=1)
        s = build_scenario(config)
        xs = s.plan.xs
        ws = s.vector_field.values(xs)
        found = chern_block(s.metric, xs, ws)
        assert all(len(a) == rows for a in found)
        for p in range(rows):
            alone = chern_block(s.metric, xs[p:p + 1], ws[p:p + 1])
            for a, b in zip(found, alone):
                assert a[p].shape == b[0].shape
                assert a[p].tobytes() == b[0].tobytes()
