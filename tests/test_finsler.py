"""Fundamental tensors, connection coefficients, and structural residuals."""

import numpy as np
import pytest

from finsym.errors import (
    DomainError,
    NonPositiveError,
    NotPositiveDefiniteError,
)
from finsym.fields import parse_field
from finsym.finsler import (
    MetricSpec,
    berwald_probe,
    cartan_tensor,
    chern_coefficients,
    chern_structural_residuals,
    chern_with_derivatives,
    finsler_sample,
    finsler_value,
    formal_christoffel,
    fundamental_tensor,
    metric_validity,
    nonlinear_connection,
)
from finsym.jets import fd_oracle

from conftest import BOX2, POLAR_BOX, randers_metric, xy_samples


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
        g = fundamental_tensor(euclid2, [0.2, -0.1], [0.6, 1.1])
        assert np.allclose(g, np.eye(2), atol=1e-12)

    def test_riemannian_returns_matrix(self, polar):
        for y in ([1.0, 0.5], [0.3, 1.2]):
            g = fundamental_tensor(polar, [2.0, 0.5], y)
            assert np.allclose(g, np.diag([1.0, 4.0]), atol=1e-12)

    def test_quartic_frozen_values(self, quartic2):
        g = fundamental_tensor(quartic2, [0.0, 0.0], [1.0, 1.0])
        r2 = np.sqrt(2.0)
        assert np.allclose(g, [[r2, -r2 / 2], [-r2 / 2, r2]], atol=1e-12)

    def test_quartic_against_oracle(self, quartic2):
        x, y = np.zeros(2), np.array([1.0, 1.0])
        g = fundamental_tensor(quartic2, x, y)
        half_f2 = parse_field("0.5*(x1^4+x2^4)^0.5", ["x1", "x2"])
        for i in range(2):
            for j in range(2):
                idx = tuple((1 if k == i else 0) + (1 if k == j else 0)
                            for k in range(2))
                assert g[i, j] == pytest.approx(
                    fd_oracle(half_f2, y, idx), abs=1e-8)

    def test_degenerate_on_axis(self, quartic2):
        with pytest.raises(NotPositiveDefiniteError):
            fundamental_tensor(quartic2, [0.0, 0.0], [1.0, 0.0])

    def test_symmetric_exactly(self, randers01):
        g = fundamental_tensor(randers01, [0.3, 0.2], [1.0, 0.5])
        assert np.array_equal(g, g.T)


class TestCartanTensor:
    def test_riemannian_vanishes(self, polar):
        A = cartan_tensor(polar, [2.0, 0.5], [1.0, 1.0])
        assert np.max(np.abs(A)) < 1e-14

    def test_trace_vanishes(self, quartic2):
        y = np.array([1.0, 1.0])
        A = cartan_tensor(quartic2, [0.0, 0.0], y)
        assert np.max(np.abs(np.einsum("ijk,k->ij", A, y))) < 1e-12

    def test_quartic_entry_against_oracle(self, quartic2):
        x, y = np.zeros(2), np.array([1.0, 2.0])
        A = cartan_tensor(quartic2, x, y)
        F = finsler_value(quartic2, x, y)
        f2 = parse_field("(x1^4+x2^4)^0.5", ["x1", "x2"])
        expect = (F / 4.0) * fd_oracle(f2, y, (3, 0))
        assert A[0, 0, 0] == pytest.approx(expect, abs=1e-6)

    def test_total_symmetry(self, randers01):
        A = cartan_tensor(randers01, [0.3, 0.2], [1.0, 0.5])
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.array_equal(A, np.transpose(A, perm))


class TestFormalChristoffel:
    def test_x_independent_metric(self, quartic2):
        gam = formal_christoffel(quartic2, [0.3, -0.4], [1.0, 0.7])
        assert np.max(np.abs(gam)) == 0.0

    def test_euclidean(self, euclid2):
        gam = formal_christoffel(euclid2, [0.3, -0.4], [1.0, 0.7])
        assert np.max(np.abs(gam)) == 0.0

    def test_polar_closed_form(self, polar):
        # classical values: only gamma^1_22 = -r and gamma^2_12 = 1/r
        gam = formal_christoffel(polar, [2.0, 0.5], [1.0, 1.0])
        assert gam[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(0.5, abs=1e-12)
        assert gam[1, 1, 0] == pytest.approx(0.5, abs=1e-12)
        expected = np.zeros((2, 2, 2))
        expected[0, 1, 1] = -2.0
        expected[1, 0, 1] = expected[1, 1, 0] = 0.5
        assert np.allclose(gam, expected, atol=1e-12)


class TestNonlinearConnection:
    def test_locally_minkowskian(self, quartic2):
        N = nonlinear_connection(quartic2, [0.3, -0.4], [1.0, 0.7])
        assert np.max(np.abs(N)) == 0.0

    def test_riemannian_reduction(self, polar):
        x, y = [2.0, 0.5], np.array([1.0, 1.0])
        s = finsler_sample(polar, x, y)
        assert np.allclose(s.N, np.einsum("ijk,k->ij", s.gamma, y), atol=1e-12)

    def test_polar_entry(self, polar):
        N = nonlinear_connection(polar, [2.0, 0.5], [1.0, 1.0])
        assert N[0, 1] == pytest.approx(-2.0, abs=1e-12)

    def test_positive_homogeneity(self, randers01):
        x, y = [0.3, 0.2], np.array([1.0, 0.5])
        N1 = nonlinear_connection(randers01, x, y)
        N2 = nonlinear_connection(randers01, x, 2.0 * y)
        scale = max(1.0, float(np.max(np.abs(N1))))
        assert np.max(np.abs(N2 - 2.0 * N1)) <= 1e-8 * scale


class TestChernCoefficients:
    def test_euclidean_zero(self, euclid2):
        assert np.max(np.abs(chern_coefficients(euclid2, [0.1, 0.1], [1.0, 2.0]))) == 0.0

    def test_riemannian_reduction(self, polar):
        """For a quadratic metric the coefficients equal the Levi-Civita
        symbols and are fiber-independent."""
        x = [2.0, 0.5]
        g1 = chern_coefficients(polar, x, [1.0, 1.0])
        gam = formal_christoffel(polar, x, [1.0, 1.0])
        assert np.max(np.abs(g1 - gam)) < 1e-14
        g2 = chern_coefficients(polar, x, [0.3, 1.7])
        assert np.max(np.abs(g1 - g2)) < 1e-10

    def test_lower_index_symmetry_exact(self, randers01):
        G = chern_coefficients(randers01, [0.3, 0.2], [1.0, 0.5])
        assert np.array_equal(G, G.transpose(0, 2, 1))

    def test_randers_validated_by_structural(self, randers01):
        res = chern_structural_residuals(randers01, [0.3, 0.2], [1.0, 0.5])
        assert res.compat <= 1e-7 * res.scale


class TestStructuralResiduals:
    def test_euclidean_zero(self, euclid2):
        res = chern_structural_residuals(euclid2, [0.2, 0.3], [1.0, 0.5])
        assert res.torsion == 0.0
        assert res.compat == 0.0

    def test_polar(self, polar):
        res = chern_structural_residuals(polar, [2.0, 0.5], [1.0, 1.0])
        assert res.torsion == 0.0
        assert res.compat <= 1e-9

    def test_quartic_exact(self, quartic2):
        res = chern_structural_residuals(quartic2, [0.4, -0.2], [1.0, 0.7])
        assert res.torsion == 0.0
        assert res.compat == 0.0

    def test_sampled_metrics(self, euclid2, polar, quartic2, randers01):
        rng = np.random.default_rng(5)
        cases = [(euclid2, BOX2), (polar, POLAR_BOX),
                 (quartic2, BOX2), (randers01, BOX2)]
        for metric, box in cases:
            for x, y in xy_samples(rng, box, 25):
                res = chern_structural_residuals(metric, x, y)
                assert res.torsion == 0.0
                assert res.compat <= 1e-7 * res.scale


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
    def test_riemannian(self, polar):
        spread = berwald_probe(polar, [2.0, 0.5],
                               [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread <= 1e-10

    def test_locally_minkowskian_exact(self, quartic2):
        spread = berwald_probe(quartic2, [0.4, -0.2],
                               [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread == 0.0

    def test_randers_is_not_berwald(self, randers01):
        spread = berwald_probe(randers01, [0.3, 0.2],
                               [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread > 1e-3

    def test_needs_two_samples(self, polar):
        with pytest.raises(DomainError):
            berwald_probe(polar, [2.0, 0.5], [[1.0, 1.0]])


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
