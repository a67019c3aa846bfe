"""Two-form validity, preservation residuals, and the Randers equivalence."""

import numpy as np
import pytest

from finsym.errors import DimensionMismatchError, OddDimensionError
from finsym.fields import ScalarFieldSpec
from finsym.finsler import finsler_sample, max_pairwise_spread
from finsym.jets import fd_oracle
from finsym.symplectic import (
    ExactTwoForm,
    TwoFormField,
    chern_preservation_residual,
    closedness,
    covector_derivatives,
    explicit_two_form,
    nondegeneracy,
    randers_condition,
    standard_form,
)

from conftest import BOX2, xy_samples

V2 = ["x1", "x2"]


class TestStandardForm:
    def test_n1(self):
        omega = standard_form(1)
        w = omega.data([[0.0, 0.0]])[0][0]
        assert w[0, 1] == 1.0 and w[1, 0] == -1.0

    def test_n2_pattern(self):
        omega = standard_form(2)
        w = omega.data([[0.1, 0.2, 0.3, 0.4]])[0][0]
        expect = np.zeros((4, 4))
        expect[0, 2] = expect[1, 3] = 1.0
        expect -= expect.T
        assert np.array_equal(w, expect)

    def test_constant_coefficients_closed(self):
        omega = standard_form(2)
        assert closedness(omega.data([[0.1, -0.2, 0.5, 0.0]])[0][1]) == 0.0

    def test_skewness_structural(self):
        omega = explicit_two_form(4, {(0, 1): "x1*x2", (1, 3): "sqrt(1+x3^2)"})
        w = omega.data([[0.5, -0.3, 0.2, 0.9]])[0][0]
        assert np.array_equal(w, -w.T)


class TestClosedness:
    def test_dbeta_is_closed(self, dbeta01):
        rng = np.random.default_rng(1)
        for x in -1 + 2 * rng.random((10, 2)):
            assert closedness(dbeta01.data([x])[0][1]) <= 1e-9

    def test_dbeta_closed_dim4(self):
        b = [ScalarFieldSpec.parse(t, ["x1", "x2", "x3", "x4"])
             for t in ("-0.1*x2", "0.1*x1*x3", "x4^2", "x1*x2*x3")]
        omega = ExactTwoForm(b)
        rng = np.random.default_rng(1)
        for x in -1 + 2 * rng.random((10, 4)):
            assert closedness(omega.data([x])[0][1]) <= 1e-9

    def test_two_dimensional_vacuous(self):
        omega = explicit_two_form(2, {(0, 1): "x1"})
        assert closedness(omega.data([[0.5, 0.5]])[0][1]) == 0.0

    def test_non_closed_detected(self):
        omega = explicit_two_form(4, {(0, 1): "x3"})
        d = omega.data([[0.0, 0.0, 0.0, 0.0]])[0][1]
        assert closedness(d) == pytest.approx(1.0)


class TestNondegeneracy:
    def test_standard(self):
        w = standard_form(2).data([[0.0] * 4])[0][0]
        assert nondegeneracy(w) == pytest.approx(1.0)

    def test_randers_dbeta_determinant(self, dbeta01):
        # 2 * 0.1 = 0.2 on each entry, det = 0.04
        w = dbeta01.data([[0.3, -0.8]])[0][0]
        assert nondegeneracy(w) == pytest.approx(0.04)

    def test_zero_form_fails(self):
        omega = TwoFormField(2, {})
        assert nondegeneracy(omega.data([[0.0, 0.0]])[0][0]) == 0.0

    def test_odd_dimension(self):
        omega = TwoFormField(3, {})
        with pytest.raises(OddDimensionError):
            nondegeneracy(omega.data([[0.0, 0.0, 0.0]])[0][0])


class TestRandersTwoForm:
    def test_linear_covector_constant_entry(self, dbeta01):
        rng = np.random.default_rng(4)
        for x in -1 + 2 * rng.random((5, 2)):
            (w, _), = dbeta01.data([x])
            assert w[0, 1] == pytest.approx(0.2, abs=1e-14)

    def test_exact_covector_gives_zero(self):
        # b = d(x1^2 + x2^2) has vanishing exterior derivative
        b = [ScalarFieldSpec.parse(t, V2) for t in ("2*x1", "2*x2")]
        omega = ExactTwoForm(b)
        assert np.max(np.abs(omega.data([[0.7, -0.4]])[0][0])) < 1e-14
        assert nondegeneracy(omega.data([[0.7, -0.4]])[0][0]) < 1e-8

    def test_degenerate_line(self):
        b = [ScalarFieldSpec.parse(t, V2) for t in ("0", "x1^2")]
        omega = ExactTwoForm(b)
        assert omega.data([[0.5, 0.0]])[0][0][0, 1] == pytest.approx(1.0)
        assert nondegeneracy(omega.data([[0.0, 0.3]])[0][0]) < 1e-8


# nonlinear covectors; b[j] is the component b_j
EXACT_CASES = {
    3: ("x2*x3^2", "sqrt(1+x1^2)*x3", "x1^3+x2/(2+x3)"),
    4: ("x2*x4^2", "x1*x3^2+x4", "sqrt(1+x2^2)*x4", "x1^2*x3-x2^3/3"),
}


@pytest.mark.parametrize("n", sorted(EXACT_CASES))
def test_exact_form_against_differences(n):
    """d(beta) and its partials agree with finite differences of b."""
    names = [f"x{i + 1}" for i in range(n)]
    b = [ScalarFieldSpec.parse(t, names) for t in EXACT_CASES[n]]
    omega = ExactTwoForm(b)
    unit = np.eye(n, dtype=int)
    rng = np.random.default_rng(30 + n)
    for x in rng.uniform(-0.9, 0.9, (3, n)):
        w, dw = omega.data([x])[0]
        assert np.array_equal(w, -w.T)
        assert np.array_equal(dw, -dw.transpose(0, 2, 1))
        for i in range(n):
            for j in range(n):
                fd = fd_oracle(b[j], x, unit[i]) - fd_oracle(b[i], x, unit[j])
                assert abs(w[i, j] - fd) <= 1e-9 * max(1.0, abs(fd))
                for k in range(n):
                    fd = (fd_oracle(b[j], x, unit[k] + unit[i])
                          - fd_oracle(b[i], x, unit[k] + unit[j]))
                    assert abs(dw[k, i, j] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestPreservationResidual:
    def test_euclidean_standard_zero(self, euclid2):
        res = chern_preservation_residual(euclid2, standard_form(1),
                                          [0.3, 0.1], [1.0, 0.5])
        assert res.max_abs == 0.0

    def test_minkowskian_constant_form_zero(self, quartic2):
        omega = explicit_two_form(2, {(0, 1): "3"})
        res = chern_preservation_residual(quartic2, omega, [0.3, 0.1], [1.0, 0.5])
        assert res.max_abs == 0.0

    def test_dimension_mismatch(self, euclid2):
        with pytest.raises(DimensionMismatchError):
            chern_preservation_residual(euclid2, standard_form(2),
                                        [0.0, 0.0], [1.0, 1.0])

    def test_volume_form_is_preserved(self, graph2, volume_form2):
        rng = np.random.default_rng(8)
        for x, y in xy_samples(rng, BOX2, 15):
            res = chern_preservation_residual(graph2, volume_form2, x, y)
            assert res.max_abs <= 1e-9

    def test_lift_invariant_when_berwald(self, graph2, volume_form2):
        """Fiber independence of the residual follows the coefficient spread."""
        x = [0.4, -0.3]
        ys = [[1.0, 0.5], [0.6, 1.2], [2.0, 1.0]]
        spread = max_pairwise_spread([finsler_sample(graph2, x, y).chern
                                      for y in ys])
        residuals = [chern_preservation_residual(graph2, volume_form2, x, y).entries
                     for y in ys]
        worst = max(float(np.max(np.abs(residuals[0] - r))) for r in residuals[1:])
        assert worst <= 10 * spread + 1e-12


class TestRandersCondition:
    def test_constant_covector_flat_alpha(self):
        from finsym.finsler import MetricSpec
        m = MetricSpec.randers([["1", "0"], ["0", "1"]], ["0.2", "0.1"], BOX2)
        x, y = [0.3, 0.1], [1.0, 0.5]
        cond = randers_condition(*covector_derivatives(m.b_fields, [x])[0],
                                 finsler_sample(m, x, y).chern)
        assert np.max(np.abs(cond)) == 0.0

    def test_equivalence_with_negated_lift_residual(self, randers01, dbeta01):
        rng = np.random.default_rng(6)
        for x, y in xy_samples(rng, BOX2, 20):
            pres = chern_preservation_residual(randers01, dbeta01, x, y)
            cond = randers_condition(
                *covector_derivatives(randers01.b_fields, [x])[0],
                finsler_sample(randers01, x, y).chern)
            scale = max(1.0, float(np.max(np.abs(pres.entries))))
            assert np.max(np.abs(cond + pres.entries)) <= 1e-9 * scale

    def test_pointwise_equivalence_at_probe(self, randers01, dbeta01):
        x, y = [0.3, 0.2], [1.0, 0.5]
        pres = chern_preservation_residual(randers01, dbeta01, x, y)
        (db_ddb,) = covector_derivatives(randers01.b_fields, [x])
        cond = randers_condition(*db_ddb, finsler_sample(randers01, x, y).chern)
        assert np.max(np.abs(cond + pres.entries)) <= 1e-9
