"""Induced connections, Darboux relations, chart transformation, uniqueness."""

import numpy as np
import pytest

from finsym.errors import (
    DimensionMismatchError,
    NotMinkowskianError,
    ZeroVectorError,
)
from finsym.fields import ChartMap, VectorFieldSpec, parse_field
from finsym.fedosov import (
    ConnectionCoefficients,
    FedosovScenario,
    berwald_uniqueness_probe,
    darboux_relations_families,
    darboux_relations_residual,
    hatted_preservation_residual,
    induce_connection,
    induced_connection_field,
    minkowski_preservation_check,
    symplectic_connection_residual,
    transform_connection,
)
from finsym.symplectic import (
    chern_preservation_residual,
    explicit_two_form,
    standard_form,
)

from conftest import BOX2, const_vector, sample_box

V2 = ["x1", "x2"]

QUAD_CHART = ChartMap(
    forward=(parse_field("x1", V2), parse_field("x2+x1^2/2", V2)),
    inverse=(parse_field("x1", V2), parse_field("x2-x1^2/2", V2)))

LIN_CHART = ChartMap(
    forward=(parse_field("x1+x2", V2), parse_field("x2", V2)),
    inverse=(parse_field("x1-x2", V2), parse_field("x2", V2)))

# hatted composite of LIN then QUAD, worked out by hand
COMP_CHART = ChartMap(
    forward=(parse_field("x1+x2", V2), parse_field("x2+(x1+x2)^2/2", V2)),
    inverse=(parse_field("x1-x2+x1^2/2", V2), parse_field("x2-x1^2/2", V2)))

IDENTITY_CHART = ChartMap(forward=(parse_field("x1", V2), parse_field("x2", V2)),
                          inverse=(parse_field("x1", V2), parse_field("x2", V2)))


class TestInduceConnection:
    def test_euclidean_zero(self, euclid_std_scenario):
        gam = induce_connection(euclid_std_scenario, [0.3, -0.2])
        assert np.max(np.abs(gam.array)) == 0.0
        assert np.array_equal(gam.array, gam.array.transpose(0, 2, 1))

    def test_asymmetric_coefficients_rejected(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1e-17
        with pytest.raises(ValueError):
            ConnectionCoefficients(2, arr)

    def test_minkowskian_zero(self, quartic_std_scenario):
        gam = induce_connection(quartic_std_scenario, [0.5, 0.1])
        assert np.max(np.abs(gam.array)) == 0.0

    def test_riemannian_w_independence(self, polar):
        ws = [const_vector(2, (1, 0)), const_vector(2, (0, 1)),
              const_vector(2, (2, 3))]
        arrays = [induce_connection(FedosovScenario(polar, w), [2.0, 0.5]).array
                  for w in ws]
        for arr in arrays[1:]:
            assert np.max(np.abs(arr - arrays[0])) <= 1e-10

    def test_zero_vector_hypothesis_violated(self, euclid2):
        w = VectorFieldSpec((parse_field("-x2", V2), parse_field("x1", V2)))
        sc = FedosovScenario(euclid2, w)
        with pytest.raises(ZeroVectorError):
            induce_connection(sc, [0.0, 0.0])

    def test_field_closure(self, graph_scenario):
        field = induced_connection_field(graph_scenario)
        x = [0.4, -0.3]
        assert np.array_equal(field(x).array,
                              induce_connection(graph_scenario, x).array)


class TestSymplecticConnectionResidual:
    def test_zero_connection_constant_form(self):
        gam = ConnectionCoefficients.zero(2)
        assert symplectic_connection_residual(gam, standard_form(1), [0.1, 0.2]) == 0.0

    def test_unmatched_derivative(self):
        gam = ConnectionCoefficients.zero(2)
        omega = explicit_two_form(2, {(0, 1): "1+x1"})
        assert symplectic_connection_residual(gam, omega, [0.4, 0.0]) == pytest.approx(1.0)

    def test_exactness_on_preserving_scenario(self, graph_scenario):
        rng = np.random.default_rng(12)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 15):
            gam = induce_connection(graph_scenario, x)
            w = graph_scenario.vector_field.values(x)
            pres = chern_preservation_residual(
                graph_scenario.metric, graph_scenario.two_form, x, w)
            direct = symplectic_connection_residual(
                gam, graph_scenario.two_form, x)
            assert abs(direct - pres.max_abs) <= 1e-12
            assert direct <= 1e-9

    def test_exactness_on_non_preserving_scenario(self, randers_std_scenario):
        """The identity between the two computations holds regardless of
        whether the form is actually preserved."""
        x = [0.3, 0.2]
        gam = induce_connection(randers_std_scenario, x)
        w = randers_std_scenario.vector_field.values(x)
        pres = chern_preservation_residual(
            randers_std_scenario.metric, randers_std_scenario.two_form, x, w)
        direct = symplectic_connection_residual(
            gam, randers_std_scenario.two_form, x)
        assert abs(direct - pres.max_abs) <= 1e-12
        assert direct > 1e-3  # negative control is genuinely non-preserving

    def test_accepts_connection_field(self, graph_scenario):
        field = induced_connection_field(graph_scenario)
        res = symplectic_connection_residual(field, graph_scenario.two_form,
                                             [0.2, 0.5])
        assert res <= 1e-9

    def test_dimension_mismatch(self):
        gam = ConnectionCoefficients.zero(2)
        with pytest.raises(DimensionMismatchError):
            symplectic_connection_residual(gam, standard_form(2), [0.0] * 4)


class TestDarbouxRelations:
    def test_zero_connection(self):
        assert darboux_relations_residual(ConnectionCoefficients.zero(4), 2) == 0.0

    def test_hand_unrolled_n1(self):
        """n=1: families collapse to G^2_k2 + G^1_k1 = 0 for both k."""
        c = 0.37
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = c            # G^1_11 = c
        arr[1, 0, 1] = arr[1, 1, 0] = -c  # G^2_12 = -c, symmetric
        gam = ConnectionCoefficients(2, arr)
        fams = darboux_relations_families(gam, 1)
        assert np.max(fams) == 0.0
        # brute-force enumeration over all four printed relation families
        G = arr
        worst = 0.0
        for k in range(2):
            for i in range(1):
                for j in range(1):
                    worst = max(worst, abs(G[i + 1, k, j] - G[j + 1, k, i]))
                    worst = max(worst, abs(G[i + 1, k, j + 1] + G[j, k, i]))
                    worst = max(worst, abs(G[i, k, j] + G[j + 1, k, i + 1]))
                    worst = max(worst, abs(G[i, k, j + 1] - G[j, k, i + 1]))
        assert worst == 0.0

    def test_violating_connection_detected(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0  # G^1_11 = 1 with G^2_12 = 0 breaks the relation
        gam = ConnectionCoefficients(2, arr)
        assert darboux_relations_residual(gam, 1) == pytest.approx(1.0)

    def test_preserving_scenario_satisfies_relations(self, quartic_std_scenario):
        rng = np.random.default_rng(3)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 10):
            gam = induce_connection(quartic_std_scenario, x)
            res = symplectic_connection_residual(
                gam, quartic_std_scenario.two_form, x)
            if res <= 1e-9:
                assert darboux_relations_residual(gam, 1) <= 1e-8

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            darboux_relations_residual(ConnectionCoefficients.zero(2), 2)


class TestTransformConnection:
    def test_identity_chart(self, polar_scenario):
        gam = induce_connection(polar_scenario, [2.0, 0.5])
        # polar domain box differs; identity chart carries no domain checks
        ghat = transform_connection(gam, IDENTITY_CHART, [2.0, 0.5])
        assert np.max(np.abs(ghat.array - gam.array)) == 0.0

    def test_quadratic_chart_frozen_value(self):
        ghat = transform_connection(ConnectionCoefficients.zero(2),
                                    QUAD_CHART, [0.8, -0.1])
        expect = np.zeros((2, 2, 2))
        expect[1, 0, 0] = -1.0
        assert np.allclose(ghat.array, expect, atol=1e-12)

    def test_linear_chart_pure_conjugation(self, polar_scenario):
        x = [2.0, 0.5]
        gam = induce_connection(polar_scenario, x)
        ghat = transform_connection(gam, LIN_CHART, x)
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        Ainv = np.linalg.inv(A)
        expect = np.zeros((2, 2, 2))
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    acc = 0.0
                    for i in range(2):
                        for j in range(2):
                            for k in range(2):
                                acc += (A[p, i] * gam.array[i, j, k]
                                        * Ainv[j, q] * Ainv[k, r])
                    expect[p, q, r] = acc
        assert np.max(np.abs(ghat.array - expect)) < 1e-12

    def test_symmetry_preserved(self, graph_scenario):
        gam = induce_connection(graph_scenario, [0.4, -0.3])
        ghat = transform_connection(gam, QUAD_CHART, [0.4, -0.3])
        assert np.array_equal(ghat.array, ghat.array.transpose(0, 2, 1))

    def test_chain_consistency(self):
        """Transforming through a hand-composed chart equals composing the
        two transforms."""
        x = np.array([0.3, -0.2])
        zero = ConnectionCoefficients.zero(2)
        step1 = transform_connection(zero, LIN_CHART, x)
        mid = LIN_CHART.forward_point(x)
        step2 = transform_connection(step1, QUAD_CHART, mid)
        direct = transform_connection(zero, COMP_CHART, x)
        assert np.max(np.abs(step2.array - direct.array)) <= 1e-8

    def test_roundtrip(self, graph_scenario):
        x = np.array([0.4, -0.3])
        gam = induce_connection(graph_scenario, x)
        ghat = transform_connection(gam, QUAD_CHART, x)
        back = transform_connection(ghat, QUAD_CHART.swapped(),
                                    QUAD_CHART.forward_point(x))
        assert np.max(np.abs(back.array - gam.array)) <= 1e-8


class TestMinkowskiCheck:
    def test_identity_chart_constant_form(self, quartic2):
        res = minkowski_preservation_check(quartic2, standard_form(1),
                                           IDENTITY_CHART, [0.4, 0.1])
        assert res.natural == 0.0
        assert res.hatted == 0.0

    def test_linear_chart_constant_form(self, quartic2):
        res = minkowski_preservation_check(quartic2, standard_form(1),
                                           LIN_CHART, [0.4, 0.1])
        assert res.natural == 0.0
        assert abs(res.hatted) < 1e-12

    def test_quadratic_chart_equivalence(self, quartic2):
        rng = np.random.default_rng(17)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 10):
            res = minkowski_preservation_check(quartic2, standard_form(1),
                                               QUAD_CHART, x)
            ghat = transform_connection(ConnectionCoefficients.zero(2),
                                        QUAD_CHART, x)
            pres = hatted_preservation_residual(standard_form(1), QUAD_CHART,
                                                x, ghat)
            assert abs(res.hatted - pres.max_abs) <= 1e-8

    def test_not_minkowskian(self, polar):
        with pytest.raises(NotMinkowskianError):
            minkowski_preservation_check(polar, standard_form(1),
                                         IDENTITY_CHART, [2.0, 0.5])

    def test_non_constant_form_natural_residual(self, quartic2):
        omega = explicit_two_form(2, {(0, 1): "1+x1"})
        res = minkowski_preservation_check(quartic2, omega, IDENTITY_CHART,
                                           [0.4, 0.1])
        assert res.natural == pytest.approx(1.0)


class TestBerwaldUniqueness:
    def test_riemannian(self, polar_scenario):
        spread = berwald_uniqueness_probe(polar_scenario, [2.0, 0.5],
                                          [[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        assert spread <= 1e-10

    def test_minkowskian_exact(self, quartic_std_scenario):
        spread = berwald_uniqueness_probe(quartic_std_scenario, [0.4, 0.1],
                                          [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread == 0.0

    def test_randers_depends_on_vector(self, randers_dbeta_scenario):
        spread = berwald_uniqueness_probe(randers_dbeta_scenario, [0.3, 0.2],
                                          [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread > 1e-3

    def test_rejects_zero_probe(self, polar_scenario):
        with pytest.raises(ZeroVectorError):
            berwald_uniqueness_probe(polar_scenario, [2.0, 0.5],
                                     [[1.0, 0.0], [0.0, 0.0]])

    def test_needs_two(self, polar_scenario):
        with pytest.raises(ValueError):
            berwald_uniqueness_probe(polar_scenario, [2.0, 0.5], [[1.0, 0.0]])
