"""Induced connections, Darboux relations, chart transformation, uniqueness."""

import numpy as np
import pytest

from finsym.checks import run_scenario
from finsym.errors import (
    DimensionMismatchError,
    NotMinkowskianError,
    ZeroVectorError,
    take_rows,
)
from finsym.fields import (
    ChartMap,
    ScalarFieldSpec,
    VectorFieldSpec,
    chart_jacobians,
)
from finsym.fedosov import (
    FedosovScenario,
    covariant_residual,
    darboux_relations_residual,
    hatted_two_form_data,
    induce_connection,
    minkowski_preservation_check,
    minkowski_probes,
    require_minkowskian,
    transform_connection,
)
from finsym.finsler import finsler_sample, max_pairwise_spread
from finsym.jets import fd_oracle, fd_stencil
from finsym.symplectic import (
    PreservationResidual,
    chern_preservation_residual,
    explicit_two_form,
    standard_form,
)

from conftest import BOX2, const_vector, sample_box

V2 = ["x1", "x2"]
V4 = ["x1", "x2", "x3", "x4"]


def _specs(texts, names=V2):
    return tuple(ScalarFieldSpec.parse(t, names) for t in texts)


def _chart(forward, inverse, names=V2):
    return ChartMap(forward=_specs(forward, names),
                    inverse=_specs(inverse, names))


QUAD_CHART = _chart(("x1", "x2+x1^2/2"), ("x1", "x2-x1^2/2"))

LIN_CHART = _chart(("x1+x2", "x2"), ("x1-x2", "x2"))

# hatted composite of LIN then QUAD, worked out by hand
COMP_CHART = _chart(("x1+x2", "x2+(x1+x2)^2/2"),
                    ("x1-x2+x1^2/2", "x2-x1^2/2"))

IDENTITY_CHART = _chart(("x1", "x2"), ("x1", "x2"))


def _zero(m):
    return np.zeros((m, m, m))


class TestInduceConnection:
    def test_euclidean_zero(self, euclid_std_scenario):
        gam = induce_connection(euclid_std_scenario, [0.3, -0.2])
        assert np.max(np.abs(gam)) == 0.0
        assert np.array_equal(gam, gam.transpose(0, 2, 1))

    def test_minkowskian_zero(self, quartic_std_scenario):
        gam = induce_connection(quartic_std_scenario, [0.5, 0.1])
        assert np.max(np.abs(gam)) == 0.0

    def test_riemannian_w_independence(self, polar):
        ws = [const_vector(2, (1, 0)), const_vector(2, (0, 1)),
              const_vector(2, (2, 3))]
        arrays = [induce_connection(FedosovScenario(polar, w), [2.0, 0.5])
                  for w in ws]
        for arr in arrays[1:]:
            assert np.max(np.abs(arr - arrays[0])) <= 1e-10

    def test_zero_vector_hypothesis_violated(self, euclid2):
        w = VectorFieldSpec(_specs(("-x2", "x1")))
        sc = FedosovScenario(euclid2, w)
        with pytest.raises(ZeroVectorError):
            induce_connection(sc, [0.0, 0.0])


class TestSymplecticConnectionResidual:
    def test_zero_connection_constant_form(self):
        gam = _zero(2)
        omega, x = standard_form(1), [0.1, 0.2]
        assert covariant_residual(gam[None], *omega.data([x]))[0] == 0.0

    def test_unmatched_derivative(self):
        gam = _zero(2)
        omega, x = explicit_two_form(2, {(0, 1): "1+x1"}), [0.4, 0.0]
        assert covariant_residual(gam[None],
                                  *omega.data([x]))[0] == pytest.approx(1.0)

    def test_exactness_on_preserving_scenario(self, graph_scenario):
        rng = np.random.default_rng(12)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 15):
            gam = induce_connection(graph_scenario, x)
            w = graph_scenario.vector_field.values([x])[0]
            pres = chern_preservation_residual(
                graph_scenario.metric, graph_scenario.two_form, x, w)
            omega = graph_scenario.two_form
            direct = covariant_residual(gam[None], *omega.data([x]))[0]
            assert abs(direct - pres.max_abs) <= 1e-12
            assert direct <= 1e-9

    def test_exactness_on_non_preserving_scenario(self, randers_std_scenario):
        """The identity between the two computations holds regardless of
        whether the form is actually preserved."""
        x = [0.3, 0.2]
        gam = induce_connection(randers_std_scenario, x)
        w = randers_std_scenario.vector_field.values([x])[0]
        pres = chern_preservation_residual(
            randers_std_scenario.metric, randers_std_scenario.two_form, x, w)
        omega = randers_std_scenario.two_form
        direct = covariant_residual(gam[None], *omega.data([x]))[0]
        assert abs(direct - pres.max_abs) <= 1e-12
        assert direct > 1e-3  # negative control is genuinely non-preserving


class TestDarbouxRelations:
    def test_zero_connection(self):
        assert darboux_relations_residual(_zero(4)[None], 2)[0] == 0.0

    def test_hand_unrolled_n1(self):
        """n=1: families collapse to G^2_k2 + G^1_k1 = 0 for both k."""
        c = 0.37
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = c            # G^1_11 = c
        arr[1, 0, 1] = arr[1, 1, 0] = -c  # G^2_12 = -c, symmetric
        assert darboux_relations_residual(arr[None], 1)[0] == 0.0
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
        (residual,) = darboux_relations_residual(arr[None], 1)
        assert residual == pytest.approx(1.0)

    def test_preserving_scenario_satisfies_relations(self, quartic_std_scenario):
        rng = np.random.default_rng(3)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 10):
            gam = induce_connection(quartic_std_scenario, x)
            omega = quartic_std_scenario.two_form
            res = covariant_residual(gam[None], *omega.data([x]))[0]
            if res <= 1e-9:
                assert darboux_relations_residual(gam[None], 1)[0] <= 1e-8

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            darboux_relations_residual(_zero(2)[None], 2)[0]


class TestTransformConnection:
    def test_identity_chart(self, polar_scenario):
        gam = induce_connection(polar_scenario, [2.0, 0.5])
        # polar domain box differs; identity chart carries no domain checks
        (ghat,) = transform_connection(
            gam[None], chart_jacobians(IDENTITY_CHART, [[2.0, 0.5]]))
        assert np.max(np.abs(ghat - gam)) == 0.0

    def test_quadratic_chart_frozen_value(self):
        jac = chart_jacobians(QUAD_CHART, [[0.8, -0.1]])
        (ghat,) = transform_connection(_zero(2)[None], jac)
        expect = np.zeros((2, 2, 2))
        expect[1, 0, 0] = -1.0
        assert np.allclose(ghat, expect, atol=1e-12)

    def test_linear_chart_pure_conjugation(self, polar_scenario):
        x = [2.0, 0.5]
        gam = induce_connection(polar_scenario, x)
        (ghat,) = transform_connection(gam[None],
                                       chart_jacobians(LIN_CHART, [x]))
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
                                acc += (A[p, i] * gam[i, j, k]
                                        * Ainv[j, q] * Ainv[k, r])
                    expect[p, q, r] = acc
        assert np.max(np.abs(ghat - expect)) < 1e-12

    def test_symmetry_preserved(self, graph_scenario):
        gam = induce_connection(graph_scenario, [0.4, -0.3])
        (ghat,) = transform_connection(
            gam[None], chart_jacobians(QUAD_CHART, [[0.4, -0.3]]))
        assert np.array_equal(ghat, ghat.transpose(0, 2, 1))

    def test_chain_consistency(self):
        """Transforming through a hand-composed chart equals composing the
        two transforms."""
        x = np.array([0.3, -0.2])
        zero = _zero(2)[None]
        step1 = transform_connection(zero, chart_jacobians(LIN_CHART, [x]))
        mid = chart_jacobians(LIN_CHART, [x]).xhat
        step2 = transform_connection(step1, chart_jacobians(QUAD_CHART, mid))
        direct = transform_connection(zero, chart_jacobians(COMP_CHART, [x]))
        assert np.max(np.abs(step2 - direct)) <= 1e-8

    def test_roundtrip(self, graph_scenario):
        x = np.array([0.4, -0.3])
        gam = induce_connection(graph_scenario, x)
        jac = chart_jacobians(QUAD_CHART, [x])
        ghat = transform_connection(gam[None], jac)
        (back,) = transform_connection(
            ghat, chart_jacobians(QUAD_CHART.swapped(), jac.xhat))
        assert np.max(np.abs(back - gam)) <= 1e-8


def _minkowski(metric, omega, chart, x):
    """The minkowski check's residuals at x, and the hatted form and the
    chart derivatives there, as stacks of one row."""
    require_minkowskian(np.array([[finsler_sample(metric, x, y).chern
                                   for y in minkowski_probes(2)]]))
    jac = chart_jacobians(chart, [x])
    w, dw = omega.data([x])
    hatted = hatted_two_form_data(w, dw, jac)
    return (take_rows(minkowski_preservation_check(dw, jac, hatted), 0),
            hatted, jac)


class TestMinkowskiCheck:
    def test_identity_chart_constant_form(self, quartic2):
        res, _, _ = _minkowski(quartic2, standard_form(1), IDENTITY_CHART,
                               [0.4, 0.1])
        assert res.natural == 0.0
        assert res.hatted == 0.0

    def test_linear_chart_constant_form(self, quartic2):
        res, _, _ = _minkowski(quartic2, standard_form(1), LIN_CHART,
                               [0.4, 0.1])
        assert res.natural == 0.0
        assert abs(res.hatted) < 1e-12

    def test_quadratic_chart_equivalence(self, quartic2):
        rng = np.random.default_rng(17)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 10):
            res, hatted, jac = _minkowski(quartic2, standard_form(1),
                                          QUAD_CHART, x)
            ghat = transform_connection(_zero(2)[None], jac)
            _, (max_abs,) = PreservationResidual.stacked(*hatted, ghat)
            assert abs(res.hatted - max_abs) <= 1e-8

    def test_not_minkowskian(self, polar):
        probes = np.array([[finsler_sample(polar, [2.0, 0.5], y).chern
                            for y in minkowski_probes(2)]])
        with pytest.raises(NotMinkowskianError):
            require_minkowskian(probes)

    def test_non_constant_form_natural_residual(self, quartic2):
        omega = explicit_two_form(2, {(0, 1): "1+x1"})
        res, _, _ = _minkowski(quartic2, omega, IDENTITY_CHART, [0.4, 0.1])
        assert res.natural == pytest.approx(1.0)


# nonlinear charts with exact inverses and non-constant Jacobian
# determinants, and non-constant forms on them
PULLBACK_CASES = {
    2: (_chart(("x1*(1+x2^2)", "x2"), ("x1/(1+x2^2)", "x2")),
        {(0, 1): "1+x1^2+0.3*x2*x1"}),
    4: (_chart(("x1", "x2+x1^2/2", "x3+x1*x2", "x4+x3^2/2+x1"),
               ("x1", "x2-x1^2/2", "x3-x1*(x2-x1^2/2)",
                "x4-(x3-x1*(x2-x1^2/2))^2/2-x1"), V4),
        {(0, 1): "1+x1*x3", (0, 2): "x2^2", (0, 3): "x3*x4",
         (1, 2): "0.2", (1, 3): "0.5*x4", (2, 3): "2+x1^2"}),
}


@pytest.mark.parametrize("m", sorted(PULLBACK_CASES))
def test_hatted_form_against_differences(m):
    """The hatted partials (the dw and w.H terms) agree with finite
    differences of xhat -> what_qr(xhat); the values are J^T w J."""
    chart, entries = PULLBACK_CASES[m]
    omega = explicit_two_form(m, entries)

    def hatted_values(xhats):
        """The hatted components at each row of a stack of hatted points."""
        xs = np.stack([c.evaluate(xhats) for c in chart.inverse], axis=1)
        return hatted_two_form_data(*omega.data(xs),
                                    chart_jacobians(chart, xs))[0]

    rng = np.random.default_rng(21 + m)
    for x in rng.uniform(-0.8, 0.8, (4, m)):
        jacs = chart_jacobians(chart, [x])
        (w,), (dw,) = omega.data([x])
        (values,), (derivs,) = hatted_two_form_data(w[None], dw[None], jacs)
        jac = take_rows(jacs, 0)
        assert np.allclose(values, jac.inv.T @ w @ jac.inv,
                           rtol=0, atol=1e-14)
        assert np.array_equal(values, -values.T)
        assert np.array_equal(derivs, -derivs.transpose(0, 2, 1))
        for k in range(m):
            idx = tuple(int(v == k) for v in range(m))
            stencil = np.array(fd_stencil(jac.xhat, idx))
            fd = fd_oracle(hatted_values(stencil), jac.xhat, idx)
            for q in range(m):
                for r in range(q + 1, m):
                    assert (abs(derivs[k, q, r] - fd[q, r])
                            <= 1e-8 * max(1, abs(fd[q, r])))


def _spread(metric, x, ws):
    """The berwald-uniqueness residual: the largest difference of the
    connection arrays at x across the fiber points ws."""
    (spread,) = max_pairwise_spread(np.array(
        [[finsler_sample(metric, x, w).chern for w in ws]]))
    return spread


class TestBerwaldUniqueness:
    def test_riemannian(self, polar):
        spread = _spread(polar, [2.0, 0.5],
                         [[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
        assert spread <= 1e-10

    def test_minkowskian_exact(self, quartic2):
        spread = _spread(quartic2, [0.4, 0.1],
                         [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread == 0.0

    def test_randers_depends_on_vector(self, randers01):
        spread = _spread(randers01, [0.3, 0.2],
                         [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]])
        assert spread > 1e-3

    def test_rejects_zero_probe(self):
        config = {
            "dimension": 2,
            "metric": {"family": "riemannian",
                       "g": [["1", "0"], ["0", "x1^2"]],
                       "domain": {"lower": [1.0, 0.1], "upper": [3.0, 1.5]}},
            "vector_field": {"components": ["1", "0"]},
            "sampling": {"mode": "grid", "count": 4},
            "berwald_vectors": [[1.0, 0.0], [0.0, 0.0]],
        }
        records = run_scenario(config, suite=["berwald-uniqueness"])
        assert len(records) == 4
        assert all(not r.passed for r in records)
        assert {r.error for r in records} == {
            "ZeroVectorError: probe vector norm 0.000e+00 below floor 1e-06"}
