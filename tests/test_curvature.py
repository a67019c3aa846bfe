"""Curvature assembly, finite-difference cross-check, and identity residuals."""

import numpy as np
import pytest

from finsym.curvature import (
    brace_array,
    contracted_two_path,
    curvature_fd_commutator,
    curvature_fd_commutators,
    curvature_induced,
    curvature_up,
    cyclic_residual,
    induced_derivatives,
    pair_two_path,
)
from finsym import finsler
from finsym.errors import FinsymError, take_rows
from finsym.fedosov import FedosovScenario, induce_connection
from finsym.fields import DomainBox, ScalarFieldSpec, VectorFieldSpec
from finsym.jets import fd_oracle, fd_stencil
from finsym.symplectic import chern_preservation_residual, standard_form

from conftest import BOX2, BOX4, POLAR_BOX, XY2, patch_everywhere, sample_box


def _derivatives(sc, x, w=None):
    """The jet-path data at x, W(x) there unless given, each a stack of
    one row."""
    w = sc.vector_field.values([x])[0] if w is None else w
    return induced_derivatives(sc, [x], [w])


def _row(stack):
    """The one row of a stack of one row."""
    return take_rows(stack, 0)


def _form(form, x):
    """The two-form's components at x, a stack of one row."""
    return form.data([x])[0]


class TestCurvatureInduced:
    def test_flat_scenarios_vanish(self, euclid_std_scenario,
                                   quartic_std_scenario):
        for sc in (euclid_std_scenario, quartic_std_scenario):
            up = curvature_induced(sc, [0.4, -0.2])
            assert np.max(np.abs(up)) == 0.0

    def test_flat_with_varying_vector_field(self, euclid_std_scenario):
        """Chain terms vanish when the coefficients are constant, even for a
        position-dependent vector field."""
        up = curvature_induced(euclid_std_scenario, [0.7, 0.3])
        assert np.max(np.abs(up)) == 0.0

    def test_polar_chart_is_flat(self, polar_scenario):
        rng = np.random.default_rng(21)
        for x in sample_box(rng, POLAR_BOX.lower, POLAR_BOX.upper, 10):
            up = curvature_induced(polar_scenario, x)
            assert np.max(np.abs(up)) <= 1e-7

    def test_last_pair_antisymmetry_exact(self, graph_scenario):
        up = curvature_induced(graph_scenario, [0.4, -0.3])
        assert np.max(np.abs(up)) > 0.1  # genuinely curved
        assert np.max(np.abs(up + up.swapaxes(2, 3))) == 0.0

    def test_fd_commutator_cross_check(self, graph_scenario):
        rng = np.random.default_rng(22)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 8):
            up = curvature_induced(graph_scenario, x)
            fd = curvature_fd_commutator(graph_scenario, x)
            scale = max(1.0, float(np.max(np.abs(up))))
            assert np.max(np.abs(up - fd)) <= 1e-5 * scale

    def test_fd_commutator_dim4(self, product_scenario):
        x = [0.4, -0.3, 0.2, 0.5]
        up = curvature_induced(product_scenario, x)
        fd = curvature_fd_commutator(product_scenario, x)
        scale = max(1.0, float(np.max(np.abs(up))))
        assert np.max(np.abs(up - fd)) <= 1e-5 * scale

    def test_fd_commutator_never_reads_the_jet_path(self, monkeypatch,
                                                    graph_scenario):
        from finsym import finsler
        x = [0.4, -0.3]
        expected = curvature_fd_commutator(graph_scenario, x)

        def refuse(*args, **kwargs):
            raise AssertionError("finite-difference path reached the jet path")

        patch_everywhere(monkeypatch, finsler.chern_block, refuse)
        with pytest.raises(AssertionError):
            curvature_induced(graph_scenario, x)
        assert np.array_equal(curvature_fd_commutator(graph_scenario, x),
                              expected)

    def test_chain_term_matters(self, randers01, dbeta01):
        """With a position-dependent W on a fiber-dependent metric, dropping
        the fiber-derivative terms must break the finite-difference match."""
        from finsym.fields import ScalarFieldSpec, VectorFieldSpec
        w = VectorFieldSpec((ScalarFieldSpec.parse("1+x1^2", ["x1", "x2"]),
                             ScalarFieldSpec.parse("1+x2^2", ["x1", "x2"])))
        sc = FedosovScenario(randers01, w, dbeta01)
        x = [0.3, 0.2]
        up = curvature_induced(sc, x)
        fd = curvature_fd_commutator(sc, x)
        assert np.max(np.abs(up - fd)) <= 1e-5 * max(1.0, np.max(np.abs(up)))

        from finsym.finsler import chern_with_derivatives
        G, dG_dx, _ = chern_with_derivatives(sc.metric, x, w.values([x])[0])
        naive = (np.einsum("lkij->lijk", dG_dx)
                 + np.einsum("mki,ljm->lijk", G, G))
        naive = naive - naive.swapaxes(2, 3)
        assert np.max(np.abs(naive - fd)) > 1e-4


def _one_point_commutator(sc, x):
    """The FD commutator from one induce_connection call per point, centre
    first and then each axis's stencil in order: the form the stencil
    block must reproduce, value and error alike."""
    x = np.asarray(x, dtype=float)
    G0 = induce_connection(sc, x)
    axes = np.eye(sc.metric.dimension, dtype=int)
    dG = np.stack([fd_oracle([induce_connection(sc, p)
                              for p in fd_stencil(x, axis)], x, axis)
                   for axis in axes], axis=-1)
    half = np.einsum("lkij->lijk", dG) + np.einsum("mki,ljm->lijk", G0, G0)
    return half - half.swapaxes(2, 3)


def _outcome(fn, sc, x):
    try:
        return fn(sc, x)
    except FinsymError as exc:
        return f"{type(exc).__name__}: {exc}"


def _vanishing_at(point):
    """A vector field whose only zero is ``point``: the components are
    x_i - point_i, with each coordinate written exactly."""
    return VectorFieldSpec(tuple(ScalarFieldSpec.parse(f"x{i + 1}-{v!r}", XY2)
                                 for i, v in enumerate(point.tolist())))


class TestStencilBlock:
    def test_block_equals_one_point_calls_bit_for_bit(self, graph_scenario,
                                                      product_scenario):
        rng = np.random.default_rng(23)
        cases = [(graph_scenario, x)
                 for x in sample_box(rng, BOX2.lower, BOX2.upper, 6)]
        cases.append((product_scenario, np.array([0.4, -0.3, 0.2, 0.5])))
        for sc, x in cases:
            assert np.array_equal(curvature_fd_commutator(sc, x),
                                  _one_point_commutator(sc, x))

    @pytest.mark.parametrize("points,pairs,runs", [
        (7, 63, [63]),        # one run of exactly the row cap
        (7, 62, [54, 9]),     # one row fewer: the seventh stencil runs alone
        (8, 63, [63, 9]),     # one stencil past the cap
        (3, 1, [9, 9, 9]),    # a cap below one stencil: one run each
    ])
    def test_stacked_stencils_equal_one_point_calls(self, monkeypatch,
                                                    graph_scenario, points,
                                                    pairs, runs):
        """Stencils are sampled in runs of whole stencils of at most
        ``finsler._block_pairs(n)`` rows, here patched to ``pairs``, and
        each base point's commutator is the one-point one, bit for bit."""
        xs = sample_box(np.random.default_rng(24), BOX2.lower, BOX2.upper,
                        points)
        sizes = []
        block = finsler.sample_block

        def counted(m, xs, ys):
            sizes.append(len(xs))
            return block(m, xs, ys)

        patch_everywhere(monkeypatch, block, counted)
        monkeypatch.setattr(finsler, "_block_pairs", lambda n: pairs)
        found = curvature_fd_commutators(graph_scenario, xs)
        assert sizes == runs
        for x, fd in zip(xs, found):
            assert np.array_equal(fd, _one_point_commutator(graph_scenario,
                                                            x))

    @pytest.mark.parametrize("x1,zero,expected", [
        # W vanishes at the centre
        (0.3, "centre", "ZeroVectorError: vector field norm 0.000e+00"),
        # W vanishes at the block's fifth point, axis 1's fine -h/2 point
        (0.3, 4, "ZeroVectorError: vector field norm 0.000e+00"),
        # the second point, coarse +h, leaves the box before W's zero
        (1.0 - 1e-4, 4, "DomainError: base point [1.00064"),
        # W vanishes at the second point too: W's error comes first there
        (1.0 - 1e-4, 1, "ZeroVectorError: vector field norm 0.000e+00"),
    ])
    def test_first_failing_point_raises(self, graph2, volume_form2, x1, zero,
                                        expected):
        x = np.array([x1, 0.2])
        stencil = fd_stencil(x, (1, 0))
        point = x if zero == "centre" else stencil[zero - 1]
        sc = FedosovScenario(graph2, _vanishing_at(point), volume_form2)
        found = _outcome(curvature_fd_commutator, sc, x)
        assert isinstance(found, str) and found.startswith(expected)
        assert found == _outcome(_one_point_commutator, sc, x)


class TestLowerCurvature:
    def test_zero_curvature(self, euclid_std_scenario):
        x = [0.1, 0.1]
        d = _derivatives(euclid_std_scenario, x)
        res = _row(pair_two_path(curvature_up(*d), brace_array(*d),
                               _form(euclid_std_scenario.two_form, x)))
        assert res.assembled == 0.0 and res.scale == 1.0

    def test_standard_form_unrolled_n1(self, graph_scenario):
        x = [0.4, -0.3]
        d = _derivatives(graph_scenario, x)
        up = curvature_up(*d)
        res = _row(pair_two_path(up, brace_array(*d),
                                 _form(standard_form(1), x)))
        up = up[0]
        low = np.stack([up[1], -up[0]])  # R_1jkl = R^2_jkl, R_2jkl = -R^1_jkl
        assert res.assembled == np.max(np.abs(low - low.transpose(1, 0, 2, 3)))
        assert res.scale == max(1.0, np.max(np.abs(low)))

    def test_pair_symmetry_on_preserving_scenario(self, graph_scenario,
                                                  volume_form2):
        rng = np.random.default_rng(23)
        for x in sample_box(rng, BOX2.lower, BOX2.upper, 8):
            d = _derivatives(graph_scenario, x)
            res = _row(pair_two_path(curvature_up(*d), brace_array(*d),
                                   _form(volume_form2, x)))
            assert res.assembled <= 1e-7 * res.scale


class TestBianchi:
    def test_flat(self, euclid_std_scenario):
        x = [0.2, 0.2]
        d = _derivatives(euclid_std_scenario, x)
        res = _row(contracted_two_path(curvature_up(*d), brace_array(*d),
                                     _form(euclid_std_scenario.two_form, x)))
        assert res.direct == 0.0 and res.assembled == 0.0

    def test_cyclic_sum_all_scenarios(self, graph_scenario, product_scenario,
                                      randers_std_scenario):
        for sc, box in ((graph_scenario, BOX2), (product_scenario, BOX4),
                        (randers_std_scenario, BOX2)):
            rng = np.random.default_rng(24)
            for x in sample_box(rng, box.lower, box.upper, 5):
                (cyc,), (scale,) = cyclic_residual(
                    curvature_induced(sc, x)[None])
                assert cyc <= 1e-7 * scale

    def test_two_paths_agree(self, graph_scenario, product_scenario):
        for sc, x in ((graph_scenario, [0.4, -0.3]),
                      (product_scenario, [0.4, -0.3, 0.2, 0.5])):
            d = _derivatives(sc, x)
            res = _row(contracted_two_path(curvature_up(*d), brace_array(*d),
                                         _form(sc.two_form, x)))
            assert res.paths_delta <= 1e-9


class TestPairSymmetry:
    def test_flat(self, quartic_std_scenario):
        x = [0.2, 0.6]
        d = _derivatives(quartic_std_scenario, x)
        res = _row(pair_two_path(curvature_up(*d), brace_array(*d),
                               _form(quartic_std_scenario.two_form, x)))
        assert res.assembled == 0.0 and res.direct == 0.0

    def test_preserving_scenarios_symmetric(self, graph_scenario,
                                            product_scenario):
        for sc, box, n in ((graph_scenario, BOX2, 6), (product_scenario, BOX4, 3)):
            rng = np.random.default_rng(25)
            for x in sample_box(rng, box.lower, box.upper, n):
                w = sc.vector_field.values([x])[0]
                pres = chern_preservation_residual(sc.metric, sc.two_form, x, w)
                assert pres.max_abs <= 1e-9  # scenario really does preserve
                d = _derivatives(sc, x, w)
                res = _row(pair_two_path(curvature_up(*d), brace_array(*d),
                                       _form(sc.two_form, x)))
                assert res.assembled <= 1e-6 * res.scale

    def test_two_paths_agree_everywhere(self, graph_scenario,
                                        randers_std_scenario):
        x = [0.3, 0.2]
        for sc in (graph_scenario, randers_std_scenario):
            d = _derivatives(sc, x)
            res = _row(pair_two_path(curvature_up(*d), brace_array(*d),
                                   _form(sc.two_form, x)))
            assert res.paths_delta <= 1e-9

    def test_negative_control_breaks_symmetry(self, randers_std_scenario):
        """A scenario that does not preserve the form; no symmetry bound is
        asserted, and the residual is recorded as genuinely nonzero so the
        conditional check cannot pass vacuously."""
        x = [0.3, 0.2]
        w = randers_std_scenario.vector_field.values([x])[0]
        pres = chern_preservation_residual(
            randers_std_scenario.metric, randers_std_scenario.two_form, x, w)
        assert pres.max_abs > 1e-3
        d = _derivatives(randers_std_scenario, x, w)
        res = _row(pair_two_path(curvature_up(*d), brace_array(*d),
                               _form(randers_std_scenario.two_form, x)))
        assert np.isfinite(res.assembled)
        assert res.assembled > 1e-6  # visibly asymmetric here


# W = (1+x2^2, 0.3 x1, 0.5+0.2 x1, 0.5+0.2 x2) cut to n: nowhere zero and
# not constant, so the jet path's chain terms take part
_W = ("1+x2^2", "0.3*x1", "0.5+0.2*x1", "0.5+0.2*x2")
# (K, half-width of the box, half-width of the sampled base points)
_SPACE_FORMS = [(1, 0.9, 0.855), (-1, 0.4, 0.38)]


def _space_form(K, half, spread, n):
    """The space form of curvature K as the metric g = 4/(1 + K|x|^2)^2
    delta: the round sphere in stereographic coordinates for K = 1, the
    Poincare ball for K = -1.  Returns the scenario with W, 40 base points
    (seed 0), g there, and R^l_ijk = K (delta^l_j g_ki - delta^l_k g_ji)
    there, which is R(X, Y)Z = K (<Y, Z> X - <X, Z> Y) (do Carmo,
    *Riemannian Geometry*, ch. 8) in ``curvature_up``'s convention."""
    names = tuple(f"x{i + 1}" for i in range(n))
    sign = "+" if K > 0 else "-"
    factor = f"4/(1{sign}({'+'.join(v + '^2' for v in names)}))^2"
    g = [[factor if i == j else "0" for j in range(n)] for i in range(n)]
    metric = finsler.MetricSpec.riemannian(
        g, DomainBox((-half,) * n, (half,) * n))
    w = VectorFieldSpec(tuple(ScalarFieldSpec.parse(t, names)
                              for t in _W[:n]))
    xs = np.random.default_rng(0).uniform(-spread, spread, (40, n))
    gx = (4 / (1 + K * (xs ** 2).sum(axis=1)) ** 2)[:, None, None] * np.eye(n)
    delta = np.eye(n)
    closed = K * (np.einsum("lj,pki->plijk", delta, gx)
                  - np.einsum("lk,pji->plijk", delta, gx))
    return FedosovScenario(metric, w), xs, gx, closed


def _relative_gap(found, closed):
    """The largest gap to the closed form at a point, relative to the
    closed form's largest entry there, over the points."""
    axes = tuple(range(1, found.ndim))
    return float((np.abs(found - closed).max(axis=axes)
                  / np.abs(closed).max(axis=axes)).max())


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("K,half,spread", _SPACE_FORMS)
class TestClosedFormCurvature:
    """Both curvature paths against the closed form of a space form, a
    reference neither computes.  For a Riemannian metric the Chern
    connection is the Levi-Civita connection along any W, and dG/dy = 0:
    the jet path's dG_dy . dW term is zero here, so these tests do not
    reach it."""

    def test_jet_path(self, K, half, spread, n):
        sc, xs, _, closed = _space_form(K, half, spread, n)
        up = curvature_up(*induced_derivatives(
            sc, xs, sc.vector_field.values(xs)))
        assert _relative_gap(up, closed) <= 1e-13  # measured <= 2.4e-15

    def test_fd_path(self, K, half, spread, n):
        sc, xs, _, closed = _space_form(K, half, spread, n)
        fd = curvature_fd_commutators(sc, xs)
        assert _relative_gap(fd, closed) <= 1e-10  # measured <= 1.7e-12

    def test_ricci_contraction(self, K, half, spread, n):
        """R^l_ilk = (n - 1) K g_ik, contracted here from the jet path."""
        sc, xs, gx, _ = _space_form(K, half, spread, n)
        up = curvature_up(*induced_derivatives(
            sc, xs, sc.vector_field.values(xs)))
        ricci = np.einsum("plilk->pik", up)
        # measured <= 1.6e-15
        assert _relative_gap(ricci, (n - 1) * K * gx) <= 1e-13
