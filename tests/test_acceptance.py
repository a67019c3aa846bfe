"""Acceptance suite: one test per contract criterion, at pinned tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or on failure)
before asserting, so a full run yields one status line per criterion.
"""

import json

import numpy as np
import pytest

from finsym.checks import run_scenario
from finsym.cli import main
from finsym.curvature import (
    brace_array,
    contracted_two_path,
    curvature_fd_commutator,
    curvature_induced,
    curvature_up,
    cyclic_residual,
    induced_derivatives,
    pair_two_path,
)
from finsym.errors import ConfigError, take_rows
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
from finsym.fields import ChartMap, ScalarFieldSpec, chart_jacobians
from finsym.finsler import (
    MetricSpec,
    finsler_sample,
    max_pairwise_spread,
    metric_validity,
    sample_block,
    structural_residuals,
)
from finsym.jets import fd_oracle, fd_stencil
from finsym.report import emit_report
from finsym.scenario import build_scenario
from finsym.symplectic import (
    PreservationResidual,
    chern_preservation_residual,
    closedness,
    covector_derivatives,
    randers_condition,
    standard_form,
)

from conftest import (
    BOX2,
    BOX4,
    POLAR_BOX,
    const_vector,
    partial,
    sample_box,
    xy_samples,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1: forward-mode derivatives vs the finite-difference oracle ---------------

V2, V3 = ["x1", "x2"], ["x1", "x2", "x3"]

AD_FIELDS = [
    ("x1^2*x2", V2, (-2.0, 2.0)),
    ("x1^3-2*x2^3+x1*x2", V2, (-2.0, 2.0)),
    ("sqrt(1+x1^2+x2^2)", V2, (-2.0, 2.0)),
    ("(x1^4+x2^4)^0.25", V2, (0.5, 2.0)),
    ("1/(1+x1^2)", V2, (-2.0, 2.0)),
    ("x1/(x2+3)", V2, (-2.0, 2.0)),
    ("(1+x1^2)^-1.5", V2, (-2.0, 2.0)),
    ("sqrt(x1^2+x2^2)", V2, (1.0, 3.0)),
    ("x1^0.5*x2", V2, (0.5, 2.0)),
    ("(x1+x2)^4", V2, (0.5, 2.0)),
    ("x1^5", V2, (-2.0, 2.0)),
    ("(1+x1*x2)^3", V2, (0.0, 1.5)),
    ("sqrt((x1-3)^2+(x2+4)^2)", V2, (-1.0, 1.0)),
    ("x1^1.5+x2^2.5", V2, (0.5, 2.0)),
    ("1/(x1*x2)", V2, (0.5, 2.0)),
    ("x1*x2*x3", V3, (-1.5, 1.5)),
    ("sqrt(1+x1^2+x2^2+x3^2)", V3, (-1.5, 1.5)),
    ("(x1^4+x2^4+x3^4)^0.25", V3, (0.5, 2.0)),
    ("x1^2/(1+x2^2)+x3", V3, (-1.5, 1.5)),
    ("x1^2*x2-x3/(x1+4)", V3, (-1.5, 1.5)),
]


def _indices(nvars: int, max_degree: int):
    out = []

    def rec(prefix, remaining, left):
        if remaining == 0:
            idx = tuple(prefix)
            if 0 < sum(idx) <= max_degree:
                out.append(idx)
            return
        for e in range(left + 1):
            rec(prefix + [e], remaining - 1, left - e)

    rec([], nvars, max_degree)
    return out


def test_criterion_01_ad_correctness():
    """Each FD stencil is evaluated as one stack and its values passed to
    the oracle: every row is bit-identical to its one-point evaluation."""
    assert len(AD_FIELDS) == 20
    rng = np.random.default_rng(2024)
    worst = 0.0
    for text, names, (lo, hi) in AD_FIELDS:
        f = ScalarFieldSpec.parse(text, names)
        idxs = _indices(len(names), 3)
        for _ in range(100):
            x = lo + (hi - lo) * rng.random(len(names))
            jet = f.eval_jet(x, 3)
            for idx in idxs:
                fd = fd_oracle(f.evaluate(np.array(fd_stencil(x, idx))),
                               x, idx)
                rel = abs(partial(jet, idx) - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
    _report("criterion-01 ad-correctness", worst <= 1e-6,
            f"20 fields x 100 points, degree<=3, worst relative "
            f"deviation {worst:.3e} (tol 1e-6)")


# -- 2: structural equations ----------------------------------------------------


def test_criterion_02_structural_equations(euclid2, polar, quartic2, randers01):
    rng = np.random.default_rng(11)
    worst_t, worst_c = 0.0, 0.0
    for metric, box in [(euclid2, BOX2), (polar, POLAR_BOX),
                        (quartic2, BOX2), (randers01, BOX2)]:
        xs, ys = zip(*xy_samples(rng, box, 100))
        res = structural_residuals(sample_block(metric, xs, ys))
        for torsion, compat, scale in zip(*res):
            worst_t = max(worst_t, torsion)
            worst_c = max(worst_c, compat / scale)
    _report("criterion-02 structural-equations",
            worst_t == 0.0 and worst_c <= 1e-7,
            f"4 metrics x 100 pts: torsion {worst_t:.1e} (exact 0), "
            f"compat/scale {worst_c:.3e} (tol 1e-7)")


# -- 3: quadratic-metric reduction ----------------------------------------------


def _polar_levi_civita(r: float) -> np.ndarray:
    gam = np.zeros((2, 2, 2))
    gam[0, 1, 1] = -r
    gam[1, 0, 1] = gam[1, 1, 0] = 1.0 / r
    return gam


def test_criterion_03_riemannian_reduction(polar):
    rng = np.random.default_rng(12)
    worst = 0.0
    for x, y in xy_samples(rng, POLAR_BOX, 50):
        G = finsler_sample(polar, x, y).chern
        worst = max(worst, float(np.max(np.abs(G - _polar_levi_civita(x[0])))))
    Gr2 = finsler_sample(polar, [2.0, 0.5], [1.0, 1.0]).chern
    spot = (abs(Gr2[0, 1, 1] - (-2.0)) <= 1e-12
            and abs(Gr2[1, 0, 1] - 0.5) <= 1e-12)
    _report("criterion-03 riemannian-reduction",
            worst <= 1e-8 and spot,
            f"closed-form deviation {worst:.3e} (tol 1e-8); spot values at "
            f"r=2: {Gr2[0, 1, 1]:.10f}, {Gr2[1, 0, 1]:.10f}")


# -- 4: homogeneity suite --------------------------------------------------------


def test_criterion_04_homogeneity(euclid2, polar, quartic2, randers01,
                                  graph2, product4):
    rng = np.random.default_rng(13)
    ok = True
    detail = []
    for name, metric, box in [("euclid2", euclid2, BOX2), ("polar", polar, POLAR_BOX),
                              ("quartic2", quartic2, BOX2),
                              ("randers01", randers01, BOX2),
                              ("graph2", graph2, BOX2), ("product4", product4, BOX4)]:
        records = metric_validity(metric, xy_samples(rng, box, 25))
        for facet in ("euler", "cartan-trace", "homogeneity"):
            rs = [r for r in records if r.check == f"metric-validity:{facet}"]
            if not rs or not all(r.passed for r in rs):
                ok = False
                detail.append(f"{name}:{facet}")
    counter = MetricSpec.custom("y1^2+y2^2", 2, BOX2)
    homog = [r for r in metric_validity(counter, xy_samples(rng, BOX2, 10))
             if r.check == "metric-validity:homogeneity"]
    counter_fails = bool(homog) and all(not r.passed for r in homog)
    _report("criterion-04 homogeneity",
            ok and counter_fails,
            "Euler and Cartan-trace within 1e-9 relative on all metrics; "
            "degree-2 counterexample fails homogeneity"
            + (f"; violations: {detail}" if detail else ""))


# -- 5: induced-connection exactness ----------------------------------------------


def _all_scenarios(request):
    names = ["euclid_std_scenario", "quartic_std_scenario", "polar_scenario",
             "randers_std_scenario", "randers_dbeta_scenario",
             "graph_scenario", "product_scenario"]
    boxes = [BOX2, BOX2, POLAR_BOX, BOX2, BOX2, BOX2, BOX4]
    return [(n, request.getfixturevalue(n), b) for n, b in zip(names, boxes)]


def test_criterion_05_exactness(request):
    rng = np.random.default_rng(14)
    worst = 0.0
    for name, sc, box in _all_scenarios(request):
        for x in sample_box(rng, box.lower, box.upper, 15):
            gam = induce_connection(sc, x)
            w = sc.vector_field.values([x])[0]
            pres = chern_preservation_residual(sc.metric, sc.two_form, x, w)
            (direct,) = covariant_residual(gam[None], *sc.two_form.data([x]))
            worst = max(worst, abs(direct - pres.max_abs))
    _report("criterion-05 induced-exactness", worst <= 1e-12,
            f"7 scenarios x 15 pts: |connection residual - lift residual| "
            f"max {worst:.3e} (tol 1e-12)")


# -- 6: standard-form coefficient relations ----------------------------------------


def test_criterion_06_darboux_relations(euclid2, quartic2, euclid4, quartic4):
    rng = np.random.default_rng(15)
    cases = [
        (euclid2, const_vector(2, (1, 0)), 1, BOX2),
        (quartic2, const_vector(2, (1, 0.5)), 1, BOX2),
        (euclid4, const_vector(4, (1, 0, 0, 0)), 2, BOX4),
        (quartic4, const_vector(4, (1.0, 0.5, 0.8, 1.2)), 2, BOX4),
    ]
    worst = 0.0
    asserted = 0
    for metric, w, n, box in cases:
        sc = FedosovScenario(metric, w, standard_form(n))
        for x in sample_box(rng, box.lower, box.upper, 25):
            wx = w.values([x])[0]
            pres = chern_preservation_residual(metric, sc.two_form, x, wx)
            if pres.max_abs > 1e-9:
                continue
            asserted += 1
            gam = induce_connection(sc, x)
            worst = max(worst, darboux_relations_residual(gam[None], n)[0])
    _report("criterion-06 darboux-relations",
            asserted == 100 and worst <= 1e-8,
            f"{asserted} preserving points, worst relation residual "
            f"{worst:.3e} (tol 1e-8)")


# -- 7: uniqueness for fiber-independent coefficients -------------------------------


def _spread(metric, x, ws):
    (spread,) = max_pairwise_spread(np.array(
        [[finsler_sample(metric, x, w).chern for w in ws]]))
    return spread


def test_criterion_07_berwald_uniqueness(polar, quartic2, randers01):
    rng = np.random.default_rng(16)
    w_axis = [[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]]
    w_off = [[1.0, 0.5], [0.5, 1.3], [2.0, 3.0]]
    worst_unique = 0.0
    for x in sample_box(rng, POLAR_BOX.lower, POLAR_BOX.upper, 50):
        worst_unique = max(worst_unique, _spread(polar, x, w_axis))
    for x in sample_box(rng, BOX2.lower, BOX2.upper, 50):
        worst_unique = max(worst_unique, _spread(quartic2, x, w_off))
    spread = max(_spread(randers01, x, w_off)
                 for x in sample_box(rng, BOX2.lower, BOX2.upper, 50))
    _report("criterion-07 berwald-uniqueness",
            worst_unique <= 1e-10 and spread > 1e-3,
            f"fiber-independent spread {worst_unique:.3e} (tol 1e-10); "
            f"randers control spread {spread:.3e} (> 1e-3)")


# -- 8: randers equivalence ----------------------------------------------------------


def test_criterion_08_randers_equivalence(randers01, dbeta01):
    rng = np.random.default_rng(17)
    worst_eq, worst_closed = 0.0, 0.0
    xs, ys = zip(*xy_samples(rng, BOX2, 100))
    G = sample_block(randers01, xs, ys).chern
    w, dw = dbeta01.data(xs)
    lifts = PreservationResidual.stacked(w, dw, G)
    conds = randers_condition(
        *covector_derivatives(randers01.b_fields, xs), G)
    for entries, cond, closed in zip(lifts.entries, conds, closedness(dw)):
        scale = max(1.0, float(np.max(np.abs(entries))))
        worst_eq = max(worst_eq,
                       float(np.max(np.abs(cond + entries))) / scale)
        worst_closed = max(worst_closed, closed)
    w12 = dbeta01.data([[0.3, -0.7]])[0][0][0, 1]
    _report("criterion-08 randers-equivalence",
            worst_eq <= 1e-9 and worst_closed <= 1e-9
            and abs(w12 - 0.2) <= 1e-12,
            f"entrywise equivalence {worst_eq:.3e} (tol 1e-9), "
            f"closedness {worst_closed:.1e}, entry {w12}")


# -- 9: chart transformation and x-independent conditions ------------------------------


def test_criterion_09_chart_transformation(quartic2):
    chart = ChartMap(
        forward=tuple(ScalarFieldSpec.parse(t, V2)
                      for t in ("x1", "x2+x1^2/2")),
        inverse=tuple(ScalarFieldSpec.parse(t, V2)
                      for t in ("x1", "x2-x1^2/2")))
    sc = FedosovScenario(quartic2, const_vector(2, (1, 0.5)), standard_form(1))
    rng = np.random.default_rng(18)
    worst_spot, worst_eq = 0.0, 0.0
    for x in sample_box(rng, BOX2.lower, BOX2.upper, 20):
        gam = induce_connection(sc, x)  # vanishes in natural coordinates
        jac = chart_jacobians(chart, [x])
        ghat = transform_connection(gam[None], jac)
        expect = np.zeros((2, 2, 2))
        expect[1, 0, 0] = -1.0
        worst_spot = max(worst_spot, float(np.max(np.abs(ghat[0] - expect))))
        require_minkowskian(np.array([[finsler_sample(quartic2, x, y).chern
                                       for y in minkowski_probes(2)]]))
        w, dw = sc.two_form.data([x])
        hatted = hatted_two_form_data(w, dw, jac)
        _, (mk_hatted,) = minkowski_preservation_check(dw, jac, hatted)
        _, (hp_max_abs,) = PreservationResidual.stacked(*hatted, ghat)
        worst_eq = max(worst_eq, abs(mk_hatted - hp_max_abs))
    _report("criterion-09 chart-transformation",
            worst_spot <= 1e-8 and worst_eq <= 1e-8,
            f"hatted coefficient vs -1: {worst_spot:.3e} (tol 1e-8); hatted "
            f"condition vs transformed preservation: {worst_eq:.3e} (tol 1e-8)")


# -- 10: curvature vs finite differences -----------------------------------------------


def test_criterion_10_curvature(request, euclid4):
    rng = np.random.default_rng(19)
    graph_sc = request.getfixturevalue("graph_scenario")
    product_sc = request.getfixturevalue("product_scenario")
    polar_sc = request.getfixturevalue("polar_scenario")
    worst_fd = 0.0
    for sc, box, n in ((graph_sc, BOX2, 60), (polar_sc, POLAR_BOX, 30),
                       (product_sc, BOX4, 10)):
        for x in sample_box(rng, box.lower, box.upper, n):
            up = curvature_induced(sc, x)
            fd = curvature_fd_commutator(sc, x)
            scale = max(1.0, float(np.max(np.abs(up))),
                        float(np.max(np.abs(fd))))
            worst_fd = max(worst_fd, float(np.max(np.abs(up - fd))) / scale)

    flat_worst = 0.0
    for sc in (request.getfixturevalue("euclid_std_scenario"),
               request.getfixturevalue("quartic_std_scenario"),
               FedosovScenario(euclid4, const_vector(4, (1, 0, 0, 0)),
                               standard_form(2))):
        box = BOX2 if sc.metric.dimension == 2 else BOX4
        for x in sample_box(rng, box.lower, box.upper, 10):
            flat_worst = max(flat_worst,
                             float(np.max(np.abs(curvature_induced(sc, x)))))

    polar_worst = max(
        float(np.max(np.abs(curvature_induced(polar_sc, x))))
        for x in sample_box(rng, POLAR_BOX.lower, POLAR_BOX.upper, 30))
    _report("criterion-10 curvature",
            worst_fd <= 1e-5 and flat_worst <= 1e-9 and polar_worst <= 1e-7,
            f"fd deviation {worst_fd:.3e} (tol 1e-5 scaled); flat max "
            f"{flat_worst:.1e} (tol 1e-9); polar max {polar_worst:.3e} (tol 1e-7)")


# -- 11: curvature identities ------------------------------------------------------------


def _derivatives(sc, x, w=None):
    """The jet-path data at x, W(x) there unless given, each a stack of
    one row."""
    w = sc.vector_field.values([x])[0] if w is None else w
    return induced_derivatives(sc, [x], [w])


def _form(sc, x):
    """The scenario's two-form components at x, a stack of one row."""
    return sc.two_form.data([x])[0]


def test_criterion_11_curvature_identities(request):
    rng = np.random.default_rng(20)
    worst_bianchi = 0.0
    worst_two_path = 0.0
    for name, sc, box in _all_scenarios(request):
        pts = sample_box(rng, box.lower, box.upper, 6 if box is BOX4 else 12)
        for x in pts:
            d = _derivatives(sc, x)
            up, brace = curvature_up(*d), brace_array(*d)
            w = _form(sc, x)
            (cyc,), (scale,) = cyclic_residual(up)
            worst_bianchi = max(worst_bianchi, cyc / scale)
            (bc,) = contracted_two_path(up, brace, w).paths_delta
            (ps,) = pair_two_path(up, brace, w).paths_delta
            worst_two_path = max(worst_two_path, bc, ps)

    worst_pair = 0.0
    preserving = [("graph_scenario", BOX2, 40), ("product_scenario", BOX4, 8),
                  ("euclid_std_scenario", BOX2, 10),
                  ("quartic_std_scenario", BOX2, 10)]
    for name, box, n in preserving:
        sc = request.getfixturevalue(name)
        for x in sample_box(rng, box.lower, box.upper, n):
            w = sc.vector_field.values([x])[0]
            assert chern_preservation_residual(
                sc.metric, sc.two_form, x, w).max_abs <= 1e-9
            d = _derivatives(sc, x, w)
            ps = pair_two_path(curvature_up(*d), brace_array(*d),
                               _form(sc, x))
            worst_pair = max(worst_pair, ps.assembled[0] / ps.scale[0])

    control_sc, x = request.getfixturevalue("randers_std_scenario"), [0.3, 0.2]
    d = _derivatives(control_sc, x)
    control = take_rows(pair_two_path(curvature_up(*d), brace_array(*d),
                                      _form(control_sc, x)), 0)
    _report("criterion-11 curvature-identities",
            worst_bianchi <= 1e-7 and worst_pair <= 1e-6
            and worst_two_path <= 1e-9 and control.assembled > 1e-6,
            f"cyclic {worst_bianchi:.3e} (tol 1e-7 scaled); conditional pair "
            f"symmetry {worst_pair:.3e} (tol 1e-6 scaled); two-path "
            f"{worst_two_path:.3e} (tol 1e-9); non-preserving control "
            f"{control.assembled:.3e} (recorded, no bound)")


# -- 12: CLI contract ------------------------------------------------------------------------


def _euclid_cfg():
    return {
        "dimension": 2,
        "metric": {"family": "custom", "F": "sqrt(y1^2+y2^2)",
                   "domain": {"lower": [-1, -1], "upper": [1, 1]}},
        "two_form": {"kind": "standard"},
        "vector_field": {"components": ["1", "0"]},
        "sampling": {"mode": "random", "count": 6, "seed": 5, "y_per_x": 2},
    }


def _randers_cfg():
    return {
        "dimension": 2,
        "metric": {"family": "randers", "alpha": [["1", "0"], ["0", "1"]],
                   "b": ["-0.1*x2", "0.1*x1"],
                   "domain": {"lower": [-1, -1], "upper": [1, 1]}},
        "two_form": {"kind": "randers-dbeta"},
        "vector_field": {"components": ["1", "0"]},
        "sampling": {"mode": "random", "count": 6, "seed": 5, "y_per_x": 2},
    }


def test_criterion_12_cli_contract(tmp_path, capsys):
    # determinism: byte-identical reruns
    first = emit_report(run_scenario(_randers_cfg()), "json")
    second = emit_report(run_scenario(_randers_cfg()), "json")
    deterministic = first == second

    # exit-code semantics
    good = tmp_path / "euclid.json"
    good.write_text(json.dumps(_euclid_cfg()))
    bad = tmp_path / "randers.json"
    bad.write_text(json.dumps(_randers_cfg()))
    broken_cfg = {
        "dimension": 3,
        "metric": {"family": "custom", "F": "sqrt(y1^2+y2^2+y3^2)",
                   "domain": {"lower": [-1, -1, -1], "upper": [1, 1, 1]}},
        "two_form": {"kind": "standard"},
        "sampling": {"mode": "grid", "count": 4},
    }
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(broken_cfg))

    code_pass = main(["run", "--config", str(good)])
    code_fail = main(["run", "--config", str(bad)])
    code_cfg = main(["run", "--config", str(broken)])
    capsys.readouterr()

    # schema validation errors carry a pointer path
    try:
        build_scenario(broken_cfg)
        pointer_ok = False
    except ConfigError as exc:
        pointer_ok = exc.json_path == "/dimension"

    ok = (deterministic and code_pass == 0 and code_fail == 1
          and code_cfg == 2 and pointer_ok)
    _report("criterion-12 cli-contract", ok,
            f"byte-identical={deterministic}, exit codes "
            f"(pass,fail,config)=({code_pass},{code_fail},{code_cfg}), "
            f"pointer-on-error={pointer_ok}")
