"""Scenario configs, the check runner, report emission, and exit codes."""

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsym import checks, curvature, fedosov, fields, finsler, scenario
from finsym.checks import CHECK_IDS, available_checks, run_scenario
from finsym.cli import main
from finsym.errors import ConfigError
from finsym.jets import fd_base_step
from finsym.records import CheckRecord
from finsym.report import emit_report
from finsym.scenario import build_scenario, validate_config

from conftest import patch_everywhere

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "configs")
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def euclid_config(count=9):
    return {
        "dimension": 2,
        "metric": {"family": "custom", "F": "sqrt(y1^2+y2^2)",
                   "domain": {"lower": [-1, -1], "upper": [1, 1]}},
        "two_form": {"kind": "standard"},
        "vector_field": {"components": ["1", "0"]},
        "chart": {"forward": ["x1", "x2+x1^2/2"],
                  "inverse": ["x1", "x2-x1^2/2"]},
        "sampling": {"mode": "grid", "count": count, "y_per_x": 2},
    }


def randers_config(count=5, seed=42):
    return {
        "dimension": 2,
        "metric": {"family": "randers",
                   "alpha": [["1", "0"], ["0", "1"]],
                   "b": ["-0.1*x2", "0.1*x1"],
                   "domain": {"lower": [-1, -1], "upper": [1, 1]}},
        "two_form": {"kind": "randers-dbeta"},
        "vector_field": {"components": ["1", "0"]},
        "sampling": {"mode": "random", "count": count, "seed": seed,
                     "y_per_x": 2},
    }


_DELETE = object()


def _edited(config, path, value):
    """The config with the node at ``path`` (a tuple of keys and indices)
    set to ``value``, or removed for ``_DELETE``; ``()`` is the whole
    document."""
    if not path:
        return value
    cfg = json.loads(json.dumps(config))
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return cfg


_EXPLICIT = ("two_form",), {"kind": "explicit", "entries": {"1,2": "1"}}
# the edits to euclid_config() and the error `finsym validate` reports
SCHEMA_ERRORS = {
    "type": ([(("dimension",), "2")],
             "/dimension: '2' is not of type 'integer'"),
    "type-object": ([(("metric",), [])],
                    "/metric: [] is not of type 'object'"),
    "required": ([(("metric", "domain"), _DELETE)],
                 "/metric: 'domain' is a required property"),
    "required-first-listed": ([(("sampling",), _DELETE),
                               (("metric",), _DELETE)],
                              "/: 'metric' is a required property"),
    "properties-box": ([(("metric", "domain", "upper"), [1, "1"])],
                       "/metric/domain/upper/1: '1' is not of type 'number'"),
    "additional-one": ([(("extra",), 1)],
                       "/: Additional properties are not allowed "
                       "('extra' was unexpected)"),
    "additional-two-sorted": ([(("zeta",), 1), (("alpha",), 2)],
                              "/: Additional properties are not allowed "
                              "('alpha', 'zeta' were unexpected)"),
    "additional-nested": ([(("sampling", "y_box"),
                            {"lower": [0.5], "upper": [1], "side": 1})],
                          "/sampling/y_box: Additional properties are not "
                          "allowed ('side' was unexpected)"),
    "additional-schema-tolerances": (
        [(("tolerances",), {"preservation": 1e-8, "bianchi": "1e-7"})],
        "/tolerances/bianchi: '1e-7' is not of type 'number'"),
    "additional-schema-entries": (
        [_EXPLICIT, (("two_form", "entries", "1,2"), "")],
        "/two_form/entries/1,2: '' should be non-empty"),
    "additional-schema-entries-type": (
        [_EXPLICIT, (("two_form", "entries", "1,2"), 3)],
        "/two_form/entries/1,2: 3 is not of type 'string'"),
    "items": ([(("vector_field", "components", 1), 0)],
              "/vector_field/components/1: 0 is not of type 'string'"),
    "items-nested": ([(("berwald_vectors",), [[1, 0], [0, None]])],
                     "/berwald_vectors/1/1: None is not of type 'number'"),
    "enum": ([(("metric", "family"), "finsler")],
             "/metric/family: 'finsler' is not one of "
             "['riemannian', 'randers', 'custom']"),
    "enum-not-a-string": ([(("sampling", "mode"), 1)],
                          "/sampling/mode: 1 is not one of "
                          "['grid', 'random']"),
    "minItems-1": ([(("vector_field", "components"), [])],
                   "/vector_field/components: [] should be non-empty"),
    "minItems-2": ([(("berwald_vectors",), [[1, 0]])],
                   "/berwald_vectors: [[1, 0]] is too short"),
    "minLength": ([(("metric", "F"), "")],
                  "/metric/F: '' should be non-empty"),
    "minimum": ([(("sampling", "count"), 0)],
                "/sampling/count: 0 is less than the minimum of 1"),
    "minimum-seed": ([(("sampling", "seed"), -1)],
                     "/sampling/seed: -1 is less than the minimum of 0"),
    "maximum": ([(("dimension",), 5)],
                "/dimension: 5 is greater than the maximum of 4"),
    "exclusiveMinimum": ([(("metric", "y_min"), 0)],
                         "/metric/y_min: 0 is less than or equal to the "
                         "minimum of 0"),
    "exclusiveMinimum-radius": (
        [(("metric", "domain", "excluded"),
          [{"center": [0, 0], "radius": -0.5}])],
        "/metric/domain/excluded/0/radius: -0.5 is less than or equal to "
        "the minimum of 0"),
    "true-is-not-a-number": ([(("vector_field", "w_min"), True)],
                             "/vector_field/w_min: True is not of type "
                             "'number'"),
    "true-is-not-an-integer": ([(("sampling", "count"), True)],
                               "/sampling/count: True is not of type "
                               "'integer'"),
    "whole-float-is-an-integer": ([(("dimension",), 5.0)],
                                  "/dimension: 5.0 is greater than the "
                                  "maximum of 4"),
    "infinity-is-not-an-integer": ([(("sampling", "count"), 1e400)],
                                   "/sampling/count: inf is not of type "
                                   "'integer'"),
    "top-level-array": ([((), [1])], "/: [1] is not of type 'object'"),
    "smallest-path-wins": ([(("sampling", "count"), 0),
                            (("dimension",), 9)],
                           "/dimension: 9 is greater than the maximum of 4"),
    "smallest-path-yielded-last": (
        [(("metric", "family"), "x"), (("metric", "F"), "")],
        "/metric/F: '' should be non-empty"),
    "indices-compare-as-numbers": (
        [(("vector_field", "components"),
          ["1"] * 9 + [None, None])],
        "/vector_field/components/9: None is not of type 'string'"),
    "one-path-required-before-additional": (
        [(("sampling",), _DELETE), (("extra",), 1)],
        "/: 'sampling' is a required property"),
    "one-path-type-before-maximum": ([(("dimension",), 7.5)],
                                     "/dimension: 7.5 is not of type "
                                     "'integer'"),
}


def _with_balls(config):
    """The config with a ball excluded at the middle of its domain, its
    fibers drawn from a box about the origin with a ball excluded, and a
    slit floor, so each candidate test of the sampler rejects some."""
    cfg = json.loads(json.dumps(config))
    n = cfg["dimension"]
    domain = cfg["metric"]["domain"]
    widths = [b - a for a, b in zip(domain["lower"], domain["upper"])]
    domain["excluded"] = [{
        "center": [(a + b) / 2 for a, b in zip(domain["lower"],
                                               domain["upper"])],
        "radius": 0.2 * min(widths)}]
    cfg["metric"]["y_min"] = 0.4
    cfg["sampling"]["y_box"] = {
        "lower": [-1.6] * n, "upper": [1.6] * n,
        "excluded": [{"center": [1.5] * n, "radius": 0.5}]}
    return cfg


ROOT = os.path.dirname(CONFIG_DIR)
# sampled on a grid: 5 x 5 x 5 base points and 2 x 2 x 2 fibers, each
# grid less the points in its ball
GRID_3D = "tests/data/structural-n3-v3.json"
# sha256 of each plan's shapes and bytes under _with_balls, measured when
# each candidate point was drawn and tested alone
PLAN_SHA256 = {
    "configs/curved_volume.json":
        "0521fb886fc27a068079efaf7fe79dc0967d31f302e9d77d839d2bb01e6d083e",
    "configs/euclidean_standard.json":
        "e57861e98d5f0a091cb09fa09a93d319802259b447561606172222fa72bb53ca",
    "configs/polar_riemannian.json":
        "1bd2d3bbebdeebad333aa6b3aa47f45eafce5de4620109c5e6ad421ea8958cc6",
    "configs/quartic_minkowski_chart.json":
        "e57861e98d5f0a091cb09fa09a93d319802259b447561606172222fa72bb53ca",
    "configs/randers_dbeta.json":
        "1abdd4299ce47ddf93db3cea4266729edacd4b01712ddb840220a69f99a94a28",
    "tests/data/structural-n3-v3.json":
        "0077f934b3fe5a79d6938e39676bec25bf16bab55694a99075c95b3c8dec9ef5",
}


def _load_workloads():
    """The benchmark's config generator, loaded by file path."""
    spec = importlib.util.spec_from_file_location(
        "finsym_perfbench_workloads",
        os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _per_point_draws(box, count, rng, min_norm=0.0, keep=None):
    """``count`` points of the inset box as one base point's fibers were
    drawn before the plan drew them in one pass: rounds of as many
    candidates as are still needed, at most ``1000 * count`` in all."""
    keep = keep or box.contains_rows
    lo, hi = scenario._inset(box)
    out, budget = [], 1000 * count
    while len(out) < count:
        k = min(count - len(out), budget)
        if not k:
            raise ConfigError("sampling box rejects nearly all points",
                              "/sampling")
        budget -= k
        ps = lo + (hi - lo) * rng.random((k, box.dimension))
        out.extend(p for p, ok, row in zip(ps, keep(ps), ps.tolist())
                   if ok and math.hypot(*row) >= min_norm)
    return np.array(out)


def _run_by_run(box, count, rng, min_norm=0.0, keep=None, runs=1):
    """The reference of ``scenario._random_points``: the same stream of
    draws, each run cut alone, after the draw that completes it."""
    keep = keep or box.contains_rows
    lo, hi = scenario._inset(box)
    budget, out = 1000 * count, []
    kept, at, drawn = np.empty((0, box.dimension)), np.empty(0, np.intp), 0
    while len(out) < runs:
        hits = np.flatnonzero(at < budget)[:count]
        if len(hits) == count:
            out.append(kept[:count])
            start = at[count - 1] + 1
            kept, at, drawn = kept[count:], at[count:] - start, drawn - start
        elif drawn >= budget:
            raise ConfigError(
                "sampling box rejects nearly all points", "/sampling")
        else:
            new = lo + (hi - lo) * rng.random((min(
                count * (runs - len(out)) - len(hits),
                budget - drawn), box.dimension))
            admitted = np.flatnonzero(keep(new) & fields.norms_at_least(
                new, min_norm))
            kept = np.concatenate([kept, new[admitted]])
            at = np.concatenate([at, drawn + admitted])
            drawn += len(new)
    return np.array(out)


@st.composite
def _sampling_cases(draw):
    """A box with up to two excluded balls, from none to one covering
    nearly all of it, a slit floor up to beyond the box, ``count`` and
    ``runs``, and whether base-point stencils must clear the balls."""
    n = draw(st.integers(1, 3))
    lower = [draw(st.floats(-3.0, 3.0)) for _ in range(n)]
    widths = [draw(st.floats(0.1, 4.0)) for _ in range(n)]
    upper = [a + w for a, w in zip(lower, widths)]
    reach = math.hypot(*widths) / 2
    balls = tuple(
        (tuple(a + draw(st.floats(0.0, 1.0)) * w
               for a, w in zip(lower, widths)),
         reach * draw(st.sampled_from((0.1, 0.5, 0.9, 0.99, 1.02, 2.0))))
        for _ in range(draw(st.integers(0, 2))))
    box = fields.DomainBox(tuple(lower), tuple(upper), balls)
    far = max(map(abs, lower + upper)) * math.sqrt(n)
    min_norm = draw(st.sampled_from((0.0, 0.5, 0.999, 1.01))) * far
    keep = (partial(scenario._stencil_clear, box) if draw(st.booleans())
            else None)
    return (box, draw(st.integers(1, 6)), min_norm, keep,
            draw(st.integers(1, 50)), draw(st.integers(0, 2 ** 32)))


def _plan_or_error(sampler, case):
    box, count, min_norm, keep, runs, seed = case
    rng = np.random.default_rng(seed)
    try:
        found = sampler(box, count, rng, min_norm=min_norm, keep=keep,
                        runs=runs)
    except ConfigError as exc:
        found = (str(exc), exc.json_path)
    else:
        found = (found.shape, found.dtype, found.tobytes())
    return found, rng.random()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sampling_cases())
def test_runs_cut_at_once_equal_runs_cut_one_by_one(case):
    """Every whole run the admitted rows hold is cut in one step: the plan
    is the one-run-at-a-time plan, byte for byte, or the same ConfigError,
    and the generator is left where that plan leaves it."""
    assert (_plan_or_error(scenario._random_points, case)
            == _plan_or_error(_run_by_run, case))


class _EveryNth:
    """A keep admitting the rows at positions ``k * period - 1`` of the
    stream of candidates it is shown, so a run's last point falls on a
    chosen row of the stream."""

    def __init__(self, period):
        self.period, self.seen = period, 0

    def __call__(self, rows):
        at = self.seen + np.arange(len(rows))
        self.seen += len(rows)
        return at % self.period == self.period - 1


@pytest.mark.parametrize("count, period, runs", [
    (1, 1000, 3), (1, 1001, 3), (2, 1000, 4), (2, 1001, 4), (3, 999, 2)])
def test_a_run_ending_at_the_budget_is_cut_as_one_by_one(count, period,
                                                          runs):
    """A run ending on the budget's last row is cut, and one ending a row
    later raises the ConfigError, as when runs were cut one by one."""
    box = fields.DomainBox((0.0,), (1.0,))
    assert (_plan_or_error(scenario._random_points,
                           (box, count, 0.0, _EveryNth(period), runs, 5))
            == _plan_or_error(_run_by_run,
                              (box, count, 0.0, _EveryNth(period), runs, 5)))


def _per_point_plan(config, metric):
    """The reference random plan: the base points, then each base point's
    fibers in turn, every run of draws on its own."""
    sampling, n = config["sampling"], config["dimension"]
    y_box = (scenario._build_box(sampling["y_box"], n, "/sampling/y_box")
             if "y_box" in sampling else
             fields.DomainBox((0.35,) * n, (1.6,) * n))
    rng = np.random.default_rng(sampling["seed"])
    xs = _per_point_draws(metric.domain, sampling["count"], rng,
                          keep=partial(scenario._stencil_clear,
                                       metric.domain))
    ys = [_per_point_draws(y_box, sampling.get("y_per_x", 1), rng,
                           min_norm=metric.y_min) for _ in xs]
    return xs, np.array(ys)


def _plan_cases():
    """The benchmark's generated Randers configs, a fiber box and slit
    floor that reject some candidates, and a floor above every fiber
    point of the box, which exhausts the draws."""
    randers_config = _load_workloads().randers_config
    cases = {f"randers-n{n}-v{v}": randers_config(
        n, v, count=count, y_per_x=per, two_form=False, vector_field=False)
        for n, count, per in ((2, 100, 3), (3, 400, 4), (4, 16, 2))
        for v in (0, 7, 15)}
    rejecting = _with_balls(cases["randers-n3-v0"])
    cases["rejecting"] = rejecting
    exhausting = json.loads(json.dumps(rejecting))
    exhausting["metric"]["y_min"] = 10.0
    cases["exhausting"] = exhausting
    return cases


PLAN_CASES = _plan_cases()


def strict_records(text):
    """Parse json-lines output, rejecting NaN and Infinity."""

    def strict(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return [json.loads(line, parse_constant=strict)
            for line in text.strip().split("\n")]


def _as_tuples(records):
    return [(r.check, r.point, r.residual, r.tolerance, r.passed, r.error)
            for r in records]


class TestValidation:
    def test_valid_configs(self):
        validate_config(euclid_config())
        validate_config(randers_config())

    def test_missing_required_block(self):
        cfg = euclid_config()
        del cfg["sampling"]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert "sampling" in str(err.value)

    def test_random_needs_seed(self):
        cfg = randers_config()
        del cfg["sampling"]["seed"]
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.json_path == "/sampling/seed"

    def test_odd_dimension_with_standard_form(self):
        cfg = {
            "dimension": 3,
            "metric": {"family": "custom", "F": "sqrt(y1^2+y2^2+y3^2)",
                       "domain": {"lower": [-1, -1, -1], "upper": [1, 1, 1]}},
            "two_form": {"kind": "standard"},
            "sampling": {"mode": "grid", "count": 4},
        }
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert err.value.json_path == "/dimension"

    def test_dbeta_requires_randers(self):
        cfg = euclid_config()
        cfg["two_form"] = {"kind": "randers-dbeta"}
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert err.value.json_path == "/two_form/kind"

    def test_bad_expression_path(self):
        cfg = euclid_config()
        cfg["metric"]["F"] = "sqrt(y1^2+"
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert err.value.json_path == "/metric/F"
        cfg = euclid_config()
        cfg["two_form"] = {"kind": "explicit", "entries": {"1,2": "y1"}}
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert err.value.json_path == "/two_form/entries/1,2"
        assert str(err.value).startswith(
            "/two_form/entries/1,2: bad expression 'y1': unknown variable")

    def test_vector_component_count(self):
        cfg = euclid_config()
        cfg["vector_field"]["components"] = ["1"]
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert err.value.json_path == "/vector_field/components"

    def test_unknown_tolerance(self):
        cfg = euclid_config()
        cfg["tolerances"] = {"no-such-tolerance": 1.0}
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.json_path == "/tolerances/no-such-tolerance"

    def test_schema_pointer_path(self):
        cfg = euclid_config()
        cfg["sampling"]["count"] = "ten"
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.json_path == "/sampling/count"

    def test_schema_uses_only_implemented_keywords(self):
        """A keyword added to the schema alone would not be checked."""
        def keywords(schema):
            for keyword, arg in schema.items():
                yield keyword
                if keyword == "properties":
                    for sub in arg.values():
                        yield from keywords(sub)
                elif isinstance(arg, dict):  # items, additionalProperties
                    yield from keywords(arg)

        found = set(keywords(scenario.CONFIG_SCHEMA))
        assert found <= set(scenario._KEYWORDS)
        assert len(found) == 11

    def test_plan_size_cap(self):
        cfg = euclid_config()
        cfg["sampling"].update(count=scenario._MAX_PAIRS // 4, y_per_x=4)
        validate_config(cfg)
        cfg["sampling"]["count"] += 1
        with pytest.raises(ConfigError) as err:
            validate_config(cfg)
        assert err.value.json_path == "/sampling"

    def test_explicit_entries_key_format(self):
        cfg = euclid_config()
        cfg["two_form"] = {"kind": "explicit", "entries": {"2,1": "1"}}
        with pytest.raises(ConfigError) as err:
            build_scenario(cfg)
        assert "2,1" in err.value.json_path


class TestRunScenario:
    def test_full_suite_all_pass(self):
        records = run_scenario(euclid_config())
        assert records
        assert all(r.passed for r in records)
        assert all(r.residual == 0.0 for r in records
                   if r.check.startswith(("preservation:lift", "structural",
                                          "curvature", "darboux")))

    def test_record_contract(self):
        for r in run_scenario(randers_config()):
            if r.error is None:
                assert r.passed == (r.residual <= r.tolerance)
            else:
                assert not r.passed and r.residual is None

    def test_records_are_read_from_the_tables(self):
        """The result is a read-only sequence whose records are made when
        read: indexing from either end, slicing and iterating give the
        same records, and the records of one sample point share one point
        tuple, a base point's and a pair's each their own."""
        records = run_scenario(randers_config(count=5))
        as_list = list(records)
        assert len(as_list) == len(records) > 9
        assert [records[i] for i in range(len(records))] == as_list
        assert records[-1] == as_list[-1]
        assert records[2:9:3] == as_list[2:9:3]
        with pytest.raises(IndexError):
            records[len(records)]
        with pytest.raises(TypeError):
            records[0] = as_list[0]
        first: dict = {}
        for r in as_list:
            assert first.setdefault(r.point, r.point) is r.point
        assert {len(point) for point in first} == {2, 4}

    def test_records_sorted_by_check(self):
        records = run_scenario(euclid_config())
        ids = [r.check for r in records]
        assert ids == sorted(ids)

    def test_deterministic_records(self):
        a = run_scenario(randers_config())
        b = run_scenario(randers_config())
        assert emit_report(a) == emit_report(b)

    def test_seed_changes_points(self):
        a = run_scenario(randers_config(seed=1), suite=["structural"])
        b = run_scenario(randers_config(seed=2), suite=["structural"])
        assert [r.point for r in a] != [r.point for r in b]

    def test_seed_override(self):
        a = run_scenario(randers_config(seed=1), suite=["structural"],
                         seed_override=2)
        b = run_scenario(randers_config(seed=2), suite=["structural"])
        assert [r.point for r in a] == [r.point for r in b]

    def test_grid_stencils_stay_out_of_excluded_balls(self):
        """(0.95, 0) on a 3 x 3 grid over [-1, 1]^2 lies 0.2 from the centre
        of a ball of radius 0.19999: admissible, but its FD stencil's -h
        point is inside the ball.  Base points keep one FD step clear of
        each ball, so it is left out and no curvature record errors."""
        cfg = euclid_config(count=9)
        cfg["metric"]["domain"]["excluded"] = [{"center": [0.75, 0],
                                                "radius": 0.19999}]
        records = run_scenario(cfg, suite=["curvature"])
        assert len(records) == 16
        assert all(r.error is None for r in records)
        assert [0.95, 0.0] not in [r.point for r in records]

    @pytest.mark.parametrize("norm, above, kept", [
        (1, False, 8), (1, True, 4), (2, False, 4), (2, True, 0)])
    def test_grid_fibers_are_those_at_least_the_slit_floor(self, norm, above,
                                                          kept):
        """The fiber grid keeps the points whose ``math.hypot`` is at least
        the slit floor, in grid order, a point on the floor included; a
        floor above every one of them is a config error.  The floor is one
        of the grid's norms (the origin's, an axis point's, a corner's), or
        the next float above it."""
        cfg = euclid_config(count=4)
        cfg["sampling"].update(y_per_x=9, y_box={"lower": [-1.7, -1.7],
                                                 "upper": [1.7, 1.7]})
        grid = scenario._grid_points(scenario._build_box(
            cfg["sampling"]["y_box"], 2, "/sampling/y_box"), 9)
        y_min = sorted({math.hypot(*y) for y in grid.tolist()})[norm]
        if above:
            y_min = math.nextafter(y_min, math.inf)
        cfg["metric"]["y_min"] = y_min
        metric = scenario._build_metric(cfg["metric"], 2)
        expected = [y for y in grid.tolist() if math.hypot(*y) >= y_min]
        assert len(expected) == kept
        if not kept:
            with pytest.raises(ConfigError) as err:
                scenario.build_plan(cfg, metric)
            assert str(err.value) == (
                "/sampling/y_box: fiber grid produced no admissible points")
            return
        ys = scenario.build_plan(cfg, metric).ys
        assert ys.shape == (4, kept, 2)
        assert ys.tobytes() == np.array([expected] * 4).tobytes()

    def test_random_base_points_keep_clear_of_excluded_balls(self):
        """Far from the origin the FD step, eps^(1/5) * max(1, |x_v|), is
        about 0.75, so many uniform points of the box would lie within one
        step of the ball; none of the sampled base points does."""
        cfg = euclid_config()
        cfg["metric"]["domain"] = {
            "lower": [1000, 1000], "upper": [1010, 1010],
            "excluded": [{"center": [1005, 1005], "radius": 3}]}
        cfg["sampling"] = {"mode": "random", "count": 40, "seed": 1}
        xs = build_scenario(cfg).plan.xs
        assert len(xs) == 40
        for x in xs:
            step = fd_base_step(1) * max(1.0, *abs(x))
            assert math.hypot(*(x - 1005.0)) >= 3 + step

    @pytest.mark.parametrize("case", sorted(PLAN_CASES))
    def test_plan_draws_equal_per_point_draws(self, case):
        """The random plan draws every base point's fibers in one pass; the
        plan is the one each base point's own rounds of draws gave, byte
        for byte, or the same error, text and JSON pointer."""
        config = PLAN_CASES[case]
        metric = scenario._build_metric(config["metric"], config["dimension"])
        try:
            expected = _per_point_plan(config, metric)
        except ConfigError as exc:
            with pytest.raises(ConfigError) as raised:
                scenario.build_plan(config, metric)
            assert str(raised.value) == str(exc)
            assert raised.value.json_path == exc.json_path == "/sampling"
            return
        plan = scenario.build_plan(config, metric)
        for found, reference in zip((plan.xs, plan.ys), expected):
            assert found.shape == reference.shape
            assert found.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("path", sorted(PLAN_SHA256))
    def test_sample_plan_is_pinned(self, path):
        """Candidates are drawn and tested in stacks; the plan, with a
        ball excluded from the base points and from the fibers and a slit
        floor that rejects fibers too, is the same, byte for byte, as when
        each candidate was drawn and tested alone."""
        config = scenario.load_config(os.path.join(ROOT, path))
        if path == GRID_3D:
            config["sampling"] = {"mode": "grid", "count": 100, "y_per_x": 8}
        plan = build_scenario(_with_balls(config)).plan
        digest = hashlib.sha256(repr((plan.xs.shape, plan.ys.shape)).encode()
                                + plan.xs.tobytes() + plan.ys.tobytes())
        assert digest.hexdigest() == PLAN_SHA256[path]

    def test_a_box_that_rejects_nearly_every_point(self, tmp_path, capsys):
        """About one uniform point in 70,000 of the inset box misses the
        ball, so 5 base points are not found in 5,000 draws: exit 2, and
        exactly 1000 draws per point asked for were made."""
        cfg = randers_config()
        cfg["metric"]["domain"]["excluded"] = [{"center": [0, 0],
                                                "radius": 1.34}]
        path = tmp_path / "rejecting.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: /sampling: sampling box rejects nearly all points\n")
        drawn = []

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def random(self, shape):
                drawn.append(shape[0])
                return self.rng.random(shape)

        box = build_scenario(randers_config()).metric.domain
        box = dataclasses.replace(box, excluded=(((0.0, 0.0), 1.34),))
        with pytest.raises(ConfigError):
            scenario._random_points(box, 5, Counted(np.random.default_rng(
                42)))
        assert sum(drawn) == 5000

    def test_a_domain_that_rejects_every_point_holds_no_candidates(self):
        """A ball covering the whole box: at ``count`` 1000 the plan draws
        its budget of a million base-point candidates, and the traced
        memory peaks at a few MB while it does, because only admitted rows
        are kept."""
        config = scenario.load_config(os.path.join(ROOT, "configs",
                                                   "randers_dbeta.json"))
        config["metric"]["domain"]["excluded"] = [{"center": [0, 0],
                                                   "radius": 10}]
        config["sampling"]["count"] = 1000
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="rejects nearly all"):
                build_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_requested_subset(self):
        records = run_scenario(euclid_config(), suite=["structural"])
        assert records
        assert all(r.check.startswith("structural") for r in records)

    def test_unknown_check(self):
        with pytest.raises(ConfigError):
            run_scenario(euclid_config(), suite=["no-such-check"])

    def test_missing_block_for_requested_check(self):
        cfg = euclid_config()
        del cfg["vector_field"]
        with pytest.raises(ConfigError) as err:
            run_scenario(cfg, suite=["curvature"])
        assert err.value.json_path == "/vector_field"

    def test_default_suite_skips_inapplicable(self):
        cfg = euclid_config()
        del cfg["chart"]
        built = build_scenario(cfg)
        ids = available_checks(built)
        assert "transform" not in ids and "minkowski" not in ids
        records = run_scenario(cfg)
        assert not any(r.check.startswith(("transform", "minkowski"))
                       for r in records)

    def test_negative_controls_recorded_not_raised(self):
        cfg = randers_config()
        records = run_scenario(cfg, suite=["berwald-uniqueness", "preservation"])
        spread = [r for r in records if r.check == "berwald-uniqueness:spread"]
        assert spread and all(not r.passed for r in spread)
        assert all(r.error is None for r in spread)
        lift = [r for r in records if r.check == "preservation:lift"]
        assert lift and all(not r.passed for r in lift)
        equiv = [r for r in records
                 if r.check == "preservation:randers-equivalence"]
        assert equiv and all(r.passed for r in equiv)

    def test_domain_errors_become_error_records(self):
        cfg = euclid_config()
        cfg["vector_field"] = {"components": ["x2", "-x1"]}
        records = run_scenario(cfg, suite=["induce"])
        errs = [r for r in records if r.error is not None]
        assert errs  # the grid contains the origin, where W vanishes
        assert all("ZeroVectorError" in r.error for r in errs)
        assert all(not r.passed for r in errs)
        assert not any("np.float64" in r.error for r in errs)

    def test_every_facet_reports_its_own_error(self):
        cfg = euclid_config()
        cfg["vector_field"] = {"components": ["x2", "-x1"]}
        records = run_scenario(cfg, suite=["bianchi"])
        errs = {r.check for r in records if r.error is not None}
        assert errs == {"bianchi:cyclic", "bianchi:two-path"}

    def test_chern_derivatives_once_per_base_point(self, monkeypatch):
        """The order-4 path runs once per base point: one row of one
        block call each."""
        calls = []
        original = finsler.chern_block

        def counted(m, xs, ys):
            calls.extend(zip(xs, ys))
            return original(m, xs, ys)

        patch_everywhere(monkeypatch, original, counted)
        cfg = euclid_config(count=4)
        cfg["metric"]["F"] = "sqrt((1+x1^2)*y1^2+y2^2)"
        del cfg["chart"]  # minkowski would reject the curved metric
        records = run_scenario(cfg)
        assert all(r.error is None for r in records)
        assert len(calls) == len(build_scenario(cfg).plan.xs) == 4

    def test_chart_data_once_per_base_point(self, monkeypatch):
        """transform and minkowski share the chart derivatives at x and
        the hatted form; only the round trip's swapped chart adds a row.
        Both are counted by rows of their block calls."""
        counts = {}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                rows = len(args[1] if name == "chart_jacobians" else args[0])
                counts[name] = counts.get(name, 0) + rows
                return original(*args, **kwargs)

            patch_everywhere(monkeypatch, original, counted)

        counting(fields, "chart_jacobians")
        counting(fedosov, "hatted_two_form_data")
        cfg = euclid_config(count=4)
        records = run_scenario(cfg, suite=["transform", "minkowski"])
        assert all(r.passed for r in records)
        count = len(build_scenario(cfg).plan.xs)
        assert counts == {"chart_jacobians": 2 * count,
                          "hatted_two_form_data": count}

    def test_covector_data_once_per_base_point(self, monkeypatch):
        """randers-equivalence and the d(beta) form both read the
        covector's derivative arrays from the base point: b is evaluated
        once there, at order 2, as one row of a block's jet."""
        cfg = randers_config()
        s = build_scenario(cfg)
        original = fields.ScalarFieldSpec.eval_jet
        orders = []

        def counted(spec, point, order):
            if spec in s.metric.b_fields:
                orders.extend([order] * len(point))
            return original(spec, point, order)

        monkeypatch.setattr(fields.ScalarFieldSpec, "eval_jet", counted)
        run_scenario(cfg, suite=["preservation"])
        per_point = s.dimension * len(s.plan.xs)
        assert s.plan.ys.shape[1] > 1  # several y per x
        assert (orders.count(1), orders.count(2)) == (0, per_point)

    def test_standard_form_built_once_for_the_darboux_gate(self,
                                                           monkeypatch):
        """The standard form is constant; the gate does not rebuild it at
        every base point."""
        calls = []
        original = checks.standard_form

        def counted(n):
            calls.append(n)
            return original(n)

        monkeypatch.setattr(checks, "standard_form", counted)
        cfg = euclid_config(count=4)
        first = run_scenario(cfg, suite=["darboux"])
        second = run_scenario(cfg, suite=["darboux"])
        assert len(first) == 4
        assert _as_tuples(first) == _as_tuples(second)
        assert len(calls) <= 1

    def test_metric_validity_reads_the_pair_sample(self, monkeypatch):
        """Each pair is sampled once, in its block; a block with a failing
        pair samples its pairs again as one-row blocks, uncounted here."""
        calls = []
        in_block = []
        original, block = finsler.finsler_sample, finsler.finsler_samples

        def counted(*args, **kwargs):
            if not in_block:
                calls.append(args)
            return original(*args, **kwargs)

        def counted_block(m, xs, ys):
            if not in_block:
                calls.extend((m, x, y) for x, y in zip(xs, ys))
            in_block.append(True)
            try:
                return block(m, xs, ys)
            finally:
                in_block.pop()

        patch_everywhere(monkeypatch, original, counted)
        patch_everywhere(monkeypatch, block, counted_block)
        # tol_pd = 1 fails positive-definiteness at 8 of the 10 pairs, so
        # both sides of the cartan-trace / positive-definite split occur
        cfg, tols = randers_config(), {"tol_pd": 1.0}
        records = run_scenario(cfg, suite=["metric-validity", "structural"],
                               tolerance_overrides=tols)
        s = build_scenario(cfg, tolerance_overrides=tols)
        pairs = [(x, y) for x, ys in zip(s.plan.xs, s.plan.ys) for y in ys]
        assert len(calls) == len(pairs) == 10
        expected = finsler.metric_validity(
            s.metric, pairs, homogeneity_tol=s.tolerances["homogeneity"])
        found = [r for r in records if r.check.startswith("metric-validity")]
        assert _as_tuples(found) == _as_tuples(
            sorted(expected, key=lambda r: r.check))
        assert {r.error is None for r in found
                if r.check == "metric-validity:positive-definite"} == {True,
                                                                      False}

    @pytest.mark.parametrize("name", ["euclidean_standard",
                                      "polar_riemannian"])
    def test_each_fiber_point_sampled_once_per_base_point(self, monkeypatch,
                                                          name):
        """The plan pairs, W(x), the Berwald probes and the Minkowski probes
        read one sample per (x, y), taken in the runner's blocks.  The FD
        commutator samples its own centres and stencils in stacks of its
        own, told apart here as the blocks sampled inside the commutator:
        whole stencils of 1 + 4n rows, each base point's once and in plan
        order, whose centre samples (x, W(x)) again rather than read it
        from the runner's blocks.  A block with a failing pair samples its
        pairs again one at a time, so those calls are not counted."""
        counts = {}
        stencils = []
        in_fd = []
        in_block = []
        sample, block = finsler.finsler_sample, finsler.finsler_samples
        stencil = finsler.sample_block
        commutators = curvature.curvature_fd_commutators
        with open(os.path.join(CONFIG_DIR, f"{name}.json"),
                  encoding="utf-8") as fh:
            config = json.load(fh)
        s = build_scenario(config)
        size, stacks = 1 + 4 * s.dimension, []

        def count(x, y):
            key = (tuple(map(float, x)), tuple(map(float, y)))
            counts[key] = counts.get(key, 0) + 1

        def counted(m, x, y):
            if not in_fd and not in_block:
                count(x, y)
            return sample(m, x, y)

        def counted_block(m, xs, ys):
            if not in_fd:
                for x, y in zip(xs, ys):
                    count(x, y)
            in_block.append(True)
            try:
                return block(m, xs, ys)
            finally:
                in_block.pop()

        def counted_stencil(m, xs, ys):
            # the commutator samples its stencils with sample_block itself
            if in_fd and not in_block:
                stacks.append(len(xs))
                stencils.extend((tuple(map(float, xs[p])),
                                 tuple(map(float, ys[p])))
                                for p in range(0, len(xs), size))
            return stencil(m, xs, ys)

        def fd_commutators(sc, xs, *args):
            in_fd.append(xs)
            try:
                return commutators(sc, xs, *args)
            finally:
                in_fd.pop()

        patch_everywhere(monkeypatch, sample, counted)
        patch_everywhere(monkeypatch, block, counted_block)
        patch_everywhere(monkeypatch, stencil, counted_stencil)
        patch_everywhere(monkeypatch, commutators, fd_commutators)
        run_scenario(config)
        assert counts and set(counts.values()) == {1}
        assert all(rows % size == 0 for rows in stacks)
        assert size < max(stacks) <= finsler._block_pairs(s.dimension)
        assert {(tuple(x), tuple(y)) for x, ys in zip(s.plan.xs, s.plan.ys)
                for y in ys} <= set(counts)
        assert stencils == [
            (tuple(x), tuple(s.vector_field.values([x])[0]))
            for x in s.plan.xs]
        assert set(stencils) <= set(counts)

    @pytest.mark.parametrize("name", sorted(
        f[:-5] for f in os.listdir(CONFIG_DIR) if f.endswith(".json")))
    def test_no_one_point_sample_outside_a_failing_block(self, monkeypatch,
                                                         name):
        """Every sample of a shipped config's run is taken in a block;
        ``finsler_sample`` runs only where a block fails and falls back to
        one point at a time.  Under ``structural`` the blocks hold exactly
        the plan pairs."""
        single, pairs, in_block = [], [], []
        sample, block = finsler.finsler_sample, finsler.finsler_samples

        def counted(m, x, y):
            if not in_block:
                single.append((x, y))
            return sample(m, x, y)

        def counted_block(m, xs, ys):
            pairs.extend((tuple(x), tuple(y)) for x, y in zip(xs, ys))
            in_block.append(True)
            try:
                return block(m, xs, ys)
            finally:
                in_block.pop()

        patch_everywhere(monkeypatch, sample, counted)
        patch_everywhere(monkeypatch, block, counted_block)
        with open(os.path.join(CONFIG_DIR, f"{name}.json"),
                  encoding="utf-8") as fh:
            config = json.load(fh)
        run_scenario(config)
        assert pairs and single == []
        pairs.clear()
        run_scenario(config, suite=["structural"])
        s = build_scenario(config)
        assert pairs == [(tuple(x), tuple(y))
                         for x, ys in zip(s.plan.xs, s.plan.ys) for y in ys]

    @pytest.mark.parametrize("directory,name", sorted(
        [(DATA_DIR, f) for f in os.listdir(DATA_DIR)
         if f.startswith("errors-") or f == "curvature-n4-v3.json"]
        + [(CONFIG_DIR, f) for f in os.listdir(CONFIG_DIR)
           if f.endswith(".json")]), ids=os.path.basename)
    def test_a_check_alone_gives_its_full_suite_records(self, directory,
                                                        name):
        """Each check run alone gives exactly its records from the full
        suite, errors included, whatever the other checks would have read
        first.  Shipped configs run at 9 base points."""
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            config = json.load(fh)
        if directory == CONFIG_DIR:
            config["sampling"]["count"] = 9
        full = run_scenario(config)
        for cid in available_checks(build_scenario(config)):
            assert _as_tuples(run_scenario(config, suite=[cid])) == (
                _as_tuples(r for r in full
                           if r.check.split(":")[0] == cid)), cid

    @pytest.mark.parametrize("suite", ["structural", "metric-validity"])
    def test_w_is_evaluated_only_where_a_facet_reads_it(self, monkeypatch,
                                                        suite):
        """No facet of ``structural`` or ``metric-validity`` reads W, so
        their runs never evaluate it; ``induce`` does."""
        calls = []
        values = fields.VectorFieldSpec.values

        def counted(field, xs):
            calls.append(len(xs))
            return values(field, xs)

        monkeypatch.setattr(fields.VectorFieldSpec, "values", counted)
        with open(os.path.join(CONFIG_DIR, "euclidean_standard.json"),
                  encoding="utf-8") as fh:
            config = json.load(fh)
        assert run_scenario(config, suite=[suite]) and calls == []
        run_scenario(config, suite=["induce"])
        assert calls

    def test_asymmetric_connection_is_a_failing_symmetry_record(self,
                                                                monkeypatch):
        original, block = finsler.finsler_sample, finsler.finsler_samples

        def skew(sample):
            chern = sample.chern.copy()
            chern[..., 0, 0, 1] += 1e-3
            return sample._replace(chern=chern)

        def skewed(m, x, y):
            return skew(original(m, x, y))

        def skewed_block(m, xs, ys):
            rows, samples, errors = block(m, xs, ys)
            return rows, None if samples is None else skew(samples), errors

        patch_everywhere(monkeypatch, original, skewed)
        patch_everywhere(monkeypatch, block, skewed_block)
        records = run_scenario(euclid_config(count=4), suite=["induce"])
        symmetry = [r for r in records if r.check == "induce:symmetry"]
        assert len(symmetry) == 4
        assert all(r.error is None and not r.passed and r.residual == 1e-3
                   for r in symmetry)

    def test_alpha_norm_runs_once_per_base_point(self, monkeypatch):
        calls = []
        original = finsler.randers_alpha_norm

        def counted(m, xs):
            calls.extend(tuple(x) for x in xs)
            return original(m, xs)

        patch_everywhere(monkeypatch, original, counted)
        records = run_scenario(randers_config(), suite=["metric-validity"])
        bound = [r for r in records
                 if r.check == "metric-validity:randers-bound"]
        assert len(bound) == 10  # 5 base points, 2 fiber points each
        assert len(calls) == len(set(calls)) == 5

    def test_overflowing_scaled_tolerance_is_an_error_record(self):
        """A finite tolerance times a relative bound's scale above 1
        overflows; the record is an error record, not an Infinity."""
        with open(os.path.join(CONFIG_DIR, "polar_riemannian.json")) as fh:
            cfg = json.load(fh)
        records = run_scenario(cfg, suite=["structural"],
                               tolerance_overrides={
                                   "structural-compat": 1.7e308})
        errors = [r for r in records if r.error]
        assert errors and all(r.check == "structural:compat" for r in errors)
        assert all(r.error.startswith("DomainError: non-finite residual")
                   for r in errors)
        emit_report(records)  # strict JSON

    def test_tolerance_override_tightens(self):
        records = run_scenario(randers_config(), suite=["berwald-uniqueness"],
                               tolerance_overrides={"berwald-uniqueness": 10.0})
        assert all(r.passed for r in records)

    def test_gated_checks_skip_non_preserving_points(self):
        records = run_scenario(randers_config(),
                               suite=["darboux", "pair-symmetry"])
        assert not any(r.check == "darboux:relations" for r in records)
        assert not any(r.check == "pair-symmetry:lowered" for r in records)
        assert any(r.check == "pair-symmetry:two-path" for r in records)


class TestEmitReport:
    def test_json_lines_shape(self):
        records = run_scenario(euclid_config(), suite=["structural"])
        payload = emit_report(records, "json").decode()
        lines = payload.strip().split("\n")
        assert len(lines) == len(records)
        first = json.loads(lines[0])
        assert list(first) == ["check", "point", "residual", "tolerance",
                               "pass", "error"]
        assert first["pass"] is True

    def test_single_passing_record(self):
        records = run_scenario(euclid_config(count=1), suite=["berwald-uniqueness"])
        line = emit_report(records, "json").decode().strip()
        assert json.loads(line)["pass"] is True

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "json")

    def test_non_finite_residual_rejected(self):
        record = CheckRecord.evaluated("structural:torsion", (0.0, 1.0),
                                       float("nan"), 1e-12)
        with pytest.raises(ValueError):
            emit_report([record])

    def test_json_lines_equal_per_record_dumps(self):
        """Random records, points shared and not, residuals of every size
        and sign, -0.0 and subnormals among them, error texts with quotes,
        control characters and non-ASCII: each line is the record's own
        strict ``json.dumps``, byte for byte."""
        rng = np.random.default_rng(31)
        floats = [0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.0, 0.1,
                  1e-17, 123456.789]
        texts = ['DomainError: "x" \\ \t\n\x00\x1f \u00e9\u4e2d\U0001f600',
                 "ZeroVectorError: norm 0.000e+00", "\u2028\u2029 \x7f"]
        points = [tuple(rng.choice(floats, 3).tolist()) for _ in range(5)]
        records = []
        for k in range(300):
            point = (points[k % 5] if k % 3 else
                     tuple(rng.uniform(-1e3, 1e3, 2).tolist()))
            if k % 4 == 0:
                records.append(CheckRecord.failed(
                    f"check:{k % 7}\u00e9", point, texts[k % 3],
                    float(rng.choice(floats))))
            else:
                records.append(CheckRecord.evaluated(
                    f"check:{k % 7}", point,
                    float(rng.choice(floats)) * rng.uniform(),
                    float(rng.choice(floats))))
        expected = "".join(json.dumps({
            "check": r.check, "point": list(r.point),
            "residual": r.residual, "tolerance": r.tolerance,
            "pass": r.passed, "error": r.error},
            separators=(",", ":"), allow_nan=False) + "\n"
            for r in records).encode("utf-8")
        assert emit_report(records, "json") == expected
        # one record id over a shared point whose residuals and tolerances
        # repeat signed zeros and subnormals: each keeps its own text
        signed = [(0.0, -0.0), (-0.0, 0.0), (5e-324, 5e-324), (-5e-324, 0.0),
                  (0.0, 1e-310), (-0.0, -0.0), (1e-310, -5e-324)]
        column = [CheckRecord.evaluated("check:zeros", points[0], r, t)
                  for r, t in signed * 3]
        column[4] = CheckRecord.failed("check:zeros", points[0], texts[1],
                                       -0.0)
        expected = "".join(json.dumps({
            "check": r.check, "point": list(r.point),
            "residual": r.residual, "tolerance": r.tolerance,
            "pass": r.passed, "error": r.error},
            separators=(",", ":"), allow_nan=False) + "\n"
            for r in column + records).encode("utf-8")
        assert b'"residual":-0.0,"tolerance":0.0' in expected
        assert b'"residual":0.0,"tolerance":-0.0' in expected
        assert emit_report(column + records, "json") == expected
        for residual, tolerance in ((float("nan"), 1.0), (1.0, float("inf")),
                                    (float("-inf"), 1.0)):
            records[1] = CheckRecord(records[1].check, records[1].point,
                                     residual, tolerance, False)
            with pytest.raises(ValueError):
                emit_report(records, "json")

    def test_table_contains_summary(self):
        records = run_scenario(euclid_config(), suite=["structural"])
        table = emit_report(records, "table").decode()
        assert "structural:compat" in table
        assert "records passed" in table

    def test_byte_identical_across_runs(self):
        a = emit_report(run_scenario(randers_config()), "json")
        b = emit_report(run_scenario(randers_config()), "json")
        assert a == b
        ta = emit_report(run_scenario(randers_config()), "table")
        tb = emit_report(run_scenario(randers_config()), "table")
        assert ta == tb


class TestCliMain:
    def _write(self, tmp_path, cfg, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    @staticmethod
    def _cli(path, *args):
        """``finsym run`` on a config in a fresh interpreter, so a traceback
        or a warning would reach its stderr."""
        src = os.path.dirname(os.path.dirname(finsler.__file__))
        return subprocess.run(
            [sys.executable, "-m", "finsym.cli", "run", "--config", path,
             *args],
            capture_output=True, text=True, check=False,
            env=dict(os.environ, PYTHONPATH=src))

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        path = self._write(tmp_path, euclid_config())
        assert main(["run", "--config", path]) == 0
        out = capsys.readouterr().out
        assert all(json.loads(line)["pass"] for line in out.strip().split("\n"))

    def test_exit_one_on_failures(self, tmp_path, capsys):
        path = self._write(tmp_path, randers_config())
        assert main(["run", "--config", path]) == 1

    def test_exit_two_on_config_error(self, tmp_path, capsys):
        cfg = euclid_config()
        cfg["dimension"] = 3
        path = self._write(tmp_path, cfg)
        assert main(["run", "--config", path]) == 2
        assert "error" in capsys.readouterr().err

    def test_exit_two_on_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("name,block,value", [
        # a leading minor of g overflows
        ("randers_dbeta", "metric", {"alpha": [["1e200", "0"],
                                               ["0", "1e200"]]}),
        # |det| of d(beta) overflows
        ("randers_dbeta", "metric", {"b": ["1e308*x2", "0.1*x1"]}),
        # the chart Jacobian's determinant overflows
        ("quartic_minkowski_chart", "chart", {
            "forward": ["1e200*x1", "1e200*x2"],
            "inverse": ["1e-200*x1", "1e-200*x2"]}),
        # the factorial scaling of the energy's jet overflows
        ("polar_riemannian", "metric", {"g": [["1", "0"],
                                              ["0", "(1+x2^2)*1e308"]]}),
        # dw - einsum(...) of the preservation and covariant residuals
        ("polar_riemannian", "two_form", {"entries": {"1,2": "x1+1e308"}}),
        # lam * y of the homogeneity residual overflows at the y_box's top;
        # None takes several blocks' updates
        ("euclidean_standard", None, {
            "metric": {"F": "1e200*sqrt((1e-200*y1)^2+(1e-200*y2)^2)"},
            "sampling": {"y_box": {"lower": [0.5, 0.5],
                                   "upper": [1e308, 1e308]}}}),
        # the chain product fwd @ inv of the chart Jacobians overflows
        ("quartic_minkowski_chart", "chart", {
            "forward": ["x1", "(x2+x1^2/2)/1e-200"],
            "inverse": ["x1*1e200", "x2-x1^2/2"]}),
    ])
    def test_overflowing_determinants_warn_nothing(self, tmp_path, capsys,
                                                   name, block, value):
        """A non-finite intermediate, such as a determinant that overflows
        to inf and passes its test, is a value that the checks test, not
        an error: it raises no RuntimeWarning, so a run with warnings as
        errors exits 1 with nothing on stderr and the report of a run that
        ignores them."""
        with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
            cfg = json.load(fh)
        for key, update in ({block: value} if block else value).items():
            cfg[key].update(update)
        path = self._write(tmp_path, cfg)
        reports = []
        for action in ("error", "ignore"):
            out = tmp_path / f"{action}.jsonl"
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert main(["run", "--config", path, "--out", str(out)]) == 1
            assert capsys.readouterr().err == ""
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("name,block,value,digest", [
        # a subnormal two-form entry
        ("polar_riemannian", "two_form", {"entries": {"1,2": "1e-320"}},
         "cd792bd9d4bbd9548074d2d9abca56fe88877710bcc92775c45cfea8119e1894"),
        # a subnormal chart derivative
        ("euclidean_standard", "chart", {"forward": ["x2", "1e-320*x1"],
                                         "inverse": ["x2", "x1"]},
         "9ffc86c509381b7e466f7b628e51a72a6453ddbff1ef97ceb8c34888fde97421"),
    ])
    def test_subnormal_determinants_warn_nothing(self, tmp_path, capsys, name,
                                                 block, value, digest):
        """A subnormal matrix can leave a zero on the LU diagonal inside
        ``np.linalg.det``, whose log numpy flags as a division by zero.
        Under the suite's warnings-as-errors filter the run still exits 1
        with nothing on stderr and the report of a run that ignores the
        flag."""
        with open(os.path.join(CONFIG_DIR, f"{name}.json")) as fh:
            cfg = json.load(fh)
        cfg[block].update(value)
        path, out = self._write(tmp_path, cfg), tmp_path / "out.jsonl"
        assert main(["run", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_validate(self, tmp_path, capsys):
        path = self._write(tmp_path, euclid_config())
        assert main(["validate", "--config", path]) == 0
        cfg = euclid_config()
        del cfg["metric"]["domain"]
        path2 = self._write(tmp_path, cfg, "bad.json")
        assert main(["validate", "--config", path2]) == 2

    def test_validate_builds_the_scenario(self, tmp_path, capsys):
        cfg = euclid_config()
        cfg["metric"] = {"family": "riemannian",
                         "g": [["1", "0"], ["0", "1"]],
                         "domain": {"lower": [-1, -1], "upper": [1, 1]}}
        cfg["two_form"] = {"kind": "explicit", "entries": {"1,2": "y1+"}}
        path = self._write(tmp_path, cfg)
        errors = []
        for command in ("validate", "run"):
            assert main([command, "--config", path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: /two_form/entries/1,2: bad expression")

    @pytest.mark.parametrize("edits, expected", SCHEMA_ERRORS.values(),
                             ids=SCHEMA_ERRORS.keys())
    def test_schema_errors_are_pinned(self, tmp_path, capsys, edits,
                                      expected):
        """Each schema keyword's error keeps its pointer and wording; of
        several errors the one with the smallest path is reported, and of
        two at one path the one whose keyword comes first in the schema."""
        cfg = euclid_config()
        for path, value in edits:
            cfg = _edited(cfg, path, value)
        path = tmp_path / "cfg.json"
        # JSON reads the literal 1e400 as infinity
        path.write_text(json.dumps(cfg).replace("Infinity", "1e400"))
        assert main(["validate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected}\n"

    @pytest.mark.parametrize("field, value", [
        ("y_per_x", 1e9), ("y_per_x", 1.7e308), ("count", 1e9)])
    def test_oversized_plan_is_a_config_error(self, tmp_path, capsys, field,
                                              value):
        """A plan above the cap is refused before a sampler allocates
        it."""
        with open(os.path.join(CONFIG_DIR, "randers_dbeta.json")) as fh:
            cfg = json.load(fh)
        cfg["sampling"][field] = value
        path = self._write(tmp_path, cfg)
        for command in ("validate", "run"):
            start = time.perf_counter()
            assert main([command, "--config", path]) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: /sampling: count * y_per_x is above "
                f"{scenario._MAX_PAIRS} pairs\n")

    def test_cli_imports_no_schema_library(self):
        """Configs are validated in-house: importing the CLI in a fresh
        interpreter loads no JSON Schema engine or its dependencies."""
        src = os.path.dirname(os.path.dirname(finsler.__file__))
        banned = ("jsonschema", "referencing", "attr", "attrs", "rpds",
                  "jsonschema_specifications")
        proc = subprocess.run(
            [sys.executable, "-c", "import json, sys, finsym.cli; "
             "print(json.dumps(list(sys.modules)))"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src))
        loaded = json.loads(proc.stdout)
        assert [m for m in loaded if m.partition(".")[0] in banned] == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_deeply_nested_json_is_a_config_error(self, tmp_path, capsys,
                                                 command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: /: invalid JSON: nested too deeply\n"

    def test_nesting_limit_is_a_config_error(self, tmp_path, capsys):
        cfg = euclid_config()
        depth = fields._MAX_NESTING
        cfg["vector_field"]["components"][0] = "(" * depth + "1" + ")" * depth
        assert main(["validate", "--config", self._write(tmp_path, cfg)]) == 0
        capsys.readouterr()
        cfg["vector_field"]["components"][0] = "(" * 300 + "1" + ")" * 300
        assert main(["run", "--config", self._write(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: /vector_field/components/0: bad expression")
        assert "nested more than" in err

    @pytest.mark.parametrize("exponent", ["1e9", "-1001", "1e999"])
    def test_large_exponent_is_a_config_error(self, tmp_path, capsys,
                                              exponent):
        """An integer power costs one jet product per unit of exponent, so
        an exponent above the cap is refused before any point runs."""
        cfg = euclid_config()
        F = cfg["metric"]["F"] = f"sqrt(y1^2+y2^2)*(1+0*x1^{exponent})"
        path = self._write(tmp_path, cfg)
        for command in ("validate", "run"):
            start = time.perf_counter()
            assert main([command, "--config", path]) == 2
            assert time.perf_counter() - start < 1.0
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: /metric/F: bad expression {F!r}: exponent magnitude "
                f"above {fields._MAX_EXPONENT} (at position 24)\n")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("old, new", [
        ('"components": ["1", "0"]', '"components": ["1", "0"], "w_min": {}'),
        ('"domain":', '"y_min": {}, "domain":'),
        ('"upper": [3, 1.5]',
         '"upper": [3, 1.5], "excluded": [{{"center": [2, 1], "radius": {}}}]'),
    ], ids=["w_min", "y_min", "radius"])
    def test_non_finite_json_tokens_are_config_errors(self, tmp_path, capsys,
                                                      token, old, new):
        """Configs are strict JSON: a NaN or an infinity token, which would
        pass every schema bound on a number, is refused as invalid JSON."""
        with open(os.path.join(CONFIG_DIR, "polar_riemannian.json")) as fh:
            text = fh.read()
        assert text.count(old) == 1
        path = tmp_path / "cfg.json"
        path.write_text(text.replace(old, new.format(token)))
        for command in ("validate", "run"):
            assert main([command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: /: invalid JSON: {token} is not a JSON number\n")

    @pytest.mark.parametrize("text", [
        b'{"dimension": 2, "note": "\xff"}',
        b'{"dimension": ' + b"9" * 4400 + b"}"],
        ids=["not-utf8", "huge-integer"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_undecodable_json_is_a_config_error(self, tmp_path, capsys,
                                                command, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: /: invalid JSON: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("field", ["dimension", "count", "seed",
                                       "y_per_x"])
    def test_a_whole_float_runs_as_its_integer(self, tmp_path, capsys, field):
        """The schema takes a whole float such as 2.0 as an integer: the
        config gives its integer twin's exit code and report."""
        runs = []
        for whole in (int, float):
            cfg = randers_config()
            block = cfg if field == "dimension" else cfg["sampling"]
            block[field] = whole(block[field])
            path = self._write(tmp_path, cfg, f"{whole.__name__}.json")
            assert main(["validate", "--config", path]) == 0
            assert capsys.readouterr().out == "config OK\n"
            code = main(["run", "--config", path])
            runs.append((code, capsys.readouterr()))
        assert runs[1] == runs[0]
        assert runs[0][0] == 1 and runs[0][1].err == ""

    def test_long_expression_runs(self, tmp_path):
        cfg = euclid_config(count=1)
        cfg["metric"]["F"] = "sqrt(" + "+".join(["y1^2"] * 1999 + ["y2^2"]) + ")"
        proc = self._cli(self._write(tmp_path, cfg), "--suite",
                         "metric-validity,structural")
        assert proc.returncode in (0, 1)
        assert proc.stderr == ""
        assert strict_records(proc.stdout)

    def test_list_checks(self, capsys):
        assert main(["list-checks"]) == 0
        out = capsys.readouterr().out
        for cid in CHECK_IDS:
            assert cid in out

    def test_out_file_and_formats(self, tmp_path, capsys):
        path = self._write(tmp_path, euclid_config())
        out_path = tmp_path / "report.jsonl"
        assert main(["run", "--config", path, "--suite", "structural",
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().split("\n")
        assert all(json.loads(l)["check"].startswith("structural")
                   for l in lines)
        assert main(["run", "--config", path, "--suite", "structural",
                     "--format", "table"]) == 0
        assert "structural:torsion" in capsys.readouterr().out

    @pytest.mark.parametrize("target", ["missing/report.jsonl", "."])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, capsys, target):
        """A report path in a missing directory, or a directory, is exit 2
        with one ``error:`` line, as an unreadable config is."""
        path = self._write(tmp_path, euclid_config())
        assert main(["run", "--config", path, "--suite", "structural",
                     "--out", str(tmp_path / target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write report: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_tol_override_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, randers_config())
        code = main(["run", "--config", path, "--suite", "berwald-uniqueness",
                     "--tol", "berwald-uniqueness=10.0"])
        assert code == 0

    def test_bad_tol_flag(self, tmp_path, capsys):
        path = self._write(tmp_path, euclid_config())
        assert main(["run", "--config", path, "--tol", "nope"]) == 2

    def test_seed_flag_changes_output(self, tmp_path, capsys):
        path = self._write(tmp_path, randers_config())
        main(["run", "--config", path, "--suite", "structural", "--seed", "9"])
        out1 = capsys.readouterr().out
        main(["run", "--config", path, "--suite", "structural", "--seed", "10"])
        out2 = capsys.readouterr().out
        assert out1 != out2

    @pytest.mark.parametrize("config", [euclid_config, randers_config])
    def test_negative_seed_is_a_config_error(self, tmp_path, capsys, config):
        """--seed is checked against the schema like a seed in the config,
        in grid and random sampling mode alike."""
        path = self._write(tmp_path, config())
        assert main(["run", "--config", path, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: /sampling/seed: ")

    def test_seed_flag_supplies_a_missing_random_seed(self, tmp_path, capsys):
        cfg = randers_config(seed=42)
        seeded = self._write(tmp_path, cfg, "seeded.json")
        del cfg["sampling"]["seed"]
        unseeded = self._write(tmp_path, cfg, "unseeded.json")
        assert main(["validate", "--config", unseeded]) == 2
        capsys.readouterr()
        code = main(["run", "--config", unseeded, "--suite", "structural",
                     "--seed", "42"])
        out = capsys.readouterr().out
        assert code == main(["run", "--config", seeded, "--suite",
                             "structural"])
        assert out == capsys.readouterr().out

    @pytest.mark.parametrize("command,module,name", [
        ("run", finsler, "finsler_samples"),
        ("validate", scenario, "build_plan"),
    ])
    def test_internal_error_exits_three(self, tmp_path, capsys, monkeypatch,
                                        command, module, name):
        def broken(*args, **kwargs):
            raise RuntimeError("broken quantity")

        patch_everywhere(monkeypatch, getattr(module, name), broken)
        path = self._write(tmp_path, euclid_config())
        assert main([command, "--config", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: RuntimeError: broken quantity\n"

    def test_tol_pd_reaches_every_check(self, capsys):
        path = os.path.join(CONFIG_DIR, "polar_riemannian.json")
        code = main(["run", "--config", path, "--suite",
                     "metric-validity,structural,preservation",
                     "--tol", "tol_pd=5"])
        assert code == 1
        records = [json.loads(line)
                   for line in capsys.readouterr().out.strip().split("\n")]
        for check in ("metric-validity:positive-definite", "structural:torsion",
                      "structural:compat", "preservation:lift"):
            rs = [r for r in records if r["check"] == check]
            assert len(rs) == 200
            assert all("leading principal minor" in r["error"] for r in rs)
        assert all(r["error"].startswith("NotPositiveDefiniteError")
                   for r in records if r["check"].startswith("structural"))

    def test_overflow_is_a_domain_error(self, tmp_path):
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom",
                       "F": "sqrt(y1^2+y2^2)*(1+x1^2)^200",
                       "domain": {"lower": [30, 30], "upper": [40, 40]}},
            "sampling": {"mode": "grid", "count": 4, "y_per_x": 1},
        }
        path = self._write(tmp_path, cfg)
        proc = self._cli(path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        records = strict_records(proc.stdout)
        # 4 points x 6 records: the pair sample fails everywhere, and
        # cartan-trace and positive-definite each get their error record
        assert len(records) == 24
        assert any("DomainError: power 200" in (r["error"] or "")
                   for r in records)

    @pytest.mark.parametrize("config,path,value,suite,count,error", [
        (euclid_config, ("berwald_vectors",), [[1e200, 1e200], [1, 0]],
         "berwald-uniqueness", 4, "power 2 of 1e+200 overflows"),
        (euclid_config, ("vector_field",), {"components": ["1e200", "1e200"]},
         "induce", 8, "power 2 of 1e+200 overflows"),
        (euclid_config, ("sampling", "y_box"), {"lower": [1e200, 1e200],
                                                "upper": [2e200, 2e200]},
         "structural", 16, "power 2 of "),
        (randers_config, ("sampling", "y_box"), {"lower": [1e200, 1e200],
                                                 "upper": [2e200, 2e200]},
         "structural", 16, "non-finite field value at "),
    ], ids=["probe", "W", "grid-y", "random-y"])
    def test_large_vector_is_a_quiet_domain_error(self, tmp_path, config,
                                                  path, value, suite, count,
                                                  error):
        """The nowhere-zero floors of W, of the probe vectors and of the
        slit, and the sampler's floor on y, take scaled norms, so a vector
        near the top of the float range gives error records and no
        overflow warning on stderr."""
        cfg = config(count=4)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        proc = self._cli(self._write(tmp_path, cfg), "--suite", suite)
        assert proc.stderr == ""
        assert proc.returncode == 1
        records = strict_records(proc.stdout)
        assert len(records) == count
        assert all(r["error"].startswith("DomainError: " + error)
                   for r in records)

    def test_chart_inverse_must_return_to_the_point(self, tmp_path, capsys):
        """An inverse whose Jacobian matches but whose values are shifted
        is not the chart's inverse: every chart record is an error."""
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom", "F": "(y1^4+y2^4)^0.25",
                       "domain": {"lower": [-1, -1], "upper": [1, 1]}},
            "two_form": {"kind": "standard"},
            "vector_field": {"components": ["1", "0.5"]},
            "chart": {"forward": ["x1", "x2"], "inverse": ["x1+0.3", "x2"]},
            "sampling": {"mode": "grid", "count": 4},
        }
        path = self._write(tmp_path, cfg)
        assert main(["run", "--config", path,
                     "--suite", "transform,minkowski"]) == 1
        records = strict_records(capsys.readouterr().out)
        assert len(records) == 16
        assert all(r["error"].startswith("SingularChartError: inverse map "
                                         "does not return to the point")
                   for r in records)

    def test_non_positive_F_gives_euler_error_records(self, tmp_path):
        """Where F <= 0 (x1 <= 0 here; at x1 = 0 the Euler residual would
        be 0/0) the Euler record is an error record, so the report stays
        strict JSON and the run fails without a traceback."""
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom", "F": "x1*sqrt(y1^2+y2^2)",
                       "domain": {"lower": [-1, -1], "upper": [1, 1]}},
            "sampling": {"mode": "grid", "count": 9, "y_per_x": 1},
        }
        path = self._write(tmp_path, cfg)
        proc = self._cli(path, "--suite", "metric-validity")
        assert proc.returncode == 1
        assert proc.stderr == ""
        euler = [r for r in strict_records(proc.stdout)
                 if r["check"] == "metric-validity:euler"]
        assert len(euler) == 9
        errors = [r for r in euler if r["error"]]
        assert len(errors) == 6  # the grid columns x1 = -0.95 and x1 = 0
        assert all("<= 0" in r["error"] for r in errors)
        assert all(r["point"][0] <= 0 for r in errors)

    def test_underflowing_scaled_F_gives_homogeneity_error_records(
            self, tmp_path):
        """Where lam F(x, y) underflows to 0 (F is subnormal here) the
        homogeneity record is an error record, not a division by zero, so
        the report stays strict JSON and the run fails without a
        traceback."""
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom", "F": "5e-324*y1",
                       "domain": {"lower": [-1, -1], "upper": [1, 1]}},
            "sampling": {"mode": "grid", "count": 4},
        }
        path = self._write(tmp_path, cfg)
        proc = self._cli(path, "--suite", "metric-validity")
        assert proc.returncode == 1
        assert proc.stderr == ""
        homogeneity = [r for r in strict_records(proc.stdout)
                       if r["check"] == "metric-validity:homogeneity"]
        assert len(homogeneity) == 4
        assert all(r["error"].startswith("DomainError: lam F = 0.5 * ")
                   and "underflows to 0" in r["error"] for r in homogeneity)

    @pytest.mark.parametrize("flag, config_text", [
        ("structural-compat=inf", None),
        ("structural-compat=nan", None),
        (None, '"tolerances": {"structural-compat": 1e400}'),
    ])
    def test_non_finite_tolerance_is_a_config_error(self, tmp_path, capsys,
                                                    flag, config_text):
        text = json.dumps(euclid_config())
        if config_text:
            text = text[:-1] + ", " + config_text + "}"
        path = tmp_path / "cfg.json"
        path.write_text(text)
        args = ["run", "--config", str(path), "--suite", "structural"]
        if flag:
            args += ["--tol", flag]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: /tolerances/structural-compat: ")
        assert "must be finite" in err and err.count("\n") == 1

    @pytest.mark.parametrize("F", [
        "sqrt(y1^2+y2^2)*(2+x1/(x2*1e-75))",    # 1/v^5 underflows to 0
        "sqrt(y1^2+y2^2)*(x1*1e-200)^0.5",      # v^(1/2-4) overflows
    ])
    def test_extreme_jet_values_are_domain_errors(self, tmp_path, F):
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom", "F": F,
                       "domain": {"lower": [0.5, 0.5], "upper": [1, 1]}},
            "vector_field": {"components": ["1", "0"]},
            "sampling": {"mode": "grid", "count": 4, "y_per_x": 1},
        }
        path = self._write(tmp_path, cfg)
        proc = self._cli(path)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        records = strict_records(proc.stdout)
        assert any("DomainError: Taylor factors" in (r["error"] or "")
                   for r in records)

    def test_gated_empty_suite_is_usage_error(self, tmp_path, capsys):
        path = self._write(tmp_path, randers_config())
        assert main(["run", "--config", path, "--suite", "darboux"]) == 2
        assert "no records" in capsys.readouterr().err

    def test_odd_dimension_default_suite_skips_darboux(self, tmp_path,
                                                       capsys):
        cfg = {
            "dimension": 3,
            "metric": {"family": "riemannian",
                       "g": [["1", "0", "0"], ["0", "1", "0"],
                             ["0", "0", "1"]],
                       "domain": {"lower": [-1, -1, -1],
                                  "upper": [1, 1, 1]}},
            "two_form": {"kind": "explicit", "entries": {"1,2": "1"}},
            "vector_field": {"components": ["1", "0", "0"]},
            "sampling": {"mode": "grid", "count": 2, "y_per_x": 1},
        }
        path = self._write(tmp_path, cfg)
        # a 3-d two-form is degenerate: nondegeneracy gives error records
        assert main(["run", "--config", path]) == 1
        records = strict_records(capsys.readouterr().out)
        assert not any(r["check"].startswith("darboux") for r in records)
        assert {r["check"] for r in records if r["error"]} == {
            "preservation:nondegeneracy"}
        assert main(["run", "--config", path, "--suite", "darboux"]) == 2
        assert "even dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("metric, check", [
        ({"family": "randers", "alpha": [["1", "0"], ["0", "-1"]],
          "b": ["0", "0.5"]}, "metric-validity:randers-bound"),
        ({"family": "custom", "F": "sqrt(y1^2+y2^2)*1e200*1e200"},
         "metric-validity:homogeneity"),
    ])
    def test_non_finite_values_become_error_records(self, tmp_path, capsys,
                                                    metric, check):
        metric = dict(metric, domain={"lower": [-1, -1], "upper": [1, 1]})
        cfg = {"dimension": 2, "metric": metric,
               "sampling": {"mode": "grid", "count": 4, "y_per_x": 1}}
        path = self._write(tmp_path, cfg)
        assert main(["run", "--config", path]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        rs = [r for r in strict_records(out) if r["check"] == check]
        assert len(rs) == 4
        assert all(r["error"] and "non-finite" in r["error"] for r in rs)

    def test_non_finite_residual_is_an_error_record(self, tmp_path):
        """F(x, 3y) / F(x, y) = 3^800 overflows the homogeneity residual;
        the record is a DomainError error record, so the report stays
        strict JSON."""
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom", "F": "(y1^2+y2^2)^400",
                       "domain": {"lower": [-1, -1], "upper": [1, 1]}},
            "sampling": {"mode": "grid", "count": 4, "y_per_x": 1,
                         "y_box": {"lower": [0.35, 0.35],
                                   "upper": [0.4, 0.4]}},
        }
        proc = self._cli(self._write(tmp_path, cfg),
                         "--suite", "metric-validity")
        assert proc.returncode == 1
        assert proc.stderr == ""
        homog = [r for r in strict_records(proc.stdout)
                 if r["check"] == "metric-validity:homogeneity"]
        assert len(homog) == 4
        assert all(r["error"].startswith("DomainError: non-finite residual")
                   for r in homog)

    def test_singular_alpha_is_a_domain_error(self, tmp_path):
        cfg = {
            "dimension": 2,
            "metric": {"family": "randers",
                       "alpha": [["x1^2", "0"], ["0", "1"]],
                       "b": ["0", "0.1"],
                       "domain": {"lower": [-1, -1], "upper": [1, 1]}},
            "sampling": {"mode": "grid", "count": 9, "y_per_x": 1},
        }
        proc = self._cli(self._write(tmp_path, cfg),
                         "--suite", "metric-validity")
        assert proc.returncode == 1
        assert proc.stderr == ""
        errors = [r for r in strict_records(proc.stdout)
                  if r["check"] == "metric-validity:randers-bound"
                  and r["error"]]
        assert [r["point"][0] for r in errors] == [0.0, 0.0, 0.0]
        assert all(r["error"].startswith("DomainError: singular alpha")
                   for r in errors)

    @pytest.mark.parametrize("mode", ["grid", "random"])
    @pytest.mark.parametrize("block", ["/metric/domain", "/sampling/y_box"])
    def test_overflowing_box_width_is_a_config_error(self, tmp_path, capsys,
                                                     mode, block):
        huge = {"lower": [-1e308, -1e308], "upper": [1e308, 1e308]}
        cfg = {
            "dimension": 2,
            "metric": {"family": "custom", "F": "sqrt(y1^2+y2^2)",
                       "domain": {"lower": [-1, -1], "upper": [1, 1]}},
            "sampling": {"mode": mode, "count": 4, "seed": 1},
        }
        if block == "/metric/domain":
            cfg["metric"]["domain"] = huge
        else:
            cfg["sampling"]["y_box"] = huge
        assert main(["run", "--config", self._write(tmp_path, cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {block}/upper: box width overflows\n"
