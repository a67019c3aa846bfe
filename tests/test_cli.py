"""Scenario configs, the check runner, report emission, and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

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
        The chart derivatives are counted by rows of their block calls."""
        counts = {}

        def counting(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                rows = len(args[1]) if name == "chart_jacobians" else 1
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
        commutator samples its own centre and stencil in a block of its
        own, told apart here as the blocks sampled inside the commutator:
        one per base point, which samples (x, W(x)) again rather than read
        it from the runner's blocks.  A block with a failing pair samples
        its pairs again one at a time, so those calls are not counted."""
        counts = {}
        stencils = []
        in_fd = []
        in_block = []
        sample, block = finsler.finsler_sample, finsler.finsler_samples
        stencil = finsler.sample_block
        commutator = curvature.curvature_fd_commutator

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
            # the commutator samples its stencil with sample_block itself
            if in_fd and not in_block:
                stencils.append((tuple(map(float, xs[0])),
                                 tuple(map(float, ys[0])), len(xs)))
            return stencil(m, xs, ys)

        def fd_commutator(s, x):
            in_fd.append(x)
            try:
                return commutator(s, x)
            finally:
                in_fd.pop()

        patch_everywhere(monkeypatch, sample, counted)
        patch_everywhere(monkeypatch, block, counted_block)
        patch_everywhere(monkeypatch, stencil, counted_stencil)
        patch_everywhere(monkeypatch, commutator, fd_commutator)
        with open(os.path.join(CONFIG_DIR, f"{name}.json"),
                  encoding="utf-8") as fh:
            config = json.load(fh)
        run_scenario(config)
        assert counts and set(counts.values()) == {1}
        s = build_scenario(config)
        assert {(tuple(x), tuple(y)) for x, ys in zip(s.plan.xs, s.plan.ys)
                for y in ys} <= set(counts)
        assert [size for *_, size in stencils] == [1 + 4 * s.dimension] * len(
            s.plan.xs)
        assert [(x, w) for x, w, _ in stencils] == [
            (tuple(x), tuple(s.vector_field.values([x])[0]))
            for x in s.plan.xs]
        assert {(x, w) for x, w, _ in stencils} <= set(counts)

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

    def test_asymmetric_connection_is_a_failing_symmetry_record(self,
                                                                monkeypatch):
        original, block = finsler.finsler_sample, finsler.finsler_samples

        def skew(sample):
            chern = sample.chern.copy()
            chern[0, 0, 1] += 1e-3
            return dataclasses.replace(sample, chern=chern)

        def skewed(m, x, y):
            return skew(original(m, x, y))

        def skewed_block(m, xs, ys):
            return [r if isinstance(r, Exception) else skew(r)
                    for r in block(m, xs, ys)]

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
