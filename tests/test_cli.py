"""Scenario configs, the check runner, report emission, and exit codes."""

import json
import os
import subprocess
import sys

import pytest

from finsym import finsler
from finsym.checks import CHECK_IDS, available_checks, run_scenario
from finsym.cli import main
from finsym.errors import ConfigError
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
        calls = []
        original = finsler.chern_with_derivatives

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
        cfg = euclid_config(count=4)
        cfg["metric"]["F"] = "sqrt((1+x1^2)*y1^2+y2^2)"
        del cfg["chart"]  # minkowski would reject the curved metric
        records = run_scenario(cfg)
        assert all(r.error is None for r in records)
        assert len(calls) == build_scenario(cfg).plan.count == 4

    def test_metric_validity_reads_the_pair_sample(self, monkeypatch):
        calls = []
        original = finsler.finsler_sample

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counted)
        # tol_pd = 1 fails positive-definiteness at 8 of the 10 pairs, so
        # both sides of the cartan-trace / positive-definite split occur
        cfg, tols = randers_config(), {"tol_pd": 1.0}
        records = run_scenario(cfg, suite=["metric-validity", "structural"],
                               tolerance_overrides=tols)
        s = build_scenario(cfg, tolerance_overrides=tols)
        pairs = list(s.plan.pairs())
        assert len(calls) == len(pairs) == 10
        expected = finsler.metric_validity(
            s.metric, pairs, homogeneity_tol=s.tolerances["homogeneity"])
        found = [r for r in records if r.check.startswith("metric-validity")]
        assert _as_tuples(found) == _as_tuples(
            sorted(expected, key=lambda r: r.check))
        assert {r.error is None for r in found
                if r.check == "metric-validity:positive-definite"} == {True,
                                                                      False}

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
        src = os.path.dirname(os.path.dirname(finsler.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "finsym.cli", "run", "--config", path],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        records = strict_records(proc.stdout)
        assert len(records) == 20
        assert any("DomainError: power 200" in (r["error"] or "")
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
