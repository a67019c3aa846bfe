"""Tests of the benchmark harness itself: python -m pytest perfbench"""

from __future__ import annotations

import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import finsym  # noqa: E402
from finsym import checks, report  # noqa: E402

from perfbench import gate, probe  # noqa: E402
from perfbench.run import _tail  # noqa: E402
from perfbench.tracing import TRACED, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    VARIANTS, Job, build_jobs, randers_config)


def _small_report() -> bytes:
    config = randers_config(2, 3, count=3, y_per_x=1, two_form=True,
                            vector_field=True)
    return report.emit_report(checks.run_scenario(config))


def test_traced_and_untraced_reports_are_byte_identical():
    plain = _small_report()
    original = finsym.finsler.finsler_sample
    with Tracer() as tracer:
        traced = _small_report()
    assert traced == plain
    assert finsym.finsler.finsler_sample is original
    assert finsym.fedosov.finsler_sample is original
    metrics = tracer.layer_metrics()
    for name in TRACED:
        assert f"{name}.calls" in metrics and f"{name}.self_s" in metrics
    assert metrics["checks.run_scenario.calls"][0] == 1
    assert metrics["finsler.chern_with_derivatives.calls"][0] > 0
    # curvature, bianchi and pair-symmetry each rebuild it at the same x
    assert metrics["finsler.chern_with_derivatives.unique_share"][0] <= 0.2


def test_self_time_excludes_children():
    with Tracer() as tracer:
        _small_report()
    metrics = tracer.layer_metrics()
    total = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    outer = [end - start for name, parent, start, end in tracer.spans
             if parent < 0]
    assert abs(total - sum(outer)) < 1e-6


def test_flipped_reference_verdict_makes_failed_share_nonzero():
    payload = _small_report()
    records, bad = gate.parse_report(payload)
    reference = {"exit": 1, "checks": gate.summarize(records)}
    job = Job("small", "small.json", {}, None, None)

    ok = gate.Gate({job.key(): reference})
    ok.check_report(job, payload)
    assert bad == 0 and ok.failed == 0 and ok.attempted == len(records)

    check, (count, digest, encoded) = next(iter(reference["checks"].items()))
    flags = gate.decode_flags(encoded)
    flipped = ("F" if flags[0] == "P" else "P") + flags[1:]
    reference["checks"][check] = [count, digest, gate.encode_flags(flipped)]
    broken = gate.Gate({job.key(): reference})
    broken.check_report(job, payload)
    assert broken.failed == 1
    assert broken.failed / broken.attempted > 0


def test_non_strict_json_lines_count_as_failed():
    payload = (b'{"check":"a","point":[1.0],"residual":NaN,"tolerance":1.0,'
               b'"pass":false,"error":null}\n'
               b'{"check":"a","point":[2.0],"residual":0.0,"tolerance":1.0,'
               b'"pass":true,"error":null}\n')
    records, bad = gate.parse_report(payload)
    assert bad == 1 and records == [("a", "[2.0]", "P")]


def test_error_records_fail_even_when_pinned():
    records = [("a", "[1.0]", "E"), ("a", "[2.0]", "P")]
    reference = {"exit": 1, "checks": gate.summarize(records)}
    assert gate.count_failed(records, 0, reference) == 1


def test_jobs_are_a_function_of_the_seed():
    gen_dir = os.path.join(ROOT, "perfbench", "generated")
    a = build_jobs("curvature-n4", 5, ROOT, gen_dir)
    b = build_jobs("curvature-n4", 5 + VARIANTS, ROOT, gen_dir)
    c = build_jobs("curvature-n4", 6, ROOT, gen_dir)
    assert [j.key() for j in a] == [j.key() for j in b]
    assert a[0].key() != c[0].key()
    shipped = build_jobs("shipped-n2", 5, ROOT, gen_dir)
    assert sorted(j.seed for j in shipped if j.seed is not None) == [5, 5]


def test_probe_normalization_scales_by_probe_speed():
    ref = probe.REF_PROBE_S
    quiet = probe.Segment([(0.02, ref), (0.02, ref)], 0.01)
    assert abs(quiet.normalized() - 0.05) < 1e-12
    slow = probe.Segment([(0.04, 2 * ref), (0.04, 2 * ref)], 0.02)
    assert abs(slow.normalized() - 0.05) < 1e-12
    # wall outside the probed stretch (start-up, exit) is kept as is
    covered = 0.04 + 0.04 + 2 * (2 * ref) + 0.02
    assert abs(slow.rescaled(covered + 0.3) - 0.35) < 1e-12


def test_probe_disarms_its_timer_on_stop():
    speed = probe.Probe()
    speed.start()
    t0 = time.process_time()
    while time.process_time() - t0 < 5 * probe.PERIOD_S:
        sum(i * i for i in range(1000))
    segment = speed.stop()
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert segment.marks and segment.normalized() > 0


def test_tail_is_the_highest_sample_with_ten_beyond_it():
    assert _tail([float(v) for v in range(10)]) is None
    assert _tail([float(v) for v in range(11)]) == 0.0
    assert _tail([float(v) for v in reversed(range(40))]) == 29.0
