#!/usr/bin/env python3
"""finsym benchmark: one workload, end-to-end metrics or a per-layer trace.

Run from anywhere inside a finsym checkout (the benchmark lives in
``<root>/perfbench`` and imports the program from ``<root>/src``)::

    python3 perfbench/run.py --workload shipped-n2 --seed 0 --seconds 30 --trace 0

``--trace 0`` times the workload with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` runs it once untraced and once traced
and reports per-layer metrics plus isolated layer timings.  Every report
the program produces is checked against the pinned reference verdicts.
A human-readable table comes first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details, samples and spans go to ``perfbench/results``.

All load comes from this one process, with no threads; fresh processes
(for ``cli_s``, ``setup_s`` and ``cli.import_s``) run one at a time.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
GEN_DIR = os.path.join(BENCH_DIR, "generated")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import gate as gating  # noqa: E402
from perfbench import probe, procs, workloads  # noqa: E402

# Whole run, including child processes; the driver allows 180 s.
TIME_LIMIT_S = 165.0
# Shares of --seconds for the three timed phases of an untraced run.
VERDICT_SHARE, CLI_SHARE, SETUP_SHARE = 0.5, 0.4, 0.1
SETUP_MIN_ROUNDS = 3
# verdict_s.tail is the highest sample with at least this many above it.
TAIL_BEYOND = 10

CLI_ENTRY = "import sys; from finsym.cli import main; sys.exit(main())"
SETUP_ENTRY = (
    "import json, sys; import finsym; from finsym import scenario; "
    "config = scenario.load_config(sys.argv[1]); "
    "scenario.build_scenario(config, seed_override=json.loads(sys.argv[2]))"
)

END_TO_END_UNITS = {
    "verdict_s.p50": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_share": "ratio",
}


def _verdict(job, speed: probe.Probe | None = None):
    """Config dict to report bytes in this interpreter.

    Returns ``(wall_s, payload, segment)``; ``segment`` is the speed
    probe's record when ``speed`` is given, else None.
    """
    from finsym import checks, report

    suite = list(job.suite) if job.suite is not None else None
    if speed is not None:
        speed.start()
    try:
        t0 = time.perf_counter()
        records = checks.run_scenario(job.config, suite=suite,
                                      seed_override=job.seed)
        payload = report.emit_report(records)
        wall = time.perf_counter() - t0
    finally:
        segment = speed.stop() if speed is not None else None
    return wall, payload, segment


def _gated_verdict(job, gate, speed: probe.Probe | None = None):
    """``_verdict`` with its report gated; a crash fails the job's records
    and returns None."""
    try:
        result = _verdict(job, speed)
    except Exception:  # noqa: BLE001 - a crash fails the job's records
        traceback.print_exc(file=sys.stderr)
        gate.crashed(job)
        return None
    gate.check_report(job, result[1])
    return result


def _warm_up(jobs) -> None:
    """Fill per-process tables (jet index tables and the like) on one point."""
    for job in jobs:
        config = copy.deepcopy(job.config)
        config["sampling"].update(count=1, y_per_x=1)
        try:
            _verdict(dataclasses.replace(job, config=config))
        except Exception:  # noqa: BLE001 - the timed runs report failures
            pass


def _repeat(budget_s: float, min_rounds: int, deadline: float,
            one_round) -> None:
    """Run rounds until the next one would overrun ``budget_s``."""
    start = time.monotonic()
    rounds = 0
    while True:
        t0 = time.monotonic()
        one_round()
        rounds += 1
        now = time.monotonic()
        last = now - t0
        if now + last > deadline:
            return
        if rounds >= min_rounds and now - start + last > budget_s:
            return


def _tail(samples: list[float]) -> float | None:
    ordered = sorted(samples)
    if len(ordered) <= TAIL_BEYOND:
        return None
    return ordered[len(ordered) - 1 - TAIL_BEYOND]


def _sum_medians(samples: dict[str, list[float]]) -> float:
    return sum(statistics.median(s) for s in samples.values())


def end_to_end(jobs, seconds: float, gate, deadline: float) -> tuple[dict, dict]:
    """Time verdicts in this interpreter, then fresh CLI and set-up processes.

    Every sample is kept as ``(wall_s, probe segment)``; the metrics use
    the probe-normalized times and the raw wall times go to the results.
    """
    env = procs.child_env(ROOT)
    phases = {name: {job.label: [] for job in jobs}
              for name in ("verdict_s", "cli_s", "setup_s")}
    rss_kb: list[int] = []
    speed = probe.Probe()
    segment_path = os.path.join(RESULTS_DIR, "probe.json")

    def verdict_round():
        for job in jobs:
            result = _gated_verdict(job, gate, speed)
            if result is not None:
                phases["verdict_s"][job.label].append((result[0], result[2]))

    def child(job, phase: str, source: str, args: list[str]) -> procs.ChildResult:
        if os.path.exists(segment_path):
            os.remove(segment_path)
        res = procs.run_python(
            ["-c", probe.child_prefix(segment_path) + source, *args], env,
            os.path.join(RESULTS_DIR, f"{phase}.log"),
            deadline - time.monotonic())
        # A child that died before its exit hook leaves no segment; its
        # wall time then stands as measured.
        segment = (probe.load_child(segment_path)
                   if os.path.exists(segment_path) else probe.Segment([], 0.0))
        phases[phase][job.label].append((res.wall_s, segment))
        return res

    def cli_round():
        out = os.path.join(RESULTS_DIR, "cli-report.jsonl")
        for job in jobs:
            if os.path.exists(out):
                os.remove(out)
            res = child(job, "cli_s", CLI_ENTRY, job.cli_args(out))
            payload = b""
            if os.path.exists(out):
                with open(out, "rb") as fh:
                    payload = fh.read()
            gate.check_report(job, payload)
            gate.check_exit(job, res.exit_code)
            rss_kb.append(res.max_rss_kb)

    def setup_round():
        for job in jobs:
            res = child(job, "setup_s", SETUP_ENTRY,
                        [job.path, json.dumps(job.seed)])
            if res.exit_code != 0:
                gate.mismatch()

    _warm_up(jobs)
    _repeat(seconds * VERDICT_SHARE, 1, deadline, verdict_round)
    _repeat(seconds * CLI_SHARE, 1, deadline, cli_round)
    _repeat(seconds * SETUP_SHARE, SETUP_MIN_ROUNDS, deadline, setup_round)

    if any(not s for s in phases["verdict_s"].values()):
        raise RuntimeError("a job produced no verdict sample")
    normalized = {name: {label: [seg.rescaled(wall) for wall, seg in s]
                         for label, s in phase.items()}
                  for name, phase in phases.items()}
    wall = {name: {label: [w for w, _ in s] for label, s in phase.items()}
            for name, phase in phases.items()}
    tails = [_tail(s) for s in normalized["verdict_s"].values()]
    failed_share = gate.failed / gate.attempted
    metrics = {
        "verdict_s.p50": _sum_medians(normalized["verdict_s"]),
        "verdict_s.tail": None if None in tails else sum(tails),
        "cli_s": _sum_medians(normalized["cli_s"]),
        "setup_s": _sum_medians(normalized["setup_s"]),
        "peak_rss_mb": max(rss_kb) / 1024.0,
        "failed_share": failed_share,
        "verdict_ok_share": 1.0 - failed_share,
        "wall.verdict_s.p50": _sum_medians(wall["verdict_s"]),
        "wall.cli_s": _sum_medians(wall["cli_s"]),
        "wall.setup_s": _sum_medians(wall["setup_s"]),
    }
    samples = {"normalized": normalized, "wall": wall, "max_rss_kb": rss_kb}
    return metrics, samples


def traced(jobs, gate, deadline: float, spans_path: str) -> tuple[dict, dict]:
    """One untraced and one traced pass over the jobs, then isolated timings."""
    from perfbench import layers
    from perfbench.tracing import Tracer

    _warm_up(jobs)
    speed = probe.Probe()
    plain = {job.label: _gated_verdict(job, gate, speed) for job in jobs}
    with Tracer() as tracer:
        with_trace = {job.label: _gated_verdict(job, gate, speed)
                      for job in jobs}
    for label, result in with_trace.items():
        if result is None or plain[label] is None or result[1] != plain[label][1]:
            gate.mismatch()
    metrics = tracer.layer_metrics()
    plain_s = {k: r[2].rescaled(r[0]) for k, r in plain.items() if r is not None}
    traced_s = {k: r[2].rescaled(r[0])
                for k, r in with_trace.items() if r is not None}
    metrics["trace.overhead_s"] = (
        sum(traced_s.values()) - sum(plain_s.values()), "s")
    tracer.write_spans(spans_path)
    metrics.update(layers.isolated_timings(ROOT, RESULTS_DIR, deadline))
    samples = {"untraced_s": plain_s, "traced_s": traced_s,
               "spans": len(tracer.spans)}
    return metrics, samples


def validate_generated(jobs, deadline: float) -> None:
    env = procs.child_env(ROOT)
    log = os.path.join(RESULTS_DIR, "validate.log")
    for job in jobs:
        if not job.generated:
            continue
        res = procs.run_python(["-c", CLI_ENTRY, "validate", "--config",
                                job.path], env, log,
                               deadline - time.monotonic())
        if res.exit_code != 0:
            with open(log, encoding="utf-8") as fh:
                raise RuntimeError(f"finsym validate rejected {job.path}: "
                                   f"{fh.read().strip()}")


def stamp() -> dict:
    import numpy

    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=False).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC_DIR, "finsym")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _print_table(title: str, rows: list[tuple[str, str, str, str]]) -> None:
    print(title)
    widths = [max(len(r[c]) for r in rows) for c in range(4)]
    for row in rows:
        print("  " + "  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(row)).rstrip())


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (os.path.isfile(os.path.join(SRC_DIR, "finsym", "__init__.py"))
            and os.path.isdir(os.path.join(ROOT, "configs"))):
        print(f"error: no finsym checkout around {BENCH_DIR} "
              "(needs src/finsym and configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC_DIR)
    # Loaded before any timing; the tracer patches the loaded modules.
    import finsym  # noqa: F401

    os.makedirs(RESULTS_DIR, exist_ok=True)
    jobs = workloads.build_jobs(args.workload, args.seed, ROOT, GEN_DIR)
    gate = gating.Gate(gating.load_references(args.workload))
    for job in jobs:
        gate.reference(job)  # an input without a pinned verdict stops here
    validate_generated(jobs, deadline)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = stamp()
    if args.trace:
        layer, samples = traced(jobs, gate, deadline,
                                os.path.join(RESULTS_DIR, f"{tag}.spans.jsonl"))
        reported = {name: {"value": v, "unit": u}
                    for name, (v, u) in layer.items()}
        rows = [(name, _fmt(v), u, "") for name, (v, u) in layer.items()]
    else:
        e2e, samples = end_to_end(jobs, args.seconds, gate, deadline)
        reported = {name: {"value": e2e[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}
        counts = {name: min(len(s) for s in phase.values())
                  for name, phase in samples["wall"].items()}
        rows = [
            ("verdict_s.p50", _fmt(e2e["verdict_s.p50"]), "s",
             f"sum over {len(jobs)} config(s) of the median of "
             f">= {counts['verdict_s']} samples"),
            ("verdict_s.tail", _fmt(e2e["verdict_s.tail"]), "s",
             f"{counts['verdict_s']} samples per config; needs "
             f"> {TAIL_BEYOND}"),
            ("cli_s", _fmt(e2e["cli_s"]), "s",
             f"{counts['cli_s']} process(es) per config"),
            ("setup_s", _fmt(e2e["setup_s"]), "s",
             f"{counts['setup_s']} process(es) per config"),
            ("peak_rss_mb", _fmt(e2e["peak_rss_mb"]), "MB",
             "max over finsym run processes"),
            ("failed_share", _fmt(e2e["failed_share"]), "ratio",
             f"{gate.failed} of {gate.attempted} records"),
            ("verdict_ok_share", _fmt(e2e["verdict_ok_share"]), "ratio",
             "1 - failed_share"),
        ] + [(name, _fmt(e2e[name]), "s", "raw wall time, not normalized")
             for name in ("wall.verdict_s.p50", "wall.cli_s", "wall.setup_s")]
    correct = gate.failed == 0
    _print_table(
        f"finsym benchmark: workload={args.workload} seed={args.seed} "
        f"variant={args.seed % workloads.VARIANTS} trace={args.trace} "
        f"correct={correct}",
        [("metric", "value", "unit", "note")] + rows)
    print("stamp: " + json.dumps(info))
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "stamp": info, "correct": correct,
                   "attempted": gate.attempted, "failed": gate.failed,
                   "metrics": reported, "samples": samples}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
