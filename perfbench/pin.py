#!/usr/bin/env python3
"""Record the reference verdicts the benchmark gates against.

    python3 perfbench/pin.py [workload ...]

For every input variant of each workload, runs each job through a fresh
``finsym run`` and stores its exit code and verdict summary (see
``gate.summarize``) under the job's input key in
``perfbench/reference/<workload>.json``.  Re-pin only when the inputs
change on purpose: a perf change must reproduce these verdicts.
"""

from __future__ import annotations

import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import gate, procs, workloads  # noqa: E402
from perfbench.run import CLI_ENTRY, GEN_DIR, RESULTS_DIR  # noqa: E402


def pin(workload: str) -> dict:
    env = procs.child_env(ROOT)
    out = os.path.join(RESULTS_DIR, "pin-report.jsonl")
    log = os.path.join(RESULTS_DIR, "pin.log")
    refs: dict[str, dict] = {}
    for variant in range(workloads.VARIANTS):
        for job in workloads.build_jobs(workload, variant, ROOT, GEN_DIR):
            if job.key() in refs:
                continue
            res = procs.run_python(["-c", CLI_ENTRY, *job.cli_args(out)],
                                   env, log, 600.0)
            with open(out, "rb") as fh:
                records, bad = gate.parse_report(fh.read())
            if bad or res.exit_code not in (0, 1):
                raise RuntimeError(f"{job.label} variant {variant}: exit "
                                   f"{res.exit_code}, {bad} bad lines")
            errors = sum(1 for r in records if r[2] == "E")
            if errors:
                raise RuntimeError(f"{job.label} variant {variant}: {errors} "
                                   "error records; pick inputs that evaluate")
            refs[job.key()] = {"job": f"{job.label} seed={job.seed}",
                               "exit": res.exit_code,
                               "checks": gate.summarize(records)}
            print(f"{workload} v{variant} {job.label}: exit {res.exit_code}, "
                  f"{len(records)} records", flush=True)
    return refs


def dump_references(refs: dict) -> str:
    """One input per line, keys sorted, so a re-pin diffs line by line."""
    lines = [f"{json.dumps(key)}: {json.dumps(refs[key], sort_keys=True)}"
             for key in sorted(refs)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str]) -> int:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    os.makedirs(gate.REFERENCE_DIR, exist_ok=True)
    for workload in argv or sorted(workloads.WORKLOADS):
        t0 = time.monotonic()
        refs = pin(workload)
        path = os.path.join(gate.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_references(refs))
        print(f"wrote {path} ({len(refs)} inputs, "
              f"{time.monotonic() - t0:.0f} s)", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
