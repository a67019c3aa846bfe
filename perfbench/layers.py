"""Isolated layer timings on fixed Randers inputs at n = 2, 3 and 4.

Each figure is the median per-call time over several batches; a batch
repeats the call until it has run for at least ``BATCH_S`` seconds.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from . import procs
from .workloads import randers_config

BATCH_S = 0.05
BATCHES = 5
IMPORT_REPEATS = 5
FIXED_VARIANT = 0
_Y = (0.9, 0.6, 1.1, 0.7)


def per_call_s(fn) -> float:
    fn()
    samples = []
    for _ in range(BATCHES):
        calls = 0
        t0 = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= BATCH_S:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def _fixed_records(count: int = 3000):
    from finsym.records import CheckRecord

    rng = np.random.default_rng(12345)
    records = []
    for i in range(count):
        point = rng.uniform(-1.0, 1.0, 6)
        residual = float(rng.uniform(0.0, 2e-9))
        records.append(CheckRecord.evaluated(
            f"structural:{'torsion' if i % 2 else 'compat'}", point,
            residual, 1e-9))
    return records


def isolated_timings(root: str, work_dir: str,
                     deadline: float) -> dict[str, tuple[float, str]]:
    from finsym import curvature, fedosov, finsler, report, scenario

    out: dict[str, tuple[float, str]] = {}
    for n in (2, 3, 4):
        built = scenario.build_scenario(randers_config(
            n, FIXED_VARIANT, count=1, y_per_x=1, two_form=False,
            vector_field=True))
        x = np.full(n, 0.3)
        y = np.array(_Y[:n])
        point = np.concatenate([x, y])
        phi = built.metric.phi_field
        for order in (3, 4):
            out[f"fields.eval_jet.o{order}.n{n}.s"] = (
                per_call_s(lambda: phi.eval_jet(point, order)), "s")
        out[f"finsler.finsler_sample.n{n}.s"] = (
            per_call_s(lambda: finsler.finsler_sample(built.metric, x, y)), "s")
        out[f"finsler.chern_with_derivatives.n{n}.s"] = (
            per_call_s(lambda: finsler.chern_with_derivatives(
                built.metric, x, y)), "s")
        if n != 3:
            sc = fedosov.FedosovScenario(built.metric, built.vector_field)
            out[f"curvature.curvature_fd_commutator.n{n}.s"] = (
                per_call_s(lambda: curvature.curvature_fd_commutator(sc, x)),
                "s")
    records = _fixed_records()
    out["report.emit_report.s"] = (
        per_call_s(lambda: report.emit_report(records)), "s")
    out["cli.import_s"] = (import_s(root, work_dir, deadline), "s")
    return out


_IMPORT_SNIPPET = (
    "import time; t0 = time.perf_counter(); import finsym.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def import_s(root: str, work_dir: str, deadline: float) -> float:
    """Median time to ``import finsym.cli`` in a fresh interpreter."""
    env = procs.child_env(root)
    log = os.path.join(work_dir, "import.log")
    samples = []
    for _ in range(IMPORT_REPEATS):
        res = procs.run_python(["-c", _IMPORT_SNIPPET], env, log,
                               deadline - time.monotonic())
        with open(log, encoding="utf-8") as fh:
            text = fh.read().strip()
        if res.exit_code != 0:
            raise RuntimeError(f"import of finsym.cli failed: {text}")
        samples.append(float(text))
    return statistics.median(samples)
