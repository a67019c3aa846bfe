"""The benchmark's workloads: which configs run, with which suite and seed.

A workload is a list of jobs; a job is one scenario config plus the suite
and the sampling-seed override the program receives.  The benchmark seed
selects one of ``VARIANTS`` input variants; every variant has a pinned
reference verdict (see ``gate.py``), so every seed is checked record by
record.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass

VARIANTS = 16

# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = ("shipped-n2", "curvature-n4", "structural-n3")


@dataclass(frozen=True)
class Job:
    """One scenario run: what the CLI gets as --config, --suite and --seed."""

    label: str
    path: str
    config: dict
    suite: tuple[str, ...] | None
    seed: int | None
    generated: bool = False

    def key(self) -> str:
        """Content address of the job's inputs; selects its reference."""
        blob = json.dumps({"config": self.config, "suite": self.suite,
                           "seed": self.seed}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]

    def cli_args(self, out_path: str) -> list[str]:
        args = ["run", "--config", self.path, "--out", out_path]
        if self.suite is not None:
            args += ["--suite", ",".join(self.suite)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args


def _num(v: float) -> str:
    return f"{v:.3f}"


def _affine(coeffs, const: float | None = None) -> str:
    terms = [] if const is None else [_num(const)]
    terms += [f"{_num(c)}*x{j + 1}" for j, c in enumerate(coeffs)]
    return "+".join(terms).replace("+-", "-")


def randers_config(n: int, variant: int, count: int, y_per_x: int,
                   two_form: bool, vector_field: bool) -> dict:
    """A Randers scenario on [-1, 1]^n drawn from ``variant``.

    alpha = diag(1 + c_i x_i^2) plus small x_i x_j couplings, so it stays
    positive definite on the box.  b is linear in x with entries at most
    0.1 and a dominant skew block per coordinate pair, so |b|_alpha < 1 and
    d(beta) is nondegenerate in even dimension.  W is affine with a
    constant part near 1 in every component, so it never vanishes.
    """
    rng = random.Random(f"randers-{n}-{variant}")
    alpha = [["0"] * n for _ in range(n)]
    for i in range(n):
        alpha[i][i] = f"1+{_num(rng.uniform(0.1, 0.3))}*x{i + 1}^2"
        for j in range(i + 1, n):
            alpha[i][j] = alpha[j][i] = (
                f"{_num(rng.uniform(-0.05, 0.05))}*x{i + 1}*x{j + 1}")
    m = [[rng.uniform(-0.02, 0.02) for _ in range(n)] for _ in range(n)]
    for i in range(0, n - 1, 2):
        s = rng.uniform(0.06, 0.08) * rng.choice((-1, 1))
        m[i][i + 1] += s
        m[i + 1][i] -= s
    config = {
        "dimension": n,
        "metric": {"family": "randers", "alpha": alpha,
                   "b": [_affine(row) for row in m],
                   "domain": {"lower": [-1] * n, "upper": [1] * n}},
        "sampling": {"mode": "random", "count": count, "seed": variant,
                     "y_per_x": y_per_x},
    }
    if two_form:
        config["two_form"] = {"kind": "randers-dbeta"}
    if vector_field:
        config["vector_field"] = {"components": [
            _affine([rng.uniform(-0.3, 0.3) for _ in range(n)],
                    rng.uniform(0.8, 1.2)) for _ in range(n)]}
    return config


def _generated(path: str, config: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
        fh.write("\n")
    return path


def build_jobs(workload: str, seed: int, root: str, gen_dir: str) -> list[Job]:
    """The jobs of ``workload`` at benchmark seed ``seed``.

    Shipped configs are read from ``<root>/configs`` untouched; generated
    configs are written to ``gen_dir``.  Paths in the jobs are absolute.
    """
    variant = seed % VARIANTS
    if workload == "shipped-n2":
        cfg_dir = os.path.join(root, "configs")
        jobs = []
        for name in sorted(os.listdir(cfg_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(cfg_dir, name)
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
            random_mode = config["sampling"]["mode"] == "random"
            jobs.append(Job(name, path, config, None,
                            variant if random_mode else None))
        if len(jobs) != 5:
            raise RuntimeError(f"expected the 5 shipped configs in {cfg_dir}, "
                               f"found {len(jobs)}")
        return jobs
    os.makedirs(gen_dir, exist_ok=True)
    if workload == "curvature-n4":
        config = randers_config(4, variant, count=16, y_per_x=2,
                                two_form=True, vector_field=True)
        suite = None
    elif workload == "structural-n3":
        config = randers_config(3, variant, count=400, y_per_x=4,
                                two_form=False, vector_field=False)
        suite = ("structural",)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    name = f"{workload}-v{variant}.json"
    path = _generated(os.path.join(gen_dir, name), config)
    return [Job(name, path, config, suite, None, generated=True)]
