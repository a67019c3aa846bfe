"""Correctness gate: strict JSON parsing and verdicts against pinned references.

A report is reduced to verdicts, not residual bits: per check id, the
number of records, a digest of their points in order, and one flag per
record (``P`` passed, ``F`` failed, ``E`` carried an error).  References
hold that summary plus the CLI exit code for every job input the
benchmark can generate, keyed by ``Job.key()``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def parse_report(payload: bytes) -> tuple[list[tuple[str, str, str]], int]:
    """Return ``([(check, point_json, flag), ...], bad_lines)``.

    A line that is not strict JSON (``NaN`` and ``Infinity`` included) or
    lacks the record keys counts as bad and yields no record.
    """
    lines = payload.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    records, bad = [], 0
    for line in lines:
        try:
            obj = json.loads(line.decode("utf-8"), parse_constant=_reject_constant)
            if obj["error"] is not None:
                flag = "E"
            elif obj["pass"] is True or obj["pass"] is False:
                flag = "P" if obj["pass"] else "F"
            else:
                raise ValueError("pass is not a boolean")
            records.append((str(obj["check"]), json.dumps(obj["point"]), flag))
        except (UnicodeDecodeError, ValueError, KeyError, TypeError):
            bad += 1
    return records, bad


def encode_flags(flags: str) -> str:
    return "".join(f"{m.group(1)}{len(m.group(0))}"
                   for m in re.finditer(r"(.)\1*", flags))


def decode_flags(text: str) -> str:
    return "".join(f * int(k) for f, k in re.findall(r"([PFE])(\d+)", text))


def _group(records) -> dict[str, tuple[list[str], list[str]]]:
    groups: dict[str, tuple[list[str], list[str]]] = {}
    for check, point, flag in records:
        points, flags = groups.setdefault(check, ([], []))
        points.append(point)
        flags.append(flag)
    return groups


def _digest(points: list[str]) -> str:
    return hashlib.sha256("\n".join(points).encode("utf-8")).hexdigest()[:16]


def summarize(records) -> dict[str, list]:
    """Per check id: ``[record count, point digest, run-length flags]``."""
    return {check: [len(points), _digest(points), encode_flags("".join(flags))]
            for check, (points, flags) in _group(records).items()}


def count_failed(records, bad_lines: int, reference: dict) -> int:
    """Records that errored, were not strict JSON, or differ from the reference.

    A check whose record count or point sequence differs fails as a whole.
    """
    failed = bad_lines
    actual = _group(records)
    expected = reference["checks"]
    for check in actual.keys() | expected.keys():
        points, flags = actual.get(check, ([], []))
        count, digest, ref_flags = expected.get(check, [0, "", ""])
        if len(points) != count or _digest(points) != digest:
            failed += max(len(points), count)
            continue
        failed += sum(1 for a, r in zip(flags, decode_flags(ref_flags))
                      if a != r or a == "E")
    return failed


def expected_records(reference: dict) -> int:
    return sum(entry[0] for entry in reference["checks"].values())


def load_references(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    """Counts attempted and failed records over every report a run checks."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failed = 0
        self._seen: dict[tuple[str, bytes], int] = {}

    def reference(self, job) -> dict:
        try:
            return self.references[job.key()]
        except KeyError:
            raise KeyError(f"no pinned reference for {job.label} "
                           f"(inputs {job.key()}); run perfbench/pin.py "
                           "only if the inputs changed on purpose") from None

    def check_report(self, job, payload: bytes) -> None:
        """Gate one report of ``job``."""
        ref = self.reference(job)
        digest = hashlib.sha256(payload).digest()
        failed = self._seen.get((job.key(), digest))
        if failed is None:
            records, bad = parse_report(payload)
            failed = count_failed(records, bad, ref)
            self._seen[(job.key(), digest)] = failed
        self.attempted += expected_records(ref)
        self.failed += failed

    def crashed(self, job) -> None:
        """The program raised instead of reporting: every record failed."""
        expected = expected_records(self.reference(job))
        self.attempted += expected
        self.failed += expected

    def check_exit(self, job, exit_code: int) -> None:
        if exit_code != self.reference(job)["exit"]:
            self.failed += 1

    def mismatch(self) -> None:
        """One failed operation outside a report, e.g. differing bytes."""
        self.failed += 1
