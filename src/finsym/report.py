"""Report serialization for check records."""

from __future__ import annotations

import json

from .records import CheckRecord


def emit_report(records: list[CheckRecord], fmt: str = "json") -> bytes:
    """Serialize records as json-lines or an aligned table (UTF-8, LF).

    Output is byte-identical across runs with the same config and seed;
    wall-clock timings are therefore kept off the report.  json-lines
    output is strict JSON: a non-finite number raises ValueError.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "json":
        lines = []
        for r in records:
            obj = {
                "check": r.check,
                "point": list(r.point),
                "residual": r.residual,
                "tolerance": r.tolerance,
                "pass": r.passed,
                "error": r.error,
            }
            lines.append(json.dumps(obj, separators=(",", ":"),
                                    allow_nan=False))
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "table":
        groups: dict[str, list[CheckRecord]] = {}
        for r in records:
            groups.setdefault(r.check, []).append(r)
        rows = [("CHECK", "POINTS", "PASS", "FAIL", "ERRORS", "MAX RESIDUAL")]
        for check in sorted(groups):
            rs = groups[check]
            n_err = sum(1 for r in rs if r.error is not None)
            n_pass = sum(1 for r in rs if r.passed)
            residuals = [r.residual for r in rs if r.residual is not None]
            worst = f"{max(residuals):.6e}" if residuals else "n/a"
            rows.append((check, str(len(rs)), str(n_pass),
                         str(len(rs) - n_pass), str(n_err), worst))
        widths = [max(len(row[c]) for row in rows) for c in range(6)]
        out = []
        for row in rows:
            out.append("  ".join(cell.ljust(widths[c])
                                 for c, cell in enumerate(row)).rstrip())
        total = len(records)
        passed = sum(1 for r in records if r.passed)
        out.append("")
        out.append(f"{passed}/{total} records passed")
        return ("\n".join(out) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
