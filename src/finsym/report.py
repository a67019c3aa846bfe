"""Report serialization for check records."""

from __future__ import annotations

import json
import math

from .records import CheckRecord

# one encoder for every json-lines record; building one per call costs more
# than encoding a record
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def _json_lines(records: list[CheckRecord]) -> list[bytes]:
    """Each record's strict json line, LF-terminated, in UTF-8.

    A check name, point tuple or error text repeats across records: each
    is encoded once per call, a point keyed by the id of the tuple the
    records share (they hold it, so no id is reused while this runs).  A
    float is written as the encoder writes it, its repr.  Each line is
    encoded as it is made, so the report is one join of bytes: no
    report-sized str is built beside it, which more than pays for the
    point cache in peak memory.
    """
    names: dict[str, str] = {}
    points: dict[int, str] = {}
    errors: dict[str | None, str] = {}
    number = float.__repr__
    lines = []
    for r in records:
        name = names.get(r.check)
        if name is None:
            name = names[r.check] = _ENCODER.encode(r.check)
        point = points.get(id(r.point))
        if point is None:
            point = points[id(r.point)] = _ENCODER.encode(list(r.point))
        error = errors.get(r.error)
        if error is None:
            error = errors[r.error] = _ENCODER.encode(r.error)
        residual, tolerance = r.residual, r.tolerance
        if not (math.isfinite(tolerance)
                and (residual is None or math.isfinite(residual))):
            raise ValueError(
                "Out of range float values are not JSON compliant")
        residual = "null" if residual is None else number(residual)
        lines.append(f'{{"check":{name},"point":{point},'
                     f'"residual":{residual},'
                     f'"tolerance":{number(tolerance)},'
                     f'"pass":{"true" if r.passed else "false"},'
                     f'"error":{error}}}\n'.encode("utf-8"))
    return lines


def emit_report(records: list[CheckRecord], fmt: str = "json") -> bytes:
    """Serialize records as json-lines or an aligned table (UTF-8, LF).

    Output is byte-identical across runs with the same config and seed;
    wall-clock timings are therefore kept off the report.  json-lines
    output is strict JSON: a non-finite number raises ValueError.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "json":
        return b"".join(_json_lines(records))
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
        out = ["  ".join(cell.ljust(widths[c])
                         for c, cell in enumerate(row)).rstrip()
               for row in rows]
        passed = sum(1 for r in records if r.passed)
        out += ["", f"{passed}/{len(records)} records passed"]
        return ("\n".join(out) + "\n").encode("utf-8")
    raise ValueError(f"unknown format {fmt!r}")
