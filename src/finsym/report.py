"""Report serialization, written from the columns of a run's records
(:class:`~finsym.records.Records`); a list of check records is first
turned into the same columns, so one writer serves both."""

from __future__ import annotations

import json

import numpy as np

from .records import Records

# one encoder for every check name and error text; building one per call
# costs more than encoding a string
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)
# the end of a line without an error, by its pass flag
_TAILS = np.array([',"pass":false,"error":null}\n',
                   ',"pass":true,"error":null}\n'], dtype=object)
_CHUNK = 256  # lines encoded to UTF-8 at a time


def _require_finite(records: Records, fiber: bool) -> None:
    """Raise ValueError, as the strict encoder does, where a float the
    report writes is not finite: a coordinate, a bound, or the residual of
    a record without an error."""
    points = records.points
    written = np.isfinite(records.residual)
    written[list(records.errors)] = True
    if not (written.all() and np.isfinite(records.bound).all()
            and np.isfinite(points.x).all()
            and (not fiber or np.isfinite(points.y).all())):
        raise ValueError("Out of range float values are not JSON compliant")


def _float_texts(columns: list[np.ndarray]) -> list[np.ndarray]:
    """Each column's floats as their ``float.__repr__`` texts, an object
    array each.  Each distinct bit pattern over all columns is written
    once, so -0.0 and 0.0 keep their own texts."""
    values = np.concatenate(columns).astype(float, copy=False)
    unique, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    texts = np.array(list(map(float.__repr__,
                              unique.view(np.float64).tolist())),
                     dtype=object)[inverse]
    return np.split(texts, np.cumsum([len(c) for c in columns])[:-1])


def _json_lines(records: Records) -> list[bytes]:
    """The records' strict json lines, LF-terminated, in UTF-8, in chunks.

    A float is written as the strict encoder writes it, its repr, made
    once per distinct value (:func:`_float_texts`).  Each base point's
    coordinates are joined once, a pair's text is its base point's text
    and its fiber vector's, and each check name and error text is encoded
    once.  Lines are encoded a chunk at a time, so no report-sized str is
    built beside the bytes.
    """
    points = records.points
    base = len(points.x_ends) - 1
    fiber = bool(records.point.max() >= base)  # records are not empty
    _require_finite(records, fiber)
    x, y, residual, bound = _float_texts(
        [points.x, points.y if fiber else points.y[:0], records.residual,
         records.bound])
    x, ends = x.tolist(), points.x_ends.tolist()
    texts = [",".join(x[a:b]) for a, b in zip(ends, ends[1:])]
    if fiber:
        y, ends = y.tolist(), points.y_ends.tolist()
        texts += [f"{texts[i]},{','.join(y[a:b])}" for i, a, b in zip(
            points.pair_x.tolist(), ends, ends[1:])]
    at = np.array(texts, dtype=object)[records.point]
    heads = np.array([f'{{"check":{_ENCODER.encode(name)},"point":['
                      for name in records.names], dtype=object)[records.check]
    tails = _TAILS[records.passed.astype(np.intp)]
    encoded: dict[str, str] = {}
    for k, text in records.errors.items():
        error = encoded.get(text)
        if error is None:
            error = encoded[text] = _ENCODER.encode(text)
        residual[k] = "null"
        tails[k] = (f',"pass":{"true" if records.passed[k] else "false"},'
                    f'"error":{error}}}\n')
    chunks = []
    for start in range(0, len(at), _CHUNK):
        part = slice(start, start + _CHUNK)
        chunks.append("".join([
            f'{h}{p}],"residual":{r},"tolerance":{b}{e}'
            for h, p, r, b, e in zip(heads[part].tolist(), at[part].tolist(),
                                     residual[part].tolist(),
                                     bound[part].tolist(),
                                     tails[part].tolist())]).encode("utf-8"))
    return chunks


def _table(records: Records) -> bytes:
    """A row per record id: its records, passes, fails, errors and the
    largest residual, as Python's ``max`` picks it in record order."""
    failed = np.zeros(len(records), dtype=bool)
    failed[list(records.errors)] = True
    rows = [("CHECK", "POINTS", "PASS", "FAIL", "ERRORS", "MAX RESIDUAL")]
    for name, c in sorted((name, c) for c, name in enumerate(records.names)):
        of = records.check == c
        size, n_pass = int(of.sum()), int(records.passed[of].sum())
        residuals = records.residual[of & ~failed].tolist()
        worst = f"{max(residuals):.6e}" if residuals else "n/a"
        rows.append((name, str(size), str(n_pass), str(size - n_pass),
                     str(int((of & failed).sum())), worst))
    widths = [max(len(row[c]) for row in rows) for c in range(6)]
    out = ["  ".join(cell.ljust(widths[c])
                     for c, cell in enumerate(row)).rstrip()
           for row in rows]
    out += ["", f"{int(records.passed.sum())}/{len(records)} records passed"]
    return ("\n".join(out) + "\n").encode("utf-8")


def emit_report(records, fmt: str = "json") -> bytes:
    """Serialize records as json-lines or an aligned table (UTF-8, LF).

    ``records`` is what :func:`~finsym.checks.run_scenario` returns, or a
    list of :class:`~finsym.records.CheckRecord`, which is first turned
    into the same columns (:meth:`Records.of`).  Output is byte-identical
    across runs with the same config and seed; wall-clock timings are
    therefore kept off the report.  json-lines output is strict JSON: a
    non-finite number raises ValueError, and each line is byte for byte
    the record's own ``json.dumps``.
    """
    if not isinstance(records, Records):
        records = Records.of(list(records))
    if not len(records):
        raise ValueError("no records to emit")
    if fmt == "json":
        return b"".join(_json_lines(records))
    if fmt == "table":
        return _table(records)
    raise ValueError(f"unknown format {fmt!r}")
