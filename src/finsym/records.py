"""The records the check runner makes: a facet table per facet and block,
joined into the columns of one :class:`Records` over the run's sample
points, read as one :class:`CheckRecord` per row, each made when it is
read."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np


@dataclass
class CheckRecord:
    """One residual evaluation at one sample point.

    ``passed`` must equal ``residual <= tolerance`` whenever the evaluation
    succeeded; an evaluation that raised, or gave a non-finite residual or
    tolerance, carries ``"Type: message"`` in ``error``, ``residual`` None,
    and ``passed`` False.  A ``point`` given as a tuple is kept as it is, so
    the records of one sample point can share one tuple of floats; any
    other sequence is converted.
    """

    check: str
    point: tuple[float, ...]
    residual: float | None
    tolerance: float
    passed: bool
    error: str | None = None

    @classmethod
    def evaluated(cls, check: str, point, residual: float,
                  tolerance: float) -> "CheckRecord":
        residual, tolerance = float(residual), float(tolerance)
        return cls(check, _point(point), residual, tolerance,
                   residual <= tolerance)

    @classmethod
    def failed(cls, check: str, point, message: str,
               tolerance: float) -> "CheckRecord":
        return cls(check=check, point=_point(point), residual=None,
                   tolerance=float(tolerance), passed=False, error=message)


def _point(point) -> tuple[float, ...]:
    return point if isinstance(point, tuple) else tuple(map(float, point))


class Points(NamedTuple):
    """The sample points of a run, as flat float64 coordinates.

    Base point ``i`` is ``x[x_ends[i]:x_ends[i + 1]]``.  Pair ``p`` is its
    base point ``pair_x[p]`` followed by its fiber vector
    ``y[y_ends[p]:y_ends[p + 1]]``.
    """

    x: np.ndarray
    x_ends: np.ndarray
    y: np.ndarray
    y_ends: np.ndarray
    pair_x: np.ndarray

    @classmethod
    def of_plan(cls, xs: np.ndarray, ys: np.ndarray) -> "Points":
        """A plan's base points ``xs[i]`` and pairs ``(xs[i], ys[i, k])``,
        pair ``i * ys.shape[1] + k``."""
        m, per_x, n = ys.shape
        return cls(xs.ravel(), np.arange(m + 1) * n, ys.ravel(),
                   np.arange(m * per_x + 1) * n,
                   np.repeat(np.arange(m), per_x))

    def tuples(self) -> list[tuple]:
        """Each base point's coordinates as one tuple, then each pair's."""
        x, ends = self.x.tolist(), self.x_ends.tolist()
        base = [tuple(x[a:b]) for a, b in zip(ends, ends[1:])]
        y, ends = self.y.tolist(), self.y_ends.tolist()
        return base + [base[i] + tuple(y[a:b]) for i, a, b in zip(
            self.pair_x.tolist(), ends, ends[1:])]


class FacetTable(NamedTuple):
    """The records of one record id over some sample points, a row each,
    in report order.

    A row is at base point ``rows[k]``, or at pair ``rows[k]`` where
    ``fiber``.  ``errors`` maps a row's position ``k`` to its
    ``"Type: message"``; such a row holds a NaN ``residual``, its unscaled
    tolerance as ``bound`` and a False ``passed``.  Every other row holds
    its residual, its tolerance and ``residual <= bound``.
    """

    check: str
    fiber: bool
    rows: np.ndarray
    residual: np.ndarray
    bound: np.ndarray
    passed: np.ndarray
    errors: dict


class Records(Sequence):
    """A run's records as columns, a row per record in report order, read
    as a read-only sequence of :class:`CheckRecord`.

    Record ``k`` is of record id ``names[check[k]]``, at ``point[k]``, a
    base point ``i`` of ``points`` or its pair ``p`` as ``len(base points)
    + p``; ``residual``, ``bound``, ``passed`` and ``errors`` are as in a
    :class:`FacetTable`.  A record is made when it is read, and the
    records of one sample point share one point tuple.
    """

    def __init__(self, points: Points, names: list, check: np.ndarray,
                 point: np.ndarray, residual: np.ndarray, bound: np.ndarray,
                 passed: np.ndarray, errors: dict):
        self.points, self.names, self.check, self.point = (points, names,
                                                           check, point)
        self.residual, self.bound, self.passed, self.errors = (
            residual, bound, passed, errors)

    @classmethod
    def of_tables(cls, points: Points, tables: list[FacetTable]) -> "Records":
        """The rows of facet tables over ``points``, joined in order."""
        names: dict[str, int] = {}
        errors, size = {}, 0
        for t in tables:
            names.setdefault(t.check, len(names))
            errors.update((size + k, text) for k, text in t.errors.items())
            size += len(t.rows)
        base = len(points.x_ends) - 1

        def joined(arrays, dtype):
            return np.concatenate([np.zeros(0, dtype), *arrays])
        return cls(points, list(names),
                   np.repeat([names[t.check] for t in tables],
                             [len(t.rows) for t in tables]).astype(int),
                   joined((t.rows + base * t.fiber for t in tables), int),
                   joined((t.residual for t in tables), float),
                   joined((t.bound for t in tables), float),
                   joined((t.passed for t in tables), bool), errors)

    @classmethod
    def of(cls, records: list[CheckRecord]) -> "Records":
        """The columns of a list of records, in its order, a base point
        per distinct point object.  A record must hold an error exactly
        where its residual is None."""
        names: dict[str, int] = {}
        index: dict[int, int] = {}
        coords, ends = [], [0]
        for r in records:
            if (r.residual is None) == (r.error is None):
                raise ValueError("a record holds an error exactly where its "
                                 "residual is None")
            names.setdefault(r.check, len(names))
            if id(r.point) not in index:
                index[id(r.point)] = len(ends) - 1
                coords.extend(r.point)
                ends.append(len(coords))
        none = np.zeros(0, dtype=int)
        return cls(Points(np.array(coords, dtype=float), np.array(ends),
                          np.zeros(0), np.zeros(1, dtype=int), none),
                   list(names),
                   np.array([names[r.check] for r in records], dtype=int),
                   np.array([index[id(r.point)] for r in records], dtype=int),
                   np.array([np.nan if r.residual is None else r.residual
                             for r in records], dtype=float),
                   np.array([r.tolerance for r in records], dtype=float),
                   np.array([r.passed for r in records], dtype=bool),
                   {k: r.error for k, r in enumerate(records)
                    if r.error is not None})

    def all_passed(self) -> bool:
        return bool(self.passed.all())

    @cached_property
    def _tuples(self) -> list[tuple]:
        return self.points.tuples()

    def _made(self, start: int, stop: int):
        names, points, errors = self.names, self._tuples, self.errors
        evaluated, failed = CheckRecord.evaluated, CheckRecord.failed
        for k, c, p, r, b in zip(range(start, stop),
                                 self.check[start:stop].tolist(),
                                 self.point[start:stop].tolist(),
                                 self.residual[start:stop].tolist(),
                                 self.bound[start:stop].tolist()):
            text = errors.get(k)
            yield (evaluated(names[c], points[p], r, b) if text is None
                   else failed(names[c], points[p], text, b))

    def __len__(self) -> int:
        return len(self.check)

    def __iter__(self):
        return self._made(0, len(self))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        if not -len(self) <= i < len(self):
            raise IndexError("record index out of range")
        i %= len(self)
        return next(self._made(i, i + 1))
