"""Exception types shared across the package, the per-row replay, and the
row operations on stacks: arrays with a leading row axis, or tuples."""

from typing import Callable

import numpy as np


class FinsymError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FinsymError):
    """Evaluation requested outside a declared domain or at a singular point."""


class OrderError(FinsymError):
    """Requested derivative order exceeds what a jet can represent."""


class ParseError(FinsymError):
    """Malformed expression text.

    Carries ``position``, the 0-based offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    """Expression references an identifier that was not declared."""


class ZeroVectorError(FinsymError):
    """A vector field dropped below its nowhere-zero floor."""


class SingularChartError(FinsymError):
    """Chart map has a (numerically) singular or inconsistent Jacobian."""


class NonPositiveError(FinsymError):
    """A metric function came out non-positive on the slit domain."""


class NotPositiveDefiniteError(FinsymError):
    """The fundamental tensor failed the positive-definiteness test."""


class OddDimensionError(FinsymError):
    """An even-dimensional chart was required."""


class DimensionMismatchError(FinsymError):
    """Two objects that must share a dimension do not."""


class NotRandersError(FinsymError):
    """Operation requires a Randers-family metric."""


class NotMinkowskianError(FinsymError):
    """Metric is not locally Minkowskian in the given coordinates."""


class ConfigError(FinsymError):
    """Scenario configuration rejected.

    ``json_path`` points at the offending field, JSON-pointer style
    (e.g. ``/metric/family``).
    """

    def __init__(self, message: str, json_path: str = ""):
        super().__init__(f"{json_path or '/'}: {message}")
        self.json_path = json_path


def take_rows(stack, rows):
    """Rows of a stack, an index array or a slice: of an array, or field by
    field of a tuple or named tuple of stacks."""
    if isinstance(stack, np.ndarray):
        return stack[rows]
    return getattr(stack, "_make", tuple)(take_rows(f, rows) for f in stack)


def concat_rows(stacks: list):
    """The rows of several stacks of one kind, in order, as one stack."""
    if isinstance(stacks[0], np.ndarray):
        return np.concatenate(stacks)
    return getattr(stacks[0], "_make", tuple)(
        concat_rows(list(fields)) for fields in zip(*stacks))


def each_row(fn: Callable, *stacks) -> tuple[np.ndarray, object, dict]:
    """``fn(*stacks)`` as ``(rows, values, errors)``: the rows that hold a
    value, ascending, the stack of their values, and ``{row: FinsymError}``
    for the others.  Where fn raises a FinsymError on several rows, each
    row is run again alone, so every row holds what its one-row stack
    gives, errors without frames, whatever the other rows hold."""
    try:
        return np.arange(len(stacks[0])), fn(*stacks), {}
    except FinsymError as exc:
        error = exc.with_traceback(None)  # it may be raised again
    if len(stacks[0]) == 1:
        return np.arange(0), None, {0: error}
    found = [each_row(fn, *(take_rows(s, slice(p, p + 1)) for s in stacks))
             for p in range(len(stacks[0]))]
    rows = [p for p, (ok, _, _) in enumerate(found) if len(ok)]
    return (np.array(rows, dtype=int),
            concat_rows([found[p][1] for p in rows]) if rows else None,
            {p: e[0] for p, (_, _, e) in enumerate(found) if e})
