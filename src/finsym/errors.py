"""Exception types shared across the package, and the per-row replay."""

from typing import Callable, Iterator


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


def each_row(fn: Callable, *stacks) -> Iterator:
    """The entries of ``fn(*stacks)``, one per row of the equal-length
    stacks.  Where fn raises a FinsymError on a stack of several rows, each
    row is run again as a one-row stack, in order and as the entries are
    read, so every entry is its own row's value or the FinsymError its
    one-row stack raises, without frames, whatever the other rows hold."""
    try:
        found = fn(*stacks)
    except FinsymError as exc:
        found = exc.with_traceback(None)
    if not isinstance(found, FinsymError):
        yield from found
    elif len(stacks[0]) == 1:
        yield found
    else:
        for p in range(len(stacks[0])):
            yield from each_row(fn, *(s[p:p + 1] for s in stacks))
