"""The record the check runner makes for each facet at each sample point."""

from __future__ import annotations

from dataclasses import dataclass


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
