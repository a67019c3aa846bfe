"""The record the check runner makes for each facet at each sample point."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CheckRecord:
    """One residual evaluation at one sample point.

    ``passed`` must equal ``residual <= tolerance`` whenever the evaluation
    succeeded; an evaluation that raised, or gave a non-finite residual or
    tolerance, carries ``"Type: message"`` in ``error``, ``residual`` None,
    and ``passed`` False.
    """

    check: str
    point: tuple[float, ...]
    residual: float | None
    tolerance: float
    passed: bool
    elapsed: float = 0.0
    error: str | None = None

    @classmethod
    def evaluated(cls, check: str, point, residual: float, tolerance: float,
                  elapsed: float = 0.0) -> "CheckRecord":
        residual = float(residual)
        return cls(check=check, point=tuple(float(v) for v in point),
                   residual=residual, tolerance=float(tolerance),
                   passed=bool(residual <= tolerance), elapsed=elapsed)

    @classmethod
    def failed(cls, check: str, point, message: str, tolerance: float,
               elapsed: float = 0.0) -> "CheckRecord":
        return cls(check=check, point=tuple(float(v) for v in point),
                   residual=None, tolerance=float(tolerance), passed=False,
                   elapsed=elapsed, error=message)
