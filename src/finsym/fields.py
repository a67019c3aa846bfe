"""Closed-form scalar/vector/chart field specs and their tiny expression DSL.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' signed-number)?
    base   := number | identifier | '(' expr ')' | 'sqrt(' expr ')'

Identifiers are the declared variable names (conventionally ``x1..xn`` and
``y1..yn``).  Exponents are numeric literals, never sub-expressions.  The
leading ``-`` on a factor is accepted as sugar on top of the binary grammar.
Parentheses, ``sqrt(`` and unary minus may nest at most ``_MAX_NESTING``
levels deep.

The parser emits a flat postfix program of ``(op, arg)`` instructions:
``("num", value)``, ``("var", index)``, ``("neg", None)``,
``("sqrt", None)``, ``("^", exponent)`` and the binary ``("+", None)``,
``("-", None)``, ``("*", None)``, ``("/", None)``, each after both of its
operands.  One loop over a value stack runs a program on jets or columns
of floats, one column per row of a ``(P, num_vars)`` stack of points, left
operand first, so the length of an expression costs no stack depth.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    ParseError,
    SingularChartError,
    UnknownVariableError,
    ZeroVectorError,
)
from .jets import Jet

# -- parsing --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

# nesting levels of parentheses, sqrt( and unary minus; the parser recurses
# once per level
_MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent that appends each instruction once its operands
    are in the program, which is postfix order."""

    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(variables)}
        self.program: list[tuple] = []
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", at)
        return self.advance()

    def parse(self) -> tuple:
        self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", at)
        return tuple(self.program)

    def expr(self) -> None:
        self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                self.term()
                self.program.append((text, None))
            else:
                return

    def term(self) -> None:
        self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                self.factor()
                self.program.append((text, None))
            else:
                return

    def factor(self) -> None:
        kind, text, at = self.peek()
        if self.depth > _MAX_NESTING:
            raise ParseError(
                f"expression nested more than {_MAX_NESTING} levels deep", at)
        self.depth += 1
        if kind == "op" and text == "-":
            self.advance()
            self.factor()
            self.program.append(("neg", None))
        else:
            self.base()
            kind, text, _ = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                self.program.append(("^", self.signed_number()))
        self.depth -= 1

    def signed_number(self) -> float:
        sign = 1.0
        kind, text, at = self.peek()
        if kind == "op" and text in "+-":
            self.advance()
            sign = -1.0 if text == "-" else 1.0
            kind, text, at = self.peek()
        if kind != "num":
            raise ParseError("exponent must be a numeric literal", at)
        self.advance()
        return sign * float(text)

    def base(self) -> None:
        kind, text, at = self.advance()
        if kind == "num":
            self.program.append(("num", float(text)))
        elif kind == "name" and text == "sqrt":
            self.expect_op("(")
            self.expr()
            self.expect_op(")")
            self.program.append(("sqrt", None))
        elif kind == "name":
            if text not in self.var_index:
                raise UnknownVariableError(f"unknown variable {text!r}", at)
            self.program.append(("var", self.var_index[text]))
        elif kind == "op" and text == "(":
            self.expr()
            self.expect_op(")")
        else:
            raise ParseError(f"expected a value, found {text or 'end of input'!r}", at)


# -- evaluation ---------------------------------------------------------------


def _pow_value(v, p: float):
    if isinstance(v, Jet):
        return v ** p
    if isinstance(v, np.ndarray):
        # per entry on Python floats, which np.power need not match: an
        # integer power in one pass, and entry by entry where that fails,
        # so the first failing entry's error is raised
        try:
            if p == float(int(p)):
                q = int(p)
                return np.array([e ** q for e in v.tolist()])
        except (OverflowError, ZeroDivisionError):
            pass
        return np.array([_pow_value(e, p) for e in v.tolist()])
    v = float(v)
    try:
        if p == float(int(p)):
            if v == 0.0 and p < 0:
                raise DomainError("zero raised to a negative power")
            return v ** int(p)
        if v <= 0.0:
            raise DomainError(f"fractional power {p} of non-positive value {v}")
        return v ** p
    except OverflowError:
        raise DomainError(f"power {p:g} of {v:.6g} overflows") from None


def _sqrt_value(v):
    if isinstance(v, Jet):
        return v.sqrt()
    if isinstance(v, np.ndarray):
        if (v < 0.0).any():
            raise DomainError(f"sqrt of negative value {v[v < 0.0][0]}")
        return np.sqrt(v)  # correctly rounded, as math.sqrt is
    v = float(v)
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


def _is_zero(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool((v == 0.0).any())
    return not isinstance(v, Jet) and float(v) == 0.0


def _run(program: tuple, env: Sequence):
    """Run a postfix program; env entries are arrays or jets with one entry
    or column per point.  Constant subexpressions run on floats."""
    stack = []
    for op, arg in program:
        if op == "var":
            stack.append(env[arg])
        elif op == "num":
            stack.append(arg)
        elif op == "^":
            stack[-1] = _pow_value(stack[-1], arg)
        elif op == "sqrt":
            stack[-1] = _sqrt_value(stack[-1])
        elif op == "neg":
            stack[-1] = -stack[-1]
        else:
            right = stack.pop()
            left = stack[-1]
            if op == "*":
                stack[-1] = left * right
            elif op == "+":
                stack[-1] = left + right
            elif op == "-":
                stack[-1] = left - right
            else:
                if _is_zero(right):
                    raise DomainError("division by zero")
                stack[-1] = left / right
    return stack[-1]


# -- field specs ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFieldSpec:
    """A scalar field given by a postfix program over named variables."""

    variables: tuple[str, ...]
    program: tuple

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "ScalarFieldSpec":
        return cls(tuple(variables), _Parser(text, variables).parse())

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def evaluate(self, point: Sequence[float]):
        """The values at each row of a ``(P, num_vars)`` stack of points.
        One point is run as a stack of one row; its value is a float."""
        point = np.asarray(point, dtype=float)
        points = point.reshape(-1, self.num_vars)
        with np.errstate(all="ignore"):  # non-finite values raise below
            out = _run(self.program, list(points.T.copy()))
        out = np.broadcast_to(out, points.shape[:1])
        finite = np.isfinite(out)
        if not finite.all():  # named by the first failing row
            raise DomainError("non-finite field value at "
                              f"{points[np.argmin(finite)].tolist()}")
        return out if points.shape == point.shape else float(out[0])

    __call__ = evaluate

    def eval_jet(self, point: Sequence[float], order: int) -> Jet:
        """The order-``order`` jet with one column per row of a
        ``(P, num_vars)`` stack of points; one point is a stack of one
        row."""
        num_vars = len(self.variables)
        x = np.asarray(point, dtype=float).reshape(-1, num_vars)
        env = [Jet.variable(i, x.T[i], num_vars, order)
               for i in range(num_vars)]
        with np.errstate(all="ignore"):  # non-finite data raises below
            out = _run(self.program, env)
            if isinstance(out, Jet) and (out.is_marked()
                                         or not out.is_finite()):
                # the products skipped terms that may not be zero: run again
                # on full supports, which skip none
                out = _run(self.program, [Jet(num_vars, order, v.c)
                                          for v in env])
        if not isinstance(out, Jet):
            out = Jet.constant(np.full(len(x), float(out)), num_vars, order)
        if not out.is_finite():  # named by the first non-finite column
            x = x[np.argmin(np.isfinite(out.c).all(axis=0))]
            raise DomainError(f"non-finite field data at {x.tolist()}")
        return out


@dataclass(frozen=True)
class DomainBox:
    """Per-coordinate closed intervals with optional excluded open balls."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    excluded: tuple[tuple[tuple[float, ...], float], ...] = ()

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower/upper lengths differ")
        if any(lo >= hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("domain box has empty interior")

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def contains(self, point: Sequence[float]) -> bool:
        x = np.asarray(point, dtype=float)
        return x.shape == (self.dimension,) and bool(self.contains_rows(
            x[None])[0])

    def contains_rows(self, xs: np.ndarray) -> np.ndarray:
        """Whether each row of a (P, n) stack is in the domain: finite, in
        the box, and outside every excluded ball."""
        inside = (np.isfinite(xs) & (xs >= self.lower)
                  & (xs <= self.upper)).all(axis=1)
        for center, radius in self.excluded:
            # math.hypot scales its arguments, so a far centre cannot
            # overflow; a difference that does is inf, as on Python floats
            with np.errstate(over="ignore"):
                offsets = (xs - center).tolist()
            inside &= ~(np.array([math.hypot(*d) for d in offsets]) < radius)
        return inside

    def require(self, point: Sequence[float], what: str = "point") -> None:
        if not self.contains(point):
            raise DomainError(
                f"{what} {np.asarray(point, float).tolist()} outside domain")


@dataclass(frozen=True)
class VectorFieldSpec:
    """Component fields W^p(x) with a nowhere-zero floor ``w_min``."""

    components: tuple[ScalarFieldSpec, ...]
    w_min: float = 1e-6

    @property
    def dimension(self) -> int:
        return len(self.components)

    def values(self, xs) -> np.ndarray:
        """The ``(P, n)`` stack of W at each row of a ``(P, n)`` stack of
        points, each row held to the floor."""
        xs = np.asarray(xs, dtype=float)
        w = np.stack([c.evaluate(xs) for c in self.components], axis=1)
        for x, row in zip(xs, w.tolist()):
            norm = math.hypot(*row)  # scaled, so a large W cannot overflow
            if norm < self.w_min:
                raise ZeroVectorError(
                    f"vector field norm {norm:.3e} below floor "
                    f"{self.w_min} at {x.tolist()}")
        return w

    def jacobian(self, xs) -> np.ndarray:
        """dW[P, p, j] = d W^p / d x^j at each row of a ``(P, n)`` stack."""
        return np.stack([c.eval_jet(xs, 1).derivatives(1)
                         for c in self.components], axis=1)


@dataclass(frozen=True)
class ChartMap:
    """A coordinate change with user-supplied forward and inverse components.

    Both component tuples are expressions in variables named ``x1..xm``; in
    the inverse components those names refer to the *hatted* coordinates.
    """

    forward: tuple[ScalarFieldSpec, ...]
    inverse: tuple[ScalarFieldSpec, ...]
    forward_domain: DomainBox | None = None
    inverse_domain: DomainBox | None = None

    @property
    def dimension(self) -> int:
        return len(self.forward)

    def swapped(self) -> "ChartMap":
        return ChartMap(self.inverse, self.forward,
                        self.inverse_domain, self.forward_domain)


class ChartJacobians(NamedTuple):
    """Derivative data of a chart map at a stack of points x, each field
    with a row per point:

    fwd[p, i]     = d xhat^p / d x^i            (at x)
    inv[j, q]     = d x^j / d xhat^q            (at xhat(x))
    inv2[i, q, r] = d^2 x^i / d xhat^q d xhat^r (at xhat(x))
    """

    x: np.ndarray
    xhat: np.ndarray
    fwd: np.ndarray
    inv: np.ndarray
    inv2: np.ndarray


_CHAIN_TOL = 1e-8


def _require_rows(box: DomainBox | None, xs: np.ndarray, what: str) -> None:
    """The box's DomainError for the first row of a stack outside it."""
    if box is not None:
        inside = box.contains_rows(xs)
        if not inside.all():
            box.require(xs[np.argmin(inside)], what)


def chart_jacobians(chart: ChartMap, xs) -> ChartJacobians:
    """First/second derivative arrays of a chart at each row of a ``(P, m)``
    stack of points; SingularChartError unless the inverse undoes the
    forward map at every row (Jacobians inverse within ``_CHAIN_TOL``,
    value back at x within ``_CHAIN_TOL * max(1, max|x|)``).  Each check
    runs over the stack and raises for its first failing row; the chain
    defect and the round-trip miss are one check, in that order."""
    m = chart.dimension
    xs = np.asarray(xs, dtype=float)
    _require_rows(chart.forward_domain, xs, "chart point")

    fwd_jets = [c.eval_jet(xs, 1) for c in chart.forward]
    xhat = np.stack([j.value for j in fwd_jets], axis=1)
    fwd = np.stack([j.derivatives(1) for j in fwd_jets], axis=1)
    with np.errstate(over="ignore"):  # an overflowing det is ±inf
        det = np.linalg.det(fwd)
    singular = np.abs(det) < 1e-8
    if singular.any():
        p = int(np.argmax(singular))
        raise SingularChartError(f"chart Jacobian determinant {det[p]:.3e} "
                                 f"below 1e-8 at {xs[p].tolist()}")

    _require_rows(chart.inverse_domain, xhat, "mapped chart point")
    inv_jets = [c.eval_jet(xhat, 2) for c in chart.inverse]
    inv = np.stack([j.derivatives(1) for j in inv_jets], axis=1)
    inv2 = np.stack([j.derivatives(2) for j in inv_jets], axis=1)
    back = np.stack([j.value for j in inv_jets], axis=1)

    defect = np.abs(fwd @ inv - np.eye(m)).max(axis=(1, 2))
    miss = np.abs(back - xs).max(axis=1)
    bound = np.array([_CHAIN_TOL * max(1.0, v)
                      for v in np.abs(xs).max(axis=1).tolist()])
    bad = (defect > _CHAIN_TOL) | (miss > bound)
    if bad.any():
        p = int(np.argmax(bad))
        if defect[p] > _CHAIN_TOL:
            raise SingularChartError(
                f"inverse map inconsistent with forward map (chain defect "
                f"{defect[p]:.3e} > {_CHAIN_TOL:g}) at {xs[p].tolist()}")
        raise SingularChartError(
            f"inverse map does not return to the point (round-trip miss "
            f"{miss[p]:.3e} > {bound[p]:.3g}) at {xs[p].tolist()}")
    return ChartJacobians(xs, xhat, fwd, inv, inv2)
