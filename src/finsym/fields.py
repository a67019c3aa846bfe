"""Closed-form scalar/vector/chart field specs and their tiny expression DSL.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' signed-number)?
    base   := number | identifier | '(' expr ')' | 'sqrt(' expr ')'

Identifiers are the declared variable names (conventionally ``x1..xn`` and
``y1..yn``).  Exponents are numeric literals, never sub-expressions, of
magnitude at most ``_MAX_EXPONENT``.  The leading ``-`` on a factor is
accepted as sugar on top of the binary grammar.  Parentheses, ``sqrt(``
and unary minus may nest at most ``_MAX_NESTING`` levels deep.

The parser emits a flat postfix program of ``(op, arg)`` instructions:
``("num", value)``, ``("var", index)``, ``("neg", None)``,
``("sqrt", None)``, ``("^", exponent)`` and the binary ``("+", None)``,
``("-", None)``, ``("*", None)``, ``("/", None)``, each after both of its
operands.  One loop over a value stack (``_run``) runs a program on
columns of floats, one per row of a ``(P, num_vars)`` stack of points,
left operand first, so the length of an expression costs no stack depth;
on the full-table jets of the tests (``tests/test_jets.py``, ``Jet`` with
operators) it is the reference the tapes are held to.  It alone
dispatches on the instructions and folds the constant subexpressions, on
floats.

``eval_jet`` runs a tape instead.  Each ``(program, num_vars, order,
x_vars)`` is compiled once (a bounded cache) by running ``_run`` on
recording jets (``_TapeJet``, taping by operator overloading, Griewank &
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 6), whose
operators append the steps of the reference operators of the same names
to straight-line code over numbered slots.  Compiling resolves all that
depends on the program alone: every jet's support and each product's
restricted table (the support rules, and why they change no coefficient,
are stated at ``_TapeJet``), constant subexpressions (one that raises
ends the tape with a step that raises the same error at its place in the
order), integer powers as products and each composition's table.  A
product reads a variable from a bank of the variables' values, a row of
1.0 and a row of +0.0, the floats of its coefficients, so a variable
takes a slot only where a scalar, a sum or a composition meets it.  Each
call allocates one working block for the slots, reused by stack liveness,
the bank and one product scratch, into which a product gathers both its
factors, and frees it on return; only the result, in an array of its own,
outlives the call.
The steps run the reference operators' float operations in the same order
through the same kernels (``jets._multiply_into``, ``jets._compose_into``
and ``jets._taylor``), so every coefficient, every error and the first
failing column equal a run of ``_run`` on jets, bit for bit.

A field spec with ``x_vars`` (the energy, ``finsler.MetricSpec``)
compiles its tapes of orders 3 and 4 on a truncated table
(``jets._JetTable``), which keeps the monomials of degree at most
``order - 2`` in its first ``x_vars`` variables: 22 of 35 rows at n = 2
and order 3, 360 of 495 at n = 4 and order 4.  The kept set is closed
under taking divisors, so each kept coefficient is the full run's, bit
for bit.  A column is an error only where a kept coefficient is
non-finite: one that overflows only in a dropped coefficient, such as an
x-degree-3 coefficient of ``(y1/x1)^2`` at x1 = 1e-70, is no longer one.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    FinsymError,
    ParseError,
    SingularChartError,
    UnknownVariableError,
    ZeroVectorError,
)
from .jets import (
    Jet,
    _compose_into,
    _multiply_into,
    _power_factors,
    _reciprocal_factors,
    _sqrt_factors,
    _table,
    _taylor,
)

DEFAULT_W_MIN = 1e-6

# -- parsing --------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

# nesting levels of parentheses, sqrt( and unary minus; the parser recurses
# once per level
_MAX_NESTING = 100

# largest exponent magnitude; an integer power n costs |n| - 1 jet products
_MAX_EXPONENT = 1000


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
                at = self.peek()[2]
                exponent = self.signed_number()
                if abs(exponent) > _MAX_EXPONENT:
                    raise ParseError(
                        f"exponent magnitude above {_MAX_EXPONENT}", at)
                self.program.append(("^", exponent))
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
    if isinstance(v, np.ndarray):
        # per entry on Python floats, which np.power need not match: an
        # integer power, or a fractional one of positive entries, in one
        # pass, and entry by entry where that fails, so the first failing
        # entry's error is raised
        try:
            if p == float(int(p)):
                q = int(p)
                return np.array([e ** q for e in v.tolist()])
            if (v > 0.0).all():
                return np.array([e ** p for e in v.tolist()])
        except (OverflowError, ZeroDivisionError):
            pass
        return np.array([_pow_value(e, p) for e in v.tolist()])
    if not isinstance(v, float):
        return v ** p
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
    if isinstance(v, np.ndarray):
        if (v < 0.0).any():
            raise DomainError(f"sqrt of negative value {v[v < 0.0][0]}")
        return np.sqrt(v)  # correctly rounded, as math.sqrt is
    if not isinstance(v, float):
        return v.sqrt()
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


def _is_zero(v) -> bool:
    if isinstance(v, np.ndarray):
        return bool((v == 0.0).any())
    return isinstance(v, float) and v == 0.0


def _run(program: tuple, env: Sequence):
    """Run a postfix program; env entries are arrays or jets with one entry
    or column per point, or the recording jets of a tape.  Constant
    subexpressions run on floats."""
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


# -- jet tapes ----------------------------------------------------------------
#
# Each step is a function of the call's arrays (the slots, then the bank of
# the variables' values, a row of 1.0 and a row of +0.0), the product scratch
# and its compiled arguments.  It makes the float operations of the
# reference operator it stands for, in the same order, through the same
# kernels.


def _step_variable(ar, scratch, rows, out):
    np.take(ar[-1], rows, axis=0, out=ar[out], mode="clip")


def _step_constant(ar, scratch, value, out):
    ar[out].fill(0.0)
    ar[out][0] = value


def _step_product(ar, scratch, p, a, b, out):
    _multiply_into(p, ar[a], ar[b], ar[out], scratch)


def _step_compose(ar, scratch, p, order, factors, args, src, out):
    h = ar[src]
    dcoef = _taylor(factors, h[0], order, *args)
    h[0] = 0.0
    _compose_into(p, h, dcoef, ar[out], scratch)


def _step_combine(ar, scratch, ufunc, a, b):
    ufunc(ar[a], ar[b], out=ar[a])


def _step_scale(ar, scratch, ufunc, a, value):
    ufunc(ar[a], value, out=ar[a])


def _step_shift(ar, scratch, ufunc, a, value):
    ufunc(ar[a][0], value, out=ar[a][0])


def _step_negate(ar, scratch, a):
    np.negative(ar[a], out=ar[a])


def _step_fail(ar, scratch, kind, text):
    raise kind(text)  # a new error per call, not a stored one


class _Tape:
    """A program compiled for one ``(num_vars, order)``: straight-line
    steps over numbered slots of ``size`` coefficient rows each, the
    result in slot ``result`` with the variable support ``support``, and
    ``scratch`` rows for the products.  While it is recorded, ``free``
    holds the released slots, reused lowest first."""

    __slots__ = ("table", "size", "steps", "slots", "scratch", "result",
                 "support", "free")

    def __init__(self, table):
        self.table, self.size, self.steps, self.free = (table, table.size,
                                                        [], [])
        self.slots = self.scratch = self.result = self.support = 0

    def new(self) -> int:
        if self.free:
            return heapq.heappop(self.free)
        self.slots += 1
        return self.slots - 1

    def release(self, slot: int) -> None:
        if slot >= 0:
            heapq.heappush(self.free, slot)

    def product(self, sa: int, sb: int, bank_a: bool = False,
                bank_b: bool = False):
        """``_JetTable.product``, with the scratch grown to gather its
        factors."""
        p = self.table.product(sa, sb, bank_a, bank_b)
        self.scratch = max(self.scratch, 2 * len(p.a))
        return p

    def run(self, x: np.ndarray) -> np.ndarray:
        """The coefficients at each row of a ``(P, num_vars)`` stack, in a
        fresh array.  Every other slot, the bank and the scratch share one
        block, allocated here and freed on return."""
        n, size = x.shape[1], self.size
        out = np.empty((size, len(x)))
        block = np.empty((self.scratch + n + 2 + (self.slots - 1) * size,
                          len(x)))
        bank = block[self.scratch:self.scratch + n + 2]
        bank[:n] = x.T
        bank[n] = 1.0
        bank[n + 1] = 0.0
        ar = [block[start:start + size] for start in range(
            self.scratch + n + 2, len(block), size)]
        ar.insert(self.result, out)
        ar.append(bank)
        scratch = block[:self.scratch]
        for step, args in self.steps:
            step(ar, scratch, *args)
        return out


class _TapeJet:
    """A jet while ``_run`` records a program on a tape: its ``slot``, -1
    for a variable read from the bank, and its variable ``support``.  Each
    operator appends the steps of the reference operator of the same name
    (the full-table jets of the tests, see the module docstring) and
    consumes its operands, which ``_run`` reads once each, save the
    variables, whose handles it shares and which are copied, never
    written.

    A support is a bitmask of the variables a jet's coefficients can
    depend on; a coefficient whose multi-index has a variable outside it is
    ±0, or nan where non-finite data met it (below).  A variable has its
    own bit and a constant none; sums, differences and products take the
    union; negation, scalar factors and divisors, compositions and ``^ 0``
    keep it (dependence propagation in forward mode, as in Griewank &
    Walther).  A product reads only
    the entries of its table whose two factors lie inside their operands'
    supports (``_JetTable.product``).  Each skipped term has a ±0 factor,
    so with finite operands it is ±0, and every sum starts at +0.0, where
    adding ±0 changes no partial sum: every coefficient equals the
    full-table product's bit for bit.

    With non-finite data a skipped term can be nan, which the full table
    keeps and the restricted one drops: a non-finite value times a ±0
    outside a support, be it the other factor's value in a product, a
    scalar factor or a composition's Taylor factor.  No jet of a program
    has an empty support (a variable has its bit, constant subexpressions
    run on floats, and ``x ^ 0`` keeps its operand's), so the same value
    also meets a first-order coefficient inside the support, which a
    truncated table keeps too, and the result has a non-finite coefficient
    of degree one or more inside it.  That
    coefficient stays non-finite in every later operation: a scalar or
    Taylor factor multiplies it, a sum adds it, and a product reads it
    against the other factor's value, which lies inside every support.  A
    column is then non-finite under the restricted products exactly where
    it is under the full table, and a finite column met no skipped nan, so
    it is the same bit for bit; ``ScalarFieldSpec.eval_jet`` raises on the
    first non-finite column, so it runs each program once."""

    __slots__ = ("tape", "slot", "support")

    def __init__(self, tape: _Tape, slot: int, support: int):
        self.tape, self.slot, self.support = tape, slot, support

    def _slotted(self) -> int:
        """This jet's slot; a variable is copied to a new one."""
        if self.slot >= 0:
            return self.slot
        out = self.tape.new()
        self.tape.steps.append((_step_variable, (
            self.tape.table.bank[self.support.bit_length() - 1], out)))
        return out

    def _scalar(self, step, ufunc, value: float) -> "_TapeJet":
        out = self._slotted()
        self.tape.steps.append((step, (ufunc, out, value)))
        return _TapeJet(self.tape, out, self.support)

    def _combine(self, ufunc, other: "_TapeJet") -> "_TapeJet":
        a, b = self._slotted(), other._slotted()
        self.tape.steps.append((_step_combine, (ufunc, a, b)))
        self.tape.release(b)
        return _TapeJet(self.tape, a, self.support | other.support)

    def _multiply(self, other: "_TapeJet", out: int) -> None:
        p = self.tape.product(self.support, other.support, self.slot < 0,
                              other.slot < 0)
        self.tape.steps.append((_step_product, (p, self.slot, other.slot,
                                                out)))

    def _compose(self, factors, *args) -> "_TapeJet":
        tape = self.tape
        src, out, p = self._slotted(), tape.new(), None
        if tape.table.order >= 2:  # Horner's scheme makes products
            p = tape.product(self.support, self.support)
        tape.steps.append((_step_compose, (p, tape.table.order, factors,
                                           args, src, out)))
        tape.release(src)
        return _TapeJet(tape, out, self.support)

    def __add__(self, other):
        if isinstance(other, _TapeJet):
            return self._combine(np.add, other)
        return self._scalar(_step_shift, np.add, other)

    __radd__ = __add__

    def __neg__(self):
        out = self._slotted()
        self.tape.steps.append((_step_negate, (out,)))
        return _TapeJet(self.tape, out, self.support)

    def __sub__(self, other):
        if isinstance(other, _TapeJet):
            return self._combine(np.subtract, other)
        return self._scalar(_step_shift, np.subtract, other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _TapeJet):
            return self._scalar(_step_scale, np.multiply, other)
        # into the left factor's slot if it has one, else the right's
        out = self.slot if self.slot >= 0 else (
            other.slot if other.slot >= 0 else self.tape.new())
        self._multiply(other, out)
        self.tape.release(other.slot if out == self.slot else self.slot)
        return _TapeJet(self.tape, out, self.support | other.support)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _TapeJet):
            return self * other._reciprocal()
        return self._scalar(_step_scale, np.true_divide, other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "_TapeJet":
        return self._compose(_reciprocal_factors)

    def sqrt(self) -> "_TapeJet":
        return self._compose(_sqrt_factors)

    def __pow__(self, p: float) -> "_TapeJet":
        p = float(p)
        if not p.is_integer():
            return self._compose(_power_factors, p)
        n, tape = int(p), self.tape
        if n == 0:
            tape.release(self.slot)
            out = tape.new()
            tape.steps.append((_step_constant, (1.0, out)))
            return _TapeJet(tape, out, self.support)
        out = self
        if abs(n) > 1:
            # the operand is read |n| - 1 times, so the result takes a slot
            # of its own before the operand's is released
            out = _TapeJet(tape, tape.new(), self.support)
            self._multiply(self, out.slot)
            for _ in range(abs(n) - 2):
                out._multiply(self, out.slot)
            tape.release(self.slot)
        return out if n > 0 else out._reciprocal()


# compiled tapes kept per process: each distinct program compiles one per
# order, and a run compiles 6-12 per shipped config
_TAPES = 256


@lru_cache(maxsize=_TAPES)
def _tape(program: tuple, num_vars: int, order: int,
          x_vars: int = 0) -> _Tape:
    """Compile ``program`` for ``num_vars`` variables at ``order``, on the
    table truncated in the first ``x_vars`` (``jets._JetTable``), by
    running it once on recording jets.  ``_run`` folds the constant
    subexpressions on floats; one that raises ends the tape with a step
    that raises an error of the same type and text."""
    tape = _Tape(_table(num_vars, order, x_vars))
    try:
        e = _run(program, [_TapeJet(tape, -1, 1 << i)
                           for i in range(num_vars)])
    except FinsymError as exc:
        tape.steps.append((_step_fail, (type(exc), str(exc))))
    else:
        if not isinstance(e, _TapeJet):
            out = tape.new()
            tape.steps.append((_step_constant, (e, out)))
            e = _TapeJet(tape, out, 0)
        tape.result, tape.support = e._slotted(), e.support
    tape.slots = max(tape.slots, 1)
    return tape


# -- field specs ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFieldSpec:
    """A scalar field given by a postfix program over named variables.

    With ``x_vars``, the first ``x_vars`` variables count as x, and
    ``eval_jet`` at orders 3 and up keeps only the coefficients of
    x-degree at most ``order - 2`` (``jets._JetTable``): the partials with
    at least two derivatives in the other variables, and their divisors.
    The energy of a metric is such a field (``finsler.MetricSpec``)."""

    variables: tuple[str, ...]
    program: tuple
    x_vars: int = 0

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
        ``(P, num_vars)`` stack of points, truncated as the class states;
        one point is a stack of one row.  DomainError for the first column
        with a non-finite coefficient the jet holds."""
        num_vars = len(self.variables)
        x = np.asarray(point, dtype=float).reshape(-1, num_vars)
        x_vars = self.x_vars if order > 2 else 0
        tape = _tape(self.program, num_vars, order, x_vars)
        out = Jet(num_vars, order, tape.run(x), x_vars)
        finite = np.isfinite(out.c).all(axis=0)
        if not finite.all():  # named by the first non-finite column
            x = x[np.argmin(finite)]
            raise DomainError(f"non-finite field data at {x.tolist()}")
        return out


# how far, relative to a bound, a norm summed by numpy may stray from
# math.hypot's: a few units in the last place, with a wide margin
_NORM_SLACK = 1e-9


def norms_at_least(rows: np.ndarray, bounds) -> np.ndarray:
    """Whether ``math.hypot(*row) >= bound`` for each row of a ``(P, n)``
    stack and its bound (one float, or one per row), decided in one numpy
    pass.  ``math.hypot`` scales its arguments, so it cannot overflow; it
    decides itself the rows the pass cannot: those whose norm lies within
    ``_NORM_SLACK`` of the bound, is below 1e-150 (its squares may
    underflow) or is not finite (they overflow)."""
    bounds = np.broadcast_to(np.asarray(bounds, dtype=float), rows.shape[:1])
    norms = np.sqrt((rows * rows).sum(axis=1))
    sure = ((np.abs(norms - bounds) > _NORM_SLACK * np.abs(bounds))
            & (norms >= 1e-150) & np.isfinite(norms))
    out = norms >= bounds
    unsure = np.flatnonzero(~sure)
    out[unsure] = [math.hypot(*row) >= bound for row, bound in zip(
        rows[unsure].tolist(), bounds[unsure].tolist())]
    return out


def norms_below(rows: np.ndarray, floor: float) -> np.ndarray:
    """Whether ``math.hypot(*row) < floor`` for each row of a ``(P, n)``
    stack, decided by :func:`norms_at_least`: a row holding a nan is never
    below, as its hypot is nan, or inf where the row holds an inf too."""
    return ~(norms_at_least(rows, floor) | np.isnan(rows).any(axis=1))


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
            inside &= norms_at_least(xs - center, radius)
        return inside

    def require(self, point: Sequence[float], what: str = "point") -> None:
        if not self.contains(point):
            raise DomainError(
                f"{what} {np.asarray(point, float).tolist()} outside domain")


@dataclass(frozen=True)
class VectorFieldSpec:
    """Component fields W^p(x) with a nowhere-zero floor ``w_min``."""

    components: tuple[ScalarFieldSpec, ...]
    w_min: float = DEFAULT_W_MIN

    @property
    def dimension(self) -> int:
        return len(self.components)

    def values(self, xs) -> np.ndarray:
        """The ``(P, n)`` stack of W at each row of a ``(P, n)`` stack of
        points, each row held to the floor."""
        xs = np.asarray(xs, dtype=float)
        w = np.stack([c.evaluate(xs) for c in self.components], axis=1)
        below = norms_below(w, self.w_min)
        if below.any():
            p = int(np.argmax(below))
            raise ZeroVectorError(
                f"vector field norm {math.hypot(*w[p].tolist()):.3e} below "
                f"floor {self.w_min} at {xs[p].tolist()}")
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
    det = np.linalg.det(fwd)  # an overflowing det is ±inf
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
    largest = np.abs(xs).max(axis=1)
    bound = _CHAIN_TOL * np.where(largest > 1.0, largest, 1.0)  # max(1, .)
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
