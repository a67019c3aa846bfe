"""Closed-form scalar/vector/chart field specs and their tiny expression DSL.

Grammar (whitespace insignificant)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' signed-number)?
    base   := number | identifier | '(' expr ')' | 'sqrt(' expr ')'

Identifiers are the declared variable names (conventionally ``x1..xn`` and
``y1..yn``).  Exponents are numeric literals, never sub-expressions.  The
leading ``-`` on a factor is accepted as sugar on top of the binary grammar.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    ParseError,
    SingularChartError,
    UnknownVariableError,
    ZeroVectorError,
)
from .jets import Jet, jet_eval

# -- expression tree ---------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: float


@dataclass(frozen=True)
class Sqrt:
    arg: "Node"


Node = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Sqrt]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


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
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var_index = {name: i for i, name in enumerate(variables)}

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

    def parse(self) -> Node:
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", at)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Pow(node, self.signed_number())
        return node

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

    def base(self) -> Node:
        kind, text, at = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "sqrt":
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Sqrt(inner)
            if text not in self.var_index:
                raise UnknownVariableError(f"unknown variable {text!r}", at)
            return Var(text, self.var_index[text])
        if kind == "op" and text == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", at)


# -- evaluation ---------------------------------------------------------------


def _pow_value(v, p: float):
    if isinstance(v, Jet):
        return v ** p
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
    v = float(v)
    if v < 0.0:
        raise DomainError(f"sqrt of negative value {v}")
    return math.sqrt(v)


def eval_node(node: Node, env: Sequence):
    """Evaluate an expression tree; env entries may be floats or jets."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return env[node.index]
    if isinstance(node, Neg):
        return -eval_node(node.arg, env)
    if isinstance(node, Add):
        return eval_node(node.left, env) + eval_node(node.right, env)
    if isinstance(node, Sub):
        return eval_node(node.left, env) - eval_node(node.right, env)
    if isinstance(node, Mul):
        return eval_node(node.left, env) * eval_node(node.right, env)
    if isinstance(node, Div):
        num = eval_node(node.left, env)
        den = eval_node(node.right, env)
        if not isinstance(den, Jet) and float(den) == 0.0:
            raise DomainError("division by zero")
        return num / den
    if isinstance(node, Pow):
        return _pow_value(eval_node(node.base, env), node.exponent)
    if isinstance(node, Sqrt):
        return _sqrt_value(eval_node(node.arg, env))
    raise TypeError(f"unknown node {node!r}")


# -- printing -----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _fmt(node: Node) -> tuple[str, int]:
    if isinstance(node, Num):
        return _fmt_number(node.value), _LEVEL_ATOM
    if isinstance(node, Var):
        return node.name, _LEVEL_ATOM
    if isinstance(node, Sqrt):
        return f"sqrt({_fmt(node.arg)[0]})", _LEVEL_ATOM
    if isinstance(node, Neg):
        s, lvl = _fmt(node.arg)
        if lvl < _LEVEL_NEG:
            s = f"({s})"
        return f"-{s}", _LEVEL_NEG
    if isinstance(node, Pow):
        s, lvl = _fmt(node.base)
        if lvl < _LEVEL_ATOM:
            s = f"({s})"
        return f"{s}^{_fmt_number(node.exponent)}", _LEVEL_POW
    if isinstance(node, (Add, Sub)):
        ls, llvl = _fmt(node.left)
        rs, rlvl = _fmt(node.right)
        if llvl < _LEVEL_ADD:
            ls = f"({ls})"
        if rlvl <= _LEVEL_ADD:
            rs = f"({rs})"
        op = "+" if isinstance(node, Add) else "-"
        return f"{ls}{op}{rs}", _LEVEL_ADD
    if isinstance(node, (Mul, Div)):
        ls, llvl = _fmt(node.left)
        rs, rlvl = _fmt(node.right)
        if llvl < _LEVEL_MUL:
            ls = f"({ls})"
        if rlvl <= _LEVEL_MUL:
            rs = f"({rs})"
        op = "*" if isinstance(node, Mul) else "/"
        return f"{ls}{op}{rs}", _LEVEL_MUL
    raise TypeError(f"unknown node {node!r}")


def format_expression(node: Node) -> str:
    return _fmt(node)[0]


# -- field specs ---------------------------------------------------------------


@dataclass(frozen=True)
class ScalarFieldSpec:
    """A scalar field given by an expression tree over named variables."""

    variables: tuple[str, ...]
    root: Node

    @classmethod
    def parse(cls, text: str, variables: Sequence[str]) -> "ScalarFieldSpec":
        node = _Parser(text, variables).parse()
        return cls(tuple(variables), node)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def evaluate(self, point: Sequence[float]) -> float:
        out = float(eval_node(self.root, [float(v) for v in point]))
        if not math.isfinite(out):
            raise DomainError(
                f"non-finite field value at {np.asarray(point, float).tolist()}")
        return out

    __call__ = evaluate

    def eval_jet(self, point: Sequence[float], order: int) -> Jet:
        num_vars = len(self.variables)
        env = [Jet.variable(i, float(point[i]), num_vars, order)
               for i in range(num_vars)]
        with np.errstate(all="ignore"):  # non-finite data raises below
            out = eval_node(self.root, env)
        if not isinstance(out, Jet):
            out = Jet.constant(float(out), num_vars, order)
        if not out.is_finite():
            raise DomainError(
                f"non-finite field data at {np.asarray(point, float).tolist()}")
        return out

    def to_string(self) -> str:
        return format_expression(self.root)


def parse_field(text: str, variables: Sequence[str]) -> ScalarFieldSpec:
    """Parse expression text over the declared variables."""
    return ScalarFieldSpec.parse(text, variables)


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
        if x.shape != (self.dimension,):
            return False
        if (x < np.asarray(self.lower)).any() or (x > np.asarray(self.upper)).any():
            return False
        for center, radius in self.excluded:
            if np.linalg.norm(x - np.asarray(center)) < radius:
                return False
        return True

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

    def values(self, x: Sequence[float]) -> np.ndarray:
        w = np.array([c.evaluate(x) for c in self.components])
        if float(np.linalg.norm(w)) < self.w_min:
            raise ZeroVectorError(
                f"vector field norm {np.linalg.norm(w):.3e} below floor "
                f"{self.w_min} at {np.asarray(x, float).tolist()}"
            )
        return w

    def jacobian(self, x: Sequence[float]) -> np.ndarray:
        """dW[p, j] = d W^p / d x^j."""
        return np.array([j.derivatives(1)
                         for j in eval_vector_field(self, x, order=1)])


def eval_vector_field(W: VectorFieldSpec, x: Sequence[float],
                      order: int = 1) -> list[Jet]:
    """Per-component jets of a vector field; enforces the nowhere-zero floor."""
    if order > 2:
        raise ValueError("vector fields are differentiated at most twice")
    jets = [jet_eval(c, x, order) for c in W.components]
    w = np.array([j.value for j in jets])
    if float(np.linalg.norm(w)) < W.w_min:
        raise ZeroVectorError(
            f"vector field norm {np.linalg.norm(w):.3e} below floor {W.w_min} "
            f"at {np.asarray(x, float).tolist()}"
        )
    return jets


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

    def forward_point(self, x: Sequence[float]) -> np.ndarray:
        return np.array([c.evaluate(x) for c in self.forward])

    def inverse_point(self, xhat: Sequence[float]) -> np.ndarray:
        return np.array([c.evaluate(xhat) for c in self.inverse])

    def roundtrip_residual(self, x: Sequence[float]) -> float:
        back = self.inverse_point(self.forward_point(x))
        return float(np.max(np.abs(back - np.asarray(x, dtype=float))))

    def swapped(self) -> "ChartMap":
        return ChartMap(self.inverse, self.forward,
                        self.inverse_domain, self.forward_domain)


@dataclass(frozen=True)
class ChartJacobians:
    """Derivative data of a chart map at one point.

    fwd[p, i]     = d xhat^p / d x^i            (at x)
    inv[j, q]     = d x^j / d xhat^q            (at xhat(x))
    inv2[i, q, r] = d^2 x^i / d xhat^q d xhat^r (at xhat(x))
    """

    x: np.ndarray
    xhat: np.ndarray
    fwd: np.ndarray
    inv: np.ndarray
    inv2: np.ndarray


def chart_jacobians(chart: ChartMap, x: Sequence[float],
                    chain_tol: float = 1e-8) -> ChartJacobians:
    """First/second derivative arrays of a chart at ``x``, chain-rule checked."""
    m = chart.dimension
    x = np.asarray(x, dtype=float)
    if chart.forward_domain is not None:
        chart.forward_domain.require(x, "chart point")

    fwd_jets = [jet_eval(c, x, 1) for c in chart.forward]
    xhat = np.array([j.value for j in fwd_jets])
    fwd = np.array([j.derivatives(1) for j in fwd_jets])
    det = float(np.linalg.det(fwd))
    if abs(det) < 1e-8:
        raise SingularChartError(
            f"chart Jacobian determinant {det:.3e} below 1e-8 at {x.tolist()}"
        )

    if chart.inverse_domain is not None:
        chart.inverse_domain.require(xhat, "mapped chart point")
    inv_jets = [jet_eval(c, xhat, 2) for c in chart.inverse]
    inv = np.array([j.derivatives(1) for j in inv_jets])
    inv2 = np.array([j.derivatives(2) for j in inv_jets])

    defect = float(np.max(np.abs(fwd @ inv - np.eye(m))))
    if defect > chain_tol:
        raise SingularChartError(
            f"inverse map inconsistent with forward map (chain defect "
            f"{defect:.3e} > {chain_tol:g}) at {x.tolist()}"
        )
    return ChartJacobians(x=x, xhat=xhat, fwd=fwd, inv=inv, inv2=inv2)
