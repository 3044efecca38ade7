"""Expression trees for instance objectives and constraints.

A small infix language over {+, -, *, /, ^, exp, log, sqrt, sin, cos} with a
recursive-descent parser that reports line/column positions on errors.

``evaluate`` walks a tree at one point with Python floats; ``evaluate_block``
walks it once for a block of points, with numpy array ops for ``+ - * /`` and
the same ``math`` functions and float power element by element (numpy's own
may differ in the last bit), and masks the points where ``evaluate`` raises.
``gradient`` is vector forward mode (Griewank & Walther 2008): one sweep with
a unit-vector ``Dual.dot`` per variable, each element computed as that
variable's own sweep would compute it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


class ParseError(ValueError):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    def __add__(self, other):
        return BinOp("+", self, _as_expr(other))

    def __sub__(self, other):
        return BinOp("-", self, _as_expr(other))

    def __mul__(self, other):
        return BinOp("*", self, _as_expr(other))

    def __rmul__(self, other):
        return BinOp("*", _as_expr(other), self)

    def __neg__(self):
        return BinOp("-", Const(0.0), self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Const(float(v))


# ---------------------------------------------------------------------------
# Tokenizer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # num, name, op, lparen, rparen, end
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tok = text[i:j]
            try:
                float(tok)
            except ValueError:
                raise ParseError(f"bad number {tok!r}", line, start_col)
            toks.append(_Token("num", tok, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*/^":
            toks.append(_Token("op", ch, line, start_col))
        elif ch == "(":
            toks.append(_Token("lparen", ch, line, start_col))
        elif ch == ")":
            toks.append(_Token("rparen", ch, line, start_col))
        else:
            raise ParseError(f"unexpected character {ch!r}", line, start_col)
        i += 1
        col += 1
    toks.append(_Token("end", "", line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.cur.line, self.cur.col)

    def parse(self) -> Expr:
        e = self.expr()
        if self.cur.kind != "end":
            self.fail(f"trailing input starting at {self.cur.text!r}")
        return e

    def expr(self) -> Expr:
        left = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            left = BinOp(op, left, self.unary())
        return left

    def unary(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            operand = self.unary()
            if op == "-":
                return BinOp("-", Const(0.0), operand)
            return operand
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            # right-associative; exponent may carry a sign
            return BinOp("^", base, self.unary_power())
        return base

    def unary_power(self) -> Expr:
        if self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            operand = self.unary_power()
            if op == "-":
                return BinOp("-", Const(0.0), operand)
            return operand
        return self.power()

    def atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if self.cur.kind == "lparen":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {tok.text!r}", tok.line, tok.col
                    )
                self.advance()
                arg = self.expr()
                if self.cur.kind != "rparen":
                    self.fail("expected ')'")
                self.advance()
                return Call(tok.text, arg)
            return Var(tok.text)
        if tok.kind == "lparen":
            self.advance()
            e = self.expr()
            if self.cur.kind != "rparen":
                self.fail("expected ')'")
            self.advance()
            return e
        self.fail(f"expected a value, found {tok.text or 'end of input'!r}")


def parse_expr(text: str) -> Expr:
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# Evaluation and forward-mode differentiation


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FN_FLOAT = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
}


@dataclass(frozen=True)
class Dual:
    """First-order dual number a + b eps for forward-mode differentiation;
    ``dot`` is a float or an array holding one derivative per direction."""

    val: float
    dot: float | np.ndarray

    def __add__(self, o):
        return Dual(self.val + o.val, self.dot + o.dot)

    def __sub__(self, o):
        return Dual(self.val - o.val, self.dot - o.dot)

    def __mul__(self, o):
        return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    def __truediv__(self, o):
        return Dual(
            self.val / o.val,
            (self.dot * o.val - self.val * o.dot) / (o.val * o.val),
        )

    def __pow__(self, o):
        c, v = o.val, self.val**o.val
        # per direction: where the exponent's dot is zero, d/dx x^c =
        # c x^(c-1), valid for x <= 0 too when c is a nonnegative integer;
        # elsewhere the general rule
        fixed = np.equal(o.dot, 0.0)
        dot = 0.0
        if fixed.any():
            if self.val == 0.0:
                g = 0.0 if c > 1 else (c if c == 1 else math.inf)
            else:
                g = c * self.val ** (c - 1)
            dot = _chain(g, self.dot)
        if not fixed.all():
            general = v * (o.dot * math.log(self.val) + c * self.dot / self.val)
            dot = np.where(fixed, dot, general)
        return Dual(v, dot)


def _chain(factor: float, dot):
    """factor * dot, and 0 where dot is 0 even when the factor is infinite."""
    if math.isfinite(factor):
        return factor * dot
    return np.multiply(factor, dot, out=np.zeros(np.shape(dot)),
                       where=np.not_equal(dot, 0.0))


_FN_DUAL = {
    "exp": lambda d: Dual(math.exp(d.val), math.exp(d.val) * d.dot),
    "log": lambda d: Dual(math.log(d.val), d.dot / d.val),
    "sqrt": lambda d: Dual(
        math.sqrt(d.val),
        d.dot / (2.0 * math.sqrt(d.val)) if d.val > 0 else _chain(math.inf, d.dot),
    ),
    "sin": lambda d: Dual(math.sin(d.val), math.cos(d.val) * d.dot),
    "cos": lambda d: Dual(math.cos(d.val), -math.sin(d.val) * d.dot),
}


def evaluate(expr: Expr, env: dict[str, float]) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return env[expr.name]
        except KeyError:
            raise KeyError(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, env)
        b = evaluate(expr.right, env)
        return _power(a, b) if expr.op == "^" else _OPS[expr.op](a, b)
    if isinstance(expr, Call):
        return _FN_FLOAT[expr.fn](evaluate(expr.arg, env))
    raise TypeError(f"not an expression node: {expr!r}")


def _power(a: float, b: float) -> float:
    if isinstance(a, float) and a < 0 and float(b) != int(b):
        raise ValueError(f"negative base {a} with fractional exponent {b}")
    return a**b


def evaluate_block(expr: Expr, env: dict[str, np.ndarray]):
    """Values of ``expr`` at a block of points, given as one array per
    variable, and a boolean mask of the points where ``evaluate`` raises
    (a domain error, division by zero, overflow of a function or ``^``, or a
    negative base with a fractional exponent). Both have the broadcast shape
    of the env's arrays; a masked value is meaningless. Overflow in ``+ - *
    /`` gives inf without raising, as with Python floats."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in env.values()))
    bad = np.zeros(shape, dtype=bool)
    bad_flat = bad.reshape(-1)

    def walk(e):
        if isinstance(e, Const):
            return np.float64(e.value)
        if isinstance(e, Var):
            return env[e.name]
        if isinstance(e, BinOp):
            a, b = walk(e.left), walk(e.right)
            if e.op == "^":
                return elementwise(_power, a, b)
            if e.op == "/":
                np.logical_or(bad, np.equal(b, 0.0), out=bad)
            return _OPS[e.op](a, b)
        if isinstance(e, Call):
            return elementwise(_FN_FLOAT[e.fn], walk(e.arg))
        raise TypeError(f"not an expression node: {e!r}")

    def elementwise(fn, *args):
        columns = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
        out = []
        for i, xs in enumerate(zip(*columns)):
            try:
                out.append(fn(*xs))
            except (ValueError, ZeroDivisionError, OverflowError):
                out.append(math.nan)
                bad_flat[i] = True
        return np.array(out).reshape(shape)

    with np.errstate(all="ignore"):
        values = np.broadcast_to(walk(expr), shape).copy()
    return values, bad


def _eval_dual(expr: Expr, env: dict[str, Dual]) -> Dual:
    if isinstance(expr, Const):
        return Dual(expr.value, 0.0)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, BinOp):
        a = _eval_dual(expr.left, env)
        b = _eval_dual(expr.right, env)
        return a**b if expr.op == "^" else _OPS[expr.op](a, b)
    if isinstance(expr, Call):
        return _FN_DUAL[expr.fn](_eval_dual(expr.arg, env))
    raise TypeError(f"not an expression node: {expr!r}")


def gradient(expr: Expr, env: dict[str, float], names=None) -> dict[str, float]:
    """Forward-mode gradient with respect to the given names (default: all
    bound variables), in one sweep with a unit-vector dot per name."""
    if names is None:
        names = sorted(variables_of(expr) & set(env))
    unit = dict(zip(names, np.eye(len(names))))
    dual_env = {k: Dual(float(v), unit.get(k, 0.0)) for k, v in env.items()}
    # inf and nan propagate silently, as with Python floats
    with np.errstate(all="ignore"):
        dot = _eval_dual(expr, dual_env).dot
    if np.ndim(dot) == 0:  # no seeded variable reached the result
        dot = np.full(len(names), dot)
    return dict(zip(names, dot.tolist()))


def variables_of(expr: Expr) -> set[str]:
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Var):
        return {expr.name}
    if isinstance(expr, BinOp):
        return variables_of(expr.left) | variables_of(expr.right)
    if isinstance(expr, Call):
        return variables_of(expr.arg)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Affine structure


def decompose_affine(expr: Expr):
    """(constant, {name: coefficient}) when the expression is affine in its
    variables, else None."""
    if isinstance(expr, Const):
        return expr.value, {}
    if isinstance(expr, Var):
        return 0.0, {expr.name: 1.0}
    if isinstance(expr, BinOp):
        a = decompose_affine(expr.left)
        b = decompose_affine(expr.right)
        if expr.op in "+-":
            if a is None or b is None:
                return None
            sgn = 1.0 if expr.op == "+" else -1.0
            coeffs = dict(a[1])
            for k, v in b[1].items():
                coeffs[k] = coeffs.get(k, 0.0) + sgn * v
            return a[0] + sgn * b[0], coeffs
        if expr.op == "*":
            if a is not None and not a[1]:
                if b is None:
                    return None
                return a[0] * b[0], {k: a[0] * v for k, v in b[1].items()}
            if b is not None and not b[1]:
                if a is None:
                    return None
                return a[0] * b[0], {k: b[0] * v for k, v in a[1].items()}
            return None
        if expr.op == "/":
            if b is not None and not b[1] and a is not None:
                return a[0] / b[0], {k: v / b[0] for k, v in a[1].items()}
            return None
        if expr.op == "^":
            if a is not None and not a[1] and b is not None and not b[1]:
                return a[0] ** b[0], {}
            if b is not None and not b[1] and b[0] == 1.0:
                return a
            return None
    if isinstance(expr, Call):
        inner = decompose_affine(expr.arg)
        if inner is not None and not inner[1]:
            return _FN_FLOAT[expr.fn](inner[0]), {}
        return None
    raise TypeError(f"not an expression node: {expr!r}")


def split_affine(expr: Expr):
    """Split a top-level sum into (constant, {name: coeff}, nonlinear terms).

    Each addend that is affine joins the affine part; the rest are returned
    as expression trees whose sum completes the original expression.
    """
    const = 0.0
    coeffs: dict[str, float] = {}
    nonlinear: list[Expr] = []

    def absorb(e: Expr, sign: float):
        nonlocal const
        if isinstance(e, BinOp) and e.op in "+-":
            absorb(e.left, sign)
            absorb(e.right, sign if e.op == "+" else -sign)
            return
        aff = decompose_affine(e)
        if aff is not None:
            const += sign * aff[0]
            for k, v in aff[1].items():
                coeffs[k] = coeffs.get(k, 0.0) + sign * v
        else:
            nonlinear.append(e if sign > 0 else BinOp("-", Const(0.0), e))

    absorb(expr, 1.0)
    return const, coeffs, nonlinear


def unparse(expr: Expr) -> str:
    """Infix text that reparses to a semantically identical tree."""
    if isinstance(expr, Const):
        return f"{expr.value:.17g}"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BinOp):
        return f"({unparse(expr.left)} {expr.op} {unparse(expr.right)})"
    if isinstance(expr, Call):
        return f"{expr.fn}({unparse(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")
