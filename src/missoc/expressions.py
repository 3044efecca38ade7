"""Expression trees for instance objectives and constraints.

A small infix language over {+, -, *, /, ^, exp, log, sqrt, sin, cos} with a
recursive-descent parser that reports line/column positions on errors.

Each tree is compiled once into a postorder tape (``Expr.tape``), and all
arithmetic runs off it in one forward loop. ``evaluate`` runs it at one
point with Python floats; ``evaluate_block`` runs it once for a block of
points, with numpy array ops for ``+ - * /`` and the same ``math`` functions
and float power element by element (numpy's own may differ in the last bit),
and masks the points where ``evaluate`` raises. ``gradient`` is reverse mode
(Griewank & Walther 2008): the forward loop, then one sweep back over the
tape, whatever the number of variables.
"""

from __future__ import annotations

import functools
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
    @functools.cached_property
    def tape(self) -> tuple:
        """The tree compiled once into a postorder tape (see ``_compile``)."""
        return _compile(self)


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
# Tapes: evaluation and reverse-mode differentiation


def _compile(expr: Expr) -> tuple:
    """The postorder tape of ``expr``: one ``(op, a, b)`` entry per node, each
    filling the slot of its own index. ``op`` is "const" (``a`` the value),
    "var" (``a`` the name), a function (``a`` the argument's slot) or one of
    ``+ - * / ^`` (``a``, ``b`` the operands' slots); the last slot is the
    value of the whole tree."""
    tape = []

    def emit(e) -> int:
        if isinstance(e, Const):
            tape.append(("const", e.value, None))
        elif isinstance(e, Var):
            tape.append(("var", e.name, None))
        elif isinstance(e, BinOp):
            tape.append((e.op, emit(e.left), emit(e.right)))
        elif isinstance(e, Call):
            tape.append((e.fn, emit(e.arg), None))
        else:
            raise TypeError(f"not an expression node: {e!r}")
        return len(tape) - 1

    emit(expr)
    return tuple(tape)


def _power(a: float, b: float) -> float:
    if isinstance(a, float) and a < 0 and float(b) != int(b):
        raise ValueError(f"negative base {a} with fractional exponent {b}")
    return a**b


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_FN_FLOAT = {
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
}
_FLOAT_OPS = {**_OPS, "^": _power, **_FN_FLOAT}


def _forward(tape, env, ops) -> list:
    """The value of every slot of ``tape``, with ``ops`` mapping each operator
    and function to its arithmetic."""
    v = []
    for op, a, b in tape:
        if op == "const":
            v.append(a)
        elif op == "var":
            try:
                v.append(env[a])
            except KeyError:
                raise KeyError(f"unbound variable {a!r}") from None
        elif b is None:
            v.append(ops[op](v[a]))
        else:
            v.append(ops[op](v[a], v[b]))
    return v


def evaluate(expr: Expr, env: dict[str, float]) -> float:
    return _forward(expr.tape, env, _FLOAT_OPS)[-1]


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

    def divide(a, b):
        np.logical_or(bad, np.equal(b, 0.0), out=bad)
        return np.true_divide(a, b)

    def elementwise(fn, *args):
        columns = [np.broadcast_to(a, shape).ravel().tolist() for a in args]
        try:
            return np.array(list(map(fn, *columns)), dtype=float).reshape(shape)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        out = []
        for i, xs in enumerate(zip(*columns)):
            try:
                out.append(fn(*xs))
            except (ValueError, ZeroDivisionError, OverflowError):
                out.append(math.nan)
                bad_flat[i] = True
        return np.array(out).reshape(shape)

    def power(a, b):
        # _power's refusal, array-wise: a negative base with an exponent that
        # is not a finite integer (int(b) raises on inf and NaN); NaN there
        refused = np.less(a, 0.0) & ~(np.isfinite(b) & (np.floor(b) == b))
        np.logical_or(bad, refused, out=bad)
        values = elementwise(operator.pow, np.where(refused, 1.0, a), b)
        values[np.broadcast_to(refused, shape)] = math.nan
        return values

    # + - * / as array ops; ^ and the functions element by element, in one
    # map unless a call raises
    ops = {**{op: functools.partial(elementwise, fn) for op, fn in _FLOAT_OPS.items()},
           **_OPS, "/": divide, "^": power}
    with np.errstate(all="ignore"):
        values = np.broadcast_to(_forward(expr.tape, env, ops)[-1], shape).copy()
    return values, bad


def _dpow_base(x, c, v):
    """d/dx x^c = c x^(c-1), valid for x <= 0 too for integer c >= 0."""
    if x == 0.0:
        return 0.0 if c > 1 else (c if c == 1 else math.inf)
    return c * x ** (c - 1)


# per op, the partial derivative with respect to each operand, as a function
# of (first operand, second operand or None, value)
_PARTIALS = {
    "+": (lambda x, y, v: 1.0, lambda x, y, v: 1.0),
    "-": (lambda x, y, v: 1.0, lambda x, y, v: -1.0),
    "*": (lambda x, y, v: y, lambda x, y, v: x),
    "/": (lambda x, y, v: 1.0 / y, lambda x, y, v: -v / y),
    "^": (_dpow_base, lambda x, y, v: v * math.log(x)),
    "exp": (lambda x, y, v: v,),
    "log": (lambda x, y, v: 1.0 / x,),
    "sqrt": (lambda x, y, v: 1.0 / (2.0 * v) if x > 0 else math.inf,),
    "sin": (lambda x, y, v: math.cos(x),),
    "cos": (lambda x, y, v: -math.sin(x),),
}


def gradient(expr: Expr, env: dict[str, float], names=None):
    """``(value, {name: derivative})`` of ``expr`` at one point, with respect
    to the given names (default: all bound variables), from one forward pass
    and one reverse sweep over the tape (reverse mode; Griewank & Walther
    2008).

    Only slots that depend on a given name take adjoints, so a partial is
    computed only where such a name needs it: ``(x - 1)^n`` at x = 0.5 has
    a derivative in x, although none in n (``log`` of a negative base). An
    adjoint times a partial counts only where both are nonzero, so an
    infinite partial stays in its own coordinate: ``sqrt(x) + y^2`` at
    (0, 1) gives (inf, 2), and ``sqrt(x)*0`` at 0 gives 0. Raises where
    ``evaluate`` does, or where a needed partial does."""
    tape = expr.tape
    if names is None:
        names = sorted(variables_of(expr) & set(env))
    values = _forward(tape, env, _FLOAT_OPS)
    wanted = set(names)
    live = []  # whether each slot depends on a wanted name
    for op, a, b in tape:
        if op == "var":
            live.append(a in wanted)
        else:
            live.append(op != "const" and (live[a] or (b is not None and live[b])))
    adjoint = [0.0] * len(tape)
    adjoint[-1] = 1.0
    grad = dict.fromkeys(names, 0.0)
    for i in range(len(tape) - 1, -1, -1):
        w = adjoint[i]
        if w == 0.0 or not live[i]:
            continue
        op, a, b = tape[i]
        if op == "var":
            grad[a] += w
            continue
        x, y = values[a], None if b is None else values[b]
        for slot, partial in zip((a, b), _PARTIALS[op]):
            if live[slot]:
                d = partial(x, y, values[i])
                if d != 0.0:
                    adjoint[slot] += w * d
    return values[-1], grad


def variables_of(expr: Expr) -> set[str]:
    return {a for op, a, _ in expr.tape if op == "var"}


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
