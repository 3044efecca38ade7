"""Instance specs and an independent reference solver.

Every benchmark instance is a separable objective (a sum of univariate terms)
under linear constraints. The spec keeps each term as text in the instance
grammar, so the same string becomes the ``.miss`` objective and, with ``^``
read as ``**``, a numpy function the reference solver evaluates. Nothing here
imports missoc: the reference optimum is computed by dense grid search,
bounded local polish with scipy, and enumeration of the integer variables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

_NUMPY_FUNCTIONS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
}


@dataclass(frozen=True)
class Var:
    name: str
    lower: float
    upper: float
    integer: bool = False


@dataclass(frozen=True)
class Linear:
    """sum_j coeffs[name_j] * x_j <= rhs."""

    coeffs: dict
    rhs: float

    def text(self) -> str:
        lhs = " + ".join(f"{_num(c)}*{n}" for n, c in self.coeffs.items())
        return f"st {lhs} <= {_num(self.rhs)};".replace("+ -", "- ")


@dataclass(frozen=True)
class Spec:
    """A separable instance: ``terms[name]`` is the univariate term of
    variable ``name`` in the objective's text grammar (every variable has
    one)."""

    name: str
    variables: tuple
    terms: dict
    constraints: tuple = ()
    shape: tuple = ()  # extra "shape ..." statements, text only
    intervals: int = 20
    text: str | None = None  # shipped instances keep their own text
    best_known: float | None = None

    def to_text(self) -> str:
        if self.text is not None:
            return self.text
        lines = [
            f"var {v.name} in [{_num(v.lower)}, {_num(v.upper)}]"
            + (" integer;" if v.integer else ";")
            for v in self.variables
        ]
        objective = " + ".join(f"({self.terms[v.name]})" for v in self.variables)
        lines.append(f"min {objective};")
        lines += [c.text() for c in self.constraints]
        lines += [f"shape {s};" for s in self.shape]
        return "\n".join(lines) + "\n"

    def term_fn(self, name: str):
        code = compile(self.terms[name].replace("^", "**"), name, "eval")

        def fn(x):
            return eval(code, {"__builtins__": {}, **_NUMPY_FUNCTIONS},
                        {name: np.asarray(x, dtype=float)})

        return fn

    def objective(self, x) -> float:
        return float(sum(self.term_fn(v.name)(xi) for v, xi in zip(self.variables, x)))

    def max_violation(self, x) -> float:
        """Largest excess over a bound, a constraint or integrality at x."""
        env = {v.name: float(xi) for v, xi in zip(self.variables, x)}
        worst = 0.0
        for v in self.variables:
            xi = env[v.name]
            worst = max(worst, v.lower - xi, xi - v.upper)
            if v.integer:
                worst = max(worst, abs(xi - round(xi)))
        for c in self.constraints:
            worst = max(worst, sum(a * env[n] for n, a in c.coeffs.items()) - c.rhs)
        return worst


def _num(v: float) -> str:
    return repr(float(v)) if not float(v).is_integer() else str(int(v))


# ---------------------------------------------------------------------------
# Reference optimum


GRID_1D = 20001
GRID_2D = 801
POLISH_STARTS = 8


def reference_optimum(spec: Spec) -> float:
    """Global optimum of the spec, by blocks.

    Constraints touching at most two continuous variables define the
    blocks; constraints on integer variables only are checked on every
    enumerated integer vector. Each block's continuous minimum given its
    integer values is cached.
    """
    if spec.best_known is not None:
        return spec.best_known
    cont = [v for v in spec.variables if not v.integer]
    ints = [v for v in spec.variables if v.integer]
    names_cont = {v.name for v in cont}

    # union continuous variables that share a constraint
    group = {v.name: {v.name} for v in cont}
    for c in spec.constraints:
        touched = [n for n in c.coeffs if n in names_cont]
        for n in touched[1:]:
            merged = group[touched[0]] | group[n]
            for m in merged:
                group[m] = merged
    blocks = []
    for v in cont:
        members = tuple(sorted(group[v.name], key=[w.name for w in cont].index))
        if members not in blocks:
            blocks.append(members)
    if any(len(b) > 2 for b in blocks):
        raise ValueError(f"{spec.name}: a block has more than two continuous variables")

    int_only = [c for c in spec.constraints if not set(c.coeffs) & names_cont]
    cache: dict = {}
    best = math.inf
    ranges = [range(int(v.lower), int(v.upper) + 1) for v in ints]
    for values in itertools.product(*ranges):
        env = {v.name: float(n) for v, n in zip(ints, values)}
        if any(sum(a * env[n] for n, a in c.coeffs.items()) > c.rhs + 1e-12
               for c in int_only):
            continue
        total = sum(float(spec.term_fn(v.name)(env[v.name])) for v in ints)
        for members in blocks:
            rows = _block_rows(spec, members, env)
            key = (members, tuple(rows))
            if key not in cache:
                cache[key] = _block_min(spec, members, rows)
            total += cache[key]
        best = min(best, total)
    if not math.isfinite(best):
        raise ValueError(f"{spec.name}: no feasible point")
    return best


def _block_rows(spec: Spec, members, env):
    """Constraints of the block with the integer values substituted:
    tuples (coeffs over members, rhs)."""
    rows = []
    for c in spec.constraints:
        if not set(c.coeffs) & set(members):
            continue
        rhs = c.rhs - sum(a * env[n] for n, a in c.coeffs.items() if n in env)
        rows.append((tuple(c.coeffs.get(m, 0.0) for m in members), rhs))
    return rows


def _block_min(spec: Spec, members, rows) -> float:
    var = {v.name: v for v in spec.variables}
    fns = [spec.term_fn(m) for m in members]
    boxes = [(var[m].lower, var[m].upper) for m in members]
    if len(members) == 1:
        lo, hi = boxes[0]
        for (a,), rhs in rows:
            if a > 0:
                hi = min(hi, rhs / a)
            elif a < 0:
                lo = max(lo, rhs / a)
        if lo > hi + 1e-12:
            return math.inf
        return _min_1d(fns[0], lo, max(lo, hi))
    return _min_2d(fns, boxes, rows)


def _min_1d(f, lo: float, hi: float) -> float:
    if hi - lo <= 1e-14:
        return float(f(lo))
    xs = np.linspace(lo, hi, GRID_1D)
    ys = f(xs)
    best = float(ys.min())
    step = xs[1] - xs[0]
    for i in np.argsort(ys)[:POLISH_STARTS]:
        a, b = max(lo, xs[i] - step), min(hi, xs[i] + step)
        res = scipy.optimize.minimize_scalar(
            f, bounds=(a, b), method="bounded", options={"xatol": 1e-12}
        )
        best = min(best, float(res.fun))
    return best


def _min_2d(fns, boxes, rows) -> float:
    g0 = np.linspace(*boxes[0], GRID_2D)
    g1 = np.linspace(*boxes[1], GRID_2D)
    f0, f1 = fns[0](g0), fns[1](g1)
    X0, X1 = np.meshgrid(g0, g1, indexing="ij")
    vals = f0[:, None] + f1[None, :]
    for (a0, a1), rhs in rows:
        vals = np.where(a0 * X0 + a1 * X1 <= rhs + 1e-12, vals, np.inf)
    flat = vals.ravel()
    if not np.isfinite(flat).any():
        return math.inf
    best = float(flat.min())

    def fun(z):
        return float(fns[0](z[0]) + fns[1](z[1]))

    cons = [
        {"type": "ineq", "fun": (lambda z, a=a, r=r: r - a[0] * z[0] - a[1] * z[1])}
        for a, r in rows
    ]
    for i in np.argsort(flat)[:POLISH_STARTS]:
        z0 = np.array([X0.ravel()[i], X1.ravel()[i]])
        res = scipy.optimize.minimize(
            fun, z0, method="SLSQP", bounds=boxes, constraints=cons,
            options={"ftol": 1e-14, "maxiter": 200},
        )
        z = np.clip(res.x, [b[0] for b in boxes], [b[1] for b in boxes])
        if all(a[0] * z[0] + a[1] * z[1] <= r + 1e-9 for a, r in rows):
            best = min(best, fun(z))
    return best
