"""Instance generators for the three workloads.

Each workload is a template whose coefficients a data seed draws. The
branch-and-bound path is chaotic in the data: jittering the int_bnb
coefficients by 0.02% moved one instance between 31 and 161 nodes. A run
seed that redrew the data would therefore measure different work on every
seed. So the data seed is the constant ``DATA_SEED``, and the run seed
relabels the variables of the generated instances: the program parses
different text and does the same arithmetic. Every instance splits into blocks of at most
two continuous variables plus a few small integers, so ``reference.py`` can
compute its optimum independently.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

import numpy as np

from reference import Linear, Spec, Var

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "missoc" / "instances"

# Seed of the instance data, fixed because the branch-and-bound path is
# chaotic in the data (see above).
DATA_SEED = 0


def _r(v: float) -> float:
    """Round to 4 significant decimals so the text and the reference agree."""
    return float(f"{v:.4g}")


def _jitter(rng, base: float, rel: float) -> float:
    return _r(base * (1.0 + rng.uniform(-rel, rel)))


def shipped(name: str) -> Spec:
    """A shipped instance: the program reads its own text, the reference
    solver the hand transcription below (checked against the text by the
    tests)."""
    text = (INSTANCE_DIR / f"{name}.miss").read_text()
    return Spec(name=name, text=text, **SHIPPED[name])


SHIPPED = {
    "convex_shaped": dict(
        variables=(Var("x", 0.0, 2.0),),
        terms={"x": "exp(x) - 3*x"},
        intervals=10,
        best_known=-0.295836866,
    ),
    "mixed_integer": dict(
        variables=(Var("n", 0.0, 4.0, integer=True), Var("x", 0.0, 1.0)),
        terms={"n": "0.4*n", "x": "(x - 0.7)^2 + sin(3*x)"},
        constraints=(Linear({"x": -1.0, "n": -0.5}, -1.0),),
        intervals=20,
    ),
    "waves2": dict(
        variables=(Var("a", 0.0, 1.0), Var("b", -1.0, 2.0)),
        terms={"a": "sin(5*a) + 0.3*a", "b": "b^4 - 1.2*b^2"},
        constraints=(Linear({"a": 1.0, "b": 1.0}, 1.5),),
        intervals=20,
    ),
}


# ---------------------------------------------------------------------------
# shape_fit

# (p, k, wiggle, bounds). The wiggle is damped: it breaks convexity near the
# lower end of the box, so the certificates bind there, and has died out
# near the optimum, so the objective keeps a single local minimum. The upper
# bound sits below the largest value of the nonlinear part, so it binds at
# the upper end of the box, away from the optimum.
SHAPE_CASES = (
    (1, 10, True, False),
    (1, 20, True, False),
    (2, 10, True, False),
    (2, 10, False, True),
    (2, 20, False, False),
    (4, 10, False, False),
)


def _shape_instance(rng, name, p, k, wiggle, bounds) -> Spec:
    variables = tuple(Var(f"x{j}", 0.0, 2.0) for j in range(p))
    terms = {}
    top = 0.0
    for j in range(p):
        a = _jitter(rng, 0.9, 0.1)
        c = _jitter(rng, 1.0, 0.1)
        x_opt = 1.0 + 0.5 * j / max(p - 1, 1)
        b = _r(c * a * np.exp(a * x_opt))
        term = f"{c}*exp({a}*x{j}) - {b}*x{j}"
        if wiggle:
            w = _jitter(rng, 8.0, 0.05)
            term += f" + {_jitter(rng, 0.15, 0.1)}*sin({w}*x{j})*exp(-2*x{j})"
        terms[f"x{j}"] = term
        top += c * np.exp(2.0 * a)
    constraints = tuple(
        Linear({f"x{j}": 1.0, f"x{j + 1}": 1.0}, _jitter(rng, 3.0, 0.05))
        for j in range(0, p - 1, 2)
    )
    shape = []
    for j in range(p):
        shape += [f"convex x{j}", f"monotone x{j} up"]
    if bounds:
        shape.append(f"bounds [{-5 * p}, {_r(0.9 * top)}]")
    return Spec(name, variables, terms, constraints, tuple(shape), intervals=k)


def shape_fit() -> list[Spec]:
    rng = np.random.default_rng([DATA_SEED, 1])
    cases = [shipped("convex_shaped")]
    for i, (p, k, wiggle, bounds) in enumerate(SHAPE_CASES):
        cases.append(_shape_instance(rng, f"shape{i}_p{p}_k{k}", p, k, wiggle, bounds))
    return cases


# ---------------------------------------------------------------------------
# int_bnb

INT_COPIES = 2


def _int_instance(rng, name) -> Spec:
    variables = []
    terms = {}
    constraints = []
    for j, (a, d, c, r) in enumerate(
        ((1.0, 0.5, 3.4, 2.2), (0.8, 0.8, 2.6, 2.0), (1.2, 0.3, 4.3, 2.4))
    ):
        x, n = f"x{j}", f"n{j}"
        variables += [Var(x, 0.0, 2.0), Var(n, 0.0, 6.0, integer=True)]
        terms[x] = f"{_jitter(rng, a, 0.05)}*({x} - {_jitter(rng, d, 0.05)})^2"
        terms[n] = f"0.3*({n} - {_jitter(rng, c, 0.03)})^2"
        constraints.append(Linear({x: -1.0, n: -0.5}, -_jitter(rng, r, 0.03)))
    constraints.append(Linear({"n0": 2.0, "n1": 3.0, "n2": 4.0}, 17.0))
    return Spec(name, tuple(variables), terms, tuple(constraints), intervals=20)


def int_bnb() -> list[Spec]:
    rng = np.random.default_rng([DATA_SEED, 2])
    cases = [shipped("mixed_integer")]
    cases += [_int_instance(rng, f"int{i}") for i in range(INT_COPIES)]
    return cases


# ---------------------------------------------------------------------------
# cont_spatial

SPATIAL_COPIES = 2


def _spatial_instance(rng, name) -> Spec:
    variables = tuple(Var(f"x{j}", 0.0, 2.0) for j in range(6))
    terms = {}
    for j, a in enumerate((4.0, 5.0, 3.5, 4.5, 5.5, 3.8)):
        terms[f"x{j}"] = (
            f"sin({_jitter(rng, a, 0.03)}*x{j}) + {_jitter(rng, 0.5, 0.1)}*(x{j} - 1)^2"
        )
    constraints = tuple(
        Linear({f"x{2 * i}": 1.0, f"x{2 * i + 1}": 1.0}, _jitter(rng, r, 0.03))
        for i, r in enumerate((2.4, 2.0, 2.6))
    )
    return Spec(name, variables, terms, constraints, intervals=20)


def cont_spatial() -> list[Spec]:
    rng = np.random.default_rng([DATA_SEED, 3])
    cases = [shipped("waves2")]
    cases += [_spatial_instance(rng, f"spatial{i}") for i in range(SPATIAL_COPIES)]
    return cases


GENERATORS = {"shape_fit": shape_fit, "int_bnb": int_bnb, "cont_spatial": cont_spatial}


def build(workload: str, seed: int) -> list[Spec]:
    """The workload's instances: data from ``DATA_SEED``, variable names of
    the generated instances from ``seed``. Shipped instances keep their
    text."""
    rng = np.random.default_rng([seed, 0])
    return [
        spec if spec.text is not None else relabel(spec, rng)
        for spec in GENERATORS[workload]()
    ]


def relabel(spec: Spec, rng) -> Spec:
    """The same instance with every variable renamed to a seed-drawn prefix
    plus its original name; declaration order is kept."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    prefix = "".join(rng.choice(list(letters), size=3))
    names = {v.name: prefix + v.name for v in spec.variables}
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")

    def sub(text: str) -> str:
        return pattern.sub(lambda m: names[m.group(1)], text)

    return dataclasses.replace(
        spec,
        variables=tuple(dataclasses.replace(v, name=names[v.name]) for v in spec.variables),
        terms={names[n]: sub(t) for n, t in spec.terms.items()},
        constraints=tuple(
            Linear({names[n]: a for n, a in c.coeffs.items()}, c.rhs)
            for c in spec.constraints
        ),
        shape=tuple(sub(line) for line in spec.shape),
    )
