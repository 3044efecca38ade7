"""Acceptance gate: one criterion per test, each printing a PASS/FAIL line.

The lines are written to the unbuffered real stdout so they survive pytest's
capture and appear in tee'd output.
"""

import functools
import math
import sys
import time

import numpy as np
import pytest
import scipy.optimize

from missoc.bnb import optimality_gap, solve
from missoc.problems import (
    MissocConfig,
    parse_instance,
    run_missoc,
    sample_training,
)
from missoc.regression import (
    TrainingSet,
    block_slices,
    fit_additive,
)
from missoc.shapecon import (
    CONCAVE,
    CONVEX,
    DECREASING,
    INCREASING,
    ShapeSpec,
    fit_constrained,
)
from missoc.splines import (
    design_matrix,
    interval_index,
    make_basis,
    to_piecewise_poly,
)
from missoc.surrogate import build_surrogate, eval_surrogate_at


# one verdict line per criterion; replayed by conftest in the terminal
# summary so the lines survive pytest's output capture
VERDICTS: list[str] = []


def _emit(n, verdict, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[criterion {n}] {verdict}{tail}"
    VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


def criterion(n):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                _emit(n, "SKIP", str(exc))
                raise
            except BaseException as exc:
                _emit(n, "FAIL", type(exc).__name__)
                raise
            _emit(n, "PASS")

        return wrapper

    return deco


def identifiability_rows(bases, X):
    """Square-root factor of the identifiability penalty: one row per
    covariate holding the column sums of its design block."""
    B = design_matrix(X, bases)
    rows = np.zeros((len(bases), B.shape[1]))
    for j, sl in enumerate(block_slices(bases)):
        rows[j, sl] = B[:, sl].sum(axis=0)
    return B, rows


def penalized_objective(B, rows, y, theta):
    r = y - B @ theta
    return float(r @ r + np.sum((rows @ theta) ** 2))


def deriv_design(basis, xs, order):
    """Grid values of the order-th derivative of each basis function; each
    interval's polynomial is evaluated on all of its grid points at once,
    with the knot rule of ``PiecewisePoly.__call__``."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((len(xs), basis.n_basis))
    for l in range(basis.n_basis):
        e = np.zeros(basis.n_basis)
        e[l] = 1.0
        pp = to_piecewise_poly(e, basis)
        for _ in range(order):
            pp = pp.derivative()
        q = interval_index(pp.breakpoints, xs)
        for i in np.unique(q):
            m = q == i
            out[m, l] = np.polynomial.polynomial.polyval(
                xs[m] - pp.breakpoints[i], pp.coeffs[i]
            )
    return out


@pytest.mark.parametrize("order", [0, 1, 2])
def test_deriv_design_equals_scalar_evaluation(order):
    # criterion 3's grids, plus the knots themselves
    for k, d in [(4, 2), (7, 3), (12, 5)]:
        basis = make_basis(-0.3, 1.7, k, d)
        grid = np.concatenate(
            [np.linspace(*basis.domain, 1000), basis.internal]
        )
        want = np.empty((len(grid), basis.n_basis))
        for l in range(basis.n_basis):
            e = np.zeros(basis.n_basis)
            e[l] = 1.0
            pp = to_piecewise_poly(e, basis)
            for _ in range(order):
                pp = pp.derivative()
            want[:, l] = [pp(x) for x in grid]
        np.testing.assert_array_equal(deriv_design(basis, grid, order), want)


def piecewise_values(comp, xs):
    """Vectorized evaluation of a surrogate component's piecewise polynomial."""
    bp = np.asarray(comp.breakpoints)
    q = np.clip(np.searchsorted(bp, xs, side="right") - 1, 0, comp.k - 1)
    out = np.empty_like(xs, dtype=float)
    for i in range(comp.k):
        m = q == i
        if m.any():
            out[m] = np.polynomial.polynomial.polyval(
                xs[m] - bp[i], comp.piece.coeffs[i]
            )
    return out


def surrogate_grid_min(surr, axes, masks=()):
    """Brute-force minimum of the separable surrogate over a product grid."""
    parts = []
    for comp, xs in zip(surr.components, axes):
        parts.append(
            piecewise_values(comp, xs) + surr.linear.get(comp.var, 0.0) * xs
        )
    p = len(parts)
    total = surr.constant
    for j, part in enumerate(parts):
        shape = [1] * p
        shape[j] = -1
        total = total + part.reshape(shape)
    feasible = np.ones(total.shape, dtype=bool)
    rows = surr.constraint_rows
    for a, const, eq in zip(rows.A, rows.b, rows.eq):
        val = np.full(total.shape, const)
        idx = {c.var: j for j, c in enumerate(surr.components)}
        for v, coeff in zip(surr.variables, a):
            if not coeff:
                continue
            shape = [1] * p
            shape[idx[v.name]] = -1
            val = val + coeff * axes[idx[v.name]].reshape(shape)
        if eq:
            feasible &= np.abs(val) <= 1e-9
        else:
            feasible &= val <= 1e-12
    return float(np.where(feasible, total, np.inf).min())


@criterion(1)
def test_criterion_1_spline_core():
    t0 = time.perf_counter()
    xs = np.linspace(-0.5, 1.5, 1000)
    for d in range(1, 8):
        for k in range(1, 21):
            basis = make_basis(-0.5, 1.5, k, d)
            M = basis.eval_matrix(xs)
            assert np.abs(M.sum(axis=1) - 1.0).max() <= 1e-12

    rng = np.random.default_rng(100)
    for k, d in [(3, 1), (5, 3), (10, 3), (20, 7)]:
        basis = make_basis(0.0, 1.0, k, d)
        theta = rng.normal(size=basis.n_basis)
        pp = to_piecewise_poly(theta, basis)
        pts = rng.uniform(0.0, 1.0, size=200)
        want = basis.eval_matrix(pts) @ theta
        got = np.array([pp(x) for x in pts])
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() <= 1e-9 * scale
    assert time.perf_counter() - t0 < 1.0


@criterion(2)
def test_criterion_2_unconstrained_fit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    for trial in range(20):
        p = int(rng.integers(1, 4))
        n = int(rng.integers(60, 501))
        d = [int(rng.integers(1, 5)) for _ in range(p)]
        k = [int(rng.integers(2, 9)) for _ in range(p)]
        X = rng.uniform(0.0, 1.0, size=(n, p))
        y = sum(
            np.sin((3 + j) * X[:, j]) + 0.4 * X[:, j] ** 2 for j in range(p)
        ) + 0.05 * rng.normal(size=n)
        T = TrainingSet(X=X, y=y)
        fit = fit_additive(T, degrees=d, intervals=k)
        theta = np.concatenate([[fit.intercept], *fit.coefficients])
        B, rows = identifiability_rows(fit.bases, X)

        normal_lhs = (B.T @ B + rows.T @ rows) @ theta
        normal_rhs = B.T @ y
        scale = max(1.0, np.abs(normal_rhs).max())
        assert np.abs(normal_lhs - normal_rhs).max() <= 1e-8 * scale

        assert abs(fit.intercept - y.mean()) <= 1e-8 * max(1.0, abs(y.mean()))

        for j, sl in enumerate(block_slices(fit.bases)):
            defect = abs(float(B[:, sl].sum(axis=0) @ fit.coefficients[j]))
            assert defect <= 1e-6 * n

        # independent oracle: least squares on the augmented system
        aug = np.vstack([B, rows])
        rhs = np.concatenate([y, np.zeros(len(rows))])
        theta_star, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        got = penalized_objective(B, rows, y, theta)
        want = penalized_objective(B, rows, y, theta_star)
        assert abs(got - want) <= 1e-8 * (1.0 + abs(want))
    assert time.perf_counter() - t0 < 10.0


def _random_shape_trial(rng, kind):
    n = 80
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    y = (
        0.8 * np.sin(rng.uniform(5, 10) * X[:, 0])
        + rng.uniform(-1, 1) * X[:, 0]
        + 0.05 * rng.normal(size=n)
    )
    T = TrainingSet(X=X, y=y)
    alpha = y.mean()
    d = int(rng.integers(2, 6))
    k = int(rng.integers(2, 11))
    u = rng.uniform(0.3, 0.8)
    if kind == "lower":
        spec = ShapeSpec(lower=alpha - u)
    elif kind == "upper":
        spec = ShapeSpec(upper=alpha + u)
    elif kind == "both":
        spec = ShapeSpec(lower=alpha - u, upper=alpha + u)
    elif kind == "mono_up":
        spec = ShapeSpec(monotone={"x1": INCREASING})
    elif kind == "mono_down":
        spec = ShapeSpec(monotone={"x1": DECREASING})
    elif kind == "convex":
        spec = ShapeSpec(curvature={"x1": CONVEX})
    elif kind == "concave":
        spec = ShapeSpec(curvature={"x1": CONCAVE})
    else:  # mono+bounds
        spec = ShapeSpec(lower=alpha - u, monotone={"x1": INCREASING})
    return T, d, k, spec


def _oracle_constraints(fit, spec, grid):
    """(A, b) rows meaning A theta >= b, discretized on the grid."""
    basis = fit.bases[0]
    alpha = fit.intercept
    Bg = basis.eval_matrix(grid)
    A_rows, b_rows = [], []
    if spec.lower is not None:
        A_rows.append(Bg)
        b_rows.append(np.full(len(grid), spec.lower - alpha))
    if spec.upper is not None:
        A_rows.append(-Bg)
        b_rows.append(np.full(len(grid), -(spec.upper - alpha)))
    if spec.monotone:
        D1 = deriv_design(basis, grid, 1)
        sign = 1.0 if spec.monotone["x1"] == INCREASING else -1.0
        A_rows.append(sign * D1)
        b_rows.append(np.zeros(len(grid)))
    if spec.curvature:
        D2 = deriv_design(basis, grid, 2)
        sign = 1.0 if spec.curvature["x1"] == CONVEX else -1.0
        A_rows.append(sign * D2)
        b_rows.append(np.zeros(len(grid)))
    return np.vstack(A_rows), np.concatenate(b_rows)


def _penalty_oracle(B1, rows1, yc, A, b, theta0):
    """Quadratic-penalty method for min obj(theta) s.t. A theta >= b.

    Constraint rows are normalized so the penalty stays well conditioned as
    rho grows; the final iterate is polished against the explicit grid
    constraints and kept only if it improves."""
    norms = np.linalg.norm(A, axis=1)
    norms[norms == 0] = 1.0
    A = A / norms[:, None]
    b = b / norms

    def obj_and_grad(th):
        r = yc - B1 @ th
        return (
            float(r @ r + np.sum((rows1 @ th) ** 2)),
            2 * (B1.T @ (B1 @ th - yc)) + 2 * rows1.T @ (rows1 @ th),
        )

    theta = theta0.copy()
    for rho in 10.0 ** np.arange(2, 10):
        def fg(th):
            val, grad = obj_and_grad(th)
            pen = np.maximum(0.0, b - A @ th)
            return val + rho * pen @ pen, grad - 2 * rho * (A.T @ pen)

        theta = scipy.optimize.minimize(
            fg, theta, jac=True, method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
        ).x
    res = scipy.optimize.minimize(
        lambda th: obj_and_grad(th)[0], theta,
        jac=lambda th: obj_and_grad(th)[1],
        method="SLSQP",
        constraints=[
            {"type": "ineq", "fun": lambda th: A @ th - b,
             "jac": lambda th: A}
        ],
        options={"maxiter": 1000, "ftol": 1e-14},
    )
    return res.x if res.fun < obj_and_grad(theta)[0] else theta


@criterion(3)
def test_criterion_3_shape_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    kinds = [
        "lower", "upper", "both", "mono_up", "mono_down",
        "convex", "concave", "mono_bounds",
    ]
    for trial in range(20):
        kind = kinds[trial % len(kinds)]
        T, d, k, spec = _random_shape_trial(rng, kind)
        fit, sol = fit_constrained(
            T, degrees=d, intervals=k, spec=spec, return_solution=True
        )
        basis = fit.bases[0]
        grid = np.linspace(*basis.domain, 1000)

        vals = fit.intercept + basis.eval_matrix(grid) @ fit.coefficients[0]
        if spec.lower is not None:
            assert vals.min() >= spec.lower - 1e-6
        if spec.upper is not None:
            assert vals.max() <= spec.upper + 1e-6
        if spec.monotone:
            D1 = deriv_design(basis, grid, 1) @ fit.coefficients[0]
            sign = 1.0 if spec.monotone["x1"] == INCREASING else -1.0
            assert (sign * D1).min() >= -1e-6
        if spec.curvature:
            D2 = deriv_design(basis, grid, 2) @ fit.coefficients[0]
            sign = 1.0 if spec.curvature["x1"] == CONVEX else -1.0
            assert (sign * D2).min() >= -1e-6

        for Z in sol.Z:
            assert np.linalg.eigvalsh(Z).min() >= -1e-8

        B, rows = identifiability_rows(fit.bases, T.X)
        B1, rows1 = B[:, 1:], rows[:, 1:]
        yc = T.y - fit.intercept
        A, b = _oracle_constraints(fit, spec, np.linspace(*basis.domain, 2000))
        theta0 = np.linalg.solve(
            B1.T @ B1 + rows1.T @ rows1, B1.T @ yc
        )
        theta_pen = _penalty_oracle(B1, rows1, yc, A, b, theta0)

        def obj(th):
            r = yc - B1 @ th
            return float(r @ r + np.sum((rows1 @ th) ** 2))

        got, want = obj(fit.coefficients[0]), obj(theta_pen)
        assert abs(got - want) <= 1e-4 * (1.0 + abs(want))

    # bivariate demo: production-style data constrained into a fixed band
    L, U = 2.595, 24.089
    rng = np.random.default_rng(301)
    X = rng.uniform(0.0, 1.0, size=(300, 2))
    y = (
        3.0
        + 18.0 * X[:, 0]
        + 6.0 * np.sin(3 * X[:, 1])
        + 0.5 * rng.normal(size=300)
    )
    fit = fit_constrained(
        TrainingSet(X=X, y=y), degrees=3, intervals=6,
        spec=ShapeSpec(lower=L, upper=U),
    )
    g1 = np.linspace(*fit.bases[0].domain, 50)
    g2 = np.linspace(*fit.bases[1].domain, 50)
    surface = (
        fit.intercept
        + (fit.bases[0].eval_matrix(g1) @ fit.coefficients[0])[:, None]
        + (fit.bases[1].eval_matrix(g2) @ fit.coefficients[1])[None, :]
    )
    assert surface.min() >= L - 1e-6
    assert surface.max() <= U + 1e-6
    assert time.perf_counter() - t0 < 300.0


@criterion(4)
def test_criterion_4_surrogate_consistency():
    inst = parse_instance(
        "var x in [0, 2]; var y in [-1, 1];"
        "min sin(4*x) + exp(y) + cos(3*y);"
    )
    cfg = MissocConfig(degrees=3, intervals=10, seed=4)
    T = sample_training(inst, cfg)
    fit = fit_additive(
        T, degrees=3, intervals=10,
        domains=[(0.0, 2.0), (-1.0, 1.0)], labels=["x", "y"],
    )
    surr = build_surrogate(fit, inst)
    rng = np.random.default_rng(40)
    pts = np.column_stack(
        [rng.uniform(0.0, 2.0, 500), rng.uniform(-1.0, 1.0, 500)]
    )
    for x in pts:
        value, _ = eval_surrogate_at(surr, x)
        assert value == pytest.approx(fit.predict(x), abs=1e-9)

    six = parse_instance(
        "; ".join(f"var v{j} in [0, 1]" for j in range(6))
        + "; min " + " + ".join(f"sin({j + 2}*v{j})" for j in range(6)) + ";"
    )
    T6 = sample_training(six, MissocConfig(degrees=3, intervals=10, seed=6))
    fit6 = fit_additive(
        T6, degrees=3, intervals=10,
        domains=[(0.0, 1.0)] * 6, labels=[f"v{j}" for j in range(6)],
    )
    surr6 = build_surrogate(fit6, six)
    assert surr6.n_binaries == 60
    assert surr6.n_auxiliaries == 6 * (2 * 10 + 1)


SOLVER_INSTANCES = [
    "var x in [0, 7]; min sin(3*x) + 0.1*x^2;",
    "var x in [-2, 2]; min x^4 - 3*x^2 + 0.5*sin(8*x);",
    "var x in [0, 10]; min cos(x) + 0.05*(x - 4)^2;",
    "var a in [0, 1]; var b in [-1, 2];"
    "min sin(5*a) + b^4 - 1.2*b^2; st a + b <= 1.5;",
    "var a in [0, 1]; var b in [0, 1];"
    "min sin(9*a) + cos(7*b); st a + b >= 0.3;",
    "var a in [-1, 1]; var b in [-1, 1];"
    "min exp(a) + b^3 - b; st a - b <= 0.8;",
    "var a in [0, 2]; var b in [0, 2];"
    "min cos(4*a) + sin(5*b) + 0.2*a; st a + 2*b <= 3;",
    "var a in [0, 3]; var b in [0, 3];"
    "min sin(2*a)*1 + sin(3*b) + 0.1*a; st a + b >= 1;",
    # 3-variable instances use low frequencies: at 100 grid points per axis
    # the grid discretization error must stay well under the 1e-3 tolerance
    "var a in [0, 1]; var b in [0, 1]; var c in [0, 1];"
    "min sin(3*a) + cos(3*b) + (c - 0.4)^2; st a + b + c <= 2;",
    "var a in [0, 1]; var b in [0, 1]; var c in [0, 1];"
    "min cos(3*a) + sin(2*b) + exp(c) - 2*c; st a + b - c <= 1.2;",
]

GRID_POINTS = {1: 1_000_000, 2: 1000, 3: 100}


def _solver_surrogate(text):
    inst = parse_instance(text)
    cfg = MissocConfig(degrees=3, intervals=10, seed=5)
    T = sample_training(inst, cfg)
    names = inst.covariates()
    idx = inst.var_index()
    domains = [
        (inst.variables[idx[nm]].lower, inst.variables[idx[nm]].upper)
        for nm in names
    ]
    fit = fit_additive(
        T, degrees=3, intervals=10, domains=domains, labels=names
    )
    return build_surrogate(fit, inst)


@criterion(5)
def test_criterion_5_global_solver_oracle():
    t0 = time.perf_counter()
    for text in SOLVER_INSTANCES:
        surr = _solver_surrogate(text)
        r1 = solve(surr, gap_tol=1e-4)
        r2 = solve(surr, gap_tol=1e-4)
        assert r1.status == "optimal"
        assert r1.objective == r2.objective
        assert r1.nodes == r2.nodes
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.gap_pct <= 1e-4 * 100 + 1e-9

        p = len(surr.components)
        axes = []
        idx = surr.var_index()
        for comp in surr.components:
            v = surr.variables[idx[comp.var]]
            axes.append(np.linspace(v.lower, v.upper, GRID_POINTS[p]))
        want = surrogate_grid_min(surr, axes)
        assert abs(r1.objective - want) <= 1e-3
    assert time.perf_counter() - t0 < 600.0


@criterion(6)
def test_criterion_6_end_to_end_self_consistency():
    t0 = time.perf_counter()
    text = (
        "var x in [-1, 1]; var y in [0, 2];"
        "min x^3 - 0.8*x + 0.25*y^3 - y^2 + 0.5*y;"
        "st x + y >= -0.2;"
    )
    inst = parse_instance(text)
    report = run_missoc(inst, MissocConfig(degrees=3, intervals=10, seed=6))
    assert report.status.startswith("optimal")

    xs = np.linspace(-1.0, 1.0, 1000)
    ys = np.linspace(0.0, 2.0, 1000)
    fx = xs**3 - 0.8 * xs
    fy = 0.25 * ys**3 - ys**2 + 0.5 * ys
    total = fx[:, None] + fy[None, :]
    feasible = xs[:, None] + ys[None, :] >= -0.2
    want = float(np.where(feasible, total, np.inf).min())
    assert report.objective == pytest.approx(want, abs=1e-3)
    assert time.perf_counter() - t0 < 120.0


PAPER_TARGETS = {
    "ex6_2_13": -0.216,
    "ex6_2_5": -70.558,
    "ex6_2_7": -0.161,
}


@criterion(7)
def test_criterion_7_benchmark_reproduction():
    import importlib.resources

    root = importlib.resources.files("missoc") / "instances"
    missing = [
        name for name in PAPER_TARGETS
        if not (root / f"{name}.miss").is_file()
    ]
    if missing:
        pytest.skip(
            "benchmark transcriptions unavailable: "
            + ", ".join(missing)
            + "; the original formulations could not be obtained in this "
            "environment and fabricating them would invalidate the check"
        )
    for name, target in PAPER_TARGETS.items():
        inst = parse_instance(
            (root / f"{name}.miss").read_text(), name=name
        )
        best = math.inf
        for seed in (0, 1, 2):
            report = run_missoc(
                inst, MissocConfig(seed=seed, time_limit=600.0)
            )
            if report.x is not None:
                best = min(best, report.objective)
        assert best == pytest.approx(target, abs=1e-2)


@criterion(8)
def test_criterion_8_gap_formula():
    assert optimality_gap(5.0, 5.0) == 0.0
    assert abs(optimality_gap(100.0, 90.0) - 10.0) <= 1e-12
    assert abs(optimality_gap(-0.216, -0.226) - 100.0 * 0.01 / 0.216) <= 1e-12
    assert abs(optimality_gap(2.0, -1.0) - 150.0) <= 1e-12
    assert abs(optimality_gap(-1.0, -1.0)) <= 1e-12
    assert optimality_gap(0.0, -1e-9) == math.inf
    assert optimality_gap(0.0, 1e-9) == math.inf
    assert optimality_gap(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        optimality_gap(math.inf, 0.0)
    with pytest.raises(ValueError):
        optimality_gap(math.nan, 0.0)
