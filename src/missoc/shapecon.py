"""Shape-constrained additive model fitting.

Bounds, monotonicity, and convexity of each fitted component are enforced
over the whole observed domain through per-interval nonnegativity
certificates in Markov-Lukacs form (Lukacs 1918; Papp & Alizadeh 2014). In
the local variable s = (x - t_lo) / h of an interval of width h, a
polynomial p of degree d is nonnegative on [0, 1] exactly when

    p = s sigma_0 + (1 - s) sigma_1          (d odd),
    p = sigma_0 + s (1 - s) sigma_1          (d even),

with sigma_0, sigma_1 sums of squares, each a Gram form v' Z v with Z PSD
and v the Bernstein basis of its degree. Matching the d + 1 Bernstein
coefficients of p in s gives d + 1 linear rows coupling the two Gram
matrices (one cone when d = 0) to the regression coefficients, with no
zero row; the coefficients of p in s come from the basis-segment maps
(``splines.segment_maps`` at the interval starts) scaled by h^i, and
``splines.bernstein_map`` takes them to the Bernstein basis. Bernstein
rows and Gram bases keep the certificate as well conditioned as the
interval allows (monomial ones left the interior-point solver short of
its tolerances on some single certificates of degree 3 to 5). A cubic
spline needs only 1 x 1 and 2 x 2 cones.

One shape map's certificates on a covariate's k intervals form a family:
a (k, d_eff+1, dim) stack of maps in s and one ``ConicBlock`` whose k blocks
share the Lukacs selectors. ``shape_violation`` checks those maps on a grid
in s, so a domain far from 0 reads no rounding as a violation.

Monotonicity and convexity reuse the same machinery on the derivative (or
second-derivative) coefficient map, exact integers from ``splines.poly_der``,
with cones one (or two) degrees smaller.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .conic import (
    ConicBlock,
    ConicConvergenceError,
    ConicInfeasibleError,
    ConicProblem,
    regularised_cholesky,
    solve_conic,
)
from .regression import (
    AdditiveModelFit,
    TrainingSet,
    coefficient_slices,
    fitted_model,
    identifiability_penalty,
    make_bases,
)
from .splines import (
    BSplineBasis, bernstein_map, design_matrix, horner, poly_der, segment_maps,
)


class InfeasibleSpecError(ValueError):
    """The shape specification admits no feasible coefficient vector."""


class ShapeFitConvergenceError(RuntimeError):
    """The conic solve hit its iteration cap; best iterate attached."""

    def __init__(self, message: str, best_fit: AdditiveModelFit):
        super().__init__(message)
        self.best_fit = best_fit


VIOLATION_GRID = 65  # points per interval at which shape_violation looks

INCREASING = "increasing"
DECREASING = "decreasing"
CONVEX = "convex"
CONCAVE = "concave"


@dataclass(frozen=True)
class PointwiseSet:
    """Training indices constrained against their observed responses."""

    relation: str  # "=", "<=" (underestimation) or ">=" (overestimation)
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.relation not in ("=", "<=", ">="):
            raise ValueError(f"unknown pointwise relation {self.relation!r}")
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


@dataclass(frozen=True)
class ShapeSpec:
    """Shape requirements for a constrained fit.

    ``monotone`` and ``curvature`` map covariate labels to directions;
    weights, when given, must lie in (0,1) and sum to 1 per side.
    """

    lower: float | None = None
    upper: float | None = None
    weights_lower: tuple[float, ...] | None = None
    weights_upper: tuple[float, ...] | None = None
    monotone: dict[str, str] = field(default_factory=dict)
    curvature: dict[str, str] = field(default_factory=dict)
    pointwise: tuple[PointwiseSet, ...] = ()

    def __post_init__(self):
        for name in ("lower", "upper"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"shape bound {name} must be finite, got {value}")
        if self.lower is not None and self.upper is not None:
            if not self.lower < self.upper:
                raise ValueError("need lower < upper")
        for side in (self.weights_lower, self.weights_upper):
            if side is not None:
                w = np.asarray(side, dtype=float)
                if not np.isfinite(w).all():
                    raise ValueError(f"bound weights must be finite, got {side}")
                if abs(w.sum() - 1.0) > 1e-10:
                    raise ValueError("weights must sum to 1 per side")
                if np.any(w <= 0) or np.any(w >= 1):
                    if len(w) > 1:
                        raise ValueError("weights must lie in (0, 1)")
        for direction in self.monotone.values():
            if direction not in (INCREASING, DECREASING):
                raise ValueError(f"unknown monotone direction {direction!r}")
        for direction in self.curvature.values():
            if direction not in (CONVEX, CONCAVE):
                raise ValueError(f"unknown curvature {direction!r}")

    def check_fit(self, labels, degrees, n: int) -> None:
        """Raise ValueError naming the first covariate whose degree cannot
        carry the shape asked of it (monotonicity needs degree >= 1, a
        curvature degree >= 2), else the first pointwise index that is not
        a row of an n-row training set. ``degrees`` holds one degree per
        label."""
        for label, d in zip(labels, degrees):
            if label in self.monotone and d < 1:
                raise ValueError(f"monotonicity needs degree >= 1 on {label}")
            if label in self.curvature and d < 2:
                raise ValueError(f"convexity needs degree >= 2 on {label}")
        for i in (i for ps in self.pointwise for i in ps.indices):
            if not 0 <= i < n:
                raise ValueError(f"pointwise index {i} outside 0..{n - 1}")

    @property
    def is_empty(self) -> bool:
        return (
            self.lower is None
            and self.upper is None
            and not self.monotone
            and not self.curvature
            and not self.pointwise
        )


def lukacs_mats(d: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """Cone orders and (d+1, m, m) row selectors of the Markov-Lukacs
    certificate of a degree-d polynomial in s on [0, 1]: row r of
    sum_k <mats_k, Z_k> is the r-th Bernstein coefficient of
    s sigma_0 + (1 - s) sigma_1 (d odd) or sigma_0 + s (1 - s) sigma_1
    (d even), sigma_k = v' Z_k v with v the Bernstein basis of degree
    order - 1. Every selector entry is nonnegative."""

    def gram(m: int, shift: int, factor) -> np.ndarray:
        # B_j B_l = C(k, j) C(k, l) / C(n, i) B_{i,n} for the Bernstein
        # basis of degree k = m - 1, with n = 2k and i = j + l; the
        # multiplier turns B_{i,n} into factor(i, n) B_{i+shift,d}
        k, n = m - 1, 2 * m - 2
        out = np.zeros((d + 1, m, m))
        for j in range(m):
            for l in range(m):
                i = j + l
                w = math.comb(k, j) * math.comb(k, l) / math.comb(n, i)
                out[i + shift, j, l] = w * factor(i, n)
        return out

    def one(i, n):
        return 1.0

    k = d // 2
    if d % 2:
        # s B_{i,n} = (i+1)/(n+1) B_{i+1,n+1}, (1-s) B_{i,n} = (n+1-i)/(n+1) B_{i,n+1}
        return (k + 1, k + 1), (
            gram(k + 1, 1, lambda i, n: (i + 1) / (n + 1)),
            gram(k + 1, 0, lambda i, n: (n + 1 - i) / (n + 1)),
        )
    if k == 0:
        return (1,), (gram(1, 0, one),)
    # s (1-s) B_{i,n} = (i+1)(n+1-i)/((n+1)(n+2)) B_{i+1,n+2}
    return (k + 1, k), (
        gram(k + 1, 0, one),
        gram(k, 1, lambda i, n: (i + 1) * (n + 1 - i) / ((n + 1) * (n + 2))),
    )


def estimate_weights(
    fit: AdditiveModelFit, T: TrainingSet
) -> tuple[np.ndarray, np.ndarray]:
    """Data-driven per-covariate bound weights.

    Normalizes the per-component minima (maxima) over the training samples.
    Falls back to uniform weights with a warning when the normalized values
    leave (0, 1), which happens when some component minima (maxima) change
    sign across covariates.
    """
    p = fit.p
    if p == 1:
        return np.array([1.0]), np.array([1.0])
    mins = np.empty(p)
    maxs = np.empty(p)
    for j in range(p):
        vals = fit.component(j, T.X[:, j])
        mins[j], maxs[j] = vals.min(), vals.max()
    uniform = np.full(p, 1.0 / p)
    w_lo, w_up = uniform, uniform
    if mins.sum() != 0.0:
        cand = mins / mins.sum()
        if np.all((cand > 0) & (cand < 1)):
            w_lo = cand
    if maxs.sum() != 0.0:
        cand = maxs / maxs.sum()
        if np.all((cand > 0) & (cand < 1)):
            w_up = cand
    if w_lo is uniform or w_up is uniform:
        warnings.warn(
            "mixed-sign component extrema; falling back to uniform bound "
            "weights",
            stacklevel=2,
        )
    return w_lo, w_up


@dataclass
class ConicProgram:
    """Assembled constrained-fit program over the non-intercept coefficients.

    Collects the quadratic data plus equality rows, chunk by chunk, coupling
    the coefficient vector to families of PSD certificate blocks;
    ``to_problem`` freezes it for the interior-point solver.
    """

    Q: np.ndarray
    q: np.ndarray
    dim: int
    rows_C: list[np.ndarray] = field(default_factory=list)  # (r, dim) chunks
    rows_c: list[np.ndarray] = field(default_factory=list)  # (r,) chunks
    blocks: list[ConicBlock] = field(default_factory=list)
    # (maps, rhs, sign) per certificate family, for shape_violation
    certificates: list[tuple] = field(default_factory=list)
    # set by build_program: the design matrix without its intercept column,
    # and the spec with the bound weights the certificates were built with
    design: np.ndarray | None = field(default=None, init=False)
    spec: ShapeSpec | None = field(default=None, init=False)

    def add_rows(self, C: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Append the rows C theta = c, C of shape (..., dim); returns their
        indices in the shape of c."""
        c, start = np.asarray(c, dtype=float), sum(map(len, self.rows_c))
        self.rows_C.append(np.asarray(C, dtype=float).reshape(-1, self.dim))
        self.rows_c.append(c.ravel())
        return np.arange(start, start + c.size).reshape(c.shape)

    def add_certificates(self, families: list[tuple]) -> None:
        """Per family (maps, rhs, sign), require sign*(p_i - rhs) >= 0 for s
        in [0, 1] on each of k intervals, for the polynomial p_i whose
        power-basis coefficients in interval i's local variable
        s = (x - t_lo) / (t_hi - t_lo) are ``maps[i] @ theta``.

        ``maps`` is (k, d_eff+1, dim), the same k for every family; ``sign``
        is +1 for lower-type and -1 for upper-type constraints. A family's
        rows are the d_eff + 1 Bernstein coefficients in s of each
        interval's Markov-Lukacs certificate, one ``ConicBlock`` with the
        selectors of ``lukacs_mats`` shared by its k blocks. Rows run
        interval by interval, and within an interval family by family.
        """
        # A(Z) = sign*(p - rhs), Bernstein coefficient by coefficient; those
        # of the constant rhs all equal rhs
        C = [-sign * (bernstein_map(m.shape[1] - 1) @ m) for m, _, sign in families]
        c = [np.full(m.shape[:2], -sign * rhs) for m, rhs, sign in families]
        rows = self.add_rows(np.concatenate(C, axis=1), np.concatenate(c, axis=1))
        start = 0
        for maps, _, _ in families:
            orders, mats = lukacs_mats(maps.shape[1] - 1)
            end = start + maps.shape[1]
            self.blocks.append(ConicBlock(orders, rows[:, start:end], mats))
            start = end
        self.certificates += families

    def add_slack_rows(self, C: np.ndarray, c: np.ndarray) -> None:
        """C theta <= c row by row, via a family of nonnegative 1x1 slack
        blocks."""
        rows = self.add_rows(C, c)
        self.blocks.append(ConicBlock((1,), rows[:, None], (np.ones((1, 1, 1)),)))

    def to_problem(self) -> ConicProblem:
        return ConicProblem(
            Q=self.Q,
            q=self.q,
            C=np.concatenate([np.zeros((0, self.dim))] + self.rows_C),
            c=np.concatenate([np.zeros(0)] + self.rows_c),
            blocks=self.blocks,
        )


def add_pointwise_rows(
    program: ConicProgram,
    B1: np.ndarray,
    y_centered: np.ndarray,
    sets: tuple[PointwiseSet, ...],
) -> None:
    """Append interpolation / under- / over-estimation rows, one chunk (and
    for ``<=``/``>=`` one slack family) per set.

    ``B1`` is the design matrix without the intercept column and
    ``y_centered`` the responses with the (fixed) intercept removed; empty
    index sets are a no-op.
    """
    for ps in sets:
        if not ps.indices:
            continue
        rows, rhs = B1[list(ps.indices)], y_centered[list(ps.indices)]
        if ps.relation == "=":
            program.add_rows(rows, rhs)
        elif ps.relation == "<=":
            program.add_slack_rows(rows, rhs)
        else:  # ">="
            program.add_slack_rows(-rows, -rhs)


def build_program(
    T: TrainingSet,
    bases: list[BSplineBasis],
    spec: ShapeSpec,
    margin: float = 0.0,
) -> tuple[ConicProgram, float]:
    """Assemble the conic program for a constrained fit; returns it together
    with the frozen intercept (the response mean).

    A positive ``margin`` tightens every shape certificate from ``>= 0`` to
    ``>= margin``, which is how the restoration pass in ``fit_constrained``
    absorbs the interior-point solver's finite feasibility accuracy.

    Bound weights the spec leaves open are estimated from the regularised
    unconstrained fit; ``program.spec`` holds the spec with the weights
    used, so a rebuild with it reuses them.
    """
    alpha = float(T.y.mean())
    B1 = design_matrix(T.X, bases)[:, 1:]
    slices = coefficient_slices(bases)
    y_c = T.y - alpha

    penalty = identifiability_penalty([B1[:, s] for s in slices])[1:, 1:]
    # 1/n objective scaling keeps the quadratic data on the same footing as
    # the O(1) certificate rows without moving the minimizer
    Q = (2.0 / T.n) * (B1.T @ B1 + penalty)
    q = (-2.0 / T.n) * (B1.T @ y_c)
    program = ConicProgram(Q=Q, q=q, dim=B1.shape[1])
    program.design = B1

    p = len(bases)
    needs_bounds = spec.lower is not None or spec.upper is not None
    if needs_bounds:
        w_lo = w_up = None
        if spec.weights_lower is not None:
            w_lo = np.asarray(spec.weights_lower, dtype=float)
        if spec.weights_upper is not None:
            w_up = np.asarray(spec.weights_upper, dtype=float)
        if (spec.lower is not None and w_lo is None) or (
            spec.upper is not None and w_up is None
        ):
            unconstrained = scipy.linalg.cho_solve(regularised_cholesky(Q)[0], -q)
            base_fit = fitted_model(alpha, unconstrained, bases, B1, T.y)
            est_lo, est_up = estimate_weights(base_fit, T)
            w_lo = est_lo if w_lo is None else w_lo
            w_up = est_up if w_up is None else w_up
            spec = replace(
                spec, weights_lower=tuple(w_lo), weights_upper=tuple(w_up)
            )
        for w, side in ((w_lo, spec.lower), (w_up, spec.upper)):
            if side is not None and len(w) != p:
                raise ValueError(
                    f"bound weights must have one entry per covariate ({p})"
                )
    program.spec = spec
    spec.check_fit([b.label for b in bases], [b.degree for b in bases], T.n)

    for j, (basis, s) in enumerate(zip(bases, slices)):
        d, k = basis.degree, basis.k
        # power-basis coefficients in x - t_lo of each interval
        G = segment_maps(basis, basis.internal[:-1])
        h = np.diff(basis.internal)
        cols = s.start + np.arange(k)[:, None, None] + np.arange(d + 1)
        eye = np.eye(d + 1)  # poly_der keeps its integers exact
        maps = []  # (coefficient map, rhs constant, sign)
        if spec.lower is not None:
            b = w_lo[j] * (spec.lower - alpha)
            maps.append((eye, b, +1.0))
        if spec.upper is not None:
            b = w_up[j] * (spec.upper - alpha)
            maps.append((eye, b, -1.0))
        direction = spec.monotone.get(basis.label)
        if direction is not None:
            sign = +1.0 if direction == INCREASING else -1.0
            maps.append((poly_der(eye).T, 0.0, sign))
        curv = spec.curvature.get(basis.label)
        if curv is not None:
            sign = +1.0 if curv == CONVEX else -1.0
            maps.append((poly_der(poly_der(eye)).T, 0.0, sign))

        families = []
        for transform, b, sign in maps:
            d_eff = transform.shape[0] - 1
            # coefficients in s = (x - t_lo) / h: scale the i-th by h^i
            h_pow = h[:, None, None] ** np.arange(d_eff + 1)[:, None]
            local = np.zeros((k, d_eff + 1, program.dim))
            np.put_along_axis(local, cols, h_pow * (transform @ G), axis=2)
            # sign*(p - b) >= margin  <=>  sign*(p - (b + sign*margin)) >= 0
            families.append((local, b + sign * margin, sign))
        if families:
            program.add_certificates(families)

    if spec.pointwise:
        _check_pointwise_consistency(T, spec, alpha)
        add_pointwise_rows(program, B1, y_c, spec.pointwise)
    return program, alpha


def _check_pointwise_consistency(T: TrainingSet, spec: ShapeSpec, alpha: float):
    for ps in spec.pointwise:
        for i in ps.indices:
            y = T.y[i]
            if ps.relation in ("=", ">=") and spec.upper is not None:
                if y > spec.upper + 1e-12:
                    raise InfeasibleSpecError(
                        f"pointwise target y[{i}]={y} exceeds upper bound "
                        f"{spec.upper}"
                    )
            if ps.relation in ("=", "<=") and spec.lower is not None:
                if y < spec.lower - 1e-12:
                    raise InfeasibleSpecError(
                        f"pointwise target y[{i}]={y} below lower bound "
                        f"{spec.lower}"
                    )


def shape_violation(program: ConicProgram, theta: np.ndarray) -> float:
    """Worst infringement of the program's shape certificates at ``theta``.

    Each certificate demands sign*(p(s) - rhs) >= 0 for s in [0, 1], in
    the local variable of its interval, where its rows are built; the
    return value is the largest negative excursion over a grid of
    VIOLATION_GRID points in s (0.0 when every certificate holds everywhere
    sampled). Each family's k certificates are evaluated with one matmul and
    one Horner pass.
    """
    u = np.linspace(0.0, 1.0, VIOLATION_GRID)[None]
    worst = 0.0
    for maps, rhs, sign in program.certificates:
        coeffs = maps @ theta
        coeffs[:, 0] -= rhs
        worst = max(worst, float(-(sign * horner(coeffs, u)).min()))
    return worst


def _restored_solution(T, bases, program, sol):
    """Re-solve with tightened certificates when the returned iterate leaves a
    measurable shape violation.

    The interior-point solver has a finite feasibility floor on hard
    instances (it may stop with a primal residual around 1e-6 relative);
    demanding certificates >= margin instead of >= 0 places that floor
    strictly inside the true feasible set. The margin escalates until the
    unmargined certificates verify on a grid, and the original iterate is
    kept if restoration cannot do better. Each rebuild reuses the bound
    weights of the first build (``program.spec``).
    """
    viol = shape_violation(program, sol.theta)
    if viol == 0.0:
        return sol
    margin = 4.0 * viol
    best = sol
    best_viol = viol
    for _ in range(3):
        prog_m, _ = build_program(T, bases, program.spec, margin=margin)
        try:
            cand = solve_conic(prog_m.to_problem())
        except (ConicInfeasibleError, ConicConvergenceError):
            break
        cand_viol = shape_violation(program, cand.theta)
        if cand_viol < best_viol:
            best, best_viol = cand, cand_viol
        if cand_viol == 0.0:
            break
        margin *= 4.0
    return best


def fit_constrained(
    T: TrainingSet,
    degrees,
    intervals,
    spec: ShapeSpec,
    domains=None,
    labels=None,
    return_solution: bool = False,
):
    """Fit the additive model subject to the shape specification.

    The intercept is frozen at the response mean before the constraint system
    is built; the remaining coefficients solve the penalized least-squares
    objective restricted to the certified feasible set.
    """
    bases = make_bases(T, degrees, intervals, domains, labels)
    program, alpha = build_program(T, bases, spec)
    try:
        sol = solve_conic(program.to_problem())
    except ConicInfeasibleError as exc:
        raise InfeasibleSpecError(str(exc)) from exc
    except ConicConvergenceError as exc:
        best_fit = fitted_model(alpha, exc.best.theta, bases, program.design, T.y)
        raise ShapeFitConvergenceError(str(exc), best_fit) from exc
    sol = _restored_solution(T, bases, program, sol)
    fit = fitted_model(alpha, sol.theta, bases, program.design, T.y)
    if return_solution:
        return fit, sol
    return fit
