"""Assembly of the surrogate MINLP via the multiple-choice formulation.

The fitted additive model replaces the nonlinear part of the objective: per
covariate j and knot interval q there is a binary y_jq selecting the
interval, a deviation x_jq in [0, width_jq * y_jq], and the interval value
sigma'_jq = c_jq0 y_jq + sum_d c_jqd x_jq^d in the shifted power basis.
Exactly one interval is active per covariate, x_j = sum_q (y_jq t_jq + x_jq),
and the objective is the intercept plus the carried-through affine part of
the original objective plus sum_j sigma_j.

An integer covariate whose box [lo, hi] holds at most k_j integers, so
takes at most the spline's k_j intervals, is lifted over its integer points
instead (``integer_points_lift``): the piecewise-linear interpolant of the
fitted spline over the unit intervals [i, i + 1], closed by a zero-width
interval at hi. It is exact at every integer, so on the whole feasible set,
and its multiple-choice model is locally ideal (Vielma, Ahmed & Nemhauser
2010): the LP relaxation of the component is the convex hull of its points.
A wider box keeps the spline's intervals, so no lift adds binaries.

The original constraints are carried through untouched, as the instance's
one record of them (``ProblemInstance.constraint_rows``): the affine ones as
the rows the solver embeds in its linear relaxations, the others as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import unparse
from .regression import AdditiveModelFit
from .splines import PiecewisePoly, horner, to_piecewise_poly

DOMAIN_TOL = 1e-9


class DomainMismatchError(ValueError):
    """A variable box extends beyond the fitted knot range."""


@dataclass(frozen=True)
class SurrogateComponent:
    """One covariate's piecewise-polynomial objective contribution."""

    var: str
    piece: PiecewisePoly

    @property
    def k(self) -> int:
        return self.piece.k

    @property
    def degree(self) -> int:
        return self.piece.degree

    @property
    def breakpoints(self) -> np.ndarray:
        return self.piece.breakpoints

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.piece.breakpoints)


@dataclass(frozen=True)
class SurrogateMINLP:
    constant: float  # fitted intercept plus affine constant of g_0
    linear: dict[str, float]  # affine carry-through coefficients by variable
    components: tuple[SurrogateComponent, ...]
    variables: tuple  # original Variable records, declaration order
    constraint_rows: object  # the instance's problems.ConstraintRows

    @property
    def n_binaries(self) -> int:
        """The multiple-choice formulation's binaries, y_jq per interval.
        The built-in solver relaxes a component convex on its whole domain
        by tangents on (x_j, sigma_j) alone, without its y_jq
        (``SolveReport.convex_components`` counts those); this count is the
        formulation's all the same."""
        return sum(c.k for c in self.components)

    @property
    def n_auxiliaries(self) -> int:
        """Added continuous variables of the formulation: x_jq and
        sigma'_jq per interval plus sigma_j per covariate."""
        return sum(2 * c.k + 1 for c in self.components)

    def var_index(self) -> dict[str, int]:
        return {v.name: j for j, v in enumerate(self.variables)}


def build_surrogate(fit: AdditiveModelFit, instance) -> SurrogateMINLP:
    """Assemble the surrogate MINLP from a fit and the original instance by
    substituting the fitted model for the nonlinear part of the objective."""
    const, coeffs, _ = instance.complicating_split
    covariates = instance.covariates()
    labels = tuple(b.label for b in fit.bases)
    if labels != covariates:
        raise ValueError(
            f"fit covariates {labels} do not match the instance's nonlinear "
            f"variables {covariates}"
        )

    idx = instance.var_index()
    components = []
    for basis in fit.bases:
        v = instance.variables[idx[basis.label]]
        lo, hi = basis.domain
        if v.lower < lo - DOMAIN_TOL or v.upper > hi + DOMAIN_TOL:
            raise DomainMismatchError(
                f"box [{v.lower}, {v.upper}] of {v.name} exceeds the fitted "
                f"knot range [{lo}, {hi}]"
            )
    for j, basis in enumerate(fit.bases):
        piece = to_piecewise_poly(fit.coefficients[j], basis)
        # an integer variable's box ends at integers (``parse_instance``);
        # at most k of them take at most the spline's k intervals
        v = instance.variables[idx[basis.label]]
        if v.integer and v.upper - v.lower < basis.k:
            piece = integer_points_lift(piece, np.arange(v.lower, v.upper + 1.0))
        components.append(SurrogateComponent(var=basis.label, piece=piece))

    return SurrogateMINLP(
        constant=fit.intercept + const,
        linear=dict(coeffs),
        components=tuple(components),
        variables=tuple(instance.variables),
        constraint_rows=instance.constraint_rows,
    )


def integer_points_lift(piece: PiecewisePoly, points) -> PiecewisePoly:
    """The piecewise-linear interpolant of ``piece`` at consecutive integer
    ``points``: one unit interval per gap, with the values ``piece`` gives
    under its knot rule, then a zero-width interval at the last point.

    Each point is scored at deviation 0 of its own interval, so its value
    is the spline's bit for bit; the last unit interval would reach the
    last point only as a sum off by up to an ulp. The zero-width interval
    holds that point alone, so the LP relaxation is the convex hull of the
    points, as without it."""
    values = np.array([piece(i) for i in points])
    coeffs = np.column_stack([values, np.append(np.diff(values), 0.0)])
    return PiecewisePoly(np.append(points, points[-1]), coeffs)


def eval_surrogate_at(surrogate: SurrogateMINLP, x):
    """Canonical lifting of a point into the multiple-choice variables.

    Returns (objective value, assignment) where the assignment selects
    y_jq = 1 for the interval containing x_j and sets the deviation
    accordingly; a point on a shared knot lies in the interval to its right,
    the rule of ``splines.interval_index`` that the fit's basis uses too.
    """
    x = np.asarray(x, dtype=float).ravel()
    if x.shape != (len(surrogate.variables),):
        raise ValueError(
            f"expected {len(surrogate.variables)} variable values, "
            f"got {x.shape}"
        )
    idx = surrogate.var_index()
    value = surrogate.constant
    for name, coeff in surrogate.linear.items():
        value += coeff * x[idx[name]]
    assignment = {"y": [], "dev": [], "sigma_prime": [], "sigma": []}
    for comp in surrogate.components:
        xj = x[idx[comp.var]]
        q = comp.piece.interval_of(xj)  # raises OutOfDomainError outside
        y = np.zeros(comp.k)
        dev = np.zeros(comp.k)
        sp = np.zeros(comp.k)
        y[q] = 1.0
        dev[q] = xj - comp.breakpoints[q]
        sp[q] = float(horner(comp.piece.coeffs[q], dev[q]))
        sigma = float(sp.sum())
        assignment["y"].append(y)
        assignment["dev"].append(dev)
        assignment["sigma_prime"].append(sp)
        assignment["sigma"].append(sigma)
    value += sum(assignment["sigma"])
    return float(value), assignment


def export_text(surrogate: SurrogateMINLP) -> str:
    """Plain-text algebraic listing for debugging and cross-checking: the
    multiple-choice formulation of every component, also of one the
    built-in solver relaxes by tangents alone."""
    lines = ["surrogate-minlp"]
    for v in surrogate.variables:
        kind = "integer" if v.integer else "continuous"
        lines.append(f"var {v.name} in [{v.lower:.17g}, {v.upper:.17g}] {kind}")
    obj = [f"{surrogate.constant:.17g}"]
    for name, coeff in sorted(surrogate.linear.items()):
        obj.append(f"{coeff:+.17g}*{name}")
    for comp in surrogate.components:
        obj.append(f"+sigma_{comp.var}")
    lines.append("min " + " ".join(obj))
    for comp in surrogate.components:
        t = comp.breakpoints
        for q in range(comp.k):
            lines.append(
                f"var y_{comp.var}_{q} in [0, 1] binary"
            )
            lines.append(
                f"var d_{comp.var}_{q} in [0, {t[q + 1] - t[q]:.17g}]"
            )
            poly = " ".join(
                f"{c:+.17g}*d_{comp.var}_{q}^{d}" if d else f"{c:+.17g}*y_{comp.var}_{q}"
                for d, c in enumerate(comp.piece.coeffs[q])
            )
            lines.append(f"st sp_{comp.var}_{q} = {poly}")
            lines.append(
                f"st d_{comp.var}_{q} <= {t[q + 1] - t[q]:.17g}*y_{comp.var}_{q}"
            )
        ys = " + ".join(f"y_{comp.var}_{q}" for q in range(comp.k))
        lines.append(f"st {ys} = 1")
        xs = " + ".join(
            f"{t[q]:.17g}*y_{comp.var}_{q} + d_{comp.var}_{q}"
            for q in range(comp.k)
        )
        lines.append(f"st {comp.var} = {xs}")
        sps = " + ".join(f"sp_{comp.var}_{q}" for q in range(comp.k))
        lines.append(f"st sigma_{comp.var} = {sps}")
    rows = surrogate.constraint_rows
    names = [v.name for v in surrogate.variables]
    for a, b, eq in zip(rows.A, rows.b, rows.eq):
        terms = [f"{b:.17g}"] + [
            f"{c:+.17g}*{n}" for n, c in sorted(zip(names, a.tolist())) if c
        ]
        lines.append(f"st {' '.join(terms)} {'=' if eq else '<='} 0")
    for con in rows.nonaffine:
        lines.append(f"st {unparse(con.expr)} {con.relation} 0")
    return "\n".join(lines) + "\n"
