"""Local refinement of the surrogate solution on the original problem.

``check_solvable`` rejects every non-affine original constraint before
sampling, so with the integer variables frozen at their surrogate values
refinement minimises the original objective over a polytope. That is one
SLSQP call over the continuous coordinates, with the boxes as bounds and
the constraints as linear rows. SLSQP linearises the constraints in its QP
subproblems, which is exact for linear rows, so its iterates stay on the
polytope up to rounding and refine never reports an infeasible point's
objective as a gain. Each objective call takes the value and gradient from
one forward pass and one reverse sweep over its tape. A feasible start is
never worsened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

# evaluate is not called here: the benchmark tracer counts calls through
# localsearch.evaluate until the in-program trace replaces it (ROADMAP item 1)
from .expressions import decompose_affine, evaluate, gradient  # noqa: F401

INT_TOL = 1e-9
FEAS_TOL = 1e-9


@dataclass
class RefineResult:
    x: np.ndarray
    objective: float
    max_violation: float
    iterations: int
    converged: bool


def _max_violation(instance, raw) -> float:
    """Largest violation, given the raw constraint values."""
    viols = [abs(g) if c.relation == "=" else max(0.0, g)
             for c, g in zip(instance.constraints, raw)]
    return float(np.max(viols, initial=0.0))


def _linear_rows(instance, x, free) -> list:
    """The constraints as rows over the free coordinates, the other
    coordinates of x folded into the constants: one LinearConstraint for
    the "<=" rows and one for the "=" rows (scipy warns when one object
    mixes the two)."""
    col = instance.var_index()
    fixed = np.ones(len(x), dtype=bool)
    fixed[free] = False
    rows = {"<=": ([], []), "=": ([], [])}  # relation: (A rows, -constant)
    for m, con in enumerate(instance.constraints):
        aff = decompose_affine(con.expr)
        if aff is None:
            raise ValueError(
                f"constraint {m} is not affine; refine takes affine "
                "constraints only"
            )
        const, coeffs = aff
        a = np.zeros(len(x))
        for name, c in coeffs.items():
            a[col[name]] += c
        rows[con.relation][0].append(a[free])
        rows[con.relation][1].append(-(const + a[fixed] @ x[fixed]))
    return [
        scipy.optimize.LinearConstraint(
            np.array(a), -np.inf if rel == "<=" else np.array(b), np.array(b)
        )
        for rel, (a, b) in rows.items() if a
    ]


def refine(instance, x_tilde) -> RefineResult:
    """Refine a candidate on the original instance.

    Integer coordinates never move; continuous coordinates stay inside
    their boxes. Raises ValueError when the start violates a box or is not
    integral on the integer set, or when a constraint is not affine.
    """
    x_tilde = np.asarray(x_tilde, dtype=float).ravel()
    variables = instance.variables
    if x_tilde.shape != (len(variables),):
        raise ValueError(
            f"expected {len(variables)} coordinates, got {x_tilde.shape}"
        )
    for v, xi in zip(variables, x_tilde):
        if not (v.lower - 1e-12 <= xi <= v.upper + 1e-12):
            raise ValueError(
                f"start value {xi} of {v.name} outside [{v.lower}, {v.upper}]"
            )
        if v.integer and abs(xi - round(xi)) > INT_TOL:
            raise ValueError(
                f"start value {xi} of integer variable {v.name} is fractional"
            )

    free = [j for j, v in enumerate(variables) if not v.integer]
    constraints = _linear_rows(instance, x_tilde, free)
    start_obj = instance.objective_value(x_tilde)
    start_viol = _max_violation(instance, instance.constraint_values(x_tilde))

    if not free:
        return RefineResult(
            x=x_tilde.copy(),
            objective=start_obj,
            max_violation=start_viol,
            iterations=0,
            converged=start_viol <= FEAS_TOL,
        )

    free_names = [variables[j].name for j in free]
    lower = np.array([variables[j].lower for j in free])
    upper = np.array([variables[j].upper for j in free])

    def full_x(xf):
        x = x_tilde.copy()
        x[free] = xf
        return x

    def objective_and_grad(xf):
        try:
            val, grad = gradient(instance.objective, instance.env(full_x(xf)),
                                 free_names)
        except (ValueError, ZeroDivisionError, OverflowError):
            return 1e30, np.zeros(len(free))
        if not math.isfinite(val):
            return 1e30, np.zeros(len(free))
        return val, np.array([grad[nm] for nm in free_names])

    res = scipy.optimize.minimize(
        objective_and_grad,
        x_tilde[free],
        jac=True,
        method="SLSQP",
        bounds=scipy.optimize.Bounds(lower, upper),
        constraints=constraints,
        options={"maxiter": 500, "ftol": 1e-12},
    )
    x = full_x(np.clip(res.x, lower, upper))
    obj = instance.objective_value(x)
    viol = _max_violation(instance, instance.constraint_values(x))
    if start_viol <= FEAS_TOL:
        # never worsen a feasible start
        keep_start = viol > FEAS_TOL or not obj <= start_obj
    else:
        # an unrestorable start: the point that violates less
        keep_start = viol > FEAS_TOL and viol >= start_viol
    if keep_start:
        x, obj, viol = x_tilde.copy(), start_obj, start_viol
    return RefineResult(
        x=x,
        objective=obj,
        max_violation=viol,
        iterations=int(res.nit),
        converged=bool(res.success) and viol <= FEAS_TOL,
    )
