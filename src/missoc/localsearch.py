"""Local refinement of the surrogate solution on the original problem.

With integer variables frozen at their surrogate values, the remaining
continuous NLP is solved to local stationarity by an augmented-Lagrangian
outer loop around a box-projected quasi-Newton inner solve. Each merit call
takes every tree's value and gradient from one forward pass and one reverse
sweep over its tape. If the start is feasible and no improving feasible
iterate appears, the start is returned unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

# evaluate is not called here: the benchmark tracer counts calls through
# localsearch.evaluate until the in-program trace replaces it (ROADMAP item 1)
from .expressions import evaluate, gradient  # noqa: F401

INT_TOL = 1e-9
FEAS_TOL = 1e-6
MAX_OUTER = 20  # augmented-Lagrangian multiplier updates
GRAD_TOL = 1e-8  # projected-gradient tolerance of each inner solve


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


def refine(instance, x_tilde) -> RefineResult:
    """Refine a candidate on the original instance.

    Integer coordinates never move; continuous coordinates stay inside
    their boxes. Raises ValueError when the start violates a box or is not
    integral on the integer set.
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
    names = [v.name for v in variables]
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

    free_names = [names[j] for j in free]
    bounds = [
        (max(variables[j].lower, -1e12), min(variables[j].upper, 1e12))
        for j in free
    ]
    cons = instance.constraints
    lam = np.zeros(len(cons))
    mu = 10.0

    def full_x(xf):
        x = x_tilde.copy()
        x[free] = xf
        return x

    def merit_and_grad(xf):
        env = instance.env(full_x(xf))
        try:
            val, g_obj = gradient(instance.objective, env, free_names)
        except (ValueError, ZeroDivisionError, OverflowError):
            return 1e30, np.zeros(len(free))
        grad = np.array([g_obj[nm] for nm in free_names])
        for m, con in enumerate(cons):
            try:
                gm, gg = gradient(con.expr, env, free_names)
            except (ValueError, ZeroDivisionError, OverflowError):
                return 1e30, np.zeros(len(free))
            gvec = np.array([gg[nm] for nm in free_names])
            if con.relation == "=":
                val += lam[m] * gm + 0.5 * mu * gm * gm
                grad += (lam[m] + mu * gm) * gvec
            else:
                t = lam[m] + mu * gm
                if t > 0:
                    val += (t * t - lam[m] * lam[m]) / (2.0 * mu)
                    grad += t * gvec
                else:
                    val -= lam[m] * lam[m] / (2.0 * mu)
        if not math.isfinite(val):
            return 1e30, np.zeros(len(free))
        return val, grad

    xf = x_tilde[free].copy()
    best_feasible = None  # (objective, x)
    best_violation = (start_viol, x_tilde.copy())
    if start_viol <= FEAS_TOL:
        best_feasible = (start_obj, x_tilde.copy())
    iterations = 0
    converged = False
    prev_viol = math.inf

    for _ in range(MAX_OUTER):
        res = scipy.optimize.minimize(
            merit_and_grad,
            xf,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 500, "ftol": 1e-14, "gtol": GRAD_TOL},
        )
        iterations += int(res.nit)
        xf = np.clip(res.x, [b[0] for b in bounds], [b[1] for b in bounds])
        x = full_x(xf)
        raw = instance.constraint_values(x)
        viol = _max_violation(instance, raw)
        obj = instance.objective_value(x)
        if viol < best_violation[0]:
            best_violation = (viol, x.copy())
        if viol <= FEAS_TOL and (
            best_feasible is None or obj < best_feasible[0]
        ):
            best_feasible = (obj, x.copy())
        if viol <= FEAS_TOL and res.success:
            converged = True
            break
        # multiplier update on the raw constraint values
        for m, con in enumerate(cons):
            if con.relation == "=":
                lam[m] += mu * raw[m]
            else:
                lam[m] = max(0.0, lam[m] + mu * raw[m])
        if viol > 0.25 * prev_viol:
            mu *= 10.0
        prev_viol = viol

    if best_feasible is not None:
        obj, x = best_feasible
        if start_viol <= FEAS_TOL and obj > start_obj:
            # never worsen a feasible start
            obj, x = start_obj, x_tilde.copy()
        return RefineResult(
            x=x,
            objective=obj,
            max_violation=_max_violation(instance, instance.constraint_values(x)),
            iterations=iterations,
            converged=converged,
        )
    viol, x = best_violation
    return RefineResult(
        x=x,
        objective=instance.objective_value(x),
        max_violation=viol,
        iterations=iterations,
        converged=False,
    )
