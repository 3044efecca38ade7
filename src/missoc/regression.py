"""Penalized least-squares fitting of smooth additive B-spline models.

The identifiability penalty forces each fitted component to have zero mean
over the training samples, so the intercept equals the response mean and the
normal equations are well posed despite the constant function lying in the
span of every per-covariate block.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .splines import BSplineBasis, design_matrix, make_basis

DEFAULT_DEGREE = 3
DEFAULT_INTERVALS = 10


class IllPosedFitError(ValueError):
    """The penalized normal equations are numerically singular."""

    def __init__(self, smallest_pivot: float):
        self.smallest_pivot = smallest_pivot
        super().__init__(
            f"rank-deficient fit beyond the identifiability penalty "
            f"(smallest pivot {smallest_pivot:.3e})"
        )


@dataclass(frozen=True)
class TrainingSet:
    """Covariate samples X (n x p) with responses y (length n)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("training data contains non-finite entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def covariate_range(self, j: int) -> tuple[float, float]:
        col = self.X[:, j]
        return float(col.min()), float(col.max())


@dataclass(frozen=True)
class AdditiveModelFit:
    """Fitted additive model: intercept plus one coefficient vector per basis."""

    intercept: float
    coefficients: list[np.ndarray]
    bases: list[BSplineBasis]
    residual_norm: float = 0.0
    zero_mean_defects: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def p(self) -> int:
        return len(self.bases)

    def component(self, j: int, xs) -> np.ndarray:
        """Values of the j-th fitted component (zero-mean part, no intercept)
        at the points xs, as a 1-D array.

        One dot product per point, so a point's value does not depend on the
        other points evaluated with it (a matrix-vector product may round
        each row differently depending on the batch).
        """
        return np.vecdot(self.bases[j].eval_matrix(xs), self.coefficients[j])

    def predict(self, x) -> float:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.p,):
            raise ValueError(f"expected {self.p} covariate values, got {x.shape}")
        return self.intercept + sum(
            float(self.component(j, x[j])[0]) for j in range(self.p)
        )


def block_slices(bases: list[BSplineBasis]) -> list[slice]:
    """Column slices of each per-covariate block in the full design matrix."""
    out = []
    start = 1
    for basis in bases:
        out.append(slice(start, start + basis.n_basis))
        start += basis.n_basis
    return out


def coefficient_slices(bases: list[BSplineBasis]) -> list[slice]:
    """Slices of each per-covariate block in the coefficient vector without
    the intercept (the design matrix without its intercept column)."""
    return [slice(s.start - 1, s.stop - 1) for s in block_slices(bases)]


def fitted_model(
    intercept: float,
    theta: np.ndarray,
    bases: list[BSplineBasis],
    B1: np.ndarray,
    y: np.ndarray,
) -> AdditiveModelFit:
    """The fit with this intercept and non-intercept coefficients ``theta``,
    with its residual norm ||y - intercept - B1 theta|| and the zero-mean
    defect of each component over the rows of ``B1``, the design matrix
    without its intercept column."""
    slices = coefficient_slices(bases)
    return AdditiveModelFit(
        intercept=float(intercept),
        coefficients=[theta[s].copy() for s in slices],
        bases=bases,
        residual_norm=float(np.linalg.norm(y - intercept - B1 @ theta)),
        zero_mean_defects=np.array(
            [B1[:, s].sum(axis=0) @ theta[s] for s in slices]
        ),
    )


def identifiability_penalty(blocks: list[np.ndarray]) -> np.ndarray:
    """Block-diagonal penalty: 0 for the intercept, B_j^T 1 1^T B_j per block."""
    sizes = [blk.shape[1] for blk in blocks]
    dim = 1 + sum(sizes)
    P = np.zeros((dim, dim))
    start = 1
    for blk in blocks:
        s = blk.sum(axis=0)
        stop = start + blk.shape[1]
        P[start:stop, start:stop] = np.outer(s, s)
        start = stop
    return P


def _solve_normal_equations(A: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the SPD system A x = rhs with a diagonal pivot safeguard."""
    safeguard = 1e-12 * np.trace(A)
    try:
        c, low = scipy.linalg.cho_factor(A, lower=True)
        pivots = np.diag(c) ** 2
        if pivots.min() < safeguard:
            raise IllPosedFitError(float(pivots.min()))
        return scipy.linalg.cho_solve((c, low), rhs)
    except scipy.linalg.LinAlgError:
        eigvals = np.linalg.eigvalsh(A)
        raise IllPosedFitError(float(eigvals.min())) from None


def make_bases(
    T: TrainingSet,
    degrees,
    intervals,
    domains=None,
    labels=None,
) -> list[BSplineBasis]:
    """Equidistant per-covariate bases over the observed (or given) ranges."""
    degrees = per_covariate(degrees, T.p, "degrees")
    intervals = per_covariate(intervals, T.p, "intervals")
    bases = []
    for j in range(T.p):
        lo, hi = domains[j] if domains is not None else T.covariate_range(j)
        label = labels[j] if labels is not None else f"x{j + 1}"
        bases.append(make_basis(lo, hi, intervals[j], degrees[j], label))
    return bases


def per_covariate(value, p: int, name: str) -> list[int]:
    """One integer per covariate from a scalar or a length-p sequence."""
    if np.isscalar(value):
        value = [int(value)] * p
    value = [int(v) for v in value]
    if len(value) != p:
        raise ValueError(f"{name} must be a scalar or length-{p} sequence")
    return value


def fit_additive(
    T: TrainingSet,
    degrees=DEFAULT_DEGREE,
    intervals=DEFAULT_INTERVALS,
    domains=None,
    labels=None,
) -> AdditiveModelFit:
    """Fit the additive model by penalized least squares.

    Solves (B^T B + P^I) theta = B^T y; the closed-form optimum of the
    penalized objective ||y - B theta||^2 + theta^T P^I theta.
    """
    bases = make_bases(T, degrees, intervals, domains, labels)
    n_params = 1 + sum(b.n_basis for b in bases)
    if T.n < n_params:
        raise ValueError(
            f"need at least {n_params} samples for {n_params} parameters, "
            f"got {T.n}"
        )
    B = design_matrix(T.X, bases)
    P = identifiability_penalty([B[:, s] for s in block_slices(bases)])
    theta = _solve_normal_equations(B.T @ B + P, B.T @ T.y)
    return fitted_model(theta[0], theta[1:], bases, B[:, 1:], T.y)


MODEL_FORMAT_VERSION = 1


def dump_model(fit: AdditiveModelFit) -> str:
    """Serialize a fit to the versioned plain-text model format.

    Doubles are written with 17 significant digits, which round-trips
    bit-faithfully through decimal.
    """
    buf = io.StringIO()
    buf.write(f"missoc-model {MODEL_FORMAT_VERSION}\n")
    buf.write(f"intercept {fit.intercept:.17g}\n")
    for basis, theta in zip(fit.bases, fit.coefficients):
        buf.write(f"covariate {basis.label}\n")
        buf.write(f"degree {basis.degree}\n")
        knots = " ".join(f"{t:.17g}" for t in basis.internal)
        buf.write(f"knots {knots}\n")
        coeffs = " ".join(f"{c:.17g}" for c in theta)
        buf.write(f"coefficients {coeffs}\n")
    buf.write("end\n")
    return buf.getvalue()
