"""B-spline bases over extended knot sequences and piecewise-polynomial conversion.

A basis of degree ``d`` over ``k`` internal intervals has ``k + d`` functions.
The internal knot span ``[t[d], t[d+k]]`` (0-based positions in the extended
sequence) is the data domain; external knots replicate the width of the
adjacent boundary interval so every internal interval is covered by exactly
``d + 1`` nonzero basis functions.

Interval convention: ``interval_index`` holds the one knot rule that basis
evaluation and piecewise-polynomial evaluation share. Intervals are half-open
``[t_q, t_{q+1})``, so a point on an interior knot lies in the interval to its
right; the last internal interval is closed so evaluation at the domain
maximum is well defined.

The package's polynomial arithmetic is here too, one way each, on power-basis
coefficients lowest power first (zero padding at the high end, stacked rows
at once): ``horner``, ``poly_der``, ``taylor_shift``, ``bernstein_map`` and
``bernstein_bounds``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class InvalidKnotsError(ValueError):
    """Internal knots are not strictly increasing."""


class DegenerateDomainError(ValueError):
    """Fewer than two internal knots; no interval to model."""


class OutOfDomainError(ValueError):
    """A sample lies outside the internal knot range of its covariate."""


@dataclass(frozen=True)
class KnotVector:
    """Extended knot sequence for one covariate.

    ``internal`` has k+1 strictly increasing entries spanning the data domain,
    ``extended`` has k + 2d + 1 entries with ``extended[d] == internal[0]``
    and ``extended[d + k] == internal[-1]``.
    """

    internal: np.ndarray
    extended: np.ndarray
    degree: int

    @property
    def k(self) -> int:
        return len(self.internal) - 1

    @property
    def n_basis(self) -> int:
        return self.k + self.degree

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.internal[0]), float(self.internal[-1])


def extend_knots(internal, degree: int) -> KnotVector:
    """Extend internal knots by ``degree`` knots on each side.

    External knots replicate the first/last internal interval width outward,
    which keeps the sequence strictly increasing and conditioning predictable.
    """
    internal = np.asarray(internal, dtype=float)
    if internal.ndim != 1 or len(internal) < 2:
        raise DegenerateDomainError(
            "need at least 2 internal knots, got %d" % internal.size
        )
    if not np.all(np.diff(internal) > 0):
        raise InvalidKnotsError("internal knots must be strictly increasing")
    d = int(degree)
    if d < 0:
        raise ValueError("degree must be nonnegative")
    h_lo = internal[1] - internal[0]
    h_hi = internal[-1] - internal[-2]
    left = internal[0] - h_lo * np.arange(d, 0, -1)
    right = internal[-1] + h_hi * np.arange(1, d + 1)
    extended = np.concatenate([left, internal, right])
    return KnotVector(internal=internal, extended=extended, degree=d)


@dataclass(frozen=True)
class BSplineBasis:
    """B-spline basis of one covariate; immutable, evaluation is pure."""

    knots: KnotVector
    label: str = "x"

    @property
    def degree(self) -> int:
        return self.knots.degree

    @property
    def k(self) -> int:
        return self.knots.k

    @property
    def n_basis(self) -> int:
        return self.knots.n_basis

    @property
    def domain(self) -> tuple[float, float]:
        return self.knots.domain

    def eval_all(self, x: float) -> np.ndarray:
        """Values of all k + d basis functions at x (dense length-(k+d) row)."""
        return self.eval_matrix([x])[0]

    def eval_matrix(self, xs) -> np.ndarray:
        """Basis values at an array of points, one dense length-(k+d) row per
        point, by the triangular Cox-de Boor scheme."""
        xs = np.asarray(xs, dtype=float).ravel()
        q = interval_index(self.knots.internal, xs, self.label)
        d = self.degree
        t = self.knots.extended
        pos = q + d
        n = len(xs)
        vals = np.zeros((n, d + 1))
        left = np.zeros((n, d + 1))
        right = np.zeros((n, d + 1))
        vals[:, 0] = 1.0
        for r in range(1, d + 1):
            left[:, r] = xs - t[pos + 1 - r]
            right[:, r] = t[pos + r] - xs
            saved = np.zeros(n)
            for s in range(r):
                term = vals[:, s] / (right[:, s + 1] + left[:, r - s])
                vals[:, s] = saved + right[:, s + 1] * term
                saved = left[:, r - s] * term
            vals[:, r] = saved
        out = np.zeros((n, self.n_basis))
        out[np.arange(n)[:, None], q[:, None] + np.arange(d + 1)] = vals
        return out


def interval_index(breakpoints, xs, label: str = "x"):
    """Index q of the interval ``[t_q, t_{q+1})`` that holds each point, with
    the last interval closed; same shape as ``xs``.

    Raises OutOfDomainError, naming ``label``, for a point outside
    ``[t_0, t_k]`` (NaN included).
    """
    t = np.asarray(breakpoints, dtype=float)
    xs = np.asarray(xs, dtype=float)
    outside = ~((xs >= t[0]) & (xs <= t[-1]))
    if np.any(outside):
        bad = float(xs[outside][0])
        raise OutOfDomainError(
            f"{label}={bad!r} outside knot range [{t[0]}, {t[-1]}]"
        )
    return np.minimum(np.searchsorted(t, xs, side="right") - 1, len(t) - 2)


def segment_maps(basis: BSplineBasis, ref) -> np.ndarray:
    """Per-interval maps from basis coefficients to power-basis coefficients,
    shape (k, d+1, d+1).

    ``segment_maps(basis, ref)[q] @ theta[q : q + d + 1]`` gives the ascending
    coefficients in ``(x - ref_q)`` of the spline with coefficients ``theta``
    on internal interval q; column m is basis function q + m (0-based), one
    of the d + 1 functions that are nonzero there. ``ref`` is a scalar or one
    value per interval: 0 gives plain power-basis coefficients, the interval
    starts keep the maps well conditioned for fine knots at high degree.

    The Cox-de Boor recursion runs on coefficient vectors, bottom-up and over
    all intervals at once: the degree-r segment of B_i is the sum of the
    degree-(r-1) segments of B_i and B_{i+1}, each multiplied by a linear
    factor (a + b x).
    """
    d, k = basis.degree, basis.k
    t = basis.knots.extended
    ref = np.broadcast_to(np.asarray(ref, dtype=float), (k,))[:, None]
    pos = np.arange(k)[:, None] + d  # extended index of each interval's start
    # P[q, m] holds the segment on interval q of the m-th function of the
    # previous degree, B_{pos-r+1+m}; degree 0 has only B_pos, equal to 1
    P = np.ones((k, 1, 1))
    for r in range(1, d + 1):
        i = pos - r + 1 + np.arange(r)  # (k, r): the previous degree's functions
        den = t[i + r] - t[i]
        rising = _mul_linear(P, (ref - t[i]) / den, 1.0 / den)
        falling = _mul_linear(P, (t[i + r] - ref) / den, -1.0 / den)
        # B_{i,r} = rising part of B_{i,r-1} + falling part of B_{i+1,r-1}
        nxt = np.zeros((k, r + 1, r + 1))
        nxt[:, 1:] += rising
        nxt[:, :r] += falling
        P = nxt
    return np.swapaxes(P, 1, 2)


def _mul_linear(P: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply each polynomial P[..., :] (ascending coefficients) by
    (a + b x), with a and b broadcast over the leading axes."""
    out = np.zeros(P.shape[:-1] + (P.shape[-1] + 1,))
    out[..., :-1] += a[..., None] * P
    out[..., 1:] += b[..., None] * P
    return out


def horner(coeffs, x):
    """Value of a polynomial at x by Horner's rule; stacked rows (m, n) each
    at x[i], a value or a row of values. Each value takes the operations,
    so the bits, of ``np.polynomial.polynomial.polyval`` on the unpadded
    row."""
    c = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    cols = np.moveaxis(c, -1, 0)
    # a row of values per stacked row: the row's coefficients broadcast
    cols = cols.reshape(cols.shape + (1,) * (x.ndim - c.ndim + 1))
    y = 0.0
    for col in cols[::-1]:
        y = y * x + col
    return y


def poly_der(coeffs) -> np.ndarray:
    """Coefficients of the derivative, lowest power first, of a polynomial
    or of each stacked row: one column fewer, and [0] for a constant."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] <= 1:
        return np.zeros(c.shape[:-1] + (1,))
    return c[..., 1:] * np.arange(1, c.shape[-1])


def taylor_shift(coeffs: np.ndarray, c) -> np.ndarray:
    """Rewrite p(x) = sum a_i x^i as sum b_i (x - c)^i via repeated synthetic
    division (Horner shift); stable, no factorials. Stacked rows of one
    degree, shape (m, d+1), are shifted each by its own c[i]."""
    b = np.array(coeffs, dtype=float)
    n = b.shape[-1]
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[..., j] += c * b[..., j + 1]
    return b


def bernstein_map(d: int) -> np.ndarray:
    """(d+1, d+1) matrix from the power-basis coefficients of a degree-d
    polynomial in s to its Bernstein coefficients on [0, 1]:
    b_r = sum_{i <= r} C(r, i) / C(d, i) a_i."""
    return np.array(
        [
            [math.comb(r, i) / math.comb(d, i) if i <= r else 0.0 for i in range(d + 1)]
            for r in range(d + 1)
        ]
    )


def bernstein_bounds(coeffs, lo, hi):
    """Enclosures of power-basis polynomials' ranges over [lo, hi] from
    their Bernstein coefficients; exact at the endpoints, any degree.

    ``coeffs`` holds stacked rows of one degree, shape (m, d+1), with ``lo``
    and ``hi`` of length m; the bounds are two arrays of length m, each
    row's the bits of a one-row call.
    """
    C = np.asarray(coeffs, dtype=float)
    m, n = C.shape[0], C.shape[1] - 1
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (m,)) for v in (lo, hi))
    bad = ~(hi >= lo)
    if bad.any():
        raise ValueError(f"empty interval [{lo[bad][0]}, {hi[bad][0]}]")
    if n <= 0:
        low = high = C[:, 0] if n == 0 else np.zeros(m)
    else:
        # rescale to t in [0, 1]: q(t) = p(lo + w t), with
        # p(x) = sum shifted_i (x - lo)^i
        w = hi - lo
        scaled = taylor_shift(C, lo) * w[:, None] ** np.arange(n + 1)
        # power -> Bernstein: B_j = sum_{i <= j} C(j,i)/C(n,i) scaled_i,
        # summed from i = 0 up
        M = bernstein_map(n)
        B = np.zeros((m, n + 1))
        for i in range(n + 1):
            B[:, i:] += M[i:, i] * scaled[:, i, None]
        low, high = B.min(axis=1), B.max(axis=1)
    return low, high


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial in shifted power basis.

    On interval q (between ``breakpoints[q]`` and ``breakpoints[q+1]``) the
    value is ``sum_d coeffs[q, d] * (x - breakpoints[q])**d``.
    """

    breakpoints: np.ndarray
    coeffs: np.ndarray  # shape (k, d+1)

    @property
    def k(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    def interval_of(self, x: float) -> int:
        return int(interval_index(self.breakpoints, x))

    def __call__(self, x: float) -> float:
        q = self.interval_of(x)
        dx = x - self.breakpoints[q]
        return float(horner(self.coeffs[q], dx))

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(self.breakpoints, poly_der(self.coeffs))


def to_piecewise_poly(theta, basis: BSplineBasis) -> PiecewisePoly:
    """Convert a coefficient vector on the basis into per-interval shifted
    power-basis polynomials."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (basis.n_basis,):
        raise ValueError(
            f"expected {basis.n_basis} coefficients, got {theta.shape}"
        )
    t = basis.knots.internal
    maps = segment_maps(basis, t[:-1])
    k = basis.k
    coeffs = np.zeros((k, basis.degree + 1))
    # a fixed elementwise order, not a matmul whose summation order the BLAS
    # picks: branch-and-bound node counts are chaotic in the last bits here
    for m in range(basis.degree + 1):
        coeffs += theta[m : m + k, None] * maps[:, :, m]
    return PiecewisePoly(breakpoints=t.copy(), coeffs=coeffs)


def make_basis(lo: float, hi: float, k: int, degree: int, label: str = "x") -> BSplineBasis:
    """Equidistant internal knots on [lo, hi] with k intervals."""
    if not (hi > lo):
        raise DegenerateDomainError(f"empty domain [{lo}, {hi}]")
    internal = np.linspace(lo, hi, k + 1)
    return BSplineBasis(knots=extend_knots(internal, degree), label=label)


def design_matrix(samples: np.ndarray, bases: list[BSplineBasis]) -> np.ndarray:
    """Full design matrix [1 : B_1 : ... : B_p] for an n x p sample array."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, p = samples.shape
    if p != len(bases):
        raise ValueError(f"{p} sample columns but {len(bases)} bases")
    cols = [np.ones((n, 1))]
    for j, basis in enumerate(bases):
        cols.append(basis.eval_matrix(samples[:, j]))
    return np.hstack(cols)
