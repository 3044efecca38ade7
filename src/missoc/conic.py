"""Primal-dual interior-point solver for quadratic programs coupled to many
independent small positive-semidefinite cones.

Problem form:

    min  1/2 theta' Q theta + q' theta
    s.t. C theta + sum_b A_b(Z_b) = c,      every cone of Z_b PSD

where a block b carries one or more PSD cones on the same rows, and
A_b(Z_b) is the sum over its cones. A ``ConicBlock`` is a family of k
blocks with the same cones, such as one certificate on each of k intervals.
The rows of different blocks are disjoint and lie in 0..K-1 (``solve_conic``
raises ``ValueError`` otherwise, on a family whose shapes disagree, and on
any NaN or infinite entry). Cones are tiny, so all per-cone linear algebra
is dense.

Once per solve every block is laid out in one stack padded to the largest
row count r: block rows ``(n, r)``, pad rows pointing at a dummy row K, and
per cone order m the ``(N_m, r, m, m)`` matrices of its cones and each
cone's block. The iterates ``Z``, ``S`` are one ``(N_m, m, m)`` stack per
cone order. Flooring, NT scaling, inverses and step lengths run once per
cone order; orders 1 and 2 have elementwise closed forms (a 2 x 2 PSD cone
is a rotated second-order cone), and only orders of 3 and more go through
batched ``eigh``/``cholesky``. The A-map is one ``np.bincount`` per cone
order; no iteration loops over blocks or families. Nesterov-Todd scaling,
Mehrotra-style adaptive centering, fraction-to-boundary steps.

The Schur complement of the Newton system is never formed. It is block
diagonal over the blocks' rows plus ``C Q^-1 C'``, whose rank is at most
M = len(theta), so ``_Schur`` factors the padded (r, r) blocks in one
batched Cholesky (pad diagonals set to 1) and folds in the rank-M term
through an M x M capacitance matrix (Sherman-Morrison-Woodbury, as SDPT3
treats dense columns; Toh, Todd & Tutuncu 1999). Rows in no block get
their own small term by block elimination. Each solve costs O(K (r + M))
instead of O(K^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

FEAS_TOL = 1e-7  # relative primal and dual residual at convergence
_EPS = np.finfo(float).eps
# LAPACK's Cholesky solve, called directly: the solves are small and many,
# and scipy.linalg.cho_solve's checks cost more than the solve
_POTRS = scipy.linalg.get_lapack_funcs("potrs", dtype=np.float64)


def _cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """x with A x = b from ``factor``, a ``scipy.linalg.cho_factor`` of A;
    the bits of ``scipy.linalg.cho_solve``."""
    x, info = _POTRS(factor[0], b, lower=factor[1])
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK potrs")
    return x


class ConicInfeasibleError(RuntimeError):
    """The solver diagnosed the constraint system as infeasible."""


class ConicConvergenceError(RuntimeError):
    """Iteration cap reached before tolerances were met."""

    def __init__(self, message: str, best: "ConicSolution"):
        super().__init__(message)
        self.best = best


@dataclass
class ConicBlock:
    """A family of k blocks with the same cones: block i holds PSD cones
    Z_ik on rows ``rows[i]``, and row ``rows[i, j]`` reads the sum over the
    cones of <mats_k[j], Z_ik>.

    ``rows`` is (k, r), or (r,) for one block. ``order`` and ``mats`` are
    tuples, cone by cone: the order m_k and the (r, m_k, m_k) matrices the
    k blocks share."""

    order: tuple[int, ...]
    rows: np.ndarray
    mats: tuple[np.ndarray, ...]  # symmetric


@dataclass
class ConicProblem:
    Q: np.ndarray  # (M, M) symmetric PSD
    q: np.ndarray  # (M,)
    C: np.ndarray  # (K, M)
    c: np.ndarray  # (K,)
    blocks: list[ConicBlock] = field(default_factory=list)


@dataclass
class ConicSolution:
    theta: np.ndarray
    Z: list[np.ndarray]
    S: list[np.ndarray]
    lam: np.ndarray
    objective: float
    rel_gap: float
    rel_primal: float
    rel_dual: float
    iterations: int


def _family(i: int, b: ConicBlock) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows (k, r) of ``blocks[i]`` and its cones' matrices; raises
    ValueError naming the block when a shape or entry is off."""
    rows = np.asarray(b.rows)
    rows = rows[None] if rows.ndim == 1 else rows
    if rows.ndim != 2 or not rows.shape[1] or rows.dtype.kind not in "iu":
        raise ValueError(f"blocks[{i}].rows is {rows.dtype} of shape "
                         f"{np.shape(b.rows)}, need integers (r,) or (k, r), r >= 1")
    (k, r), orders = rows.shape, tuple(b.order)
    if not orders or len(orders) != len(b.mats):
        raise ValueError(f"blocks[{i}] has {len(orders)} cone orders and "
                         f"{len(b.mats)} mats arrays")
    mats = []
    for m, A in zip(orders, b.mats):
        A = np.asarray(A, dtype=float)
        if m < 1 or A.shape != (r, m, m):
            raise ValueError(f"blocks[{i}].mats has shape {A.shape} for a cone "
                             f"of order {m} on rows of shape {(k, r)}")
        if not np.isfinite(A).all():
            raise ValueError(f"blocks[{i}].mats has a NaN or infinite entry")
        mats.append(A)
    return rows, mats


@dataclass
class _Stack:
    """Every block of every family, padded to r rows: block b reads rows
    ``rows[b]``, and its pad rows (``real`` false) read the dummy row K. Per
    cone order m, ``mats[m]`` holds its cones' (N_m, r, m, m) matrices, zero
    on pad rows, ``block[m]`` the block of each, ``at[m]`` its rows, and
    ``out[m]`` its place in the solution's per-cone list."""

    rows: np.ndarray  # (n, r)
    real: np.ndarray  # (n, r)
    mats: dict[int, np.ndarray]
    block: dict[int, np.ndarray]
    at: dict[int, np.ndarray]
    out: dict[int, np.ndarray]


def _stack_blocks(blocks: list[ConicBlock], K: int) -> _Stack:
    """Lay the families out in one padded stack, family by family and block
    by block, and each order's cones in that order too. Rows that overlap or
    fall outside 0..K-1 are rejected."""
    fams = [_family(i, b) for i, b in enumerate(blocks)]
    n = sum(len(rows) for rows, _ in fams)
    r = max((rows.shape[1] for rows, _ in fams), default=1)
    rows, real = np.full((n, r), K, dtype=np.intp), np.zeros((n, r), dtype=bool)
    parts: dict[int, list] = {}
    start = pos = 0
    for fam_rows, fam_mats in fams:
        (k, rb), t = fam_rows.shape, len(fam_mats)
        rows[start : start + k, :rb] = fam_rows
        real[start : start + k, :rb] = True
        for j, A in enumerate(fam_mats):
            padded = np.zeros((k, r) + A.shape[1:])
            padded[:, :rb] = A
            at = (start + np.arange(k), pos + t * np.arange(k) + j)
            parts.setdefault(A.shape[-1], []).append((padded,) + at)
        start, pos = start + k, pos + k * t
    used = rows[real]
    if used.size and (used.min() < 0 or used.max() >= K):
        raise ValueError(f"block rows must lie in 0..{K - 1}")
    if np.unique(used).size != used.size:
        raise ValueError("blocks must touch disjoint rows")
    mats, block, out = (
        {m: np.concatenate([p[a] for p in parts[m]]) for m in sorted(parts)}
        for a in range(3)
    )
    at = {m: rows[b] for m, b in block.items()}
    return _Stack(rows, real, mats, block, at, out)


def _unstack(st: _Stack, stacks: dict[int, np.ndarray]) -> list:
    """Per-cone matrices, family by family, block by block and cone by cone
    within a block."""
    out = [None] * sum(len(o) for o in st.out.values())
    for m, X in stacks.items():
        for i, Xi in zip(st.out[m], X):
            out[i] = Xi
    return out


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.mT)


# Kernels on (n, m, m) stacks of one cone order. Orders 1 and 2 are
# elementwise closed forms, order 2 as a rotated second-order cone
# (Alizadeh & Goldfarb 2003); higher orders use batched eigh/cholesky.


def _eig2(a, b, c):
    """Eigenvalues lo <= hi of the symmetric blocks [[a, b], [b, c]]."""
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    return mid - rad, mid + rad


def _nt_scaling(Z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Symmetric PD W with W S W = Z for each block of the (n, m, m) stacks."""
    m = Z.shape[-1]
    if m == 1:
        return np.sqrt(Z / S)
    if m == 2:
        # W is the geometric mean Z # S^-1; for 2 x 2 blocks it is
        # (Z + sqrt(det Z / det S) adj S) / sqrt(<Z, S> + 2 sqrt(det Z det S)),
        # built from the symmetric parts so that W is exactly symmetric
        za, zb, zc = Z[:, 0, 0], 0.5 * (Z[:, 0, 1] + Z[:, 1, 0]), Z[:, 1, 1]
        sa, sb, sc = S[:, 0, 0], 0.5 * (S[:, 0, 1] + S[:, 1, 0]), S[:, 1, 1]
        rz = np.sqrt(np.maximum(za * zc - zb * zb, 1e-300))
        rs = np.sqrt(np.maximum(sa * sc - sb * sb, 1e-300))
        k = rz / rs
        t = np.sqrt(za * sa + 2.0 * zb * sb + zc * sc + 2.0 * rz * rs)
        off = (zb - k * sb) / t
        return np.stack(
            [(za + k * sc) / t, off, off, (zc + k * sa) / t], axis=-1
        ).reshape(-1, 2, 2)
    # W = S^-1/2 (S^1/2 Z S^1/2)^1/2 S^-1/2
    ws, vs = np.linalg.eigh(S)
    rt = np.sqrt(np.maximum(ws, 1e-300))[:, None, :]
    S_half = (vs * rt) @ vs.mT
    S_ihalf = (vs / rt) @ vs.mT
    wi, vi = np.linalg.eigh(_sym(S_half @ Z @ S_half))
    inner_half = (vi * np.sqrt(np.maximum(wi, 1e-300))[:, None, :]) @ vi.mT
    return _sym(S_ihalf @ inner_half @ S_ihalf)


def _floor_pd(X: np.ndarray, rel: float = 1e-14) -> np.ndarray:
    """Push each block's eigenvalues up to a small positive floor relative to
    its largest one (guards against the iterates drifting numerically
    indefinite near convergence); blocks already above it are only
    symmetrized."""
    m = X.shape[-1]
    if m == 1:
        return np.maximum(X, rel * np.maximum(X, 1.0))
    Xs = _sym(X)
    if m == 2:
        a, b, c = Xs[:, 0, 0], Xs[:, 0, 1], Xs[:, 1, 1]
        lo, hi = _eig2(a, b, c)
        floor = rel * np.maximum(hi, 1.0)
        low = lo < floor
        if low.any():
            # rebuild from the floored eigenvalues; (cs, sn) is the
            # eigenvector of hi
            phi = 0.5 * np.arctan2(2.0 * b[low], (a - c)[low])
            cs, sn = np.cos(phi), np.sin(phi)
            wl = np.maximum(lo[low], floor[low])
            wh = np.maximum(hi[low], floor[low])
            off = (wh - wl) * cs * sn
            Xs[low] = np.stack(
                [wh * cs * cs + wl * sn * sn, off, off, wh * sn * sn + wl * cs * cs],
                axis=-1,
            ).reshape(-1, 2, 2)
        return Xs
    w, v = np.linalg.eigh(Xs)
    floor = rel * np.maximum(w.max(axis=1), 1.0)
    low = w.min(axis=1) < floor
    if low.any():
        wf = np.maximum(w[low], floor[low, None])
        Xs[low] = _sym((v[low] * wf[:, None, :]) @ v[low].mT)
    return Xs


def _inv(X: np.ndarray) -> np.ndarray:
    """Inverses of the symmetric PD blocks of the stack."""
    m = X.shape[-1]
    if m == 1:
        return 1.0 / X
    if m == 2:
        a, b, c = X[:, 0, 0], X[:, 0, 1], X[:, 1, 1]
        adj = np.stack([c, -b, -b, a], axis=-1).reshape(-1, 2, 2)
        return adj / (a * c - b * b)[:, None, None]
    return np.linalg.inv(X)


def _refined(solve, A, abs_A, b: np.ndarray) -> np.ndarray:
    """``solve(b)`` refined against the unfactored operator ``A`` while the
    componentwise backward error max |r| / (|A| |x| + |b|) exceeds the
    machine epsilon, at most twice; ``abs_A`` applies |A|. Recovers digits
    lost to ill conditioning near the central-path boundary."""
    x = solve(b)
    for _ in range(2):
        r = b - A(x)
        if (np.abs(r) <= _EPS * (abs_A(np.abs(x)) + np.abs(b))).all():
            break
        x = x + solve(r)
    return x


def _cholesky_floored(X: np.ndarray) -> np.ndarray:
    """Cholesky factors of the (n, m, m) stack; a block that does not factor
    is floored first (``_floor_pd`` at 1e-12), the others are untouched, so
    each block's factor does not depend on the stack it sits in."""
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        L = np.empty_like(X)
        for i, Xb in enumerate(X):
            try:
                L[i] = np.linalg.cholesky(Xb)
            except np.linalg.LinAlgError:
                L[i] = np.linalg.cholesky(_floor_pd(Xb[None], rel=1e-12)[0])
        return L


def _pencil_min(X: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of L^-1 dX L^-T, L L' = X, per block; a block of
    X that is not positive definite is floored first, as
    ``_cholesky_floored`` does."""
    m = X.shape[-1]
    if m > 2:
        Li = np.linalg.inv(_cholesky_floored(X))
        return np.linalg.eigvalsh(_sym(Li @ dX @ Li.mT)).min(axis=1)
    if m == 1:
        x = X[:, 0, 0]
        return dX[:, 0, 0] / np.where(x > 0, x, 1e-12)
    # the 2 x 2 Cholesky factor in closed form: L = [[sqrt a, 0],
    # [g sqrt a, sqrt sc]] with g = b / a and sc = c - g b; it exists
    # exactly where a > 0 and sc > 0

    def cholesky2(X):
        a, b, c = X[:, 0, 0], X[:, 0, 1], X[:, 1, 1]
        g = np.divide(b, a, out=np.zeros_like(a), where=a > 0)
        return a, g, c - g * b

    a, g, sc = cholesky2(X)
    bad = ~((a > 0) & (sc > 0))
    if bad.any():
        X = X.copy()
        X[bad] = _floor_pd(X[bad], rel=1e-12)
        a, g, sc = cholesky2(X)
    da, db, dc = dX[:, 0, 0], 0.5 * (dX[:, 0, 1] + dX[:, 1, 0]), dX[:, 1, 1]
    y00 = da / a
    y01 = (db - g * da) / np.sqrt(a * sc)
    y11 = (dc - g * (2.0 * db - g * da)) / sc
    return _eig2(y00, y01, y11)[0]


def _max_step(X: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Per block of the stack, the largest alpha with X_b + alpha dX_b still
    positive definite (each X_b PD): the smallest positive root of
    det(X_b + alpha dX_b) = 0, which is -1 / lambda_min of the pencil; inf
    where the block does not limit it."""
    lam_min = _pencil_min(X, dX)
    step = np.full(lam_min.shape, np.inf)
    neg = lam_min < 0
    step[neg] = -1.0 / lam_min[neg]
    return step


def _A_apply(st: _Stack, Zs: dict[int, np.ndarray], K: int) -> np.ndarray:
    """sum_b A_b(Z_b): entry i is the sum over the cones of block b on row i
    of <mats_i, Z>, one ``np.bincount`` per cone order."""
    out = np.zeros(K + 1)
    for m, A in st.mats.items():
        N, r = A.shape[:2]
        vals = A.reshape(N, r, m * m) @ Zs[m].reshape(N, m * m, 1)
        out += np.bincount(st.at[m].ravel(), vals.ravel(), minlength=K + 1)
    return out[:K]


def _A_adjoint(st: _Stack, y: np.ndarray) -> dict[int, np.ndarray]:
    """Per cone order, the stack of sum_i y_i mats_i over the rows of each
    cone's block."""
    y = np.append(y, 0.0)
    return {
        m: (y[st.at[m]][:, None, :] @ A.reshape(len(A), -1, m * m)).reshape(-1, m, m)
        for m, A in st.mats.items()
    }


def _schur(st: _Stack, W: dict[int, np.ndarray]) -> np.ndarray:
    """The block part of the Schur complement, the (n, r, r) stack of the
    sums over each block's cones of <mats_i, W mats_j W>, rows i, j of the
    block; zero on pad rows."""
    n, r = st.rows.shape
    out = np.zeros(n * r * r)
    for m, A in st.mats.items():
        N = len(A)
        WA = W[m][:, None] @ A @ W[m][:, None]
        Mc = A.reshape(N, r, m * m) @ WA.reshape(N, r, m * m).mT
        cells = st.block[m][:, None] * (r * r) + np.arange(r * r)
        out += np.bincount(cells.ravel(), Mc.ravel(), minlength=n * r * r)
    return out.reshape(n, r, r)


class _Schur:
    """The Schur complement D + U U' + diag(beta) of the Newton system in
    factored form, never assembled.

    D is block diagonal: the padded ``_schur`` stack on the rows B of the
    blocks, zero on the rows E that belong to no block. U = C L^-T, where
    Q + bump I = L L', so U U' = C Q^-1 C' has rank at most M. Rows are
    permuted once per solve to B (block by block, pad rows included) then
    E; a pad row reads a zero row of U and carries 1 on D's diagonal, so it
    solves to 0 and couples to nothing.

    ``factor`` takes per iteration the blocks D_b + beta_b I (one batched
    Cholesky and inverse over all blocks), the M x M capacitance matrix
    Cap = I + U_B' (D_B + beta_B)^-1 U_B and, by block elimination of B, the
    |E| x |E| matrix T = U_E Cap^-1 U_E' + beta_E I. A plain Woodbury update
    would invert beta_E on E. The bump of a block is relative to its own
    mean diagonal over its real rows: beta_b = 1e-12 (tr D_b / r_b + base)
    and beta_E = 1e-12 base, with base = (|U|^2 + 1e-3 tr D) / K + 1. Near
    convergence the blocks of inactive cones grow like 1/mu, and a bump of
    1e-12 of the mean diagonal over all blocks swamps the nearly empty
    blocks of the active ones (the primal residual then stalled between
    1e-7 and 1e-5 on quintic certificates and on a random program); the
    1e-15 share of that mean that stays keeps iterative refinement
    converging when the blocks span 24 decades. All bumps grow 100-fold
    until every factor exists.
    """

    def __init__(self, st: _Stack, U: np.ndarray):
        K, M = U.shape
        in_block = np.zeros(K + 1, dtype=bool)
        in_block[st.rows] = True
        self.real, self.count = st.real, st.real.sum(axis=1)
        self.nB = st.rows.size
        self.perm = np.concatenate([st.rows.ravel(), np.flatnonzero(~in_block[:K])])
        self.U = np.vstack([U, np.zeros((1, M))])[self.perm]
        self.abs_U = np.abs(self.U)
        self.U_sq = float(np.sum(U * U))
        self.K, self.M = K, M

    def factor(self, Mb: np.ndarray) -> None:
        traces = np.trace(Mb, axis1=1, axis2=2)
        base = (self.U_sq + 1e-3 * float(traces.sum())) / self.K + 1.0
        sizes = traces / self.count + base
        scale = 1e-12
        for _ in range(20):
            try:
                return self._factor(Mb, scale * sizes, scale * base)
            except np.linalg.LinAlgError:
                scale *= 100.0
        raise np.linalg.LinAlgError("Schur complement not positive definite")

    def _factor(self, Mb: np.ndarray, bumps: np.ndarray, beta: float) -> None:
        nB, M = self.nB, self.M
        U_B, U_E = self.U[:nB], self.U[nB:]
        diag = np.arange(Mb.shape[1])
        D = Mb.copy()
        D[:, diag, diag] += np.where(self.real, bumps[:, None], 1.0)
        Li = np.linalg.inv(np.linalg.cholesky(D))
        self.D, self.D_inv, self.abs_D = D, Li.mT @ Li, np.abs(D)
        self.beta = beta
        self.DiU = self._blocks(self.D_inv, U_B)
        self.cap = scipy.linalg.cho_factor(
            np.eye(M) + U_B.T @ self.DiU, lower=True, check_finite=False
        )
        self.T = None
        if len(U_E):
            Y = scipy.linalg.solve_triangular(
                self.cap[0], U_E.T, lower=True, check_finite=False
            )
            self.T = scipy.linalg.cho_factor(
                Y.T @ Y + beta * np.eye(len(U_E)), lower=True, check_finite=False
            )

    def _blocks(self, X: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The block-diagonal matrix given by the (n, r, r) stack X times v,
        on B."""
        return (X @ v.reshape(X.shape[:2] + (v.shape[1:] or (1,)))).reshape(v.shape)

    def _apply(self, D: np.ndarray, U: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(D + U U') x in the permuted order, D with the bumps on B, plus
        beta_E x on E."""
        out = U @ (U.T @ x)
        out[: self.nB] += self._blocks(D, x[: self.nB])
        out[self.nB :] += self.beta * x[self.nB :]
        return out

    def _solve(self, b: np.ndarray) -> np.ndarray:
        nB = self.nB
        U_B, U_E = self.U[:nB], self.U[nB:]
        w = self._blocks(self.D_inv, b[:nB])
        x_E = b[nB:]
        if self.T is not None:
            y = _cho_solve(self.cap, U_B.T @ w)
            x_E = _cho_solve(self.T, x_E - U_E @ y)
            w = w - self.DiU @ (U_E.T @ x_E)
        y = _cho_solve(self.cap, U_B.T @ w)
        return np.concatenate([w - self.DiU @ y, x_E])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution of the system, refined (``_refined``) against the
        unfactored operator."""
        x = _refined(
            self._solve,
            lambda v: self._apply(self.D, self.U, v),
            lambda v: self._apply(self.abs_D, self.abs_U, v),
            np.append(b, 0.0)[self.perm],
        )
        out = np.empty(self.K + 1)
        out[self.perm] = x
        return out[: self.K]


def _centering(mu_aff: float, mu: float) -> float:
    """Mehrotra's centering parameter (mu_aff / mu)^3 within [1e-6, 0.8].
    The ratio is clamped at 1 before cubing (sigma is 0.8 from a ratio of
    0.93 on, and the cube of a large ratio overflows), and taken as 1 when
    rounding has left mu at or below 0."""
    ratio = min(mu_aff, mu) / mu if mu > 0 else 1.0
    return min(0.8, max(1e-6, ratio**3))


def solve_conic(
    prob: ConicProblem,
    gap_tol: float = 1e-7,
    max_iter: int = 200,
) -> ConicSolution:
    """Path-following solve; deterministic for identical inputs.

    Stops when the relative primal and dual residuals are within FEAS_TOL
    and the relative gap within ``gap_tol``. Without rows it returns the
    regularised unconstrained minimizer.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    Q, q, C, c = prob.Q, prob.q, prob.C, prob.c
    for name, a in (("Q", Q), ("q", q), ("C", C), ("c", c)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has a NaN or infinite entry")
    K = C.shape[0]
    st = _stack_blocks(prob.blocks, K)
    Q_fact, Qr = regularised_cholesky(Q)
    theta = _cho_solve(Q_fact, -q)
    if not K:
        obj = 0.5 * theta @ Q @ theta + q @ theta
        return ConicSolution(theta, [], [], np.zeros(0), obj, 0.0, 0.0, 0.0, 0)
    abs_Qr = np.abs(Qr)

    def q_solve(b):
        return _refined(
            lambda v: _cho_solve(Q_fact, v),
            lambda v: Qr @ v,
            lambda v: abs_Qr @ v,
            b,
        )

    # row equilibration: certificate rows mix O(1) selectors with large
    # basis-transform entries; scaling each row to unit size keeps the Schur
    # complement well conditioned and does not change (theta, Z)
    mats_sq = np.zeros(K + 1)
    for m, A in st.mats.items():
        w = (A**2).sum(axis=(2, 3)).ravel()
        mats_sq += np.bincount(st.at[m].ravel(), w, minlength=K + 1)
    rs = np.append(np.sqrt((C**2).sum(axis=1)), 0.0)
    rs = np.maximum(np.maximum(rs, np.sqrt(mats_sq)), 1e-300)
    C = C / rs[:K, None]
    c = c / rs[:K]
    st.mats = {m: A / rs[st.at[m]][:, :, None, None] for m, A in st.mats.items()}

    # the constant part of the Schur complement is U U' with U = C L^-T
    schur = _Schur(
        st,
        scipy.linalg.solve_triangular(
            Q_fact[0], C.T, lower=True, check_finite=False
        ).T,
    )

    # iterates: one (N_m, m, m) stack per cone order m
    sizes = {m: len(A) for m, A in st.mats.items()}
    scale = max(1.0, np.abs(c).max())
    Z = {m: scale * np.tile(np.eye(m), (n, 1, 1)) for m, n in sizes.items()}
    S = {m: Zm.copy() for m, Zm in Z.items()}
    lam = np.zeros(K)

    nu = sum(m * n for m, n in sizes.items())
    c_norm = 1.0 + np.linalg.norm(c)
    q_norm = 1.0 + np.linalg.norm(q)

    def finish(sol):
        # per-cone matrices, and duals back in the scale of the caller's rows
        return replace(
            sol, Z=_unstack(st, sol.Z), S=_unstack(st, sol.S), lam=sol.lam / rs[:K]
        )

    best = None
    best_metric = np.inf
    best_it = 0

    for it in range(max_iter):
        r_p = c - C @ theta - _A_apply(st, Z, K)
        r_d = Q @ theta + q - C.T @ lam
        adj = _A_adjoint(st, lam)
        r_s = {m: S[m] + adj[m] for m in S}
        gap = sum(np.sum(Z[m] * S[m]) for m in Z)
        mu = gap / max(nu, 1)
        pobj = 0.5 * theta @ Q @ theta + q @ theta
        rel_p = np.linalg.norm(r_p) / c_norm
        rel_d = np.linalg.norm(r_d) / q_norm
        rel_gap = gap / (1.0 + abs(pobj))

        if rel_p <= FEAS_TOL and rel_d <= FEAS_TOL and rel_gap <= gap_tol:
            return finish(
                ConicSolution(theta, Z, S, lam, pobj, rel_gap, rel_p, rel_d, it)
            )

        metric = rel_p + rel_d + rel_gap
        if metric < 0.9 * best_metric:
            best_it = it
        if metric < best_metric:
            best_metric = metric
            # the iterate as it stands, stacks and all; ``finish`` on return
            best = ConicSolution(theta, Z, S, lam, pobj, rel_gap, rel_p, rel_d, it)

        # stalled at the floating-point accuracy floor: accept the best
        # iterate when it is close to tolerance
        if (
            it - best_it >= 20
            and best.rel_primal <= 100 * FEAS_TOL
            and best.rel_dual <= 100 * FEAS_TOL
            and best.rel_gap <= 100 * gap_tol
        ):
            return finish(best)

        # infeasibility heuristic: complementarity collapsed but the primal
        # residual cannot be driven down and the duals blow up
        dual_mag = np.linalg.norm(lam)
        if mu < 1e-10 * scale and rel_p > 1e-5 and dual_mag > 1e8:
            raise ConicInfeasibleError(
                f"constraints look infeasible (primal residual {rel_p:.2e}, "
                f"dual magnitude {dual_mag:.2e})"
            )

        # floored copies are used wherever positive definiteness is
        # required; the iterates themselves stay unmodified so the
        # primal residual is not polluted by the flooring; one call per
        # cone order floors Z and S stacked
        ZSf = {m: _floor_pd(np.concatenate([Z[m], S[m]])) for m in Z}
        Zf = {m: X[: sizes[m]] for m, X in ZSf.items()}
        Sf = {m: X[sizes[m] :] for m, X in ZSf.items()}
        W = {m: _nt_scaling(Zf[m], Sf[m]) for m in Z}
        schur.factor(_schur(st, W))
        S_inv = {m: _inv(Sf[m]) for m in Z}
        W_rs_W = {m: W[m] @ r_s[m] @ W[m] for m in Z}
        CQi_rd = C @ q_solve(r_d)

        def solve_direction(sigma_mu):
            # Newton system with NT-linearized centrality
            #   dZ + W dS W = R,  R = sigma*mu*S^-1 - Z
            # eliminated down to the Schur system in d_lam.
            R = {m: sigma_mu * S_inv[m] - Z[m] for m in Z}
            RW = {m: R[m] + W_rs_W[m] for m in Z}
            rhs = r_p - _A_apply(st, RW, K) + CQi_rd
            d_lam = schur.solve(rhs)
            d_theta = q_solve(-r_d + C.T @ d_lam)
            adj = _A_adjoint(st, d_lam)
            d_S = {m: -r_s[m] - adj[m] for m in Z}
            d_Z = {m: _sym(R[m] + W[m] @ (r_s[m] + adj[m]) @ W[m]) for m in Z}
            return d_theta, d_lam, d_Z, d_S

        def step_lengths(d_Z, d_S):
            # fraction to the boundary of the PSD cones, one call per cone
            # order on Z and S stacked
            a_p = a_d = 1.0
            for m, X in ZSf.items():
                step = _max_step(X, np.concatenate([d_Z[m], d_S[m]]))
                a_p = min(a_p, step[: sizes[m]].min())
                a_d = min(a_d, step[sizes[m] :].min())
            return min(1.0, 0.98 * a_p), min(1.0, 0.98 * a_d)

        # predictor
        d_theta, d_lam, d_Z, d_S = solve_direction(0.0)
        a_p, a_d = step_lengths(d_Z, d_S)
        gap_aff = sum(
            np.sum((Z[m] + a_p * d_Z[m]) * (S[m] + a_d * d_S[m])) for m in Z
        )
        mu_aff = max(gap_aff, 0.0) / max(nu, 1)
        sigma = _centering(mu_aff, mu)

        # corrector (recentering) step
        d_theta, d_lam, d_Z, d_S = solve_direction(sigma * mu)
        a_p, a_d = step_lengths(d_Z, d_S)

        theta = theta + a_p * d_theta
        Z = {m: _sym(Z[m] + a_p * d_Z[m]) for m in Z}
        lam = lam + a_d * d_lam
        S = {m: _sym(S[m] + a_d * d_S[m]) for m in S}

    raise ConicConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(best residuals p={best.rel_primal:.2e} d={best.rel_dual:.2e} "
        f"gap={best.rel_gap:.2e})",
        finish(best),
    )


def regularised_cholesky(A: np.ndarray):
    """(cho_factor, A + bump I) with the smallest bump that factors, starting
    at 1e-12 (tr A / n + 1) and growing 100-fold; the one factorization of
    the quadratic data Q, in the solver and in the fits. ``_Schur`` bumps
    the Schur complement block by block instead (see there)."""
    bump = 1e-12 * (np.trace(A) / max(A.shape[0], 1) + 1.0)
    for _ in range(20):
        bumped = A + bump * np.eye(A.shape[0])
        try:
            return scipy.linalg.cho_factor(bumped, lower=True), bumped
        except scipy.linalg.LinAlgError:
            bump *= 100.0
    raise scipy.linalg.LinAlgError("matrix not positive definite")
