"""Primal-dual interior-point solver for quadratic programs coupled to many
independent small positive-semidefinite blocks.

Problem form:

    min  1/2 theta' Q theta + q' theta
    s.t. C theta + sum_b A_b(Z_b) = c,      Z_b >= 0 (PSD)

where each equality row touches at most one block: the rows of different
blocks are disjoint and lie in 0..K-1 (``solve_conic`` raises ``ValueError``
otherwise, and on any NaN or infinite entry). Blocks are tiny (order <= 8),
so all per-block linear algebra is dense.

Once per solve the blocks are grouped by (order m, number of rows r) and each
group is held as stacked arrays: rows ``(n, r)``, constraint matrices
``(n, r, m, m)`` and iterates ``Z``, ``S`` of shape ``(n, m, m)``. Flooring,
NT scaling, inverses, step lengths and the Schur contributions are batched
numpy calls over the leading axis, one per group; disjoint rows make the
scatter-add of a group's contributions exact. Nesterov-Todd scaling,
Mehrotra-style adaptive centering, fraction-to-boundary steps.

The Schur complement of the Newton system is never formed. It is block
diagonal over the blocks' rows plus ``C Q^-1 C'``, whose rank is at most
M = len(theta), so ``_Schur`` factors the (r, r) blocks batched per group
and folds in the rank-M term through an M x M capacitance matrix
(Sherman-Morrison-Woodbury, as SDPT3 treats dense columns; Toh, Todd &
Tutuncu 1999). Rows in no block get their own small term by block
elimination. Each solve costs O(K (r + M)) instead of O(K^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

FEAS_TOL = 1e-7  # relative primal and dual residual at convergence
_EPS = np.finfo(float).eps


class ConicInfeasibleError(RuntimeError):
    """The solver diagnosed the constraint system as infeasible."""


class ConicConvergenceError(RuntimeError):
    """Iteration cap reached before tolerances were met."""

    def __init__(self, message: str, best: "ConicSolution"):
        super().__init__(message)
        self.best = best


@dataclass
class ConicBlock:
    """One PSD block: constraint matrices ``mats[i]`` act on rows ``rows[i]``."""

    order: int
    rows: np.ndarray  # row indices, length r
    mats: np.ndarray  # (r, order, order), symmetric


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


@dataclass
class _Group:
    """Blocks of one (order, row count), stacked along the leading axis."""

    index: np.ndarray  # (n,) positions in ConicProblem.blocks
    rows: np.ndarray  # (n, r)
    mats: np.ndarray  # (n, r, m, m)


def _group_blocks(blocks: list[ConicBlock], K: int) -> list[_Group]:
    """Stack the blocks by (order, row count), groups in order of first
    appearance; rows that overlap or fall outside 0..K-1 are rejected."""
    if blocks:
        rows = np.concatenate([np.ravel(b.rows) for b in blocks])
        if rows.size and (rows.min() < 0 or rows.max() >= K):
            raise ValueError(f"block rows must lie in 0..{K - 1}")
        if np.unique(rows).size != rows.size:
            raise ValueError("blocks must touch disjoint rows")
    members: dict[tuple[int, int], list[int]] = {}
    for i, b in enumerate(blocks):
        members.setdefault((b.order, len(b.rows)), []).append(i)
    return [
        _Group(
            np.array(idx),
            np.array([blocks[i].rows for i in idx]),
            np.array([blocks[i].mats for i in idx], dtype=float),
        )
        for idx in members.values()
    ]


def _unstack(groups: list[_Group], stacks: list[np.ndarray]) -> list:
    """Per-block matrices in the input order of the blocks."""
    out = [None] * sum(len(g.index) for g in groups)
    for g, X in zip(groups, stacks):
        for i, Xb in zip(g.index, X):
            out[i] = Xb
    return out


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.mT)


def _nt_scaling(Z: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Symmetric PD W with W S W = Z for each block of the (n, m, m) stacks."""
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
    Xs = _sym(X)
    w, v = np.linalg.eigh(Xs)
    floor = rel * np.maximum(w.max(axis=1), 1.0)
    low = w.min(axis=1) < floor
    if low.any():
        wf = np.maximum(w[low], floor[low, None])
        Xs[low] = _sym((v[low] * wf[:, None, :]) @ v[low].mT)
    return Xs


def _refined_solve(fact, A: np.ndarray, b: np.ndarray):
    """Cholesky solve with two rounds of iterative refinement; recovers
    digits lost to ill conditioning near the central-path boundary."""
    x = scipy.linalg.cho_solve(fact, b, check_finite=False)
    for _ in range(2):
        r = b - A @ x
        x = x + scipy.linalg.cho_solve(fact, r, check_finite=False)
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


def _max_step(X: np.ndarray, dX: np.ndarray) -> np.ndarray:
    """Per block of the stack, the largest alpha with X_b + alpha dX_b still
    positive definite (each X_b PD); inf where the block does not limit it."""
    Li = np.linalg.inv(_cholesky_floored(X))
    lam_min = np.linalg.eigvalsh(_sym(Li @ dX @ Li.mT)).min(axis=1)
    step = np.full(lam_min.shape, np.inf)
    neg = lam_min < 0
    step[neg] = -1.0 / lam_min[neg]
    return step


def _A_apply(groups: list[_Group], Zs: list[np.ndarray], K: int) -> np.ndarray:
    """sum_b A_b(Z_b): entry i is <mats_i, Z_b> for the block b on row i."""
    out = np.zeros(K)
    for g, Zg in zip(groups, Zs):
        n, r = g.rows.shape
        out[g.rows] += (g.mats.reshape(n, r, -1) @ Zg.reshape(n, -1, 1))[..., 0]
    return out


def _A_adjoint(groups: list[_Group], y: np.ndarray) -> list[np.ndarray]:
    """Per group, the stack of sum_i y_i mats_i over each block's rows."""
    out = []
    for g in groups:
        n, r, m, _ = g.mats.shape
        flat = y[g.rows][:, None, :] @ g.mats.reshape(n, r, m * m)
        out.append(flat.reshape(n, m, m))
    return out


def _schur(groups: list[_Group], W: list[np.ndarray]) -> list[np.ndarray]:
    """The block part of the Schur complement, per group the (n, r, r) stack
    of <mats_i, W mats_j W> over the rows i, j of each block."""
    out = []
    for g, Wg in zip(groups, W):
        n, r, m, _ = g.mats.shape
        WA = Wg[:, None] @ g.mats @ Wg[:, None]
        out.append(g.mats.reshape(n, r, m * m) @ WA.reshape(n, r, m * m).mT)
    return out


class _Schur:
    """The Schur complement D + U U' + beta I of the Newton system in
    factored form, never assembled.

    D is block diagonal: the ``_schur`` stacks on the rows B of the blocks,
    zero on the rows E that belong to no block. U = C L^-T, where
    Q + bump I = L L', so U U' = C Q^-1 C' has rank at most M. Rows are
    permuted once per solve to B (group by group, block by block) then E.

    ``factor`` takes per iteration the blocks D_b + beta I (one batched
    Cholesky and inverse per group), the M x M capacitance matrix
    Cap = I + U_B' (D_B + beta I)^-1 U_B and, by block elimination of B, the
    |E| x |E| matrix T = U_E Cap^-1 U_E' + beta I. A plain Woodbury update of
    D + beta I would invert beta on E. beta starts at the bump
    ``regularised_cholesky`` would give the assembled matrix and grows
    100-fold until every factor exists.
    """

    def __init__(self, groups: list[_Group], U: np.ndarray):
        K, M = U.shape
        in_block = np.zeros(K, dtype=bool)
        self.slices = []  # (slice of B, n, r) per group
        start = 0
        for g in groups:
            n, r = g.rows.shape
            in_block[g.rows] = True
            self.slices.append((slice(start, start + n * r), n, r))
            start += n * r
        self.nB = start
        self.perm = np.concatenate(
            [g.rows.ravel() for g in groups] + [np.flatnonzero(~in_block)]
        ).astype(np.intp)
        self.U = U[self.perm]
        self.abs_U = np.abs(self.U)
        self.U_sq = float(np.sum(U * U))
        self.K, self.M = K, M

    def factor(self, Mb: list[np.ndarray]) -> None:
        trace = sum(float(np.trace(Mg, axis1=1, axis2=2).sum()) for Mg in Mb)
        beta = 1e-12 * ((trace + self.U_sq) / self.K + 1.0)
        for _ in range(20):
            try:
                return self._factor(Mb, beta)
            except np.linalg.LinAlgError:
                beta *= 100.0
        raise np.linalg.LinAlgError("Schur complement not positive definite")

    def _factor(self, Mb: list[np.ndarray], beta: float) -> None:
        nB, M = self.nB, self.M
        U_B, U_E = self.U[:nB], self.U[nB:]
        D = [Mg + beta * np.eye(Mg.shape[1]) for Mg in Mb]
        D_inv = []
        for Dg in D:
            Li = np.linalg.inv(np.linalg.cholesky(Dg))
            D_inv.append(Li.mT @ Li)
        self.D, self.D_inv = D, D_inv
        self.abs_D = [np.abs(Dg) for Dg in D]
        self.beta = beta
        self.DiU = self._blocks(D_inv, U_B)
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

    def _blocks(self, stacks: list[np.ndarray], v: np.ndarray) -> np.ndarray:
        """The block-diagonal matrix given by ``stacks`` times v, on B."""
        out = np.empty(v.shape)
        for (sl, n, r), X in zip(self.slices, stacks):
            out[sl] = (X @ v[sl].reshape(n, r, -1)).reshape(out[sl].shape)
        return out

    def _apply(self, D: list[np.ndarray], U: np.ndarray, x: np.ndarray) -> np.ndarray:
        """(D + beta I + U U') x in the permuted order."""
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
            y = scipy.linalg.cho_solve(self.cap, U_B.T @ w, check_finite=False)
            x_E = scipy.linalg.cho_solve(self.T, x_E - U_E @ y, check_finite=False)
            w = w - self.DiU @ (U_E.T @ x_E)
        y = scipy.linalg.cho_solve(self.cap, U_B.T @ w, check_finite=False)
        return np.concatenate([w - self.DiU @ y, x_E])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """The solution of the system, refined against the unfactored
        operator while the componentwise backward error
        max |r| / (|A| |x| + |b|) exceeds the machine epsilon, at most twice."""
        b = b[self.perm]
        x = self._solve(b)
        for _ in range(2):
            r = b - self._apply(self.D, self.U, x)
            scale = self._apply(self.abs_D, self.abs_U, np.abs(x)) + np.abs(b)
            if (np.abs(r) <= _EPS * scale).all():
                break
            x = x + self._solve(r)
        out = np.empty_like(x)
        out[self.perm] = x
        return out


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
    groups = _group_blocks(prob.blocks, K)
    for g in groups:
        bad = ~np.isfinite(g.mats).all(axis=(1, 2, 3))
        if bad.any():
            i = g.index[np.argmax(bad)]
            raise ValueError(f"blocks[{i}].mats has a NaN or infinite entry")
    Q_fact, Qr = regularised_cholesky(Q)
    theta = scipy.linalg.cho_solve(Q_fact, -q)
    if not K:
        obj = 0.5 * theta @ Q @ theta + q @ theta
        return ConicSolution(theta, [], [], np.zeros(0), obj, 0.0, 0.0, 0.0, 0)

    # row equilibration: certificate rows mix O(1) selectors with large
    # basis-transform entries; scaling each row to unit size keeps the Schur
    # complement well conditioned and does not change (theta, Z)
    rs = np.sqrt((C**2).sum(axis=1))
    for g in groups:
        rs[g.rows] = np.maximum(
            rs[g.rows], np.sqrt((g.mats**2).sum(axis=(2, 3)))
        )
    rs = np.maximum(rs, 1e-300)
    C = C / rs[:, None]
    c = c / rs
    for g in groups:
        g.mats = g.mats / rs[g.rows][:, :, None, None]

    # the constant part of the Schur complement is U U' with U = C L^-T
    schur = _Schur(
        groups,
        scipy.linalg.solve_triangular(
            Q_fact[0], C.T, lower=True, check_finite=False
        ).T,
    )

    scale = max(1.0, np.abs(c).max())
    Z = [
        scale * np.tile(np.eye(g.mats.shape[2]), (len(g.index), 1, 1))
        for g in groups
    ]
    S = [Zg.copy() for Zg in Z]
    lam = np.zeros(K)

    nu = sum(g.mats.shape[0] * g.mats.shape[2] for g in groups)
    c_norm = 1.0 + np.linalg.norm(c)
    q_norm = 1.0 + np.linalg.norm(q)

    def solution(theta, Z, S, lam, pobj, rel_gap, rel_p, rel_d, it):
        # duals back in the scale of the caller's rows
        return ConicSolution(
            theta, _unstack(groups, Z), _unstack(groups, S), lam / rs,
            pobj, rel_gap, rel_p, rel_d, it,
        )

    best = None
    best_metric = np.inf
    best_it = 0

    for it in range(max_iter):
        r_p = c - C @ theta - _A_apply(groups, Z, K)
        r_d = Q @ theta + q - C.T @ lam
        r_s = [Sg + Ag for Sg, Ag in zip(S, _A_adjoint(groups, lam))]
        gap = sum(np.sum(Zg * Sg) for Zg, Sg in zip(Z, S))
        mu = gap / max(nu, 1)
        pobj = 0.5 * theta @ Q @ theta + q @ theta
        rel_p = np.linalg.norm(r_p) / c_norm
        rel_d = np.linalg.norm(r_d) / q_norm
        rel_gap = gap / (1.0 + abs(pobj))

        if rel_p <= FEAS_TOL and rel_d <= FEAS_TOL and rel_gap <= gap_tol:
            return solution(theta, Z, S, lam, pobj, rel_gap, rel_p, rel_d, it)

        metric = rel_p + rel_d + rel_gap
        if metric < 0.9 * best_metric:
            best_it = it
        if metric < best_metric:
            best_metric = metric
            best = solution(theta, Z, S, lam, pobj, rel_gap, rel_p, rel_d, it)

        # stalled at the floating-point accuracy floor: accept the best
        # iterate when it is close to tolerance
        if (
            it - best_it >= 20
            and best.rel_primal <= 100 * FEAS_TOL
            and best.rel_dual <= 100 * FEAS_TOL
            and best.rel_gap <= 100 * gap_tol
        ):
            return best

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
        # primal residual is not polluted by the flooring; one batched
        # call per group floors Z and S stacked
        ZSf = [_floor_pd(np.concatenate([Zg, Sg])) for Zg, Sg in zip(Z, S)]
        Zf = [X[: len(X) // 2] for X in ZSf]
        Sf = [X[len(X) // 2 :] for X in ZSf]
        W = [_nt_scaling(Zg, Sg) for Zg, Sg in zip(Zf, Sf)]
        schur.factor(_schur(groups, W))
        S_inv = [np.linalg.inv(Sg) for Sg in Sf]
        W_rs_W = [Wg @ rsg @ Wg for Wg, rsg in zip(W, r_s)]
        CQi_rd = C @ _refined_solve(Q_fact, Qr, r_d)

        def solve_direction(sigma_mu):
            # Newton system with NT-linearized centrality
            #   dZ + W dS W = R,  R = sigma*mu*S^-1 - Z
            # eliminated down to the Schur system in d_lam.
            R = [sigma_mu * Si - Zg for Si, Zg in zip(S_inv, Z)]
            RW = [Rg + X for Rg, X in zip(R, W_rs_W)]
            rhs = r_p - _A_apply(groups, RW, K) + CQi_rd
            d_lam = schur.solve(rhs)
            d_theta = _refined_solve(Q_fact, Qr, -r_d + C.T @ d_lam)
            adj = _A_adjoint(groups, d_lam)
            d_S = [-rsg - Ag for rsg, Ag in zip(r_s, adj)]
            d_Z = [
                _sym(Rg + Wg @ (rsg + Ag) @ Wg)
                for Rg, Wg, rsg, Ag in zip(R, W, r_s, adj)
            ]
            return d_theta, d_lam, d_Z, d_S

        def step_lengths(d_Z, d_S):
            # fraction to the boundary of the PSD cones, one batched call
            # per group on Z and S stacked
            a_p = a_d = 1.0
            for X, dZg, dSg in zip(ZSf, d_Z, d_S):
                step = _max_step(X, np.concatenate([dZg, dSg]))
                a_p = min(a_p, step[: len(dZg)].min())
                a_d = min(a_d, step[len(dZg) :].min())
            return min(1.0, 0.98 * a_p), min(1.0, 0.98 * a_d)

        # predictor
        d_theta, d_lam, d_Z, d_S = solve_direction(0.0)
        a_p, a_d = step_lengths(d_Z, d_S)
        gap_aff = sum(
            np.sum((Zg + a_p * dZg) * (Sg + a_d * dSg))
            for Zg, dZg, Sg, dSg in zip(Z, d_Z, S, d_S)
        )
        mu_aff = max(gap_aff, 0.0) / max(nu, 1)
        sigma = min(0.8, max(1e-6, (mu_aff / max(mu, 1e-300)) ** 3))

        # corrector (recentering) step
        d_theta, d_lam, d_Z, d_S = solve_direction(sigma * mu)
        a_p, a_d = step_lengths(d_Z, d_S)

        theta = theta + a_p * d_theta
        Z = [_sym(Zg + a_p * dZg) for Zg, dZg in zip(Z, d_Z)]
        lam = lam + a_d * d_lam
        S = [_sym(Sg + a_d * dSg) for Sg, dSg in zip(S, d_S)]

    raise ConicConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(best residuals p={best.rel_primal:.2e} d={best.rel_dual:.2e} "
        f"gap={best.rel_gap:.2e})",
        best,
    )


def regularised_cholesky(A: np.ndarray):
    """(cho_factor, A + bump I) with the smallest bump that factors, starting
    at 1e-12 (tr A / n + 1) and growing 100-fold; the one factorization of
    the quadratic data Q, in the solver and in the fits. ``_Schur`` applies
    the same bump rule to the Schur complement without assembling it."""
    bump = 1e-12 * (np.trace(A) / max(A.shape[0], 1) + 1.0)
    for _ in range(20):
        bumped = A + bump * np.eye(A.shape[0])
        try:
            return scipy.linalg.cho_factor(bumped, lower=True), bumped
        except scipy.linalg.LinAlgError:
            bump *= 100.0
    raise scipy.linalg.LinAlgError("matrix not positive definite")
