import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from missoc.conic import (
    ConicBlock,
    ConicConvergenceError,
    ConicProblem,
    _A_adjoint,
    _A_apply,
    _floor_pd,
    _group_blocks,
    _max_step,
    _nt_scaling,
    _schur,
    _unstack,
    solve_conic,
)
from missoc.regression import TrainingSet, make_bases
from missoc.shapecon import CONVEX, INCREASING, PointwiseSet, ShapeSpec, build_program

# batched kernels against the per-block loops: relative to the block's size
RTOL = 1e-12


# --- per-block loop references (the solver's kernels before batching) -----


def sym(a):
    return 0.5 * (a + a.T)


def floor_pd_ref(X, rel=1e-14):
    w, v = np.linalg.eigh(sym(X))
    floor = rel * max(w.max(), 1.0)
    if w.min() >= floor:
        return sym(X)
    return sym((v * np.maximum(w, floor)) @ v.T)


def nt_scaling_ref(Z, S):
    ws, vs = np.linalg.eigh(S)
    ws = np.maximum(ws, 1e-300)
    S_half = (vs * np.sqrt(ws)) @ vs.T
    S_ihalf = (vs / np.sqrt(ws)) @ vs.T
    inner = sym(S_half @ Z @ S_half)
    wi, vi = np.linalg.eigh(inner)
    wi = np.maximum(wi, 1e-300)
    inner_half = (vi * np.sqrt(wi)) @ vi.T
    return sym(S_ihalf @ inner_half @ S_ihalf)


def max_step_ref(X, dX):
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        L = np.linalg.cholesky(floor_pd_ref(X, rel=1e-12))
    Y = scipy.linalg.solve_triangular(L, dX, lower=True)
    Y = scipy.linalg.solve_triangular(L, Y.T, lower=True)
    lam_min = np.linalg.eigvalsh(sym(Y)).min()
    if lam_min >= 0:
        return np.inf
    return -1.0 / lam_min


def schur_ref(blocks, W, K):
    Mmat = np.zeros((K, K))
    for b, Wb in zip(blocks, W):
        WA = np.einsum("ik,rkl,lj->rij", Wb, b.mats, Wb)
        Mmat[np.ix_(b.rows, b.rows)] += np.einsum("rij,sij->rs", b.mats, WA)
    return Mmat


# --- random data ------------------------------------------------------------


def random_spd(rng, n, m, log_cond=2.0):
    V = np.linalg.qr(rng.normal(size=(n, m, m)))[0]
    w = 10.0 ** rng.uniform(-log_cond / 2, log_cond / 2, size=(n, m))
    return (V * w[:, None, :]) @ V.mT


def random_sym(rng, n, m):
    A = rng.normal(size=(n, m, m))
    return 0.5 * (A + A.mT)


def assert_blocks_close(batched, loop):
    for Xb, Rb in zip(batched, loop):
        assert np.abs(Xb - Rb).max() <= RTOL * max(np.abs(Rb).max(), 1.0)


def random_blocks(rng, K, n_blocks):
    """Blocks of orders 1-4 on disjoint random rows of 0..K-1."""
    free = list(rng.permutation(K))
    blocks = []
    for _ in range(n_blocks):
        m = int(rng.integers(1, 5))
        r = int(rng.choice([1, 2 * m - 1]))
        rows = np.array([free.pop() for _ in range(r)])
        blocks.append(ConicBlock(m, rows, random_sym(rng, r, m)))
    return blocks


ORDERS = [1, 2, 3, 4]


class TestBatchedKernels:
    @pytest.mark.parametrize("m", ORDERS)
    def test_floor_pd_matches_loop(self, m):
        rng = np.random.default_rng(10 + m)
        X = random_sym(rng, 40, m)
        # half the blocks have a sub-floor eigenvalue and get floored
        X[::2] = random_spd(rng, 20, m, log_cond=20.0) - 1e-16 * np.eye(m)
        assert_blocks_close(_floor_pd(X), [floor_pd_ref(Xb) for Xb in X])
        assert_blocks_close(
            _floor_pd(X, rel=1e-12), [floor_pd_ref(Xb, rel=1e-12) for Xb in X]
        )

    @pytest.mark.parametrize("m", ORDERS)
    def test_nt_scaling_matches_loop(self, m):
        rng = np.random.default_rng(20 + m)
        Z = random_spd(rng, 40, m)
        S = random_spd(rng, 40, m)
        assert_blocks_close(
            _nt_scaling(Z, S), [nt_scaling_ref(Zb, Sb) for Zb, Sb in zip(Z, S)]
        )

    @pytest.mark.parametrize("m", ORDERS)
    def test_nt_scaling_maps_s_to_z(self, m):
        rng = np.random.default_rng(30 + m)
        Z = random_spd(rng, 40, m)
        S = random_spd(rng, 40, m)
        W = _nt_scaling(Z, S)
        np.testing.assert_array_equal(W, W.mT)
        assert np.linalg.eigvalsh(W).min() > 0
        for Wb, Sb, Zb in zip(W, S, Z):
            assert np.abs(Wb @ Sb @ Wb - Zb).max() <= 1e-10 * np.abs(Zb).max()

    @pytest.mark.parametrize("m", ORDERS)
    def test_max_step_matches_loop(self, m):
        rng = np.random.default_rng(40 + m)
        X = random_spd(rng, 40, m)
        dX = random_sym(rng, 40, m)
        ref = min(max_step_ref(Xb, dXb) for Xb, dXb in zip(X, dX))
        assert np.isfinite(ref)
        assert _max_step(X, dX) == pytest.approx(ref, rel=RTOL)

    def test_max_step_unlimited(self):
        rng = np.random.default_rng(50)
        X = random_spd(rng, 10, 3)
        assert _max_step(X, random_spd(rng, 10, 3)) == np.inf

    def test_max_step_near_singular_block_uses_floor(self):
        rng = np.random.default_rng(60)
        m = 4
        X = random_spd(rng, 12, m)
        V = np.linalg.qr(rng.normal(size=(m, m)))[0]
        # one block with a slightly negative eigenvalue: Cholesky fails
        X[5] = sym((V * np.array([1.0, 0.5, 0.25, -1e-15])) @ V.T)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(X)
        dX = 0.01 * random_sym(rng, 12, m)
        # that block limits the step: its unit eigenvalue shrinks at rate 2
        dX[5] = -2.0 * np.outer(V[:, 0], V[:, 0])
        ref = min(max_step_ref(Xb, dXb) for Xb, dXb in zip(X, dX))
        assert ref == pytest.approx(0.5, rel=RTOL)
        assert _max_step(X, dX) == pytest.approx(ref, rel=RTOL)


class TestGroupedAssembly:
    def setup_method(self):
        rng = np.random.default_rng(70)
        self.K = 90
        self.blocks = random_blocks(rng, self.K, 24)
        self.groups = _group_blocks(self.blocks, self.K)
        self.W = [random_spd(rng, 1, b.order)[0] for b in self.blocks]
        self.W_stacks = [np.array([self.W[i] for i in g.index]) for g in self.groups]
        self.rng = rng

    def test_groups_by_order_and_rows(self):
        keys = [(g.mats.shape[2], g.rows.shape[1]) for g in self.groups]
        assert len(set(keys)) == len(keys)
        assert sorted(i for g in self.groups for i in g.index) == list(range(24))
        for g in self.groups:
            for i, rows, mats in zip(g.index, g.rows, g.mats):
                np.testing.assert_array_equal(rows, self.blocks[i].rows)
                np.testing.assert_array_equal(mats, self.blocks[i].mats)

    def test_unstack_restores_input_order(self):
        out = _unstack(self.groups, self.W_stacks)
        for Wb, ref in zip(out, self.W):
            np.testing.assert_array_equal(Wb, ref)

    def test_schur_matches_loop(self):
        ref = schur_ref(self.blocks, self.W, self.K)
        got = _schur(self.groups, self.W_stacks, self.K)
        assert np.abs(got - ref).max() <= RTOL * np.abs(ref).max()

    def test_A_apply_and_adjoint_match_loop(self):
        Z = [random_sym(self.rng, 1, b.order)[0] for b in self.blocks]
        Z_stacks = [np.array([Z[i] for i in g.index]) for g in self.groups]
        ref = np.zeros(self.K)
        for b, Zb in zip(self.blocks, Z):
            ref[b.rows] += np.einsum("rij,ij->r", b.mats, Zb)
        got = _A_apply(self.groups, Z_stacks, self.K)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL)

        y = self.rng.normal(size=self.K)
        adj = _unstack(self.groups, _A_adjoint(self.groups, y))
        for b, Ab in zip(self.blocks, adj):
            ref_b = np.einsum("r,rij->ij", y[b.rows], b.mats)
            np.testing.assert_allclose(Ab, ref_b, rtol=RTOL, atol=RTOL)


def tiny_problem(blocks, K=3):
    return ConicProblem(
        Q=np.eye(2), q=np.zeros(2), C=np.ones((K, 2)), c=np.ones(K), blocks=blocks
    )


class TestNoRows:
    def test_theta_is_the_regularised_solve(self):
        # a rank-deficient Q, so the regularisation is what makes it solvable
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 6))
        Q, q = A.T @ A, rng.normal(size=6)
        sol = solve_conic(ConicProblem(Q, q, np.zeros((0, 6)), np.zeros(0)))
        reg = 1e-12 * (np.trace(Q) / 6 + 1.0)
        fact = scipy.linalg.cho_factor(Q + reg * np.eye(6), lower=True)
        np.testing.assert_array_equal(sol.theta, scipy.linalg.cho_solve(fact, -q))
        assert sol.iterations == 0 and sol.lam.shape == (0,)


class TestInputChecks:
    def test_max_iter_below_one(self):
        with pytest.raises(ValueError, match="max_iter"):
            solve_conic(tiny_problem([]), max_iter=0)

    def test_overlapping_rows(self):
        one = np.ones((1, 1, 1))
        blocks = [ConicBlock(1, np.array([0]), one), ConicBlock(1, np.array([0]), one)]
        with pytest.raises(ValueError, match="disjoint"):
            solve_conic(tiny_problem(blocks))

    def test_repeated_row_in_one_block(self):
        blocks = [ConicBlock(2, np.array([1, 1, 2]), np.ones((3, 2, 2)))]
        with pytest.raises(ValueError, match="disjoint"):
            solve_conic(tiny_problem(blocks))

    @pytest.mark.parametrize("row", [-1, 3])
    def test_rows_out_of_range(self, row):
        blocks = [ConicBlock(1, np.array([row]), np.ones((1, 1, 1)))]
        with pytest.raises(ValueError, match="0..2"):
            solve_conic(tiny_problem(blocks))


def shape_program(pointwise):
    """A one-covariate constrained fit with a lower bound (order-4 blocks),
    monotonicity (order 3), convexity (order 2) and the given pointwise sets
    (order-1 slack blocks for under- and overestimation)."""
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0.0, 1.0, 40))
    T = TrainingSet(x[:, None], np.exp(2 * x) + 0.3 * np.sin(15 * x))
    spec = ShapeSpec(
        lower=-1.2,
        monotone={"x1": INCREASING},
        curvature={"x1": CONVEX},
        pointwise=pointwise,
    )
    program, _ = build_program(T, make_bases(T, 3, 4, None, ["x1"]), spec)
    return program


class TestEndToEnd:
    def test_mixed_orders_match_independent_optimum(self):
        program = shape_program((PointwiseSet("<=", (5, 20, 30)),))
        prob = program.to_problem()
        assert sorted({b.order for b in prob.blocks}) == ORDERS
        sol = solve_conic(prob, gap_tol=1e-9)

        # independent optimum: each certificate as linear inequalities on a
        # 201-point grid per interval (a relaxation, so its optimum is a
        # lower bound), the slack rows as C theta <= c, solved by SLSQP
        u = np.linspace(0.0, 1.0, 201)
        A, b = [], []
        for coeff_map, rhs_poly, sign, t_lo, t_hi in program.certificates:
            V = np.vander(t_lo + (t_hi - t_lo) * u, len(rhs_poly), increasing=True)
            A.append(sign * V @ coeff_map)
            b.append(sign * V @ rhs_poly)
        slack = [blk.rows[0] for blk in prob.blocks if blk.order == 1]
        assert len(slack) == 3
        A = np.vstack(A + [-prob.C[slack]])
        b = np.concatenate(b + [-prob.c[slack]])
        Q, q = prob.Q, prob.q
        res = scipy.optimize.minimize(
            lambda t: 0.5 * t @ Q @ t + q @ t,
            np.zeros(len(q)),
            jac=lambda t: Q @ t + q,
            constraints=[
                {"type": "ineq", "fun": lambda t: A @ t - b, "jac": lambda t: A}
            ],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        assert sol.objective == pytest.approx(res.fun, rel=1e-6)
        t = sol.theta
        assert sol.objective == pytest.approx(0.5 * t @ Q @ t + q @ t)
        assert (A @ sol.theta - b).min() > -1e-4
        assert all(np.linalg.eigvalsh(Zb).min() > -1e-9 for Zb in sol.Z)


class TestDualScaling:
    """Scaling a row of (C, c) by s scales its multiplier by 1/s on every
    exit; the row is an interpolation row, which touches no block."""

    s = 4.0  # a power of two: the row-equilibrated program is bit-identical

    def setup_method(self):
        self.prob = shape_program(
            (PointwiseSet("<=", (5, 20, 30)), PointwiseSet("=", (12,)))
        ).to_problem()
        touched = {int(r) for b in self.prob.blocks for r in b.rows}
        self.row = next(i for i in range(len(self.prob.c)) if i not in touched)
        C = self.prob.C.copy()
        c = self.prob.c.copy()
        C[self.row] *= self.s
        c[self.row] *= self.s
        self.scaled = ConicProblem(self.prob.Q, self.prob.q, C, c, self.prob.blocks)

    def check(self, lam, lam_scaled):
        assert lam_scaled[self.row] == pytest.approx(lam[self.row] / self.s, rel=1e-12)
        others = np.arange(len(lam)) != self.row
        np.testing.assert_allclose(lam_scaled[others], lam[others], rtol=1e-12)

    def test_converged_exit(self):
        sol = solve_conic(self.prob, gap_tol=1e-6)
        assert sol.rel_gap <= 1e-6 and sol.rel_primal <= 1e-7
        self.check(sol.lam, solve_conic(self.scaled, gap_tol=1e-6).lam)

    def test_stalled_exit(self):
        # this program's gap stalls just above 1e-7: the best iterate is
        # accepted 20 iterations later
        sol = solve_conic(self.prob)
        assert sol.rel_gap > 1e-7
        self.check(sol.lam, solve_conic(self.scaled).lam)

    def test_iteration_cap_exit(self):
        with pytest.raises(ConicConvergenceError) as ei:
            solve_conic(self.prob, max_iter=8)
        with pytest.raises(ConicConvergenceError) as ei_scaled:
            solve_conic(self.scaled, max_iter=8)
        self.check(ei.value.best.lam, ei_scaled.value.best.lam)
