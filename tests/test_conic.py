import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from missoc import conic
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
    regularised_cholesky,
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


def dense_schur(groups, Mb, K):
    """The per-group (n, r, r) stacks scattered onto a K x K matrix."""
    Mmat = np.zeros((K, K))
    for g, Mg in zip(groups, Mb):
        Mmat[g.rows[:, :, None], g.rows[:, None, :]] += Mg
    return Mmat


class DenseSchur:
    """The dense Schur path the solver used before its structured solve: the
    K x K matrix D + U U', Cholesky with ``regularised_cholesky``'s bump,
    two rounds of refinement. Same interface as ``conic._Schur``."""

    def __init__(self, groups, U):
        self.groups, self.UUt = groups, U @ U.T

    def factor(self, Mb):
        A = dense_schur(self.groups, Mb, len(self.UUt)) + self.UUt
        self.fact, self.A = regularised_cholesky(A)

    def solve(self, b):
        x = scipy.linalg.cho_solve(self.fact, b)
        for _ in range(2):
            x = x + scipy.linalg.cho_solve(self.fact, b - self.A @ x)
        return x


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
        ref = np.array([max_step_ref(Xb, dXb) for Xb, dXb in zip(X, dX)])
        assert np.isfinite(ref.min())
        np.testing.assert_allclose(_max_step(X, dX), ref, rtol=RTOL)

    def test_max_step_unlimited(self):
        rng = np.random.default_rng(50)
        X = random_spd(rng, 10, 3)
        assert (_max_step(X, random_spd(rng, 10, 3)) == np.inf).all()

    def near_singular_stack(self):
        """Twelve order-4 blocks; block 5 has a slightly negative eigenvalue,
        so Cholesky fails, and its step is 0.5."""
        rng = np.random.default_rng(60)
        m = 4
        X = random_spd(rng, 12, m)
        V = np.linalg.qr(rng.normal(size=(m, m)))[0]
        X[5] = sym((V * np.array([1.0, 0.5, 0.25, -1e-15])) @ V.T)
        dX = 0.01 * random_sym(rng, 12, m)
        # that block limits the step: its unit eigenvalue shrinks at rate 2
        dX[5] = -2.0 * np.outer(V[:, 0], V[:, 0])
        return X, dX

    def test_max_step_near_singular_block_uses_floor(self):
        X, dX = self.near_singular_stack()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(X)
        ref = np.array([max_step_ref(Xb, dXb) for Xb, dXb in zip(X, dX)])
        assert ref.min() == pytest.approx(0.5, rel=RTOL)
        np.testing.assert_allclose(_max_step(X, dX), ref, rtol=RTOL)

    def test_fused_z_and_s_match_separate_calls(self):
        """The solver floors Z and S, and takes both step lengths, in one
        call per group on the two stacks concatenated: bit-identical to one
        call per stack, also when one stack does not factor and the other
        holds a block below the 1e-12 floor that does."""
        rng = np.random.default_rng(61)
        Z, dZ = self.near_singular_stack()
        S = random_spd(rng, 12, 4)
        V = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        S[3] = sym((V * np.array([1.0, 0.5, 0.25, 1e-13])) @ V.T)
        np.linalg.cholesky(S)
        dS = random_sym(rng, 12, 4)
        np.testing.assert_array_equal(
            _floor_pd(np.concatenate([Z, S])),
            np.concatenate([_floor_pd(Z), _floor_pd(S)]),
        )
        Zf, Sf = _floor_pd(Z), _floor_pd(S)
        for X, dX in ((Z, dZ), (Zf, dZ)):
            np.testing.assert_array_equal(
                _max_step(np.concatenate([X, Sf]), np.concatenate([dX, dS])),
                np.concatenate([_max_step(X, dX), _max_step(Sf, dS)]),
            )


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
        got = dense_schur(self.groups, _schur(self.groups, self.W_stacks), self.K)
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


def hankel_mats(m):
    """Rows k = 0..2m-2: the selectors of Z's k-th anti-diagonal, so A(Z)
    are the coefficients of v(t)' Z v(t), v(t) = (1, t, ..., t^(m-1)), as in
    a certificate that a polynomial is a sum of squares."""
    i = np.arange(m)
    k = np.arange(2 * m - 1)[:, None, None]
    return (i[:, None] + i[None, :] == k).astype(float)


def random_problem(seed):
    """A feasible program of M = 8 coefficients in shuffled row order:
    certificate blocks of orders 1-4 on 2m - 1 rows, 1 x 1 slack blocks on
    one row each and three '=' rows in no block. q pulls theta against the
    cones, so blocks are active at the optimum and W is ill-conditioned
    near convergence."""
    rng = np.random.default_rng(seed)
    M = 8
    orders = [1, 2, 3, 4, 2, 3, 4, 3] + [1] * 5
    sizes = [2 * m - 1 for m in orders]
    K = sum(sizes) + 3
    perm = rng.permutation(K)
    blocks, start = [], 0
    for m, r in zip(orders, sizes):
        blocks.append(ConicBlock(m, perm[start : start + r], hankel_mats(m)))
        start += r
    C = rng.normal(size=(K, M))
    c = C @ rng.normal(size=M)
    for b in blocks:
        Z0 = random_spd(rng, 1, b.order)[0]
        c[b.rows] += 0.03 * np.einsum("rij,ij->r", b.mats, Z0)
    A = rng.normal(size=(M, M))
    return ConicProblem(A.T @ A + np.eye(M), 10.0 * rng.normal(size=M), C, c, blocks)


class TestStructuredSchur:
    """The structured Schur solve against the dense path it replaced.

    On a program whose iterates creep along the accuracy floor for 30 or
    more iterations, any two factorizations end 1e-8 to 1e-7 apart: the dense
    Cholesky path against a dense LU one as much as against the structured
    solve (seeds 12 and 19 of ``random_problem``). The seeds here converge
    in 14-23 iterations."""

    @pytest.mark.parametrize("seed", range(12))
    def test_solve_conic_matches_dense_path(self, seed, monkeypatch):
        prob = random_problem(seed)
        sol = solve_conic(prob)
        monkeypatch.setattr(conic, "_Schur", DenseSchur)
        ref = solve_conic(prob)
        assert sol.iterations == ref.iterations
        assert np.abs(sol.theta - ref.theta).max() <= 1e-9

    @pytest.mark.parametrize(
        "pointwise",
        [(PointwiseSet("<=", (5, 20, 30)),), (PointwiseSet("=", (4, 12, 25)),)],
    )
    def test_shape_program_matches_dense_path(self, pointwise, monkeypatch):
        prob = shape_program(pointwise).to_problem()
        sol = solve_conic(prob)
        monkeypatch.setattr(conic, "_Schur", DenseSchur)
        ref = solve_conic(prob)
        assert sol.iterations == ref.iterations
        assert np.abs(sol.theta - ref.theta).max() <= 1e-9

    @pytest.mark.parametrize("log_cond", [2.0, 8.0, 12.0])
    def test_system_solve_matches_dense(self, log_cond):
        """One system, W as near convergence (eigenvalues spread over
        log_cond decades): the structured solution has a componentwise
        backward error of a few ulp against the assembled, bumped matrix
        and agrees with the dense solve."""
        prob = random_problem(7)
        K, M = prob.C.shape
        groups = _group_blocks(prob.blocks, K)
        rng = np.random.default_rng(8)
        W = [random_spd(rng, len(g.index), g.mats.shape[2], log_cond) for g in groups]
        Mb = _schur(groups, W)
        U = rng.normal(size=(K, M))
        schur = conic._Schur(groups, U)
        schur.factor(Mb)
        dense = DenseSchur(groups, U)
        dense.factor(Mb)
        A = dense_schur(groups, Mb, K) + U @ U.T + schur.beta * np.eye(K)
        np.testing.assert_array_equal(A, dense.A)
        b = rng.normal(size=K)
        x = schur.solve(b)
        berr = np.abs(b - A @ x) / (np.abs(A) @ np.abs(x) + np.abs(b))
        assert berr.max() <= 16 * np.finfo(float).eps
        x_ref = dense.solve(b)
        cond = np.linalg.cond(A)
        assert np.abs(x - x_ref).max() <= 1e-14 * cond * np.abs(x_ref).max()

    def test_no_blocks(self):
        """Every row is in no block: the solve is T alone."""
        rng = np.random.default_rng(11)
        U = rng.normal(size=(5, 8))
        schur = conic._Schur([], U)
        schur.factor([])
        b = rng.normal(size=5)
        A = U @ U.T + schur.beta * np.eye(5)
        np.testing.assert_allclose(A @ schur.solve(b), b, rtol=1e-12, atol=1e-12)


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

    @pytest.mark.parametrize("field", ["Q", "q", "C", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data(self, field, value):
        prob = tiny_problem([ConicBlock(1, np.array([0]), np.ones((1, 1, 1)))])
        getattr(prob, field).flat[-1] = value
        with pytest.raises(ValueError, match=f"^{field} has a NaN or infinite"):
            solve_conic(prob)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_block(self, value):
        mats = np.ones((2, 2, 2))
        mats[1, 0, 1] = value
        blocks = [
            ConicBlock(1, np.array([0]), np.ones((1, 1, 1))),
            ConicBlock(2, np.array([1, 2]), mats),
        ]
        with pytest.raises(ValueError, match=r"blocks\[1\]\.mats"):
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
