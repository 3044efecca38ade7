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
    _centering,
    _floor_pd,
    _group_blocks,
    _inv,
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
    """W[b] holds one matrix per cone of block b."""
    Mmat = np.zeros((K, K))
    for b, Wb in zip(blocks, W):
        for (_, mats), Wc in zip(b.cones, Wb):
            WA = np.einsum("ik,rkl,lj->rij", Wc, mats, Wc)
            Mmat[np.ix_(b.rows, b.rows)] += np.einsum("rij,sij->rs", mats, WA)
    return Mmat


def dense_schur(groups, Mb, K):
    """The per-group (n, r, r) stacks scattered onto a K x K matrix."""
    Mmat = np.zeros((K, K))
    for g, Mg in zip(groups, Mb):
        Mmat[g.rows[:, :, None], g.rows[:, None, :]] += Mg
    return Mmat


class DenseSchur:
    """The dense Schur path: the K x K matrix D + diag(beta) + U U' with the
    bump rule of ``conic._Schur`` (beta = 1e-12 (tr D_b / r + base) on the
    rows of block b and 1e-12 base on rows in no block, base =
    (|U|^2 + 1e-3 tr D) / K + 1, growing 100-fold until it factors), one
    Cholesky, two rounds of refinement. Same interface as ``conic._Schur``."""

    def __init__(self, groups, U):
        self.groups, self.U = groups, U

    def factor(self, Mb):
        K = len(self.U)
        trace = sum(np.trace(Mg, axis1=1, axis2=2).sum() for Mg in Mb)
        base = (np.sum(self.U**2) + 1e-3 * trace) / K + 1.0
        size = np.full(K, base)
        for g, Mg in zip(self.groups, Mb):
            tr = np.trace(Mg, axis1=1, axis2=2) / Mg.shape[1] + base
            size[g.rows] = tr[:, None]
        D = dense_schur(self.groups, Mb, K)
        scale = 1e-12
        while True:
            self.A = (D + np.diag(scale * size)) + self.U @ self.U.T
            try:
                self.fact = scipy.linalg.cho_factor(self.A)
                return
            except scipy.linalg.LinAlgError:
                scale *= 100.0

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
    """Blocks on disjoint random rows of 0..K-1: one cone of order 1-4, or
    two cones of orders 1-3 on the same rows."""
    free = list(rng.permutation(K))
    blocks = []
    for _ in range(n_blocks):
        if rng.uniform() < 0.5:
            m = int(rng.integers(1, 5))
            r = int(rng.choice([1, 2 * m - 1]))
            rows = np.array([free.pop() for _ in range(r)])
            blocks.append(ConicBlock((m,), rows, (random_sym(rng, r, m),)))
        else:
            orders = tuple(int(m) for m in rng.integers(1, 4, size=2))
            r = int(rng.integers(1, 5))
            rows = np.array([free.pop() for _ in range(r)])
            mats = tuple(random_sym(rng, r, m) for m in orders)
            blocks.append(ConicBlock(orders, rows, mats))
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

    @pytest.mark.parametrize("m", ORDERS)
    def test_inv_matches_loop(self, m):
        rng = np.random.default_rng(55 + m)
        X = random_spd(rng, 40, m)
        assert_blocks_close(_inv(X), [np.linalg.inv(Xb) for Xb in X])

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


class TestClosedForms:
    """Orders 1 and 2 take elementwise formulas instead of eigh/cholesky.
    TestBatchedKernels checks them against the per-block references on
    well-conditioned stacks; here they meet the cases those references
    handle badly or not at all."""

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("log_cond", [8.0, 12.0, 14.0])
    def test_nt_scaling_near_singular(self, m, log_cond):
        """W S W = Z holds to rounding at the scale of its terms, while the
        eigh reference's residual grows to about 1e-5 of it at 1e12."""
        rng = np.random.default_rng(80 + int(log_cond))
        Z = random_spd(rng, 200, m, log_cond)
        S = random_spd(rng, 200, m, log_cond)
        W = _nt_scaling(Z, S)
        np.testing.assert_array_equal(W, W.mT)
        assert (W[:, 0, 0] > 0).all() and (np.linalg.det(W) > 0).all()
        for Wb, Sb, Zb in zip(W, S, Z):
            scale = np.abs(Wb).max() ** 2 * np.abs(Sb).max()
            assert np.abs(Wb @ Sb @ Wb - Zb).max() <= 1e-14 * scale

    @pytest.mark.parametrize("small", [1e-8, 1e-13, 0.0, -1e-15])
    def test_step_near_singular_2x2(self, small):
        """Blocks V diag(1, small) V': near singular, singular or slightly
        indefinite (then floored at 1e-12 first, as Cholesky fails on
        them); dX shrinks the unit eigenvalue at rate 2 and leaves the other
        alone, so every step is 0.5."""
        rng = np.random.default_rng(90)
        V = np.linalg.qr(rng.normal(size=(50, 2, 2)))[0]
        X = _sym_stack((V * np.array([1.0, small])) @ V.mT)
        dX = -2.0 * V[:, :, :1] @ V[:, :, :1].mT
        np.testing.assert_allclose(_max_step(X, dX), 0.5, rtol=1e-14)

    def test_step_near_singular_1x1(self):
        X = np.array([1e-13, 1.0, 0.0, -1e-15])[:, None, None]
        dX = np.array([-2e-13, -2.0, -2.0, -2.0])[:, None, None]
        # the last two are floored to 1e-12 first
        np.testing.assert_allclose(_max_step(X, dX), [0.5, 0.5, 5e-13, 5e-13])

    @pytest.mark.parametrize("m", [1, 2])
    def test_step_equal_roots(self, m):
        """dX = -c X shrinks every eigenvalue alike: the determinant's root
        is double, and the step is 1 / c."""
        rng = np.random.default_rng(91)
        X = random_spd(rng, 30, m)
        c = rng.uniform(0.5, 4.0, size=30)[:, None, None]
        np.testing.assert_allclose(_max_step(X, -c * X), 1.0 / c[:, 0, 0], rtol=1e-13)

    @pytest.mark.parametrize("m", [1, 2])
    def test_step_unlimited(self, m):
        """dX = 0, or PSD, never limits the step."""
        rng = np.random.default_rng(92)
        X = random_spd(rng, 20, m)
        dX = random_spd(rng, 20, m)
        dX[::2] = 0.0
        assert (_max_step(X, dX) == np.inf).all()

    @pytest.mark.parametrize("m", [1, 2])
    def test_fused_z_and_s_match_separate_calls(self, m):
        """As for order 4 in TestBatchedKernels: flooring and step lengths
        of Z and S stacked are bit-identical to one call per stack, with a
        block of each below the floor and one of Z slightly indefinite."""
        rng = np.random.default_rng(93 + m)
        V = np.linalg.qr(rng.normal(size=(12, m, m)))[0]
        w = np.array([1.0, 0.5])[:m]
        Z = _sym_stack((V * w) @ V.mT)
        S = random_spd(rng, 12, m)
        Z[5] = _sym_stack((V[5:6] * np.array([1.0, -1e-15])[-m:]) @ V[5:6].mT)[0]
        S[3] = _sym_stack((V[3:4] * np.array([1.0, 1e-16])[-m:]) @ V[3:4].mT)[0]
        dZ, dS = random_sym(rng, 12, m), random_sym(rng, 12, m)
        np.testing.assert_array_equal(
            _floor_pd(np.concatenate([Z, S])),
            np.concatenate([_floor_pd(Z), _floor_pd(S)]),
        )
        Zf, Sf = _floor_pd(Z), _floor_pd(S)
        for X in (Z, Zf):
            np.testing.assert_array_equal(
                _max_step(np.concatenate([X, Sf]), np.concatenate([dZ, dS])),
                np.concatenate([_max_step(X, dZ), _max_step(Sf, dS)]),
            )


def _sym_stack(X):
    return 0.5 * (X + X.mT)


class TestGroupedAssembly:
    """Blocks of one or two cones, grouped and laid out in per-order stacks,
    against per-block loops."""

    def setup_method(self):
        rng = np.random.default_rng(70)
        self.K = 90
        self.blocks = random_blocks(rng, self.K, 24)
        self.groups, self.sizes = _group_blocks(self.blocks, self.K)
        self.rng = rng

    def random_per_cone(self, make):
        """One matrix per cone of each block, and the same laid out in the
        per-order stacks."""
        per_block = [[make(m) for m, _ in b.cones] for b in self.blocks]
        stacks = {m: np.empty((n, m, m)) for m, n in self.sizes.items()}
        for g in self.groups:
            for k, c in enumerate(g.cones):
                stacks[c.order][c.at] = [per_block[i][k] for i in g.index]
        return per_block, stacks

    def test_groups_by_order_and_rows(self):
        keys = [
            (g.rows.shape[1],) + tuple(c.order for c in g.cones) for g in self.groups
        ]
        assert len(set(keys)) == len(keys)
        assert any(len(g.cones) == 2 for g in self.groups)
        assert sorted(i for g in self.groups for i in g.index) == list(range(24))
        for g in self.groups:
            for j, (i, rows) in enumerate(zip(g.index, g.rows)):
                np.testing.assert_array_equal(rows, self.blocks[i].rows)
                for c, (m, mats) in zip(g.cones, self.blocks[i].cones):
                    assert c.order == m
                    np.testing.assert_array_equal(c.mats[j], mats)
        # every cone of one order has its own row of that order's stack
        for m, n in self.sizes.items():
            taken = [
                i for g in self.groups for c in g.cones if c.order == m
                for i in range(c.at.start, c.at.stop)
            ]
            assert sorted(taken) == list(range(n))

    def test_unstack_restores_input_order(self):
        per_block, stacks = self.random_per_cone(
            lambda m: random_spd(self.rng, 1, m)[0]
        )
        out = _unstack(self.groups, stacks)
        ref = [X for cones in per_block for X in cones]
        assert len(out) == len(ref)
        for Xb, Rb in zip(out, ref):
            np.testing.assert_array_equal(Xb, Rb)

    def test_schur_matches_loop(self):
        W, stacks = self.random_per_cone(lambda m: random_spd(self.rng, 1, m)[0])
        ref = schur_ref(self.blocks, W, self.K)
        got = dense_schur(self.groups, _schur(self.groups, stacks), self.K)
        assert np.abs(got - ref).max() <= RTOL * np.abs(ref).max()

    def test_A_apply_and_adjoint_match_loop(self):
        Z, stacks = self.random_per_cone(lambda m: random_sym(self.rng, 1, m)[0])
        ref = np.zeros(self.K)
        for b, Zb in zip(self.blocks, Z):
            for (_, mats), Zc in zip(b.cones, Zb):
                ref[b.rows] += np.einsum("rij,ij->r", mats, Zc)
        got = _A_apply(self.groups, stacks, self.K)
        np.testing.assert_allclose(got, ref, rtol=RTOL, atol=RTOL)

        y = self.rng.normal(size=self.K)
        adj = _unstack(self.groups, _A_adjoint(self.groups, y, self.sizes))
        ref = [
            np.einsum("r,rij->ij", y[b.rows], mats)
            for b in self.blocks
            for _, mats in b.cones
        ]
        for Ab, ref_b in zip(adj, ref):
            np.testing.assert_allclose(Ab, ref_b, rtol=RTOL, atol=RTOL)


def hankel_mats(m):
    """Rows k = 0..2m-2: the selectors of Z's k-th anti-diagonal, so A(Z)
    are the coefficients of v(t)' Z v(t), v(t) = (1, t, ..., t^(m-1)), as in
    a certificate that a polynomial is a sum of squares."""
    i = np.arange(m)
    k = np.arange(2 * m - 1)[:, None, None]
    return (i[:, None] + i[None, :] == k).astype(float)


def random_problem(seed, random_mats=False):
    """A feasible program of M = 8 coefficients in shuffled row order:
    certificate blocks of orders 1-4 on 2m - 1 rows, 1 x 1 slack blocks on
    one row each and three '=' rows in no block. q pulls theta against the
    cones, so blocks are active at the optimum and W is ill-conditioned
    near convergence. With ``random_mats`` the blocks' constraint matrices
    are random symmetric ones instead of Hankel selectors."""
    rng = np.random.default_rng(seed)
    M = 8
    orders = [1, 2, 3, 4, 2, 3, 4, 3] + [1] * 5
    sizes = [2 * m - 1 for m in orders]
    K = sum(sizes) + 3
    perm = rng.permutation(K)
    blocks, start = [], 0
    for m, r in zip(orders, sizes):
        mats = random_sym(rng, r, m) if random_mats else hankel_mats(m)
        blocks.append(ConicBlock((m,), perm[start : start + r], (mats,)))
        start += r
    C = rng.normal(size=(K, M))
    c = C @ rng.normal(size=M)
    for b in blocks:
        Z0 = random_spd(rng, 1, b.order[0])[0]
        c[b.rows] += 0.03 * np.einsum("rij,ij->r", b.mats[0], Z0)
    A = rng.normal(size=(M, M))
    return ConicProblem(A.T @ A + np.eye(M), 10.0 * rng.normal(size=M), C, c, blocks)


class TestCentering:
    def test_sigma(self):
        assert _centering(0.5, 1.0) == 0.125
        assert _centering(0.0, 1.0) == 1e-6
        assert _centering(0.95, 1.0) == 0.8
        # a ratio of 1e200, whose cube overflows, and a mu that rounding
        # left negative both give the cap
        assert _centering(1e100, 1e-100) == 0.8
        assert _centering(1.0, -3e-15) == 0.8

    def test_program_that_overflowed(self):
        """Before the clamp, this program's predictor met mu < 0, so
        (mu_aff / 1e-300)^3 overflowed: a RuntimeWarning, an error in this
        suite."""
        sol = solve_conic(random_problem(4, random_mats=True))
        assert sol.rel_primal <= 100 * conic.FEAS_TOL
        assert sol.rel_gap <= 100 * 1e-7


class TestCholeskySolve:
    @pytest.mark.parametrize("order", [1, 20, 80, 260])
    @pytest.mark.parametrize("rhs", [None, 1, 3])
    def test_potrs_equals_cho_solve_bitwise(self, order, rhs):
        """The direct LAPACK solve gives the bits of scipy's cho_solve, for
        a vector and for 1 and 3 right-hand-side columns."""
        rng = np.random.default_rng(order)
        factor = scipy.linalg.cho_factor(
            random_spd(rng, 1, order, log_cond=6.0)[0], lower=True
        )
        b = rng.normal(size=order if rhs is None else (order, rhs))
        b_in = b.copy()
        got = conic._cho_solve(factor, b)
        want = scipy.linalg.cho_solve(factor, b, check_finite=False)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert b.tobytes() == b_in.tobytes()  # b is not overwritten


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
        groups, sizes = _group_blocks(prob.blocks, K)
        rng = np.random.default_rng(8)
        W = {m: random_spd(rng, n, m, log_cond) for m, n in sizes.items()}
        Mb = _schur(groups, W)
        U = rng.normal(size=(K, M))
        schur = conic._Schur(groups, U)
        schur.factor(Mb)
        dense = DenseSchur(groups, U)
        dense.factor(Mb)
        # the structured factors hold the same bumped matrix
        A = dense_schur(groups, schur.D, K) + U @ U.T
        E = np.setdiff1d(np.arange(K), np.concatenate([g.rows.ravel() for g in groups]))
        A[E, E] += schur.beta
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
        blocks = [ConicBlock((1,), np.array([0]), (one,)),
                  ConicBlock((1,), np.array([0]), (one,))]
        with pytest.raises(ValueError, match="disjoint"):
            solve_conic(tiny_problem(blocks))

    def test_repeated_row_in_one_block(self):
        blocks = [ConicBlock((2,), np.array([1, 1, 2]), (np.ones((3, 2, 2)),))]
        with pytest.raises(ValueError, match="disjoint"):
            solve_conic(tiny_problem(blocks))

    @pytest.mark.parametrize("field", ["Q", "q", "C", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_data(self, field, value):
        prob = tiny_problem([ConicBlock((1,), np.array([0]), (np.ones((1, 1, 1)),))])
        getattr(prob, field).flat[-1] = value
        with pytest.raises(ValueError, match=f"^{field} has a NaN or infinite"):
            solve_conic(prob)

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_block(self, value):
        mats = np.ones((2, 2, 2))
        mats[1, 0, 1] = value
        blocks = [
            ConicBlock((1,), np.array([0]), (np.ones((1, 1, 1)),)),
            ConicBlock((2,), np.array([1, 2]), (mats,)),
        ]
        with pytest.raises(ValueError, match=r"blocks\[1\]\.mats"):
            solve_conic(tiny_problem(blocks))

    @pytest.mark.parametrize("row", [-1, 3])
    def test_rows_out_of_range(self, row):
        blocks = [ConicBlock((1,), np.array([row]), (np.ones((1, 1, 1)),))]
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


def grid_relaxation(program, prob):
    """Independent optimum: each certificate as linear inequalities on a
    201-point grid per interval (a relaxation, so its optimum is a lower
    bound), the rows of 1 x 1 slack blocks as C theta <= c, solved by
    SLSQP. Returns the result and the inequalities A theta >= b."""
    u = np.linspace(0.0, 1.0, 201)
    A, b = [], []
    for local_map, rhs, sign in program.certificates:
        V = np.vander(u, len(local_map), increasing=True)
        A.append(sign * V @ local_map)
        b.append(sign * np.full(len(u), rhs))
    slack = [blk.rows[0] for blk in prob.blocks if blk.order == (1,)]
    A = np.vstack(A + [-prob.C[slack]])
    b = np.concatenate(b + [-prob.c[slack]])
    Q, q = prob.Q, prob.q
    res = scipy.optimize.minimize(
        lambda t: 0.5 * t @ Q @ t + q @ t,
        np.zeros(len(q)),
        jac=lambda t: Q @ t + q,
        constraints=[{"type": "ineq", "fun": lambda t: A @ t - b, "jac": lambda t: A}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    )
    return res, A, b


class TestEndToEnd:
    def test_mixed_orders_match_independent_optimum(self):
        program = shape_program((PointwiseSet("<=", (5, 20, 30)),))
        prob = program.to_problem()
        # cubic certificates in Markov-Lukacs form need only 1 x 1 and 2 x 2
        # cones; the slack rows are 1 x 1 too
        assert {m for b in prob.blocks for m, _ in b.cones} == {1, 2}
        assert sum(blk.order == (1,) for blk in prob.blocks) == 3
        sol = solve_conic(prob, gap_tol=1e-9)
        res, A, b = grid_relaxation(program, prob)
        assert res.success
        assert sol.objective == pytest.approx(res.fun, rel=1e-6)
        t = sol.theta
        Q, q = prob.Q, prob.q
        assert sol.objective == pytest.approx(0.5 * t @ Q @ t + q @ t)
        assert (A @ sol.theta - b).min() > -1e-4
        assert all(np.linalg.eigvalsh(Zb).min() > -1e-9 for Zb in sol.Z)

    def test_degree_5_takes_the_general_path(self):
        """Quintic certificates need order-3 cones (bounds: 3 and 3,
        monotonicity: 3 and 2, convexity: 2 and 2), which go through the
        eigh/cholesky kernels."""
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(0.0, 1.0, 40))
        T = TrainingSet(x[:, None], np.exp(2 * x) + 0.3 * np.sin(15 * x))
        spec = ShapeSpec(
            lower=-1.2,
            upper=7.0,
            monotone={"x1": INCREASING},
            curvature={"x1": CONVEX},
        )
        program, _ = build_program(T, make_bases(T, 5, 4, None, ["x1"]), spec)
        prob = program.to_problem()
        assert {m for b in prob.blocks for m, _ in b.cones} == {2, 3}
        sol = solve_conic(prob, gap_tol=1e-9)
        res, A, b = grid_relaxation(program, prob)
        assert res.success
        assert sol.objective == pytest.approx(res.fun, rel=1e-6)
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

    def test_stalled_exit(self, monkeypatch):
        # tolerances below this program's accuracy floor: the gap stalls
        # above 1e-10, and the best iterate is accepted 20 iterations later
        monkeypatch.setattr(conic, "FEAS_TOL", 1e-9)
        sol = solve_conic(self.prob, gap_tol=1e-10)
        assert sol.rel_gap > 1e-10
        self.check(sol.lam, solve_conic(self.scaled, gap_tol=1e-10).lam)

    def test_iteration_cap_exit(self):
        with pytest.raises(ConicConvergenceError) as ei:
            solve_conic(self.prob, max_iter=8)
        with pytest.raises(ConicConvergenceError) as ei_scaled:
            solve_conic(self.scaled, max_iter=8)
        self.check(ei.value.best.lam, ei_scaled.value.best.lam)
