import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from missoc import shapecon
from missoc.conic import ConicBlock, solve_conic
from missoc.regression import (
    AdditiveModelFit,
    TrainingSet,
    block_slices,
    coefficient_slices,
    fit_additive,
    identifiability_penalty,
    make_bases,
)
from missoc.shapecon import (
    CONCAVE,
    CONVEX,
    DECREASING,
    INCREASING,
    ConicProgram,
    InfeasibleSpecError,
    PointwiseSet,
    ShapeFitConvergenceError,
    ShapeSpec,
    build_program,
    estimate_weights,
    fit_constrained,
    lukacs_mats,
)
from missoc.splines import (
    bernstein_map,
    design_matrix,
    make_basis,
    poly_der,
    segment_maps,
    taylor_shift,
    to_piecewise_poly,
)


# --- the Gram form of the certificates, kept as a reference ----------------
# Before the Markov-Lukacs form, each certificate was one PSD block of order
# d_eff + 1: the Gram matrix of the coefficients in u of
# (1 + u)^d p((t_lo + t_hi u) / (1 + u)), u >= 0, matched anti-diagonal by
# anti-diagonal, with a zero row for each odd one.


def build_H(d: int) -> np.ndarray:
    """The 2d+1 anti-diagonal selector matrices of order d+1 (1-based rule:
    ones where i+j = 2(d+1-l)+1 for l <= d, i+j = 2(2d+2-l) for l > d)."""
    H = np.zeros((2 * d + 1, d + 1, d + 1))
    for l in range(1, 2 * d + 2):
        target = 2 * (d + 1 - l) + 1 if l <= d else 2 * (2 * d + 2 - l)
        for i in range(1, d + 2):
            j = target - i
            if 1 <= j <= d + 1:
                H[l - 1, i - 1, j - 1] = 1.0
    return H


def build_W(d: int, t_lo: float, t_hi: float) -> np.ndarray:
    """Interval coefficient transform of order d+1.

    Row r holds the coefficient of u^(r-1) in (1+u)^d p((t_lo + t_hi u)/(1+u))
    as a linear function of the power-basis coefficients of p.
    """
    if not t_lo < t_hi:
        raise ValueError(f"degenerate interval [{t_lo}, {t_hi}]")
    W = np.zeros((d + 1, d + 1))
    for i in range(1, d + 2):
        for j in range(1, d + 2):
            acc = 0.0
            for m in range(max(0, i + j - 2 - d), min(i - 1, j - 1) + 1):
                acc += (
                    math.comb(j - 1, m)
                    * math.comb(d - j + 1, i - 1 - m)
                    * t_lo ** (j - 1 - m)
                    * t_hi**m
                )
            W[i - 1, j - 1] = acc
    return W


def add_gram_certificate(program, coeff_map, rhs_poly, sign, interval):
    """sign*(coeff_map @ theta - rhs_poly) >= 0 on the interval, in Gram
    form; ``rhs_poly`` holds power-basis coefficients in x."""
    d_eff = coeff_map.shape[0] - 1
    H = build_H(d_eff)
    W = build_W(d_eff, *interval)
    rows = program.add_rows(np.zeros((d_eff, program.dim)), np.zeros(d_eff))
    WT, Wb = W @ coeff_map, W @ rhs_poly
    rows = np.concatenate([rows, program.add_rows(-sign * WT, -sign * Wb)])
    program.blocks.append(ConicBlock((d_eff + 1,), rows, (H,)))


class TestBuildH:
    def test_degree_one_hand_values(self):
        H = build_H(1)
        np.testing.assert_array_equal(H[0], [[0, 1], [1, 0]])
        np.testing.assert_array_equal(H[1], [[0, 0], [0, 1]])
        np.testing.assert_array_equal(H[2], [[1, 0], [0, 0]])

    @pytest.mark.parametrize("d", range(8))
    def test_antidiagonals_partition_all_entries(self, d):
        H = build_H(d)
        assert H.shape == (2 * d + 1, d + 1, d + 1)
        np.testing.assert_array_equal(H.sum(axis=0), np.ones((d + 1, d + 1)))

    @pytest.mark.parametrize("d", range(8))
    def test_symmetric(self, d):
        for Hl in build_H(d):
            np.testing.assert_array_equal(Hl, Hl.T)


def w_oracle(d, t_lo, t_hi, p):
    """Coefficients of (1+u)^d p((t_lo + t_hi u)/(1+u)) by direct expansion."""
    out = np.zeros(d + 1)
    for j, pj in enumerate(p):
        # p_j (t_lo + t_hi u)^j (1+u)^(d-j)
        a = np.polynomial.polynomial.polypow([t_lo, t_hi], j) if j else [1.0]
        b = np.polynomial.polynomial.polypow([1.0, 1.0], d - j)
        prod = np.polynomial.polynomial.polymul(a, b)
        out[: len(prod)] += pj * np.asarray(prod)
    return out


class TestBuildW:
    def test_degree_one_hand_values(self):
        W = build_W(1, 0.25, 0.75)
        np.testing.assert_allclose(W, [[1.0, 0.25], [1.0, 0.75]])

    @pytest.mark.parametrize("d", range(8))
    def test_matches_substitution_oracle(self, d):
        rng = np.random.default_rng(20 + d)
        for _ in range(5):
            t_lo = rng.uniform(-2, 1)
            t_hi = t_lo + rng.uniform(0.1, 2)
            p = rng.normal(size=d + 1)
            np.testing.assert_allclose(
                build_W(d, t_lo, t_hi) @ p,
                w_oracle(d, t_lo, t_hi, p),
                rtol=1e-10,
                atol=1e-10,
            )

    def test_endpoint_rows(self):
        # first row evaluates at t_lo, last at t_hi (up to the (1+u)^d factor)
        d = 3
        rng = np.random.default_rng(1)
        p = rng.normal(size=d + 1)
        W = build_W(d, -0.5, 1.25)
        poly = np.polynomial.polynomial.polyval
        assert (W @ p)[0] == pytest.approx(poly(-0.5, p), rel=1e-12)
        assert (W @ p)[-1] == pytest.approx(poly(1.25, p), rel=1e-12)

    def test_degenerate_interval(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_W(2, 1.0, 1.0)


class TestBuildG:
    """The basis-segment coefficient map G_q of each certificate: the
    power-basis coefficients, in the local variable s = (x - t_q) / h of
    interval q, of the component there as a linear function of the
    covariate's basis coefficients."""

    @staticmethod
    def bound_maps(basis):
        """G_q of the lower-bound certificate on every interval q."""
        rng = np.random.default_rng(0)
        lo, hi = basis.domain
        X = rng.uniform(lo, hi, size=(40, 1))
        T = TrainingSet(X=X, y=np.sin(X[:, 0]))
        program, _ = build_program(T, [basis], ShapeSpec(lower=-10.0))
        ((maps, _, _),) = program.certificates
        return list(maps)

    def test_inactive_columns_zero(self):
        basis = make_basis(0.0, 1.0, 5, 3)
        G = self.bound_maps(basis)[2]
        assert G.shape == (4, basis.n_basis)
        active = slice(2, 6)
        mask = np.ones(basis.n_basis, dtype=bool)
        mask[active] = False
        np.testing.assert_array_equal(G[:, mask], 0.0)

    def test_reproduces_component_on_interval(self):
        rng = np.random.default_rng(3)
        basis = make_basis(-1.0, 2.0, 4, 3)
        theta = rng.normal(size=basis.n_basis)
        for q, G in enumerate(self.bound_maps(basis)):
            coeffs = G @ theta
            t_lo, t_hi = basis.internal[q : q + 2]
            for x in np.linspace(t_lo, t_hi, 7)[:-1]:
                want = basis.eval_all(x) @ theta
                got = np.polynomial.polynomial.polyval(
                    (x - t_lo) / (t_hi - t_lo), coeffs
                )
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_partition_of_unity(self):
        basis = make_basis(0.0, 4.0, 4, 2)
        for G in self.bound_maps(basis):
            ones_poly = G @ np.ones(basis.n_basis)
            np.testing.assert_allclose(
                ones_poly, [1.0, 0.0, 0.0], atol=1e-12
            )


def per_interval_program(T, bases, spec, margin=0.0):
    """C and c of the constrained-fit program built one certificate at a
    time, interval by interval and within an interval map by map, then the
    pointwise rows one by one: the build before certificate families.
    ``spec`` carries its bound weights."""
    alpha = float(T.y.mean())
    B1 = design_matrix(T.X, bases)[:, 1:]
    rows_C, rows_c = [], []
    for j, (basis, s) in enumerate(zip(bases, coefficient_slices(bases))):
        d, starts = basis.degree, basis.internal
        G = segment_maps(basis, starts[:-1])
        eye = np.eye(d + 1)
        maps = []
        if spec.lower is not None:
            maps.append((eye, spec.weights_lower[j] * (spec.lower - alpha), +1.0))
        if spec.upper is not None:
            maps.append((eye, spec.weights_upper[j] * (spec.upper - alpha), -1.0))
        if basis.label in spec.monotone:
            sign = +1.0 if spec.monotone[basis.label] == INCREASING else -1.0
            maps.append((poly_der(eye).T, 0.0, sign))
        if basis.label in spec.curvature:
            sign = +1.0 if spec.curvature[basis.label] == CONVEX else -1.0
            maps.append((poly_der(poly_der(eye)).T, 0.0, sign))
        for qi in range(basis.k):
            t_lo, t_hi = starts[qi], starts[qi + 1]
            active = slice(s.start + qi, s.start + qi + d + 1)
            for transform, b, sign in maps:
                d_eff = transform.shape[0] - 1
                local_map = np.zeros((d_eff + 1, B1.shape[1]))
                h_pow = (t_hi - t_lo) ** np.arange(d_eff + 1)
                local_map[:, active] = h_pow[:, None] * (transform @ G[qi])
                rhs = b + sign * margin
                for row in bernstein_map(d_eff) @ local_map:
                    rows_C.append(-sign * row)
                    rows_c.append(float(-sign * rhs))
    y_c = T.y - alpha
    for ps in spec.pointwise:
        for i in ps.indices:
            flip = -1.0 if ps.relation == ">=" else 1.0
            rows_C.append(np.asarray(flip * B1[i], dtype=float))
            rows_c.append(float(flip * y_c[i]))
    return np.vstack(rows_C), np.array(rows_c)


class TestFamilyRows:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("margin", [0.0, 3e-4])
    def test_rows_equal_per_interval_build_bytewise(self, degree, margin):
        """The families' rows of C and c sit where the per-interval build
        put them, with the same bits: bounds on both sides, monotonicity,
        curvature (from degree 2) and pointwise rows of every relation."""
        rng = np.random.default_rng(degree)
        X = rng.uniform(-1.0, 3.0, size=(70, 2))
        T = TrainingSet(X=X, y=np.sin(2 * X[:, 0]) + X[:, 1] ** 2)
        spec = ShapeSpec(
            lower=-3.0,
            upper=12.0,
            monotone={"x2": INCREASING, "x1": DECREASING},
            curvature={"x1": CONCAVE} if degree >= 2 else {},
            pointwise=(PointwiseSet("=", (3,)), PointwiseSet(">=", (8, 1)),
                       PointwiseSet("<=", (5, 9, 2)), PointwiseSet("<=", ())),
        )
        bases = make_bases(T, degree, [5, 7], None, ["x1", "x2"])
        program, _ = build_program(T, bases, spec, margin=margin)
        prob = program.to_problem()
        C, c = per_interval_program(T, bases, program.spec, margin)
        assert prob.C.tobytes() == C.tobytes()
        assert prob.c.tobytes() == c.tobytes()
        # every row but the '=' one belongs to exactly one block
        rows = np.concatenate([b.rows.ravel() for b in prob.blocks])
        assert sorted(rows) == [i for i in range(len(c)) if i != len(c) - 6]

    def test_violation_reads_each_interval(self):
        """shape_violation evaluates a family interval by interval: a
        theta that breaks the bound on one interval only is caught there."""
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 1.0, size=(60, 1))
        T = TrainingSet(X=X, y=X[:, 0])
        basis = make_basis(0.0, 1.0, 6, 3, "x1")
        program, alpha = build_program(T, [basis], ShapeSpec(lower=-5.0))
        theta = np.zeros(basis.n_basis)
        assert shapecon.shape_violation(program, theta) == 0.0
        theta[-1] = -60.0  # only the last basis function: the last interval
        ((maps, rhs, sign),) = program.certificates
        assert rhs == -5.0 - alpha and sign == 1.0
        assert (maps[:-1, :, -1] == 0).all()
        # the worst point is the right end, s = 1, where p is the sum of its
        # coefficients
        want = rhs - (maps[-1] @ theta).sum()
        assert want > 4.0
        assert shapecon.shape_violation(program, theta) == pytest.approx(want, rel=1e-12)


class TestDerivativeMap:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_polyder(self, d):
        """The maps of the monotonicity and convexity certificates are those
        of the bound certificate differentiated once and twice in x: in
        s = (x - t_lo) / h, polyder scaled by 1 / h per derivative."""
        rng = np.random.default_rng(d)
        X = rng.uniform(0.0, 2.0, size=(40, 1))
        T = TrainingSet(X=X, y=np.exp(X[:, 0]))
        basis = make_basis(0.0, 2.0, 3, d, "x")
        spec = ShapeSpec(lower=-10.0, monotone={"x": INCREASING})
        if d >= 2:
            spec = dataclasses.replace(spec, curvature={"x": CONVEX})
        program, _ = build_program(T, [basis], spec)
        theta = rng.normal(size=basis.n_basis)
        h = 2.0 / 3
        P = np.polynomial.polynomial
        # per interval: the bound, the monotonicity and the convexity map
        per = 2 + (d >= 2)
        assert len(program.certificates) == per
        for q in range(basis.k):
            bound, *derivs = [maps[q] for maps, _, _ in program.certificates]
            p = bound @ theta
            for n, local_map in enumerate(derivs, start=1):
                np.testing.assert_allclose(
                    local_map @ theta, P.polyder(p, n) / h**n, rtol=1e-12, atol=1e-12
                )


def exact_min(p, lo, hi):
    """Minimum of the polynomial (ascending coefficients in x) on [lo, hi],
    over the endpoints and the real critical points inside."""
    P = np.polynomial.polynomial
    pts = [lo, hi]
    if len(p) > 2:
        crit = P.polyroots(P.polyder(p))
        pts += [r.real for r in crit if abs(r.imag) < 1e-9 and lo <= r.real <= hi]
    return min(P.polyval(np.array(pts), p))


def shift_program(p, interval, form):
    """The least shift t with p + t >= 0 on the interval, as a conic program
    over theta = (t,) with objective t^2 / 2 and one certificate in the
    given form. Its optimum is max(0, -min p), 0 exactly when p is
    nonnegative on the interval."""
    d = len(p) - 1
    t_lo, t_hi = interval
    program = ConicProgram(Q=np.eye(1), q=np.zeros(1), dim=1)
    e0 = np.eye(d + 1)[:, :1]  # t enters the constant coefficient
    if form == "gram":
        add_gram_certificate(program, e0, -np.asarray(p), 1.0, interval)
    else:
        program.add_certificates([(e0[None], 0.0, 1.0)])
        # the rows read A(Z) - t B e0 = c, B = bernstein_map(d), so c holds
        # the Bernstein coefficients of p in s = (x - t_lo) / h: shifted to
        # t_lo, the i-th power scaled by h^i, then mapped by B
        local = (t_hi - t_lo) ** np.arange(d + 1) * taylor_shift(p, t_lo)
        program.rows_c[-1][:] = bernstein_map(d) @ local
    return program


def random_cases(seed, n):
    """(p, interval, min of p there) with p in power-basis coefficients in
    x: per degree 0-5, n random polynomials with N(0, 1) coefficients in
    the interval's own variable (x - t_lo) / h, each shifted to a minimum of
    +0.05, +0.01, -0.01 and -0.05 on the interval."""
    rng = np.random.default_rng(seed)
    cases = []
    for d in range(6):
        for _ in range(n):
            t_lo = rng.uniform(-2.0, 1.0)
            h = rng.uniform(0.1, 2.0)
            # coefficients in x of sum_i c_i ((x - t_lo) / h)^i
            p = taylor_shift(rng.normal(size=d + 1) / h ** np.arange(d + 1), -t_lo)
            p[0] -= exact_min(p, t_lo, t_lo + h)
            for target in (0.05, 0.01, -0.01, -0.05):
                q = p.copy()
                q[0] += target
                cases.append((q, (t_lo, t_lo + h), exact_min(q, t_lo, t_lo + h)))
    return cases


class TestCertificateForms:
    """The Markov-Lukacs form against the Gram form it replaced and against
    an exact root check, on one certificate at a time."""

    @pytest.mark.parametrize("d", range(8))
    def test_lukacs_rows_match_sum_of_squares(self, d):
        """Row r of sum_k <mats_k, Z_k> is the r-th Bernstein coefficient of
        s sigma_0 + (1 - s) sigma_1 (odd d) or sigma_0 + s (1 - s) sigma_1
        (even d), sigma_k = v' Z_k v over the Bernstein basis v of degree
        order - 1."""
        rng = np.random.default_rng(d)
        orders, mats = lukacs_mats(d)
        assert [M.shape for M in mats] == [(d + 1, m, m) for m in orders]
        Zs = [(lambda A: A @ A.T)(rng.normal(size=(m, m))) for m in orders]
        rows = sum(np.einsum("rij,ij->r", M, Z) for M, Z in zip(mats, Zs))

        def bernstein(n, s):
            return np.array(
                [math.comb(n, j) * s**j * (1 - s) ** (n - j) for j in range(n + 1)]
            ).T

        s = np.linspace(0.0, 1.0, 9)
        got = bernstein(d, s) @ rows
        sig = [
            np.einsum("ni,ij,nj->n", bernstein(m - 1, s), Z, bernstein(m - 1, s))
            for m, Z in zip(orders, Zs)
        ]
        if d == 0:
            want = sig[0]
        elif d % 2:
            want = s * sig[0] + (1 - s) * sig[1]
        else:
            want = sig[0] + s * (1 - s) * sig[1]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d", range(8))
    def test_cone_orders(self, d):
        """Orders (k + 1, k + 1) for d = 2k + 1 and (k + 1, k) for d = 2k:
        the barrier parameter, their sum, is d + 1 as in the Gram form's
        single block; every row selects something and no entry is
        negative."""
        orders, mats = lukacs_mats(d)
        k = d // 2
        assert orders == ((k + 1, k + 1) if d % 2 else (k + 1, k)[: 1 + (k > 0)])
        assert sum(orders) == d + 1
        assert (sum(M.sum(axis=(1, 2)) for M in mats) > 0).all()
        assert all((M >= 0).all() for M in mats)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_forms_agree_with_exact_minimum(self, seed):
        """Both forms find the least shift max(0, -min p) to 2e-5, against
        minima of +-0.01 and +-0.05: they certify p >= 0 exactly where the
        root check finds it nonnegative."""
        for p, interval, low in random_cases(seed, 4):
            for form in ("lukacs", "gram"):
                prob = shift_program(p, interval, form).to_problem()
                t = solve_conic(prob).theta[-1]
                assert t == pytest.approx(max(0.0, -low), abs=2e-5)
                assert (t <= 1e-3) == (low >= 0)

    def test_cubic_program_holds_only_order_1_and_2_cones(self):
        """Bounds, monotonicity and convexity of a cubic spline: 2 x 2 and
        1 x 1 cones only, d_eff + 1 rows per certificate."""
        rng = np.random.default_rng(4)
        X = rng.uniform(0.0, 1.0, size=(60, 2))
        T = TrainingSet(X=X, y=np.sin(4 * X[:, 0]) + X[:, 1] ** 2)
        spec = ShapeSpec(
            lower=-2.0,
            upper=3.0,
            monotone={"x1": INCREASING},
            curvature={"x2": CONVEX},
            pointwise=(PointwiseSet("<=", (3, 7)),),
        )
        bases = [make_basis(0.0, 1.0, 6, 3, f"x{j + 1}") for j in range(2)]
        program, _ = build_program(T, bases, spec)
        prob = program.to_problem()
        assert {m for b in prob.blocks for m in b.order} == {1, 2}
        certs = [b for b in prob.blocks if b.order != (1,)]
        assert len(certs) == len(program.certificates)
        for b, (maps, _, _) in zip(certs, program.certificates):
            assert b.rows.shape == maps.shape[:2]
        assert len(prob.c) == sum(b.rows.size for b in prob.blocks)


class TestEstimateWeights:
    def hat_fit(self, thetas):
        bases = [make_basis(0.0, 1.0, 1, 1, f"x{j+1}") for j in range(len(thetas))]
        return AdditiveModelFit(
            intercept=0.0,
            coefficients=[np.asarray(t, float) for t in thetas],
            bases=bases,
        )

    def test_hand_computed(self):
        # components 2x-1 and 4x-2 on [0,1]; training mins -1 and -2 at x=0
        fit = self.hat_fit([[-1.0, 1.0], [-2.0, 2.0]])
        T = TrainingSet(X=np.array([[0.0, 0.0], [1.0, 1.0]]), y=np.zeros(2))
        w_lo, w_up = estimate_weights(fit, T)
        np.testing.assert_allclose(w_lo, [1 / 3, 2 / 3])
        np.testing.assert_allclose(w_up, [1 / 3, 2 / 3])

    def test_single_covariate(self):
        fit = self.hat_fit([[-1.0, 1.0]])
        T = TrainingSet(X=np.array([[0.0], [1.0]]), y=np.zeros(2))
        w_lo, w_up = estimate_weights(fit, T)
        np.testing.assert_allclose(w_lo, [1.0])
        np.testing.assert_allclose(w_up, [1.0])

    def test_mixed_signs_fall_back_uniform(self):
        # one component is identically zero: its min/max are 0, so the
        # normalized weights leave (0, 1)
        fit = self.hat_fit([[-1.0, 1.0], [0.0, 0.0]])
        T = TrainingSet(X=np.array([[0.0, 0.0], [1.0, 1.0]]), y=np.zeros(2))
        with pytest.warns(UserWarning, match="uniform"):
            w_lo, w_up = estimate_weights(fit, T)
        np.testing.assert_allclose(w_lo, [0.5, 0.5])
        np.testing.assert_allclose(w_up, [0.5, 0.5])

    def test_sums_to_one_on_real_fit(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(80, 2))
        y = np.sin(4 * X[:, 0]) + X[:, 1] ** 2
        fit = fit_additive(TrainingSet(X=X, y=y), degrees=2, intervals=4)
        w_lo, w_up = estimate_weights(fit, TrainingSet(X=X, y=y))
        assert w_lo.sum() == pytest.approx(1.0, abs=1e-12)
        assert w_up.sum() == pytest.approx(1.0, abs=1e-12)


class TestShapeSpec:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ShapeSpec(lower=2.0, upper=1.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="sum"):
            ShapeSpec(weights_lower=(0.5, 0.2))
        with pytest.raises(ValueError):
            ShapeSpec(weights_lower=(1.5, -0.5))

    @pytest.mark.parametrize("kwargs", [
        dict(lower=math.nan),
        dict(upper=math.nan),
        dict(lower=-math.inf, upper=1.0),
        dict(lower=0.0, upper=math.inf),
        dict(lower=0.0, weights_lower=(math.nan,)),
        dict(upper=1.0, weights_upper=(0.5, math.nan)),
        dict(lower=0.0, weights_lower=(math.inf,)),
        dict(upper=1.0, weights_upper=(0.5, -math.inf)),
    ])
    def test_rejects_non_finite_bounds_and_weights(self, kwargs):
        """A NaN or infinite bound or weight fails at construction, not in
        the conic solve after sampling ("c has a NaN")."""
        with pytest.raises(ValueError, match="finite"):
            ShapeSpec(**kwargs)

    def test_rejects_unknown_directions(self):
        with pytest.raises(ValueError):
            ShapeSpec(monotone={"x1": "sideways"})
        with pytest.raises(ValueError):
            ShapeSpec(curvature={"x1": "wavy"})

    def test_empty(self):
        assert ShapeSpec().is_empty
        assert not ShapeSpec(lower=0.0).is_empty


def wiggly_training(rng, n=120):
    X = rng.uniform(0.0, 1.0, size=(n, 1))
    y = np.sin(9 * X[:, 0]) + 0.15 * rng.normal(size=n)
    return TrainingSet(X=X, y=y)


def dense_grid(fit, j=0, m=400):
    lo, hi = fit.bases[j].domain
    return np.linspace(lo, hi, m)


class TestFitConstrained:
    def test_empty_spec_matches_unconstrained(self):
        rng = np.random.default_rng(30)
        T = wiggly_training(rng)
        free = fit_additive(T, degrees=3, intervals=5)
        con = fit_constrained(T, degrees=3, intervals=5, spec=ShapeSpec())
        xs = dense_grid(free)
        for x in xs:
            assert con.predict([x]) == pytest.approx(free.predict([x]), abs=1e-7)

    def test_intercept_is_mean(self):
        rng = np.random.default_rng(31)
        T = wiggly_training(rng)
        fit = fit_constrained(
            T, degrees=3, intervals=5, spec=ShapeSpec(lower=-0.8)
        )
        assert fit.intercept == pytest.approx(T.y.mean(), abs=1e-12)

    def test_lower_bound_holds_everywhere(self):
        rng = np.random.default_rng(32)
        T = wiggly_training(rng)
        L = -0.6  # the sine dips well below this
        fit = fit_constrained(T, degrees=3, intervals=6, spec=ShapeSpec(lower=L))
        vals = np.array([fit.predict([x]) for x in dense_grid(fit)])
        assert vals.min() >= L - 1e-6
        free = fit_additive(T, degrees=3, intervals=6)
        free_vals = np.array([free.predict([x]) for x in dense_grid(free)])
        assert free_vals.min() < L - 0.05  # the constraint is genuinely active

    def test_upper_bound_holds_everywhere(self):
        rng = np.random.default_rng(33)
        T = wiggly_training(rng)
        U = 0.6
        fit = fit_constrained(T, degrees=3, intervals=6, spec=ShapeSpec(upper=U))
        vals = np.array([fit.predict([x]) for x in dense_grid(fit)])
        assert vals.max() <= U + 1e-6

    def test_two_sided_bounds_additive(self):
        rng = np.random.default_rng(34)
        X = rng.uniform(0.0, 1.0, size=(200, 2))
        y = np.sin(7 * X[:, 0]) + np.cos(6 * X[:, 1])
        T = TrainingSet(X=X, y=y)
        fit = fit_constrained(
            T, degrees=3, intervals=5, spec=ShapeSpec(lower=-1.5, upper=1.5)
        )
        grid = rng.uniform(0.0, 1.0, size=(500, 2))
        vals = np.array([fit.predict(x) for x in grid])
        assert vals.min() >= -1.5 - 1e-6
        assert vals.max() <= 1.5 + 1e-6

    def test_objective_matches_grid_constrained_oracle(self):
        # independent oracle: SLSQP on the same quadratic with the component
        # bounded below on a dense grid (weaker feasible set, so its optimum
        # is a lower bound; for smooth splines a fine grid is nearly exact)
        rng = np.random.default_rng(35)
        T = wiggly_training(rng, n=90)
        L = -0.55
        fit = fit_constrained(T, degrees=2, intervals=4, spec=ShapeSpec(lower=L))
        bases = fit.bases
        B = design_matrix(T.X, bases)
        B1 = B[:, 1:]
        P = identifiability_penalty([B1])[1:, 1:]
        alpha = T.y.mean()
        yc = T.y - alpha

        def obj(th):
            r = yc - B1 @ th
            return r @ r + th @ P @ th

        def jac(th):
            return 2 * (B1.T @ (B1 @ th - yc)) + 2 * P @ th

        grid = np.linspace(*bases[0].domain, 300)
        Bg = np.array([bases[0].eval_all(x) for x in grid])
        bound = L - alpha  # single covariate: weight 1
        cons = {
            "type": "ineq",
            "fun": lambda th: Bg @ th - bound,
            "jac": lambda th: Bg,
        }
        res = scipy.optimize.minimize(
            obj,
            np.zeros(B1.shape[1]),
            jac=jac,
            method="SLSQP",
            constraints=[cons],
            options={"maxiter": 500, "ftol": 1e-12},
        )
        assert res.success
        fit_obj = obj(np.concatenate(fit.coefficients))
        assert fit_obj >= res.fun - 1e-6 * (1 + abs(res.fun))
        assert fit_obj <= res.fun + 1e-4 * (1 + abs(res.fun))

    def test_monotone_increasing(self):
        rng = np.random.default_rng(36)
        X = rng.uniform(0.0, 1.0, size=(100, 1))
        y = X[:, 0] + 0.3 * np.sin(12 * X[:, 0])  # locally decreasing in spots
        T = TrainingSet(X=X, y=y)
        fit = fit_constrained(
            T, degrees=3, intervals=6, spec=ShapeSpec(monotone={"x1": INCREASING})
        )
        deriv = to_piecewise_poly(fit.coefficients[0], fit.bases[0]).derivative()
        xs = dense_grid(fit)
        assert min(deriv(x) for x in xs) >= -1e-6

    def test_monotone_decreasing(self):
        rng = np.random.default_rng(37)
        X = rng.uniform(0.0, 1.0, size=(100, 1))
        y = -X[:, 0] + 0.3 * np.sin(12 * X[:, 0])
        T = TrainingSet(X=X, y=y)
        fit = fit_constrained(
            T, degrees=3, intervals=6, spec=ShapeSpec(monotone={"x1": DECREASING})
        )
        deriv = to_piecewise_poly(fit.coefficients[0], fit.bases[0]).derivative()
        assert max(deriv(x) for x in dense_grid(fit)) <= 1e-6

    def test_convexity(self):
        rng = np.random.default_rng(38)
        X = rng.uniform(-1.0, 1.0, size=(110, 1))
        y = X[:, 0] ** 2 + 0.2 * np.sin(10 * X[:, 0])
        T = TrainingSet(X=X, y=y)
        fit = fit_constrained(
            T, degrees=3, intervals=6, spec=ShapeSpec(curvature={"x1": CONVEX})
        )
        pp = to_piecewise_poly(fit.coefficients[0], fit.bases[0])
        second = pp.derivative().derivative()
        assert min(second(x) for x in dense_grid(fit)) >= -1e-6

    def test_concavity(self):
        rng = np.random.default_rng(39)
        X = rng.uniform(-1.0, 1.0, size=(110, 1))
        y = -(X[:, 0] ** 2) + 0.2 * np.sin(10 * X[:, 0])
        T = TrainingSet(X=X, y=y)
        fit = fit_constrained(
            T, degrees=3, intervals=6, spec=ShapeSpec(curvature={"x1": CONCAVE})
        )
        pp = to_piecewise_poly(fit.coefficients[0], fit.bases[0])
        second = pp.derivative().derivative()
        assert max(second(x) for x in dense_grid(fit)) <= 1e-6

    def test_monotone_needs_degree_one(self):
        rng = np.random.default_rng(40)
        T = wiggly_training(rng, n=60)
        with pytest.raises(ValueError, match="degree"):
            fit_constrained(
                T,
                degrees=0,
                intervals=8,
                spec=ShapeSpec(monotone={"x1": INCREASING}),
            )

    def test_convexity_needs_degree_two(self):
        rng = np.random.default_rng(41)
        T = wiggly_training(rng, n=60)
        with pytest.raises(ValueError, match="degree"):
            fit_constrained(
                T,
                degrees=1,
                intervals=8,
                spec=ShapeSpec(curvature={"x1": CONVEX}),
            )

    def test_capped_conic_solve_raises_with_its_best_fit(self, monkeypatch):
        """A conic solve stopped by its iteration cap raises
        ``ShapeFitConvergenceError`` carrying its best iterate as a fit on
        the spec's bases, and ``run_missoc`` reports it as the cause of the
        fit stage's error."""
        from missoc.problems import MissocConfig, StageError, parse_instance, run_missoc

        solve = shapecon.solve_conic
        monkeypatch.setattr(shapecon, "solve_conic",
                            lambda prob, **kw: solve(prob, max_iter=3))
        T = wiggly_training(np.random.default_rng(43), n=80)
        spec = ShapeSpec(curvature={"x1": CONVEX}, monotone={"x1": INCREASING})
        with pytest.raises(ShapeFitConvergenceError, match="no convergence") as ei:
            fit_constrained(T, degrees=3, intervals=5, spec=spec)
        best = ei.value.best_fit
        want = make_bases(T, 3, 5)
        assert [(b.label, b.degree) for b in best.bases] == [
            (b.label, b.degree) for b in want
        ]
        for got, basis in zip(best.bases, want):
            np.testing.assert_array_equal(got.internal, basis.internal)
            np.testing.assert_array_equal(got.extended, basis.extended)
        assert [c.shape for c in best.coefficients] == [(b.n_basis,) for b in want]
        assert math.isfinite(best.intercept)
        assert all(np.isfinite(c).all() for c in best.coefficients)

        instance = parse_instance("var x in [0, 2]; min exp(x) - 3*x; shape convex x;")
        with pytest.raises(StageError) as ei:
            run_missoc(instance, MissocConfig(intervals=10))
        assert ei.value.stage == "fit"
        assert isinstance(ei.value.cause, ShapeFitConvergenceError)

    def test_pointwise_interpolation(self):
        rng = np.random.default_rng(42)
        T = wiggly_training(rng, n=80)
        idx = (3, 17, 44)
        spec = ShapeSpec(pointwise=(PointwiseSet("=", idx),))
        fit = fit_constrained(T, degrees=3, intervals=5, spec=spec)
        for i in idx:
            assert fit.predict(T.X[i]) == pytest.approx(T.y[i], abs=1e-6)

    def test_pointwise_underestimation(self):
        rng = np.random.default_rng(43)
        T = wiggly_training(rng, n=80)
        idx = tuple(range(0, 80, 7))
        spec = ShapeSpec(pointwise=(PointwiseSet("<=", idx),))
        fit = fit_constrained(T, degrees=3, intervals=5, spec=spec)
        for i in idx:
            assert fit.predict(T.X[i]) <= T.y[i] + 1e-6

    def test_pointwise_overestimation(self):
        rng = np.random.default_rng(44)
        T = wiggly_training(rng, n=80)
        idx = tuple(range(0, 80, 9))
        spec = ShapeSpec(pointwise=(PointwiseSet(">=", idx),))
        fit = fit_constrained(T, degrees=3, intervals=5, spec=spec)
        for i in idx:
            assert fit.predict(T.X[i]) >= T.y[i] - 1e-6

    def test_pointwise_conflicting_with_bound(self):
        rng = np.random.default_rng(45)
        T = wiggly_training(rng, n=80)
        hi = int(np.argmax(T.y))
        spec = ShapeSpec(
            upper=float(T.y[hi]) - 0.5, pointwise=(PointwiseSet("=", (hi,)),)
        )
        with pytest.raises(InfeasibleSpecError):
            fit_constrained(T, degrees=3, intervals=5, spec=spec)

    def test_pointwise_bad_index(self):
        rng = np.random.default_rng(46)
        T = wiggly_training(rng, n=50)
        spec = ShapeSpec(pointwise=(PointwiseSet("=", (99,)),))
        with pytest.raises(ValueError, match="index"):
            fit_constrained(T, degrees=3, intervals=5, spec=spec)

    def test_explicit_weights_respected(self):
        rng = np.random.default_rng(47)
        X = rng.uniform(0.0, 1.0, size=(150, 2))
        y = np.sin(8 * X[:, 0]) + np.sin(8 * X[:, 1])
        T = TrainingSet(X=X, y=y)
        L = -1.2
        spec = ShapeSpec(lower=L, weights_lower=(0.7, 0.3))
        fit = fit_constrained(T, degrees=3, intervals=5, spec=spec)
        alpha = fit.intercept
        c0 = fit.component(0, dense_grid(fit, 0)).min()
        c1 = fit.component(1, dense_grid(fit, 1)).min()
        assert c0 >= 0.7 * (L - alpha) - 1e-6
        assert c1 >= 0.3 * (L - alpha) - 1e-6


class TestRestoration:
    def test_rebuild_reuses_the_first_weights(self, monkeypatch):
        # one reported violation forces one restoration rebuild
        rng = np.random.default_rng(48)
        X = rng.uniform(0.0, 1.0, size=(150, 2))
        y = np.sin(8 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=150)
        T = TrainingSet(X=X, y=y)
        spec = ShapeSpec(lower=-0.5, upper=1.5)
        estimates = []
        estimate = shapecon.estimate_weights

        def counted_estimate(*args):
            estimates.append(estimate(*args))
            return estimates[-1]

        reported = []
        violation = shapecon.shape_violation

        def violated_once(program, theta):
            if not reported:
                reported.append(1e-3)
                return 1e-3
            return violation(program, theta)

        builds = []
        build = shapecon.build_program

        def recorded_build(T, bases, spec, margin=0.0):
            builds.append((bases, margin, build(T, bases, spec, margin=margin)))
            return builds[-1][2]

        monkeypatch.setattr(shapecon, "estimate_weights", counted_estimate)
        monkeypatch.setattr(shapecon, "shape_violation", violated_once)
        monkeypatch.setattr(shapecon, "build_program", recorded_build)
        fit_constrained(T, degrees=3, intervals=5, spec=spec)

        assert len(estimates) == 1
        assert [margin for _, margin, _ in builds[:2]] == [0.0, 4e-3]
        w_lo, w_up = estimates[0]
        weighted = dataclasses.replace(
            spec, weights_lower=tuple(w_lo), weights_upper=tuple(w_up)
        )
        for bases, margin, (program, alpha) in builds[1:]:
            ref, ref_alpha = build(T, bases, weighted, margin=margin)
            assert alpha == ref_alpha
            got, want = program.to_problem(), ref.to_problem()
            for name in ("Q", "q", "C", "c"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name)
                )
            assert len(program.certificates) == len(ref.certificates)
            for a, b in zip(program.certificates, ref.certificates):
                np.testing.assert_array_equal(a[0], b[0])
                np.testing.assert_array_equal(a[1], b[1])
                assert a[2:] == b[2:]

    # two covariates on [c, c + 2]; the upper bound binds at the upper end
    # of x1, and monotonicity holds x2's fit flat where sin rises
    TRANSLATED = (
        "var x1 in [{c}, {hi}]; var x2 in [{c}, {hi}];"
        "min exp(0.9*(x1 - {c})) - 2.2*(x1 - {c}) - 1.5*(x2 - {c})"
        " + 0.4*sin(4*(x2 - {c}));"
        "shape bounds [0, 5.5]; shape monotone x2 down;"
    )

    def test_translated_domain_needs_no_restoration(self, monkeypatch):
        """Moving the domain away from 0 changes only rounding: the
        certificates are checked in their local variable, so no far offset
        turns rounding into a violation and a restoration (a check in x
        restored at all three offsets and moved the surrogate objective by
        7.9e-5 and 3.4e-3 relative at 1e3 and 1e4)."""
        from missoc.problems import MissocConfig, parse_instance, run_missoc

        builds = []
        build = shapecon.build_program

        def counted_build(*args, **kwargs):
            builds.append(kwargs.get("margin", 0.0))
            return build(*args, **kwargs)

        monkeypatch.setattr(shapecon, "build_program", counted_build)
        surrogate = {}
        for c in (0.0, 1e3, 1e4, 1e5):
            builds.clear()
            instance = parse_instance(self.TRANSLATED.format(c=c, hi=c + 2))
            report = run_missoc(instance, MissocConfig(intervals=10))
            assert report.status == "optimal"
            assert builds == [0.0], c
            surrogate[c] = report.solver.objective
        for c in (1e3, 1e4, 1e5):
            assert surrogate[c] == pytest.approx(surrogate[0.0], rel=1e-9), c


class TestShippedBoundedInstance:
    def test_runs_optimal_without_grid_violation(self, monkeypatch):
        """The shipped instance with a ``shape bounds`` statement and p = 2
        estimates per-covariate bound weights, builds bound certificates,
        fits without a grid violation (so without a restoration), and runs
        to 'optimal' at its best known value."""
        import importlib.resources

        from missoc.problems import (
            MissocConfig,
            covariate_domains,
            parse_instance,
            run_missoc,
            sample_training,
        )

        root = importlib.resources.files("missoc") / "instances"
        inst = parse_instance((root / "bounded_shaped.miss").read_text(),
                              name="bounded_shaped")
        assert len(inst.covariates()) == 2
        assert (inst.shape.lower, inst.shape.upper) == (0.5, 8.0)
        weights, margins = [], []
        estimate, build = shapecon.estimate_weights, shapecon.build_program

        def spy_estimate(*args):
            weights.append(estimate(*args))
            return weights[-1]

        def spy_build(*args, **kwargs):
            margins.append(kwargs.get("margin", args[3] if len(args) > 3 else 0.0))
            return build(*args, **kwargs)

        monkeypatch.setattr(shapecon, "estimate_weights", spy_estimate)
        monkeypatch.setattr(shapecon, "build_program", spy_build)
        report = run_missoc(inst)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(inst.best_known, abs=1e-6)
        assert margins == [0.0]  # no restoration
        ((w_lo, w_up),) = weights
        for w in (w_lo, w_up):
            assert len(w) == 2 and abs(w.sum() - 1.0) <= 1e-12
            assert not np.allclose(w, 0.5)  # estimated, not the fallback
        monkeypatch.undo()
        cfg = MissocConfig()
        T = sample_training(inst, cfg)
        fit, sol = fit_constrained(
            T, cfg.degrees, cfg.intervals, inst.shape,
            domains=covariate_domains(inst), labels=inst.covariates(),
            return_solution=True,
        )
        program, _ = build_program(T, fit.bases, inst.shape)
        assert program.spec.lower == 0.5 and program.spec.upper == 8.0
        assert shapecon.shape_violation(program, sol.theta) == 0.0
