import dataclasses

import numpy as np
import pytest
import scipy.optimize

from missoc import shapecon

from missoc.regression import (
    AdditiveModelFit,
    TrainingSet,
    block_slices,
    fit_additive,
    identifiability_penalty,
)
from missoc.shapecon import (
    CONCAVE,
    CONVEX,
    DECREASING,
    INCREASING,
    InfeasibleSpecError,
    PointwiseSet,
    ShapeSpec,
    build_H,
    build_W,
    build_program,
    derivative_map,
    estimate_weights,
    fit_constrained,
)
from missoc.splines import design_matrix, make_basis, to_piecewise_poly


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
    power-basis coefficients (in x) of the component on interval q as a
    linear function of the covariate's basis coefficients."""

    @staticmethod
    def bound_maps(basis):
        """G_q of the lower-bound certificate on every interval q."""
        rng = np.random.default_rng(0)
        lo, hi = basis.domain
        X = rng.uniform(lo, hi, size=(40, 1))
        T = TrainingSet(X=X, y=np.sin(X[:, 0]))
        program, _ = build_program(T, [basis], ShapeSpec(lower=-10.0))
        return [cert[0] for cert in program.certificates]

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
            t = np.linspace(
                basis.knots.internal[q], basis.knots.internal[q + 1], 7
            )[:-1]
            for x in t:
                want = basis.eval_all(x) @ theta
                got = np.polynomial.polynomial.polyval(x, coeffs)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_partition_of_unity(self):
        basis = make_basis(0.0, 4.0, 4, 2)
        for G in self.bound_maps(basis):
            ones_poly = G @ np.ones(basis.n_basis)
            np.testing.assert_allclose(
                ones_poly, [1.0, 0.0, 0.0], atol=1e-12
            )


class TestDerivativeMap:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_matches_polyder(self, d):
        rng = np.random.default_rng(d)
        p = rng.normal(size=d + 1)
        np.testing.assert_allclose(
            derivative_map(d) @ p, np.polynomial.polynomial.polyder(p)
        )


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
