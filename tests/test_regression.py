import numpy as np
import pytest
import scipy.optimize

from missoc.regression import (
    MODEL_FORMAT_VERSION,
    AdditiveModelFit,
    IllPosedFitError,
    TrainingSet,
    block_slices,
    dump_model,
    fit_additive,
    identifiability_penalty,
    make_bases,
)
from missoc.splines import (
    OutOfDomainError,
    design_matrix,
    extend_knots,
    make_basis,
)


def theta_full(fit):
    """The fit's stacked parameter vector, intercept first."""
    return np.concatenate([[fit.intercept], *fit.coefficients])


def load_model(text: str) -> AdditiveModelFit:
    """Parse the plain-text model format written by ``dump_model``: the
    reference reader its round trip is checked against."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("missoc-model"):
        raise ValueError("not a missoc model file")
    version = int(lines[0].split()[1])
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    intercept = None
    bases, coeffs = [], []
    label = degree = knots = None
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "intercept":
            intercept = float(rest)
        elif key == "covariate":
            label = rest
        elif key == "degree":
            degree = int(rest)
        elif key == "knots":
            knots = np.array([float(v) for v in rest.split()])
        elif key == "coefficients":
            theta = np.array([float(v) for v in rest.split()])
            basis = extend_knots(knots, degree, label)
            if theta.shape != (basis.n_basis,):
                raise ValueError(
                    f"covariate {label}: {theta.size} coefficients for a "
                    f"basis of {basis.n_basis}"
                )
            bases.append(basis)
            coeffs.append(theta)
        elif key == "end":
            break
        else:
            raise ValueError(f"unknown model-file key {key!r}")
    if intercept is None:
        raise ValueError("model file has no intercept")
    return AdditiveModelFit(intercept=intercept, coefficients=coeffs, bases=bases)


def random_training(rng, n=60, p=2, lo=0.0, hi=1.0, fn=None):
    X = rng.uniform(lo, hi, size=(n, p))
    if fn is None:
        fn = lambda x: np.sin(3 * x[0]) + (x[-1] - 0.5) ** 2
    y = np.array([fn(x) for x in X])
    return TrainingSet(X=X, y=y)


class TestTrainingSet:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TrainingSet(X=np.array([[0.0], [np.nan]]), y=np.array([1.0, 2.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            TrainingSet(X=np.zeros((3, 1)), y=np.zeros(2))


class TestIdentifiabilityPenalty:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        B1 = rng.uniform(size=(10, 4))
        P = identifiability_penalty([B1])
        s = B1.sum(axis=0)
        assert P[0, 0] == 0.0
        np.testing.assert_allclose(P[1:, 1:], np.outer(s, s))

    def test_zero_block(self):
        P = identifiability_penalty([np.zeros((5, 3))])
        np.testing.assert_allclose(P, 0.0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=(12, 4)), rng.normal(size=(12, 6))]
        P = identifiability_penalty(blocks)
        np.testing.assert_allclose(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-10


class TestFitAdditive:
    def test_constant_response(self):
        rng = np.random.default_rng(2)
        T = random_training(rng, n=80, p=2, fn=lambda x: 3.25)
        fit = fit_additive(T, degrees=2, intervals=3)
        assert fit.intercept == pytest.approx(3.25, abs=1e-9)
        for theta in fit.coefficients:
            np.testing.assert_allclose(theta, 0.0, atol=1e-8)
        assert fit.residual_norm <= 1e-8

    def test_intercept_is_sample_mean(self):
        rng = np.random.default_rng(3)
        T = random_training(rng, n=100, p=3)
        fit = fit_additive(T, degrees=2, intervals=4)
        mean = T.y.mean()
        assert abs(fit.intercept - mean) <= 1e-8 * (1 + abs(mean))

    def test_zero_mean_components(self):
        rng = np.random.default_rng(4)
        T = random_training(rng, n=120, p=2)
        fit = fit_additive(T, degrees=3, intervals=5)
        assert np.all(np.abs(fit.zero_mean_defects) <= 1e-6 * T.n)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(5)
        T = random_training(rng, n=90, p=2)
        fit = fit_additive(T, degrees=3, intervals=4)
        bases = fit.bases
        B = design_matrix(T.X, bases)
        P = identifiability_penalty([B[:, s] for s in block_slices(bases)])
        theta = theta_full(fit)
        lhs = (B.T @ B + P) @ theta
        rhs = B.T @ T.y
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_objective_matches_generic_minimizer(self):
        # independent oracle: generic unconstrained quadratic minimization
        rng = np.random.default_rng(6)
        T = random_training(rng, n=60, p=2)
        fit = fit_additive(T, degrees=2, intervals=3)
        bases = fit.bases
        B = design_matrix(T.X, bases)
        P = identifiability_penalty([B[:, s] for s in block_slices(bases)])

        def objective(theta):
            r = T.y - B @ theta
            return r @ r + theta @ P @ theta

        res = scipy.optimize.minimize(
            objective,
            np.zeros(B.shape[1]),
            jac=lambda th: 2 * (B.T @ (B @ th - T.y)) + 2 * P @ th,
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-15, "maxiter": 5000},
        )
        assert objective(theta_full(fit)) <= res.fun + 1e-10 * (1 + abs(res.fun))

    def test_row_order_invariance(self):
        rng = np.random.default_rng(7)
        T = random_training(rng, n=70, p=2)
        perm = rng.permutation(T.n)
        T2 = TrainingSet(X=T.X[perm], y=T.y[perm])
        f1 = fit_additive(T, degrees=2, intervals=4)
        f2 = fit_additive(
            T2,
            degrees=2,
            intervals=4,
            domains=[T.covariate_range(j) for j in range(T.p)],
        )
        for x in rng.uniform(0.05, 0.95, size=(20, 2)):
            assert f1.predict(x) == pytest.approx(f2.predict(x), abs=1e-8)

    def test_response_shift_moves_intercept_only(self):
        rng = np.random.default_rng(8)
        T = random_training(rng, n=80, p=2)
        c = 12.5
        f1 = fit_additive(T, degrees=2, intervals=4)
        f2 = fit_additive(TrainingSet(X=T.X, y=T.y + c), degrees=2, intervals=4)
        assert f2.intercept - f1.intercept == pytest.approx(c, abs=1e-8)
        for t1, t2 in zip(f1.coefficients, f2.coefficients):
            np.testing.assert_allclose(t1, t2, atol=1e-8)

    def test_too_few_samples(self):
        rng = np.random.default_rng(9)
        T = random_training(rng, n=5, p=2)
        with pytest.raises(ValueError, match="samples"):
            fit_additive(T, degrees=3, intervals=10)


class TestPredict:
    def test_zero_coefficients_gives_intercept(self):
        basis = make_basis(0.0, 1.0, 3, 2)
        fit = AdditiveModelFit(
            intercept=4.0, coefficients=[np.zeros(basis.n_basis)], bases=[basis]
        )
        assert fit.predict([0.7]) == 4.0

    def test_out_of_domain(self):
        basis = make_basis(0.0, 1.0, 3, 2)
        fit = AdditiveModelFit(
            intercept=0.0, coefficients=[np.zeros(basis.n_basis)], bases=[basis]
        )
        with pytest.raises(OutOfDomainError):
            fit.predict([2.0])

    def test_agreement_with_design_matrix_rows(self):
        rng = np.random.default_rng(10)
        T = random_training(rng, n=100, p=2)
        fit = fit_additive(T, degrees=3, intervals=4)
        theta = theta_full(fit)
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        B = design_matrix(pts, fit.bases)
        for i in range(100):
            assert fit.predict(pts[i]) == pytest.approx(
                B[i] @ theta, rel=1e-12, abs=1e-12
            )


class TestSerialization:
    def test_roundtrip_bit_faithful(self):
        rng = np.random.default_rng(11)
        T = random_training(rng, n=90, p=2)
        fit = fit_additive(T, degrees=3, intervals=4)
        clone = load_model(dump_model(fit))
        assert clone.intercept == fit.intercept
        for a, b in zip(clone.coefficients, fit.coefficients):
            assert np.array_equal(a, b)
        for ba, bb in zip(clone.bases, fit.bases):
            assert np.array_equal(ba.internal, bb.internal)
            assert ba.degree == bb.degree
            assert ba.label == bb.label
        # and the serialized form is stable
        assert dump_model(clone) == dump_model(fit)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            load_model("hello world\n")

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            load_model("missoc-model 99\nintercept 0\nend\n")
