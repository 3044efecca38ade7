import numpy as np
import pytest

from missoc.problems import MissocConfig, parse_instance, sample_training
from missoc.regression import TrainingSet, fit_additive
from missoc.splines import OutOfDomainError
from missoc.surrogate import (
    DomainMismatchError,
    build_surrogate,
    eval_surrogate_at,
    export_text,
)


def fit_for(instance, degrees=3, intervals=10, seed=0, samples_per_param=15):
    cfg = MissocConfig(
        degrees=degrees,
        intervals=intervals,
        seed=seed,
        samples_per_param=samples_per_param,
    )
    T = sample_training(instance, cfg)
    names = instance.covariates()
    idx = instance.var_index()
    domains = [
        (instance.variables[idx[nm]].lower, instance.variables[idx[nm]].upper)
        for nm in names
    ]
    return fit_additive(
        T, degrees=degrees, intervals=intervals, domains=domains, labels=names
    )


SIX_VAR = (
    "var x1 in [0.1, 1]; var x2 in [0.1, 1]; var x3 in [0.1, 1];"
    "var x4 in [0.1, 1]; var x5 in [0.1, 1]; var x6 in [0.1, 1];"
    "min x1*log(x1) + x2*log(x2) + x3*log(x3)"
    " + x4*log(x4) + x5*log(x5) + x6*log(x6);"
    "st x1 + x2 + x3 + x4 + x5 + x6 <= 2;"
)

TWO_VAR = (
    "var a in [0, 1]; var b in [-1, 2];"
    "min sin(5*a) + b^2 - 0.3*b;"
)


class TestBuildSurrogate:
    def test_size_law_six_covariates(self):
        inst = parse_instance(SIX_VAR)
        fit = fit_for(inst, degrees=3, intervals=10, samples_per_param=3)
        surr = build_surrogate(fit, inst)
        assert surr.n_binaries == 60
        assert surr.n_auxiliaries == 6 * 21

    def test_single_interval_single_covariate(self):
        inst = parse_instance("var x in [0, 1]; min x^3;")
        fit = fit_for(inst, degrees=3, intervals=1)
        surr = build_surrogate(fit, inst)
        assert surr.n_binaries == 1
        assert len(surr.components) == 1
        value, asg = eval_surrogate_at(surr, [0.4])
        assert asg["y"][0][0] == 1.0
        assert value == pytest.approx(fit.predict([0.4]), abs=1e-9)

    def test_affine_part_carried_through(self):
        inst = parse_instance(TWO_VAR)
        fit = fit_for(inst, intervals=5)
        surr = build_surrogate(fit, inst)
        # b appears both nonlinearly (b^2) and linearly (-0.3 b)
        assert surr.linear == {"b": -0.3}
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = np.array([rng.uniform(0, 1), rng.uniform(-1, 2)])
            value, _ = eval_surrogate_at(surr, x)
            want = fit.predict(x) - 0.3 * x[1]
            assert value == pytest.approx(want, abs=1e-9)

    def test_constraints_classified(self):
        inst = parse_instance(
            "var a in [0,1]; var b in [0,1];"
            "min a^2 + b^2; st a + b <= 1; st a*b - 0.1 <= 0;"
        )
        fit = fit_for(inst, intervals=3)
        surr = build_surrogate(fit, inst)
        assert len(surr.linear_constraints) == 1
        assert surr.linear_constraints[0].coeffs == {"a": 1.0, "b": 1.0}
        assert surr.linear_constraints[0].constant == -1.0
        assert len(surr.nonlinear_constraints) == 1

    def test_domain_mismatch(self):
        inst = parse_instance("var x in [0, 2]; min x^2;")
        # fit over a smaller domain than the variable box
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(60, 1))
        fit = fit_additive(
            TrainingSet(X=X, y=X[:, 0] ** 2),
            degrees=3,
            intervals=4,
            domains=[(0.0, 1.0)],
            labels=["x"],
        )
        with pytest.raises(DomainMismatchError):
            build_surrogate(fit, inst)

    def test_mismatched_fit_covariates(self):
        inst = parse_instance("var x in [0,1]; min x^2;")
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(60, 1))
        fit = fit_additive(
            TrainingSet(X=X, y=X[:, 0] ** 2),
            degrees=3,
            intervals=4,
            domains=[(0.0, 1.0)],
            labels=["wrong"],
        )
        with pytest.raises(ValueError, match="covariates"):
            build_surrogate(fit, inst)


class TestEvalSurrogateAt:
    def test_matches_predict_500_points(self):
        inst = parse_instance(TWO_VAR)
        fit = fit_for(inst, intervals=6)
        surr = build_surrogate(fit, inst)
        rng = np.random.default_rng(3)
        for _ in range(500):
            x = np.array([rng.uniform(0, 1), rng.uniform(-1, 2)])
            value, asg = eval_surrogate_at(surr, x)
            want = fit.predict(x) - 0.3 * x[1]
            assert value == pytest.approx(want, abs=1e-9)
            for y in asg["y"]:
                assert y.sum() == 1.0

    def test_assignment_consistency(self):
        inst = parse_instance(TWO_VAR)
        fit = fit_for(inst, intervals=6)
        surr = build_surrogate(fit, inst)
        idx = surr.var_index()
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = np.array([rng.uniform(0, 1), rng.uniform(-1, 2)])
            _, asg = eval_surrogate_at(surr, x)
            for j, comp in enumerate(surr.components):
                y, dev = asg["y"][j], asg["dev"][j]
                widths = comp.widths
                # deviations live in [0, width * y]
                assert np.all(dev >= -1e-12)
                assert np.all(dev <= widths * y + 1e-12)
                # x_j reassembles from the multiple-choice variables
                xj = float(np.sum(y * comp.breakpoints[:-1] + dev))
                assert xj == pytest.approx(x[idx[comp.var]], abs=1e-12)
                # sigma equals the piecewise polynomial value
                assert asg["sigma"][j] == pytest.approx(
                    comp.piece(x[idx[comp.var]]), abs=1e-9
                )

    def test_knot_tie_goes_right(self):
        inst = parse_instance("var x in [0, 1]; min x^3;")
        fit = fit_for(inst, intervals=4)
        surr = build_surrogate(fit, inst)
        comp = surr.components[0]
        knot = comp.breakpoints[2]  # interior knot
        _, asg = eval_surrogate_at(surr, [knot])
        assert asg["y"][0][2] == 1.0  # right interval selected
        assert asg["dev"][0][2] == 0.0

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_agrees_with_predict_at_knots(self, degree):
        # a degree-0 fit jumps at every knot, so the fit and the lift agree
        # there only when both send a knot to the same interval
        inst = parse_instance("var a in [0, 1]; min sin(5*a);")
        fit = fit_for(inst, degrees=degree, intervals=4)
        surr = build_surrogate(fit, inst)
        for knot in surr.components[0].breakpoints:
            value, _ = eval_surrogate_at(surr, [knot])
            assert value == pytest.approx(fit.predict([knot]), abs=1e-9)

    def test_zero_fit_gives_intercept(self):
        inst = parse_instance("var x in [0, 1]; min x^3;")
        fit = fit_for(inst, intervals=4)
        zero = fit_additive(
            TrainingSet(
                X=np.linspace(0, 1, 40).reshape(-1, 1), y=np.full(40, 2.5)
            ),
            degrees=3,
            intervals=4,
            domains=[(0.0, 1.0)],
            labels=["x"],
        )
        surr = build_surrogate(zero, inst)
        value, _ = eval_surrogate_at(surr, [0.77])
        assert value == pytest.approx(2.5, abs=1e-8)

    def test_out_of_domain(self):
        inst = parse_instance("var x in [0, 1]; min x^3;")
        surr = build_surrogate(fit_for(inst, intervals=4), inst)
        with pytest.raises(OutOfDomainError):
            eval_surrogate_at(surr, [1.5])


class TestExport:
    def test_listing_structure(self):
        inst = parse_instance(TWO_VAR)
        surr = build_surrogate(fit_for(inst, intervals=3), inst)
        text = export_text(surr)
        assert "var a in" in text
        assert "var y_a_0 in [0, 1] binary" in text
        assert text.count("= 1") >= 2  # one choice constraint per covariate
        assert "sigma_a" in text and "sigma_b" in text
