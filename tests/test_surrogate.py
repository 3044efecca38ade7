import importlib.resources

import numpy as np
import pytest

from missoc.problems import MissocConfig, parse_instance, sample_training
from missoc.regression import TrainingSet, fit_additive
from missoc.splines import OutOfDomainError, PiecewisePoly, to_piecewise_poly
from missoc.surrogate import (
    DomainMismatchError,
    build_surrogate,
    eval_surrogate_at,
    export_text,
    integer_points_lift,
)
from test_bnb import INT0, INT_COUPLED


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
        rows = surr.constraint_rows
        np.testing.assert_array_equal(rows.A, [[1.0, 1.0]])
        np.testing.assert_array_equal(rows.b, [-1.0])
        np.testing.assert_array_equal(rows.eq, [False])
        assert rows.nonaffine == (inst.constraints[1],)

    def test_carries_the_instances_own_record(self):
        inst = parse_instance(
            "var a in [0,1]; var b in [0,1];"
            "min a^2 + b^2; st a + b <= 1; st a - b = 0.2;"
        )
        surr = build_surrogate(fit_for(inst, intervals=3), inst)
        assert surr.constraint_rows is inst.constraint_rows

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


MIXED_INTEGER = (
    importlib.resources.files("missoc") / "instances" / "mixed_integer.miss"
).read_text()


def integer_points(var):
    return np.arange(var.lower, var.upper + 1.0)


class TestIntegerPointsLift:
    """An integer covariate whose box holds at most k integers gets the
    piecewise-linear interpolant of its spline over the unit intervals
    between them, closed by a zero-width interval at the upper end; every
    other covariate keeps its spline's k intervals."""

    # mixed_integer's integer n enters only linearly, so no covariate of it
    # is lifted; INT0 and INT_COUPLED each have three integer covariates on
    # [0, 6], 7 integers against k = 20 and k = 8 spline intervals
    CASES = [(MIXED_INTEGER, 20, 0), (INT0, 20, 3), (INT_COUPLED, 8, 3)]
    IDS = ["mixed_integer", "int0", "int1"]

    @staticmethod
    def lift(text, intervals):
        """(surrogate, the variable of each component, each covariate's
        spline as the piecewise polynomial the spline lift takes, and
        whether each component is lifted)."""
        inst = parse_instance(text)
        fit = fit_for(inst, intervals=intervals)
        surr = build_surrogate(fit, inst)
        idx = inst.var_index()
        var = [inst.variables[idx[c.var]] for c in surr.components]
        splines = [to_piecewise_poly(theta, basis)
                   for theta, basis in zip(fit.coefficients, fit.bases)]
        lifted = [v.integer and len(integer_points(v)) <= s.k
                  for v, s in zip(var, splines)]
        return surr, var, splines, lifted

    @pytest.mark.parametrize("text, intervals, n_lifted", CASES, ids=IDS)
    def test_integer_points_score_the_splines_value(self, text, intervals,
                                                    n_lifted):
        """At every integer point of a lifted component, both box ends
        included, ``eval_surrogate_at`` gives the spline's value bit for
        bit; any other component is the spline's piecewise polynomial."""
        surr, var, splines, lifted = self.lift(text, intervals)
        assert sum(lifted) == n_lifted
        idx = surr.var_index()
        low = np.array([v.lower for v in surr.variables])
        for j, comp in enumerate(surr.components):
            if not lifted[j]:
                assert comp.breakpoints.tobytes() == splines[j].breakpoints.tobytes()
                assert comp.piece.coeffs.tobytes() == splines[j].coeffs.tobytes()
                continue
            for i in integer_points(var[j]):
                x = low.copy()
                x[idx[comp.var]] = i
                _, asg = eval_surrogate_at(surr, x)
                assert asg["sigma"][j].hex() == splines[j](i).hex()

    @pytest.mark.parametrize("text, intervals, n_lifted", CASES, ids=IDS)
    def test_one_unit_interval_per_gap(self, text, intervals, n_lifted):
        """A lifted component has one unit interval per gap between its
        integers, then the zero-width interval at the upper end: as many
        intervals as integers, no more than the spline's k."""
        surr, var, splines, lifted = self.lift(text, intervals)
        for comp, v, spline, on in zip(surr.components, var, splines, lifted):
            if not on:
                continue
            points = integer_points(v)
            assert comp.breakpoints.tolist() == points.tolist() + [v.upper]
            assert comp.widths.tolist() == [1.0] * (len(points) - 1) + [0.0]
            assert comp.degree == 1
            assert comp.k == len(points) <= spline.k

    def test_upper_end_scores_its_own_value(self):
        """The last unit interval would reach the upper point as the sum
        0.7 + (0.1 - 0.7), which is 0.09999999999999998; the zero-width
        interval scores it 0.1, as the spline does."""
        spline = PiecewisePoly(np.array([0.0, 1.0, 2.0, 3.0]),
                               np.array([[0.0], [0.7], [0.1]]))
        lift = integer_points_lift(spline, np.array([0.0, 1.0, 2.0]))
        assert 0.7 + (0.1 - 0.7) != 0.1
        assert lift.coeffs[1].tolist() == [0.7, 0.1 - 0.7]
        assert [lift(x) for x in (0.0, 1.0, 2.0)] == [0.0, 0.7, 0.1]

    @pytest.mark.parametrize("upper, lifted", [(19, True), (20, False), (30, False)])
    def test_wide_integer_box_keeps_the_spline(self, upper, lifted):
        """With k = 20, a box of 20 integers is lifted into 20 intervals;
        21 integers would need 21, one binary more than the spline's, so
        that box keeps the spline's 20 intervals, as a wider one does."""
        text = (f"var n in [0, {upper}] integer; var x in [0, 1];"
                "min 0.01*(n - 7.5)^2 + sin(3*x);")
        surr, var, splines, _ = self.lift(text, 20)
        comp = surr.components[0]
        assert var[0].name == "n" and comp.k == 20
        if lifted:
            assert comp.breakpoints.tolist() == list(range(20)) + [19]
        else:
            assert comp.breakpoints.tobytes() == splines[0].breakpoints.tobytes()
            assert comp.piece.coeffs.tobytes() == splines[0].coeffs.tobytes()


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
    def test_constraint_lines(self):
        # a repeated variable is summed, a zero coefficient dropped, ">="
        # turned to "<=", and the non-affine constraint listed last
        inst = parse_instance(
            "var x in [0, 1]; var y in [0, 1]; min x^2 + y^2;"
            "st x + 2*x <= 1; st x - y = 0.5; st x*y <= 0.3; st x >= y - 0.25;"
            "st 1 <= 2; st x - x + y <= 1;"
        )
        surr = build_surrogate(fit_for(inst, intervals=3), inst)
        assert export_text(surr).splitlines()[-6:] == [
            "st -1 +3*x <= 0",
            "st -0.5 +1*x -1*y = 0",
            "st -0.25 -1*x +1*y <= 0",
            "st -1 <= 0",
            "st -1 +1*y <= 0",
            "st ((x * y) - 0.29999999999999999) <= 0",
        ]

    def test_listing_structure(self):
        inst = parse_instance(TWO_VAR)
        surr = build_surrogate(fit_for(inst, intervals=3), inst)
        text = export_text(surr)
        assert "var a in" in text
        assert "var y_a_0 in [0, 1] binary" in text
        assert text.count("= 1") >= 2  # one choice constraint per covariate
        assert "sigma_a" in text and "sigma_b" in text
