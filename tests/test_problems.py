import math

import numpy as np
import pytest

from missoc.expressions import ParseError, evaluate, parse_expr
from missoc.problems import (
    RESAMPLE_CAP,
    InstanceValidationError,
    MissocConfig,
    ProblemInstance,
    SamplingError,
    Variable,
    covariate_domains,
    load_instance,
    parse_instance,
    sample_training,
)
from missoc.shapecon import INCREASING


SIMPLE = """
# toy quadratic
var x1 in [0, 2];
min x1^2;
st x1 >= 0;
"""


class TestParseInstance:
    def test_simple(self):
        inst = parse_instance(SIMPLE)
        assert [v.name for v in inst.variables] == ["x1"]
        assert inst.variables[0].lower == 0.0
        assert inst.variables[0].upper == 2.0
        assert len(inst.constraints) == 1
        assert inst.objective_value([1.5]) == 2.25
        # x1 >= 0 normalizes to -x1 <= 0
        assert inst.constraint_values([1.5])[0] == -1.5

    def test_integer_flag(self):
        inst = parse_instance(
            "var n in [0, 5] integer; var x in [0, 1]; min x^2 + n;"
        )
        assert inst.variables[0].integer
        assert not inst.variables[1].integer

    def test_integer_box_tightened_to_integer_ends(self):
        inst = parse_instance(
            "var n in [0.5, 3.5] integer; var m in [-inf, 2.6] integer;"
            "var x in [0.5, 3.5]; min x^2 + n + m;"
        )
        assert [(v.lower, v.upper) for v in inst.variables] == [
            (1.0, 3.0), (-math.inf, 2.0), (0.5, 3.5)
        ]

    def test_integer_box_without_an_integer(self):
        with pytest.raises(ParseError, match="no integer .* variable n"):
            parse_instance("var n in [0.2, 0.8] integer; min n;")

    def test_st_spelling_variants(self):
        a = parse_instance("var x in [0,1]; min x^2; st x - 0.5 <= 0;")
        b = parse_instance("var x in [0,1]; min x^2; s.t. x - 0.5 <= 0;")
        assert a.constraint_values([0.2]) == b.constraint_values([0.2])

    def test_equality_constraint(self):
        inst = parse_instance("var x in [0,1]; var y in [0,1]; min x*y; st x + y = 1;")
        assert inst.constraints[0].relation == "="
        assert inst.constraint_values([0.3, 0.7])[0] == pytest.approx(0.0)

    def test_shape_statements(self):
        inst = parse_instance(
            "var x in [0,1]; min exp(x);"
            "shape bounds [1, 3]; shape monotone x up; shape convex x;"
        )
        assert inst.shape.lower == 1.0
        assert inst.shape.upper == 3.0
        assert inst.shape.monotone["x"] == INCREASING
        assert inst.shape.curvature["x"] == "convex"

    def test_shape_bounds_infinite_side_dropped(self):
        inst = parse_instance(
            "var x in [0,1]; min exp(x); shape bounds [-inf, 3];"
        )
        assert inst.shape.lower is None
        assert inst.shape.upper == 3.0

    @pytest.mark.parametrize(
        "bounds", ["[nan, 8]", "[0, nan]", "[NaN, -inf]", "[inf, 8]", "[0, -inf]"]
    )
    def test_shape_bounds_nan_is_an_error_on_its_line(self, bounds):
        """A NaN bound, inf below or -inf above is refused on its line; none
        is an absent bound, as -inf below and inf above are."""
        with pytest.raises(ParseError, match="must be numbers") as ei:
            parse_instance(f"var x in [0, 2];\nmin exp(x);\nshape bounds {bounds};\n")
        assert ei.value.line == 3

    def test_point_statement(self):
        inst = parse_instance(
            "var x in [0,1]; min exp(x); point interp 0 5 9;"
        )
        ps = inst.shape.pointwise[0]
        assert ps.relation == "="
        assert ps.indices == (0, 5, 9)

    def test_bestknown_metadata(self):
        inst = parse_instance("var x in [0,1]; min x^2; bestknown -0.216;")
        assert inst.best_known == -0.216

    def test_multiline_statement(self):
        inst = parse_instance("var x in [0,1];\nmin x^2\n + x\n + 1;")
        assert inst.objective_value([1.0]) == 3.0

    def test_missing_objective(self):
        with pytest.raises(ParseError, match="objective"):
            parse_instance("var x in [0,1];")

    def test_positioned_syntax_error(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("var x in [0,1];\nmin x ^^ 2;")
        assert exc.value.line == 2

    def test_undeclared_variable(self):
        with pytest.raises(InstanceValidationError, match="undeclared"):
            parse_instance("var x in [0,1]; min x + y;")

    def test_unknown_statement(self):
        with pytest.raises(ParseError, match="unknown statement"):
            parse_instance("var x in [0,1]; min x; maximize x;")

    def test_empty_box(self):
        with pytest.raises(ParseError, match="empty box .* of variable x$"):
            parse_instance("var x in [2, 1]; min x;")

    @pytest.mark.parametrize("box, want", [
        ("[0.5, 1.5] integer", "the box [0.5, 1.5] of integer variable n holds "
                               "only the integer 1"),
        ("[-1, -1] integer", "the box [-1, -1] of integer variable n holds "
                             "only the integer -1"),
        ("[2, 2]", "the box [2, 2] of variable n is one point"),
    ])
    def test_one_point_box_is_a_fixed_variable(self, box, want):
        """A box that holds one point is not empty: it fixes the variable,
        which the parser refuses as such."""
        text = f"var x in [0, 1];\nvar n in {box};\nmin x^2 + n;"
        with pytest.raises(ParseError) as ei:
            parse_instance(text)
        assert str(ei.value).endswith(f": {want}; fixed variables are not supported")
        assert ei.value.line == 2

    def test_nonlinear_variable_needs_finite_bounds(self):
        with pytest.raises(InstanceValidationError, match="bounds"):
            parse_instance("var x in [0, inf]; min x^2;")

    def test_linear_variable_may_be_unbounded(self):
        inst = parse_instance("var x in [0, inf]; var y in [0,1]; min x + y^2;")
        assert inst.covariates() == ("y",)

    def test_shape_of_undeclared_variable_rejected(self):
        text = "var x in [0, 2]; min exp(x) - 3*x; shape convex z;"
        with pytest.raises(InstanceValidationError, match="names z, which is not a covariate"):
            parse_instance(text)

    def test_shape_of_linear_only_variable_rejected(self):
        # y appears only linearly, so it has no fitted component to shape
        text = "var x in [0, 2]; var y in [0, 1]; min exp(x) + y; shape monotone y up;"
        with pytest.raises(InstanceValidationError, match="names y, which is not a covariate"):
            parse_instance(text)
        inst = parse_instance(text.replace("monotone y", "monotone x"))
        assert inst.shape.monotone == {"x": "increasing"}

    def test_midpoint_must_evaluate(self):
        with pytest.raises(InstanceValidationError, match="midpoint"):
            parse_instance("var x in [-2, 0]; min log(x + 1) + x^2;")

    def test_roundtrip_evaluation(self):
        text = (
            "var x1 in [0.1, 1]; var x2 in [0.1, 1];"
            "min x1*log(x1) + x2*log(x2) - 0.5*x1;"
            "st x1 + x2 = 1;"
        )
        inst = parse_instance(text)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(0.1, 1.0, size=2)
            want = x[0] * np.log(x[0]) + x[1] * np.log(x[1]) - 0.5 * x[0]
            assert inst.objective_value(x) == pytest.approx(want, rel=1e-12)


class TestCovariates:
    def test_affine_variables_excluded(self):
        inst = parse_instance(
            "var a in [0,1]; var b in [0,1]; var c in [0,1];"
            "min a + b^2 + 3*c + sin(c);"
        )
        assert inst.covariates() == ("b", "c")

    def test_split_reassembles(self):
        inst = parse_instance(
            "var a in [0,1]; var b in [0,1]; min 2*a + b^2 - 1;"
        )
        const, coeffs, nonlinear = inst.complicating_split
        assert const == -1.0
        assert coeffs == {"a": 2.0}
        env = {"a": 0.3, "b": 0.4}
        # the nonlinear (approximated) part of g_0
        assert sum(evaluate(t, env) for t in nonlinear) == pytest.approx(0.16)


def per_row_sample(instance, config, rounds=False):
    """The per-row sampler ``sample_training`` replaces: each row drawn one
    coordinate at a time and evaluated with ``evaluate``. A rejected row is
    redrawn at once (``rounds=False``), or all rejected rows are redrawn
    together after the first pass, in row order (``rounds=True``, the
    block sampler's rule)."""
    names = instance.covariates()
    boxes = covariate_domains(instance)
    _, _, nonlinear = instance.complicating_split
    n = sample_training(instance, config).n
    rng = np.random.default_rng(config.seed)
    X, y = np.empty((n, len(names))), np.empty(n)

    def draw(i):
        X[i] = [rng.uniform(lo, hi) for lo, hi in boxes]
        env = {nm: float(v) for nm, v in zip(names, X[i])}
        try:
            y[i] = sum(evaluate(t, env) for t in nonlinear)
        except (ValueError, ZeroDivisionError, OverflowError):
            return False
        return math.isfinite(y[i])

    if not rounds:
        for i in range(n):
            assert any(draw(i) for _ in range(RESAMPLE_CAP))
        return X, y
    pending = [i for i in range(n) if not draw(i)]
    for _ in range(RESAMPLE_CAP - 1):
        pending = [i for i in pending if not draw(i)]
    assert not pending
    return X, y


INSTANCES = {
    "every_function": """
        var a in [-2, 2]; var b in [0.1, 3]; var c in [-1, 1];
        min exp(a) - log(b) + sqrt(b)*sin(3*a) + cos(c)^2 + a^3 - b^-2
            + b^0.37 + b^c + (a - c)^4 + a/b;
    """,
    # exp(x)*exp(x) overflows to inf without raising, so every row is kept
    "overflowing_product": "var x in [399, 400]; min 1/(exp(x)*exp(x)) + x^2;",
}


class TestBlockSampler:
    @pytest.mark.parametrize("name", [
        "convex_shaped", "mixed_integer", "waves2", "every_function",
        "overflowing_product",
    ])
    def test_matches_per_row_reference(self, name):
        import pathlib

        import missoc

        if name in INSTANCES:
            inst = parse_instance(INSTANCES[name])
        else:
            inst = load_instance(
                pathlib.Path(missoc.__file__).parent / "instances" / f"{name}.miss"
            )
        for seed in (0, 3):
            cfg = MissocConfig(seed=seed)
            T = sample_training(inst, cfg)
            X, y = per_row_sample(inst, cfg)
            np.testing.assert_array_equal(T.X, X)
            np.testing.assert_array_equal(T.y, y)

    @pytest.mark.parametrize("objective", [
        "log(x) + y^2",             # log of a negative
        "exp(-800*x)^-1 + y^2",     # 0^-1 where exp underflows to 0
        "y/exp(-800*x)",            # division by 0, likewise
        "exp(1000*x) + y",          # overflow of exp
        "(x - y)^0.5",              # negative base, fractional exponent
    ])
    def test_rejected_rows_are_redrawn_in_rounds(self, objective):
        # built directly: parse_instance rejects some at the box midpoint
        inst = ProblemInstance(
            variables=(Variable("x", -1.0, 1.0), Variable("y", -1.0, 1.0)),
            objective=parse_expr(objective),
        )
        cfg = MissocConfig(intervals=4, samples_per_param=8)
        T = sample_training(inst, cfg)
        X, y = per_row_sample(inst, cfg, rounds=True)
        np.testing.assert_array_equal(T.X, X)
        np.testing.assert_array_equal(T.y, y)
        assert np.isfinite(T.y).all()
        # rows were rejected, so the order of redraws matters
        assert not np.array_equal(T.X, per_row_sample(inst, cfg)[0])


class TestSampleTraining:
    INST = (
        "var x1 in [-1, 2]; var x2 in [0, 1];"
        "min sin(3*x1) + x2^2;"
    )

    def test_size_rule(self):
        inst = parse_instance(self.INST)
        cfg = MissocConfig(degrees=3, intervals=10, samples_per_param=15)
        T = sample_training(inst, cfg)
        assert T.n == 15 * (1 + 13 + 13)  # 405
        assert T.p == 2

    def test_deterministic(self):
        inst = parse_instance(self.INST)
        cfg = MissocConfig(seed=42, intervals=4, samples_per_param=5)
        T1 = sample_training(inst, cfg)
        T2 = sample_training(inst, cfg)
        np.testing.assert_array_equal(T1.X, T2.X)
        np.testing.assert_array_equal(T1.y, T2.y)

    def test_responses_are_exact_evaluations(self):
        inst = parse_instance(self.INST)
        cfg = MissocConfig(intervals=4, samples_per_param=5)
        T = sample_training(inst, cfg)
        for i in range(T.n):
            want = np.sin(3 * T.X[i, 0]) + T.X[i, 1] ** 2
            assert T.y[i] == pytest.approx(want, rel=1e-12)

    def test_uniformity_moment_check(self):
        inst = parse_instance(self.INST)
        cfg = MissocConfig(degrees=3, intervals=10, samples_per_param=15)
        T = sample_training(inst, cfg)
        for j, (lo, hi) in enumerate([(-1, 2), (0, 1)]):
            mid = 0.5 * (lo + hi)
            sigma = (hi - lo) / np.sqrt(12 * T.n)
            assert abs(T.X[:, j].mean() - mid) <= 3 * sigma

    def test_sampling_failure(self):
        # log of a negative argument everywhere in the box; built directly
        # because parse_instance would reject it at the midpoint check
        from missoc.expressions import parse_expr

        inst = ProblemInstance(
            variables=(Variable("x", 1.0, 2.0),),
            objective=parse_expr("log(0 - x) + x^2"),
        )
        with pytest.raises(SamplingError):
            sample_training(inst, MissocConfig(intervals=2, samples_per_param=2))

    def test_no_nonlinear_part(self):
        inst = parse_instance("var x in [0,1]; min 2*x;")
        with pytest.raises(InstanceValidationError, match="nonlinear"):
            sample_training(inst, MissocConfig())


class TestRunMissoc:
    SMOOTH = (
        "var x in [0, 1]; var y in [0, 1];"
        "min (x - 0.3)^2 + (y - 0.6)^2 + 0.1*x;"
    )

    def small_cfg(self, **kw):
        from missoc.problems import MissocConfig

        base = dict(degrees=3, intervals=6, samples_per_param=10, seed=1)
        base.update(kw)
        return MissocConfig(**base)

    def test_end_to_end_recovers_optimum(self):
        from missoc.problems import run_missoc

        inst = parse_instance(self.SMOOTH, name="smooth")
        report = run_missoc(inst, self.small_cfg())
        assert report.status.startswith("optimal")
        # refined optimum of the original objective: x = 0.25, y = 0.6
        np.testing.assert_allclose(report.x, [0.25, 0.6], atol=1e-5)
        assert report.objective == pytest.approx(0.0275, abs=1e-8)
        assert set(report.stage_times) == {
            "sample", "fit", "surrogate", "solve", "refine"
        }
        assert report.total_time == pytest.approx(
            sum(report.stage_times.values())
        )

    def test_refine_disabled_returns_solver_point(self):
        from missoc.problems import run_missoc

        inst = parse_instance(self.SMOOTH)
        report = run_missoc(inst, self.small_cfg(refine=False))
        np.testing.assert_array_equal(report.x, report.x_tilde)
        assert "refine" not in report.stage_times
        assert report.solver.x is report.x_tilde
        assert report.nodes == report.solver.nodes >= len(report.solver.log) >= 1

    @pytest.mark.parametrize("degree", [0, 1, 3])
    def test_waves2_solves_to_optimality(self, degree):
        # a degree-0 surrogate jumps at every knot and LP points sit on knots,
        # so the incumbent's value is right only if the lift scores a knot
        # with the interval the fitted basis uses
        import importlib.resources

        from missoc.problems import run_missoc

        path = importlib.resources.files("missoc") / "instances" / "waves2.miss"
        inst = parse_instance(path.read_text(), "waves2")
        report = run_missoc(inst, MissocConfig(degrees=degree))
        assert report.status == "optimal"
        assert report.solver.gap_pct <= 1e-2

    def test_reproducible_across_reparses(self):
        from missoc.problems import run_missoc

        r1 = run_missoc(parse_instance(self.SMOOTH), self.small_cfg())
        r2 = run_missoc(parse_instance(self.SMOOTH), self.small_cfg())
        np.testing.assert_array_equal(r1.x, r2.x)
        assert r1.objective == r2.objective
        assert r1.nodes == r2.nodes

    def test_shape_spec_routes_to_constrained_fit(self):
        from missoc.problems import run_missoc

        inst = parse_instance(
            "var x in [0, 1]; min (x - 0.4)^2 + x^3;"
            "shape convex x;"
        )
        report = run_missoc(inst, self.small_cfg(intervals=5))
        assert report.status.startswith("optimal")
        # convex single-variable problem: refined point is the true optimum
        xs = np.linspace(0, 1, 200_001)
        want = ((xs - 0.4) ** 2 + xs**3).min()
        assert report.objective == pytest.approx(want, abs=1e-6)

    def test_constrained_mixed_integer(self):
        from missoc.problems import run_missoc

        inst = parse_instance(
            "var n in [0, 3] integer; var x in [0, 1];"
            "min 0.5*n + (x - 0.6)^2; st x + n >= 1.5;"
        )
        report = run_missoc(inst, self.small_cfg())
        assert report.status.startswith("optimal")
        assert report.x[0] == pytest.approx(1.0, abs=1e-9)
        assert report.objective == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("box, term, want", [
        ("[0.5, 3.5]", "(n - 0.4)^2", 0.36),
        ("[0.2, 2.6]", "0.3*(n - 0.25)^2", 0.16875),
    ])
    def test_integer_box_with_fractional_ends(self, box, term, want):
        from missoc.problems import run_missoc

        inst = parse_instance(
            f"var n in {box} integer; var x in [0, 1];"
            f"min {term} + (x - 0.5)^2;"
        )
        report = run_missoc(inst, MissocConfig())
        assert report.status == "optimal"
        assert report.x[0] == 1.0
        assert report.objective == pytest.approx(want, abs=1e-6)

    def test_infeasible_reports_no_incumbent(self):
        from missoc.problems import run_missoc

        inst = parse_instance("var x in [0, 1]; min x^2; st x - 2 >= 0;")
        report = run_missoc(inst, self.small_cfg(intervals=4))
        assert report.x is None
        assert report.status == "no_incumbent"
        assert math.isnan(report.objective)

    def test_stage_error_tags_failing_stage(self):
        from missoc.problems import StageError, run_missoc

        inst = ProblemInstance(
            variables=(Variable("x", 1.0, 2.0),),
            objective=__import__("missoc.expressions", fromlist=["parse_expr"])
            .parse_expr("log(0 - x) + x^2"),
        )
        with pytest.raises(StageError) as ei:
            run_missoc(inst, self.small_cfg())
        assert ei.value.stage == "sample"

    def test_nonlinear_constraint_rejected_before_sampling(self, monkeypatch):
        from missoc import problems
        from missoc.bnb import UnsupportedSurrogateError

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        inst = parse_instance(
            "var a in [0,1]; var b in [0,1];"
            "min a^2 + sin(3*b); st a*b - 0.1 <= 0;"
        )
        with pytest.raises(problems.StageError) as ei:
            problems.run_missoc(inst, self.small_cfg())
        assert ei.value.stage == "solve"
        assert isinstance(ei.value.cause, UnsupportedSurrogateError)

    @pytest.mark.parametrize("shape, degrees, message", [
        ("shape convex x;", 1, "convexity needs degree >= 2 on x"),
        ("shape concave x;", (1, 3), "convexity needs degree >= 2 on x"),
        ("shape monotone y up;", (3, 0), "monotonicity needs degree >= 1 on y"),
    ], ids=["convex", "concave_per_covariate", "monotone"])
    def test_shape_beyond_the_degree_rejected_before_sampling(
        self, monkeypatch, shape, degrees, message
    ):
        from missoc import problems

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        inst = parse_instance(
            f"var x in [0, 2]; var y in [0, 1]; min exp(x) - 3*x + y^2; {shape}"
        )
        with pytest.raises(problems.StageError, match=message) as ei:
            problems.run_missoc(inst, self.small_cfg(degrees=degrees))
        assert ei.value.stage == "fit"
        assert isinstance(ei.value.cause, ValueError)

    @pytest.mark.parametrize("index", [210, 5000, -1])
    def test_pointwise_index_past_the_sample_rejected_before_sampling(
        self, monkeypatch, index
    ):
        from missoc import problems

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        inst = parse_instance(
            f"var x in [0, 2]; min exp(x) - 3*x; shape convex x; point interp {index};"
        )
        # 15 * (1 + 3 + 10) rows at the defaults
        message = f"pointwise index {index} outside 0..209"
        with pytest.raises(problems.StageError, match=message) as ei:
            problems.run_missoc(inst, MissocConfig())
        assert ei.value.stage == "fit"
        assert isinstance(ei.value.cause, ValueError)

    def test_last_row_index_goes_on_to_sampling(self, monkeypatch):
        from missoc import problems

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        inst = parse_instance(
            "var x in [0, 2]; min exp(x) - 3*x; shape convex x; point interp 209;"
        )
        with pytest.raises(problems.StageError, match="was called") as ei:
            problems.run_missoc(inst, MissocConfig())
        assert ei.value.stage == "sample"
        assert problems.training_rows(MissocConfig(), 1) == 210

    @pytest.mark.parametrize("field", ["degrees", "intervals"])
    def test_shaped_sequence_of_the_wrong_length_is_the_samples_error(self, field):
        from missoc import problems

        inst = parse_instance(
            "var x in [0, 2]; min exp(x) - 3*x; shape convex x; point interp 5000;"
        )
        with pytest.raises(problems.StageError, match=field) as ei:
            problems.run_missoc(inst, self.small_cfg(**{field: (3, 3)}))
        assert ei.value.stage == "sample"

    def test_constraints_decomposed_once_per_instance(self, monkeypatch):
        from missoc import bnb, expressions, localsearch, problems, surrogate

        original = expressions.decompose_affine
        top = []  # top-level calls; the recursion goes through the spy too
        depth = [0]

        def spy(expr):
            if not depth[0]:
                top.append(expr)
            depth[0] += 1
            try:
                return original(expr)
            finally:
                depth[0] -= 1

        for module in (expressions, problems, surrogate, bnb, localsearch):
            if getattr(module, "decompose_affine", None) is original:
                monkeypatch.setattr(module, "decompose_affine", spy)
        inst = parse_instance(
            "var x in [0, 1]; var y in [0, 1]; var n in [0, 3] integer;"
            "min (x - 0.3)^2 + (y - 0.6)^2 + 0.5*n;"
            "st x + y <= 1.5; st x - y = -0.25; st n + x >= 0.5;"
        )
        for _ in range(2):
            report = problems.run_missoc(inst, self.small_cfg())
            assert report.status == "optimal"
        exprs = [c.expr for c in inst.constraints]
        assert [e for e in top if any(e is c for c in exprs)] == exprs

    def test_objective_split_once_per_instance(self, monkeypatch):
        """``complicating_split`` splits g_0 on first use only: two runs of
        one instance split it once, a second instance once more, and each
        split equals a fresh ``split_affine`` with read-only containers."""
        from missoc import expressions, problems

        original = expressions.split_affine
        split = []

        def spy(expr):
            split.append(expr)
            return original(expr)

        monkeypatch.setattr(problems, "split_affine", spy)
        texts = (
            "var x in [0, 1]; var n in [0, 3] integer;"
            "min (x - 0.3)^2 + 0.5*n + 1; st n + x >= 0.5;",
            "var a in [0, 1]; var b in [0, 1]; min 2*a + b^2 - 1;",
        )
        instances = [parse_instance(text) for text in texts]
        for inst in (instances[0], instances[0], instances[1]):
            report = problems.run_missoc(inst, self.small_cfg())
            assert report.status == "optimal"
        assert split == [inst.objective for inst in instances]
        for inst in instances:
            const, coeffs, nonlinear = inst.complicating_split
            want = original(inst.objective)
            assert (const, dict(coeffs), list(nonlinear)) == want
            with pytest.raises(TypeError):
                coeffs["x"] = 1.0
            assert isinstance(nonlinear, tuple)

    @pytest.mark.parametrize("text", [
        "var x in [-inf, inf]; var y in [0, 1]; min x + y^2;",
        "var y in [0, 1]; var x in [0, inf] integer; min y^2 - 2*x;",
        "var x in [-inf, 1]; var y in [0, 1]; min 3*x + y^2; st y - 1 <= 0;",
    ], ids=["free", "integer_up", "other_var_constrained"])
    def test_unbounded_objective_rejected_before_sampling(
        self, monkeypatch, text
    ):
        from missoc import problems

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        with pytest.raises(problems.StageError, match="variable x") as ei:
            problems.run_missoc(parse_instance(text), self.small_cfg())
        assert ei.value.stage == "solve"
        assert isinstance(ei.value.cause, InstanceValidationError)

    @pytest.mark.parametrize("text, name", [
        ("var x in [-inf, inf]; var z in [-inf, inf]; var y in [0, 1];"
         "min x + y^2; st x - z <= 0;", "x"),
        ("var x in [-inf, inf]; var w in [-inf, inf]; var y in [0, 1];"
         "min x + w + y^2; st x >= 0;", "w"),
        ("var x in [-inf, inf]; var z in [0, inf]; var y in [0, 1];"
         "min y^2 - z; st z - x = 0;", "z"),
    ], ids=["coupled", "bounded_one_free_other", "equality"])
    def test_unbounded_through_constraints_rejected_before_sampling(
        self, monkeypatch, text, name
    ):
        from missoc import problems

        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        with pytest.raises(problems.StageError, match=f"variable {name} ") as ei:
            problems.run_missoc(parse_instance(text), self.small_cfg())
        assert ei.value.stage == "solve"
        assert isinstance(ei.value.cause, InstanceValidationError)

    @pytest.mark.parametrize("text", [
        # the coefficient pushes x toward its finite bound
        "var x in [0, inf]; var y in [0, 1]; min x + y^2;",
        # a constraint may bound x
        "var x in [-inf, inf]; var y in [0, 1]; min x + y^2; st y - x <= 0;",
        # no linear term in x
        "var x in [-inf, inf]; var y in [0, 1]; min x - x + y^2;",
        # x >= z and z is bounded below
        "var x in [-inf, inf]; var z in [-1, inf]; var y in [0, 1];"
        "min x + y^2; st z - x <= 0;",
        # a chain of constraints bounds x
        "var x in [-inf, inf]; var z in [-inf, inf]; var y in [0, 1];"
        "min x + y^2; st z - x <= 0; st y - z <= 0;",
        # infeasible, not unbounded: the solver reports it
        "var x in [-inf, inf]; var y in [0, 1]; min x + y^2; st x >= 3; st x <= 2;",
    ], ids=["finite_descent_bound", "constrained", "no_linear_term",
            "bounded_by_a_bounded_variable", "chain", "infeasible"])
    def test_bounded_objective_passes_the_check(self, text):
        from missoc.problems import check_solvable

        check_solvable(parse_instance(text))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("intervals", 0),
            ("intervals", (4, 0)),
            ("degrees", -1),
            ("degrees", (3, -1)),
            ("samples_per_param", 0),
            ("gap_tol", -1.0),
            ("gap_tol", 0.0),
            ("gap_tol", float("nan")),
            ("seed", -1),
            ("node_cap", 0),
            ("time_limit", 0.0),
            ("intervals", 2.5),
            ("intervals", (4, 2.5)),
            ("degrees", float("nan")),
            ("samples_per_param", 7.5),
            ("seed", 0.5),
            ("node_cap", 10.5),
        ],
    )
    def test_bad_config_rejected_before_sampling(
        self, monkeypatch, field, value
    ):
        from missoc import problems

        sampled = []
        monkeypatch.setattr(
            problems, "sample_training", lambda *a: sampled.append(a)
        )
        inst = parse_instance(self.SMOOTH)
        with pytest.raises(ValueError, match=field):
            problems.run_missoc(inst, self.small_cfg(**{field: value}))
        assert sampled == []

    def test_csv_rows(self):
        from missoc.problems import REPORT_CSV_HEADER, run_missoc

        inst = parse_instance(self.SMOOTH, name="smooth")
        report = run_missoc(inst, self.small_cfg())
        rows = report.csv_rows()
        ncols = len(REPORT_CSV_HEADER.split(","))
        assert all(len(r.split(",")) == ncols for r in rows)
        assert rows[-1].startswith("smooth,total,")
        stages = [r.split(",")[1] for r in rows]
        assert stages == ["sample", "fit", "surrogate", "solve", "refine", "total"]
