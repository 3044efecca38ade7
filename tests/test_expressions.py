import math

import numpy as np
import pytest

from missoc.expressions import (
    BinOp,
    Call,
    Const,
    ParseError,
    Var,
    decompose_affine,
    evaluate,
    evaluate_block,
    gradient,
    parse_expr,
    split_affine,
    unparse,
    variables_of,
)


class TestParser:
    def test_number(self):
        assert parse_expr("3.5") == Const(3.5)
        assert parse_expr("1e-3") == Const(1e-3)
        assert parse_expr("2.5E+2") == Const(250.0)

    def test_variable(self):
        assert parse_expr("x1") == Var("x1")

    def test_precedence(self):
        e = parse_expr("1 + 2 * 3")
        assert evaluate(e, {}) == 7.0
        assert evaluate(parse_expr("(1 + 2) * 3"), {}) == 9.0
        assert evaluate(parse_expr("2 ^ 3 * 4"), {}) == 32.0
        assert evaluate(parse_expr("8 / 4 / 2"), {}) == 1.0
        assert evaluate(parse_expr("8 - 4 - 2"), {}) == 2.0

    def test_power_right_assoc(self):
        assert evaluate(parse_expr("2 ^ 3 ^ 2"), {}) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert evaluate(parse_expr("-2^2"), {}) == -4.0
        assert evaluate(parse_expr("2^-1"), {}) == 0.5

    def test_functions(self):
        env = {"x": 0.3}
        for name, fn in [
            ("exp", math.exp),
            ("log", math.log),
            ("sqrt", math.sqrt),
            ("sin", math.sin),
            ("cos", math.cos),
        ]:
            assert evaluate(parse_expr(f"{name}(x)"), env) == pytest.approx(
                fn(0.3), rel=1e-15
            )

    def test_comments_and_whitespace(self):
        assert evaluate(parse_expr("1 + # comment\n 2"), {}) == 3.0

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expr("tan(x)")

    def test_positioned_error(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("1 + \n  @")
        assert exc.value.line == 2
        assert exc.value.col == 3

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="[)]"):
            parse_expr("(1 + 2")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_expr("1 2")

    def test_eval_agreement_with_python(self):
        rng = np.random.default_rng(0)
        cases = [
            ("x*y + sin(x)*cos(y) - x^3/(1+y^2)",
             lambda x, y: x * y + math.sin(x) * math.cos(y)
             - x**3 / (1 + y**2)),
            ("exp(-x^2) + log(1 + y^2) + sqrt(x^2 + y^2)",
             lambda x, y: math.exp(-(x**2)) + math.log(1 + y**2)
             + math.sqrt(x**2 + y**2)),
        ]
        for text, fn in cases:
            e = parse_expr(text)
            for _ in range(50):
                x, y = rng.uniform(0.1, 2.0, size=2)
                assert evaluate(e, {"x": x, "y": y}) == pytest.approx(
                    fn(x, y), rel=1e-12
                )


class TestUnparse:
    def test_roundtrip_semantics(self):
        rng = np.random.default_rng(1)
        texts = [
            "x1^2 - 3*x2 + exp(x1*x2)/(1 + x2^2)",
            "-x1 + sin(x2 - 0.5) * sqrt(x1 + 2)",
            "2^-x1 + log(x2 + 3)",
        ]
        for text in texts:
            e1 = parse_expr(text)
            e2 = parse_expr(unparse(e1))
            for _ in range(100):
                env = {
                    "x1": rng.uniform(0.1, 1.5),
                    "x2": rng.uniform(0.1, 1.5),
                }
                v1, v2 = evaluate(e1, env), evaluate(e2, env)
                assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        e = parse_expr("x*exp(y) + sin(x*y) - y^3 + sqrt(x)/(1+y^2)")
        for _ in range(25):
            env = {"x": rng.uniform(0.2, 2.0), "y": rng.uniform(0.2, 2.0)}
            g = gradient(e, env)
            h = 1e-6
            for name in ("x", "y"):
                up = dict(env)
                dn = dict(env)
                up[name] += h
                dn[name] -= h
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                assert g[name] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_power_at_zero_base(self):
        g = gradient(parse_expr("x^3"), {"x": 0.0})
        assert g["x"] == 0.0
        g = gradient(parse_expr("x^1"), {"x": 0.0})
        assert g["x"] == 1.0

    def test_constant_gradient_zero(self):
        assert gradient(parse_expr("3 + 4*2"), {"x": 1.0}, ["x"]) == {"x": 0.0}

    def test_one_sweep_matches_per_coordinate_sweeps(self):
        rng = np.random.default_rng(5)
        e = parse_expr(
            "x^y + exp(x*z)/(1 + y^2) - log(z)*sqrt(x) + sin(x - y)*cos(z)"
            " + (x*y)^3 - z^-2 + z^(x - y)"
        )
        for _ in range(50):
            env = {"x": rng.uniform(0.1, 3.0), "y": rng.uniform(-2.0, 2.0),
                   "z": rng.uniform(0.1, 2.0), "unused": 1.0}
            names = ["x", "y", "z", "unused"]
            swept = gradient(e, env, names)
            single = {n: gradient(e, env, [n])[n] for n in names}
            assert [v.hex() for v in swept.values()] == [
                v.hex() for v in single.values()
            ]
            assert swept["unused"] == 0.0

    @pytest.mark.parametrize("text", ["sqrt(x) + y^2", "x^0.5 + y^2"])
    def test_infinite_factor_stays_in_its_coordinate(self, text):
        g = gradient(parse_expr(text), {"x": 0.0, "y": 1.0})
        assert g == {"x": math.inf, "y": 2.0}


def reference_block(expr, env):
    """``evaluate`` at each point of a block, with NaN where it raises."""
    n = len(next(iter(env.values())))
    values, bad = np.full(n, np.nan), np.zeros(n, dtype=bool)
    for i in range(n):
        try:
            values[i] = evaluate(expr, {k: float(v[i]) for k, v in env.items()})
        except (ValueError, ZeroDivisionError, OverflowError):
            bad[i] = True
    return values, bad


class TestEvaluateBlock:
    def test_matches_evaluate_bit_for_bit(self):
        rng = np.random.default_rng(3)
        e = parse_expr(
            "exp(x) - log(y) + sqrt(y)*sin(3*x) / cos(x)^2 + x^3 - x^-2"
            " + y^0.37 + y^x - 2*x*y + (x - y)^4"
        )
        env = {"x": rng.uniform(-2.0, 2.0, 2000), "y": rng.uniform(0.01, 5.0, 2000)}
        values, bad = evaluate_block(e, env)
        want, want_bad = reference_block(e, env)
        assert not want_bad.any()
        np.testing.assert_array_equal(bad, want_bad)
        np.testing.assert_array_equal(values, want)

    @pytest.mark.parametrize("text, x, rejected", [
        ("log(x) + 1", [-1.0, 0.0, 2.0], [True, True, False]),
        ("x^-1", [0.0, -0.0, 4.0], [True, True, False]),
        ("1/x", [0.0, 0.5], [True, False]),
        ("exp(x)", [1000.0, 1.0], [True, False]),
        ("x^0.5 + x^2", [-1.0, 4.0], [True, False]),
        ("x^1000", [10.0, 1.0], [True, False]),
        ("1/(exp(x)*exp(x))", [400.0, 1.0], [False, False]),
    ])
    def test_mask_marks_where_evaluate_raises(self, text, x, rejected):
        e = parse_expr(text)
        env = {"x": np.array(x)}
        values, bad = evaluate_block(e, env)
        want, want_bad = reference_block(e, env)
        np.testing.assert_array_equal(want_bad, rejected)
        np.testing.assert_array_equal(bad, want_bad)
        np.testing.assert_array_equal(values[~bad], want[~want_bad])

    def test_constant_subtree_raising_marks_every_point(self):
        values, bad = evaluate_block(
            parse_expr("x + log(0 - 1)"), {"x": np.array([1.0, 2.0])}
        )
        assert bad.all()


class TestAffine:
    def test_decompose_affine(self):
        const, coeffs = decompose_affine(parse_expr("2*x - 3*y/2 + 5"))
        assert const == 5.0
        assert coeffs == {"x": 2.0, "y": -1.5}

    def test_constant_folding(self):
        const, coeffs = decompose_affine(parse_expr("exp(1) + 2^3"))
        assert const == pytest.approx(math.e + 8)
        assert coeffs == {}

    def test_nonlinear_is_none(self):
        assert decompose_affine(parse_expr("x*y")) is None
        assert decompose_affine(parse_expr("x^2")) is None
        assert decompose_affine(parse_expr("sin(x)")) is None
        assert decompose_affine(parse_expr("1/x")) is None

    def test_power_one(self):
        const, coeffs = decompose_affine(parse_expr("x^1 + 1"))
        assert coeffs == {"x": 1.0}
        assert const == 1.0

    def test_split_affine(self):
        e = parse_expr("3*x - sin(y) + 2 - x^2 + y")
        const, coeffs, nonlinear = split_affine(e)
        assert const == 2.0
        assert coeffs == {"x": 3.0, "y": 1.0}
        assert len(nonlinear) == 2
        # the split must reassemble to the original function
        rng = np.random.default_rng(3)
        for _ in range(50):
            env = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
            whole = evaluate(e, env)
            parts = (
                const
                + sum(c * env[k] for k, c in coeffs.items())
                + sum(evaluate(t, env) for t in nonlinear)
            )
            assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_split_fully_affine(self):
        const, coeffs, nonlinear = split_affine(parse_expr("x - 2*y + 7"))
        assert nonlinear == []
        assert const == 7.0

    def test_split_fully_nonlinear(self):
        const, coeffs, nonlinear = split_affine(parse_expr("exp(x*y)"))
        assert const == 0.0
        assert coeffs == {}
        assert len(nonlinear) == 1


class TestVariablesOf:
    def test_collects_names(self):
        e = parse_expr("x1 + sin(x2) * x3^2")
        assert variables_of(e) == {"x1", "x2", "x3"}

    def test_constants_empty(self):
        assert variables_of(parse_expr("1 + 2^3")) == set()
