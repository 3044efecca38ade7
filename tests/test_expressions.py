import math
import operator
from dataclasses import dataclass

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
            _, g = gradient(e, env)
            h = 1e-6
            for name in ("x", "y"):
                up = dict(env)
                dn = dict(env)
                up[name] += h
                dn[name] -= h
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                assert g[name] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_power_at_zero_base(self):
        _, g = gradient(parse_expr("x^3"), {"x": 0.0})
        assert g["x"] == 0.0
        _, g = gradient(parse_expr("x^1"), {"x": 0.0})
        assert g["x"] == 1.0

    def test_constant_gradient_zero(self):
        assert gradient(parse_expr("3 + 4*2"), {"x": 1.0}, ["x"])[1] == {"x": 0.0}

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
            swept = gradient(e, env, names)[1]
            single = {n: gradient(e, env, [n])[1][n] for n in names}
            assert [v.hex() for v in swept.values()] == [
                v.hex() for v in single.values()
            ]
            assert swept["unused"] == 0.0

    @pytest.mark.parametrize("text", ["sqrt(x) + y^2", "x^0.5 + y^2"])
    def test_infinite_factor_stays_in_its_coordinate(self, text):
        _, g = gradient(parse_expr(text), {"x": 0.0, "y": 1.0})
        assert g == {"x": math.inf, "y": 2.0}


# ---------------------------------------------------------------------------
# Reference: the recursive walker and the vector forward mode (dual numbers)
# that the tape replaced, kept to check it against


_REF_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": operator.truediv}
_REF_FN = {"exp": math.exp, "log": math.log, "sqrt": math.sqrt,
           "sin": math.sin, "cos": math.cos}


def _ref_power(a, b):
    if isinstance(a, float) and a < 0 and float(b) != int(b):
        raise ValueError(f"negative base {a} with fractional exponent {b}")
    return a**b


def walk_evaluate(expr, env):
    """The recursive tree walker, with Python floats."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, BinOp):
        a = walk_evaluate(expr.left, env)
        b = walk_evaluate(expr.right, env)
        return _ref_power(a, b) if expr.op == "^" else _REF_OPS[expr.op](a, b)
    return _REF_FN[expr.fn](walk_evaluate(expr.arg, env))


@dataclass(frozen=True)
class Dual:
    """First-order dual number a + b eps; ``dot`` is a float or an array
    holding one derivative per direction."""

    val: float
    dot: float | np.ndarray

    def __add__(self, o):
        return Dual(self.val + o.val, self.dot + o.dot)

    def __sub__(self, o):
        return Dual(self.val - o.val, self.dot - o.dot)

    def __mul__(self, o):
        return Dual(self.val * o.val, self.dot * o.val + self.val * o.dot)

    def __truediv__(self, o):
        return Dual(
            self.val / o.val,
            (self.dot * o.val - self.val * o.dot) / (o.val * o.val),
        )

    def __pow__(self, o):
        c, v = o.val, self.val**o.val
        # per direction: where the exponent's dot is zero, d/dx x^c =
        # c x^(c-1); elsewhere the general rule
        fixed = np.equal(o.dot, 0.0)
        dot = 0.0
        if fixed.any():
            if self.val == 0.0:
                g = 0.0 if c > 1 else (c if c == 1 else math.inf)
            else:
                g = c * self.val ** (c - 1)
            dot = _chain(g, self.dot)
        if not fixed.all():
            general = v * (o.dot * math.log(self.val) + c * self.dot / self.val)
            dot = np.where(fixed, dot, general)
        return Dual(v, dot)


def _chain(factor, dot):
    """factor * dot, and 0 where dot is 0 even when the factor is infinite."""
    if math.isfinite(factor):
        return factor * dot
    return np.multiply(factor, dot, out=np.zeros(np.shape(dot)),
                       where=np.not_equal(dot, 0.0))


_FN_DUAL = {
    "exp": lambda d: Dual(math.exp(d.val), math.exp(d.val) * d.dot),
    "log": lambda d: Dual(math.log(d.val), d.dot / d.val),
    "sqrt": lambda d: Dual(
        math.sqrt(d.val),
        d.dot / (2.0 * math.sqrt(d.val)) if d.val > 0 else _chain(math.inf, d.dot),
    ),
    "sin": lambda d: Dual(math.sin(d.val), math.cos(d.val) * d.dot),
    "cos": lambda d: Dual(math.cos(d.val), -math.sin(d.val) * d.dot),
}


def _eval_dual(expr, env):
    if isinstance(expr, Const):
        return Dual(expr.value, 0.0)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, BinOp):
        a = _eval_dual(expr.left, env)
        b = _eval_dual(expr.right, env)
        return a**b if expr.op == "^" else _REF_OPS[expr.op](a, b)
    return _FN_DUAL[expr.fn](_eval_dual(expr.arg, env))


def forward_gradient(expr, env, names):
    """Vector forward mode: one sweep with a unit-vector dot per name."""
    unit = dict(zip(names, np.eye(len(names))))
    dual_env = {k: Dual(float(v), unit.get(k, 0.0)) for k, v in env.items()}
    with np.errstate(all="ignore"):
        dot = _eval_dual(expr, dual_env).dot
    return dict(zip(names, np.broadcast_to(dot, len(names)).tolist()))


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


# every expression the tests above evaluate at random points, with the box
# their variables are drawn from (wider than theirs, so some points raise)
RANDOM_POINT_EXPRESSIONS = [
    ("x*y + sin(x)*cos(y) - x^3/(1+y^2)", (-2.0, 2.0)),
    ("exp(-x^2) + log(1 + y^2) + sqrt(x^2 + y^2)", (-2.0, 2.0)),
    ("x1^2 - 3*x2 + exp(x1*x2)/(1 + x2^2)", (-1.5, 1.5)),
    ("-x1 + sin(x2 - 0.5) * sqrt(x1 + 2)", (-3.0, 1.5)),
    ("2^-x1 + log(x2 + 3)", (-4.0, 1.5)),
    ("x*exp(y) + sin(x*y) - y^3 + sqrt(x)/(1+y^2)", (-0.5, 2.0)),
    ("x^y + exp(x*z)/(1 + y^2) - log(z)*sqrt(x) + sin(x - y)*cos(z)"
     " + (x*y)^3 - z^-2 + z^(x - y)", (-0.5, 3.0)),
    ("exp(x) - log(y) + sqrt(y)*sin(3*x) / cos(x)^2 + x^3 - x^-2"
     " + y^0.37 + y^x - 2*x*y + (x - y)^4", (-2.0, 5.0)),
]


class TestTapeAgainstReference:
    @pytest.mark.parametrize("text, box", RANDOM_POINT_EXPRESSIONS)
    def test_evaluate_equals_recursive_walker_bit_for_bit(self, text, box):
        rng = np.random.default_rng(6)
        e = parse_expr(text)
        names = sorted(variables_of(e))
        raised = 0
        for _ in range(300):
            env = dict(zip(names, rng.uniform(*box, size=len(names)).tolist()))
            want = _outcome(walk_evaluate, e, env)
            assert _outcome(evaluate, e, env) == want
            raised += isinstance(want, type)
        assert raised < 300

    def test_gradient_within_rounding_of_forward_mode(self):
        rng = np.random.default_rng(7)
        cases = [
            ("x*exp(y) + sin(x*y) - y^3 + sqrt(x)/(1+y^2)",
             {"x": (0.2, 2.0), "y": (0.2, 2.0)}),
            ("x^y + exp(x*z)/(1 + y^2) - log(z)*sqrt(x) + sin(x - y)*cos(z)"
             " + (x*y)^3 - z^-2 + z^(x - y)",
             {"x": (0.1, 3.0), "y": (-2.0, 2.0), "z": (0.1, 2.0)}),
            ("exp(x) - log(y) + sqrt(y)*sin(3*x) / cos(x)^2 + x^3 - x^-2"
             " + y^0.37 + y^x - 2*x*y + (x - y)^4",
             {"x": (-2.0, 2.0), "y": (0.01, 5.0)}),
        ]
        points = 0
        for text, boxes in cases:
            e = parse_expr(text)
            names = sorted(boxes)
            for _ in range(700):
                env = {n: rng.uniform(*boxes[n]) for n in names}
                value, g = gradient(e, env)
                assert value == walk_evaluate(e, env)
                want = forward_gradient(e, env, names)
                for n in names:
                    assert abs(g[n] - want[n]) <= 1e-13 * max(1.0, abs(g[n]))
                points += 1
        assert points >= 2000


class TestGradientTraps:
    def test_partials_only_for_the_given_names(self):
        # d/dn needs log(x - 1), which is undefined at x = 0.5
        e = parse_expr("(x - 1)^n")
        env = {"x": 0.5, "n": 2.0}
        assert gradient(e, env, ["x"]) == (0.25, {"x": -1.0})
        with pytest.raises(ValueError):
            gradient(e, env, ["x", "n"])

    def test_zero_factor_hides_an_infinite_partial(self):
        e = parse_expr("sqrt(x)*0")
        assert gradient(e, {"x": 0.0}) == (0.0, {"x": 0.0})
        # forward mode carried inf * 0 into the product
        assert math.isnan(forward_gradient(e, {"x": 0.0}, ["x"])["x"])

    def test_infinite_adjoint_times_zero_partial_counts_nothing(self):
        e = parse_expr("sqrt(x*y)")
        env = {"x": 0.0, "y": 1.0}
        assert gradient(e, env) == (0.0, {"x": math.inf, "y": 0.0})
        assert forward_gradient(e, env, ["x", "y"]) == gradient(e, env)[1]


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

    @pytest.mark.parametrize("x, y, rejected", [
        # a negative base with an infinite or NaN exponent (int(b) raises)
        ([-2.0, -2.0, -2.0, -0.5, 2.0, 2.0, -0.0],
         [math.inf, -math.inf, math.nan, math.nan, math.inf, math.nan, math.inf],
         [True, True, True, True, False, False, False]),
        # 0.0 ^ -1
        ([0.0, -0.0, 0.0, 3.0], [-1.0, -1.0, 2.0, -1.0], [True, True, False, False]),
        # an overflowing power
        ([10.0, -10.0, 1e300, -2.0], [400.0, 401.0, 2.0, 3.0], [True, True, True, False]),
    ])
    def test_power_mask_and_values_equal_evaluate(self, x, y, rejected):
        e = parse_expr("x^y + sqrt(x^2)")
        env = {"x": np.array(x), "y": np.array(y)}
        values, bad = evaluate_block(e, env)
        want, want_bad = reference_block(e, env)
        np.testing.assert_array_equal(want_bad, rejected)
        np.testing.assert_array_equal(bad, want_bad)
        np.testing.assert_array_equal(values, want)

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
