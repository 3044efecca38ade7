import numpy as np
import pytest

from missoc import expressions
from missoc.localsearch import refine
from missoc.problems import parse_instance


class TestRefine:
    def test_linear_objective_vertex_stays(self):
        inst = parse_instance(
            "var x in [0, 1]; var y in [0, 1]; min x + y;"
        )
        res = refine(inst, [0.0, 0.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [0.0, 0.0], atol=1e-9)
        assert res.objective == pytest.approx(0.0, abs=1e-12)

    def test_recovers_convex_optimum_from_perturbation(self):
        inst = parse_instance(
            "var x in [0, 1]; var y in [0, 1];"
            "min (x - 0.3)^2 + (y - 0.7)^2;"
        )
        res = refine(inst, [0.55, 0.2])
        assert res.converged
        np.testing.assert_allclose(res.x, [0.3, 0.7], atol=1e-6)
        assert res.objective == pytest.approx(0.0, abs=1e-10)

    def test_active_constraint_optimum(self):
        # min x^2 + y^2 s.t. x + y >= 1 has optimum (0.5, 0.5)
        inst = parse_instance(
            "var x in [0, 2]; var y in [0, 2];"
            "min x^2 + y^2; st x + y >= 1;"
        )
        res = refine(inst, [1.0, 0.5])
        assert res.converged
        np.testing.assert_allclose(res.x, [0.5, 0.5], atol=1e-5)
        assert res.objective == pytest.approx(0.5, abs=1e-6)
        assert res.max_violation <= 1e-6

    def test_equality_constraint(self):
        inst = parse_instance(
            "var x in [0, 1]; var y in [0, 1];"
            "min x^2 + 2*y^2; st x + y = 1;"
        )
        res = refine(inst, [0.5, 0.5])
        assert res.converged
        # optimum at x = 2/3, y = 1/3
        np.testing.assert_allclose(res.x, [2 / 3, 1 / 3], atol=1e-5)

    def test_integer_coordinates_never_move(self):
        inst = parse_instance(
            "var n in [0, 5] integer; var x in [0, 1];"
            "min (x - 0.5)^2 + n^2 + 0.1*n*x;"
        )
        res = refine(inst, [3.0, 0.9])
        assert res.x[0] == 3.0
        assert res.converged
        # continuous part minimized with n fixed: x = 0.5 - 0.05*3
        assert res.x[1] == pytest.approx(0.35, abs=1e-6)

    def test_box_feasibility_always(self):
        inst = parse_instance(
            "var x in [0.2, 0.8]; min (x - 2)^2;"
        )
        res = refine(inst, [0.5])
        assert res.converged
        assert 0.2 - 1e-12 <= res.x[0] <= 0.8 + 1e-12
        assert res.x[0] == pytest.approx(0.8, abs=1e-8)

    def test_descent_from_random_feasible_starts(self):
        inst = parse_instance(
            "var x in [0, 6]; var y in [-2, 2];"
            "min sin(x)*cos(2*y) + 0.1*x + y^2; st x + y <= 6;"
        )
        rng = np.random.default_rng(0)
        count = 0
        for _ in range(50):
            start = np.array([rng.uniform(0, 6), rng.uniform(-2, 2)])
            if start.sum() > 6:
                continue
            res = refine(inst, start)
            assert res.objective <= inst.objective_value(start) + 1e-9
            count += 1
        assert count >= 40

    def test_infeasible_start_without_restoration(self):
        inst = parse_instance(
            "var x in [0, 1]; min x^2; st x - 2 >= 0;"
        )
        res = refine(inst, [0.5])
        assert not res.converged
        # best it can do is push x to the upper box bound
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)
        assert res.max_violation == pytest.approx(1.0, abs=1e-6)

    def test_restorable_infeasible_start(self):
        inst = parse_instance(
            "var x in [0, 2]; min (x - 0.2)^2; st x - 1 >= 0;"
        )
        res = refine(inst, [0.5])  # violates x >= 1
        assert res.converged
        assert res.x[0] == pytest.approx(1.0, abs=1e-5)

    def test_rejects_out_of_box_start(self):
        inst = parse_instance("var x in [0, 1]; min x^2;")
        with pytest.raises(ValueError, match="outside"):
            refine(inst, [1.5])

    def test_rejects_fractional_integer_start(self):
        inst = parse_instance(
            "var n in [0, 5] integer; var x in [0,1]; min n + x^2;"
        )
        with pytest.raises(ValueError, match="fractional"):
            refine(inst, [2.5, 0.5])

    def test_all_integer_instance(self):
        inst = parse_instance(
            "var n in [0, 5] integer; var m in [0, 5] integer; min n^2 + m;"
        )
        res = refine(inst, [2.0, 1.0])
        assert res.converged
        np.testing.assert_array_equal(res.x, [2.0, 1.0])
        assert res.objective == 5.0
        assert res.iterations == 0

    def test_never_worsens_feasible_start(self):
        # start exactly at a local minimum that is better than where a
        # careless merit step could drift
        inst = parse_instance(
            "var x in [0, 7]; min cos(x);"
        )
        start = [np.pi]  # global minimum of cos on the box
        res = refine(inst, start)
        assert res.objective <= inst.objective_value(start) + 1e-9

    def test_rejects_non_affine_constraint(self):
        inst = parse_instance(
            "var x in [0, 2]; min (x - 2)^2; st x^2 - 1 <= 0;"
        )
        with pytest.raises(ValueError, match="constraint 0 .*affine"):
            refine(inst, [0.5])


class TestNoInfeasibleGain:
    """The refined point satisfies the linear rows, so no objective below
    the polytope's is reported."""

    REPRO = "var x in [0, 3]; min (x - 2)^2; st x - 1 <= 0;"

    def test_constrained_optimum_start_stays(self):
        res = refine(parse_instance(self.REPRO), [1.0])
        assert res.converged
        np.testing.assert_array_equal(res.x, [1.0])
        assert res.objective == 1.0

    def test_start_just_outside_is_not_a_gain(self):
        res = refine(parse_instance(self.REPRO), [1.0 + 5e-7])
        assert res.converged
        assert res.max_violation <= 1e-9
        assert res.objective >= 1.0 - 1e-9

    def test_equality_and_inequality_rows(self):
        inst = parse_instance(
            "var x in [0, 2]; var y in [0, 2];"
            "min (x - 1.5)^2 + (y - 1.5)^2;"
            "st x + y - 2 = 0; st x - y <= 0.5;"
        )
        res = refine(inst, [0.2, 0.3])
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-12)
        assert res.objective == pytest.approx(0.5, abs=1e-12)
        assert res.max_violation <= 1e-9


def test_each_tree_compiled_once_per_refine(monkeypatch):
    # one instance of the cont_spatial kind: six coupled nonconvex
    # coordinates, started outside the constraints
    compiled = []  # holds the trees, so no id is reused
    compile_ = expressions._compile

    def spy(expr):
        compiled.append(expr)
        return compile_(expr)

    monkeypatch.setattr(expressions, "_compile", spy)
    terms = " + ".join(
        f"sin({a}*x{j}) + 0.5*(x{j} - 1)^2"
        for j, a in enumerate((4.0, 5.0, 3.5, 4.5, 5.5, 3.8))
    )
    inst = parse_instance(
        "".join(f"var x{j} in [0, 2];" for j in range(6)) + f"min {terms};"
        "st x0 + x1 <= 2.4; st x2 + x3 <= 2.0; st x4 + x5 <= 2.6;"
    )
    res = refine(inst, [1.3] * 6)
    assert res.converged and res.iterations > 10
    assert res.max_violation <= 1e-9
    ids = [id(e) for e in compiled]
    assert len(set(ids)) == len(ids)
    for tree in [inst.objective] + [c.expr for c in inst.constraints]:
        assert id(tree) in ids
