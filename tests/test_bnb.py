import dataclasses
import importlib.resources
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from missoc import bnb
from missoc.bnb import (
    Node,
    UnsupportedSurrogateError,
    bernstein_bounds,
    interval_cuts,
    optimality_gap,
    solve,
    write_log_csv,
)
from missoc.problems import (
    MissocConfig,
    fit_stage,
    parse_instance,
    sample_training,
)
from missoc.regression import fit_additive
from missoc.splines import PiecewisePoly
from missoc.surrogate import (
    LinearConstraint,
    SurrogateComponent,
    SurrogateMINLP,
    build_surrogate,
    eval_surrogate_at,
)

SHIPPED = ("convex_shaped", "mixed_integer", "waves2")


def surrogate_for(instance, degrees=3, intervals=8, seed=0, samples_per_param=15):
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
    fit = fit_additive(
        T, degrees=degrees, intervals=intervals, domains=domains, labels=names
    )
    return build_surrogate(fit, instance)


def component_on_grid(comp, xs):
    return np.array([comp.piece(x) for x in xs])


def brute_force_2d(surr, n=1000, extra_mask=None):
    """Grid minimum of the separable surrogate objective over the boxes."""
    (c1, c2) = surr.components
    idx = surr.var_index()
    v1 = surr.variables[idx[c1.var]]
    v2 = surr.variables[idx[c2.var]]
    xs1 = np.linspace(v1.lower, v1.upper, n)
    xs2 = np.linspace(v2.lower, v2.upper, n)
    f1 = component_on_grid(c1, xs1) + surr.linear.get(c1.var, 0.0) * xs1
    f2 = component_on_grid(c2, xs2) + surr.linear.get(c2.var, 0.0) * xs2
    total = surr.constant + f1[:, None] + f2[None, :]
    if extra_mask is not None:
        mask = extra_mask(xs1[:, None], xs2[None, :])
        total = np.where(mask, total, np.inf)
    return float(total.min())


class TestOptimalityGap:
    def test_equal_bounds(self):
        assert optimality_gap(5.0, 5.0) == 0.0

    def test_simple(self):
        assert optimality_gap(100.0, 90.0) == pytest.approx(10.0, abs=1e-12)

    def test_negative_scale(self):
        assert optimality_gap(-0.216, -0.226) == pytest.approx(
            100.0 * 0.01 / 0.216, abs=1e-12
        )

    def test_zero_ub_nonzero_lb(self):
        assert optimality_gap(0.0, -1.0) == math.inf

    def test_zero_ub_zero_lb(self):
        assert optimality_gap(0.0, 0.0) == 0.0

    def test_nonfinite_ub(self):
        with pytest.raises(ValueError):
            optimality_gap(math.inf, 0.0)


class TestBernsteinBounds:
    def test_constant(self):
        assert bernstein_bounds([2.5], 0.0, 1.0) == (2.5, 2.5)

    def test_linear_exact(self):
        lb, ub = bernstein_bounds([0.0, 1.0], 0.0, 1.0)
        assert (lb, ub) == (0.0, 1.0)

    @pytest.mark.parametrize("degree", range(8, 13))
    def test_encloses_grid_range_high_degree(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(120):
            p = rng.normal(size=degree + 1)
            lo = rng.uniform(-2, 0)
            hi = lo + rng.uniform(0.5, 2)
            xs = np.linspace(lo, hi, 20_001)
            vals = np.polynomial.polynomial.polyval(xs, p)
            lb, ub = bernstein_bounds(p, lo, hi)
            tol = 1e-9 * max(1.0, np.abs(vals).max())
            assert lb <= vals.min() + tol
            assert ub >= vals.max() - tol

    def test_encloses_grid_range(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(size=5)
            lo = rng.uniform(-2, 0)
            hi = lo + rng.uniform(0.5, 2)
            xs = np.linspace(lo, hi, 100_000)
            vals = np.polynomial.polynomial.polyval(xs, p)
            lb, ub = bernstein_bounds(p, lo, hi)
            assert lb <= vals.min() + 1e-9
            assert ub >= vals.max() - 1e-9

    def test_subdivision_never_loosens(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=6)
            lb, ub = bernstein_bounds(p, 0.0, 1.0)
            l1, u1 = bernstein_bounds(p, 0.0, 0.5)
            l2, u2 = bernstein_bounds(p, 0.5, 1.0)
            assert min(l1, l2) >= lb - 1e-12
            assert max(u1, u2) <= ub + 1e-12

    def test_subdivision_excess_shrinks_fast(self):
        rng = np.random.default_rng(2)

        def excess(p, level):
            edges = np.linspace(0.0, 1.0, 2**level + 1)
            lo_all, hi_all = math.inf, -math.inf
            for a, b in zip(edges[:-1], edges[1:]):
                lb, ub = bernstein_bounds(p, a, b)
                lo_all = min(lo_all, lb)
                hi_all = max(hi_all, ub)
            xs = np.linspace(0, 1, 50_000)
            vals = np.polynomial.polynomial.polyval(xs, p)
            return (hi_all - lo_all) - (vals.max() - vals.min())

        checked = 0
        for _ in range(10):
            p = rng.normal(size=6)
            e4, e6 = excess(p, 4), excess(p, 6)
            if e4 > 1e-10:
                # quadratic shrink: per-halving ratio well below linear (0.5)
                assert math.sqrt(e6 / e4) <= 0.3
                checked += 1
        assert checked >= 3


class TestIntervalCuts:
    def grid_check(self, phi, lo, hi):
        xs = np.linspace(lo, hi, 2000)
        vals = np.polynomial.polynomial.polyval(xs, phi)
        cuts, _ = interval_cuts(np.asarray(phi, float), lo, hi)
        for a, b in cuts:
            assert np.all(a * xs + b <= vals + 1e-9)

    def test_validity_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            phi = rng.normal(size=4)
            phi[0] = 0.0
            lo = rng.uniform(0, 0.2)
            hi = lo + rng.uniform(0.2, 1.0)
            self.grid_check(phi, lo, hi)

    def test_convex_tangents_touch(self):
        phi = np.array([0.0, -1.0, 2.0])  # convex: 2x^2 - x
        cuts, convex = interval_cuts(phi, 0.0, 1.0)
        assert convex
        xs = np.linspace(0, 1, 2001)
        vals = np.polynomial.polynomial.polyval(xs, phi)
        envelope = np.max(
            [a * xs + b for a, b in cuts], axis=0
        )
        assert np.all(envelope <= vals + 1e-12)
        # tangents touch the function at their construction points
        assert envelope.max() >= vals.max() - 0.2

    def test_concave_secant_exact_at_endpoints(self):
        phi = np.array([0.0, 1.0, -1.0])  # concave
        cuts, convex = interval_cuts(phi, 0.0, 1.0)
        assert not convex
        (a, b), _ = cuts
        assert a * 0 + b == pytest.approx(0.0, abs=1e-12)
        assert a * 1 + b == pytest.approx(0.0, abs=1e-12)

    def test_mixed_curvature_valid(self):
        phi = np.array([0.0, 0.0, -3.0, 2.0])  # inflection inside [0, 1]
        self.grid_check(phi, 0.0, 1.0)

    @staticmethod
    def convex_reference(phi, lo, hi):
        """The convexity test the node LP builder ran on its own before
        ``interval_cuts`` reported it: a Bernstein enclosure of phi''."""
        if hi - lo <= 1e-14:
            return False
        second = np.polynomial.polynomial.polyder(phi, 2)
        curv_lo, _ = bernstein_bounds(second, lo, hi)
        return curv_lo >= -1e-12 * max(1.0, np.abs(phi).max())

    def test_convex_flag_matches_reference(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(400):
            phi = rng.normal(size=4) * rng.choice([1e-3, 1.0, 50.0])
            phi[0] = 0.0
            lo = rng.uniform(-1.0, 1.0)
            hi = lo + rng.choice([0.0, 1e-15, rng.uniform(1e-6, 2.0)])
            _, convex = interval_cuts(phi, lo, hi)
            assert convex == self.convex_reference(phi, lo, hi)
            seen.add(convex)
        assert seen == {False, True}

    def test_cut_cache_convex_flag_matches_reference(self):
        surr = random_surrogate(5)
        builder = bnb._LPBuilder(surr, 1e-4)
        rng = np.random.default_rng(12)
        for j, comp in enumerate(surr.components):
            for q in range(comp.k):
                phi = builder.deviation_poly(j, q)
                for _ in range(5):
                    lo, hi = np.sort(rng.uniform(0.0, comp.widths[q], 2))
                    _, convex = builder.cuts(j, q, lo, hi)
                    assert convex == self.convex_reference(phi, lo, hi)


CONVEX_2D = (
    "var x1 in [-1, 1]; var x2 in [-1, 1];"
    "min x1^2 + x2^2; st x1 + x2 >= 0.5;"
)

NONCONVEX_2D = (
    "var a in [0, 1]; var b in [-1, 2];"
    "min sin(5*a) + b^2 - 0.3*b; st a + b <= 1.5;"
)


WAVY_2D = (  # the boxes of CONVEX_2D
    "var x1 in [-1, 1]; var x2 in [-1, 1];"
    "min sin(4*x1) + 0.5*x2^2 - x2; st x1 + x2 >= 0.5;"
)


class TestSolve:
    def test_convex_instance_fast_and_tight(self):
        surr = surrogate_for(parse_instance(CONVEX_2D), intervals=6)
        report = solve(surr, gap_tol=1e-4)
        assert report.status == "optimal"
        want = brute_force_2d(
            surr, extra_mask=lambda x1, x2: x1 + x2 >= 0.5
        )
        assert report.objective == pytest.approx(want, abs=1e-3)
        # true optimum of the original objective is 0.125 at (0.25, 0.25)
        assert report.objective == pytest.approx(0.125, abs=5e-2)

    def test_piecewise_linear_root_exact(self):
        inst = parse_instance("var x in [0, 6.5]; min sin(x);")
        surr = surrogate_for(inst, degrees=1, intervals=10)
        report = solve(surr, gap_tol=1e-6)
        assert report.status == "optimal"
        assert report.nodes == 1
        xs = np.linspace(0, 6.5, 4001)
        want = min(surr.components[0].piece(x) + 0 for x in xs) + surr.constant
        assert report.objective == pytest.approx(want, abs=1e-6)

    def test_nonconvex_matches_brute_force(self):
        surr = surrogate_for(parse_instance(NONCONVEX_2D), intervals=8)
        report = solve(surr, gap_tol=1e-4)
        assert report.status == "optimal"
        want = brute_force_2d(
            surr, extra_mask=lambda a, b: a + b <= 1.5
        )
        assert report.objective <= want + 1e-9  # grid is a subset of the box
        assert report.objective >= want - 1e-3
        assert report.lower_bound <= want + 1e-9
        assert report.gap_pct <= 1e-4 * 100 + 1e-9

    def test_deterministic(self):
        inst = parse_instance(NONCONVEX_2D)
        r1 = solve(surrogate_for(inst), gap_tol=1e-4)
        r2 = solve(surrogate_for(inst), gap_tol=1e-4)
        assert r1.objective == r2.objective
        assert r1.nodes == r2.nodes
        np.testing.assert_array_equal(r1.x, r2.x)

    def test_gap_consistency(self):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        report = solve(surr, gap_tol=1e-4)
        assert report.gap_pct == pytest.approx(
            optimality_gap(report.objective, report.lower_bound), abs=1e-12
        )

    def test_integer_variable(self):
        inst = parse_instance(
            "var n in [0, 3] integer; var x in [0, 1];"
            "min 0.5*n + (x - 0.6)^2; st x + n >= 1.5;"
        )
        surr = surrogate_for(inst, intervals=6)
        report = solve(surr, gap_tol=1e-5)
        assert report.status == "optimal"
        n_idx = surr.var_index()["n"]
        assert report.x[n_idx] == pytest.approx(1.0, abs=1e-9)
        assert report.objective == pytest.approx(0.5, abs=1e-3)

    def test_infeasible_no_incumbent(self):
        inst = parse_instance(
            "var x in [0, 1]; min x^2; st x - 2 >= 0;"
        )
        surr = surrogate_for(inst, intervals=4)
        report = solve(surr)
        assert report.x is None
        assert report.status == "no_incumbent"

    def test_node_cap(self):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        report = solve(surr, node_cap=1, gap_tol=1e-12)
        assert report.status in ("node_cap", "optimal")
        if report.status == "node_cap":
            assert report.nodes == 1

    def test_rejects_nonlinear_constraints(self):
        inst = parse_instance(
            "var a in [0,1]; var b in [0,1];"
            "min a^2 + b^2; st a*b - 0.1 <= 0;"
        )
        surr = surrogate_for(inst, intervals=4)
        with pytest.raises(UnsupportedSurrogateError):
            solve(surr)

    def test_status_uses_the_node_closing_measure(self):
        # |ub| < 1: the relative gap of the final bounds exceeds gap_tol
        # while ub - lb is within gap_tol, the measure nodes are closed by
        inst = parse_instance(
            "var x in [0,1]; var y in [0,1];"
            "min (x-0.45)^2 + (y-0.3)^2 + 0.001; st x + y >= 0.9;"
        )
        surr = surrogate_for(inst, degrees=2, intervals=5)
        report = solve(surr, gap_tol=1e-4)
        assert report.status == "optimal"
        assert report.objective - report.lower_bound <= 1e-4 * max(
            1.0, abs(report.objective)
        )
        assert report.gap_pct == pytest.approx(
            optimality_gap(report.objective, report.lower_bound), abs=1e-12
        )

    def test_incumbent_scored_with_the_lp_interval_at_a_knot(self):
        # degree 0: the LP reaches x = 0.5 in the left interval (value 1);
        # the knot rule puts 0.5 in the right one (value 2)
        (var,) = parse_instance("var x in [0, 1]; min x;").variables
        piece = PiecewisePoly(
            np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
            np.array([[3.0], [1.0], [2.0], [2.5]]),
        )
        surr = SurrogateMINLP(
            constant=0.0,
            linear={},
            components=(SurrogateComponent("x", piece),),
            variables=(var,),
            linear_constraints=(LinearConstraint({"x": -1.0}, 0.5, "<="),),
        )
        assert eval_surrogate_at(surr, [0.5])[0] == 2.0
        report = solve(surr, gap_tol=1e-6)
        assert report.status == "optimal"
        assert report.objective == 1.0
        assert report.x[0] == 0.5
        assert report.lower_bound == pytest.approx(1.0, abs=1e-9)

    def test_reports_lp_work(self, monkeypatch):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        counted = []
        lp_solve = bnb._NodeLP.solve

        def spy(model):
            counted.append(1)
            return lp_solve(model)

        monkeypatch.setattr(bnb._NodeLP, "solve", spy)
        report = solve(surr, gap_tol=1e-4)
        assert report.lp_solves == len(counted)
        assert report.nodes <= report.lp_solves <= bnb.KELLEY_CAP * report.nodes
        assert 0 <= report.kelley_cap_hits <= report.nodes

    def test_reports_simplex_iterations(self, monkeypatch):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        seen = []
        lp_solve = bnb._NodeLP.solve

        def spy(model):
            out = lp_solve(model)
            seen.append(model.model.getInfo().simplex_iteration_count)
            return out

        monkeypatch.setattr(bnb._NodeLP, "solve", spy)
        report = solve(surr, gap_tol=1e-4)
        assert len(seen) == report.lp_solves
        assert report.simplex_iterations == sum(seen) > 0

    def test_log_collection(self, tmp_path):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        report = solve(surr, collect_log=True)
        assert len(report.log) >= 1
        nodes = [row[0] for row in report.log]
        assert nodes == sorted(nodes)
        path = tmp_path / "log.csv"
        write_log_csv(report, path)
        text = path.read_text()
        assert text.startswith("node,depth,lb,ub,gap_pct")


def shipped_surrogate(name):
    root = importlib.resources.files("missoc") / "instances"
    inst = parse_instance((root / f"{name}.miss").read_text(), name=name)
    cfg = MissocConfig()
    return build_surrogate(
        fit_stage(inst, sample_training(inst, cfg), cfg), inst
    )


def dense_rows(builder, node):
    """The node LP's (A_eq, b_eq, A_ub, b_ub) as the dense per-row
    assembly built them, with uncached ``interval_cuts``; the reference for
    the sparse assembly."""
    surr = builder.surr
    A_eq, b_eq, A_ub, b_ub = [], [], [], []

    def new_row():
        return np.zeros(builder.ncols)

    for j, comp in enumerate(surr.components):
        row = new_row()
        for q in range(comp.k):
            row[builder.col_y[j, q]] = 1.0
        A_eq.append(row)
        b_eq.append(1.0)
        row = new_row()
        row[builder.col_x[comp.var]] = 1.0
        for q in range(comp.k):
            row[builder.col_y[j, q]] = -comp.breakpoints[q]
            row[builder.col_dev[j, q]] = -1.0
        A_eq.append(row)
        b_eq.append(0.0)
        row = new_row()
        row[builder.col_sigma[j]] = 1.0
        for q in range(comp.k):
            row[builder.col_sp[j, q]] = -1.0
        A_eq.append(row)
        b_eq.append(0.0)
        for q in range(comp.k):
            row = new_row()
            row[builder.col_dev[j, q]] = 1.0
            row[builder.col_y[j, q]] = -comp.widths[q]
            A_ub.append(row)
            b_ub.append(0.0)
    for con in surr.linear_constraints:
        row = new_row()
        for name, coeff in con.coeffs.items():
            row[builder.col_x[name]] = coeff
        (A_eq if con.relation == "=" else A_ub).append(row)
        (b_eq if con.relation == "=" else b_ub).append(-con.constant)
    for j, comp in enumerate(surr.components):
        for q in range(comp.k):
            yfix = node.y_fixed.get((j, q))
            lo, hi = node.dev_bounds.get((j, q), (0.0, comp.widths[q]))
            if yfix == 0:
                lo, hi = 0.0, 0.0
            phi = comp.piece.coeffs[q].copy()
            c0 = phi[0]
            phi[0] = 0.0
            for a, b in interval_cuts(phi, lo, hi)[0]:
                row = new_row()
                row[builder.col_sp[j, q]] = -1.0
                row[builder.col_y[j, q]] = c0 + b
                row[builder.col_dev[j, q]] = a
                A_ub.append(row)
                b_ub.append(0.0)
    return np.array(A_eq), np.array(b_eq), np.array(A_ub), np.array(b_ub)


def branched_node(surr):
    """A node below the root: per component the first interval is fixed
    off and the second's deviation range is cut to its middle half."""
    y_fixed, dev_bounds = {}, {}
    for j, comp in enumerate(surr.components):
        y_fixed[j, 0] = 0
        w = comp.widths[1]
        dev_bounds[j, 1] = (0.25 * w, 0.75 * w)
    return Node(2, -math.inf, y_fixed, dev_bounds, {})


def model_rows(model):
    """The constraint matrix and row bounds a node's HiGHS model holds (HiGHS
    keeps the rows it is passed column-wise)."""
    lp = model.model.getLp()
    a = lp.a_matrix_
    assert a.format_ == bnb.highs.MatrixFormat.kColwise
    matrix = scipy.sparse.csc_array(
        (np.array(a.value_), np.array(a.index_), np.array(a.start_)),
        shape=(lp.num_row_, lp.num_col_),
    )
    return matrix, np.array(lp.row_lower_), np.array(lp.row_upper_)


class TestNodeLP:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_sparse_rows_equal_dense_rows(self, name):
        surr = shipped_surrogate(name)
        builder = bnb._LPBuilder(surr, 1e-4)
        for node in (Node(0, -math.inf, {}, {}, {}), branched_node(surr)):
            A_eq, b_eq, A_ub, b_ub = dense_rows(builder, node)
            lower, upper, rows, _, _, _ = bnb._node_lp(builder, node)
            matrix, row_lower, row_upper = model_rows(
                bnb._NodeLP(builder, lower, upper, rows)
            )
            np.testing.assert_array_equal(
                matrix.toarray(), np.vstack([A_eq, A_ub])
            )
            np.testing.assert_array_equal(
                row_lower, np.concatenate([b_eq, np.full(len(b_ub), -np.inf)])
            )
            np.testing.assert_array_equal(
                row_upper, np.concatenate([b_eq, b_ub])
            )
            # no explicit zeros: HiGHS gets the matrix the dense rows give
            assert np.all(matrix.data != 0.0)

    def test_interval_cuts_cache_is_per_builder(self):
        # same boxes and knots, so both builders look up the same keys
        wavy = surrogate_for(parse_instance(WAVY_2D), intervals=8)
        convex = surrogate_for(parse_instance(CONVEX_2D), intervals=8)
        for surr in (wavy, convex, wavy):
            builder = bnb._LPBuilder(surr, 1e-4)
            for j, comp in enumerate(surr.components):
                for q in range(comp.k):
                    phi = comp.piece.coeffs[q].copy()
                    phi[0] = 0.0
                    w = comp.widths[q]
                    assert builder.cuts(j, q, 0.0, w) == interval_cuts(phi, 0.0, w)

    def test_two_surrogates_in_one_process_match_each_alone(self):
        def summary(report):
            return [list(map(float, report.x)), report.objective,
                    report.lower_bound, report.nodes, report.status]

        both = [
            summary(solve(surrogate_for(parse_instance(text), intervals=8)))
            for text in (WAVY_2D, CONVEX_2D)
        ]
        # each alone in a fresh interpreter, where no earlier solve ran
        src = pathlib.Path(bnb.__file__).resolve().parents[1]
        here = pathlib.Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
        for text_name, want in zip(("WAVY_2D", "CONVEX_2D"), both):
            script = (
                "import json, test_bnb as t\n"
                f"s = t.surrogate_for(t.parse_instance(t.{text_name}), "
                "intervals=8)\n"
                "r = t.solve(s)\n"
                "print(json.dumps([list(map(float, r.x)), r.objective, "
                "r.lower_bound, r.nodes, r.status]))\n"
            )
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout
            assert json.loads(out) == want


def random_surrogate(seed, k=4):
    """Two covariates on [0, 1] with k intervals each, every other interval
    convex (a random cubic with nonnegative curvature and its minimum
    inside) and the rest random cubics, coupled by x1 + x2 >= 0.8."""
    rng = np.random.default_rng(seed)
    variables = parse_instance(
        "var x1 in [0, 1]; var x2 in [0, 1]; min x1 + x2;"
    ).variables
    bp = np.linspace(0.0, 1.0, k + 1)
    w = bp[1] - bp[0]
    components = []
    for var in ("x1", "x2"):
        coeffs = np.empty((k, 4))
        for q in range(k):
            if q % 2 == 0:
                c2 = rng.uniform(0.5, 4.0)
                # phi'' = 2 c2 + 6 c3 d >= 0 on [0, w]
                c3 = rng.uniform(-0.9 * c2 / (3.0 * w), 8.0)
                # the minimum inside the interval: phi'(0) < 0 < phi'(w)
                c1 = -rng.uniform(0.2, 0.8) * (2 * c2 * w + 3 * c3 * w**2)
                c0 = 0.1 * rng.normal()
            else:
                c1, c2, c3 = 4.0 * rng.normal(size=3)
                c0 = rng.uniform(0.0, 0.5)
            coeffs[q] = (c0, c1, c2, c3)
        components.append(SurrogateComponent(var, PiecewisePoly(bp, coeffs)))
    return SurrogateMINLP(
        constant=0.0,
        linear={},
        components=tuple(components),
        variables=tuple(variables),
        linear_constraints=(
            LinearConstraint({"x1": -1.0, "x2": -1.0}, 0.8, "<="),
        ),
    )


def tree_nodes(builder, count):
    """The first ``count`` nodes of a breadth-first walk of the tree, each
    with the tangents it inherits, as (node, relax_node result)."""
    queue = [Node(0, -math.inf, {}, {}, {})]
    out = []
    while queue and len(out) < count:
        node = queue.pop(0)
        result = bnb.relax_node(builder, node)
        out.append((node, result))
        if result[0] != "optimal":
            continue
        for child in bnb._branch(builder, node, result[2]) or ():
            queue.append(dataclasses.replace(child, tangents=result[3]))
    return out


def node_grid_min(surr, node, n=201):
    """Grid minimum of the surrogate over the node's feasible set."""
    axes = []
    for j, comp in enumerate(surr.components):
        xs, fs = [], []
        lo_x, hi_x = node.var_bounds.get(comp.var, (0.0, 1.0))
        for q in range(comp.k):
            if node.y_fixed.get((j, q)) == 0:
                continue
            lo, hi = node.dev_bounds.get((j, q), (0.0, comp.widths[q]))
            dev = np.linspace(lo, hi, n)
            x = comp.breakpoints[q] + dev
            keep = (x >= lo_x) & (x <= hi_x)
            xs.append(x[keep])
            fs.append(np.polynomial.polynomial.polyval(
                dev[keep], comp.piece.coeffs[q]
            ))
        axes.append((np.concatenate(xs), np.concatenate(fs)))
    (x1, f1), (x2, f2) = axes
    total = f1[:, None] + f2[None, :]
    total = np.where(x1[:, None] + x2[None, :] >= 0.8, total, np.inf)
    return float(total.min())


class TestTangentPool:
    # some seeds give a root LP that is already exact (no tree, no pool)
    SEEDS = range(10)

    def test_pool_underestimates_phi_on_each_child_range(self):
        checked = 0
        for seed in self.SEEDS:
            checked += self.check_pool_underestimates(seed)
        assert checked >= 500

    def check_pool_underestimates(self, seed):
        surr = random_surrogate(seed)
        builder = bnb._LPBuilder(surr, 1e-4)
        checked = 0
        for node, (status, _, _, pool, _) in tree_nodes(builder, 25):
            if status != "optimal":
                continue
            # the node's own tangents too: they are its children's pool
            for j, q, a, b in pool:
                assert node.y_fixed.get((j, q)) != 0
                lo, hi = node.dev_bounds.get(
                    (j, q), (0.0, surr.components[j].widths[q])
                )
                dev = np.linspace(lo, hi, 2001)
                phi = builder.deviation_poly(j, q)
                vals = np.polynomial.polynomial.polyval(dev, phi)
                tol = 1e-9 * max(1.0, np.abs(vals).max())
                assert np.all(a * dev + b <= vals + tol)
                checked += 1
        return checked

    def test_pool_bound_between_plain_bound_and_node_minimum(
        self, monkeypatch
    ):
        inherited = 0
        for seed in self.SEEDS:
            inherited += self.check_pool_bound(seed, monkeypatch)
        assert inherited >= 50

    def check_pool_bound(self, seed, monkeypatch):
        surr = random_surrogate(seed)
        builder = bnb._LPBuilder(surr, 1e-4)
        nodes = tree_nodes(builder, 25)
        values = []
        lp_solve = bnb._NodeLP.solve

        def spy(model):
            out = lp_solve(model)
            values.append(out[1])
            return out

        monkeypatch.setattr(bnb._NodeLP, "solve", spy)
        inherited = 0
        for node, (status, bound, _, _, _) in nodes:
            values.clear()
            pooled = bnb.relax_node(builder, node)
            first_pooled = values[0]
            values.clear()
            plain = bnb.relax_node(
                builder, dataclasses.replace(node, tangents=())
            )
            assert (pooled[0], pooled[1]) == (status, bound)
            assert plain[0] == status
            if status != "optimal":
                continue
            inherited += bool(node.tangents)
            scale = max(1.0, abs(bound))
            # the pool's rows only add to the plain first LP, and Kelley
            # rounds only add rows (to HiGHS's 1e-7 feasibility tolerance);
            # an early-stopped plain loop may still end above the pooled
            # one, because their tangent points differ
            assert first_pooled >= values[0] - 1e-7 * scale
            assert bound >= first_pooled - 1e-7 * scale
            assert bound <= node_grid_min(surr, node) + 1e-9 * scale
        monkeypatch.undo()
        return inherited


def csr_rows(arrays, ncols):
    """Rows given as ``_Rows.arrays`` (lower, upper, starts, index, value):
    a CSR matrix and the row bounds."""
    lower, upper, starts, index, value = arrays
    matrix = scipy.sparse.csr_array(
        (value, index, starts), shape=(len(upper), ncols)
    )
    return matrix, lower, upper


def linprog_reference(builder, lower, upper, rows):
    """The node LP with cut rows ``rows`` (as ``_Rows.arrays``) solved from
    scratch by ``scipy.optimize.linprog``, the reference for the HiGHS
    model: (status, value without the surrogate constant)."""
    fixed, f_lower, f_upper = csr_rows(builder.fixed, builder.ncols)
    cuts, c_lower, c_upper = csr_rows(rows, builder.ncols)
    eq = np.flatnonzero(f_lower == f_upper)
    ub = np.flatnonzero(f_lower != f_upper)
    # every row is an equation or bounded above only
    assert np.isneginf(f_lower[ub]).all() and np.isneginf(c_lower).all()
    res = scipy.optimize.linprog(
        builder.obj,
        A_ub=scipy.sparse.vstack([fixed[ub], cuts]),
        b_ub=np.concatenate([f_upper[ub], c_upper]),
        A_eq=fixed[eq],
        b_eq=f_upper[eq],
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    assert res.status in (0, 2), res.message
    if res.status == 2:
        return "infeasible", math.inf
    return "optimal", res.fun


FREE_LINEAR = "var x in [-inf, inf]; var y in [0, 1]; min x + y^2;"

# trees of some tens of nodes: integer branching coupled through a knapsack
# row, and deviation-range branching on wavy pieces
INT_COUPLED = (
    "var x0 in [0, 2]; var n0 in [0, 6] integer;"
    "var x1 in [0, 2]; var n1 in [0, 6] integer;"
    "var x2 in [0, 2]; var n2 in [0, 6] integer;"
    "min 1.015*(x0 - 0.5087)^2 + 0.3*(n0 - 3.313)^2"
    " + 0.8285*(x1 - 0.7904)^2 + 0.3*(n1 - 2.577)^2"
    " + 1.237*(x2 - 0.3019)^2 + 0.3*(n2 - 4.236)^2;"
    "st -x0 - 0.5*n0 <= -2.249; st -x1 - 0.5*n1 <= -1.969;"
    "st -x2 - 0.5*n2 <= -2.333; st 2*n0 + 3*n1 + 4*n2 <= 17;"
)
SPATIAL_4D = (
    "var x0 in [0, 2]; var x1 in [0, 2]; var x2 in [0, 2]; var x3 in [0, 2];"
    "min sin(4.095*x0) + 0.536*(x0 - 1)^2 + sin(4.946*x1)"
    " + 0.4817*(x1 - 1)^2 + sin(3.458*x2) + 0.5188*(x2 - 1)^2"
    " + sin(4.451*x3) + 0.5223*(x3 - 1)^2;"
    "st x0 + x1 <= 2.416; st x2 + x3 <= 1.966;"
)


def coupled_surrogates():
    return [
        surrogate_for(parse_instance(INT_COUPLED), intervals=8),
        surrogate_for(parse_instance(SPATIAL_4D), intervals=20),
    ]


class TestNodeLPSolve:
    def record(self, monkeypatch, run):
        """Each LP the node models solve while ``run()`` runs, with the
        model's answer and whether it is the model's first solve started
        from a parent's basis: (builder, lower, upper, cut rows as
        ``_Rows.arrays``, status, value, warm)."""
        lps = []
        lp_solve = bnb._NodeLP.solve

        def spy(model):
            first = not hasattr(model, "solved")
            warm = first and model.model.getBasis().valid
            model.solved = True
            lp = (model.builder, model.lower.copy(), model.upper.copy(),
                  model.rows.arrays())
            out = lp_solve(model)
            lps.append(lp + out[:2] + (warm,))
            return out

        monkeypatch.setattr(bnb._NodeLP, "solve", spy)
        run()
        monkeypatch.undo()
        return lps

    def test_highs_model_matches_linprog_round_by_round(self, monkeypatch):
        def shipped():
            for name in SHIPPED:
                surr = shipped_surrogate(name)
                solve(surr)
                bnb.relax_node(bnb._LPBuilder(surr, 1e-4), branched_node(surr))

        def random_trees():
            for seed in range(3):
                surr = random_surrogate(seed)
                solve(surr)
                builder = bnb._LPBuilder(surr, 1e-4)
                tree_nodes(builder, 25)
                # x1 + x2 >= 0.8 cannot hold on these nodes
                low = bnb._choose_interval(surr, {}, 0, 0)
                low = bnb._choose_interval(surr, low, 1, 0)
                for node in (
                    Node(1, -math.inf, low, {}, {}),
                    Node(1, -math.inf, {}, {}, {"x1": (0.0, 0.3),
                                                "x2": (0.0, 0.4)}),
                ):
                    bnb.relax_node(builder, node)

        def coupled_trees():
            for surr in coupled_surrogates():
                solve(surr)

        statuses = []
        kelley_rounds = 0
        warm_firsts = 0
        for run in (shipped, random_trees, coupled_trees):
            lps = self.record(monkeypatch, run)
            for builder, lower, upper, rows, status, value, warm in lps:
                warm_firsts += warm
                want_status, want = linprog_reference(
                    builder, lower, upper, rows
                )
                assert status == want_status
                if status == "optimal":
                    assert abs(value - want) <= 1e-7 * max(1.0, abs(want))
                statuses.append(status)
            kelley_rounds += sum(
                a[0] is b[0] and len(a[3][1]) < len(b[3][1])
                for a, b in zip(lps, lps[1:])
            )
        # roots, branched nodes, Kelley re-solves and pruned nodes
        assert statuses.count("infeasible") >= 6
        assert kelley_rounds >= 50
        # first LPs of full-tree nodes, started from their parent's basis
        assert warm_firsts >= 20

    @staticmethod
    def stub_model_status(monkeypatch, name):
        """Make every HiGHS model report the model status ``name``."""
        status = getattr(bnb.highs.HighsModelStatus, name)

        class Stub(bnb.highs._Highs):
            def getModelStatus(self):
                return status

        monkeypatch.setattr(bnb.highs, "_Highs", Stub)

    @pytest.mark.parametrize("model_status", [
        "kIterationLimit", "kTimeLimit", "kUnbounded", "kSolveError",
    ])
    def test_unsettled_lp_raises(self, monkeypatch, model_status):
        self.stub_model_status(monkeypatch, model_status)
        builder = bnb._LPBuilder(random_surrogate(0), 1e-4)
        with pytest.raises(bnb.LPError, match=model_status):
            bnb.relax_node(builder, Node(0, -math.inf, {}, {}, {}))

    @pytest.mark.parametrize("model_status", [
        "kInfeasible", "kUnboundedOrInfeasible",
    ])
    def test_infeasible_lp_prunes(self, monkeypatch, model_status):
        self.stub_model_status(monkeypatch, model_status)
        builder = bnb._LPBuilder(random_surrogate(0), 1e-4)
        status, value, z, _, _ = bnb.relax_node(
            builder, Node(0, -math.inf, {}, {}, {})
        )
        assert (status, value, z) == ("infeasible", math.inf, None)

    def test_unbounded_or_infeasible_with_a_free_column_raises(
        self, monkeypatch
    ):
        self.stub_model_status(monkeypatch, "kUnboundedOrInfeasible")
        surr = surrogate_for(parse_instance(FREE_LINEAR), intervals=4)
        builder = bnb._LPBuilder(surr, 1e-4)
        with pytest.raises(bnb.LPError, match="kUnboundedOrInfeasible"):
            bnb.relax_node(builder, Node(0, -math.inf, {}, {}, {}))

    def test_set_basis_error_raises(self, monkeypatch):
        class Stub(bnb.highs._Highs):
            def setBasis(self, basis):
                return bnb.highs.HighsStatus.kError

        monkeypatch.setattr(bnb.highs, "_Highs", Stub)
        # the root of this tree branches, so a child starts from its basis
        with pytest.raises(bnb.LPError, match="setBasis"):
            solve(coupled_surrogates()[0])

    # one case, under the id it has always had
    @pytest.mark.parametrize("highs", [True])
    def test_unbounded_lp_raises(self, highs):
        surr = surrogate_for(parse_instance(FREE_LINEAR), intervals=4)
        with pytest.raises(bnb.LPError, match="nbounded"):
            solve(surr)


class TestWarmStart:
    def test_basis_read_once_per_branching_node(self, monkeypatch):
        """Only a node that branches reads its final basis, once for both
        children; a pruned or exact node does not."""
        reads = []
        pushes = []
        basis = bnb._NodeLP.basis
        heappush = bnb.heapq.heappush

        def spy_basis(model):
            reads.append(model)
            return basis(model)

        def spy_push(heap, item):
            pushes.append(item[2])
            heappush(heap, item)

        monkeypatch.setattr(bnb._NodeLP, "basis", spy_basis)
        monkeypatch.setattr(bnb.heapq, "heappush", spy_push)
        nodes = branched = 0
        for surr in [shipped_surrogate(name) for name in SHIPPED] + coupled_surrogates():
            reads.clear()
            pushes.clear()
            nodes += solve(surr).nodes
            assert len(reads) == len(set(map(id, reads)))
            assert 2 * len(reads) == len(pushes) - 1  # the root is pushed too
            branched += len(reads)
        assert 0 < branched < nodes

    def test_warm_first_lp_matches_cold(self, monkeypatch):
        """On full trees, each node's first LP, started from its parent's
        basis, gives the status and value of the same LP solved cold, and
        both children of a node hold the same basis object."""
        basic = int(bnb.highs.HighsBasisStatus.kBasic)
        compared = []
        dropped_nonbasic = []
        pushed = []
        lp_solve = bnb._NodeLP.solve
        start_basis = bnb._start_basis
        heappush = bnb.heapq.heappush

        def spy_solve(model):
            if hasattr(model, "solved") or not model.model.getBasis().valid:
                model.solved = True
                return lp_solve(model)
            model.solved = True
            cold = bnb._NodeLP(model.builder, model.lower, model.upper,
                               model.rows)
            assert not cold.model.getBasis().valid
            out = lp_solve(model)
            status, value, _ = lp_solve(cold)
            assert out[0] == status
            if status == "optimal":
                assert abs(out[1] - value) <= 1e-7 * max(1.0, abs(value))
            compared.append(status)
            return out

        def spy_start(builder, parent, rows, keep):
            # the parent rows the child drops: its blocks the child does not
            # hold, and the tangents the child does not keep
            nf = len(builder.fixed[0])
            end = nf + parent.block_rows.sum()
            moved = np.repeat(rows.ids != parent.ids, parent.block_rows)
            dropped = np.concatenate(
                [parent.row[nf:end][moved], parent.row[end:][~keep]]
            )
            dropped_nonbasic.append(bool((dropped != basic).any()))
            return start_basis(builder, parent, rows, keep)

        def spy_push(heap, item):
            pushed.append(item[2])
            heappush(heap, item)

        monkeypatch.setattr(bnb._NodeLP, "solve", spy_solve)
        monkeypatch.setattr(bnb, "_start_basis", spy_start)
        monkeypatch.setattr(bnb.heapq, "heappush", spy_push)
        surrogates = [shipped_surrogate(name) for name in SHIPPED]
        surrogates += [random_surrogate(seed) for seed in range(3)]
        surrogates += coupled_surrogates()
        for surr in surrogates:
            pushed.clear()
            report = solve(surr)
            assert report.status == "optimal"
            root, children = pushed[0], pushed[1:]
            assert root.basis is None and len(children) % 2 == 0
            for left, right in zip(children[::2], children[1::2]):
                assert left.basis is not None and left.basis is right.basis
        monkeypatch.undo()
        assert len(compared) == len(dropped_nonbasic) >= 20
        # HiGHS repaired the basic count of an alien basis
        assert any(dropped_nonbasic)
