import math

import numpy as np
import pytest

from missoc.bnb import (
    UnsupportedSurrogateError,
    bernstein_bounds,
    interval_cuts,
    optimality_gap,
    solve,
    write_log_csv,
)
from missoc.problems import MissocConfig, parse_instance, sample_training
from missoc.regression import fit_additive
from missoc.surrogate import build_surrogate


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
        for a, b in interval_cuts(np.asarray(phi, float), lo, hi):
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
        cuts = interval_cuts(phi, 0.0, 1.0)
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
        (a, b), _ = interval_cuts(phi, 0.0, 1.0)[:2]
        assert a * 0 + b == pytest.approx(0.0, abs=1e-12)
        assert a * 1 + b == pytest.approx(0.0, abs=1e-12)

    def test_mixed_curvature_valid(self):
        phi = np.array([0.0, 0.0, -3.0, 2.0])  # inflection inside [0, 1]
        self.grid_check(phi, 0.0, 1.0)


CONVEX_2D = (
    "var x1 in [-1, 1]; var x2 in [-1, 1];"
    "min x1^2 + x2^2; st x1 + x2 >= 0.5;"
)

NONCONVEX_2D = (
    "var a in [0, 1]; var b in [-1, 2];"
    "min sin(5*a) + b^2 - 0.3*b; st a + b <= 1.5;"
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
