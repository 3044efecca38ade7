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
from missoc.splines import PiecewisePoly, horner, poly_der, taylor_shift
from missoc.surrogate import (
    SurrogateComponent,
    SurrogateMINLP,
    build_surrogate,
    eval_surrogate_at,
    integer_points_lift,
)

SHIPPED = ("convex_shaped", "mixed_integer", "waves2")


def poly_val(coeffs, x):
    """``np.polynomial``'s value of a polynomial at x: the reference for
    ``splines.horner``."""
    return float(np.polynomial.polynomial.polyval(x, coeffs))


def one_row_bounds(coeffs, lo, hi):
    """``bernstein_bounds`` of one polynomial, passed as a one-row stack:
    (low, high) as floats."""
    low, high = bernstein_bounds(np.asarray(coeffs, dtype=float)[None], [lo], [hi])
    return float(low[0]), float(high[0])


def one_row_cuts(phi, lo, hi):
    """``interval_cuts`` of one polynomial, passed as a one-row stack: its
    cuts as (a, b) pairs and whether it is convex on [lo, hi]."""
    _, a, b, convex = interval_cuts(np.asarray(phi, dtype=float)[None], [lo], [hi])
    return list(zip(a.tolist(), b.tolist())), bool(convex[0])



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
        assert one_row_bounds([2.5], 0.0, 1.0) == (2.5, 2.5)

    def test_linear_exact(self):
        lb, ub = one_row_bounds([0.0, 1.0], 0.0, 1.0)
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
            lb, ub = one_row_bounds(p, lo, hi)
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
            lb, ub = one_row_bounds(p, lo, hi)
            assert lb <= vals.min() + 1e-9
            assert ub >= vals.max() - 1e-9

    def test_subdivision_never_loosens(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.normal(size=6)
            lb, ub = one_row_bounds(p, 0.0, 1.0)
            l1, u1 = one_row_bounds(p, 0.0, 0.5)
            l2, u2 = one_row_bounds(p, 0.5, 1.0)
            assert min(l1, l2) >= lb - 1e-12
            assert max(u1, u2) <= ub + 1e-12

    def test_subdivision_excess_shrinks_fast(self):
        rng = np.random.default_rng(2)

        def excess(p, level):
            edges = np.linspace(0.0, 1.0, 2**level + 1)
            lo_all, hi_all = math.inf, -math.inf
            for a, b in zip(edges[:-1], edges[1:]):
                lb, ub = one_row_bounds(p, a, b)
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
        cuts, _ = one_row_cuts(phi, lo, hi)
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
        cuts, convex = one_row_cuts(phi, 0.0, 1.0)
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
        cuts, convex = one_row_cuts(phi, 0.0, 1.0)
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
        curv_lo, _ = one_row_bounds(second, lo, hi)
        return curv_lo >= -1e-12 * max(1.0, np.abs(phi).max())

    def test_convex_flag_matches_reference(self):
        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(400):
            phi = rng.normal(size=4) * rng.choice([1e-3, 1.0, 50.0])
            phi[0] = 0.0
            lo = rng.uniform(-1.0, 1.0)
            hi = lo + rng.choice([0.0, 1e-15, rng.uniform(1e-6, 2.0)])
            _, convex = one_row_cuts(phi, lo, hi)
            assert convex == self.convex_reference(phi, lo, hi)
            seen.add(convex)
        assert seen == {False, True}

    def test_cut_cache_convex_flag_matches_reference(self):
        """The convexity flag a child of the root gets for the deviation
        range it narrows is the reference's on that range."""
        surr = random_surrogate(5)
        builder = bnb._LPBuilder(surr, 1e-4)
        lp = bnb._SharedLP(builder)
        root = dict_node(builder)
        bnb.relax_node(lp, root)
        rng = np.random.default_rng(12)
        for j, comp in enumerate(surr.components):
            for q in range(comp.k):
                i = builder.span(j).start + q
                phi = deviation_poly(builder, i)
                for _ in range(5):
                    lo, hi = np.sort(rng.uniform(0.0, comp.widths[q], 2))
                    child = dict_node(builder, dev_bounds={(j, q): (lo, hi)},
                                      depth=1, parent=root)
                    lp.enter(child)
                    assert child.convex[i] == self.convex_reference(phi, lo, hi)


def bernstein_bounds_reference(coeffs, lo, hi):
    """The scalar ``bernstein_bounds``: the power -> Bernstein map as a
    Python double loop over C(j, i) / C(n, i), each sum left to right; the
    reference for the batched one."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) - 1
    if not hi >= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if n <= 0:
        v = coeffs[0] if len(coeffs) else 0.0
        return float(v), float(v)
    w = hi - lo
    shifted = taylor_shift(coeffs, lo)
    scaled = shifted * w ** np.arange(n + 1)
    B = np.empty(n + 1)
    for j in range(n + 1):
        B[j] = sum(
            math.comb(j, i) / math.comb(n, i) * scaled[i]
            for i in range(j + 1)
        )
    return float(B.min()), float(B.max())


def interval_cuts_reference(phi, lo, hi):
    """The scalar ``interval_cuts``, one ``polyval`` and one ``linspace``
    per point; the reference for the batched one."""
    phi = np.asarray(phi, dtype=float)
    if hi - lo <= 1e-14:
        v = poly_val(phi, 0.5 * (lo + hi))
        return [(0.0, v)], False
    cuts = []
    second = poly_der(poly_der(phi))
    curv_lo, curv_hi = bernstein_bounds_reference(second, lo, hi)
    scale = max(1.0, np.abs(phi).max())
    convex = curv_lo >= -1e-12 * scale
    if convex:
        der = poly_der(phi)
        for p in np.linspace(lo, hi, 5):
            a = poly_val(der, p)
            cuts.append((a, poly_val(phi, p) - a * p))
    else:
        a = (poly_val(phi, hi) - poly_val(phi, lo)) / (hi - lo)
        b = poly_val(phi, lo) - a * lo
        if curv_hi <= 1e-12 * scale:
            cuts.append((a, b))
        else:
            over = np.zeros(max(len(phi), 2))
            over[: len(phi)] -= phi
            over[0] += b
            over[1] += a
            _, delta = bernstein_bounds_reference(over, lo, hi)
            cuts.append((a, b - max(delta, 0.0)))
    lo_val, _ = bernstein_bounds_reference(phi, lo, hi)
    cuts.append((0.0, lo_val))
    return cuts, bool(convex)


def piece_kind(phi, lo, hi):
    """'degenerate', 'convex', 'concave' or 'mixed': which cuts the
    reference gives phi on [lo, hi]."""
    if hi - lo <= 1e-14:
        return "degenerate"
    second = poly_der(poly_der(phi))
    curv_lo, curv_hi = bernstein_bounds_reference(second, lo, hi)
    scale = max(1.0, np.abs(phi).max())
    if curv_lo >= -1e-12 * scale:
        return "convex"
    return "concave" if curv_hi <= 1e-12 * scale else "mixed"


def bits(values):
    """Float values as their bit patterns: equal only when every bit is,
    signed zeros included."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def random_pieces(rng, degree, count):
    """``count`` deviation polynomials of one degree with ranges: convex,
    concave and mixed pieces, ranges from lo = 0 and lo != 0, of width 1e-14
    or less (some exactly 0), and signed zero coefficients."""
    phis, los, his = [], [], []
    for t in range(count):
        phi = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-3, 3)
        if degree >= 2 and t % 3 < 2:
            # convex (t % 3 == 0) or concave: the curvature of one sign
            phi[2:] = np.abs(phi[2:]) * 1e-3
            phi[2] = abs(phi[2]) * 1e3
            if t % 3 == 1:
                phi = -phi
        phi[0] = 0.0 if t % 2 else phi[0]
        if t % 5 == 0:
            phi[rng.integers(0, degree + 1)] = -0.0
        lo = 0.0 if t % 4 == 0 else (-0.0 if t % 4 == 1 else rng.uniform(-1, 1))
        width = rng.choice([0.0, 1e-15, 1e-14, rng.uniform(1e-6, 2.0)]) \
            if t % 6 == 0 else rng.uniform(1e-3, 2.0)
        phis.append(phi)
        los.append(lo)
        his.append(lo + width)
    return np.array(phis), np.array(los), np.array(his)


class TestBatchedCuts:
    """The stacked ``interval_cuts`` and ``bernstein_bounds`` give every row
    the bits of the scalar references on that row alone."""

    @pytest.mark.parametrize("degree", range(6))
    def test_bernstein_bounds_rows_equal_scalar_reference(self, degree):
        rng = np.random.default_rng(100 + degree)
        phis, los, his = random_pieces(rng, degree, 200)
        low, high = bernstein_bounds(phis, los, his)
        want = [bernstein_bounds_reference(*case) for case in zip(phis, los, his)]
        assert bits(low) == bits([w[0] for w in want])
        assert bits(high) == bits([w[1] for w in want])
        for case, w in zip(zip(phis, los, his), want):
            assert bits(one_row_bounds(*case)) == bits(w)

    @pytest.mark.parametrize("degree", range(6))
    def test_interval_cuts_rows_equal_scalar_reference(self, degree):
        rng = np.random.default_rng(200 + degree)
        phis, los, his = random_pieces(rng, degree, 200)
        row, a, b, convex = interval_cuts(phis, los, his)
        kinds = set()
        for r, case in enumerate(zip(phis, los, his)):
            cuts, want_convex = interval_cuts_reference(*case)
            mine = row == r
            assert bits(a[mine]) == bits([c[0] for c in cuts])
            assert bits(b[mine]) == bits([c[1] for c in cuts])
            assert convex[r] == want_convex
            # the scalar call is a one-row batch
            got, got_convex = one_row_cuts(*case)
            assert bits(got) == bits(cuts) and got_convex == want_convex
            kinds.add(piece_kind(*case))
        # phi'' is constant below degree 3, so no piece there is mixed, and
        # 0 below degree 2, so every piece there is convex
        want = ["degenerate", "convex", "concave", "mixed"][: min(max(degree, 1) + 1, 4)]
        assert kinds == set(want)

    def test_stacked_rows_raise_on_an_empty_range(self):
        with pytest.raises(ValueError, match="empty interval"):
            bernstein_bounds(np.ones((3, 3)), [0.0, 0.0, 1.0], [1.0, 1.0, 0.5])


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

    def test_two_solves_of_an_int_bnb_surrogate_give_the_same_bits(self):
        """The shared model starts each solve fresh: two solves of one
        surrogate of the benchmark's ``int1`` agree bit for bit in x, the
        objective, the nodes and the LP solves."""
        inst = parse_instance(INT_COUPLED)
        cfg = MissocConfig(intervals=20)
        surr = build_surrogate(fit_stage(inst, sample_training(inst, cfg), cfg), inst)
        first, second = solve(surr), solve(surr)
        assert first.status == "optimal" and first.nodes > 1
        assert bits(first.x) == bits(second.x)
        assert bits([first.objective]) == bits([second.objective])
        assert (first.nodes, first.lp_solves) == (second.nodes, second.lp_solves)

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
        inst = parse_instance("var x in [0, 1]; min x; st 0.5 - x <= 0;")
        (var,) = inst.variables
        piece = PiecewisePoly(
            np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
            np.array([[3.0], [1.0], [2.0], [2.5]]),
        )
        surr = SurrogateMINLP(
            constant=0.0,
            linear={},
            components=(SurrogateComponent("x", piece),),
            variables=(var,),
            constraint_rows=inst.constraint_rows,
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
        lp_solve = bnb._SharedLP.solve

        def spy(model):
            counted.append(1)
            return lp_solve(model)

        monkeypatch.setattr(bnb._SharedLP, "solve", spy)
        report = solve(surr, gap_tol=1e-4)
        assert report.lp_solves == len(counted)
        assert report.nodes <= report.lp_solves <= bnb.KELLEY_CAP * report.nodes
        assert 0 <= report.kelley_cap_hits <= report.nodes

    def test_reports_simplex_iterations(self, monkeypatch):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        seen = []
        lp_solve = bnb._SharedLP.solve

        def spy(model):
            out = lp_solve(model)
            seen.append(model.model.getInfo().simplex_iteration_count)
            return out

        monkeypatch.setattr(bnb._SharedLP, "solve", spy)
        report = solve(surr, gap_tol=1e-4)
        assert len(seen) == report.lp_solves
        assert report.simplex_iterations == sum(seen) > 0

    def test_log_collection(self, tmp_path):
        surr = surrogate_for(parse_instance(NONCONVEX_2D))
        report = solve(surr)
        assert len(report.log) >= 1
        nodes = [row[0] for row in report.log]
        assert nodes == sorted(nodes)
        path = tmp_path / "log.csv"
        write_log_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,depth,lb,ub,gap_pct"
        assert len(lines) == len(report.log) + 1
        assert all(len(ln.split(",")) == 5 for ln in lines)

    @pytest.mark.parametrize(
        "text", [NONCONVEX_2D, "var x in [0, 1]; min x^2; st x - 2 >= 0;"],
        ids=["incumbent", "infeasible"],
    )
    def test_summary_header_matches_row(self, text):
        report = solve(surrogate_for(parse_instance(text)))
        header = bnb.SOLVE_CSV_HEADER.split(",")
        row = report.csv_row().split(",")
        assert len(row) == len(header)
        assert row[header.index("status")] == report.status
        assert int(row[header.index("nodes")]) == report.nodes


def shipped_surrogate(name):
    root = importlib.resources.files("missoc") / "instances"
    inst = parse_instance((root / f"{name}.miss").read_text(), name=name)
    cfg = MissocConfig()
    return build_surrogate(
        fit_stage(inst, sample_training(inst, cfg), cfg), inst
    )


def convex_piece_reference(comp):
    """Whether the component's piece is convex on its whole domain, one
    interval and one knot at a time: every interval of positive width
    convex by a one-row ``interval_cuts`` call, and between two such
    intervals the value continuous and the slope not decreasing, to
    ``bnb.KNOT_TOL`` relative to the piece's largest coefficient. The
    reference for the builder's rule."""
    pieces = [(c, w) for c, w in zip(comp.piece.coeffs, comp.widths) if w > 0.0]
    tol = bnb.KNOT_TOL * max(1.0, max(float(np.abs(c).max()) for c, _ in pieces))
    for c, w in pieces:
        phi = c.copy()
        phi[0] = 0.0
        if not one_row_cuts(phi, 0.0, w)[1]:
            return False
    for (c, w), (d, _) in zip(pieces, pieces[1:]):
        slope = poly_val(poly_der(d), 0.0)
        if abs(d[0] - poly_val(c, w)) > tol or poly_val(poly_der(c), w) - slope > tol:
            return False
    return True


def col_y(builder, j, q):
    """The y column of interval (j, q) of a multiple-choice component; its
    dev and sp columns follow."""
    return builder.y_cols[builder.span(j).start + q]


def convex_run(builder, j):
    """Where convex component j's run starts in the builder's interval
    table, after every multiple-choice interval, and which of the
    component's intervals it holds: those of positive width."""
    first = builder.nmc + int(np.flatnonzero(builder.comp[builder.nmc:] == j)[0])
    return first, np.flatnonzero(builder.surr.components[j].widths > 0.0)


def table_index(builder, j, q):
    """The row of interval (j, q) in the builder's interval table: a
    multiple-choice component's run, or after all of those a convex
    component's intervals of positive width."""
    span = builder.span(j)
    if span.start < span.stop:
        return span.start + q
    first, positive = convex_run(builder, j)
    return first + int(np.flatnonzero(positive == q)[0])


def interval_key(builder, i):
    """Interval i of the builder's table as (component, interval of the
    component); the inverse of ``table_index``."""
    j = int(builder.comp[i])
    span = builder.span(j)
    if span.start < span.stop:
        return j, i - span.start
    first, positive = convex_run(builder, j)
    return j, int(positive[i - first])


def deviation_poly(builder, i):
    """Interval i's polynomial in its deviation, constant dropped, read
    from the surrogate."""
    j, q = interval_key(builder, i)
    phi = builder.surr.components[j].piece.coeffs[q].copy()
    phi[0] = 0.0
    return phi


def dict_bounds(builder, y_fixed, dev_bounds, var_bounds):
    """Column bounds of a node given as dicts, as the dict-based node LP
    translated them: (j, q) -> 0 or 1 fixes y, and 0 also pins dev and sp to
    0; (j, q) -> (lo, hi) overrides dev's [0, width]; a variable name ->
    (lo, hi) overrides the box."""
    lower, upper = builder.lower.copy(), builder.upper.copy()
    for name, (lo, hi) in var_bounds.items():
        lower[builder.col_x[name]] = lo
        upper[builder.col_x[name]] = hi
    ranges = dict(dev_bounds)
    for (j, q), yfix in y_fixed.items():
        col = col_y(builder, j, q)
        lower[col] = upper[col] = float(yfix)
        if yfix == 0:
            ranges[j, q] = (0.0, 0.0)
            lower[col + 2] = upper[col + 2] = 0.0  # sp
    for (j, q), (lo, hi) in ranges.items():
        col = col_y(builder, j, q) + 1
        lower[col], upper[col] = lo, hi
    return lower, upper


def dict_node(builder, y_fixed=None, dev_bounds=None, var_bounds=None,
              depth=0, parent=None):
    """A ``Node`` built from the dict description ``dict_bounds`` takes."""
    lower, upper = dict_bounds(builder, y_fixed or {}, dev_bounds or {},
                               var_bounds or {})
    return Node(depth, lower, upper, parent)


def choose_interval_reference(surr, y_fixed, j, q):
    """A copy of ``y_fixed`` with y_jq = 1 and component j's other interval
    binaries 0."""
    fixed = dict(y_fixed)
    for qq in range(surr.components[j].k):
        fixed[j, qq] = int(qq == q)
    return fixed


def branch_reference(builder, desc, z):
    """The dict-based branching: the children of the node ``desc`` =
    (y_fixed, dev_bounds, var_bounds) as such triples, or None when the LP
    point is branch-free: on the intervals of the multiple-choice
    components and on integers. The reference for ``bnb._branch``."""
    y_fixed, dev_bounds, var_bounds = desc
    surr = builder.surr
    # a convex component has no interval to branch on
    intervals = [range(comp.k * (not convex_piece_reference(comp)))
                 for comp in surr.components]
    best_frac, best_key = bnb.FRAC_TOL, None
    for j, comp in enumerate(surr.components):
        for q in intervals[j]:
            if (j, q) in y_fixed:
                continue
            col = col_y(builder, j, q)
            frac = min(z[col], 1.0 - z[col])
            if frac > best_frac:
                best_frac, best_key = frac, (j, q)
    if best_key is not None:
        # SOS1: the component's free intervals split at sum(q * y_q), each
        # half holding one; each child fixes the other half off
        j, _ = best_key
        k = surr.components[j].k
        free = [q for q in range(k) if y_fixed.get((j, q)) != 0]
        pos = sum(q * z[col_y(builder, j, q)] for q in range(k))
        halves = [[q for q in free if q <= pos], [q for q in free if q > pos]]
        if not halves[0]:
            halves = [free[:1], free[1:]]
        elif not halves[1]:
            halves = [free[:-1], free[-1:]]
        children = []
        for off in halves[::-1]:
            fixed = dict(y_fixed)
            fixed.update({(j, q): 0 for q in off})
            children.append((fixed, dev_bounds, var_bounds))
        return children

    for v in surr.variables:
        if not v.integer:
            continue
        xv = z[builder.col_x[v.name]]
        if abs(xv - round(xv)) > bnb.FRAC_TOL:
            lo, hi = var_bounds.get(v.name, (v.lower, v.upper))
            children = []
            for new in ((lo, math.floor(xv)), (math.ceil(xv), hi)):
                vb = dict(var_bounds)
                vb[v.name] = (float(new[0]), float(new[1]))
                children.append((y_fixed, dev_bounds, vb))
            return children

    best_gap, best_key = 1e-9, None
    for j, comp in enumerate(surr.components):
        for q in intervals[j]:
            col = col_y(builder, j, q)
            if z[col] < 0.5:
                continue
            phi = deviation_poly(builder, builder.span(j).start + q)
            true_sp = comp.piece.coeffs[q][0] * z[col] + poly_val(
                phi, z[col + 1]
            )
            gap = true_sp - z[col + 2]
            if gap > best_gap:
                best_gap, best_key = gap, (j, q)
    if best_key is None:
        return None
    j, q = best_key
    lo, hi = dev_bounds.get((j, q), (0.0, surr.components[j].widths[q]))
    dev = z[col_y(builder, j, q) + 1]
    m = min(max(dev, lo + 0.2 * (hi - lo)), hi - 0.2 * (hi - lo))
    left_dev = dict(dev_bounds)
    left_dev[j, q] = (lo, m)
    right_dev = dict(dev_bounds)
    right_dev[j, q] = (m, hi)
    right_fixed = choose_interval_reference(surr, y_fixed, j, q)
    return [(y_fixed, left_dev, var_bounds), (right_fixed, right_dev, var_bounds)]


def path_nodes(node):
    """The nodes from the root down to ``node``."""
    nodes = []
    while node is not None:
        nodes.append(node)
        node = node.parent
    return nodes[::-1]


def dense_rows(builder, nodes=()):
    """The (A_eq, b_eq, A_ub, b_ub) of the shared model set to the last of
    ``nodes`` (a path of relaxed nodes, root first), as a dense per-row
    assembly with one-row ``interval_cuts``: the fixed rows of the
    multiple-choice components, every one of their intervals' cut rows on
    its full range, the convex components' tangent lines at their knots,
    then per node the cut rows of each deviation range it narrows below its
    parent's (an interval fixed off is bounds only) and the rows of its
    Kelley tangents; the reference for the shared model's rows."""
    surr = builder.surr
    convex = [convex_piece_reference(comp) for comp in surr.components]
    A_eq, b_eq, A_ub, b_ub = [], [], [], []

    def new_row():
        return np.zeros(builder.ncols)

    def cut_row(j, q, a, b):
        row = new_row()
        if convex[j]:
            # the line sigma >= c0 + b + a*(x - left), on the whole domain
            comp = surr.components[j]
            row[builder.ncols - len(surr.components) + j] = -1.0
            row[builder.col_x[comp.var]] = a
            A_ub.append(row)
            b_ub.append(a * comp.breakpoints[q] - comp_c0(j, q) - b)
            return
        col = col_y(builder, j, q)
        row[col + 2] = -1.0
        row[col] = comp_c0(j, q) + b
        row[col + 1] = a
        A_ub.append(row)
        b_ub.append(0.0)

    def tangent_row(j, q, at):
        phi = surr.components[j].piece.coeffs[q].copy()
        phi[0] = 0.0
        a = poly_val(poly_der(phi), at)
        cut_row(j, q, a, poly_val(phi, at) - a * at)

    def comp_c0(j, q):
        return surr.components[j].piece.coeffs[q][0]

    def cuts(j, q, lo, hi):
        phi = surr.components[j].piece.coeffs[q].copy()
        phi[0] = 0.0
        for a, b in one_row_cuts(phi, lo, hi)[0]:
            cut_row(j, q, a, b)

    for j, comp in enumerate(surr.components):
        if convex[j]:
            continue
        row = new_row()
        for q in range(comp.k):
            row[col_y(builder, j, q)] = 1.0
        A_eq.append(row)
        b_eq.append(1.0)
        row = new_row()
        row[builder.col_x[comp.var]] = 1.0
        for q in range(comp.k):
            row[col_y(builder, j, q)] = -comp.breakpoints[q]
            row[col_y(builder, j, q) + 1] = -1.0
        A_eq.append(row)
        b_eq.append(0.0)
        row = new_row()
        row[builder.ncols - len(surr.components) + j] = 1.0
        for q in range(comp.k):
            row[col_y(builder, j, q) + 2] = -1.0
        A_eq.append(row)
        b_eq.append(0.0)
        for q in range(comp.k):
            row = new_row()
            row[col_y(builder, j, q) + 1] = 1.0
            row[col_y(builder, j, q)] = -comp.widths[q]
            A_ub.append(row)
            b_ub.append(0.0)
    rows = surr.constraint_rows
    for a, const, eq in zip(rows.A, rows.b, rows.eq):
        row = new_row()
        for v, coeff in zip(surr.variables, a):
            row[builder.col_x[v.name]] = coeff
        (A_eq if eq else A_ub).append(row)
        (b_eq if eq else b_ub).append(-const)
    for j, comp in enumerate(surr.components):
        for q in range(comp.k * (not convex[j])):
            cuts(j, q, 0.0, comp.widths[q])
    for j, comp in enumerate(surr.components):
        if convex[j]:
            positive = np.flatnonzero(comp.widths > 0.0).tolist()
            for q in positive:
                tangent_row(j, q, 0.0)
            if comp.degree >= 2:
                tangent_row(j, positive[-1], comp.widths[positive[-1]])
    parent = (builder.lower, builder.upper)
    for node in nodes:
        for j, comp in enumerate(surr.components):
            for q in range(comp.k * (not convex[j])):
                col = col_y(builder, j, q) + 1
                lo, hi = node.lower[col], node.upper[col]
                if node.upper[col - 1] == 0.0 or (lo, hi) == (0.0, comp.widths[q]):
                    continue
                if (lo, hi) != (parent[0][col], parent[1][col]):
                    cuts(j, q, lo, hi)
        for i, a, b in zip(*node.tangents):
            cut_row(*interval_key(builder, i), a, b)
        parent = (node.lower, node.upper)
    ncols = builder.ncols
    return (np.array(A_eq).reshape(-1, ncols), np.array(b_eq),
            np.array(A_ub).reshape(-1, ncols), np.array(b_ub))


def branched_node(builder):
    """A node below the root: per multiple-choice component the first
    interval is fixed off and the second's deviation range is cut to its
    middle half."""
    y_fixed, dev_bounds = {}, {}
    for j, comp in enumerate(builder.surr.components):
        if convex_piece_reference(comp):
            continue
        y_fixed[j, 0] = 0
        w = comp.widths[1]
        dev_bounds[j, 1] = (0.25 * w, 0.75 * w)
    return dict_node(builder, y_fixed, dev_bounds, depth=2)


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


def highs_lp_model(builder, lower, upper, rows=None):
    """The LP of the fixed rows and ``rows`` (row-wise (counts, index,
    value, upper) blocks) built through ``HighsLp`` attribute copies and passed as
    that object: the reference for ``_SharedLP``'s numpy ``passModel`` and
    ``addRows``."""
    f_lower, f_upper, f_starts, f_index, f_value = builder.fixed
    counts, n_index, n_value, n_upper = (np.concatenate(p) for p in zip(*(rows or [
        (np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0), np.zeros(0))
    ])))
    n_starts = np.cumsum(counts)
    lp = bnb.highs.HighsLp()
    lp.num_col_ = builder.ncols
    lp.num_row_ = len(f_lower) + len(counts)
    lp.col_cost_ = builder.obj
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.concatenate([f_lower, np.full(len(counts), -np.inf)])
    lp.row_upper_ = np.concatenate([f_upper, n_upper])
    matrix = lp.a_matrix_
    matrix.format_ = bnb.highs.MatrixFormat.kRowwise
    matrix.num_col_ = lp.num_col_
    matrix.num_row_ = lp.num_row_
    matrix.start_ = np.concatenate([f_starts, len(f_index) + n_starts])
    matrix.index_ = np.concatenate([f_index, n_index])
    matrix.value_ = np.concatenate([f_value, n_value])
    model = bnb.highs._Highs()
    model.setOptionValue("output_flag", False)
    dual = bnb.highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    model.setOptionValue("simplex_strategy", dual)
    assert model.passModel(lp) == bnb.highs.HighsStatus.kOk
    return model


def lp_fields(obj, prefix=""):
    """Every public data field of a HiGHS object, recursing into the ones
    that have fields (the matrix), as name -> value."""
    out = {}
    for name in dir(obj):
        if name.startswith("_"):
            continue
        value = getattr(obj, name)
        if callable(value) and not isinstance(value, (list, np.ndarray)):
            continue
        if type(value).__module__.startswith("scipy.optimize._highspy") and not \
                isinstance(value, (bnb.highs.ObjSense, bnb.highs.MatrixFormat)):
            out.update(lp_fields(value, prefix + name + "."))
        else:
            out[prefix + name] = value
    return out


def assert_rows_equal_dense(lp, nodes):
    """The shared model holds exactly the rows ``dense_rows`` gives for the
    path ``nodes``, with no explicit zeros."""
    A_eq, b_eq, A_ub, b_ub = dense_rows(lp.builder, nodes)
    matrix, row_lower, row_upper = model_rows(lp)
    np.testing.assert_array_equal(matrix.toarray(), np.vstack([A_eq, A_ub]))
    np.testing.assert_array_equal(
        row_lower, np.concatenate([b_eq, np.full(len(b_ub), -np.inf)])
    )
    np.testing.assert_array_equal(row_upper, np.concatenate([b_eq, b_ub]))
    # no explicit zeros: HiGHS gets the matrix the dense rows give
    assert np.all(matrix.data != 0.0)


class TestNodeLP:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_sparse_rows_equal_dense_rows(self, name):
        """On one shared model, the root and then a node below it without
        a parent (a jump: the root's rows go, the node's come)."""
        surr = shipped_surrogate(name)
        builder = bnb._LPBuilder(surr, 1e-4)
        lp = bnb._SharedLP(builder)
        assert_rows_equal_dense(lp, [])
        for node in (dict_node(builder), branched_node(builder)):
            lp.enter(node)
            assert_rows_equal_dense(lp, [node])
            assert bits(np.array(lp.model.getLp().col_lower_)) == bits(node.lower)
            assert bits(np.array(lp.model.getLp().col_upper_)) == bits(node.upper)

    def test_rows_after_a_jump_equal_dense_rows(self, monkeypatch):
        """Relaxed breadth-first, most nodes are reached by a jump: after
        each relaxation the shared model holds exactly the fixed rows plus
        the rows of the node's path, its ancestors' narrowed cut blocks and
        tangents re-added where it had dropped them."""
        relax = bnb.relax_node
        held = []
        counts = {"jumps": 0, "readded": 0}

        def checked(lp, node):
            out = relax(lp, node)
            if node.convex is not None:  # entered: its box is not empty
                nodes = path_nodes(node)
                assert_rows_equal_dense(lp, nodes)
                counts["jumps"] += node.parent is not None and held[-1:] != [node.parent]
                counts["readded"] += any(n not in held for n in nodes[:-1])
                held[:] = nodes
            return out

        monkeypatch.setattr(bnb, "relax_node", checked)
        for surr in [random_surrogate(seed) for seed in range(3)] + coupled_surrogates():
            held.clear()
            tree_nodes(bnb._SharedLP(bnb._LPBuilder(surr, 1e-4)), 25)
        assert counts["jumps"] >= 40 and counts["readded"] >= 20

    @pytest.mark.parametrize("name", SHIPPED)
    def test_numpy_model_equals_highs_lp_model(self, name):
        """Every field of the model HiGHS holds is the one the ``HighsLp``
        build gives, for the shared model as passed and for it set to a
        node below the root; the only difference is integrality, all
        continuous against none, and HiGHS solves both as an LP."""
        surr = shipped_surrogate(name)
        builder = bnb._LPBuilder(surr, 1e-4)
        compared = 0
        for node in (None, branched_node(builder)):
            lp = bnb._SharedLP(builder)
            rows = None
            if node is not None:
                lp.enter(node)
                rows = node.rows(builder)
            got = lp.model
            lower, upper = lp.lower, lp.upper
            want = highs_lp_model(builder, lower, upper, rows)
            got_fields = lp_fields(got.getLp())
            want_fields = lp_fields(want.getLp())
            assert got_fields.keys() == want_fields.keys()
            continuous = bnb.highs.HighsVarType.kContinuous
            assert list(got_fields.pop("integrality_")) == [continuous] * builder.ncols
            assert list(want_fields.pop("integrality_")) == []
            for key, value in want_fields.items():
                if isinstance(value, (list, np.ndarray)):
                    assert bits(got_fields[key]) == bits(value), key
                else:
                    assert got_fields[key] == value, key
                compared += 1
            for model in (got, want):
                assert model.run() == bnb.highs.HighsStatus.kOk
                assert model.getModelStatus() == bnb.highs.HighsModelStatus.kOptimal
                # no branch-and-bound node: HiGHS ran its LP solver
                assert model.getInfo().mip_node_count == -1
            assert got.getInfo().simplex_iteration_count == (
                want.getInfo().simplex_iteration_count
            )
            assert bits(got.getSolution().col_value) == bits(
                want.getSolution().col_value
            )
        assert compared >= 2 * 15

    def test_child_computes_cuts_only_for_its_overrides(self, monkeypatch):
        """The cut blocks of every interval's full range come from one
        ``interval_cuts`` call per degree when the builder is made; a node
        below computes cuts only for the ranges it narrows, and an interval
        it fixes off needs none."""
        surr = random_surrogate(1)
        calls = []
        cuts = bnb.interval_cuts

        def spy(phi, lo, hi):
            calls.append((np.shape(phi), list(np.atleast_1d(lo)),
                          list(np.atleast_1d(hi))))
            return cuts(phi, lo, hi)

        monkeypatch.setattr(bnb, "interval_cuts", spy)
        builder = bnb._LPBuilder(surr, 1e-4)
        assert {comp.degree for comp in surr.components} == {3}
        n = sum(comp.k for comp in surr.components)
        widths = [w for comp in surr.components for w in comp.widths]
        assert calls == [((n, 4), [0.0] * n, widths)]
        calls.clear()
        lp = bnb._SharedLP(builder)
        root = dict_node(builder)
        status, _, z = bnb.relax_node(lp, root)
        assert status == "optimal" and calls == []
        w = surr.components[1].widths[2]
        child = dict_node(builder, {(0, 1): 0, (0, 3): 1},
                          {(1, 2): (0.25 * w, 0.5 * w)}, depth=1,
                          parent=root)
        bnb.relax_node(lp, child)
        # (0, 3) is fixed on and keeps its full range; (0, 1) is fixed off,
        # which is bounds only
        assert calls == [((1, 4), [0.25 * w], [0.5 * w])]

    def test_inherited_convexity_equals_interval_cuts_on_the_node_range(self):
        """Every relaxed node's convexity flags, inherited from its parent
        except where it narrows a deviation range, are ``interval_cuts``'s
        flags on the node's own range for every interval switched on; the
        Kelley set is those intervals."""
        narrowed = flipped = 0
        for seed in range(8):
            builder = bnb._LPBuilder(random_surrogate(seed), 1e-4)
            lp = bnb._SharedLP(builder)
            kelley = record_kelley_sets(lp)
            y = builder.y_cols
            for node, _ in tree_nodes(lp, 60):
                on = np.flatnonzero(node.upper[y] != 0.0)
                lo, hi = node.lower[y + 1][on], node.upper[y + 1][on]
                phis = [deviation_poly(builder, i) for i in on]
                _, _, _, want = interval_cuts(np.array(phis), lo, hi)
                assert node.convex[on].tolist() == want.tolist()
                assert kelley[id(node)].tolist() == on[want].tolist()
                full = (lo == 0.0) & (hi == builder.widths[on])
                narrowed += int((~full).sum())
                flipped += int((want != builder.convex[on]).sum())
        # narrowed ranges whose flag is not the full range's occur
        assert narrowed >= 20 and flipped >= 1

    @staticmethod
    def assert_default_blocks_equal_one_row_calls(builder):
        """The builder's default cut blocks, closing ``builder.fixed``, and
        its convexity flags equal one-row ``interval_cuts`` calls on each
        multiple-choice interval's full range, interval after interval, bit
        for bit; then come the convex components' tangents at their knots,
        component after component, with the bits of ``polyval``."""
        blocks = []
        convex = [convex_piece_reference(comp) for comp in builder.surr.components]
        for j, comp in enumerate(builder.surr.components):
            for q in range(comp.k * (not convex[j])):
                phi = comp.piece.coeffs[q].copy()
                phi[0] = 0.0
                cuts, convex_there = one_row_cuts(phi, 0.0, comp.widths[q])
                a, b = np.array(cuts).T
                i = builder.span(j).start + q
                assert builder.convex[i] == convex_there
                blocks.append(builder.cut_rows(np.full(len(a), i), a, b))
        for j, comp in enumerate(builder.surr.components):
            positive = np.flatnonzero(comp.widths > 0.0).tolist() * convex[j]
            knots = [(q, 0.0) for q in positive]
            if positive and comp.degree >= 2:
                knots.append((positive[-1], comp.widths[positive[-1]]))
            for q, at in knots:
                phi = comp.piece.coeffs[q].copy()
                phi[0] = 0.0
                a = poly_val(poly_der(phi), at)
                blocks.append(builder.cut_rows(np.array([table_index(builder, j, q)]),
                                               np.array([a]),
                                               np.array([poly_val(phi, at) - a * at])))
        counts, index, value, upper = (np.concatenate(p) for p in zip(*blocks))
        starts, got_index, got_value = builder.fixed[2:]
        first = len(starts) - 1 - len(counts)
        np.testing.assert_array_equal(np.diff(starts)[first:], counts)
        np.testing.assert_array_equal(got_index[starts[first]:], index)
        assert bits(got_value[starts[first]:]) == bits(value)
        assert bits(builder.fixed[1][first:]) == bits(upper)

    def test_default_blocks_of_mixed_degrees_keep_interval_order(self):
        """Integer covariates lifted over their integer points (degree 1)
        between continuous ones (degree 3): the default blocks, one
        ``interval_cuts`` call per degree, come out in interval order with
        the bits of one-row calls, and the convex components' knot tangents
        after them. Every component of INT_COUPLED is convex; INT_MIXED has
        a nonconvex and a convex component of each degree."""
        surr = surrogate_for(parse_instance(INT_COUPLED), intervals=8)
        degrees = [comp.degree for comp in surr.components]
        assert degrees == [3, 1] * 3
        self.assert_default_blocks_equal_one_row_calls(bnb._LPBuilder(surr, 1e-4))
        surr = surrogate_for(parse_instance(INT_MIXED), intervals=8)
        assert [comp.degree for comp in surr.components] == [3, 1] * 2
        kinds = [convex_piece_reference(comp) for comp in surr.components]
        assert kinds == [False, False, True, True]
        self.assert_default_blocks_equal_one_row_calls(bnb._LPBuilder(surr, 1e-4))

    def test_interval_cuts_cache_is_per_builder(self):
        # same boxes and knots, so both builders have the same intervals
        # and ranges; each takes its default cut blocks and root flags from
        # its own surrogate
        wavy = surrogate_for(parse_instance(WAVY_2D), intervals=8)
        convex = surrogate_for(parse_instance(CONVEX_2D), intervals=8)
        for surr in (wavy, convex, wavy):
            builder = bnb._LPBuilder(surr, 1e-4)
            self.assert_default_blocks_equal_one_row_calls(builder)
            # the root takes the builder's flags
            lp = bnb._SharedLP(builder)
            root = dict_node(builder)
            lp.enter(root)
            np.testing.assert_array_equal(root.convex, builder.convex)

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
    inst = parse_instance(
        "var x1 in [0, 1]; var x2 in [0, 1]; min x1 + x2; st x1 + x2 >= 0.8;"
    )
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
        variables=inst.variables,
        constraint_rows=inst.constraint_rows,
    )


def record_kelley_sets(lp):
    """Wrap ``lp.enter`` to record the Kelley intervals it returns for each
    node; returns the record, keyed by ``id(node)``."""
    enter, kelley = lp.enter, {}

    def spy(node):
        intervals = enter(node)
        kelley[id(node)] = intervals
        return intervals

    lp.enter = spy
    return kelley


def tree_nodes(lp, count):
    """The first ``count`` nodes of a breadth-first walk of the tree on
    the shared model ``lp``, as (node, relax_node result); a node that
    branches saves its basis for its children, as ``solve`` does."""
    queue = [dict_node(lp.builder)]
    out = []
    while queue and len(out) < count:
        node = queue.pop(0)
        result = bnb.relax_node(lp, node)
        out.append((node, result))
        if result[0] != "optimal":
            continue
        children = bnb._branch(lp.builder, node, result[2])
        if children:
            node.basis = lp.model.getBasis()
            queue.extend(children)
    return out


def node_grid_min(builder, node, n=201):
    """Grid minimum of the surrogate over the node's feasible set."""
    surr = builder.surr
    axes = []
    for j, comp in enumerate(surr.components):
        xs, fs = [], []
        col = builder.col_x[comp.var]
        lo_x, hi_x = node.lower[col], node.upper[col]
        for q in range(comp.k):
            col = col_y(builder, j, q)
            if node.upper[col] == 0.0:  # fixed off
                continue
            lo, hi = node.lower[col + 1], node.upper[col + 1]
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


class TestBoundBranching:
    def test_children_equal_dict_reference(self):
        """On the first 25 breadth-first nodes of each tree, ``_branch``
        writes the children's bounds the dict-based branching translates
        to, bit for bit, and branches where it branches. The coupled
        surrogates bring integer branching within that depth."""
        surrs = [random_surrogate(seed) for seed in range(10)]
        surrs += [shipped_surrogate(name) for name in SHIPPED]
        surrs += coupled_surrogates()
        compared = 0
        kinds = set()  # which of y_fixed, dev_bounds, var_bounds branched
        for surr in surrs:
            builder = bnb._LPBuilder(surr, 1e-4)
            lp = bnb._SharedLP(builder)
            queue = [(dict_node(builder), ({}, {}, {}))]
            seen = 0
            while queue and seen < 25:
                node, desc = queue.pop(0)
                seen += 1
                status, _, z = bnb.relax_node(lp, node)
                if status != "optimal":
                    continue
                children = bnb._branch(builder, node, z)
                want = branch_reference(builder, desc, z)
                assert (children is None) == (want is None)
                for child, child_desc in zip(children or (), want or ()):
                    lower, upper = dict_bounds(builder, *child_desc)
                    assert bits(child.lower) == bits(lower)
                    assert bits(child.upper) == bits(upper)
                    assert child.depth == node.depth + 1
                    assert child.parent is node
                    queue.append((child, child_desc))
                    compared += 1
                    kinds.update(
                        k for k in range(3) if child_desc[k] != desc[k]
                    )
        assert compared >= 150 and kinds == {0, 1, 2}

    @staticmethod
    def interval_columns(builder, j):
        """The y, dev and sp columns of component j's intervals."""
        first = builder.y_cols[builder.span(j).start]
        return range(first, first + 3 * builder.surr.components[j].k)

    def test_fixed_off_after_deviation_branch(self):
        """An interval fixed off has y, dev and sp at [0, 0], also when its
        deviation range was branched before; in the other SOS1 child it
        keeps its range, a free y and a free sp."""
        builder = bnb._LPBuilder(random_surrogate(0), 1e-4)
        w = builder.surr.components[0].widths[1]
        node = dict_node(builder, dev_bounds={(0, 1): (0.25 * w, 0.5 * w)})
        col = col_y(builder, 0, 1)
        z = np.zeros(builder.ncols)
        z[col] = 0.5
        # sum(q * y_q) = 0.5: interval 0 is the left half, 1 to 3 the right
        left, right = bnb._branch(builder, node, z)
        for bound in (left.lower, left.upper):
            assert bits(bound[col : col + 3]) == bits([0.0] * 3)
        assert (right.lower[col], right.upper[col]) == (0.0, 1.0)
        assert (right.lower[col + 1], right.upper[col + 1]) == (0.25 * w, 0.5 * w)
        assert (right.lower[col + 2], right.upper[col + 2]) == (-np.inf, np.inf)
        cols = list(self.interval_columns(builder, 0))
        first, rest = cols[:3], cols[3:]
        assert not right.lower[first].any() and not right.upper[first].any()
        assert bits(right.lower[rest]) == bits(node.lower[rest])
        assert bits(right.upper[rest]) == bits(node.upper[rest])

    def test_deviation_branch_chooses_with_the_new_range(self):
        """Branching on a deviation range halves it in the left child and
        chooses the interval on the other half in the right one."""
        builder = bnb._LPBuilder(random_surrogate(0), 1e-4)
        w = builder.surr.components[0].widths[1]
        col = col_y(builder, 0, 1)
        z = np.zeros(builder.ncols)
        z[col], z[col + 1], z[col + 2] = 1.0, 0.5 * w, -1e3
        z[col_y(builder, 1, 0)] = 1.0
        node = dict_node(builder)
        left, right = bnb._branch(builder, node, z)
        m = 0.5 * w
        assert left.lower is node.lower
        assert bits(left.upper) == bits(
            np.where(np.arange(builder.ncols) == col + 1, m, builder.upper)
        )
        assert (right.lower[col], right.upper[col]) == (1.0, 1.0)
        assert (right.lower[col + 1], right.upper[col + 1]) == (m, w)
        assert (right.lower[col + 2], right.upper[col + 2]) == (-np.inf, np.inf)
        # component 1 is untouched
        cols = list(self.interval_columns(builder, 1))
        assert bits(right.lower[cols]) == bits(builder.lower[cols])
        assert bits(right.upper[cols]) == bits(builder.upper[cols])

    def test_sos1_children_fix_off_complementary_halves(self):
        """Where a node branches on interval binaries, each child fixes off
        a non-empty run of the component's free intervals, the two runs
        split the free intervals into a left and a right half, and every
        other column keeps the node's bounds."""
        surrs = [shipped_surrogate(name) for name in SHIPPED]
        surrs += coupled_surrogates()
        # degree 0: the continuous covariates' step pieces keep their
        # binaries (the lifted integer ones are convex), and every node that
        # branches on a binary
        surrs += [surrogate_for(parse_instance(text), degrees=0, intervals=10)
                  for text in (INT0, INT_COUPLED)]
        checked = 0
        for surr in surrs:
            builder = bnb._LPBuilder(surr, 1e-4)
            for node, (status, _, z) in tree_nodes(bnb._SharedLP(builder), 40):
                if status != "optimal":
                    continue
                children = bnb._branch(builder, node, z)
                if children is None:
                    continue
                y = builder.y_cols
                was_free = node.upper[y] != 0.0
                offs = [np.flatnonzero(was_free & (child.upper[y] == 0.0))
                        for child in children]
                chosen = any((child.lower[y] > node.lower[y]).any()
                             for child in children)
                if chosen or not (len(offs[0]) or len(offs[1])):
                    continue  # deviation-range or integer branching
                # the left child keeps the left half, the right child the
                # right one
                right_half, left_half = offs
                assert len(left_half) and len(right_half)
                (j,) = {builder.comp[i] for i in np.concatenate(offs)}
                free = [builder.span(j).start + q
                        for q in range(surr.components[j].k)
                        if was_free[builder.span(j).start + q]]
                n = len(left_half)
                assert left_half.tolist() == free[:n]
                assert right_half.tolist() == free[n:]
                for child, off in zip(children, offs):
                    cols = np.concatenate([y[off] + c for c in range(3)])
                    assert not child.lower[cols].any()
                    assert not child.upper[cols].any()
                    keep = np.setdiff1d(np.arange(builder.ncols), cols)
                    assert bits(child.lower[keep]) == bits(node.lower[keep])
                    assert bits(child.upper[keep]) == bits(node.upper[keep])
                checked += 1
        assert checked >= 60

    def test_node_bounds_are_read_only(self):
        """Children share the arrays their branching leaves unchanged, so
        no node's bounds can be written in place."""
        builder = bnb._LPBuilder(random_surrogate(1), 1e-4)
        nodes = [node for node, _ in tree_nodes(bnb._SharedLP(builder), 8)]
        assert len(nodes) == 8
        for node in nodes:
            for bound in (node.lower, node.upper):
                with pytest.raises(ValueError, match="read-only"):
                    bound[0] = 0.5


class TestTangentPool:
    # some seeds give a root LP that is already exact (no tree, no pool)
    SEEDS = range(10)

    def test_pool_underestimates_phi_on_each_child_range(self):
        checked = 0
        for seed in self.SEEDS:
            checked += self.check_pool_underestimates(seed)
        assert checked >= 500

    def check_pool_underestimates(self, seed):
        """The tangents of a node's path (its ancestors' and its own, the
        rows its children inherit) underestimate phi on the node's ranges.
        A node's own tangents are on intervals it does not fix off; an
        inherited one on an interval fixed off is void, its y, dev and sp
        pinned to 0."""
        surr = random_surrogate(seed)
        builder = bnb._LPBuilder(surr, 1e-4)
        checked = 0
        for node, (status, _, _) in tree_nodes(bnb._SharedLP(builder), 25):
            if status != "optimal":
                continue
            for owner in path_nodes(node):
                for i, a, b in zip(*owner.tangents):
                    col = builder.y_cols[i]
                    if owner is node:
                        assert node.upper[col] != 0.0  # not fixed off
                    elif node.upper[col] == 0.0:
                        assert node.lower[col : col + 3].tolist() == [0.0] * 3
                        continue
                    lo, hi = node.lower[col + 1], node.upper[col + 1]
                    dev = np.linspace(lo, hi, 2001)
                    phi = deviation_poly(builder, i)
                    vals = np.polynomial.polynomial.polyval(dev, phi)
                    tol = 1e-9 * max(1.0, np.abs(vals).max())
                    assert np.all(a * dev + b <= vals + tol)
                    checked += 1
        return checked

    def test_pool_bound_between_plain_bound_and_node_minimum(
        self, monkeypatch
    ):
        inherited = restarted = 0
        for seed in self.SEEDS:
            counts = self.check_pool_bound(seed, monkeypatch)
            inherited += counts[0]
            restarted += counts[1]
        assert inherited >= 50
        assert restarted >= 100

    def check_pool_bound(self, seed, monkeypatch):
        """Each node's first LP in the tree (its path's rows, the pool
        among them) against the same node relaxed without a parent (plain:
        only its own cut blocks). A node whose first LP had a fixed start
        (the root on a new model, or a jump to its parent's saved basis) is
        relaxed again, as a copy, on a new model that has relaxed a copy of
        the root, which enters it through the same path and basis: it gives
        the tree's status and bound exactly. (The copies leave the tree's
        nodes as the tree left them.) (HiGHS scales a model at its first LP and extends
        that scaling to rows added later, so the new model solves the root
        first, as the tree's did.) Returns the counts of nodes with an
        inherited pool and of those relaxed again."""
        surr = random_surrogate(seed)
        builder = bnb._LPBuilder(surr, 1e-4)
        lp = bnb._SharedLP(builder)
        values = []
        firsts = []
        fixed_start = []
        lp_solve = bnb._SharedLP.solve
        relax = bnb.relax_node

        def spy(model):
            out = lp_solve(model)
            values.append(out[1])
            return out

        def spy_relax(lp, node):
            values.clear()
            fixed_start.append(node.parent is not lp.warm or lp.lp_solves == 0)
            out = relax(lp, node)
            firsts.append(values[0] if values else None)
            return out

        monkeypatch.setattr(bnb._SharedLP, "solve", spy)
        monkeypatch.setattr(bnb, "relax_node", spy_relax)
        nodes = tree_nodes(lp, 25)
        firsts, fixed_start = list(firsts), list(fixed_start)
        root = nodes[0][0]
        inherited = restarted = 0
        for (node, (status, bound, _)), first_pooled, fixed in zip(
            nodes, firsts, fixed_start
        ):
            if fixed:
                fresh = bnb._SharedLP(builder)
                if node is not root:
                    bnb.relax_node(fresh, dataclasses.replace(root))
                again = bnb.relax_node(fresh, dataclasses.replace(node))
                assert (again[0], again[1]) == (status, bound)
                restarted += 1
            values.clear()
            plain = bnb.relax_node(lp, dataclasses.replace(node, parent=None))
            assert plain[0] == status
            if status != "optimal":
                continue
            inherited += any(len(n.tangents.index) for n in path_nodes(node.parent))
            scale = max(1.0, abs(bound))
            # the pool's rows only add to the plain first LP, and Kelley
            # rounds only add rows (to HiGHS's 1e-7 feasibility tolerance);
            # an early-stopped plain loop may still end above the pooled
            # one, because their tangent points differ
            assert first_pooled >= values[0] - 1e-7 * scale
            assert bound >= first_pooled - 1e-7 * scale
            assert bound <= node_grid_min(builder, node) + 1e-9 * scale
        monkeypatch.undo()
        return inherited, restarted


def linprog_reference(cost, lower, upper, matrix, row_lower, row_upper):
    """The LP min ``cost @ z`` over rows ``row_lower <= matrix @ z <=
    row_upper`` within column bounds, solved from scratch by
    ``scipy.optimize.linprog``: the reference for the shared model, given
    the rows it holds. (status, value without the surrogate constant)."""
    matrix = scipy.sparse.csr_array(matrix)
    eq = np.flatnonzero(row_lower == row_upper)
    ub = np.flatnonzero(row_lower != row_upper)
    # every row is an equation or bounded above only
    assert np.isneginf(row_lower[ub]).all()
    res = scipy.optimize.linprog(
        cost,
        A_ub=matrix[ub],
        b_ub=row_upper[ub],
        A_eq=matrix[eq],
        b_eq=row_upper[eq],
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


# the benchmark's other integer-coupled instance (INT_COUPLED is int1)
INT0 = (
    "var x0 in [0, 2]; var n0 in [0, 6] integer;"
    "var x1 in [0, 2]; var n1 in [0, 6] integer;"
    "var x2 in [0, 2]; var n2 in [0, 6] integer;"
    "min 0.9581*(x0 - 0.4951)^2 + 0.3*(n0 - 3.421)^2"
    " + 0.7692*(x1 - 0.7862)^2 + 0.3*(n1 - 2.54)^2"
    " + 1.198*(x2 - 0.2928)^2 + 0.3*(n2 - 4.295)^2;"
    "st -x0 - 0.5*n0 <= -2.153; st -x1 - 0.5*n1 <= -1.985;"
    "st -x2 - 0.5*n2 <= -2.453; st 2*n0 + 3*n1 + 4*n2 <= 17;"
)

# a nonconvex and a convex component of each degree: a wavy and a
# quadratic continuous covariate, and a wavy and a quadratic integer one,
# each lifted over its integer points
INT_MIXED = (
    "var x0 in [0, 2]; var n0 in [0, 6] integer;"
    "var x1 in [0, 2]; var n1 in [0, 6] integer;"
    "min sin(4*x0) + 0.5*(x0 - 1)^2 + 0.5*sin(2*n0)"
    " + 1.1*(x1 - 0.7)^2 + 0.3*(n1 - 2.5)^2;"
    "st x0 + x1 <= 2.5; st 2*n0 + 3*n1 <= 14;"
)


def coupled_surrogates():
    return [
        surrogate_for(parse_instance(INT_COUPLED), intervals=8),
        surrogate_for(parse_instance(SPATIAL_4D), intervals=20),
    ]


class TestDegreeOneTrees:
    """At degree 1 or 0 no piece has curvature, so every node is one LP and
    the cost is the tree. Each integer covariate is lifted over its 7
    integer points, whose LP relaxation is their convex hull, and the
    benchmark's two generated integer instances close within 600 nodes. At
    degree 1 every piece is convex, so each is relaxed by its segment lines
    alone and only integers are branched on: 7/5 nodes. At degree 0 the
    continuous covariates' step pieces keep their binaries and SOS1
    branching, and the lifted integer pieces are convex: the two kinds mix,
    in 277/213 nodes. With the multiple-choice model for every piece they
    took 103/59 and 399/341 nodes; over the spline's 20 intervals
    1,051/995 and 1,753/1,635, and fixing one interval binary at a time
    took 14,367 and 8,735 at degree 1."""

    @staticmethod
    def solve_at(degree, text):
        inst = parse_instance(text)
        cfg = MissocConfig(degrees=degree, intervals=20)
        surr = build_surrogate(fit_stage(inst, sample_training(inst, cfg), cfg), inst)
        return solve(surr, node_cap=600)

    @pytest.mark.parametrize("text, want", [
        (INT0, 4.35435527775), (INT_COUPLED, 4.02934990418),
    ], ids=["int0", "int1"])
    def test_degree_one_integer_trees_stay_small(self, text, want):
        report = self.solve_at(1, text)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(want, rel=1e-10)
        assert report.convex_components == 6

    @pytest.mark.parametrize("text, want", [
        (INT0, 4.30140009863), (INT_COUPLED, 4.05746413617),
    ], ids=["int0", "int1"])
    def test_degree_zero_integer_trees_stay_small(self, text, want):
        report = self.solve_at(0, text)
        assert report.status == "optimal"
        assert report.objective == pytest.approx(want, rel=1e-10)
        assert report.convex_components == 3

    @pytest.mark.parametrize("text", [INT0, INT_COUPLED], ids=["int0", "int1"])
    def test_degree_zero_mixes_both_kinds(self, text):
        """The step pieces of the continuous covariates keep their 20
        interval binaries each; the lifted integer pieces get none."""
        inst = parse_instance(text)
        cfg = MissocConfig(degrees=0, intervals=20)
        surr = build_surrogate(fit_stage(inst, sample_training(inst, cfg), cfg), inst)
        kinds = [convex_piece_reference(comp) for comp in surr.components]
        assert kinds == [False, True] * 3
        builder = bnb._LPBuilder(surr, 1e-4)
        assert builder.convex_components == 3
        assert len(builder.y_cols) == 3 * 20
        for j, convex in enumerate(kinds):
            span = builder.span(j)
            assert (span.stop - span.start) == (0 if convex else 20)


def convex_piece(rng, degree, k, kink=None):
    """A random piece on [0, 1], convex on its whole domain: k intervals
    between random knots, each convex (a line at degree 1, its slope
    rising knot by knot), the value and slope carried across each knot.
    ``kink`` = (jump, drop) adds jump to the value and takes drop off the
    slope at the second interior knot, where at degree 1 the slope
    otherwise holds."""
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, k - 1)), [1.0]])
    coeffs = np.zeros((k, degree + 1))
    value, slope = rng.normal(), rng.uniform(-3.0, 1.0)
    for q, w in enumerate(np.diff(bp)):
        coeffs[q, :2] = value, slope
        if degree >= 2:
            coeffs[q, 2] = rng.uniform(0.1, 3.0)
        if degree == 3:
            # phi'' = 2 c2 + 6 c3 d >= 0 on [0, w]
            coeffs[q, 3] = rng.uniform(-0.9 * coeffs[q, 2] / (3.0 * w), 3.0)
        value = poly_val(coeffs[q], w)
        rise = rng.uniform(0.0, 2.0)
        if degree >= 2:
            slope = poly_val(poly_der(coeffs[q]), w)
        elif kink is None or q != 1:
            slope += rise
        if kink is not None and q == 1:
            value += kink[0]
            slope -= kink[1]
    return PiecewisePoly(bp, coeffs)


# the variables of ``random_convex_surrogate``
CONVEX_BOXES = (
    "var x1 in [0, 1]; var x2 in [0, 1]; var n in [0, 4] integer;"
    "min x1 + x2 + n; st x1 + x2 + 0.2*n >= 1;"
)


def random_convex_surrogate(seed):
    """Every component convex on its whole domain: x1 of degree 2 or 3, x2
    of degree 3 or 1, and the integer n lifted over its five integer
    points from a convex quadratic (closed by its zero-width interval),
    coupled by x1 + x2 + 0.2 n >= 1."""
    rng = np.random.default_rng(seed)
    inst = parse_instance(CONVEX_BOXES)
    quadratic = PiecewisePoly(np.array([0.0, 4.0]), np.array(
        [[rng.normal(), rng.uniform(-2.0, 0.0), rng.uniform(0.05, 0.5)]]))
    pieces = (
        convex_piece(rng, (2, 3)[seed % 2], 4 + seed % 3),
        convex_piece(rng, (3, 1)[seed % 2], 5),
        integer_points_lift(quadratic, np.arange(0.0, 5.0)),
    )
    return SurrogateMINLP(
        constant=0.0,
        linear={},
        components=tuple(SurrogateComponent(v, p)
                         for v, p in zip(("x1", "x2", "n"), pieces)),
        variables=inst.variables,
        constraint_rows=inst.constraint_rows,
    )


def convex_grid_min(surr, n=4001):
    """The least surrogate value over feasible points of a dense grid of
    ``random_convex_surrogate``'s box: x1 on the grid, n on its integers,
    and x2 at the point of [1 - x1 - 0.2 n, 1] nearest the grid minimiser
    of its piece, which is where a convex piece is least on that range.
    Each grid holds the knots, where a degree-1 piece has its kinks, and x1
    also the points that put x2 on a knot of its piece at the bound."""
    f1, f2, f3 = (comp.piece for comp in surr.components)
    xs = np.linspace(0.0, 1.0, n)
    x2s = np.union1d(xs, f2.breakpoints)
    best2 = x2s[int(np.argmin([f2(x) for x in x2s]))]
    xs = np.union1d(xs, np.concatenate([f1.breakpoints] + [
        np.clip(1.0 - 0.2 * k - f2.breakpoints, 0.0, 1.0) for k in range(5)]))
    v1 = np.array([f1(x) for x in xs])
    least = math.inf
    for k in range(5):
        low = np.maximum(1.0 - xs - 0.2 * k, 0.0)
        ok = low <= 1.0
        v2 = np.array([f2(x) for x in np.maximum(low[ok], best2)])
        least = min(least, float((v1[ok] + v2).min()) + f3(float(k)))
    return least


class TestConvexComponents:
    """A component whose piece is convex on its whole domain is relaxed by
    tangent rows on (x, sigma) alone; every other keeps its interval
    binaries."""

    @staticmethod
    def one_piece_surrogate(piece):
        inst = parse_instance("var x in [0, 3]; min x;")
        return SurrogateMINLP(
            constant=0.0,
            linear={},
            components=(SurrogateComponent("x", piece),),
            variables=inst.variables,
            constraint_rows=inst.constraint_rows,
        )

    @staticmethod
    def bump(c):
        """x^2 on [0, 3] as three quartics, c d^2 (1 - d)^2 added to the
        middle one: the value and slope at every knot are x^2's. The middle
        interval's least curvature, at its centre, is 2 - c, and the
        Bernstein bound that ``interval_cuts`` tests is 2 - 4 c."""
        coeffs = np.array([[0.0, 0.0, 1.0, 0.0, 0.0],
                           [1.0, 2.0, 1.0 + c, -2.0 * c, c],
                           [4.0, 4.0, 1.0, 0.0, 0.0]])
        return PiecewisePoly(np.arange(4.0), coeffs)

    def kept_binaries(self, piece):
        """Whether the one-piece surrogate keeps every interval binary, as
        the builder and ``solve`` report it, checked against the
        reference rule."""
        surr = self.one_piece_surrogate(piece)
        builder = bnb._LPBuilder(surr, 1e-4)
        kept = builder.convex_components == 0
        assert kept == (not convex_piece_reference(surr.components[0]))
        assert len(builder.y_cols) == (piece.k if kept else 0)
        report = solve(surr, gap_tol=1e-6)
        assert report.status == "optimal"
        assert report.convex_components == builder.convex_components
        xs = np.linspace(0.0, 3.0, 3001)
        assert report.objective <= min(piece(x) for x in xs) + 1e-9
        return kept

    def test_a_nonconvex_interval_keeps_its_binaries(self):
        assert not self.kept_binaries(self.bump(0.0))
        assert not self.kept_binaries(self.bump(0.4))
        # continuous with a continuous slope, but concave mid-interval
        assert self.kept_binaries(self.bump(6.0))

    def test_a_decreasing_slope_keeps_its_binaries(self):
        bp = np.arange(4.0)
        rising = np.array([[0.0, 1.0], [1.0, 1.5], [2.5, 2.0]])
        assert not self.kept_binaries(PiecewisePoly(bp, rising))
        # the slope falls from 1.5 to 0.5 at x = 2
        falling = np.array([[0.0, 1.0], [1.0, 1.5], [2.5, 0.5]])
        assert self.kept_binaries(PiecewisePoly(bp, falling))

    def test_a_step_piece_keeps_its_binaries(self):
        # the surrogate of test_incumbent_scored_with_the_lp_interval_at_a_knot
        piece = PiecewisePoly(np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
                              np.array([[3.0], [1.0], [2.0], [2.5]]))
        assert not convex_piece_reference(SurrogateComponent("x", piece))
        inst = parse_instance("var x in [0, 1]; min x; st 0.5 - x <= 0;")
        surr = SurrogateMINLP(0.0, {}, (SurrogateComponent("x", piece),),
                              inst.variables, inst.constraint_rows)
        builder = bnb._LPBuilder(surr, 1e-6)
        assert builder.convex_components == 0 and len(builder.y_cols) == 4
        assert solve(surr, gap_tol=1e-6).convex_components == 0

    def test_lifted_integer_component_is_tangent_only_and_exact(self):
        """A lifted integer piece, its zero-width closing interval included,
        gets no interval columns; its segment lines give the piece at every
        integer, and their maximum, the convex hull of the integer points,
        between them."""
        quadratic = PiecewisePoly(np.array([0.0, 6.0]), np.array([[0.5, -1.3, 0.4]]))
        piece = integer_points_lift(quadratic, np.arange(0.0, 7.0))
        assert piece.breakpoints[-1] == piece.breakpoints[-2]  # closing interval
        inst = parse_instance("var n in [0, 6] integer; min n^2;")
        surr = SurrogateMINLP(0.0, {}, (SurrogateComponent("n", piece),),
                              inst.variables, inst.constraint_rows)
        builder = bnb._LPBuilder(surr, 1e-4)
        assert builder.convex_components == 1 and len(builder.y_cols) == 0
        assert builder.ncols == 2  # n and sigma
        for x in np.arange(0.0, 6.5, 0.5):
            lower, upper = builder.lower.copy(), builder.upper.copy()
            lower[0] = upper[0] = x
            status, value, _ = bnb.relax_node(bnb._SharedLP(builder),
                                              Node(0, lower, upper))
            lo, hi = math.floor(x), math.ceil(x)
            want = piece(lo) + (x - lo) * (piece(hi) - piece(lo))
            assert status == "optimal"
            assert value == pytest.approx(want, abs=1e-12)
        report = solve(surr)
        assert report.objective == min(piece(i) for i in range(7))

    def test_rule_matches_the_reference_on_random_pieces(self):
        """The builder's rule gives the reference's answer on random convex
        pieces, on copies with a jump or a slope drop at one knot of 10
        times the tolerance (not convex) or a tenth of it (convex), a slope
        rise there (convex), and on copies with one interval made concave;
        all of them components of one surrogate."""
        comps, want = [], []
        for seed, degree in enumerate((1, 2, 3) * 8):
            piece = convex_piece(np.random.default_rng(seed), degree, 5, (0.0, 0.0))
            tol = bnb.KNOT_TOL * max(1.0, np.abs(piece.coeffs).max())
            comps.append(piece)
            want.append(True)
            for jump, drop, convex in ((10.0, 0.0, False), (-10.0, 0.0, False),
                                       (0.1, 0.0, True), (0.0, 10.0, False),
                                       (0.0, 0.1, True), (0.0, -10.0, True)):
                kink = (jump * tol, drop * tol)
                comps.append(convex_piece(np.random.default_rng(seed), degree, 5, kink))
                want.append(convex)
            if degree >= 2:
                coeffs = piece.coeffs.copy()
                coeffs[2, 2] = -1.0
                comps.append(PiecewisePoly(piece.breakpoints, coeffs))
                want.append(False)
        comps = [SurrogateComponent(f"x{j}", piece) for j, piece in enumerate(comps)]
        assert [convex_piece_reference(comp) for comp in comps] == want
        inst = parse_instance("".join(f"var {c.var} in [0, 1];" for c in comps)
                              + "min x0;")
        builder = bnb._LPBuilder(
            SurrogateMINLP(0.0, {}, tuple(comps), inst.variables, inst.constraint_rows),
            1e-4)
        spans = [builder.span(j) for j in range(len(comps))]
        assert [span.start == span.stop for span in spans] == want
        assert builder.convex_components == sum(want)

    def test_a_capped_loop_on_a_convex_component_is_relaxed_again(self, monkeypatch):
        """A node whose Kelley loop stops at KELLEY_CAP with the gap on
        convex components, which have no interval to branch on, is relaxed
        again as one child, its tangents kept, so the solve still closes
        the gap (with a cap of 3 the root alone leaves it open)."""
        monkeypatch.setattr(bnb, "KELLEY_CAP", 3)
        for seed in range(3):
            surr = random_convex_surrogate(seed)
            report = solve(surr, gap_tol=1e-6)
            assert report.kelley_cap_hits >= 2 and report.nodes > 1
            assert report.status == "optimal"
            want = convex_grid_min(surr)
            assert abs(report.objective - want) <= 1e-6 * max(1.0, abs(want))

    def test_root_bound_and_optimum_against_a_dense_grid(self):
        """On random all-convex surrogates the root bound is at most the
        dense grid's minimum and the optimum is within gap_tol of it."""
        for seed in range(10):
            surr = random_convex_surrogate(seed)
            assert all(convex_piece_reference(comp) for comp in surr.components)
            want = convex_grid_min(surr)
            builder, _, lp = solved_root(surr)
            assert builder.convex_components == 3 and len(builder.y_cols) == 0
            root = lp.model.getObjectiveValue() + surr.constant
            scale = max(1.0, abs(want))
            assert root <= want + 1e-9 * scale
            report = solve(surr, gap_tol=1e-4)
            assert report.status == "optimal"
            assert report.lower_bound <= want + 1e-9 * scale
            assert abs(report.objective - want) <= 1e-4 * scale


class TestNodeLPSolve:
    def record(self, monkeypatch, run):
        """Each LP the shared models solve while ``run()`` runs, with the
        model's answer: (builder, LP, status, value, first, warm,
        tightening). LP holds the costs, column bounds and rows the model
        holds, as ``linprog_reference`` takes them; ``first`` is whether it
        is a node's first LP and ``warm`` whether it started from a basis.
        ``tightening`` is whether it is a root tightening LP, whose last row
        is the cutoff row."""
        lps = []
        lp_solve = bnb._SharedLP.solve
        relax = bnb.relax_node
        first = []

        def spy_relax(lp, node):
            first.append(True)
            return relax(lp, node)

        def spy(model):
            warm = model.model.getBasis().valid
            builder = model.builder
            matrix, row_lower, row_upper = model_rows(model)
            cost = np.array(model.model.getLp().col_cost_)
            tightening = bits(cost) != bits(builder.obj)
            if tightening:
                # the last row, appended to the model, is the cutoff row
                assert bits(matrix.toarray()[-1]) == bits(builder.obj)
            lp = (cost, model.lower.copy(), model.upper.copy(), matrix,
                  row_lower, row_upper)
            out = lp_solve(model)
            lps.append((builder, lp) + out[:2] + (bool(first), warm, tightening))
            first.clear()
            return out

        monkeypatch.setattr(bnb._SharedLP, "solve", spy)
        monkeypatch.setattr(bnb, "relax_node", spy_relax)
        run()
        monkeypatch.undo()
        return lps

    def test_highs_model_matches_linprog_round_by_round(self, monkeypatch):
        def shipped():
            for name in SHIPPED:
                surr = shipped_surrogate(name)
                solve(surr)
                builder = bnb._LPBuilder(surr, 1e-4)
                bnb.relax_node(bnb._SharedLP(builder), branched_node(builder))

        def random_trees():
            for seed in range(3):
                surr = random_surrogate(seed)
                solve(surr)
                builder = bnb._LPBuilder(surr, 1e-4)
                lp = bnb._SharedLP(builder)
                tree_nodes(lp, 25)
                # x1 + x2 >= 0.8 cannot hold on these nodes
                low = choose_interval_reference(surr, {}, 0, 0)
                low = choose_interval_reference(surr, low, 1, 0)
                for node in (
                    dict_node(builder, low, depth=1),
                    dict_node(builder, var_bounds={"x1": (0.0, 0.3),
                                                   "x2": (0.0, 0.4)},
                              depth=1),
                ):
                    bnb.relax_node(lp, node)

        def coupled_trees():
            for surr in coupled_surrogates():
                solve(surr)

        statuses = []
        kelley_rounds = 0
        warm_firsts = 0
        tightening_lps = 0
        for run in (shipped, random_trees, coupled_trees):
            lps = self.record(monkeypatch, run)
            for builder, lp, status, value, first, warm, tightening in lps:
                warm_firsts += first and warm
                if tightening:
                    # min or max of one component's x column
                    (col,) = np.flatnonzero(lp[0])
                    assert abs(lp[0][col]) == 1.0
                    assert col in builder.x_col
                    tightening_lps += 1
                want_status, want = linprog_reference(*lp)
                assert status == want_status
                if status == "optimal":
                    assert abs(value - want) <= 1e-7 * max(1.0, abs(want))
                statuses.append(status)
            # a Kelley re-solve: the same node's LP with more rows
            kelley_rounds += sum(
                a[0] is b[0] and not b[4] and not b[6]
                and a[1][3].shape[0] < b[1][3].shape[0]
                for a, b in zip(lps, lps[1:])
            )
        # roots, branched nodes, Kelley re-solves and pruned nodes
        assert statuses.count("infeasible") >= 6
        assert kelley_rounds >= 50
        # first LPs of full-tree nodes, started from their parent's basis
        assert warm_firsts >= 20
        assert tightening_lps >= 8

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
            bnb.relax_node(bnb._SharedLP(builder), dict_node(builder))

    @pytest.mark.parametrize("model_status", [
        "kInfeasible", "kUnboundedOrInfeasible",
    ])
    def test_infeasible_lp_prunes(self, monkeypatch, model_status):
        self.stub_model_status(monkeypatch, model_status)
        builder = bnb._LPBuilder(random_surrogate(0), 1e-4)
        status, value, z = bnb.relax_node(bnb._SharedLP(builder),
                                          dict_node(builder))
        assert (status, value, z) == ("infeasible", math.inf, None)

    def test_unbounded_or_infeasible_with_a_free_column_raises(
        self, monkeypatch
    ):
        self.stub_model_status(monkeypatch, "kUnboundedOrInfeasible")
        surr = surrogate_for(parse_instance(FREE_LINEAR), intervals=4)
        builder = bnb._LPBuilder(surr, 1e-4)
        with pytest.raises(bnb.LPError, match="kUnboundedOrInfeasible"):
            bnb.relax_node(bnb._SharedLP(builder), dict_node(builder))

    def test_set_basis_error_raises(self, monkeypatch):
        class Stub(bnb.highs._Highs):
            def setBasis(self, basis):
                return bnb.highs.HighsStatus.kError

        monkeypatch.setattr(bnb.highs, "_Highs", Stub)
        # the root of this tree branches, and a node reached by a jump
        # starts from its parent's saved basis
        with pytest.raises(bnb.LPError, match="setBasis"):
            solve(coupled_surrogates()[0])

    # one case, under the id it has always had
    @pytest.mark.parametrize("highs", [True])
    def test_unbounded_lp_raises(self, highs):
        surr = surrogate_for(parse_instance(FREE_LINEAR), intervals=4)
        with pytest.raises(bnb.LPError, match="nbounded"):
            solve(surr)


class TestWarmStart:
    @staticmethod
    def count_basis_reads(monkeypatch):
        """Every ``getBasis`` the solver makes, as the list it returns: True
        for a read inside ``_tighten_root``, else False."""
        reads = []
        inside = []
        tighten = bnb._tighten_root

        class Stub(bnb.highs._Highs):
            def getBasis(self):
                reads.append(bool(inside))
                return super().getBasis()

        def flagged(*args):
            inside.append(True)
            try:
                return tighten(*args)
            finally:
                inside.clear()

        monkeypatch.setattr(bnb.highs, "_Highs", Stub)
        monkeypatch.setattr(bnb, "_tighten_root", flagged)
        return reads

    def test_basis_read_once_per_branching_node(self, monkeypatch):
        """Only a node that branches reads its final basis, once for both
        children; a pruned or exact node does not. A tightened root also
        reads its start basis for the tightening LPs, once."""
        reads = self.count_basis_reads(monkeypatch)
        pushes = []
        heappush = bnb.heapq.heappush

        def spy_push(heap, item):
            pushes.append(item[2])
            heappush(heap, item)

        monkeypatch.setattr(bnb.heapq, "heappush", spy_push)
        nodes = branched = tightened = 0
        for surr in [shipped_surrogate(name) for name in SHIPPED] + coupled_surrogates():
            reads.clear()
            pushes.clear()
            report = solve(surr)
            nodes += report.nodes
            parents = {id(node.parent) for node in pushes[1:]}
            node_reads = reads.count(False)
            assert reads.count(True) == (report.tightening_lps > 0)
            assert node_reads == len(parents)
            assert all(node.parent.basis is not None for node in pushes[1:])
            assert 2 * node_reads == len(pushes) - 1  # the root is pushed too
            branched += node_reads
            tightened += reads.count(True)
        assert 0 < branched < nodes and tightened >= 1

    def test_warm_first_lp_matches_cold(self, monkeypatch):
        """On full trees, each node's first LP, started from the basis
        HiGHS holds (a child of the node just solved) or from its parent's
        saved basis (a jump), gives the status and value of the same LP
        solved cold, and both children of a node hold the same parent and
        so the same saved basis."""
        compared = []
        kept = []
        lp_solve = bnb._SharedLP.solve
        relax = bnb.relax_node
        heappush = bnb.heapq.heappush
        pushed = []
        first = []

        def spy_relax(lp, node):
            # below the root: whether the model holds the parent's final
            # basis
            first[:] = [] if node.parent is None else [node.parent is lp.warm]
            return relax(lp, node)

        def spy_solve(model):
            if not first:
                return lp_solve(model)
            keeps = first.pop()
            assert model.model.getBasis().valid
            cold = highs_copy(model.model)
            assert not cold.getBasis().valid
            out = lp_solve(model)
            assert cold.run() == bnb.highs.HighsStatus.kOk
            status = cold.getModelStatus()
            assert status in (bnb.highs.HighsModelStatus.kOptimal,
                              bnb.highs.HighsModelStatus.kInfeasible)
            assert out[0] == ("optimal" if status == bnb.highs.HighsModelStatus.kOptimal
                              else "infeasible")
            if out[0] == "optimal":
                value = cold.getObjectiveValue()
                assert abs(out[1] - value) <= 1e-7 * max(1.0, abs(value))
            compared.append(out[0])
            kept.append(keeps)
            return out

        def spy_push(heap, item):
            pushed.append(item[2])
            heappush(heap, item)

        monkeypatch.setattr(bnb._SharedLP, "solve", spy_solve)
        monkeypatch.setattr(bnb, "relax_node", spy_relax)
        monkeypatch.setattr(bnb.heapq, "heappush", spy_push)
        surrogates = [shipped_surrogate(name) for name in SHIPPED]
        surrogates += [random_surrogate(seed) for seed in range(3)]
        surrogates += coupled_surrogates()
        # INT_COUPLED's components are convex, so its tree is small: a
        # nonconvex tree of 13 nodes brings the nodes below a root
        surrogates.append(surrogate_for(parse_instance(SPATIAL_4D), intervals=6))
        for surr in surrogates:
            pushed.clear()
            first.clear()
            report = solve(surr)
            assert report.status == "optimal"
            root, children = pushed[0], pushed[1:]
            assert root.parent is None and len(children) % 2 == 0
            for left, right in zip(children[::2], children[1::2]):
                assert left.parent is not None and left.parent is right.parent
                assert left.parent.basis is not None
            first.clear()
        monkeypatch.undo()
        assert len(compared) >= 20
        # both starts occur: the basis HiGHS holds and a restored one
        assert any(kept) and not all(kept)


def highs_copy(model):
    """A new HiGHS model holding ``model``'s LP (its ``getLp``), without a
    basis."""
    copy = bnb.highs._Highs()
    copy.setOptionValue("output_flag", False)
    dual = bnb.highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    copy.setOptionValue("simplex_strategy", dual)
    assert copy.passModel(model.getLp()) == bnb.highs.HighsStatus.kOk
    return copy


def relax_node_per_key(lp, node):
    """``relax_node`` with the Kelley round evaluating phi and phi' one
    convex key at a time with ``polyval``: each Kelley interval, then each
    convex component of degree 2 or more at the interval holding its x (y
    taken as 1 and sigma as sp). The reference for the stacked Horner
    evaluation."""
    builder = lp.builder
    surr = builder.surr
    p = len(surr.components)
    lower, upper = node.lower, node.upper
    if (lower[: builder.nv] > upper[: builder.nv]).any():
        return "infeasible", math.inf, None
    kelley = lp.enter(node)
    curved = [j for j, comp in enumerate(surr.components)
              if comp.degree >= 2 and convex_piece_reference(comp)]
    found = []
    for rnd in range(bnb.KELLEY_CAP):
        status, fun, z = lp.solve()
        if status == "infeasible":
            return "infeasible", math.inf, None
        value = fun + surr.constant
        # per key: (j, q, y, dev, sp, the range of dev)
        keys = []
        for i in kelley.tolist():
            y_col = builder.y_cols[i]
            keys.append(interval_key(builder, i) + tuple(z[y_col : y_col + 3])
                        + (lower[y_col + 1], upper[y_col + 1]))
        for j in curved:
            comp = surr.components[j]
            x = z[builder.col_x[comp.var]]
            positive = np.flatnonzero(comp.widths > 0.0)
            at = np.searchsorted(comp.breakpoints[positive], x, side="right")
            q = int(positive[max(at - 1, 0)])
            keys.append((j, q, 1.0, x - comp.breakpoints[q], z[builder.ncols - p + j],
                         0.0, comp.widths[q]))
        new, gains = [], []
        for j, q, y, dev, sp, lo, hi in keys:
            phi = surr.components[j].piece.coeffs[q].copy()
            phi[0] = 0.0
            c0 = surr.components[j].piece.coeffs[q][0]
            gap = c0 * y + poly_val(phi, dev) - sp
            if gap <= 1e-10 * max(1.0, abs(sp)):
                continue
            at = min(max(dev, lo), hi)
            a = poly_val(poly_der(phi), at)
            b = poly_val(phi, at) - a * at
            new.append((table_index(builder, j, q), a, b))
            gains.append((c0 + b) * y + a * dev - sp)
        if not new:
            break
        index, a, b = zip(*new)
        new = bnb.Tangents(np.array(index), np.array(a), np.array(b))
        gain = np.sum(gains)
        if gain <= builder.progress_tol * max(1.0, abs(value)):
            break
        if rnd == bnb.KELLEY_CAP - 1:
            lp.kelley_cap_hits += 1
            break
        lp.add_rows([builder.cut_rows(*new)])
        found.append(new)
    if found:
        node.tangents = bnb.Tangents(*map(np.concatenate, zip(*found)))
    node.end = lp.model.getNumRow()
    return "optimal", value, z


class TestKelleyEvaluation:
    def test_horner_matches_poly_val_bitwise(self):
        """The Kelley tables hold phi and phi' of every interval, zero-padded
        to one width; Horner on a table row, at one value or a row of
        values, has the bits of ``polyval`` on the unpadded polynomial."""
        rng = np.random.default_rng(5)
        for surr in [random_surrogate(seed) for seed in range(3)]:
            builder = bnb._LPBuilder(surr, 1e-4)
            phis = [deviation_poly(builder, i) for i in range(len(builder.comp))]
            x = rng.uniform(-3.0, 3.0, size=(len(phis), 4))
            x[:, 0] = 0.0
            for table, poly in ((builder.phi, phis),
                                (builder.dphi, [poly_der(phi) for phi in phis])):
                for xv in (x, -x[:, ::-1]):
                    ref = [[poly_val(c, v) for v in row] for c, row in zip(poly, xv)]
                    assert bits(horner(table, xv)) == bits(ref)
                    assert bits(horner(table, xv[:, 1])) == bits([r[1] for r in ref])

    @pytest.mark.parametrize("source", ["random", "shipped"])
    def test_solve_matches_per_key_loop(self, source, monkeypatch):
        """Nodes, LP solves, simplex iterations, x* and the objective are
        bit-identical to the per-key Kelley loop."""
        if source == "random":
            surrs = [random_surrogate(seed) for seed in range(4)]
        else:
            surrs = [shipped_surrogate(name) for name in SHIPPED]
        for surr in surrs:
            got = solve(surr, gap_tol=1e-4)
            with monkeypatch.context() as m:
                m.setattr(bnb, "relax_node", relax_node_per_key)
                ref = solve(surr, gap_tol=1e-4)
            assert (got.nodes, got.lp_solves, got.simplex_iterations) == (
                ref.nodes, ref.lp_solves, ref.simplex_iterations,
            )
            assert got.objective == ref.objective and got.status == ref.status
            np.testing.assert_array_equal(got.x, ref.x)

    def test_loop_below_the_cap_ends_on_the_remaining_gap(self):
        """A Kelley loop that ends below the cap leaves no tangent to add,
        or tangents whose summed violation at the final LP point, which
        bounds what another round could gain, is within ``progress_tol``;
        a round that gained little does not stop it while more remains."""
        checked = 0
        # the first 400 breadth-first nodes of each tree; random_surrogate(3)
        # holds a loop with a round that gains less than progress_tol while
        # more than that remains
        for surr in [random_surrogate(seed) for seed in range(4)]:
            builder = bnb._LPBuilder(surr, 1e-4)
            lp = bnb._SharedLP(builder)
            kelley = record_kelley_sets(lp)
            queue, seen = [dict_node(builder)], 0
            while queue and seen < 400:
                node = queue.pop(0)
                seen += 1
                hits = lp.kelley_cap_hits
                status, value, z = bnb.relax_node(lp, node)
                if status != "optimal":
                    continue
                if lp.kelley_cap_hits == hits:
                    gain = 0.0
                    for i in kelley[id(node)].tolist():
                        j, q = interval_key(builder, i)
                        phi = deviation_poly(builder, i)
                        col = builder.y_cols[i]
                        y, dev, sp = z[col], z[col + 1], z[col + 2]
                        c0 = surr.components[j].piece.coeffs[q][0]
                        if c0 * y + poly_val(phi, dev) - sp <= 1e-10 * max(1.0, abs(sp)):
                            continue
                        at = min(max(dev, node.lower[col + 1]), node.upper[col + 1])
                        a = poly_val(poly_der(phi), at)
                        b = poly_val(phi, at) - a * at
                        gain += (c0 + b) * y + a * dev - sp
                    assert gain <= builder.progress_tol * max(1.0, abs(value))
                    checked += 1
                children = bnb._branch(builder, node, z)
                if children:
                    node.basis = lp.model.getBasis()
                    queue.extend(children)
        assert checked >= 1000


# the benchmark's continuous family: six wavy covariates, coupled in pairs
SPATIAL_6D = (
    "var x0 in [0, 2]; var x1 in [0, 2]; var x2 in [0, 2];"
    "var x3 in [0, 2]; var x4 in [0, 2]; var x5 in [0, 2];"
    "min sin(4.08*x0) + 0.47*(x0 - 1)^2 + sin(5.11*x1) + 0.53*(x1 - 1)^2"
    " + sin(3.42*x2) + 0.51*(x2 - 1)^2 + sin(4.57*x3) + 0.46*(x3 - 1)^2"
    " + sin(5.39*x4) + 0.55*(x4 - 1)^2 + sin(3.86*x5) + 0.49*(x5 - 1)^2;"
    "st x0 + x1 <= 2.35; st x2 + x3 <= 2.05; st x4 + x5 <= 2.55;"
)
# an integer covariate whose LP bounds are the integers 2 and 6
INT_FLOOR = (
    "var n in [0, 6] integer; var x in [0, 2];"
    "min 0.3*(n - 3.3)^2 + (x - 0.5)^2; st n >= 2;"
)


def surrogate_grid(surr, n=201):
    """Every variable of the surrogate on a grid, integer points for an
    integer variable: the points (one column per variable, in declaration
    order), the surrogate's value at each and whether it meets the linear
    constraints."""
    axes = [
        np.arange(math.ceil(v.lower), math.floor(v.upper) + 1.0) if v.integer
        else np.linspace(v.lower, v.upper, n)
        for v in surr.variables
    ]
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    points = points.reshape(-1, len(axes))
    idx = surr.var_index()
    value = np.full(len(points), surr.constant)
    for name, coeff in surr.linear.items():
        value += coeff * points[:, idx[name]]
    for comp in surr.components:
        at, where = np.unique(points[:, idx[comp.var]], return_inverse=True)
        value += np.array([comp.piece(x) for x in at])[where]
    feasible = np.ones(len(points), dtype=bool)
    rows = surr.constraint_rows
    for a, const, eq in zip(rows.A, rows.b, rows.eq):
        lhs = const + sum(
            c * points[:, idx[v.name]] for v, c in zip(surr.variables, a)
        )
        feasible &= np.abs(lhs) <= 1e-12 if eq else lhs <= 0.0
    return points, value, feasible


def tighten_root_reference(lp, ub):
    """``bnb._tighten_root`` as it was first written: the same cutoff row,
    zero costs and 2p LPs, by dual simplex, each from the basis the last
    one left; the reference for the box the primal start gives. (Only a
    multiple-choice interval can be fixed off.)"""
    builder, model, ncols = lp.builder, lp.model, lp.builder.ncols
    cols = np.flatnonzero(builder.obj).astype(np.int32)
    cutoff = np.array([model.getNumRow()], dtype=np.int32)
    model.addRow(-np.inf, ub - builder.surr.constant, len(cols), cols,
                 builder.obj[cols])
    model.changeColsCost(ncols, lp.cols, np.zeros(ncols))
    lp.warm = None
    lower, upper = lp.lower.copy(), lp.upper.copy()
    integer = set(builder.int_cols.tolist())
    try:
        for col in [builder.col_x[comp.var] for comp in builder.surr.components]:
            for sense in (1.0, -1.0):
                model.changeColCost(col, sense)
                try:
                    status, value, _ = lp.solve()
                except bnb.LPError:
                    status = "unsettled"
                model.changeColCost(col, 0.0)
                if status == "infeasible":
                    return None
                if status != "optimal":
                    continue
                v = sense * value
                v -= sense * bnb.FRAC_TOL * max(1.0, abs(v))
                if col in integer:
                    v = (math.ceil(v - bnb.FRAC_TOL) if sense > 0
                         else math.floor(v + bnb.FRAC_TOL))
                if sense > 0:
                    lower[col] = max(lower[col], v)
                else:
                    upper[col] = min(upper[col], v)
    finally:
        model.deleteRows(1, cutoff)
        model.changeColsCost(ncols, lp.cols, builder.obj)
    if (lower[: builder.nv] > upper[: builder.nv]).any():
        return None
    n = len(builder.y_cols)
    x_col = builder.x_col[:n]
    out = (builder.right[:n] < lower[x_col]) | (builder.left[:n] > upper[x_col])
    for col in builder.y_cols[out].tolist():
        lower[col : col + 3] = upper[col : col + 3] = 0.0
    return lower, upper


def solved_root(surr):
    """A fresh builder, and the root's LP point and its ``_SharedLP``."""
    builder = bnb._LPBuilder(surr, 1e-4)
    lp = bnb._SharedLP(builder)
    status, _, z = bnb.relax_node(lp, Node(0, builder.lower, builder.upper))
    assert status == "optimal"
    return builder, z, lp


class TestTryIncumbent:
    def test_constraint_tolerance_matches_the_expression_values(self):
        # violations 5e-7 and 3e-6 either side of each row: a point is kept
        # exactly when the constraint trees read at most 1e-6 ("<=") and at
        # most 1e-6 in magnitude ("=")
        inst = parse_instance(
            "var x in [0, 1]; var y in [0, 1];"
            "min (x - 0.3)^2 + (y - 0.6)^2; st x + y <= 1; st x - y = 0.2;"
        )
        builder = bnb._LPBuilder(surrogate_for(inst, intervals=4), 1e-4)
        kept = []
        for r1 in (-3e-6, -5e-7, 5e-7, 3e-6):
            for r2 in (-3e-6, -5e-7, 5e-7, 3e-6):
                z = np.zeros(builder.ncols)
                z[:2] = 0.6 + (r1 + r2) / 2, 0.4 + (r1 - r2) / 2
                g = inst.constraint_values(z[:2])
                want = g[0] <= 1e-6 and abs(g[1]) <= 1e-6
                assert (bnb._try_incumbent(builder, z) is not None) == want
                kept.append(want)
        assert kept.count(True) == 6


class TestRootTightening:
    def test_no_point_below_the_cutoff_is_cut_off(self):
        """Every grid point of the surrogate whose value is at most the
        cutoff lies in the tightened root box and, for a multiple-choice
        component, in an interval that is not fixed off; cutoffs are the
        root incumbent, the optimum and a looser value."""
        surrs = [random_surrogate(seed, k) for seed in range(10) for k in (4, 8)]
        surrs += [shipped_surrogate(name) for name in SHIPPED]
        checked = narrowed = fixed_off = 0
        for surr in surrs:
            points, value, feasible = surrogate_grid(surr)
            builder, z, _ = solved_root(surr)
            best = solve(surr).objective
            cutoffs = [best, best + 0.05 * max(1.0, abs(best))]
            root = bnb._try_incumbent(builder, z)
            if root is not None:
                cutoffs.append(root[0])
            idx = surr.var_index()
            for ub in cutoffs:
                builder, _, lp = solved_root(surr)
                bounds = bnb._tighten_root(lp, ub)
                below = points[feasible & (value <= ub)]
                if bounds is None:
                    assert len(below) == 0
                    continue
                lower, upper = bounds
                for j, comp in enumerate(surr.components):
                    col = builder.col_x[comp.var]
                    x = below[:, idx[comp.var]]
                    assert (lower[col] <= x).all() and (x <= upper[col]).all()
                    narrowed += bool(lower[col] > builder.lower[col]
                                     or upper[col] < builder.upper[col])
                    if convex_piece_reference(comp):
                        continue  # no interval to fix off
                    y = builder.y_cols[builder.span(j)]
                    live = upper[y] != 0.0
                    bp = comp.breakpoints
                    holds = (bp[:-1] <= x[:, None]) & (x[:, None] <= bp[1:])
                    assert (holds & live).any(axis=1).all()
                    fixed_off += int((~live).sum())
                checked += len(below)
        assert checked >= 2000 and narrowed >= 100 and fixed_off >= 400

    def test_box_equals_the_dual_warm_chain(self):
        """Primal simplex from the root's basis gives the box of the dual
        warm chain it replaced, within 1e-9 relative, with the same
        intervals fixed off. The cutoffs are a value 5% above the root
        incumbent, and the root incumbent where the root's gap is open, as
        when ``solve`` tightens. (Where the gap is closed, the cutoff
        leaves a sliver as thin as HiGHS's feasibility tolerance, and the
        two paths end up to 1.5e-7 apart.)"""
        surrs = [random_surrogate(seed, k) for seed in range(10) for k in (4, 8)]
        surrs += [shipped_surrogate(name) for name in SHIPPED]
        compared = narrowed = 0
        for surr in surrs:
            builder, z, lp = solved_root(surr)
            root = bnb._try_incumbent(builder, z)
            if root is None:
                continue
            lb = lp.model.getObjectiveValue() + surr.constant
            cutoffs = [root[0] + 0.05 * max(1.0, abs(root[0]))]
            if bnb.optimality_gap(root[0], lb) > 100.0 * 1e-4:
                cutoffs.append(root[0])
            for ub in cutoffs:
                got = bnb._tighten_root(solved_root(surr)[2], ub)
                want = tighten_root_reference(solved_root(surr)[2], ub)
                assert (got is None) == (want is None)
                if got is None:
                    continue
                y = builder.y_cols
                for have, ref in zip(got, want):
                    np.testing.assert_allclose(have, ref, rtol=1e-9, atol=1e-9)
                    assert bits(have[y]) == bits(ref[y])
                narrowed += int((want[0] > builder.lower).sum()
                                + (want[1] < builder.upper).sum())
                compared += 1
        assert compared >= 25 and narrowed >= 100

    @pytest.mark.parametrize("outcome", ["solved", "unsettled", "infeasible", "raises"])
    def test_dual_strategy_and_node_costs_come_back(self, monkeypatch, outcome):
        """Node LPs never run primal: after the tightening, whether its LPs
        were solved, raised ``LPError`` (the bound kept), were infeasible
        (the root closed) or raised an error that leaves the tightening, the
        model is back to dual simplex with the node costs and rows."""
        surr = surrogate_for(parse_instance(SPATIAL_6D), intervals=10)
        builder, _, lp = solved_root(surr)
        rows = lp.model.getNumRow()
        lp_solve = bnb._SharedLP.solve

        def stub(model):
            got = lp_solve(model)
            if outcome == "unsettled":
                raise bnb.LPError("node LP ended with HiGHS model status kTimeLimit")
            if outcome == "infeasible":
                return "infeasible", math.inf, None
            if outcome == "raises":
                raise RuntimeError("interrupted")
            return got

        monkeypatch.setattr(bnb._SharedLP, "solve", stub)
        if outcome == "raises":
            with pytest.raises(RuntimeError):
                bnb._tighten_root(lp, 0.0)
        else:
            bnb._tighten_root(lp, 0.0)
        assert lp.tightening_lps >= 1 and lp.tightening_iterations > 0
        assert lp.model.getOptionValue("simplex_strategy")[1] == int(bnb.DUAL)
        assert bits(lp.model.getLp().col_cost_) == bits(builder.obj)
        assert lp.model.getNumRow() == rows

    def test_tightening_writes_nothing(self, capfd):
        """With ``output_flag`` off, the primal tightening LPs print nothing
        to standard output or error, on waves2 and on a random surrogate
        whose root is tightened."""
        surrs = [shipped_surrogate("waves2"), random_surrogate(258, k=8)]
        capfd.readouterr()
        for surr in surrs:
            assert solve(surr).tightening_lps > 0
        assert capfd.readouterr() == ("", "")

    def test_tightening_leaves_the_shared_model_as_it_was(self):
        """The cutoff row is deleted and the costs are restored, so the
        root's children are applied to the model the root left; only
        HiGHS's basis moved, which a child then restores."""
        surr = surrogate_for(parse_instance(SPATIAL_6D), intervals=10)
        builder, z, lp = solved_root(surr)
        before = lp_fields(lp.model.getLp())
        ub = bnb._try_incumbent(builder, z)[0]
        assert bnb._tighten_root(lp, ub) is not None
        assert lp.tightening_lps == 2 * len(surr.components)
        after = lp_fields(lp.model.getLp())
        assert after.keys() == before.keys()
        for key, value in before.items():
            if isinstance(value, (list, np.ndarray)):
                assert bits(after[key]) == bits(value), key
            else:
                assert after[key] == value, key
        assert lp.warm is None

    def test_fewer_nodes_on_the_continuous_family(self, monkeypatch):
        """On a six-covariate instance of the benchmark's continuous family
        the tightened root leaves a tree of a few nodes; branching on the
        root's own box (the tightening LPs solved, their bounds dropped)
        takes more: 5 against 3 with scipy 1.17's HiGHS (19 under the
        one-binary branching that SOS1 branching replaced)."""
        surr = surrogate_for(parse_instance(SPATIAL_6D), intervals=20)
        report = solve(surr)
        assert report.status == "optimal" and report.nodes <= 5
        assert report.tightening_lps == 2 * len(surr.components)
        assert report.lp_solves >= report.nodes + report.tightening_lps
        assert 0 < report.tightening_iterations < report.simplex_iterations
        tighten = bnb._tighten_root

        def untightened(lp, ub):
            tighten(lp, ub)
            return lp.lower.copy(), lp.upper.copy()

        monkeypatch.setattr(bnb, "_tighten_root", untightened)
        wide = solve(surr)
        assert wide.status == "optimal" and wide.nodes > report.nodes
        assert abs(wide.objective - report.objective) <= 1e-4

    def test_integer_bounds_round_inward(self, monkeypatch):
        """An integer column's LP bound keeps the integer it is within
        FRAC_TOL of after widening (so 2 + 1e-8 and 2 + 2.5e-6 keep 2), and
        one further inside rounds inward to the next integer."""
        surr = surrogate_for(parse_instance(INT_FLOOR), intervals=6)
        lp_solve = bnb._SharedLP.solve
        for shift, want in ((0.0, (2, 6)), (1e-8, (2, 6)), (-1e-8, (2, 6)),
                            (2.5e-6, (2, 6)), (0.3, (3, 5))):
            builder, _, lp = solved_root(surr)

            def shifted(model):
                status, value, z = lp_solve(model)
                return status, value + shift, z

            monkeypatch.setattr(bnb._SharedLP, "solve", shifted)
            lower, upper = bnb._tighten_root(lp, 1e6)
            monkeypatch.undo()
            col = builder.col_x["n"]
            assert (lower[col], upper[col]) == want

    @staticmethod
    def stub_tightening(monkeypatch, outcome):
        """Make every root tightening LP end with ``outcome()`` after it is
        solved (and counted); node LPs are left alone."""
        tightening = []
        tighten = bnb._tighten_root
        lp_solve = bnb._SharedLP.solve

        def flagged(*args):
            tightening.append(True)
            try:
                return tighten(*args)
            finally:
                tightening.clear()

        def stub(model):
            out = lp_solve(model)
            return outcome() if tightening else out

        monkeypatch.setattr(bnb, "_tighten_root", flagged)
        monkeypatch.setattr(bnb._SharedLP, "solve", stub)

    def test_infeasible_tightening_closes_the_root(self, monkeypatch):
        """No relaxation point beats the incumbent: the root closes with
        the incumbent as its bound, status 'optimal'."""
        surr = surrogate_for(parse_instance(SPATIAL_6D), intervals=10)
        self.stub_tightening(monkeypatch, lambda: ("infeasible", math.inf, None))
        report = solve(surr)
        assert report.status == "optimal" and report.nodes == 1
        assert report.lower_bound == report.objective and report.gap_pct == 0.0
        assert report.tightening_lps == 1

    def test_unsettled_tightening_keeps_the_bounds(self, monkeypatch):
        """A tightening LP that ends neither optimal nor infeasible leaves
        its bound as it was; the search goes on from the root's box."""
        surr = surrogate_for(parse_instance(SPATIAL_6D), intervals=10)

        def unsettled():
            raise bnb.LPError("node LP ended with HiGHS model status kTimeLimit")

        builder, _, lp = solved_root(surr)
        self.stub_tightening(monkeypatch, unsettled)
        lower, upper = bnb._tighten_root(lp, 0.0)
        assert bits(lower) == bits(builder.lower)
        assert bits(upper) == bits(builder.upper)
        report = solve(surr)
        assert report.status == "optimal"
        assert report.tightening_lps == 2 * len(surr.components)

    def test_branch_free_tightened_root_is_relaxed_again(self, monkeypatch):
        """On this surrogate the root's LP point needs no branching once
        the intervals it uses are fixed off by tightening. The tightened
        root is then relaxed again as one child, from the root's basis, and
        the search closes the gap; without that child it would stop at the
        root's own bound."""
        pushed = []
        heappush = bnb.heapq.heappush

        def spy_push(heap, item):
            pushed.append(item[2])
            heappush(heap, item)

        monkeypatch.setattr(bnb.heapq, "heappush", spy_push)
        surr = random_surrogate(258, k=8)
        report = solve(surr)
        assert report.status == "optimal" and report.tightening_lps == 4
        root, child = pushed[:2]
        assert child.depth == 1 and child.parent is root and root.basis is not None
        # the root's record holds its tightened box, which the child takes
        assert child.lower is root.lower and child.upper is root.upper
        box = bnb._LPBuilder(surr, 1e-4)
        assert (child.lower >= box.lower).all() and (child.upper <= box.upper).all()
        assert (child.upper < box.upper).any()

    def test_no_tightening_without_a_root_incumbent_or_an_open_gap(self):
        """A root that closes the search, or has no incumbent of its own
        (integer-coupled), runs no tightening LP."""
        closed = solve(random_surrogate(0))
        assert closed.nodes == 1 and closed.tightening_lps == 0
        coupled = solve(surrogate_for(parse_instance(INT_COUPLED), intervals=8))
        assert coupled.nodes > 1 and coupled.tightening_lps == 0
        assert closed.tightening_iterations == coupled.tightening_iterations == 0
