import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from missoc.splines import (
    BSplineBasis,
    DegenerateDomainError,
    InvalidKnotsError,
    OutOfDomainError,
    bernstein_bounds,
    design_matrix,
    extend_knots,
    horner,
    interval_index,
    make_basis,
    poly_der,
    segment_maps,
    taylor_shift,
    to_piecewise_poly,
)


def bspline_value(l: int, basis: BSplineBasis, x: float) -> float:
    """Value of the l-th basis function (1-based, l in 1..k+d) at x, read
    from ``eval_all``."""
    if not (1 <= l <= basis.n_basis):
        raise IndexError(f"basis index {l} out of 1..{basis.n_basis}")
    return float(basis.eval_all(x)[l - 1])


def naive_bspline(x, deg, i, t):
    """Independent recursive Cox-de Boor evaluator, 0-based index i on the
    extended knot array t, seeded from the degree-0 indicator."""
    if deg == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    c1 = c2 = 0.0
    if t[i + deg] != t[i]:
        c1 = (x - t[i]) / (t[i + deg] - t[i]) * naive_bspline(x, deg - 1, i, t)
    if t[i + deg + 1] != t[i + 1]:
        c2 = (
            (t[i + deg + 1] - x)
            / (t[i + deg + 1] - t[i + 1])
            * naive_bspline(x, deg - 1, i + 1, t)
        )
    return c1 + c2


def recursive_segment(i, deg, pos, t, ref):
    """Top-down Cox-de Boor on coefficient vectors: the ascending
    coefficients in (x - ref) of B_{i,deg} (0-based extended index) on the
    interval starting at t[pos], one basis function at a time."""
    if deg == 0:
        return np.array([1.0 if i == pos else 0.0])

    def mul_linear(p, a, b):
        out = np.zeros(len(p) + 1)
        out[: len(p)] += a * p
        out[1:] += b * p
        return out

    p = np.zeros(deg + 1)
    den1 = t[i + deg] - t[i]
    p += mul_linear(
        recursive_segment(i, deg - 1, pos, t, ref), (ref - t[i]) / den1, 1.0 / den1
    )
    den2 = t[i + deg + 1] - t[i + 1]
    p += mul_linear(
        recursive_segment(i + 1, deg - 1, pos, t, ref),
        (t[i + deg + 1] - ref) / den2,
        -1.0 / den2,
    )
    return p


class TestExtendKnots:
    def test_uniform_d2(self):
        kv = extend_knots(np.arange(7.0), 2)
        np.testing.assert_allclose(kv.extended, np.arange(-2.0, 9.0))
        assert kv.n_basis == 8

    def test_d0_unchanged(self):
        kv = extend_knots([0.0, 1.0], 0)
        np.testing.assert_allclose(kv.extended, [0.0, 1.0])

    def test_boundary_width_replication(self):
        kv = extend_knots([0.0, 0.5, 2.0], 1)
        np.testing.assert_allclose(kv.extended, [-0.5, 0.0, 0.5, 2.0, 3.5])

    def test_alignment_invariant(self):
        kv = extend_knots([1.0, 2.5, 3.0, 4.5], 3)
        d, k = kv.degree, kv.k
        assert kv.extended[d] == kv.internal[0]
        assert kv.extended[d + k] == kv.internal[-1]
        assert len(kv.extended) == k + 2 * d + 1
        assert np.all(np.diff(kv.extended) > 0)

    def test_nonincreasing_rejected(self):
        with pytest.raises(InvalidKnotsError):
            extend_knots([0.0, 1.0, 1.0], 2)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateDomainError):
            extend_knots([0.0], 2)


class TestBsplineValue:
    def test_degree0_indicator(self):
        basis = make_basis(0.0, 3.0, 3, 0)
        assert bspline_value(2, basis, 1.5) == 1.0
        assert bspline_value(2, basis, 0.5) == 0.0
        assert bspline_value(1, basis, 0.5) == 1.0

    def test_index_error(self):
        basis = make_basis(0.0, 1.0, 2, 1)
        with pytest.raises(IndexError):
            bspline_value(0, basis, 0.5)
        with pytest.raises(IndexError):
            bspline_value(4, basis, 0.5)

    def test_out_of_domain(self):
        basis = make_basis(0.0, 1.0, 2, 3)
        with pytest.raises(OutOfDomainError):
            basis.eval_all(1.2)

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 4), (3, 5), (5, 4), (7, 3)])
    def test_against_naive_recursion(self, d, k):
        basis = make_basis(0.0, float(k), k, d)
        t = basis.extended
        rng = np.random.default_rng(42)
        for x in rng.uniform(0.0, k, size=25):
            ours = basis.eval_all(x)
            for l in range(basis.n_basis):
                assert ours[l] == pytest.approx(
                    naive_bspline(x, d, l, t), abs=1e-12
                )

    def test_cubic_support_center(self):
        # uniform knots spacing 1, d=3: value at the support center of an
        # interior basis function, checked against the naive evaluator
        basis = make_basis(0.0, 8.0, 8, 3)
        t = basis.extended
        l = 5  # 1-based; support [t[4], t[8]] in the extended sequence
        center = 0.5 * (t[l - 1] + t[l + 3])
        assert bspline_value(l, basis, center) == pytest.approx(
            naive_bspline(center, 3, l - 1, t), abs=1e-14
        )

    @given(
        k=st.integers(min_value=1, max_value=20),
        d=st.integers(min_value=0, max_value=7),
        u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_of_unity(self, k, d, u):
        basis = make_basis(-1.0, 2.0, k, d)
        x = -1.0 + 3.0 * u
        assert abs(basis.eval_all(x).sum() - 1.0) <= 1e-12

    def test_local_support(self):
        basis = make_basis(0.0, 6.0, 6, 2)
        t = basis.extended
        for l in range(1, basis.n_basis + 1):
            lo, hi = t[l - 1], t[l + basis.degree]
            for x in np.linspace(0.0, 6.0, 61):
                v = bspline_value(l, basis, x)
                if x < lo or x > hi:
                    assert v == 0.0
                elif lo < x < hi:
                    assert v > 0.0


class TestSegmentPolyCoeffs:
    """Per-interval power-basis coefficients of the basis segments, as
    ``segment_maps`` gives them."""

    def test_degree0(self):
        basis = make_basis(0.0, 2.0, 2, 0)
        M = segment_maps(basis, 0.0)
        assert M.shape == (2, 1, 1)
        np.testing.assert_array_equal(M, 1.0)

    def test_hat_ascending_slope(self):
        h = 0.5
        basis = make_basis(0.0, 3 * h, 3, 1)
        # basis function 2 (1-based) ascends on internal interval 0, where it
        # is the second of the two active functions
        c = segment_maps(basis, 0.0)[0][:, 1]
        assert c[1] == pytest.approx(1.0 / h)

    def test_outside_support_zero(self):
        basis = make_basis(0.0, 6.0, 6, 2)
        first = np.zeros(basis.n_basis)
        first[0] = 1.0
        np.testing.assert_array_equal(
            to_piecewise_poly(first, basis).coeffs[5], np.zeros(3)
        )

    @pytest.mark.parametrize("d,k", [(1, 4), (2, 5), (3, 6), (5, 4)])
    def test_partition_of_unity_on_coeffs(self, d, k):
        basis = make_basis(0.0, 1.0, k, d)
        expected = np.zeros(d + 1)
        expected[0] = 1.0
        for G in segment_maps(basis, 0.0):
            np.testing.assert_allclose(G.sum(axis=1), expected, atol=1e-12)

    def test_matches_evaluation(self):
        basis = make_basis(-1.0, 2.0, 5, 3)
        t = basis.internal
        ext = basis.extended
        for ref in (0.0, t[:-1]):
            maps = segment_maps(basis, ref)
            for q in range(basis.k):
                r = np.broadcast_to(ref, (basis.k,))[q]
                xs = np.linspace(t[q], t[q + 1], 7, endpoint=False)
                for m in range(basis.degree + 1):
                    for x in xs:
                        poly = np.polynomial.polynomial.polyval(
                            x - r, maps[q][:, m]
                        )
                        assert poly == pytest.approx(
                            naive_bspline(x, basis.degree, q + m, ext),
                            abs=1e-11,
                        )

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 5, 7])
    def test_bit_identical_to_recursion(self, d):
        # branch-and-bound node counts are chaotic in the last bits of the
        # surrogate coefficients, so the vectorised map must round exactly
        # as the one-function-at-a-time recursion does
        rng = np.random.default_rng(d)
        internal = np.cumsum(np.r_[-1.0, rng.uniform(0.05, 1.0, 9)])
        basis = extend_knots(internal, d)
        t = basis.extended
        for ref in (0.0, internal[:-1]):
            maps = segment_maps(basis, ref)
            for q in range(basis.k):
                r = np.broadcast_to(ref, (basis.k,))[q]
                want = np.column_stack(
                    [recursive_segment(q + m, d, q + d, t, r) for m in range(d + 1)]
                )
                np.testing.assert_array_equal(maps[q], want)
        theta = rng.normal(size=basis.n_basis)
        want = np.zeros((basis.k, d + 1))
        for q in range(basis.k):
            for m in range(d + 1):
                want[q] += theta[q + m] * recursive_segment(
                    q + m, d, q + d, t, internal[q]
                )
        np.testing.assert_array_equal(to_piecewise_poly(theta, basis).coeffs, want)


class TestIntervalIndex:
    def test_knot_goes_right_last_closed(self):
        t = [0.0, 1.0, 2.0, 3.0]
        got = interval_index(t, [0.0, 0.5, 1.0, 2.0, 2.5, 3.0])
        np.testing.assert_array_equal(got, [0, 0, 1, 2, 2, 2])

    def test_scalar(self):
        assert int(interval_index([0.0, 1.0, 2.0], 1.0)) == 1

    @pytest.mark.parametrize("x", [-0.1, 3.5, np.nan])
    def test_outside_rejected(self, x):
        with pytest.raises(OutOfDomainError, match="w="):
            interval_index([0.0, 1.0, 3.0], [0.5, x], label="w")

    @pytest.mark.parametrize("d", [0, 1, 3])
    def test_basis_and_piecewise_agree_at_knots(self, d):
        rng = np.random.default_rng(5)
        basis = make_basis(0.0, 1.0, 4, d)
        theta = rng.normal(size=basis.n_basis)
        pw = to_piecewise_poly(theta, basis)
        for knot in basis.internal:
            assert pw(knot) == pytest.approx(
                basis.eval_all(knot) @ theta, abs=1e-12
            )


class TestTaylorShift:
    def test_simple(self):
        # x^2 = (x-1)^2 + 2(x-1) + 1
        np.testing.assert_allclose(taylor_shift([0.0, 0.0, 1.0], 1.0), [1.0, 2.0, 1.0])

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=6)
        shifted = taylor_shift(p, 2.5)
        for x in rng.uniform(-3, 3, 10):
            a = np.polynomial.polynomial.polyval(x, p)
            b = np.polynomial.polynomial.polyval(x - 2.5, shifted)
            assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


P = np.polynomial.polynomial
coefficient = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
point = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


@st.composite
def stacked_rows(draw):
    """(rows, stacked, x): 1-5 polynomials of degree 0-7, their ascending
    coefficients stacked and zero-padded to one width, and one point per
    row, of either sign."""
    degrees = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5))
    rows = [draw(st.lists(coefficient, min_size=d + 1, max_size=d + 1)) for d in degrees]
    width = max(degrees) + 1 + draw(st.integers(0, 2))
    stacked = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        stacked[i, : len(row)] = row
    x = draw(st.lists(point, min_size=len(rows), max_size=len(rows)))
    return [np.array(row) for row in rows], stacked, np.array(x)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def condition(stacked, lo, hi):
    """Per row, sum |a_i| r^i with r = max(1, |lo|, |hi|): a bound on the
    terms whose rounding a value over [lo, hi] suffers."""
    r = np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    return (np.abs(stacked) * r[:, None] ** np.arange(stacked.shape[1])).sum(axis=1)


def underflow(stacked, lo, hi):
    """Per row, a bound on the absolute error that gradual underflow adds to
    an enclosure or a sampled value over [lo, hi] (Higham 2002, section
    2.1: fl(x op y) = (x op y)(1 + d) + e with |e| <= 2^-1075): 2^-1074 per
    rounding that ``bernstein_bounds`` and ``horner`` take at degree n
    (the shift n(n+1), the scaling 2(n+1), the Bernstein map (n+1)(n+2),
    Horner 2n), each scaled by at most (1 + |lo| + w)^n after it."""
    n = stacked.shape[1] - 1
    roundings = n * (n + 1) + 2 * (n + 1) + (n + 1) * (n + 2) + 2 * n
    return roundings * 2.0**-1074 * (1.0 + np.abs(lo) + (hi - lo)) ** n


class TestPolynomialToolkit:
    """``horner``, ``poly_der`` and ``bernstein_bounds`` on stacked,
    zero-padded rows, against ``np.polynomial``."""

    @given(stacked_rows())
    @settings(max_examples=150, deadline=None)
    def test_horner_equals_polyval_bitwise(self, case):
        rows, stacked, x = case
        want = [P.polyval(v, row) for row, v in zip(rows, x)]
        assert bits(horner(stacked, x)) == bits(want)
        # a row of values per row, and one row alone
        grid = x[:, None] * np.array([1.0, -0.5, 0.0])
        want = [P.polyval(g, row) for row, g in zip(rows, grid)]
        assert bits(horner(stacked, grid)) == bits(want)
        assert bits(horner(stacked[0], grid[0])) == bits(want[0])
        assert bits(horner(stacked[0], x[0])) == bits(P.polyval(x[0], rows[0]))

    @given(stacked_rows())
    @settings(max_examples=150, deadline=None)
    def test_poly_der_equals_polyder(self, case):
        rows, stacked, _ = case
        got = poly_der(stacked)
        assert got.shape == (len(rows), max(stacked.shape[1] - 1, 1))
        for row, padded, der in zip(rows, stacked, got):
            # equal values (a constant's derivative is +0 here, 0 * c there)
            np.testing.assert_array_equal(der, P.polyder(padded))
            want = P.polyder(row)
            np.testing.assert_array_equal(der[: len(want)], want)
            np.testing.assert_array_equal(der[len(want) :], 0.0)
        np.testing.assert_array_equal(poly_der(rows[0]), P.polyder(rows[0]))

    @given(stacked_rows(), st.floats(1e-3, 3.0))
    @settings(max_examples=150, deadline=None)
    # subnormal rows: an enclosure below the largest sample, and a ramp whose
    # top coefficient 5e-324 / 2 underflows to 0
    @example(([np.array([0.0, 2.2250738585e-313])], np.array([[0.0, 2.2250738585e-313]]),
              np.array([0.25])), 0.5)
    @example(([np.array([0.0, 5e-324])], np.array([[0.0, 5e-324]]), np.array([0.0])), 2.0)
    def test_bernstein_bounds_enclose_samples_and_are_exact_at_the_ends(
        self, case, width
    ):
        _, stacked, lo = case
        hi = lo + width
        low, high = bernstein_bounds(stacked, lo, hi)
        xs = lo[:, None] + width * np.linspace(0.0, 1.0, 257)
        vals = horner(stacked, xs)
        tol = 1e-12 * condition(stacked, lo, hi) + underflow(stacked, lo, hi)
        assert (low <= vals.min(axis=1) + tol).all()
        assert (high >= vals.max(axis=1) - tol).all()
        # the first Bernstein coefficient is the value at lo, bit for bit
        assert (low <= vals[:, 0]).all() and (vals[:, 0] <= high).all()
        # c + b ((x - lo) / w)^n has Bernstein coefficients c, ..., c, c + b:
        # its enclosure is its two end values
        n = stacked.shape[1] - 1
        if n == 0:
            return
        ramp = np.zeros_like(stacked)
        ramp[:, 0] = stacked[:, 0]
        ramp[:, n] = stacked[:, n] / width**n
        ramp = taylor_shift(ramp, -lo)
        low, high = bernstein_bounds(ramp, lo, hi)
        ends = np.stack([stacked[:, 0], stacked[:, 0] + stacked[:, n]])
        tol = 1e-12 * condition(ramp, lo, hi) + underflow(ramp, lo, hi)
        assert (np.abs(low - ends.min(axis=0)) <= tol).all()
        assert (np.abs(high - ends.max(axis=0)) <= tol).all()


class TestToPiecewisePoly:
    def test_zero_coeffs(self):
        basis = make_basis(0.0, 1.0, 3, 2)
        pw = to_piecewise_poly(np.zeros(basis.n_basis), basis)
        np.testing.assert_allclose(pw.coeffs, 0.0)

    def test_all_ones_is_constant_one(self):
        basis = make_basis(0.0, 4.0, 4, 3)
        pw = to_piecewise_poly(np.ones(basis.n_basis), basis)
        expected = np.zeros((4, 4))
        expected[:, 0] = 1.0
        np.testing.assert_allclose(pw.coeffs, expected, atol=1e-12)

    @pytest.mark.parametrize("d,k", [(1, 3), (2, 10), (3, 10), (5, 6), (7, 4)])
    def test_matches_basis_expansion(self, d, k):
        rng = np.random.default_rng(7)
        basis = make_basis(-2.0, 3.0, k, d)
        theta = rng.normal(size=basis.n_basis)
        pw = to_piecewise_poly(theta, basis)
        xs = np.linspace(-2.0, 3.0, 200)
        direct = np.array([basis.eval_all(x) @ theta for x in xs])
        recon = np.array([pw(x) for x in xs])
        scale = np.max(np.abs(direct)) + 1.0
        assert np.max(np.abs(recon - direct)) <= 1e-9 * scale

    def test_continuity_at_breakpoints(self):
        rng = np.random.default_rng(3)
        basis = make_basis(0.0, 5.0, 5, 3)
        theta = rng.normal(size=basis.n_basis)
        pw = to_piecewise_poly(theta, basis)
        for q in range(1, pw.k):
            t = pw.breakpoints[q]
            left = np.polynomial.polynomial.polyval(
                t - pw.breakpoints[q - 1], pw.coeffs[q - 1]
            )
            right = pw.coeffs[q, 0]
            assert right == pytest.approx(left, rel=1e-9, abs=1e-9)

    def test_derivative_continuity(self):
        rng = np.random.default_rng(4)
        for d in (2, 3, 5):
            basis = make_basis(0.0, 4.0, 8, d)
            theta = rng.normal(size=basis.n_basis)
            dpw = to_piecewise_poly(theta, basis).derivative()
            scale = max(abs(dpw(x)) for x in np.linspace(0, 4, 50)) + 1.0
            for q in range(1, dpw.k):
                t = dpw.breakpoints[q]
                left = np.polynomial.polynomial.polyval(
                    t - dpw.breakpoints[q - 1], dpw.coeffs[q - 1]
                )
                assert abs(dpw.coeffs[q, 0] - left) <= 1e-8 * scale

    def test_size_mismatch(self):
        basis = make_basis(0.0, 1.0, 3, 2)
        with pytest.raises(ValueError):
            to_piecewise_poly(np.zeros(2), basis)


class TestDesignMatrix:
    def test_shape(self):
        basis = make_basis(0.0, 1.0, 2, 1)
        B = design_matrix(np.array([[0.1], [0.5], [0.9]]), [basis])
        assert B.shape == (3, 4)

    def test_left_boundary_row_sum(self):
        basis = make_basis(0.0, 1.0, 4, 3)
        B = design_matrix(np.array([[0.0]]), [basis])
        assert B[0, 1:].sum() == pytest.approx(1.0, abs=1e-12)

    def test_unit_block_row_sums(self):
        rng = np.random.default_rng(11)
        b1 = make_basis(0.0, 1.0, 3, 2, "u")
        b2 = make_basis(-1.0, 1.0, 5, 3, "v")
        X = np.column_stack(
            [rng.uniform(0, 1, 20), rng.uniform(-1, 1, 20)]
        )
        B = design_matrix(X, [b1, b2])
        assert B.shape == (20, 1 + b1.n_basis + b2.n_basis)
        np.testing.assert_allclose(B[:, 1 : 1 + b1.n_basis].sum(axis=1), 1.0)
        np.testing.assert_allclose(B[:, 1 + b1.n_basis :].sum(axis=1), 1.0)

    def test_entries_match_elementwise(self):
        basis = make_basis(0.0, 2.0, 4, 2)
        xs = np.array([[0.3], [1.7], [2.0]])
        B = design_matrix(xs, [basis])
        for i, x in enumerate(xs[:, 0]):
            for l in range(1, basis.n_basis + 1):
                assert B[i, l] == bspline_value(l, basis, x)

    def test_out_of_domain_names_covariate(self):
        basis = make_basis(0.0, 1.0, 2, 1, label="volume")
        with pytest.raises(OutOfDomainError, match="volume"):
            design_matrix(np.array([[1.5]]), [basis])


class TestEvalMatrix:
    def test_matches_naive_recursion(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 3, 5):
            basis = make_basis(-1.0, 2.0, 7, d, "x")
            t = basis.extended
            xs = rng.uniform(-1.0, 2.0, size=200)
            xs[:4] = [-1.0, 2.0, 0.5, basis.internal[3]]
            got = basis.eval_matrix(xs)
            want = np.array(
                [[naive_bspline(x, d, l, t) for l in range(basis.n_basis)]
                 for x in xs]
            )
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_rejects_out_of_domain(self):
        basis = make_basis(0.0, 1.0, 3, 3, "x")
        with pytest.raises(OutOfDomainError):
            basis.eval_matrix([0.5, 1.5])

    def test_empty_input(self):
        basis = make_basis(0.0, 1.0, 3, 2, "x")
        assert basis.eval_matrix([]).shape == (0, 5)
