"""Branch-and-bound solver for the separable surrogate MINLP.

Separability is the whole game: the objective is a sum of univariate
piecewise polynomials, so every node relaxation is a small LP whose only
nonlinear content is handled by per-interval linear underestimators of the
univariate pieces (tangents on convex pieces, the secant on concave ones, a
Bernstein-shifted secant on mixed-curvature ones). Branching fixes the
interval binaries, bisects deviation ranges where the envelope is loose, and
enforces integrality of integer original variables; node selection is
best-bound with FIFO tie-break, so runs are deterministic.

Intervals that are convex over the node's deviation range get Kelley
(1960) tangents at the LP point, one LP round at a time. The loop stops on
bound progress: when a round raised the LP value by at most
``0.01 * gap_tol * max(1, |value|)``, when no tangent was added, or after
KELLEY_CAP LPs (counted in ``SolveReport.kelley_cap_hits``). Every stop
leaves a relaxation, so bounds stay sound. A node's tangents are passed to
its children (a cut pool in the sense of Achterberg 2007): a tangent of a
piece convex on a range underestimates it on every sub-range, so it holds
in all descendants.

The node-independent rows and the default column bounds are assembled once
per solve, the rows as row-wise arrays. ``interval_cuts`` is cached per
solve together with the rows of its cuts, one block of row-wise arrays per
(interval, deviation range); a node copies the default bounds, overrides
what its branching fixed and concatenates the cached blocks of its
intervals.

Each node's LP is one HiGHS model, built from those rows through scipy's
bundled HiGHS bindings (``_NodeLP``). Its first solve starts from the
parent's final basis, which both children share (Achterberg 2007): kept as
int8 statuses and mapped by position onto the child's rows (fixed rows one
to one, an interval's block one to one when the child holds the same
cached block and as basic slacks otherwise, tangent rows through the
child's keep-mask), then passed as an alien basis, so HiGHS repairs the
basic count where a dropped row was nonbasic. Only the root starts cold. A
Kelley round adds its tangents to the model in place and re-solves it from
the basis the last solve left. A node is pruned only when its LP is
infeasible (also "unbounded or infeasible" when every x column is boxed);
any other outcome that is not optimal raises ``LPError``.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as highs

from .splines import taylor_shift
from .surrogate import SurrogateMINLP, eval_surrogate_at

FRAC_TOL = 1e-6
PRUNE_TOL = 1e-9
KELLEY_CAP = 12  # LP solves per node relaxation


class UnsupportedSurrogateError(ValueError):
    """The surrogate contains parts the built-in solver cannot bound."""


NONLINEAR_CONSTRAINTS_UNSUPPORTED = (
    "nonlinear original constraints are not supported by the built-in solver"
)


def optimality_gap(ub: float, lb: float) -> float:
    """Percent gap 100 |ub - lb| / |ub|; +inf when ub = 0 and lb != ub."""
    if not math.isfinite(ub):
        raise ValueError("upper bound must be finite")
    if ub == 0.0:
        return 0.0 if lb == ub else math.inf
    return 100.0 * abs(ub - lb) / abs(ub)


def bernstein_bounds(coeffs, lo: float, hi: float) -> tuple[float, float]:
    """Enclosure of a power-basis polynomial's range over [lo, hi] from its
    Bernstein coefficients; exact at the endpoints, any degree."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = len(coeffs) - 1
    if not hi >= lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    if n <= 0:
        v = coeffs[0] if len(coeffs) else 0.0
        return float(v), float(v)
    # rescale to t in [0, 1]: q(t) = p(lo + w t)
    w = hi - lo
    shifted = taylor_shift(coeffs, lo)  # p(x) = sum shifted_i (x - lo)^i
    scaled = shifted * w ** np.arange(n + 1)
    # power -> Bernstein: B_j = sum_i C(j,i)/C(n,i) scaled_i
    B = np.empty(n + 1)
    for j in range(n + 1):
        B[j] = sum(
            math.comb(j, i) / math.comb(n, i) * scaled[i]
            for i in range(j + 1)
        )
    return float(B.min()), float(B.max())


def _poly_val(coeffs, x):
    return float(np.polynomial.polynomial.polyval(x, coeffs))


def _poly_der(coeffs):
    c = np.asarray(coeffs, dtype=float)
    if len(c) <= 1:
        return np.zeros(1)
    return c[1:] * np.arange(1, len(c))


def interval_cuts(phi, lo: float, hi: float) -> tuple[list, bool]:
    """Linear underestimators (a, b) with a*x + b <= phi(x) on [lo, hi],
    and whether phi is convex there (so tangents at any point of the range
    are valid cuts); a degenerate range counts as not convex.

    phi is the deviation polynomial of one interval (power basis, zero
    constant term on unrefined intervals). Convex pieces get tangents,
    concave ones the secant (their convex envelope), mixed curvature gets
    the secant shifted down by a Bernstein bound of its overshoot. The
    curvature test is one Bernstein enclosure of phi''.
    """
    phi = np.asarray(phi, dtype=float)
    if hi - lo <= 1e-14:
        v = _poly_val(phi, 0.5 * (lo + hi))
        return [(0.0, v)], False
    cuts = []
    second = _poly_der(_poly_der(phi))
    curv_lo, curv_hi = bernstein_bounds(second, lo, hi)
    scale = max(1.0, np.abs(phi).max())
    convex = curv_lo >= -1e-12 * scale
    if convex:
        der = _poly_der(phi)
        for p in np.linspace(lo, hi, 5):
            a = _poly_val(der, p)
            cuts.append((a, _poly_val(phi, p) - a * p))
    else:
        a = (_poly_val(phi, hi) - _poly_val(phi, lo)) / (hi - lo)
        b = _poly_val(phi, lo) - a * lo
        if curv_hi <= 1e-12 * scale:  # concave: secant is the envelope
            cuts.append((a, b))
        else:  # mixed: shift the secant below the overshoot
            over = np.zeros(max(len(phi), 2))
            over[: len(phi)] -= phi
            over[0] += b
            over[1] += a
            _, delta = bernstein_bounds(over, lo, hi)
            cuts.append((a, b - max(delta, 0.0)))
    lo_val, _ = bernstein_bounds(phi, lo, hi)
    cuts.append((0.0, lo_val))
    return cuts, convex


@dataclass(frozen=True, eq=False)
class _Basis:
    """A node LP's final basis, which both its children start from: HiGHS
    column and row statuses as int8 ``HighsBasisStatus`` values, and per
    interval the cache id and row count of the cut block the LP held. Its
    rows are the fixed rows, the interval blocks in interval order, then one
    row per tangent the node passes on."""

    col: np.ndarray
    row: np.ndarray
    ids: np.ndarray
    block_rows: np.ndarray


@dataclass(frozen=True)
class Node:
    depth: int
    lb: float
    y_fixed: dict  # (j, q) -> 0 or 1
    dev_bounds: dict  # (j, q) -> (lo, hi), overriding [0, width]
    var_bounds: dict  # name -> (lo, hi), overriding the box
    # (j, q, a, b): Kelley tangents sp >= (c0+b)*y + a*dev added by the
    # ancestors on ranges that contain this node's
    tangents: tuple = ()
    # the parent's final basis, where the node's first LP starts; None at
    # the root
    basis: _Basis | None = None


@dataclass
class SolveReport:
    x: np.ndarray | None
    objective: float
    lower_bound: float
    gap_pct: float
    nodes: int
    time_s: float
    status: str
    lp_solves: int = 0
    kelley_cap_hits: int = 0  # node LPs stopped by KELLEY_CAP, not progress
    simplex_iterations: int = 0  # HiGHS simplex iterations over all node LPs
    log: list = field(default_factory=list)

    def csv_row(self) -> str:
        obj = f"{self.objective:.12g}" if self.x is not None else ""
        return (
            f"{obj},{self.lower_bound:.12g},{self.gap_pct:.6g},"
            f"{self.nodes},{self.time_s:.3f},{self.status}"
        )


class _Rows:
    """A node LP's cut rows ``a @ x <= 0`` in blocks of row-wise arrays
    (entries per row, column index, value), as HiGHS takes them; zero
    entries are not stored. The blocks are one cached cut block per
    interval, in interval order, then the blocks of tangent rows; ``ids``
    and ``block_rows`` hold each interval block's cache id and row count."""

    def __init__(self, blocks, ids):
        self.blocks = list(blocks)
        self.ids = ids
        self.block_rows = np.array([len(b[0]) for b in blocks], dtype=np.int32)

    def add(self, block) -> None:
        self.blocks.append(block)

    def arrays(self):
        """The rows as (lower, upper, starts, index, value) arrays, with
        starts closed by the entry count."""
        counts, index, value = (np.concatenate(p) for p in zip(*self.blocks))
        starts = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=starts[1:])
        return (np.full(len(counts), -np.inf), np.zeros(len(counts)),
                starts, index, value)


class _CutBlock(NamedTuple):
    """``interval_cuts`` of one interval on one deviation range, with their
    rows as a ``_Rows`` block and the block's cache id."""

    cuts: list
    convex: bool
    id: int
    rows: tuple


class _LPBuilder:
    """Column layout and default bounds, fixed rows (row-wise arrays,
    assembled once), the cache of ``interval_cuts`` and their row blocks,
    and the LP counters shared by all node LPs of one solve."""

    def __init__(self, surr: SurrogateMINLP, gap_tol: float):
        self.surr = surr
        # the Kelley loop stops once a round raises the bound by at most
        # this fraction of the solve's gap tolerance
        self.progress_tol = 0.01 * gap_tol
        self.lp_solves = 0
        self.kelley_cap_hits = 0
        self.simplex_iterations = 0
        self.nv = len(surr.variables)
        self.col_x = {v.name: j for j, v in enumerate(surr.variables)}
        # interval i = (j, q) owns the columns y, dev, sp at nv + 3 i + 0, 1, 2
        self.intervals = [
            (j, q) for j, comp in enumerate(surr.components)
            for q in range(comp.k)
        ]
        # index of component j's first interval
        self.first = np.cumsum([0] + [c.k for c in surr.components])[:-1]
        self.col_y = {
            key: self.nv + 3 * i for i, key in enumerate(self.intervals)
        }
        self.col_dev = {key: col + 1 for key, col in self.col_y.items()}
        self.col_sp = {key: col + 2 for key, col in self.col_y.items()}
        col = self.nv + 3 * len(self.intervals)
        self.col_sigma = {j: col + j for j in range(len(surr.components))}
        self.ncols = col + len(surr.components)
        self.widths = [surr.components[j].widths[q] for j, q in self.intervals]
        self.c0 = np.array(
            [surr.components[j].piece.coeffs[q][0] for j, q in self.intervals]
        )

        self.obj = np.zeros(self.ncols)
        for name, coeff in surr.linear.items():
            self.obj[self.col_x[name]] += coeff
        for j in range(len(surr.components)):
            self.obj[self.col_sigma[j]] += 1.0

        # column bounds below the root: x in its box, y in [0, 1], dev in
        # [0, width], sp and sigma free
        self.lower = np.full(self.ncols, -np.inf)
        self.upper = np.full(self.ncols, np.inf)
        for v in surr.variables:
            self.lower[self.col_x[v.name]] = v.lower
            self.upper[self.col_x[v.name]] = v.upper
        for col_y, width in zip(self.col_y.values(), self.widths):
            self.lower[col_y : col_y + 2] = 0.0
            self.upper[col_y : col_y + 2] = (1.0, width)

        # rows independent of the node: the equality rows, then the
        # inequality rows
        starts, index, value, lower, upper = [0], [], [], [], []

        def add(entries, up: float, low: float = -math.inf) -> None:
            for col, val in entries:
                if val != 0.0:
                    index.append(col)
                    value.append(val)
            starts.append(len(index))
            lower.append(low)
            upper.append(up)

        for j, comp in enumerate(surr.components):
            add([(self.col_y[j, q], 1.0) for q in range(comp.k)], 1.0, 1.0)
            link = [(self.col_x[comp.var], 1.0)]
            for q in range(comp.k):
                link.append((self.col_y[j, q], -comp.breakpoints[q]))
                link.append((self.col_dev[j, q], -1.0))
            add(link, 0.0, 0.0)
            add(
                [(self.col_sigma[j], 1.0)]
                + [(self.col_sp[j, q], -1.0) for q in range(comp.k)],
                0.0, 0.0,
            )
        for con in surr.linear_constraints:
            if con.relation == "=":
                add(self._con_row(con), -con.constant, -con.constant)
        for j, comp in enumerate(surr.components):
            for q in range(comp.k):
                add(
                    ((self.col_dev[j, q], 1.0),
                     (self.col_y[j, q], -comp.widths[q])),
                    0.0,
                )
        for con in surr.linear_constraints:
            if con.relation != "=":
                add(self._con_row(con), -con.constant)
        # the head of every node's HiGHS model, as (lower, upper, starts,
        # index, value) arrays
        self.fixed = (
            np.array(lower), np.array(upper), np.array(starts, dtype=np.int32),
            np.array(index, dtype=np.int32), np.array(value, dtype=float),
        )
        # (j, q, lo, hi) -> _CutBlock; per solve, since two surrogates share
        # keys
        self._cuts = {}

    def _con_row(self, con):
        return [(self.col_x[n], c) for n, c in con.coeffs.items()]

    def block(self, j: int, q: int, lo: float, hi: float) -> _CutBlock:
        """Interval (j, q)'s cuts on deviation range [lo, hi] and their rows,
        computed once per solve."""
        key = (j, q, lo, hi)
        block = self._cuts.get(key)
        if block is None:
            cuts, convex = interval_cuts(self.deviation_poly(j, q), lo, hi)
            rows = self.cut_rows([(j, q, a, b) for a, b in cuts])
            block = _CutBlock(cuts, convex, len(self._cuts), rows)
            self._cuts[key] = block
        return block

    def cuts(self, j: int, q: int, lo: float, hi: float):
        """``interval_cuts`` of interval (j, q)'s deviation polynomial on
        [lo, hi]: its cuts and whether it is convex there."""
        block = self.block(j, q, lo, hi)
        return block.cuts, block.convex

    def deviation_poly(self, j: int, q: int) -> np.ndarray:
        """Interval (j, q)'s polynomial in its deviation, constant dropped
        (the constant rides on y)."""
        phi = self.surr.components[j].piece.coeffs[q].copy()
        phi[0] = 0.0
        return phi

    def cut_rows(self, cuts):
        """The rows sp >= (c0+b)*y + a*dev of cuts (j, q, a, b) as one
        ``_Rows`` block: the intercept rides on y so a cut reduces to
        sp >= 0 at y = 0 and to the plain affine underestimator at y = 1."""
        j, q, a, b = np.array(cuts, dtype=float).reshape(-1, 4).T
        i = self.first[j.astype(int)] + q.astype(int)
        y = (self.nv + 3 * i).astype(np.int32)
        cols = np.column_stack([y + 2, y, y + 1])
        vals = np.column_stack([np.full(len(y), -1.0), self.c0[i] + b, a])
        keep = vals != 0.0
        return keep.sum(axis=1, dtype=np.int32), cols[keep], vals[keep]


# HighsBasisStatus members indexed by their value
_STATUS = sorted(highs.HighsBasisStatus.__members__.values(), key=int)
_BASIC = int(highs.HighsBasisStatus.kBasic)


def _start_basis(builder: _LPBuilder, parent: _Basis, rows: _Rows, keep):
    """The parent's final basis mapped by position onto a child's rows, as
    an alien HiGHS basis. Columns and fixed rows map one to one; an
    interval's block one to one when the child holds the parent's block,
    otherwise its slacks are basic; tangent rows through ``keep``, the
    child's mask over the parent's tangents. HiGHS repairs the basic count
    where a dropped row was nonbasic."""
    nf = len(builder.fixed[0])
    end = nf + int(parent.block_rows.sum())
    same = rows.ids == parent.ids
    block = np.full(int(rows.block_rows.sum()), _BASIC, dtype=np.int8)
    block[np.repeat(same, rows.block_rows)] = parent.row[nf:end][
        np.repeat(same, parent.block_rows)
    ]
    row = np.concatenate([parent.row[:nf], block, parent.row[end:][keep]])
    basis = highs.HighsBasis()
    basis.col_status = [_STATUS[s] for s in parent.col.tolist()]
    basis.row_status = [_STATUS[s] for s in row.tolist()]
    basis.alien = True
    return basis


def _node_dev_range(surr, node, j, q):
    lo, hi = node.dev_bounds.get((j, q), (0.0, surr.components[j].widths[q]))
    return lo, hi


def _node_lp(builder: _LPBuilder, node: Node):
    """Column bounds lower and upper, the node's cut rows, the start basis
    of its first LP (None for a node without a parent basis), its Kelley
    keys (the intervals convex over the node range) and the inherited
    tangents it keeps; or None when a box is empty."""
    lower = builder.lower.copy()
    upper = builder.upper.copy()
    for name, (lo, hi) in node.var_bounds.items():
        lower[builder.col_x[name]] = lo
        upper[builder.col_x[name]] = hi
    if (lower[: builder.nv] > upper[: builder.nv]).any():
        return None
    ranges = dict(node.dev_bounds)
    for key, yfix in node.y_fixed.items():
        col_y = builder.col_y[key]
        lower[col_y] = upper[col_y] = float(yfix)
        if yfix == 0:
            ranges[key] = (0.0, 0.0)
            lower[col_y + 2] = upper[col_y + 2] = 0.0  # sp
    for key, (lo, hi) in ranges.items():
        lower[builder.col_dev[key]] = lo
        upper[builder.col_dev[key]] = hi
    blocks = [
        builder.block(j, q, *ranges.get((j, q), (0.0, width)))
        for (j, q), width in zip(builder.intervals, builder.widths)
    ]
    convex_keys = [  # intervals convex over the node range: Kelley cuts
        (j, q, builder.deviation_poly(j, q))
        for (j, q), block in zip(builder.intervals, blocks)
        if block.convex and node.y_fixed.get((j, q)) != 0
    ]
    rows = _Rows(
        [block.rows for block in blocks],
        np.array([block.id for block in blocks], dtype=np.int32),
    )
    # on an interval fixed off y, dev and sp are 0, so its tangents are void
    keep = np.array(
        [node.y_fixed.get(t[:2]) != 0 for t in node.tangents], dtype=bool
    )
    tangents = [t for t, kept in zip(node.tangents, keep) if kept]
    rows.add(builder.cut_rows(tangents))
    start = None
    if node.basis is not None:
        start = _start_basis(builder, node.basis, rows, keep)
    return lower, upper, rows, start, convex_keys, tangents


class LPError(RuntimeError):
    """A node LP ended in a state that is neither optimal nor infeasible, so
    no sound bound can be taken from it."""


class _NodeLP:
    """One node LP, min ``builder.obj`` over the solve's fixed rows and the
    node's cut rows within column bounds, as one HiGHS model that grows by
    Kelley rows. The first ``solve`` starts from ``start`` (an alien basis)
    when given, otherwise cold; ``add_rows`` adds rows in place, and each
    later ``solve`` starts from the basis the last one left."""

    def __init__(self, builder: _LPBuilder, lower, upper, rows: _Rows,
                 start=None):
        self.builder = builder
        self.lower, self.upper = lower, upper
        self.rows = rows
        f_lower, f_upper, f_starts, f_index, f_value = builder.fixed
        n_lower, n_upper, n_starts, n_index, n_value = rows.arrays()
        lp = highs.HighsLp()
        lp.num_col_ = builder.ncols
        lp.num_row_ = len(f_lower) + len(n_lower)
        lp.col_cost_ = builder.obj
        lp.col_lower_ = lower
        lp.col_upper_ = upper
        lp.row_lower_ = np.concatenate([f_lower, n_lower])
        lp.row_upper_ = np.concatenate([f_upper, n_upper])
        matrix = lp.a_matrix_
        matrix.format_ = highs.MatrixFormat.kRowwise
        matrix.num_col_ = lp.num_col_
        matrix.num_row_ = lp.num_row_
        matrix.start_ = np.concatenate([f_starts, len(f_index) + n_starts[1:]])
        matrix.index_ = np.concatenate([f_index, n_index])
        matrix.value_ = np.concatenate([f_value, n_value])
        self.model = highs._Highs()
        self._check(self.model.setOptionValue("output_flag", False),
                    "setOptionValue")
        # dual simplex, the strategy scipy's method="highs" LP solves use
        dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self._check(self.model.setOptionValue("simplex_strategy", dual),
                    "setOptionValue")
        self._check(self.model.passModel(lp), "passModel")
        if start is not None:
            self._check(self.model.setBasis(start), "setBasis")

    @staticmethod
    def _check(status, call: str) -> None:
        if status == highs.HighsStatus.kError:
            raise LPError(f"HiGHS {call} returned {status.name}")

    def add_rows(self, cuts) -> None:
        """Add the rows ``sp >= (c0+b)*y + a*dev`` of Kelley tangents
        (j, q, a, b)."""
        counts, index, value = block = self.builder.cut_rows(cuts)
        self.rows.add(block)
        starts = np.zeros(len(counts), dtype=np.int32)
        np.cumsum(counts[:-1], out=starts[1:])
        self._check(
            self.model.addRows(len(counts), np.full(len(counts), -np.inf),
                               np.zeros(len(counts)), len(index), starts,
                               index, value),
            "addRows",
        )

    def solve(self):
        """(status, value, x): 'optimal' with the LP value (without the
        surrogate constant) and point, or 'infeasible', math.inf, None.
        Any other outcome raises ``LPError``."""
        model = self.model
        self._check(model.run(), "run")
        self.builder.simplex_iterations += (
            model.getInfo().simplex_iteration_count
        )
        status = model.getModelStatus()
        if status == highs.HighsModelStatus.kOptimal:
            x = np.array(model.getSolution().col_value)
            return "optimal", model.getObjectiveValue(), x
        if status == highs.HighsModelStatus.kInfeasible:
            return "infeasible", math.inf, None
        # y and dev are boxed and every sp has a constant lower cut, so with
        # boxed x columns a node LP is bounded and "unbounded or infeasible"
        # means infeasible (a linear variable may have an infinite bound)
        nv = self.builder.nv
        if (status == highs.HighsModelStatus.kUnboundedOrInfeasible
                and np.isfinite(self.lower[:nv]).all()
                and np.isfinite(self.upper[:nv]).all()):
            return "infeasible", math.inf, None
        raise LPError(f"node LP ended with HiGHS model status {status.name}")

    def basis(self) -> _Basis:
        """The basis the last solve left, with the node's block layout."""
        basis = self.model.getBasis()
        return _Basis(
            np.array([s.value for s in basis.col_status], dtype=np.int8),
            np.array([s.value for s in basis.row_status], dtype=np.int8),
            self.rows.ids,
            self.rows.block_rows,
        )


def relax_node(builder: _LPBuilder, node: Node):
    """Solve the node LP with Kelley rounds. Returns (status, value, z,
    tangents, lp): status is 'optimal' or 'infeasible', value includes
    the surrogate constant, tangents are the node's inherited tangents plus
    the ones it added, and lp is the solved ``_NodeLP``, whose ``basis()``
    a node that branches reads once for both children.

    The first LP starts from the parent's basis (``node.basis``). A round
    adds the tangent at the LP point of every interval that is convex over
    the node range and underestimated there. The loop stops when a round
    raised the bound by at most ``builder.progress_tol`` (relative to
    max(1, |value|)), when no tangent was added, or after KELLEY_CAP
    solves. Each stop leaves a relaxation, so the bound is sound.
    """
    surr = builder.surr
    lp = _node_lp(builder, node)
    if lp is None:
        return "infeasible", math.inf, None, (), None
    lower, upper, rows, start, convex_keys, tangents = lp
    model = _NodeLP(builder, lower, upper, rows, start)
    prev = -math.inf
    for rnd in range(KELLEY_CAP):
        status, fun, z = model.solve()
        builder.lp_solves += 1
        if status == "infeasible":
            return "infeasible", math.inf, None, (), None
        value = fun + surr.constant
        if value - prev <= builder.progress_tol * max(1.0, abs(value)):
            break
        prev = value
        new = []
        for j, q, phi in convex_keys:
            y = z[builder.col_y[j, q]]
            dev = z[builder.col_dev[j, q]]
            c0 = surr.components[j].piece.coeffs[q][0]
            gap = c0 * y + _poly_val(phi, dev) - z[builder.col_sp[j, q]]
            if gap <= 1e-10 * max(1.0, abs(z[builder.col_sp[j, q]])):
                continue
            # the LP point may leave the range by HiGHS's tolerance; a
            # tangent is valid on the range only at a point inside it
            col = builder.col_dev[j, q]
            dev = min(max(dev, lower[col]), upper[col])
            a = _poly_val(_poly_der(phi), dev)
            new.append((j, q, a, _poly_val(phi, dev) - a * dev))
        if not new:
            break
        if rnd == KELLEY_CAP - 1:
            builder.kelley_cap_hits += 1
            break
        model.add_rows(new)
        tangents.extend(new)
    return "optimal", value, z, tuple(tangents), model


def _try_incumbent(builder: _LPBuilder, z) -> tuple[float, np.ndarray] | None:
    """Lift the LP point's original coordinates into a feasible surrogate
    solution; integer variables are rounded and feasibility rechecked.

    A component keeps the LP's own interval when its y is integral and its
    x was not moved by rounding or clamping: at a knot the LP may pick the
    left interval (deviation = width), which the knot rule of
    ``eval_surrogate_at`` would score with the right one.
    """
    surr = builder.surr
    x_lp = np.array([z[builder.col_x[v.name]] for v in surr.variables])
    x = x_lp.copy()
    for j, v in enumerate(surr.variables):
        if v.integer:
            x[j] = round(x[j])
        x[j] = min(max(x[j], v.lower), v.upper)
    comp_dom = {c.var: (c.breakpoints[0], c.breakpoints[-1]) for c in surr.components}
    idx = surr.var_index()
    for name, (lo, hi) in comp_dom.items():
        x[idx[name]] = min(max(x[idx[name]], lo), hi)
    for con in surr.linear_constraints:
        val = con.constant + sum(
            c * x[idx[n]] for n, c in con.coeffs.items()
        )
        if con.relation == "=":
            if abs(val) > 1e-6:
                return None
        elif val > 1e-6:
            return None
    value, lift = eval_surrogate_at(surr, x)
    for j, comp in enumerate(surr.components):
        i = idx[comp.var]
        ys = [z[builder.col_y[j, q]] for q in range(comp.k)]
        q = int(np.argmax(ys))
        if x[i] != x_lp[i] or ys[q] < 1.0 - FRAC_TOL or lift["y"][j][q] == 1.0:
            continue  # moved, fractional, or already the knot rule's interval
        dev = min(max(z[builder.col_dev[j, q]], 0.0), comp.widths[q])
        value += _poly_val(comp.piece.coeffs[q], dev) - lift["sigma"][j]
    return value, x


def _branch(builder: _LPBuilder, node: Node, z) -> list[Node] | None:
    """Children of the node, or None when the LP point is branch-free."""
    surr = builder.surr

    best_frac, best_key = FRAC_TOL, None
    for key, col in builder.col_y.items():
        if key in node.y_fixed:
            continue
        frac = min(z[col], 1.0 - z[col])
        if frac > best_frac:
            best_frac, best_key = frac, key
    if best_key is not None:
        off = dict(node.y_fixed)
        off[best_key] = 0
        return [
            Node(node.depth + 1, node.lb, fixed, node.dev_bounds,
                 node.var_bounds)
            for fixed in (off, _choose_interval(surr, node.y_fixed, *best_key))
        ]

    for v in surr.variables:
        if not v.integer:
            continue
        xv = z[builder.col_x[v.name]]
        if abs(xv - round(xv)) > FRAC_TOL:
            lo, hi = node.var_bounds.get(v.name, (v.lower, v.upper))
            children = []
            for new in ((lo, math.floor(xv)), (math.ceil(xv), hi)):
                vb = dict(node.var_bounds)
                vb[v.name] = (float(new[0]), float(new[1]))
                children.append(
                    Node(node.depth + 1, node.lb, node.y_fixed,
                         node.dev_bounds, vb)
                )
            return children

    best_gap, best_key = 1e-9, None
    for (j, q), col in builder.col_y.items():
        if z[col] < 0.5:
            continue
        c0 = surr.components[j].piece.coeffs[q][0]
        dev = z[builder.col_dev[j, q]]
        true_sp = c0 * z[col] + _poly_val(builder.deviation_poly(j, q), dev)
        gap = true_sp - z[builder.col_sp[j, q]]
        if gap > best_gap:
            best_gap, best_key = gap, (j, q)
    if best_key is None:
        return None
    j, q = best_key
    lo, hi = _node_dev_range(surr, node, j, q)
    dev = z[builder.col_dev[j, q]]
    m = min(max(dev, lo + 0.2 * (hi - lo)), hi - 0.2 * (hi - lo))
    left_dev = dict(node.dev_bounds)
    left_dev[j, q] = (lo, m)
    right_dev = dict(node.dev_bounds)
    right_dev[j, q] = (m, hi)
    right_fixed = _choose_interval(surr, node.y_fixed, j, q)
    return [
        Node(node.depth + 1, node.lb, node.y_fixed, left_dev, node.var_bounds),
        Node(node.depth + 1, node.lb, right_fixed, right_dev, node.var_bounds),
    ]


def _choose_interval(surr, y_fixed: dict, j: int, q: int) -> dict:
    """A copy of ``y_fixed`` with y_jq = 1 and component j's other interval
    binaries 0."""
    fixed = dict(y_fixed)
    for qq in range(surr.components[j].k):
        fixed[j, qq] = int(qq == q)
    return fixed


def solve(
    surrogate: SurrogateMINLP,
    time_limit: float = 600.0,
    node_cap: int = 200_000,
    gap_tol: float = 1e-4,
    collect_log: bool = False,
) -> SolveReport:
    """Best-bound branch-and-bound; deterministic for identical inputs.

    The search stops once the relative gap ``optimality_gap`` is within
    ``100 * gap_tol`` percent. A node is closed when its bound is within
    ``0.5 * gap_tol * max(1, |ub|)`` of the incumbent, and the status is
    'optimal' when the final bounds meet the same measure at full width,
    ``ub - lb <= gap_tol * max(1, |ub|)``; for |ub| < 1 that is absolute,
    so the reported ``gap_pct`` may then exceed ``100 * gap_tol``.
    """
    if surrogate.nonlinear_constraints:
        raise UnsupportedSurrogateError(NONLINEAR_CONSTRAINTS_UNSUPPORTED)
    start = time.monotonic()
    builder = _LPBuilder(surrogate, gap_tol)
    root = Node(0, -math.inf, {}, {}, {})
    heap = []
    counter = 0
    heapq.heappush(heap, (-math.inf, counter, root))
    incumbent = None
    ub = math.inf
    nodes = 0
    log = []
    status = "optimal"
    pruned_lb = math.inf  # weakest bound among abandoned subtrees

    while heap:
        lb_global = min(heap[0][0], pruned_lb)
        if incumbent is not None:
            gap = optimality_gap(ub, min(lb_global, ub))
            if gap <= 100.0 * gap_tol:
                break
        if time.monotonic() - start > time_limit:
            status = "time_limit"
            break
        if nodes >= node_cap:
            status = "node_cap"
            break
        _, _, node = heapq.heappop(heap)
        nodes += 1
        lp = None  # frees the last node's HiGHS model before this one is built
        lp_status, lb, z, tangents, lp = relax_node(builder, node)
        if lp_status != "optimal":
            continue
        if lb >= ub - PRUNE_TOL * max(1.0, abs(ub)):
            pruned_lb = min(pruned_lb, lb)
            continue
        cand = _try_incumbent(builder, z)
        if cand is not None and cand[0] < ub - 1e-12:
            ub, incumbent = cand[0], cand[1]
        if collect_log:
            lo_now = min(lb, heap[0][0] if heap else lb)
            log.append((nodes, node.depth, lo_now,
                        ub if incumbent is not None else math.nan,
                        optimality_gap(ub, lo_now)
                        if incumbent is not None else math.nan))
        if ub - lb <= max(
            1e-12, 0.5 * gap_tol * max(1.0, abs(ub))
        ) and incumbent is not None:
            pruned_lb = min(pruned_lb, lb)
            continue  # node cannot improve the incumbent meaningfully
        children = _branch(builder, node, z)
        if children is None:
            pruned_lb = min(pruned_lb, lb)
            continue  # LP point is exact for this node
        basis = lp.basis()
        for child in children:
            counter += 1
            heapq.heappush(heap, (lb, counter, replace(
                child, tangents=tangents, basis=basis
            )))

    lb_final = min(heap[0][0], pruned_lb) if heap else pruned_lb
    if incumbent is None:
        objective = gap = math.nan
        if status == "optimal":
            status = "no_incumbent"
    else:
        objective, lb_final = ub, min(lb_final, ub)
        gap = optimality_gap(ub, lb_final)
        if status == "optimal" and ub - lb_final > gap_tol * max(1.0, abs(ub)):
            status = "tolerance_not_met"
    return SolveReport(
        x=incumbent,
        objective=objective,
        lower_bound=lb_final,
        gap_pct=gap,
        nodes=nodes,
        time_s=time.monotonic() - start,
        status=status,
        lp_solves=builder.lp_solves,
        kelley_cap_hits=builder.kelley_cap_hits,
        simplex_iterations=builder.simplex_iterations,
        log=log,
    )


def write_log_csv(report: SolveReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("node,depth,lb,ub,gap_pct\n")
        for row in report.log:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
