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

A node is its LP's column bounds (Achterberg 2007): two read-only arrays,
shared by children where branching leaves them unchanged. Fixing an
interval off pins its y, dev and sp to 0; choosing one sets its y to 1 and
fixes its component's other intervals off. Everything else is built once
per solve (``_LPBuilder``): the rows as row-wise arrays, the root's bounds,
every interval's cut blocks on its full range and on [0, 0] (fixed off; one
``interval_cuts`` call per component) and the Kelley tables. Cut blocks of
other deviation ranges are cached per (interval, range); tangents travel as
``Tangents``.

Once the root is solved, and only when its LP point gave an incumbent and
the gap is still open, the root's box is tightened against that incumbent
(optimality-based bound tightening, as in branch-and-reduce, Ryoo &
Sahinidis 1996, and Gleixner, Berthold, Müller & Weltge 2017;
``_tighten_root``). The root's HiGHS model gets one cutoff row
``obj·z <= ub - constant`` and zero costs, and then minimises and maximises
each component's x column, 2p LPs warm-started one from the other. Each
result, widened by FRAC_TOL relative (integer columns then rounded
inward), becomes a bound of the root's box, and every interval wholly
outside the box is fixed off. Every point of the relaxation that could
beat the incumbent stays inside, so the bound stays sound; a tightening LP
that is infeasible shows that no point can, and the root closes at the
incumbent. The root's LP point is then branched on the tightened bounds,
and the children start from the root's basis as read before the
tightening. ``SolveReport.tightening_lps`` counts these LPs, which
``lp_solves`` also holds.

Each node's LP is one HiGHS model, passed as arrays through the numpy
``passModel`` of scipy's bundled HiGHS bindings (``_NodeLP``). Its first
solve starts from the parent's final basis, which both children share
(Achterberg 2007): kept as int8 statuses and mapped by position onto the
child's rows (fixed rows one to one, an interval's block one to one when the
child holds the same cached block and as basic slacks otherwise, tangent
rows through the child's keep-mask), then passed as an alien basis, so
HiGHS repairs the basic count where a dropped row was nonbasic. Only the
root starts cold. A Kelley round adds its tangents to the model in place
and re-solves it from the basis the last solve left. A node is pruned only
when its LP is infeasible (also "unbounded or infeasible" when every x
column is boxed); any other outcome that is not optimal raises ``LPError``.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize._highspy import _core as highs

from .splines import bernstein_bounds, horner, poly_der
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


def interval_cuts(phi, lo, hi):
    """Linear underestimators (a, b) with a*x + b <= phi(x) on [lo, hi],
    and whether phi is convex there (so tangents at any point of the range
    are valid cuts); a degenerate range counts as not convex.

    phi is the deviation polynomial of one interval (power basis, zero
    constant term on unrefined intervals). Convex pieces get tangents,
    concave ones the secant (their convex envelope), mixed curvature gets
    the secant shifted down by a Bernstein bound of its overshoot. The
    curvature test is one Bernstein enclosure of phi''. The Bernstein lower
    bound of phi closes the list; a degenerate range gets only (0, phi at
    its middle).

    phi may also be stacked rows of one degree, shape (m, d+1), with ``lo``
    and ``hi`` of length m. The cuts are then arrays (row, a, b), row after
    row in the order above, and ``convex`` a boolean array; every row gets
    the operations of a call on it alone, so the same bits.
    """
    P = np.atleast_2d(np.asarray(phi, dtype=float))
    m, size = P.shape
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (m,)) for v in (lo, hi))
    # six cut slots per row: the tangents, the secant or the degenerate
    # range's constant from slot 0 on, the Bernstein lower bound in slot 5
    a, b = np.zeros((2, m, 6))
    convex = np.zeros(m, dtype=bool)
    flat = hi - lo <= 1e-14
    f = np.flatnonzero(flat)
    b[f, 0] = horner(P[f], 0.5 * (lo[f] + hi[f]))
    r = np.flatnonzero(~flat)
    if len(r):
        P, lo, hi = P[r], lo[r], hi[r]
        der = poly_der(P)
        curv_lo, curv_hi = bernstein_bounds(poly_der(der), lo, hi)
        top = np.abs(P).max(axis=1)
        scale = np.where(top > 1.0, top, 1.0)  # max(1, top)
        convex[r] = cvx = curv_lo >= -1e-12 * scale
        # convex: tangents at np.linspace(lo, hi, 5), whose step is not 0
        # on a range wider than 1e-14
        c = np.flatnonzero(cvx)
        pts = np.arange(5.0) * ((hi[c] - lo[c]) / 4)[:, None] + lo[c, None]
        pts[:, 4] = hi[c]
        slope = horner(der[c], pts)
        a[r[c], :5] = slope
        b[r[c], :5] = horner(P[c], pts) - slope * pts
        # otherwise the secant, shifted below the overshoot where the
        # curvature is mixed
        s = np.flatnonzero(~cvx)
        Ps, lo_s, hi_s = P[s], lo[s], hi[s]
        v_lo = horner(Ps, lo_s)
        sa = (horner(Ps, hi_s) - v_lo) / (hi_s - lo_s)
        sb = v_lo - sa * lo_s
        x = np.flatnonzero(~(curv_hi[s] <= 1e-12 * scale[s]))
        if len(x):
            over = np.zeros((len(x), max(size, 2)))
            over[:, :size] -= P[s[x]]
            over[:, 0] += sb[x]
            over[:, 1] += sa[x]
            _, delta = bernstein_bounds(over, lo_s[x], hi_s[x])
            sb[x] -= np.where(0.0 > delta, 0.0, delta)  # max(delta, 0)
        a[r[s], 0] = sa
        b[r[s], 0] = sb
        b[r, 5] = bernstein_bounds(P, lo, hi)[0]
    used = np.column_stack([np.ones(m, dtype=bool)] + [convex] * 4 + [~flat])
    if np.ndim(phi) == 1:
        return list(zip(a[used].tolist(), b[used].tolist())), bool(convex[0])
    return np.nonzero(used)[0], a[used], b[used], convex


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


class Tangents(NamedTuple):
    """Kelley tangents sp >= (c0+b)*y + a*dev, one per entry: the index of
    the interval (its columns y, dev, sp), a and b."""

    index: np.ndarray
    a: np.ndarray
    b: np.ndarray


NO_TANGENTS = Tangents(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))


@dataclass(frozen=True, eq=False)
class Node:
    depth: int
    # the node LP's column bounds, read-only: children share the arrays
    # their branching leaves unchanged
    lower: np.ndarray
    upper: np.ndarray
    # Kelley tangents of the ancestors, on ranges containing this node's
    tangents: Tangents = NO_TANGENTS
    # the parent's final basis, where the node's first LP starts; None at
    # the root
    basis: _Basis | None = None

    def __post_init__(self):
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)


@dataclass
class SolveReport:
    x: np.ndarray | None
    objective: float
    lower_bound: float
    gap_pct: float
    nodes: int
    time_s: float
    status: str
    lp_solves: int = 0  # node and tightening LPs
    tightening_lps: int = 0  # the root's bound-tightening LPs
    kelley_cap_hits: int = 0  # node LPs stopped by KELLEY_CAP, not progress
    simplex_iterations: int = 0  # HiGHS simplex iterations over all node LPs
    log: list = field(default_factory=list)  # write_log_csv's rows

    def csv_row(self) -> str:
        """One row under SOLVE_CSV_HEADER."""
        obj = f"{self.objective:.12g}" if self.x is not None else ""
        return (
            f"{obj},{self.lower_bound:.12g},{self.gap_pct:.6g},"
            f"{self.nodes},{self.time_s:.3f},{self.status}"
        )


SOLVE_CSV_HEADER = "objective,lower_bound,gap_pct,nodes,time_s,status"


class _Rows:
    """A node LP's cut rows ``a @ x <= 0`` in blocks of row-wise arrays
    (entries per row, column index, value), as HiGHS takes them; zero
    entries are not stored. The blocks are one cut block per interval, in
    interval order, then the blocks of tangent rows; ``ids`` and
    ``block_rows`` hold each interval block's cache id and row count."""

    def __init__(self, blocks, ids, block_rows):
        self.blocks = blocks
        self.ids = ids
        self.block_rows = block_rows

    def arrays(self):
        """The rows as (lower, upper, starts, index, value) arrays, with
        starts closed by the entry count."""
        counts, index, value = (np.concatenate(p) for p in zip(*self.blocks))
        starts = np.zeros(len(counts) + 1, dtype=np.int32)
        np.cumsum(counts, out=starts[1:])
        return (np.full(len(counts), -np.inf), np.zeros(len(counts)),
                starts, index, value)


class _CutBlock(NamedTuple):
    """``interval_cuts`` of one interval on one deviation range as a
    ``_Rows`` block, whether the interval is convex there, and the block's
    cache id."""

    rows: tuple
    convex: bool
    id: int


class _LPBuilder:
    """The tables of one solve: column layout and default bounds, the fixed
    rows (row-wise arrays), every interval's cut block on its full range,
    the cache of the other cut blocks, the Kelley tables, and the LP
    counters shared by all node LPs."""

    def __init__(self, surr: SurrogateMINLP, gap_tol: float):
        self.surr = surr
        # the Kelley loop stops once a round raises the bound by at most
        # this fraction of the solve's gap tolerance
        self.progress_tol = 0.01 * gap_tol
        self.lp_solves = 0
        self.tightening_lps = 0
        self.kelley_cap_hits = 0
        self.simplex_iterations = 0
        self.nv = len(surr.variables)
        self.col_x = {v.name: j for j, v in enumerate(surr.variables)}
        # interval i = (j, q) owns the columns y, dev, sp at y_cols[i] + 0, 1,
        # 2; component j's sigma is column j of the last p; int_cols are the
        # integer variables' x columns
        self.intervals = [
            (j, q) for j, comp in enumerate(surr.components)
            for q in range(comp.k)
        ]
        n = len(self.intervals)
        p = len(surr.components)
        self.y_cols = self.nv + 3 * np.arange(n)
        self.ncols = self.nv + 3 * n + p
        self.int_cols = np.flatnonzero([v.integer for v in surr.variables])
        # index of component j's first interval
        self.first = np.cumsum([0] + [c.k for c in surr.components])[:-1]
        comp_widths = [c.widths for c in surr.components]
        self.widths = np.concatenate(comp_widths or [np.zeros(0)])
        coeffs = [c.piece.coeffs for c in surr.components]
        self.c0 = np.concatenate([c[:, 0] for c in coeffs] or [np.zeros(0)])
        # per component: the x column, the first and the last knot
        self.domains = [
            (self.col_x[c.var], c.breakpoints[0], c.breakpoints[-1])
            for c in surr.components
        ]

        self.obj = np.zeros(self.ncols)
        for name, coeff in surr.linear.items():
            self.obj[self.col_x[name]] += coeff
        self.obj[self.ncols - p :] += 1.0
        self.integrality = np.zeros(self.ncols, dtype=np.int32)  # continuous

        # the root's column bounds: x in its box, y in [0, 1], dev in
        # [0, width], sp and sigma free
        self.lower = np.full(self.ncols, -np.inf)
        self.upper = np.full(self.ncols, np.inf)
        for v in surr.variables:
            self.lower[self.col_x[v.name]] = v.lower
            self.upper[self.col_x[v.name]] = v.upper
        self.lower[self.y_cols] = self.lower[self.y_cols + 1] = 0.0
        self.upper[self.y_cols] = 1.0
        self.upper[self.y_cols + 1] = self.widths

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
            y = self.y_cols[self.first[j] : self.first[j] + comp.k].tolist()
            add([(col, 1.0) for col in y], 1.0, 1.0)
            link = [(self.col_x[comp.var], 1.0)]
            for col, knot in zip(y, comp.breakpoints):
                link.append((col, -knot))
                link.append((col + 1, -1.0))
            add(link, 0.0, 0.0)
            add([(self.ncols - p + j, 1.0)] + [(col + 2, -1.0) for col in y], 0.0, 0.0)
        for con in surr.linear_constraints:
            if con.relation == "=":
                add(self._con_row(con), -con.constant, -con.constant)
        for col, width in zip(self.y_cols.tolist(), self.widths):
            add(((col + 1, 1.0), (col, -width)), 0.0)
        for con in surr.linear_constraints:
            if con.relation != "=":
                add(self._con_row(con), -con.constant)
        # the head of every node's HiGHS model, as (lower, upper, starts,
        # index, value) arrays
        self.fixed = (
            np.array(lower), np.array(upper), np.array(starts, dtype=np.int32),
            np.array(index, dtype=np.int32), np.array(value, dtype=float),
        )

        # (i, lo, hi) -> _CutBlock; per solve, since two surrogates share
        # keys
        self._cuts = {}
        # the Kelley tables: phi and phi' per interval, zero-padded to one
        # width
        size = max([c.shape[1] for c in coeffs], default=1)
        self.phi = np.zeros((n, size))
        self.dphi = np.zeros((n, size))
        # every interval's cut blocks on its full range (the default block,
        # id i) and on [0, 0] (fixed off, id n + i): one ``interval_cuts``
        # call per component
        self.blocks = []
        for j, (c, width) in enumerate(zip(coeffs, comp_widths)):
            k = len(c)
            phi = c.copy()
            phi[:, 0] = 0.0
            der = poly_der(phi)
            i = slice(int(self.first[j]), int(self.first[j]) + k)
            self.phi[i, : phi.shape[1]] = phi
            self.dphi[i, : der.shape[1]] = der
            row, a, b, convex = interval_cuts(
                np.vstack([phi, phi]), np.zeros(2 * k),
                np.concatenate([width, np.zeros(k)]),
            )
            counts, index, value = self.cut_rows(i.start + row % k, a, b)
            # block r's rows and entries end at row_end[r], entry_end[r]
            row_end = np.cumsum(np.bincount(row, minlength=2 * k)).tolist()
            entry_end = np.cumsum(counts)[np.subtract(row_end, 1)].tolist()
            for r, (r0, r1, e0, e1) in enumerate(zip(
                [0] + row_end, row_end, [0] + entry_end, entry_end
            )):
                rows = (counts[r0:r1], index[e0:e1], value[e0:e1])
                q, off = r % k, r >= k
                block = _CutBlock(rows, bool(convex[r]), i.start + q + n * off)
                self._cuts[i.start + q, 0.0, 0.0 if off else width[q]] = block
                if not off:
                    self.blocks.append(block)
        self.ids = np.arange(n, dtype=np.int32)
        self.block_rows = np.array([len(b.rows[0]) for b in self.blocks], np.int32)
        self.convex = np.array([b.convex for b in self.blocks], dtype=bool)

    def _con_row(self, con):
        return [(self.col_x[n], c) for n, c in con.coeffs.items()]

    def block(self, i: int, lo: float, hi: float) -> _CutBlock:
        """Interval i's cut block on deviation range [lo, hi], computed once
        per solve."""
        key = (i, lo, hi)
        block = self._cuts.get(key)
        if block is None:
            row, a, b, convex = interval_cuts(
                self.deviation_poly(i)[None], [lo], [hi]
            )
            block = _CutBlock(self.cut_rows(i + row, a, b), bool(convex[0]),
                              len(self._cuts))
            self._cuts[key] = block
        return block

    def deviation_poly(self, i: int) -> np.ndarray:
        """Interval i's polynomial in its deviation, constant dropped (the
        constant rides on y)."""
        j, q = self.intervals[i]
        phi = self.surr.components[j].piece.coeffs[q].copy()
        phi[0] = 0.0
        return phi

    def cut_rows(self, index, a, b):
        """The rows sp >= (c0+b)*y + a*dev of cuts (a, b) on intervals
        ``index`` as one ``_Rows`` block: the intercept rides on y so a cut
        reduces to sp >= 0 at y = 0 and to the plain affine underestimator at
        y = 1."""
        y = self.y_cols[index].astype(np.int32)
        cols = np.column_stack([y + 2, y, y + 1])
        vals = np.column_stack([np.full(len(y), -1.0), self.c0[index] + b, a])
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


def _node_lp(builder: _LPBuilder, node: Node):
    """The node's cut rows, the start basis of its first LP (None for a node
    without a parent basis), its Kelley intervals (the indices of those
    convex over the node range) and the inherited tangents it keeps; or None
    when a box is empty. The builder's default blocks serve every interval
    whose deviation range is its full width."""
    if (node.lower[: builder.nv] > node.upper[: builder.nv]).any():
        return None
    y = builder.y_cols
    lo, hi = node.lower[y + 1], node.upper[y + 1]
    blocks = [block.rows for block in builder.blocks]
    ids, block_rows = builder.ids.copy(), builder.block_rows.copy()
    # an interval fixed off has the range [0, 0], where it is not convex
    convex = builder.convex.copy()
    for i in np.flatnonzero((lo != 0.0) | (hi != builder.widths)).tolist():
        block = builder.block(i, float(lo[i]), float(hi[i]))
        blocks[i], ids[i], convex[i] = block.rows, block.id, block.convex
        block_rows[i] = len(block.rows[0])
    rows = _Rows(blocks, ids, block_rows)
    # on an interval fixed off y, dev and sp are 0, so its tangents are void
    keep = node.upper[y[node.tangents.index]] != 0.0
    tangents = Tangents(*(t[keep] for t in node.tangents))
    rows.blocks.append(builder.cut_rows(*tangents))
    start = None if node.basis is None else _start_basis(builder, node.basis, rows, keep)
    return rows, start, np.flatnonzero(convex), tangents


class LPError(RuntimeError):
    """A node LP ended in a state that is neither optimal nor infeasible, so
    no sound bound can be taken from it."""


class _NodeLP:
    """One node LP, min ``builder.obj`` over the solve's fixed rows and the
    node's cut rows within column bounds, as one HiGHS model that grows by
    Kelley rows. The model is passed as arrays through the bindings' numpy
    ``passModel``. The first ``solve`` starts from ``start`` (an alien
    basis) when given, otherwise cold; ``add_rows`` adds rows in place, and
    each later ``solve`` starts from the basis the last one left."""

    def __init__(self, builder: _LPBuilder, lower, upper, rows: _Rows,
                 start=None):
        self.builder = builder
        self.lower, self.upper = lower, upper
        self.rows = rows
        f_lower, f_upper, f_starts, f_index, f_value = builder.fixed
        n_lower, n_upper, n_starts, n_index, n_value = rows.arrays()
        index = np.concatenate([f_index, n_index])
        self.model = highs._Highs()
        self._check(self.model.setOptionValue("output_flag", False),
                    "setOptionValue")
        # dual simplex, the strategy scipy's method="highs" LP solves use
        dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self._check(self.model.setOptionValue("simplex_strategy", dual),
                    "setOptionValue")
        self._check(self.model.passModel(
            builder.ncols, len(f_lower) + len(n_lower), len(index),
            int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize),
            0.0, builder.obj, lower, upper,
            np.concatenate([f_lower, n_lower]),
            np.concatenate([f_upper, n_upper]),
            np.concatenate([f_starts[:-1], len(f_index) + n_starts[:-1]]),
            index, np.concatenate([f_value, n_value]),
            # an empty integrality array is refused; all zeros is an LP
            builder.integrality,
        ), "passModel")
        if start is not None:
            self._check(self.model.setBasis(start), "setBasis")

    @staticmethod
    def _check(status, call: str) -> None:
        if status == highs.HighsStatus.kError:
            raise LPError(f"HiGHS {call} returned {status.name}")

    def add_rows(self, tangents: Tangents) -> None:
        """Add the rows ``sp >= (c0+b)*y + a*dev`` of Kelley tangents."""
        counts, index, value = block = self.builder.cut_rows(*tangents)
        self.rows.blocks.append(block)
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
        Any other outcome raises ``LPError``. Every solve counts in the
        builder's ``lp_solves`` and ``simplex_iterations``."""
        model = self.model
        self._check(model.run(), "run")
        self.builder.lp_solves += 1
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
    lp = _node_lp(builder, node)
    if lp is None:
        return "infeasible", math.inf, None, NO_TANGENTS, None
    rows, start, kelley, tangents = lp
    model = _NodeLP(builder, node.lower, node.upper, rows, start)
    # the Kelley intervals' rows of the builder's tables; P stacks phi (at
    # dev), phi and phi' (at the clamp)
    col_y, c0 = builder.y_cols[kelley], builder.c0[kelley]
    P = np.concatenate([builder.phi[kelley]] * 2 + [builder.dphi[kelley]])
    found = [tangents]
    prev = -math.inf
    for rnd in range(KELLEY_CAP):
        status, fun, z = model.solve()
        if status == "infeasible":
            return "infeasible", math.inf, None, NO_TANGENTS, None
        value = fun + builder.surr.constant
        if value - prev <= builder.progress_tol * max(1.0, abs(value)):
            break
        prev = value
        y, dev, sp = z[col_y], z[col_y + 1], z[col_y + 2]
        # the LP point may leave the range by HiGHS's tolerance; a tangent
        # is valid on the range only at a point inside it
        at = np.minimum(np.maximum(dev, node.lower[col_y + 1]), node.upper[col_y + 1])
        val, val_at, a = horner(P, np.concatenate([dev, at, at])).reshape(3, -1)
        gap = c0 * y + val - sp
        cut = ~(gap <= 1e-10 * np.maximum(1.0, np.abs(sp)))  # NaN gaps cut
        if not cut.any():
            break
        if rnd == KELLEY_CAP - 1:
            builder.kelley_cap_hits += 1
            break
        new = Tangents(kelley[cut], a[cut], (val_at - a * at)[cut])
        model.add_rows(new)
        found.append(new)
    if len(found) > 1:
        tangents = Tangents(*map(np.concatenate, zip(*found)))
    return "optimal", value, z, tangents, model


def _try_incumbent(builder: _LPBuilder, z) -> tuple[float, np.ndarray] | None:
    """Lift the LP point's original coordinates into a feasible surrogate
    solution; integer variables are rounded and feasibility rechecked.

    A component keeps the LP's own interval when its y is integral and its
    x was not moved by rounding or clamping: at a knot the LP may pick the
    left interval (deviation = width), which the knot rule of
    ``eval_surrogate_at`` would score with the right one.
    """
    surr = builder.surr
    x_lp = z[: builder.nv].copy()
    x = x_lp.copy()
    for j, v in enumerate(surr.variables):
        if v.integer:
            x[j] = round(x[j])
        x[j] = min(max(x[j], v.lower), v.upper)
    for i, lo, hi in builder.domains:
        x[i] = min(max(x[i], lo), hi)
    idx = builder.col_x
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
        y = builder.y_cols[builder.first[j] : builder.first[j] + comp.k]
        q = int(np.argmax(z[y]))
        if x[i] != x_lp[i] or z[y[q]] < 1.0 - FRAC_TOL or lift["y"][j][q] == 1.0:
            continue  # moved, fractional, or already the knot rule's interval
        width = builder.widths[builder.first[j] + q]
        dev = min(max(z[y[q] + 1], 0.0), width)
        value += float(horner(comp.piece.coeffs[q], dev)) - lift["sigma"][j]
    return value, x


def _first_max_above(values: np.ndarray, tol: float) -> int | None:
    """The first argmax of ``values`` when their maximum exceeds ``tol``:
    what a scan keeping only strictly larger values picks. Else None."""
    if values.size and values.max() > tol:
        return int(np.argmax(values))
    return None


def _choose(builder: _LPBuilder, lower, upper, i: int) -> None:
    """Set interval i's y to 1 and fix its component's other intervals off
    (y, dev and sp pinned to 0), in place; i keeps its deviation range."""
    j = builder.intervals[i][0]
    start, col = builder.y_cols[builder.first[j]], builder.y_cols[i]
    end = start + 3 * builder.surr.components[j].k
    for s in (slice(start, col), slice(col + 3, end)):
        lower[s] = upper[s] = 0.0
    lower[col] = upper[col] = 1.0


def _tighten_root(builder: _LPBuilder, lp: _NodeLP, ub: float):
    """The root's column bounds (a copy of ``lp``'s) with each component's
    x box cut to the points of the LP with value at most ``ub``, and every
    interval wholly outside that box fixed off; None when no such point
    exists. On ``lp``'s model, with one cutoff row ``obj·z <= ub -
    constant`` added and the costs zeroed, it minimises and maximises each
    component's x column: 2p LPs, each started from the basis the last one
    left. Each result is widened by FRAC_TOL relative, integer columns are
    rounded inward, and a bound whose LP ends neither optimal nor
    infeasible stays as it was."""
    model, ncols = lp.model, builder.ncols
    cols = np.flatnonzero(builder.obj).astype(np.int32)
    lp._check(model.addRow(-np.inf, ub - builder.surr.constant, len(cols),
                           cols, builder.obj[cols]), "addRow")
    lp._check(model.changeColsCost(ncols, np.arange(ncols, dtype=np.int32),
                                   np.zeros(ncols)), "changeColsCost")
    lower, upper = lp.lower.copy(), lp.upper.copy()
    integer = set(builder.int_cols.tolist())
    for col, _, _ in builder.domains:
        for sense in (1.0, -1.0):
            lp._check(model.changeColCost(col, sense), "changeColCost")
            builder.tightening_lps += 1
            try:
                # the value is read here: resetting the cost zeroes it
                status, value, _ = lp.solve()
            except LPError:
                status = "unsettled"
            lp._check(model.changeColCost(col, 0.0), "changeColCost")
            if status == "infeasible":
                return None
            if status != "optimal":
                continue
            v = sense * value
            v -= sense * FRAC_TOL * max(1.0, abs(v))
            if col in integer:
                v = math.ceil(v - FRAC_TOL) if sense > 0 else math.floor(v + FRAC_TOL)
            if sense > 0:
                lower[col] = max(lower[col], v)
            else:
                upper[col] = min(upper[col], v)
    if (lower[: builder.nv] > upper[: builder.nv]).any():
        return None
    # interval (j, q) spans knots q and q + 1 of component j's x column
    x_col = np.array([builder.domains[j][0] for j, _ in builder.intervals],
                     dtype=np.intp)
    comps = builder.surr.components
    left, right = (np.concatenate([c.breakpoints[s] for c in comps])
                   for s in (slice(None, -1), slice(1, None)))
    out = (right < lower[x_col]) | (left > upper[x_col])
    for col in builder.y_cols[out].tolist():
        lower[col : col + 3] = upper[col : col + 3] = 0.0
    return lower, upper


def _branch(builder: _LPBuilder, node: Node, z, tangents=NO_TANGENTS,
            lp=None, basis=None) -> list[Node] | None:
    """Children of the node, or None when the LP point is branch-free: on
    the most fractional free interval binary, else on the first fractional
    integer variable, else on the deviation range with the largest envelope
    gap. They inherit ``tangents`` and start from ``basis`` when it is
    given, else from the final basis of ``lp``, the node's solved
    ``_NodeLP``, when that is given."""
    lower, upper = node.lower, node.upper
    y = builder.y_cols
    zy = z[y]
    x = z[builder.int_cols]
    fractional = np.flatnonzero(np.abs(x - np.round(x)) > FRAC_TOL)
    frac = np.where(lower[y] != upper[y], np.minimum(zy, 1.0 - zy), 0.0)
    i = _first_max_above(frac, FRAC_TOL)
    if i is not None:
        off, on = (lower.copy(), upper.copy()), (lower.copy(), upper.copy())
        for bound in off:
            bound[y[i] : y[i] + 3] = 0.0
        _choose(builder, *on, i)
        bounds = [off, on]
    elif len(fractional):
        col, xv = builder.int_cols[fractional[0]], x[fractional[0]]
        left, right = upper.copy(), lower.copy()
        left[col], right[col] = math.floor(xv), math.ceil(xv)
        bounds = [(lower, left), (right, upper)]
    else:
        on = np.flatnonzero(zy >= 0.5)
        dev = z[y[on] + 1]
        gap = builder.c0[on] * zy[on] + horner(builder.phi[on], dev) - z[y[on] + 2]
        k = _first_max_above(gap, 1e-9)
        if k is None:
            return None
        col = y[on[k]] + 1
        lo, hi = lower[col], upper[col]
        m = min(max(dev[k], lo + 0.2 * (hi - lo)), hi - 0.2 * (hi - lo))
        left, right = upper.copy(), (lower.copy(), upper.copy())
        left[col] = right[0][col] = m
        _choose(builder, *right, on[k])
        bounds = [(lower, left), right]
    if basis is None and lp is not None:
        basis = lp.basis()
    return [Node(node.depth + 1, *bound, tangents, basis) for bound in bounds]


def solve(
    surrogate: SurrogateMINLP,
    time_limit: float = 600.0,
    node_cap: int = 200_000,
    gap_tol: float = 1e-4,
) -> SolveReport:
    """Best-bound branch-and-bound; deterministic for identical inputs.

    The search stops once the relative gap ``optimality_gap`` is within
    ``100 * gap_tol`` percent. A node is closed when its bound is within
    ``0.5 * gap_tol * max(1, |ub|)`` of the incumbent, and the status is
    'optimal' when the final bounds meet the same measure at full width,
    ``ub - lb <= gap_tol * max(1, |ub|)``; for |ub| < 1 that is absolute,
    so the reported ``gap_pct`` may then exceed ``100 * gap_tol``.

    ``SolveReport.log`` gets one row per node that survives its bound
    check: node number, depth, the least bound of it and the open nodes,
    the incumbent value and the gap (both NaN before the first incumbent).
    """
    if surrogate.nonlinear_constraints:
        raise UnsupportedSurrogateError(NONLINEAR_CONSTRAINTS_UNSUPPORTED)
    start = time.monotonic()
    builder = _LPBuilder(surrogate, gap_tol)
    root = Node(0, builder.lower, builder.upper)
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
        basis = None
        if (node.depth == 0 and incumbent is not None
                and optimality_gap(ub, lb) > 100.0 * gap_tol):
            # the root, with an incumbent of its own and the search not
            # over: branch on its box tightened against that incumbent
            basis = lp.basis()
            bounds = _tighten_root(builder, lp, ub)
            if bounds is None:
                pruned_lb = min(pruned_lb, ub)
                continue  # no relaxation point beats the incumbent
            node = Node(0, *bounds)
        children = _branch(builder, node, z, tangents, lp, basis)
        if children is None and basis is not None:
            # the LP point may be branch-free only because the intervals it
            # uses are now fixed off: relax the tightened root again
            children = [Node(1, node.lower, node.upper, tangents, basis)]
        if children is None:
            pruned_lb = min(pruned_lb, lb)
            continue  # LP point is exact for this node
        for child in children:
            counter += 1
            heapq.heappush(heap, (lb, counter, child))

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
        tightening_lps=builder.tightening_lps,
        kelley_cap_hits=builder.kelley_cap_hits,
        simplex_iterations=builder.simplex_iterations,
        log=log,
    )


def write_log_csv(report: SolveReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("node,depth,lb,ub,gap_pct\n")
        for row in report.log:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
