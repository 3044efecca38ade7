"""Branch-and-bound solver for the separable surrogate MINLP.

Separability is the whole game: the objective is a sum of univariate
piecewise polynomials, so every node relaxation is a small LP whose only
nonlinear content is handled by per-interval linear underestimators of the
univariate pieces (tangents on convex pieces, the secant on concave ones, a
Bernstein-shifted secant on mixed-curvature ones). Branching splits a
component's interval set in two halves (SOS1, Beale & Tomlin 1970), enforces
integrality of integer original variables, and bisects deviation ranges
where the envelope is loose; node selection is best-bound with FIFO
tie-break, so runs are deterministic.

Intervals that are convex over the node's deviation range get Kelley
(1960) tangents at the LP point, one LP round at a time. The loop stops on
the remaining gap: when no tangent would be added, when the new tangents'
summed violation at the LP point (which bounds what the next round can
gain) is at most ``0.01 * gap_tol * max(1, |value|)``, or after KELLEY_CAP
LPs (counted in ``SolveReport.kelley_cap_hits``). Every stop leaves a
relaxation, so bounds stay sound. A node's tangents stay on the model for
its children (a cut pool in the sense of Achterberg 2007): a tangent of a
piece convex on a range underestimates it on every sub-range, so it holds
in all descendants.

A node is its LP's column bounds (Achterberg 2007): two read-only arrays,
shared by children where branching leaves them unchanged. Fixing an
interval off pins its y, dev and sp to 0, so a half of a component's
intervals is fixed off with one slice; choosing one (after a deviation
range is bisected) sets its y to 1 and fixes its component's other
intervals off. The tables are built once per solve (``_LPBuilder``): the
rows every node LP holds as row-wise arrays (the fixed rows, then every
interval's cut block on its full range, one ``interval_cuts`` call per
component), the root's bounds, its convexity flags and the Kelley tables.
Separability means a child's relaxation differs from its parent's only in
the deviation ranges its branching narrowed, so a node computes the cut
block and the convexity flag of just those intervals and inherits every
other flag from its parent.

Once the root is solved, and only when its LP point gave an incumbent and
the gap is still open, the root's box is tightened against that incumbent
(optimality-based bound tightening, as in branch-and-reduce, Ryoo &
Sahinidis 1996, and Gleixner, Berthold, Müller & Weltge 2017;
``_tighten_root``). The shared model gets one cutoff row
``obj·z <= ub - constant`` and zero costs, and then minimises and maximises
each component's x column, 2p LPs warm-started one from the other; the row
is deleted and the costs restored afterwards. Each result, widened by
FRAC_TOL relative (integer columns then rounded inward), becomes a bound of
the root's box, and every interval wholly outside the box is fixed off.
Every point of the relaxation that could beat the incumbent stays inside,
so the bound stays sound; a tightening LP that is infeasible shows that no
point can, and the root closes at the incumbent. The root's LP point is
then branched on the tightened bounds, and the children start from the
root's basis as read before the tightening. ``SolveReport.tightening_lps``
counts these LPs, which ``lp_solves`` also holds.

Every node LP is solved on one HiGHS model per solve (``_SharedLP``;
Achterberg 2007), passed once through the numpy ``passModel`` of scipy's
bundled HiGHS bindings. A node is applied as ``changeColsBounds`` plus its
own rows, kept as a stack of frames along the search path (``_Frame``): the
cut blocks of the deviation ranges it narrows below its parent's, then its
Kelley tangents. A block on a range stays valid on every sub-range, and an
interval fixed off is bounds only, so no row is edited in place, and the
ancestors' tangents are the node's cut pool. A child of the node just
solved only appends rows and keeps HiGHS's basis; a jump deletes rows
back to the prefix shared with the node's path, re-adds the path's missing
frames and restores the parent's basis as ``getBasis`` returned it, read
once when the parent branched. Only a root starts cold. A Kelley round
adds its tangents in place and re-solves from the basis the last solve
left. A node is pruned only when its LP is infeasible (also "unbounded or
infeasible" when every x column is boxed); any other outcome that is not
optimal raises ``LPError``.
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
    """Linear underestimators a*x + b <= phi(x) on [lo, hi] of stacked
    polynomials of one degree, and whether each is convex there (so
    tangents at any point of the range are valid cuts); a degenerate range
    counts as not convex.

    phi holds rows of shape (m, d+1), each the deviation polynomial of one
    interval (power basis, zero constant term on unrefined intervals), with
    ``lo`` and ``hi`` of length m. Convex pieces get tangents, concave ones
    the secant (their convex envelope), mixed curvature gets the secant
    shifted down by a Bernstein bound of its overshoot. The curvature test
    is one Bernstein enclosure of phi''. The Bernstein lower bound of phi
    closes a row's list; a degenerate range gets only (0, phi at its
    middle). Returns arrays (row, a, b), row after row in that order, and
    ``convex``, a boolean array of length m; every row gets the operations
    of a one-row call, so the same bits.
    """
    P = np.asarray(phi, dtype=float)
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
    return np.nonzero(used)[0], a[used], b[used], convex


class Tangents(NamedTuple):
    """Kelley tangents sp >= (c0+b)*y + a*dev, one per entry: the index of
    the interval (its columns y, dev, sp), a and b."""

    index: np.ndarray
    a: np.ndarray
    b: np.ndarray


NO_TANGENTS = Tangents(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))


@dataclass(eq=False)
class _Frame:
    """A relaxed node's rows on the shared model, after its ancestors':
    the cut blocks of the deviation ranges it narrows below its parent's,
    as row-wise (entries per row, column index, value) blocks, then its
    Kelley tangents. ``convex`` flags the intervals convex over the node's
    deviation ranges (the parent's flags where the node leaves a range as
    it was; stale for intervals fixed off). ``end`` is the model's row
    count with the node's rows and ``basis`` the ``getBasis`` of its last
    LP, read when it branches."""

    parent: _Frame | None
    lower: np.ndarray  # the node's column bounds
    upper: np.ndarray
    blocks: list
    convex: np.ndarray
    tangents: Tangents = NO_TANGENTS
    end: int = 0
    basis: object = None

    def rows(self, builder) -> list:
        return self.blocks + [builder.cut_rows(*self.tangents)]


@dataclass(frozen=True, eq=False)
class Node:
    depth: int
    # the node LP's column bounds, read-only: children share the arrays
    # their branching leaves unchanged
    lower: np.ndarray
    upper: np.ndarray
    # the parent's frame: the rows of the node's ancestors and the basis
    # its first LP starts from; None at the root
    parent: _Frame | None = None

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
    kelley_cap_hits: int = 0  # node LPs stopped by KELLEY_CAP, not the gap
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


def _row_arrays(blocks):
    """Row-wise blocks (entries per row, column index, value) as one:
    (starts closed by the entry count, index, value)."""
    counts, index, value = (np.concatenate(p) for p in zip(*blocks))
    starts = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=starts[1:])
    return starts, index, value


class _LPBuilder:
    """The tables of one solve: column layout and default bounds, the rows
    every node LP holds (row-wise arrays), the root's convexity flags and
    the Kelley tables."""

    def __init__(self, surr: SurrogateMINLP, gap_tol: float):
        self.surr = surr
        # the Kelley loop stops once a round could raise the bound by at
        # most this fraction of the solve's gap tolerance
        self.progress_tol = 0.01 * gap_tol
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
        counts, index, value, lower, upper = [], [], [], [], []

        def add(entries, up: float, low: float = -math.inf) -> None:
            kept = [(col, val) for col, val in entries if val != 0.0]
            index.extend(col for col, _ in kept)
            value.extend(val for _, val in kept)
            counts.append(len(kept))
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
        blocks = [(np.array(counts, dtype=np.int32), np.array(index, dtype=np.int32),
                   np.array(value, dtype=float))]

        # the Kelley tables: phi and phi' per interval, zero-padded to one
        # width
        size = max([c.shape[1] for c in coeffs], default=1)
        self.phi = np.zeros((n, size))
        self.dphi = np.zeros((n, size))
        # every interval's cut block on its full range, the default block:
        # one ``interval_cuts`` call per component
        self.convex = np.zeros(n, dtype=bool)
        for j, (c, width) in enumerate(zip(coeffs, comp_widths)):
            k = len(c)
            phi = c.copy()
            phi[:, 0] = 0.0
            der = poly_der(phi)
            i = slice(int(self.first[j]), int(self.first[j]) + k)
            self.phi[i, : phi.shape[1]] = phi
            self.dphi[i, : der.shape[1]] = der
            row, a, b, convex = interval_cuts(phi, np.zeros(k), width)
            blocks.append(self.cut_rows(i.start + row, a, b))
            self.convex[i] = convex
        # every node LP's rows, the fixed rows and then the default blocks in
        # interval order, as (lower, upper, starts, index, value) arrays
        cuts = sum(len(c) for c, _, _ in blocks[1:])
        self.fixed = (
            np.concatenate([lower, np.full(cuts, -np.inf)]),
            np.concatenate([upper, np.zeros(cuts)]),
            *_row_arrays(blocks),
        )

    def _con_row(self, con):
        return [(self.col_x[n], c) for n, c in con.coeffs.items()]

    def deviation_poly(self, i: int) -> np.ndarray:
        """Interval i's polynomial in its deviation, constant dropped (the
        constant rides on y)."""
        j, q = self.intervals[i]
        phi = self.surr.components[j].piece.coeffs[q].copy()
        phi[0] = 0.0
        return phi

    def cut_rows(self, index, a, b):
        """The rows sp >= (c0+b)*y + a*dev of cuts (a, b) on intervals
        ``index`` as one row-wise block: the intercept rides on y so a cut
        reduces to sp >= 0 at y = 0 and to the plain affine underestimator at
        y = 1."""
        y = self.y_cols[index].astype(np.int32)
        cols = np.column_stack([y + 2, y, y + 1])
        vals = np.column_stack([np.full(len(y), -1.0), self.c0[index] + b, a])
        keep = vals != 0.0
        return keep.sum(axis=1, dtype=np.int32), cols[keep], vals[keep]


class LPError(RuntimeError):
    """A node LP ended in a state that is neither optimal nor infeasible, so
    no sound bound can be taken from it."""


class _SharedLP:
    """The one HiGHS model of a solve: min ``builder.obj`` over the rows
    every node holds (``builder.fixed``, passed once through the numpy
    ``passModel``), then the rows of a path of frames, root first.
    ``enter`` sets it to a node's LP, ``add_rows`` adds rows in place, and
    each ``solve`` starts from the basis the last one left. It counts the
    solve's LPs."""

    def __init__(self, builder: _LPBuilder):
        self.builder = builder
        self.lp_solves = 0
        self.tightening_lps = 0
        self.kelley_cap_hits = 0
        self.simplex_iterations = 0
        # the column bounds set, the frames whose rows the model holds, and
        # the frame whose final basis HiGHS holds (None when no frame's)
        self.lower, self.upper = builder.lower, builder.upper
        self.path = []
        self.warm = None
        self.cols = np.arange(builder.ncols, dtype=np.int32)
        lower, upper, starts, index, value = builder.fixed
        self.model = highs._Highs()
        self._check(self.model.setOptionValue("output_flag", False),
                    "setOptionValue")
        # dual simplex, the strategy scipy's method="highs" LP solves use
        dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        self._check(self.model.setOptionValue("simplex_strategy", dual),
                    "setOptionValue")
        self._check(self.model.passModel(
            builder.ncols, len(lower), len(index),
            int(highs.MatrixFormat.kRowwise), int(highs.ObjSense.kMinimize),
            0.0, builder.obj, builder.lower, builder.upper, lower, upper,
            starts[:-1], index, value,
            # an empty integrality array is refused; all zeros is an LP
            builder.integrality,
        ), "passModel")

    @staticmethod
    def _check(status, call: str) -> None:
        if status == highs.HighsStatus.kError:
            raise LPError(f"HiGHS {call} returned {status.name}")

    def add_rows(self, blocks) -> None:
        """Add row-wise blocks of rows ``a @ z <= 0``."""
        starts, index, value = _row_arrays(blocks)
        m = len(starts) - 1
        if m:
            self._check(self.model.addRows(
                m, np.full(m, -np.inf), np.zeros(m), len(index), starts[:-1],
                index, value,
            ), "addRows")

    def enter(self, node: Node):
        """Set the model to the node's LP and return the node's frame and
        Kelley intervals (those switched on and convex over its deviation
        ranges).

        The model keeps the rows of the frames on the node's path that it
        holds, deletes the rest, adds the path's missing frames and then the
        node's own cut blocks, and takes the node's column bounds. A node
        computes cuts only for the intervals switched on whose deviation
        range it narrows below its parent's, one ``interval_cuts`` call
        each; its convexity flags are its parent's (the builder's at the
        root) with those intervals' flags. A child of the node just solved
        keeps the basis HiGHS holds; any other node starts from its parent's
        saved basis (cold without one)."""
        builder, model = self.builder, self.model
        path = []
        frame = node.parent
        while frame is not None:
            path.append(frame)
            frame = frame.parent
        path.reverse()
        keep = 0
        while keep < min(len(path), len(self.path)) and path[keep] is self.path[keep]:
            keep += 1
        end = path[keep - 1].end if keep else len(builder.fixed[0])
        rows = model.getNumRow()
        if rows > end:
            gone = np.arange(end, rows, dtype=np.int32)
            self._check(model.deleteRows(len(gone), gone), "deleteRows")
        for frame in path[keep:]:
            self.add_rows(frame.rows(builder))
        if node.parent is not self.warm:
            if node.parent is None or node.parent.basis is None:
                self._check(model.clearSolver(), "clearSolver")
            else:
                self._check(model.setBasis(node.parent.basis), "setBasis")
        # the node's cut blocks on the deviation ranges it narrows below its
        # parent's, and its convexity mask: the parent's, with the flags of
        # those ranges; an interval fixed off is bounds only
        y = builder.y_cols
        lo, hi = node.lower[y + 1], node.upper[y + 1]
        on = node.upper[y] != 0.0
        parent = builder if node.parent is None else node.parent
        convex = parent.convex
        narrowed = on & ((lo != parent.lower[y + 1]) | (hi != parent.upper[y + 1]))
        blocks = []
        if narrowed.any():
            convex = convex.copy()
            for i in np.flatnonzero(narrowed).tolist():
                row, a, b, flag = interval_cuts(builder.deviation_poly(i)[None],
                                                lo[i : i + 1], hi[i : i + 1])
                blocks.append(builder.cut_rows(i + row, a, b))
                convex[i] = flag[0]
            self.add_rows(blocks)
        frame = _Frame(node.parent, node.lower, node.upper, blocks, convex)
        self.path = path + [frame]
        self.warm = frame
        self.lower, self.upper = node.lower, node.upper
        self._check(model.changeColsBounds(len(self.cols), self.cols, node.lower,
                                           node.upper), "changeColsBounds")
        return frame, np.flatnonzero(convex & on)

    def solve(self):
        """(status, value, x): 'optimal' with the LP value (without the
        surrogate constant) and point, or 'infeasible', math.inf, None.
        Any other outcome raises ``LPError``. Every solve counts in
        ``lp_solves`` and ``simplex_iterations``."""
        model = self.model
        self._check(model.run(), "run")
        self.lp_solves += 1
        self.simplex_iterations += model.getInfo().simplex_iteration_count
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


def relax_node(lp: _SharedLP, node: Node):
    """Solve the node LP on the shared model with Kelley rounds. Returns
    (status, value, z, frame): status is 'optimal' or 'infeasible', value
    includes the surrogate constant, and frame is the node's ``_Frame``
    (None when a box is empty), which its children take as their parent.

    A round adds the tangent at the LP point of every interval that is
    convex over the node range and underestimated there. The loop stops
    when no tangent would be added, when the new tangents' summed violation
    at the LP point, which bounds what the round can gain, is at most
    ``progress_tol`` (relative to max(1, |value|)), or after KELLEY_CAP
    solves. Each stop leaves a relaxation, so the bound is sound.
    """
    builder = lp.builder
    if (node.lower[: builder.nv] > node.upper[: builder.nv]).any():
        return "infeasible", math.inf, None, None
    frame, kelley = lp.enter(node)
    # the Kelley intervals' rows of the builder's tables; P stacks phi (at
    # dev), phi and phi' (at the clamp)
    col_y, c0 = builder.y_cols[kelley], builder.c0[kelley]
    P = np.concatenate([builder.phi[kelley]] * 2 + [builder.dphi[kelley]])
    found = []
    for rnd in range(KELLEY_CAP):
        status, fun, z = lp.solve()
        if status == "infeasible":
            return "infeasible", math.inf, None, frame
        value = fun + builder.surr.constant
        y, dev, sp = z[col_y], z[col_y + 1], z[col_y + 2]
        # the LP point may leave the range by HiGHS's tolerance; a tangent
        # is valid on the range only at a point inside it
        at = np.minimum(np.maximum(dev, node.lower[col_y + 1]), node.upper[col_y + 1])
        val, val_at, a = horner(P, np.concatenate([dev, at, at])).reshape(3, -1)
        gap = c0 * y + val - sp
        cut = ~(gap <= 1e-10 * np.maximum(1.0, np.abs(sp)))  # NaN gaps cut
        if not cut.any():
            break
        new = Tangents(kelley[cut], a[cut], (val_at - a * at)[cut])
        # the new rows' violation at the LP point bounds the gain: raising
        # each sp by its row's violation is feasible for the next LP
        gain = np.sum((c0[cut] + new.b) * y[cut] + new.a * dev[cut] - sp[cut])
        if gain <= builder.progress_tol * max(1.0, abs(value)):
            break
        if rnd == KELLEY_CAP - 1:
            lp.kelley_cap_hits += 1
            break
        lp.add_rows([builder.cut_rows(*new)])
        found.append(new)
    if found:
        frame.tangents = Tangents(*map(np.concatenate, zip(*found)))
    frame.end = lp.model.getNumRow()
    return "optimal", value, z, frame


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


def _tighten_root(lp: _SharedLP, ub: float):
    """The root's column bounds (a copy of ``lp``'s) with each component's
    x box cut to the points of the LP with value at most ``ub``, and every
    interval wholly outside that box fixed off; None when no such point
    exists. On the shared model, with one cutoff row ``obj·z <= ub -
    constant`` added and the costs zeroed, it minimises and maximises each
    component's x column: 2p LPs, each started from the basis the last one
    left. Each result is widened by FRAC_TOL relative, integer columns are
    rounded inward, and a bound whose LP ends neither optimal nor
    infeasible stays as it was. The cutoff row is deleted and the costs
    restored when it is done."""
    builder, model, ncols = lp.builder, lp.model, lp.builder.ncols
    cols = np.flatnonzero(builder.obj).astype(np.int32)
    cutoff = np.array([model.getNumRow()], dtype=np.int32)
    lp._check(model.addRow(-np.inf, ub - builder.surr.constant, len(cols),
                           cols, builder.obj[cols]), "addRow")
    lp._check(model.changeColsCost(ncols, lp.cols, np.zeros(ncols)), "changeColsCost")
    lp.warm = None  # the tightening LPs leave no node's basis
    lower, upper = lp.lower.copy(), lp.upper.copy()
    integer = set(builder.int_cols.tolist())
    try:
        for col, _, _ in builder.domains:
            for sense in (1.0, -1.0):
                lp._check(model.changeColCost(col, sense), "changeColCost")
                lp.tightening_lps += 1
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
    finally:
        lp._check(model.deleteRows(1, cutoff), "deleteRows")
        lp._check(model.changeColsCost(ncols, lp.cols, builder.obj), "changeColsCost")
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


def _branch(builder: _LPBuilder, node: Node, z, frame=None) -> list[Node] | None:
    """Children of the node, or None when the LP point is branch-free: on
    the interval set of the component of the most fractional free interval
    binary (SOS1), else on the first fractional integer variable, else on
    the deviation range with the largest envelope gap. Their parent is
    ``frame``, the node's.

    SOS1 dichotomy branching (Beale & Tomlin 1970) splits the component's
    free intervals at the LP's weighted interval position sum(q * y_q), so
    that both halves hold a free interval; the left child fixes the right
    half off and the right child the left half, each with one slice of the
    bounds (intervals fixed off already stay so)."""
    lower, upper = node.lower, node.upper
    y = builder.y_cols
    zy = z[y]
    x = z[builder.int_cols]
    fractional = np.flatnonzero(np.abs(x - np.round(x)) > FRAC_TOL)
    frac = np.where(lower[y] != upper[y], np.minimum(zy, 1.0 - zy), 0.0)
    i = _first_max_above(frac, FRAC_TOL)
    if i is not None:
        j = builder.intervals[i][0]
        first, k = builder.first[j], builder.surr.components[j].k
        free = np.flatnonzero(upper[y[first : first + k]] != 0.0)
        pos = float(zy[first : first + k] @ np.arange(k))
        # the right half's first interval; each half holds a free one
        s = min(max(math.floor(pos) + 1, free[0] + 1), free[-1])
        start, cut = y[first], y[first + s]
        left, right = (lower.copy(), upper.copy()), (lower.copy(), upper.copy())
        for bound in left:
            bound[cut : start + 3 * k] = 0.0
        for bound in right:
            bound[start:cut] = 0.0
        bounds = [left, right]
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
    return [Node(node.depth + 1, *bound, frame) for bound in bounds]


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
    lp = _SharedLP(builder)
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
        lp_status, lb, z, frame = relax_node(lp, node)
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
        # the root, with an incumbent of its own and the search not over:
        # branch on its box tightened against that incumbent, from its basis
        # as read before the tightening
        tighten = (node.depth == 0 and incumbent is not None
                   and optimality_gap(ub, lb) > 100.0 * gap_tol)
        if tighten:
            frame.basis = lp.model.getBasis()
            bounds = _tighten_root(lp, ub)
            if bounds is None:
                pruned_lb = min(pruned_lb, ub)
                continue  # no relaxation point beats the incumbent
            node = Node(0, *bounds)
        children = _branch(builder, node, z, frame)
        if children is None and tighten:
            # the LP point may be branch-free only because the intervals it
            # uses are now fixed off: relax the tightened root again
            children = [Node(1, node.lower, node.upper, frame)]
        if children is None:
            pruned_lb = min(pruned_lb, lb)
            continue  # LP point is exact for this node
        if frame.basis is None:
            frame.basis = lp.model.getBasis()  # where both children start
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
        lp_solves=lp.lp_solves,
        tightening_lps=lp.tightening_lps,
        kelley_cap_hits=lp.kelley_cap_hits,
        simplex_iterations=lp.simplex_iterations,
        log=log,
    )


def write_log_csv(report: SolveReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("node,depth,lb,ub,gap_pct\n")
        for row in report.log:
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
