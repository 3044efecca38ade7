"""Instance definition language, sampling, and the end-to-end driver.

Instances are plain text, one statement per ``;``:

    var <name> in [lo, hi] [integer];
    min <expr>;
    st <expr> <= 0;            (also >=, =, and the "s.t." spelling)
    shape bounds [L, U];
    shape monotone <var> up|down;
    shape convex <var>;  shape concave <var>;
    point interp|under|over <index> <index> ...;
    bestknown <value>;

``#`` starts a comment; expressions use infix syntax with ``^`` for powers.

The stages run here and nowhere else. ``surrogate_stages`` samples, fits
and builds the surrogate; ``run_missoc`` rejects an instance the solver
cannot take (``check_solvable``), runs those three, then solves the
surrogate and refines. Each stage runs under ``_staged``, which times it and
raises its failure as ``StageError`` tagged with the stage. Every ``missoc``
subcommand goes through one of the two.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from types import MappingProxyType

import numpy as np

from .expressions import (
    BinOp,
    Const,
    Expr,
    ParseError,
    decompose_affine,
    evaluate,
    evaluate_block,
    parse_expr,
    split_affine,
    variables_of,
)
from .regression import (
    DEFAULT_DEGREE,
    DEFAULT_INTERVALS,
    TrainingSet,
    per_covariate,
)
from .shapecon import (
    CONCAVE,
    CONVEX,
    DECREASING,
    INCREASING,
    PointwiseSet,
    ShapeSpec,
)


class InstanceValidationError(ValueError):
    """The parsed instance violates a structural assumption."""


class SamplingError(RuntimeError):
    """Could not draw finite responses within the resampling cap."""


class StageError(RuntimeError):
    """An algorithm stage failed; carries the stage tag."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class Variable:
    name: str
    lower: float
    upper: float
    integer: bool = False


@dataclass(frozen=True)
class Constraint:
    """g(x) <relation> 0 with relation in {"<=", "="}."""

    expr: Expr
    relation: str = "<="


@dataclass(frozen=True)
class ConstraintRows:
    """The original constraints as one record: the affine ones as rows
    ``A @ x + b <= 0``, or ``= 0`` where ``eq``, with one column per
    variable in declaration order, and the others as they are."""

    A: np.ndarray  # (m, n), a repeated variable's coefficients summed
    b: np.ndarray  # (m,)
    eq: np.ndarray  # (m,) bool
    nonaffine: tuple[Constraint, ...]  # in input order


@dataclass(frozen=True)
class ProblemInstance:
    variables: tuple[Variable, ...]
    objective: Expr
    constraints: tuple[Constraint, ...] = ()
    shape: ShapeSpec | None = None
    best_known: float | None = None
    name: str = "instance"

    def var_index(self) -> dict[str, int]:
        return {v.name: j for j, v in enumerate(self.variables)}

    def env(self, x) -> dict[str, float]:
        return {v.name: float(xi) for v, xi in zip(self.variables, x)}

    def objective_value(self, x) -> float:
        return evaluate(self.objective, self.env(x))

    def constraint_values(self, x) -> np.ndarray:
        env = self.env(x)
        return np.array([evaluate(c.expr, env) for c in self.constraints])

    @cached_property
    def constraint_rows(self) -> ConstraintRows:
        """The constraints' record, built on first use: every stage reads
        this one, so ``decompose_affine`` runs once per constraint."""
        col = self.var_index()
        split = [(con, decompose_affine(con.expr)) for con in self.constraints]
        affine = [(con, aff) for con, aff in split if aff is not None]
        A = np.zeros((len(affine), len(self.variables)))
        for a, (_, (_, coeffs)) in zip(A, affine):
            for name, c in coeffs.items():
                a[col[name]] += c
        return ConstraintRows(
            A,
            np.array([aff[0] for _, aff in affine], dtype=float),
            np.array([con.relation == "=" for con, _ in affine], dtype=bool),
            tuple(con for con, aff in split if aff is None),
        )

    @cached_property
    def complicating_split(self):
        """(affine constant, affine coeffs by name, nonlinear terms) of g_0,
        split on first use; the coefficients are a read-only mapping and the
        terms a tuple, so no reader can change what the others read."""
        const, coeffs, nonlinear = split_affine(self.objective)
        return const, MappingProxyType(coeffs), tuple(nonlinear)

    def covariates(self) -> tuple[str, ...]:
        """Variables appearing in the nonlinear part of g_0, in declaration
        order."""
        _, _, nonlinear = self.complicating_split
        names = set()
        for term in nonlinear:
            names |= variables_of(term)
        return tuple(v.name for v in self.variables if v.name in names)


@dataclass(frozen=True)
class MissocConfig:
    """Settings of one pipeline run; the CLI takes its defaults from here.
    Out-of-range values raise ``ValueError`` naming the field."""

    degrees: int | tuple[int, ...] = DEFAULT_DEGREE
    intervals: int | tuple[int, ...] = DEFAULT_INTERVALS
    samples_per_param: int = 15
    seed: int = 0
    time_limit: float = 600.0
    gap_tol: float = 1e-4
    node_cap: int = 200_000
    refine: bool = True

    def __post_init__(self):
        # per entry for per-covariate sequences
        for name, least in (
            ("degrees", 0),
            ("intervals", 1),
            ("samples_per_param", 1),
            ("seed", 0),
            ("node_cap", 1),
        ):
            value = getattr(self, name)
            entries = np.atleast_1d(value)
            if not all(float(v).is_integer() for v in entries):
                raise ValueError(f"{name} must be an integer, got {value}")
            if any(v < least for v in entries):
                raise ValueError(f"{name} must be at least {least}, got {value}")
        for name in ("time_limit", "gap_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


# ---------------------------------------------------------------------------
# Parsing


def parse_instance(text: str, name: str = "instance") -> ProblemInstance:
    variables: list[Variable] = []
    objective = None
    constraints: list[Constraint] = []
    shape_kwargs: dict = {}
    monotone: dict[str, str] = {}
    curvature: dict[str, str] = {}
    pointwise: list[PointwiseSet] = []
    best_known = None

    for stmt, line in _statements(text):
        head, _, rest = stmt.partition(" ")
        head = head.lower()
        rest = rest.strip()
        try:
            if head == "var":
                variables.append(_parse_var(rest, line))
            elif head == "min":
                if objective is not None:
                    raise ParseError("duplicate objective", line, 1)
                objective = _parse_offset(rest, line)
            elif head in ("st", "s.t."):
                constraints.append(_parse_constraint(rest, line))
            elif head == "shape":
                _parse_shape(rest, line, shape_kwargs, monotone, curvature)
            elif head == "point":
                pointwise.append(_parse_point(rest, line))
            elif head == "bestknown":
                best_known = float(rest)
            else:
                raise ParseError(f"unknown statement {head!r}", line, 1)
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), line, 1) from None

    if objective is None:
        raise ParseError("instance has no objective (min statement)", 1, 1)

    shape = None
    if shape_kwargs or monotone or curvature or pointwise:
        shape = ShapeSpec(
            monotone=monotone,
            curvature=curvature,
            pointwise=tuple(pointwise),
            **shape_kwargs,
        )

    instance = ProblemInstance(
        variables=tuple(variables),
        objective=objective,
        constraints=tuple(constraints),
        shape=shape,
        best_known=best_known,
        name=name,
    )
    _validate(instance)
    return instance


def _statements(text: str):
    """Split on ';' outside comments, tracking 1-based start lines."""
    buf: list[str] = []
    buf_line = None
    last_line = 1
    for ln, raw in enumerate(text.split("\n"), start=1):
        last_line = ln
        rest, _, _ = raw.partition("#")
        while ";" in rest:
            chunk, _, rest = rest.partition(";")
            buf.append(chunk)
            stmt = " ".join(" ".join(buf).split())
            if stmt:
                yield stmt, buf_line if buf_line is not None else ln
            buf = []
            buf_line = None
        if rest.strip():
            if buf_line is None:
                buf_line = ln
            buf.append(rest)
        elif buf:
            buf.append(rest)
    tail = " ".join(" ".join(buf).split())
    if tail:
        yield tail, buf_line if buf_line is not None else last_line


def _parse_offset(expr_text: str, line: int) -> Expr:
    try:
        return parse_expr(expr_text)
    except ParseError as exc:
        raise ParseError(str(exc).partition(": ")[2], line + exc.line - 1, exc.col)


def _parse_var(rest: str, line: int) -> Variable:
    words = rest.split()
    if len(words) < 2 or words[1] != "in":
        raise ParseError("expected 'var <name> in [lo, hi]'", line, 1)
    name = words[0]
    if not (name[0].isalpha() or name[0] == "_"):
        raise ParseError(f"bad variable name {name!r}", line, 1)
    tail = " ".join(words[2:])
    integer = False
    if tail.endswith("integer"):
        integer = True
        tail = tail[: -len("integer")].strip()
    tail = tail.strip()
    if not (tail.startswith("[") and tail.endswith("]")):
        raise ParseError("expected bounds like [lo, hi]", line, 1)
    parts = tail[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError("expected exactly two bounds", line, 1)
    lo, hi = float(parts[0]), float(parts[1])
    if integer and lo <= hi:
        # an integer variable's box ends at integers (+ 0.0 turns -0.0 to 0.0)
        lo, hi = float(np.ceil(lo) + 0.0), float(np.floor(hi) + 0.0)
        if not lo <= hi:
            raise ParseError(f"no integer in the box of integer variable "
                             f"{name} {tail}", line, 1)
        if lo == hi:
            raise ParseError(f"the box {tail} of integer variable {name} holds "
                             f"only the integer {lo:.0f}; fixed variables are "
                             f"not supported", line, 1)
    if lo == hi:
        raise ParseError(f"the box {tail} of variable {name} is one point; "
                         f"fixed variables are not supported", line, 1)
    if not lo < hi:
        raise ParseError(f"empty box [{lo}, {hi}] of variable {name}", line, 1)
    return Variable(name=name, lower=lo, upper=hi, integer=integer)


def _parse_constraint(rest: str, line: int) -> Constraint:
    for rel in ("<=", ">=", "="):
        if rel in rest:
            lhs_text, _, rhs_text = rest.partition(rel)
            lhs = _parse_offset(lhs_text, line)
            rhs = _parse_offset(rhs_text, line)
            g = BinOp("-", lhs, rhs)
            if rel == ">=":
                g = BinOp("-", rhs, lhs)
                rel = "<="
            return Constraint(expr=g, relation="=" if rel == "=" else "<=")
    raise ParseError("constraint needs a relation (<=, >= or =)", line, 1)


def _parse_shape(rest, line, shape_kwargs, monotone, curvature):
    words = rest.split()
    if not words:
        raise ParseError("empty shape statement", line, 1)
    kind = words[0].lower()
    if kind == "bounds":
        tail = " ".join(words[1:])
        if not (tail.startswith("[") and tail.endswith("]")):
            raise ParseError("expected 'shape bounds [L, U]'", line, 1)
        lo_s, _, hi_s = tail[1:-1].partition(",")
        lo, hi = float(lo_s), float(hi_s)
        if not (lo < math.inf and hi > -math.inf):  # NaN fails both
            raise ParseError(f"shape bounds {tail} must be numbers, -inf only "
                             f"below and inf only above", line, 1)
        if math.isfinite(lo):
            shape_kwargs["lower"] = lo
        if math.isfinite(hi):
            shape_kwargs["upper"] = hi
        lower = shape_kwargs.get("lower", -math.inf)
        upper = shape_kwargs.get("upper", math.inf)
        if not lower < upper:
            raise ParseError(
                f"shape bounds need lower < upper, got [{lower:g}, {upper:g}]", line, 1
            )
    elif kind == "monotone":
        if len(words) != 3 or words[2] not in ("up", "down"):
            raise ParseError("expected 'shape monotone <var> up|down'", line, 1)
        monotone[words[1]] = INCREASING if words[2] == "up" else DECREASING
    elif kind in ("convex", "concave"):
        if len(words) != 2:
            raise ParseError(f"expected 'shape {kind} <var>'", line, 1)
        curvature[words[1]] = CONVEX if kind == "convex" else CONCAVE
    else:
        raise ParseError(f"unknown shape statement {kind!r}", line, 1)


def _parse_point(rest: str, line: int) -> PointwiseSet:
    words = rest.split()
    relations = {"interp": "=", "under": "<=", "over": ">="}
    if not words or words[0] not in relations:
        raise ParseError("expected 'point interp|under|over <indices>'", line, 1)
    try:
        indices = tuple(int(w) for w in words[1:])
    except ValueError:
        raise ParseError("point indices must be integers", line, 1)
    if not indices:
        raise ParseError("point statement needs at least one index", line, 1)
    return PointwiseSet(relations[words[0]], indices)


def _validate(instance: ProblemInstance):
    declared = {v.name for v in instance.variables}
    used = variables_of(instance.objective)
    for c in instance.constraints:
        used |= variables_of(c.expr)
    unknown = used - declared
    if unknown:
        raise InstanceValidationError(
            f"undeclared variables: {sorted(unknown)}"
        )
    covariates = instance.covariates()
    shaped = [*instance.shape.monotone, *instance.shape.curvature] if instance.shape else []
    for name in shaped:
        if name not in covariates:  # it has no fitted component to shape
            raise InstanceValidationError(
                f"shape statement names {name}, which is not a covariate "
                f"(a variable in the nonlinear part of the objective)"
            )
    for name in covariates:
        v = instance.variables[instance.var_index()[name]]
        if not (math.isfinite(v.lower) and math.isfinite(v.upper)):
            raise InstanceValidationError(
                f"variable {name} appears nonlinearly in the objective but "
                f"has non-finite bounds"
            )
    # midpoint of the box, clipped to finite values for unbounded variables
    mid = [
        0.5 * (max(v.lower, -1e6) + min(v.upper, 1e6))
        for v in instance.variables
    ]
    env = instance.env(mid)
    try:
        vals = [evaluate(instance.objective, env)] + [
            evaluate(c.expr, env) for c in instance.constraints
        ]
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InstanceValidationError(
            f"expression does not evaluate at the box midpoint: {exc}"
        ) from None
    if not all(math.isfinite(v) for v in vals):
        raise InstanceValidationError(
            "non-finite expression value at the box midpoint"
        )


def load_instance(path) -> ProblemInstance:
    import pathlib

    p = pathlib.Path(path)
    return parse_instance(p.read_text(), name=p.stem)


# ---------------------------------------------------------------------------
# Sampling


RESAMPLE_CAP = 1000


def training_rows(config: MissocConfig, p: int) -> int:
    """The sample size s * (1 + sum_j (d_j + k_j)) for p covariates."""
    degrees = per_covariate(config.degrees, p, "degrees")
    intervals = per_covariate(config.intervals, p, "intervals")
    return config.samples_per_param * (1 + sum(
        d + k for d, k in zip(degrees, intervals)
    ))


def sample_training(
    instance: ProblemInstance, config: MissocConfig
) -> TrainingSet:
    """Uniform box sampling of the covariates of the complicating part.

    Responses are exact evaluations of the approximated (nonlinear) part of
    g_0; the affine remainder is carried through the surrogate untouched.
    Sample count: ``training_rows``, drawn as one block and evaluated by
    ``evaluate_block``. Rows where evaluation raises or the
    response is not finite are redrawn together, up to RESAMPLE_CAP draws.
    """
    names = instance.covariates()
    if not names:
        raise InstanceValidationError(
            "objective has no nonlinear part to approximate"
        )
    p = len(names)
    n = training_rows(config, p)
    lo, hi = np.array(covariate_domains(instance)).T
    _, _, nonlinear = instance.complicating_split
    # one tree, summed from 0 term by term as sum() adds at one point
    part = reduce(partial(BinOp, "+"), nonlinear, Const(0.0))
    rng = np.random.default_rng(config.seed)
    X = rng.uniform(lo, hi, size=(n, p))
    y, bad = evaluate_block(part, dict(zip(names, X.T)))
    redraw = np.flatnonzero(bad | ~np.isfinite(y))
    for _ in range(RESAMPLE_CAP - 1):
        if not redraw.size:
            break
        X[redraw] = rng.uniform(lo, hi, size=(redraw.size, p))
        y[redraw], bad = evaluate_block(part, dict(zip(names, X[redraw].T)))
        redraw = redraw[bad | ~np.isfinite(y[redraw])]
    if redraw.size:
        raise SamplingError(
            f"no finite response after {RESAMPLE_CAP} draws for row {redraw[0]}"
        )
    return TrainingSet(X=X, y=y)


# ---------------------------------------------------------------------------
# End-to-end driver


@dataclass
class MissocReport:
    instance: str
    x: np.ndarray | None
    objective: float  # g_0(x*) on the original instance
    x_tilde: np.ndarray | None
    nodes: int
    stage_times: dict[str, float]
    status: str  # the solver's, plus ";refine_incomplete" if refine did not converge
    solver: object  # the solve's bnb.SolveReport: bounds, gap, log, LP work
    fit: object = None
    surrogate: object = None

    @property
    def total_time(self) -> float:
        return sum(self.stage_times.values())

    def csv_rows(self) -> list[str]:
        sobj = f"{self.solver.objective:.12g}"
        gap = f"{self.solver.gap_pct:.6g}"
        rows = []
        for stage in ("sample", "fit", "surrogate", "solve", "refine"):
            if stage not in self.stage_times:
                continue
            cells = ("", "", "", "")
            if stage == "solve":
                cells = ("", sobj, gap, str(self.nodes))
            if stage == "refine":
                cells = (f"{self.objective:.12g}", "", "", "")
            rows.append(
                f"{self.instance},{stage},{self.stage_times[stage]:.3f},"
                f"{','.join(cells)},{self.status}"
            )
        rows.append(
            f"{self.instance},total,{self.total_time:.3f},"
            f"{self.objective:.12g},{sobj},{gap},{self.nodes},{self.status}"
        )
        return rows


REPORT_CSV_HEADER = (
    "instance,stage,time_s,objective,surrogate_objective,gap_pct,nodes,status"
)


def covariate_domains(instance: ProblemInstance):
    idx = instance.var_index()
    return [
        (instance.variables[idx[nm]].lower, instance.variables[idx[nm]].upper)
        for nm in instance.covariates()
    ]


def fit_stage(instance: ProblemInstance, T: TrainingSet, config: MissocConfig):
    """Constrained fit when the instance carries a shape spec, else the
    closed-form penalized least-squares fit."""
    from .regression import fit_additive
    from .shapecon import fit_constrained

    names = instance.covariates()
    domains = covariate_domains(instance)
    if instance.shape is not None and not instance.shape.is_empty:
        return fit_constrained(
            T,
            degrees=config.degrees,
            intervals=config.intervals,
            spec=instance.shape,
            domains=domains,
            labels=names,
        )
    return fit_additive(
        T,
        degrees=config.degrees,
        intervals=config.intervals,
        domains=domains,
        labels=names,
    )


def check_solvable(instance: ProblemInstance) -> None:
    """Raise ``StageError('solve')`` when the solve stage would fail, so the
    instance is rejected before sampling and fitting spend time on it:
    - an original constraint is not affine (the solve stage bounds affine
      ones only; the surrogate itself keeps such constraints);
    - the objective's linear part is unbounded below over the boxes and the
      affine constraints: one LP, run when some variable's coefficient
      descends toward an infinite bound (the nonlinear part's covariates
      have finite boxes)."""
    from .bnb import (
        NONLINEAR_CONSTRAINTS_UNSUPPORTED,
        UnsupportedSurrogateError,
        highs,
    )

    rows = instance.constraint_rows
    if rows.nonaffine:
        cause = UnsupportedSurrogateError(NONLINEAR_CONSTRAINTS_UNSUPPORTED)
        raise StageError("solve", cause)
    _, coeffs, _ = instance.complicating_split
    cost = [coeffs.get(v.name, 0.0) for v in instance.variables]
    free = [j for j, (v, c) in enumerate(zip(instance.variables, cost))
            if (c > 0 and v.lower == -math.inf) or (c < 0 and v.upper == math.inf)]
    if not free:
        return
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "off")  # so the status is not ambiguous
    for v, c in zip(instance.variables, cost):
        model.addCol(c, v.lower, v.upper, 0, [], [])
    for a, b, eq in zip(rows.A, rows.b, rows.eq):
        cols = np.flatnonzero(a).astype(np.int32)
        model.addRow(-b if eq else -math.inf, -b, len(cols), cols, a[cols])
    model.run()
    if model.getModelStatus() != highs.HighsModelStatus.kUnbounded:
        return
    _, has_ray, ray = model.getPrimalRay()  # prefer a variable the ray moves
    j = next((j for j in free if has_ray and ray[j] * cost[j] < 0), free[0])
    v, c = instance.variables[j], cost[j]
    raise StageError("solve", InstanceValidationError(
        f"the objective is unbounded below: variable {v.name} has linear "
        f"coefficient {c:g} and an infinite {'lower' if c > 0 else 'upper'} "
        f"bound, and the constraints do not bound it"
    ))


def _staged(times: dict[str, float], tag: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` as stage ``tag``: its time goes to
    ``times[tag]`` and any exception is raised as ``StageError(tag)``."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(tag, exc) from exc
    times[tag] = time.perf_counter() - t0
    return out


def surrogate_stages(instance: ProblemInstance, config: MissocConfig):
    """Sample, fit and build the surrogate, each as a stage of ``_staged``.
    Returns (training set, fit, surrogate, stage times)."""
    # looked up per call, so a function patched on its module is the one run
    from .surrogate import build_surrogate

    times: dict[str, float] = {}
    labels = instance.covariates()
    if instance.shape is not None and labels:
        # a shape the degrees cannot carry, or a pointwise index past the
        # sample, fails the fit: rejected before sampling (a degrees or
        # intervals length that does not fit is the sample's error)
        n = _staged({}, "sample", training_rows, config, len(labels))
        degrees = per_covariate(config.degrees, len(labels), "degrees")
        _staged({}, "fit", instance.shape.check_fit, labels, degrees, n)
    T = _staged(times, "sample", sample_training, instance, config)
    fit = _staged(times, "fit", fit_stage, instance, T, config)
    surr = _staged(times, "surrogate", build_surrogate, fit, instance)
    return T, fit, surr, times


def run_missoc(
    instance: ProblemInstance, config: MissocConfig | None = None
) -> MissocReport:
    """Sample, fit, build the surrogate, solve it globally, refine locally
    (unless ``config.refine`` is off)."""
    from .bnb import solve
    from .localsearch import refine

    if config is None:
        config = MissocConfig()
    check_solvable(instance)
    _, fit, surr, times = surrogate_stages(instance, config)
    report = _staged(times, "solve", solve, surr, time_limit=config.time_limit,
                     node_cap=config.node_cap, gap_tol=config.gap_tol)
    x_tilde = x_star = report.x
    status = report.status
    if x_tilde is not None and config.refine:
        refined = _staged(times, "refine", refine, instance, x_tilde)
        x_star = refined.x
        if not refined.converged:
            status = f"{status};refine_incomplete"
    return MissocReport(
        instance=instance.name,
        x=x_star,
        objective=(
            math.nan if x_star is None
            else float(instance.objective_value(x_star))
        ),
        x_tilde=x_tilde,
        nodes=report.nodes,
        stage_times=times,
        status=status,
        solver=report,
        fit=fit,
        surrogate=surr,
    )
