"""Spans and counters recorded from outside the program.

``Tracer.install`` replaces each traced function at the module where its
caller looks it up (``shapecon.solve_conic`` rather than
``conic.solve_conic``, because ``shapecon`` binds it at import), and
``uninstall`` puts the originals back. A span holds its name, start, end,
parent span, instance name and a few attributes read from the call's
arguments or result. Spans stay in memory; ``layer_metrics`` reduces them to
the per-layer numbers and ``dump`` writes them out.
"""

from __future__ import annotations

import collections
import functools
import json
import time

import scipy.optimize

from missoc import bnb, localsearch, problems, regression, shapecon, splines, surrogate

KELLEY_CAP = 12  # LP rounds per node relaxation in bnb.relax_node


def _margin(args, kwargs, out):
    return {"margin": kwargs.get("margin", args[3] if len(args) > 3 else 0.0)}


def _weights_fallback(args, kwargs, out):
    # estimate_weights returns exactly uniform weights when it falls back
    p = len(out[0])
    return {"fallback": int(p > 1 and any((w == 1.0 / p).all() for w in out))}


def _conic(args, kwargs, out):
    prob = args[0]
    return {"iterations": out.iterations, "blocks": len(prob.blocks), "rows": len(prob.c)}


def _refine(args, kwargs, out):
    return {"iterations": out.iterations, "converged": int(out.converged)}


# (owner, attribute, span name, attributes read from (args, kwargs, result))
SPANS = (
    (problems, "sample_training", "problems.sample_training", lambda a, k, o: {"rows": o.n}),
    (regression, "fit_additive", "regression.fit_additive", None),
    (shapecon, "fit_constrained", "shapecon.fit_constrained", None),
    (shapecon, "build_program", "shapecon.build_program", _margin),
    (shapecon, "estimate_weights", "shapecon.estimate_weights", _weights_fallback),
    (shapecon, "shape_violation", "shapecon.shape_violation", None),
    (shapecon, "solve_conic", "conic.solve_conic", _conic),
    (surrogate, "build_surrogate", "surrogate.build_surrogate",
     lambda a, k, o: {"binaries": o.n_binaries}),
    (bnb, "solve", "bnb.solve", lambda a, k, o: {"nodes": o.nodes}),
    (bnb, "relax_node", "bnb.relax_node", None),
    (bnb, "interval_cuts", "bnb.interval_cuts", None),
    (scipy.optimize, "linprog", "scipy.linprog", None),
    (scipy.optimize, "minimize", "scipy.minimize", None),
    (localsearch, "refine", "localsearch.refine", _refine),
    (splines.BSplineBasis, "eval_all", "splines.eval_all", None),
)

# (owner, attribute, counter name): hot calls that are counted, not spanned
COUNTERS = (
    (problems, "evaluate", "expressions.evaluate.calls"),
    (localsearch, "evaluate", "expressions.evaluate.calls"),
    (bnb, "bernstein_bounds", "bnb.bernstein_bounds.calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance, attrs]
        self.counts: collections.Counter = collections.Counter()
        self.instance: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, read=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                   self.instance, {}]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if read is not None:
                rec[5] = read(args, kwargs, out)
            return out

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for owner, attr, name, read in SPANS:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), read))
        for owner, attr, name in COUNTERS:
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def _patch(self, owner, attr, fn) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, fn)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its instances."""
    spans = tracer.spans
    dur = collections.defaultdict(float)
    calls = collections.Counter()
    child_time = collections.defaultdict(float)
    attr = collections.defaultdict(float)
    for name, start, end, parent, _, attrs in spans:
        dur[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
        for key, value in attrs.items():
            attr[name, key] += value

    # build_program and linprog are called directly from the spans they
    # are attributed to, so their parent is that span
    restored_fits = {
        s[3] for s in spans if s[0] == "shapecon.build_program" and s[5]["margin"] > 0
    }
    lp_per_relax = collections.Counter(s[3] for s in spans if s[0] == "scipy.linprog")

    def ratio(a, b):
        return a / b if b else 0.0

    solves = calls["conic.solve_conic"]
    iterations = attr["conic.solve_conic", "iterations"]
    nodes = attr["bnb.solve", "nodes"]
    out = {
        "sample.s": dur["problems.sample_training"],
        "sample.rows": attr["problems.sample_training", "rows"],
        "expressions.evaluate.calls": tracer.counts["expressions.evaluate.calls"],
        "splines.eval_all.calls": calls["splines.eval_all"],
        "splines.eval_all.s": dur["splines.eval_all"],
        "regression.fit_additive.s": dur["regression.fit_additive"],
        "shapecon.fit_constrained.s": dur["shapecon.fit_constrained"],
        "shapecon.build_program.calls": calls["shapecon.build_program"],
        "shapecon.build_program.s": dur["shapecon.build_program"],
        "shapecon.restorations": len(restored_fits),
        "shapecon.shape_violation.s": dur["shapecon.shape_violation"],
        "shapecon.weight_fallbacks": attr["shapecon.estimate_weights", "fallback"],
        "conic.solves": solves,
        "conic.solves_per_fit": ratio(solves, calls["shapecon.fit_constrained"]),
        "conic.iterations": iterations,
        "conic.iters_per_solve": ratio(iterations, solves),
        "conic.s": dur["conic.solve_conic"],
        "conic.ms_per_iter": 1000.0 * ratio(dur["conic.solve_conic"], iterations),
        "conic.psd_blocks": attr["conic.solve_conic", "blocks"],
        "conic.rows": attr["conic.solve_conic", "rows"],
        "surrogate.s": dur["surrogate.build_surrogate"],
        "surrogate.binaries": attr["surrogate.build_surrogate", "binaries"],
        "bnb.s": dur["bnb.solve"],
        "bnb.nodes": nodes,
        "bnb.relax.calls": calls["bnb.relax_node"],
        "bnb.relax.s": dur["bnb.relax_node"],
        "bnb.lp.calls": calls["scipy.linprog"],
        "bnb.lp.s": dur["scipy.linprog"],
        "bnb.lp_per_node": ratio(calls["scipy.linprog"], nodes),
        "bnb.kelley_cap_hits": sum(1 for n in lp_per_relax.values() if n >= KELLEY_CAP),
        "bnb.interval_cuts.calls": calls["bnb.interval_cuts"],
        "bnb.interval_cuts.s": dur["bnb.interval_cuts"],
        "bnb.bernstein_bounds.calls": tracer.counts["bnb.bernstein_bounds.calls"],
        "refine.s": dur["localsearch.refine"],
        "refine.iterations": attr["localsearch.refine", "iterations"],
        "refine.outer": calls["scipy.minimize"],
        "refine.converged_frac": ratio(attr["localsearch.refine", "converged"],
                                       calls["localsearch.refine"]),
    }
    out["bnb.python_s"] = out["bnb.s"] - out["bnb.lp.s"]
    self_time = collections.defaultdict(float)
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
    for name in PARENT_SPANS:
        out[f"self.{name}.s"] = self_time[name]
    return out


# The spans that have traced children; every other span's self time is its
# whole duration, which a metric above already reports.
PARENT_SPANS = (
    "run_missoc",
    "shapecon.fit_constrained",
    "shapecon.build_program",
    "shapecon.estimate_weights",
    "bnb.solve",
    "bnb.relax_node",
    "localsearch.refine",
)
