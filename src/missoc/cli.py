"""Command-line interface.

Subcommands:

    missoc fit <instance>        sample + fit the additive model
    missoc surrogate <instance>  print the surrogate MINLP as text
    missoc solve <instance>      solve the surrogate globally (no refinement)
    missoc run <instance>        full pipeline: fit, solve, refine
    missoc bench <instances...>  run the pipeline over several instances

Every subcommand runs the stages through ``problems``: ``fit`` and
``surrogate`` through ``surrogate_stages``, the others through
``run_missoc`` (``solve`` with refinement off). The ``missoc`` command
prints a failed stage, an unreadable or invalid instance file and an
unwritable output path as one line on stderr and exits with code 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .bnb import SOLVE_CSV_HEADER, write_log_csv
from .expressions import ParseError
from .problems import (
    REPORT_CSV_HEADER,
    InstanceValidationError,
    MissocConfig,
    StageError,
    load_instance,
    run_missoc,
    surrogate_stages,
)
from .regression import dump_model
from .surrogate import export_text

# (flag, MissocConfig field it sets, type, help); the default is the field's
MODEL_FLAGS = (
    ("--degree", "degrees", int, "spline degree"),
    ("--intervals", "intervals", int, "knot intervals per covariate"),
    ("--samples-per-param", "samples_per_param", int,
     "training rows per model parameter"),
    ("--seed", "seed", int, "sampling seed"),
)
SOLVE_FLAGS = (
    ("--time-limit", "time_limit", float, "wall-clock budget (s)"),
    ("--gap-tol", "gap_tol", float, "relative optimality gap"),
    ("--node-cap", "node_cap", int, "branch-and-bound node cap"),
)


def _add_flags(p: argparse.ArgumentParser, flags) -> None:
    defaults = MissocConfig()
    for flag, dest, kind, text in flags:
        p.add_argument(
            flag, dest=dest, type=kind, default=getattr(defaults, dest), help=text
        )


def _config(args) -> MissocConfig:
    """The config of the parsed flags; fields without a flag keep the
    MissocConfig default."""
    fields = {f.name for f in dataclasses.fields(MissocConfig)}
    return MissocConfig(**{k: v for k, v in vars(args).items() if k in fields})


def _write_plot_data(fit, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    for j, basis in enumerate(fit.bases):
        lo, hi = basis.domain
        xs = np.linspace(lo, hi, 401)
        ys = fit.component(j, xs)
        path = os.path.join(outdir, f"component_{basis.label}.csv")
        with open(path, "w") as fh:
            fh.write(f"{basis.label},component\n")
            for x, y in zip(xs, ys):
                fh.write(f"{x:.12g},{y:.12g}\n")


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def cmd_fit(args) -> int:
    instance = load_instance(args.instance)
    T, fit, _, _ = surrogate_stages(instance, _config(args))
    resid = np.array([fit.predict(row) for row in T.X]) - T.y
    print(f"instance         {instance.name}")
    print(f"covariates       {', '.join(b.label for b in fit.bases)}")
    print(f"training rows    {T.n}")
    print(f"intercept        {fit.intercept:.9g}")
    print(f"rms residual     {float(np.sqrt(np.mean(resid**2))):.6g}")
    print(f"max |residual|   {float(np.abs(resid).max()):.6g}")
    if args.model:
        with open(args.model, "w") as fh:
            fh.write(dump_model(fit))
        print(f"model written to {args.model}")
    if args.plot_data:
        _write_plot_data(fit, args.plot_data)
        print(f"component grids written to {args.plot_data}/")
    return 0


def cmd_surrogate(args) -> int:
    _, _, surrogate, _ = surrogate_stages(load_instance(args.instance), _config(args))
    text = export_text(surrogate)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"surrogate written to {args.out}")
    else:
        print(text)
    print(
        f"# {surrogate.n_binaries} binaries, "
        f"{surrogate.n_auxiliaries} auxiliary variables",
        file=sys.stderr,
    )
    return 0


def _print_solver(report) -> None:
    """The solver lines of ``solve`` and ``run``: gap and work done."""
    print(f"gap           {report.gap_pct:.4g}%")
    print(f"nodes         {report.nodes}")
    print(f"LP solves     {report.lp_solves}")
    print(f"simplex iters {report.simplex_iterations}")
    print(f"tighten LPs   {report.tightening_lps}")
    print(f"tighten iters {report.tightening_iterations}")
    print(f"Kelley caps   {report.kelley_cap_hits}")
    print(f"convex comps  {report.convex_components}")


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    config = dataclasses.replace(_config(args), refine=False)
    report = run_missoc(instance, config).solver
    print(f"status        {report.status}")
    if report.x is not None:
        point = ", ".join(
            f"{v.name}={xi:.9g}" for v, xi in zip(instance.variables, report.x)
        )
        print(f"incumbent     {point}")
        print(f"objective     {report.objective:.9g}")
    print(f"lower bound   {report.lower_bound:.9g}")
    _print_solver(report)
    print(f"time          {report.time_s:.3f}s")
    if args.log:
        write_log_csv(report, args.log)
        print(f"node log written to {args.log}")
    if args.out:
        _write_csv(args.out, SOLVE_CSV_HEADER, [report.csv_row()])
        print(f"summary written to {args.out}")
    return 0 if report.x is not None else 1


def _print_report(report) -> None:
    print(f"instance      {report.instance}")
    print(f"status        {report.status}")
    if report.x is not None:
        print(f"x*            {np.array2string(report.x, precision=9)}")
        print(f"objective     {report.objective:.9g}")
        print(f"surrogate obj {report.solver.objective:.9g}")
    _print_solver(report.solver)
    for stage in ("sample", "fit", "surrogate", "solve", "refine"):
        if stage in report.stage_times:
            print(f"t[{stage:<9}] {report.stage_times[stage]:.3f}s")
    print(f"t[total    ] {report.total_time:.3f}s")


def cmd_run(args) -> int:
    instance = load_instance(args.instance)
    report = run_missoc(instance, _config(args))
    _print_report(report)
    if args.out:
        _write_csv(args.out, REPORT_CSV_HEADER, report.csv_rows())
        print(f"report written to {args.out}")
    return 0 if report.x is not None else 1


def cmd_bench(args) -> int:
    rows = []
    failures = 0
    for path in args.instances:
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            instance = load_instance(path)
            report = run_missoc(instance, _config(args))
        except Exception as exc:  # keep going over the rest of the batch
            print(f"{name}: ERROR {exc}", file=sys.stderr)
            rows.append(f"{name},error,,,,,,{type(exc).__name__}")
            failures += 1
            continue
        obj = f"{report.objective:.9g}" if report.x is not None else "-"
        print(
            f"{instance.name}: {report.status} obj={obj} "
            f"gap={report.solver.gap_pct:.4g}% nodes={report.nodes} "
            f"time={report.total_time:.2f}s"
        )
        rows.extend(report.csv_rows())
        if report.x is None:
            failures += 1
    if args.out:
        _write_csv(args.out, REPORT_CSV_HEADER, rows)
        print(f"benchmark table written to {args.out}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="missoc",
        description=(
            "Approximate a complicating MINLP objective by a separable "
            "spline surrogate, solve it globally, refine locally."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="sample an instance and fit the model")
    p.add_argument("instance")
    _add_flags(p, MODEL_FLAGS)
    p.add_argument("--model", help="write the fitted model to this file")
    p.add_argument(
        "--plot-data", help="write per-covariate component grid CSVs here"
    )
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("surrogate", help="print the surrogate MINLP")
    p.add_argument("instance")
    _add_flags(p, MODEL_FLAGS)
    p.add_argument("--out", help="write the listing to this file")
    p.set_defaults(func=cmd_surrogate)

    p = sub.add_parser("solve", help="solve the surrogate (no refinement)")
    p.add_argument("instance")
    _add_flags(p, MODEL_FLAGS + SOLVE_FLAGS)
    p.add_argument("--out", help="write a one-line CSV summary here")
    p.add_argument("--log", help="write the node log CSV here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "missoc", aliases=["run"], help="full pipeline: fit, solve, refine"
    )
    p.add_argument("instance")
    _add_flags(p, MODEL_FLAGS + SOLVE_FLAGS)
    p.add_argument("--no-refine", dest="refine", action="store_false")
    p.add_argument("--out", help="write the per-stage CSV report here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="run the pipeline over several instances")
    p.add_argument("instances", nargs="+")
    _add_flags(p, MODEL_FLAGS + SOLVE_FLAGS)
    p.add_argument("--no-refine", dest="refine", action="store_false")
    p.add_argument("--out", help="write the combined CSV table here")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def console_main(argv=None) -> int:
    """``main`` as the ``missoc`` command runs it: a failed stage, an
    instance file that cannot be read or parsed or is invalid, and an output
    path that cannot be written end the command with one line on stderr and
    exit code 1, not a traceback."""
    try:
        return main(argv)
    except (StageError, ParseError, InstanceValidationError, OSError) as exc:
        print(f"missoc: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(console_main())
