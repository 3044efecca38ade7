"""Closed-loop batch benchmark of the missoc pipeline.

    python3 perfbench/run.py --workload shape_fit --seed 1 --seconds 30 --trace 0

One process, no worker threads. Each workload's instances (``workloads.py``)
are parsed from generated ``.miss`` text and solved one after another by
``run_missoc`` with a ``MissocConfig``; nothing else of the program is
touched. A warm-up pass records every instance's result, then timed passes
run until ``--seconds`` have elapsed; each timed pass must reproduce the
warm-up results bit for bit and reach the reference optimum computed by
``reference.py``.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it reports the
per-layer metrics of ``tracing.py``. The exit code is 1 when any result is
wrong and 2 when the program's sources are missing.
"""

import os

# One BLAS thread, set before numpy is first imported: the certificate
# programs are made of tiny dense blocks, and a second thread measures
# contention, not the program (on a 2-core VM the constrained fit of a p=2,
# k=10 instance took about 1.1 s at one thread and 2.3-2.5 s at two).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_RUNS = 5
OBJ_TOL = 1e-4  # the solver's default relative gap tolerance
FEAS_TOL = 1e-5
SETUP_TIMEOUT = 60

BENCHMARK = HERE.parent / "BENCHMARK.json"  # declares every metric and unit


def _import_program():
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import missoc  # noqa: F401
    # run_missoc and fit_stage import these lazily; setup pays for them
    from missoc import bnb, localsearch, shapecon, surrogate  # noqa: F401


def setup(workload: str, seed: int):
    """Build and parse the workload's instances (the program is imported)."""
    import workloads
    from missoc import parse_instance

    specs = workloads.build(workload, seed)
    return [(spec, parse_instance(spec.to_text(), spec.name)) for spec in specs]


def fresh_setup_seconds(args) -> float:
    """Wall time of a fresh process that does only ``setup``."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float
    result: tuple | None  # (x*, objective, status, nodes), compared exactly
    error: str | None


def run_pass(instances, tracer=None) -> list[Outcome]:
    from missoc import MissocConfig, run_missoc

    solve = run_missoc if tracer is None else tracer.wrap("run_missoc", run_missoc)
    outcomes = []
    for spec, instance in instances:
        if tracer is not None:
            tracer.instance = spec.name
        t0 = time.perf_counter()
        try:
            report = solve(instance, MissocConfig(intervals=spec.intervals))
        except Exception as exc:  # a failed instance is counted, the pass goes on
            outcomes.append(Outcome(spec.name, time.perf_counter() - t0, None,
                                    f"{type(exc).__name__}: {exc}"))
            continue
        seconds = time.perf_counter() - t0
        x = None if report.x is None else tuple(float(v) for v in report.x)
        outcomes.append(Outcome(spec.name, seconds,
                                (x, report.objective, report.status, report.nodes), None))
    return outcomes


def check(outcome: Outcome, spec, ref: float, expected: Outcome) -> tuple[float, str | None]:
    """(obj_excess, reason the run failed or None)."""
    if outcome.error is not None:
        return float("nan"), outcome.error
    x, _, status, _ = outcome.result
    if x is None:
        return float("nan"), f"no incumbent (status {status})"
    excess = (spec.objective(x) - ref) / max(1.0, abs(ref))
    if status != "optimal":
        return excess, f"status {status}"
    if spec.max_violation(x) > FEAS_TOL:
        return excess, f"infeasible by {spec.max_violation(x):.2e}"
    if not abs(excess) <= OBJ_TOL:
        return excess, f"objective {excess:.3e} from the reference"
    if outcome.result != expected.result:
        return excess, "result differs from the warm-up pass"
    return excess, None


def pass_seconds(timed, traced: bool) -> list[float]:
    """Wall time of each timed pass of the given kind, summed over instances."""
    return [sum(o.seconds for o in outcomes) for t, outcomes in timed if t == traced]


def instance_medians(passes: list[list[Outcome]]) -> list[float]:
    return [statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0]))]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "missoc" / "__init__.py").is_file():
        print(f"perfbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    _import_program()
    import workloads

    if args.workload not in workloads.GENERATORS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.GENERATORS)}")
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    import numpy
    import scipy

    from reference import reference_optimum
    from tracing import Tracer, layer_metrics

    declared = json.loads(BENCHMARK.read_text())
    unit = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
            for m in declared[kind]}
    unit["instance_s.p50"] = "s"  # printed, not in the JSON result
    setups = [fresh_setup_seconds(args) for _ in range(SETUP_RUNS)]
    instances = setup(args.workload, args.seed)
    specs = [spec for spec, _ in instances]
    env = {
        "workload": args.workload, "seed": args.seed, "data_seed": workloads.DATA_SEED,
        "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "instances": [s.name for s in specs],
    }
    print("env " + json.dumps(env), flush=True)

    t0 = time.perf_counter()
    warm = run_pass(instances)
    pass_s = time.perf_counter() - t0
    # timed passes fill --seconds without running over it; a traced run
    # makes at least one untraced and one traced pass
    timed: list[tuple[bool, list[Outcome]]] = []  # (traced, outcomes)
    layers: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while len(timed) < 1 + args.trace or time.perf_counter() + pass_s <= deadline:
        t0 = time.perf_counter()
        if args.trace and len(timed) % 2 == 1:
            tracer = Tracer()
            tracer.install()
            try:
                timed.append((True, run_pass(instances, tracer)))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer))
        else:
            timed.append((False, run_pass(instances)))
        pass_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # after the timed passes, so that the reference's large grids do not
    # change the allocator state the passes run in (pass times depend on it)
    refs = [reference_optimum(spec) for spec in specs]
    attempted = failed = 0
    worst_excess = -math.inf
    for _, outcomes in timed:
        for outcome, spec, ref, expected in zip(outcomes, specs, refs, warm):
            excess, reason = check(outcome, spec, ref, expected)
            attempted += 1
            if reason is not None:
                failed += 1
                print(f"FAIL {outcome.name}: {reason}", file=sys.stderr)
            if not excess <= worst_excess:  # keeps NaN
                worst_excess = excess

    samples = {
        "wall_s": pass_seconds(timed, traced=False),
        "instance_s.p50": instance_medians([o for traced, o in timed if not traced]),
        "setup_s": setups,
        "peak_rss_mb": [peak_rss_mb],
    }
    end_to_end = {name: statistics.median(v) for name, v in samples.items()}
    for name in samples:
        lo, hi = quartiles(samples[name])
        print(f"{name:<16} {end_to_end[name]:12.6g} {unit[name]:<5} "
              f"q1 {lo:.6g} q3 {hi:.6g} n={len(samples[name])}")
    print(f"{'obj_excess':<16} {worst_excess:12.3g} ratio worst of n={attempted}")
    print(f"{'failed_frac':<16} {failed / attempted:12.3g} ratio "
          f"{failed} of n={attempted}")

    if args.trace:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.overhead_s"] = (
            statistics.median(pass_seconds(timed, traced=True)) - end_to_end["wall_s"])
        for name, value in per_layer.items():
            print(f"{name:<34} {value:14.6g} {unit[name]:<5} n={len(layers)}")
        out_dir = HERE.parent / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans_{args.workload}_seed{args.seed}.json")
    values = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
