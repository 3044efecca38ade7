"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import math
import pathlib

import numpy as np
import pytest

import run

run._import_program()

import reference  # noqa: E402
import workloads  # noqa: E402
from missoc import parse_instance  # noqa: E402

BENCHMARK = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def all_specs(seed=1):
    return [spec for w in workloads.GENERATORS for spec in workloads.build(w, seed)]


def test_generators_are_deterministic_and_parse():
    first = [spec.to_text() for spec in all_specs()]
    assert first == [spec.to_text() for spec in all_specs()]
    for spec in all_specs():
        parse_instance(spec.to_text(), spec.name)


def test_seed_relabels_without_changing_the_data():
    for a, b in zip(all_specs(seed=1), all_specs(seed=2)):
        assert [v.lower for v in a.variables] == [v.lower for v in b.variables]
        if a.text is None:
            assert a.to_text() != b.to_text()
        x = [0.5 * (v.lower + v.upper) for v in a.variables]
        assert a.objective(x) == b.objective(x)


def test_reference_objective_matches_the_program_text():
    rng = np.random.default_rng(0)
    for spec in all_specs():
        instance = parse_instance(spec.to_text(), spec.name)
        assert [v.name for v in instance.variables] == [v.name for v in spec.variables]
        for _ in range(5):
            x = [rng.uniform(v.lower, v.upper) for v in spec.variables]
            assert spec.objective(x) == pytest.approx(instance.objective_value(x), abs=1e-12)
            worst = max([0.0] + [
                v if c.relation == "<=" else abs(v)
                for c, v in zip(instance.constraints, instance.constraint_values(x))
            ])
            box = max([0.0] + [
                abs(xi - round(xi)) for v, xi in zip(spec.variables, x) if v.integer
            ])
            assert spec.max_violation(x) == pytest.approx(max(worst, box), abs=1e-12)


def test_reference_reproduces_bestknown():
    spec = workloads.shipped("convex_shaped")
    assert spec.best_known == pytest.approx(-0.295836866, abs=1e-12)
    independent = reference.reference_optimum(
        reference.Spec("convex_shaped", spec.variables, spec.terms))
    assert independent == pytest.approx(spec.best_known, abs=1e-6)


def test_reference_hand_checked_optima():
    x = reference.Var("x", 0.0, 2.0)
    n = reference.Var("n", 0.0, 3.0, integer=True)
    # min (x - 0.3)^2 + 1 s.t. x >= 0.5: at x = 0.5
    spec = reference.Spec("one_d", (x,), {"x": "(x - 0.3)^2 + 1"},
                          (reference.Linear({"x": -1.0}, -0.5),))
    assert reference.reference_optimum(spec) == pytest.approx(1.04, abs=1e-12)
    # min (x - 1.5)^2 + (n - 2.2)^2 s.t. x + n <= 3: n = 2, x = 1 gives 0.29;
    # n = 1, x = 1.5 gives 1.44
    spec = reference.Spec("mixed", (x, n), {"x": "(x - 1.5)^2", "n": "(n - 2.2)^2"},
                          (reference.Linear({"x": 1.0, "n": 1.0}, 3.0),))
    assert reference.reference_optimum(spec) == pytest.approx(0.29, abs=1e-9)


def test_tracer_restores_every_function():
    from tracing import COUNTERS, SPANS, Tracer

    before = [owner.__dict__[attr] for owner, attr, *_ in SPANS + COUNTERS]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert before == [owner.__dict__[attr] for owner, attr, *_ in SPANS + COUNTERS]


@pytest.mark.parametrize("trace", [0, 1])
def test_output_carries_every_metric(trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.GENERATORS, "int_bnb",
                        lambda: [workloads.shipped("mixed_integer")])
    monkeypatch.setattr(run, "fresh_setup_seconds", lambda args: 0.5)
    code = run.main(["--workload", "int_bnb", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    table = "\n".join(lines[:-1])
    for name in ("wall_s", "instance_s.p50", "setup_s", "peak_rss_mb", "obj_excess",
                 "failed_frac"):
        assert name in table


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", pathlib.Path(tmp_path))
    assert run.main(["--workload", "int_bnb", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
