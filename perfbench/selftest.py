"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the output checker counts corrupted results as failures, that
each workload completes a one-operation smoke run with no failure, that a
traced run reproduces the pinned n=16 counts and emits every per-layer
metric, and that BENCHMARK.json names exactly the metrics the runs print.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from types import SimpleNamespace

import checker
import run
import tracer


def check_checker(package) -> None:
    """Each kind of corrupt output is one failed operation."""
    inst = package.bench_instance(1, 8, 0)
    good = package.optimal_sort(inst)
    proof = package.branch_and_bound_optimum(inst)
    assert checker.solve_failures(inst, good, proof) == []
    assert checker.proof_failures(inst, proof) == []

    order = good.best_sequence.order
    duplicated = (order[1],) + order[1:]
    initial = package.initial_sequence(inst).order
    initial_objective = checker.rescore(inst.release, inst.processing, initial)
    assert initial_objective > proof.objective, "pick an instance the initial order misses"
    cases = {
        "not_permutation": dataclasses.replace(good, best_sequence=SimpleNamespace(order=duplicated)),
        "objective_mismatch": dataclasses.replace(good, best_objective=good.best_objective + 1),
        "safety_tripped": dataclasses.replace(good, safety_tripped=True),
        "raised": RuntimeError("solver crashed"),
        checker.OPTIMUM_MISSED: dataclasses.replace(
            good,
            best_sequence=SimpleNamespace(order=initial),
            best_objective=initial_objective,
        ),
    }
    tally = checker.Tally()
    for reason, result in cases.items():
        reasons = checker.solve_failures(inst, result, proof)
        assert reason in reasons, (reason, reasons)
        tally.record(reasons)
    unproved = dataclasses.replace(proof, proved_optimal=False)
    assert "not_proved" in checker.solve_failures(inst, good, unproved)
    assert "not_proved" in checker.proof_failures(inst, unproved)
    wrong_proof = dataclasses.replace(proof, objective=proof.objective + 1)
    assert "oracle_objective_mismatch" in checker.proof_failures(inst, wrong_proof)
    tally.record(checker.proof_failures(inst, wrong_proof))
    tally.record([])
    assert (tally.attempted, tally.failed, tally.misses) == (len(cases) + 2, len(cases) + 1, 1)


def check_smoke(package) -> None:
    """One untraced operation per workload, checked, with every end-to-end metric."""
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = {metric["name"] for metric in spec["end_to_end"]}
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for workload in run.WORKLOADS.values():
        outcome = run.measure(package, workload, seed=1, seconds=0, import_s=0.0)
        tally = outcome["tally"]
        assert (tally.attempted, tally.failed) == (1, 0), (workload.name, tally)
        assert set(outcome["metrics"]) == names, workload.name
        assert all(value > 0 for value, _ in outcome["metrics"].values()), workload.name


def check_trace(package) -> None:
    """Traced runs pass the pinned counts, emit every layer metric, and fail on wrong counts."""
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(tracer.LAYER_METRICS)
    outcome = run.trace(package, run.WORKLOADS["solve_dense"], seed=1)
    tally = outcome["tally"]
    assert (tally.attempted, tally.failed) == (1 + run.WORKLOADS["solve_dense"].traced_ops, 0), tally
    assert list(outcome["metrics"]) == [name for name, _, _ in listed]

    expected = run.PINNED_COUNTS
    run.PINNED_COUNTS = {**expected, "driver.accepted_moves": expected["driver.accepted_moves"] + 1}
    try:
        outcome = run.trace(package, run.WORKLOADS["prove"], seed=1)
    finally:
        run.PINNED_COUNTS = expected
    assert outcome["tally"].reasons["pinned_counts"] == 1, outcome["tally"]


def main() -> int:
    package, _ = run.load_package()
    failed = 0
    for test in (check_checker, check_smoke, check_trace):
        try:
            test(package)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
