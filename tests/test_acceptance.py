"""The acceptance gate: every criterion at its stated size and tolerance.

``pytest tests/test_acceptance.py`` prints one PASS/FAIL line per
criterion (written past pytest's capture, so always visible). All expected
values are exact integers; the only tolerances are the stated runtime
budgets and the 0.01% objective-gap ceilings, and a strict solver/oracle
mismatch writes a shrunk counterexample artifact into
``counterexamples/`` before failing the gate.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

from minwait import (
    BACKWARD,
    FORWARD,
    Instance,
    Sequence,
    apply_move,
    audit_instance,
    backward_move_delta,
    backward_solution_set,
    backward_traversal,
    bench_instance,
    branch_and_bound_optimum,
    brute_force_optimum,
    compute_profile,
    consumption_operator,
    forward_move_delta,
    forward_solution_set,
    initial_sequence,
    objective_delta,
    optimal_sort,
    propagate_decrease,
    propagate_increase,
)

from _sim import perturbed_starts, simulate

SEED = 20250810
GAP_CEILING_PCT = 0.01
ARTIFACT_DIR = Path("counterexamples")


@pytest.fixture
def report(capfd):
    """One always-visible PASS/FAIL verdict line per criterion."""

    def _report(number: int, name: str, problems: list[str], extra: str = "") -> None:
        status = "PASS" if not problems else "FAIL"
        suffix = f" ({extra})" if extra else ""
        lines = [f"ACCEPTANCE {number:02d} {name}: {status}{suffix}"]
        lines += [f"    {line}" for line in problems[:10]]
        with capfd.disabled():
            sys.stdout.write("\n".join(lines) + "\n")
            sys.stdout.flush()
        assert not problems, "\n".join(lines)

    return _report


def _benchmark_instance(rng: random.Random, n: int) -> Instance:
    return Instance(
        n=n,
        release=tuple(rng.randint(0, 200) for _ in range(n)),
        processing=tuple(rng.randint(1, 50) for _ in range(n)),
    )


def _random_sequence(rng: random.Random, n: int) -> Sequence:
    order = list(range(1, n + 1))
    rng.shuffle(order)
    return Sequence(order=tuple(order))


# --- shared corpora -------------------------------------------------------


@pytest.fixture(scope="session")
def engine_corpus():
    rng = random.Random(SEED)
    corpus = []
    for _ in range(1000):
        inst = _benchmark_instance(rng, rng.randint(1, 50))
        corpus.append((inst, _random_sequence(rng, inst.n)))
    return corpus


@pytest.fixture(scope="session")
def small_parity():
    records = []
    for n in (8, 9, 10):
        for index in range(100):
            inst = bench_instance(SEED, n, index)
            records.append((n, index, inst, optimal_sort(inst), brute_force_optimum(inst)))
    return records


@pytest.fixture(scope="session")
def desk_parity():
    records = []
    for n in (12, 14, 16):
        for index in range(25):
            inst = bench_instance(SEED + 1, n, index)
            records.append(
                (n, index, inst, optimal_sort(inst), branch_and_bound_optimum(inst))
            )
    return records


# --- criteria -------------------------------------------------------------


def test_criterion_01_engine_equivalence(engine_corpus, report):
    started = time.perf_counter()
    problems = []
    for inst, seq in engine_corpus:
        profile = compute_profile(inst, seq)
        sim = simulate(inst.release, inst.processing, seq.order)
        if profile.starts != sim.starts or profile.waits != sim.signed_waits:
            problems.append(f"profile != simulation on {inst}")
        elif tuple(-min(0, w) for w in profile.waits) != sim.idle_before:
            problems.append(f"idle mismatch on {inst}")
        elif profile.objective != sim.objective:
            problems.append(f"objective mismatch on {inst}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 10s budget")
    report(1, "engine equivalence", problems, f"1000 pairs in {elapsed:.2f}s")


def test_criterion_02_release_order_inequalities(engine_corpus, report):
    problems = []
    for inst, seq in engine_corpus:
        profile = compute_profile(inst, seq)
        for k in range(1, inst.n):
            a, b = seq.job_at(k), seq.job_at(k + 1)
            lhs = max(0, profile.wait_at(k)) + inst.p(a)
            rhs = max(0, profile.wait_at(k + 1))
            ordered = inst.r(a) <= inst.r(b)
            if ordered and lhs < rhs:
                problems.append(f"ordered pair violates >= at {k} on {inst}")
            if not ordered and lhs >= rhs:
                problems.append(f"swapped pair violates < at {k} on {inst}")
    report(2, "adjacent-pair inequalities", problems, "same corpus, all pairs")


def test_criterion_03_propagation_vs_simulation(report):
    rng = random.Random(SEED + 2)
    problems = []
    checked = 0
    for kind in ("decrease", "increase"):
        for _ in range(500):
            inst = _benchmark_instance(rng, rng.randint(1, 30))
            seq = _random_sequence(rng, inst.n)
            profile = compute_profile(inst, seq)
            j = rng.randint(1, inst.n)
            delta = rng.randint(0, 60)
            if kind == "decrease":
                trace = propagate_decrease(profile, j, delta)
                forced = inst.r(seq.job_at(j)) + max(0, profile.wait_at(j) - delta)
                sign = -1
            else:
                trace = propagate_increase(profile, j, delta)
                forced = inst.r(seq.job_at(j)) + max(0, profile.wait_at(j) + delta)
                sign = 1
            sim = perturbed_starts(inst.release, inst.processing, seq.order, j, forced)
            for pos in range(j, inst.n + 1):
                old_trunc = max(0, profile.wait_at(pos))
                new_trunc = sim.starts[pos - 1] - inst.r(seq.job_at(pos))
                if sign * (new_trunc - old_trunc) != trace.value_at(pos + 1):
                    problems.append(f"{kind} per-position mismatch at {pos} on {inst}")
                    break
            if sim.objective - profile.objective != objective_delta(trace):
                problems.append(f"{kind} summed delta mismatch on {inst}")
            checked += 1
    report(3, "flow propagation vs simulation", problems, f"{checked} triples")


def test_criterion_04_relocation_gold_invariant(report):
    rng = random.Random(SEED + 3)
    started = time.perf_counter()
    problems = []
    evaluations = 0
    for _ in range(200):
        inst = _benchmark_instance(rng, 12)
        seq = _random_sequence(rng, 12)
        profile = compute_profile(inst, seq)
        for i in range(1, 13):
            for k in range(i + 1, 13):
                ev = forward_move_delta(profile, inst, i, k)
                after = compute_profile(inst, apply_move(seq, i, k, FORWARD))
                evaluations += 1
                if ev.delta_total != after.objective - profile.objective:
                    problems.append(f"forward delta off at ({i},{k}) on {inst}")
                if ev.new_wait != after.waits[k - 1]:
                    problems.append(f"forward wait off at ({i},{k}) on {inst}")
            for k in range(1, i):
                ev = backward_move_delta(profile, inst, i, k)
                after = compute_profile(inst, apply_move(seq, i, k, BACKWARD))
                evaluations += 1
                if ev.delta_total != after.objective - profile.objective:
                    problems.append(f"backward delta off at ({i},{k}) on {inst}")
                if ev.new_wait != after.waits[k - 1]:
                    problems.append(f"backward wait off at ({i},{k}) on {inst}")
        if problems:
            break
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.2f}s exceeds 60s budget")
    report(4, "relocation gold invariant", problems, f"{evaluations} evals in {elapsed:.1f}s")


def test_criterion_05_solution_space_completeness(report):
    rng = random.Random(SEED + 4)
    problems = []
    for _ in range(200):
        inst = _benchmark_instance(rng, 9)
        seq = initial_sequence(inst)
        profile = compute_profile(inst, seq)
        for i in range(1, 10):
            forward = forward_solution_set(profile, inst, i)
            for k in range(i + 1, 10):
                after = compute_profile(inst, apply_move(seq, i, k, FORWARD))
                if after.objective < profile.objective and k not in forward:
                    problems.append(f"improving forward ({i},{k}) outside space on {inst}")
            backward = backward_solution_set(profile, inst, i)
            for k in range(1, i):
                after = compute_profile(inst, apply_move(seq, i, k, BACKWARD))
                if after.objective < profile.objective and k not in backward:
                    problems.append(f"improving backward ({i},{k}) outside space on {inst}")
    report(5, "solution-space completeness", problems, "200 instances, n=9")


def _write_artifact(tag: str, case) -> Path:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / f"{tag}.txt"
    path.write_text(case.instance_text, encoding="utf-8")
    (ARTIFACT_DIR / f"{tag}.json").write_text(
        json.dumps(
            {
                "solver_objective": case.solver_objective,
                "oracle_objective": case.oracle_objective,
                "solver_order": list(case.solver_order),
                "oracle_order": list(case.oracle_order),
                "shrunk": case.shrunk,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    return path


def test_criterion_06_exactness_audit_small(small_parity, report):
    problems = []
    worst_gap = 0.0
    for n, index, inst, result, oracle in small_parity:
        gap = 100.0 * (result.best_objective - oracle.objective) / max(1, oracle.objective)
        worst_gap = max(worst_gap, gap)
        if result.best_objective > oracle.objective:
            case = audit_instance(inst)
            if case is not None:
                path = _write_artifact(f"acceptance6_n{n}_i{index}", case)
                problems.append(f"mismatch n={n} #{index}: artifact {path}")
            else:
                problems.append(f"transient mismatch n={n} #{index} (not reproducible)")
        elif gap > GAP_CEILING_PCT:
            problems.append(f"gap {gap:.4f}% above ceiling on n={n} #{index}")
    report(6, "exactness audit vs brute force", problems, f"300 instances, max gap {worst_gap:.4f}%")


def test_criterion_07_desk_scale_parity(desk_parity, report):
    problems = []
    per_size: dict[int, list[float]] = {}
    for n, index, inst, result, oracle in desk_parity:
        per_size.setdefault(n, []).append(result.elapsed)
        if not oracle.proved_optimal:
            problems.append(f"oracle unproven at n={n} #{index}")
            continue
        gap = 100.0 * (result.best_objective - oracle.objective) / max(1, oracle.objective)
        if gap > GAP_CEILING_PCT:
            problems.append(f"gap {gap:.4f}% at n={n} #{index}")
        if result.best_objective > oracle.objective:
            problems.append(f"strict mismatch at n={n} #{index}")
        if result.elapsed > 60.0:
            problems.append(f"solve took {result.elapsed:.1f}s at n={n} #{index}")
    means = {n: sum(v) / len(v) for n, v in per_size.items()}
    extra = ", ".join(f"n={n} mean {means[n]:.2f}s" for n in sorted(means))
    report(7, "desk-scale oracle parity", problems, extra)


def test_criterion_08_termination_and_idempotence(small_parity, desk_parity, report):
    problems = []
    records = [(inst, result) for _, _, inst, result, _ in small_parity]
    records += [(inst, result) for _, _, inst, result, _ in desk_parity]
    for inst, result in records:
        if result.safety_tripped:
            problems.append(f"safety valve tripped on {inst}")
        if any(delta >= 0 for *_, delta in result.move_log):
            problems.append(f"non-improving accepted move on {inst}")
        start = compute_profile(inst, initial_sequence(inst)).objective
        if start + sum(d for *_, d in result.move_log) != result.best_objective:
            problems.append(f"move log does not reconcile on {inst}")
    for inst, result in records:
        settled = result.best_sequence
        if consumption_operator(settled, inst).order != settled.order:
            problems.append(f"consumption still improves the output on {inst}")
        if backward_traversal(settled, inst).order != settled.order:
            problems.append(f"backward traversal still improves the output on {inst}")
    report(8, "termination and idempotence", problems, f"{len(records)} solves")


def test_criterion_09_spt_degenerate(report):
    problems = []
    for index in range(100):
        base = bench_instance(SEED + 5, 5 + index % 16, index)
        inst = Instance(n=base.n, release=(0,) * base.n, processing=base.processing)
        result = optimal_sort(inst)
        lengths = [inst.p(j) for j in result.best_sequence.order]
        if lengths != sorted(lengths):
            problems.append(f"output not shortest-first on #{index}")
        sorted_p = sorted(inst.processing)
        closed_form = sum((inst.n - pos) * p for pos, p in enumerate(sorted_p, start=1))
        if result.best_objective != closed_form:
            problems.append(
                f"objective {result.best_objective} != closed form {closed_form} on #{index}"
            )
    report(9, "all-zero-release shortest-first", problems, "100 instances")


def test_criterion_10_runtime_growth(report):
    sizes = [10, 12, 14, 16, 18, 20]
    count = 6
    means = {}
    problems = []
    for n in sizes:
        total = 0.0
        for index in range(count):
            inst = bench_instance(SEED + 6, n, index)
            result = optimal_sort(inst)
            total += result.elapsed
            if result.safety_tripped:
                problems.append(f"safety valve tripped at n={n} #{index}")
        means[n] = total / count
    for smaller, larger in zip(sizes, sizes[1:]):
        if means[smaller] > means[larger]:
            problems.append(
                f"mean time fell from n={smaller} ({means[smaller]:.3f}s) "
                f"to n={larger} ({means[larger]:.3f}s)"
            )
    if means[20] > 120.0:
        problems.append(f"mean at n=20 is {means[20]:.1f}s, above the 120s cap")
    extra = ", ".join(f"{n}:{means[n]:.2f}s" for n in sizes)
    report(10, "runtime growth sanity", problems, extra)
