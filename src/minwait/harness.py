"""Benchmarking, exactness auditing, and the command-line interface.

This module is not imported by the package root: reach ``run_benchmark``,
``audit_instance``, ``mine_counterexamples``, ``improving_relocation`` and
``cli_main`` as ``minwait.harness``, or run it as
``python -m minwait.harness``. The root ``minwait`` holds the library these
build on.

The benchmark reruns the solver against branch and bound up to
``BNB_PROVEN_LIMIT`` jobs (runtime only above) and aggregates objective
gaps; everything an audit needs to rerun a row bit-identically is derived
from the report's seed. The miner hunts for instances where the solver
misses the optimum branch and bound proves, and shrinks any find to local
minimality, preserving the evidence as text artifacts. The local-optimality
check needs no oracle, so it applies at any n: it looks for a single
relocation that the closed-form move deltas say would improve an order.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .driver import SolveResult, optimal_sort
from .instances import (
    Instance,
    InstanceFormatError,
    Sequence,
    bench_instance,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .move_calculus import BACKWARD, FORWARD, backward_move_delta, forward_move_delta
from .oracles import (
    BRUTE_FORCE_LIMIT,
    OracleResult,
    branch_and_bound_optimum,
    brute_force_optimum,
    export_milp,
)
from .timeline import EngineInvariantError, compute_profile

# branch and bound proved all 320 inputs of an n=16..40 sweep over eight families in <= 0.36 s each
BNB_PROVEN_LIMIT = 40


@dataclass(frozen=True)
class BenchRow:
    n: int
    count: int
    mean_solver_ms: float
    mean_oracle_ms: float | None
    oracle_method: str
    mean_gap_pct: float | None
    max_gap_pct: float | None
    mismatches: int


@dataclass(frozen=True)
class BenchReport:
    seed: int
    rows: tuple[BenchRow, ...]
    environment: dict[str, str]

    def to_dict(self) -> dict:
        rows = [
            {
                "n": row.n,
                "count": row.count,
                "oracle_method": row.oracle_method,
                "mean_gap_pct": row.mean_gap_pct,
                "max_gap_pct": row.max_gap_pct,
                "mismatches": row.mismatches,
                "mean_solver_ms": row.mean_solver_ms,
                "mean_oracle_ms": row.mean_oracle_ms,
            }
            for row in self.rows
        ]
        return {"seed": self.seed, "rows": rows, "environment": dict(self.environment)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        header = f"{'n':>4} {'count':>6} {'solver (s)':>11} {'oracle (s)':>11} {'method':>7} {'gap (%)':>8} {'max gap':>8} {'miss':>5}"
        lines = [header, "-" * len(header)]
        for row in self.rows:
            oracle_s = "-" if row.mean_oracle_ms is None else f"{row.mean_oracle_ms / 1000:.3f}"
            gap = "-" if row.mean_gap_pct is None else f"{row.mean_gap_pct:.4f}"
            max_gap = "-" if row.max_gap_pct is None else f"{row.max_gap_pct:.4f}"
            lines.append(
                f"{row.n:>4} {row.count:>6} {row.mean_solver_ms / 1000:>11.3f} "
                f"{oracle_s:>11} {row.oracle_method:>7} {gap:>8} {max_gap:>8} {row.mismatches:>5}"
            )
        return "\n".join(lines) + "\n"


def _oracle_for(n: int, method: str) -> str:
    if method != "auto":
        if method == "brute" and n > BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute force infeasible at n={n} (limit {BRUTE_FORCE_LIMIT})")
        return method
    return "bnb" if n <= BNB_PROVEN_LIMIT else "none"


def run_benchmark(sizes: list[int], count: int, seed: int) -> BenchReport:
    """Solve ``count`` fresh instances per size and compare against an oracle.

    Gaps are percentages of the oracle objective (floor 1 to avoid dividing
    by a zero optimum); sizes beyond the proven branch-and-bound range
    produce runtime-only rows. Deterministic content for a fixed seed.
    """
    rows: list[BenchRow] = []
    for n in sizes:
        method = _oracle_for(n, "auto")
        solver_ms: list[float] = []
        oracle_ms: list[float] = []
        gaps: list[float] = []
        mismatches = 0
        for index in range(count):
            inst = bench_instance(seed, n, index)
            result = optimal_sort(inst)
            solver_ms.append(result.elapsed * 1000)
            if method == "none":
                continue
            oracle = _run_oracle(inst, method)
            oracle_ms.append(oracle.elapsed * 1000)
            if oracle.proved_optimal and result.best_objective < oracle.objective:
                raise EngineInvariantError(
                    f"solver beat a 'proven' optimum on n={n} seed={seed} index={index}"
                )
            gap = 100.0 * (result.best_objective - oracle.objective) / max(1, oracle.objective)
            gaps.append(gap)
            if oracle.proved_optimal and result.best_objective > oracle.objective:
                mismatches += 1
        rows.append(
            BenchRow(
                n=n,
                count=count,
                mean_solver_ms=_mean(solver_ms),
                mean_oracle_ms=_mean(oracle_ms) if oracle_ms else None,
                oracle_method=method,
                mean_gap_pct=_mean(gaps) if gaps else None,
                max_gap_pct=max(gaps) if gaps else None,
                mismatches=mismatches,
            )
        )
    environment = {
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    return BenchReport(seed=seed, rows=tuple(rows), environment=environment)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _run_oracle(
    inst: Instance,
    method: str,
    node_limit: int | None = None,
    time_limit_ms: int | None = None,
) -> OracleResult:
    if method == "brute":
        return brute_force_optimum(inst)
    if method == "bnb":
        return branch_and_bound_optimum(inst, node_limit=node_limit, time_limit_ms=time_limit_ms)
    raise ValueError(f"unknown oracle method {method!r}")


@dataclass(frozen=True)
class Counterexample:
    """An instance where the solver provably missed the optimum."""

    instance_text: str
    solver_objective: int
    oracle_objective: int
    solver_order: tuple[int, ...]
    oracle_order: tuple[int, ...]
    shrunk: bool

    def reverify(self) -> bool:
        """Recompute both objectives from the stored text and orders."""
        inst = parse_instance(self.instance_text)
        solver_obj = compute_profile(inst, Sequence(order=self.solver_order)).objective
        oracle_obj = compute_profile(inst, Sequence(order=self.oracle_order)).objective
        return (
            solver_obj == self.solver_objective
            and oracle_obj == self.oracle_objective
            and solver_obj > oracle_obj
        )


def _drop_job(inst: Instance, job: int) -> Instance:
    keep = [j for j in range(1, inst.n + 1) if j != job]
    return Instance(
        n=inst.n - 1,
        release=tuple(inst.release[j - 1] for j in keep),
        processing=tuple(inst.processing[j - 1] for j in keep),
    )


def audit_instance(inst: Instance, solver=None) -> Counterexample | None:
    """Compare the solver against branch and bound; shrink and report any miss.

    Returns None when the solver matches the proven optimum. On a strict
    miss, jobs are greedily deleted while the miss persists, so the
    reported instance is locally minimal. ``solver`` is injectable for
    testing the harness itself; it defaults to the real solver.
    """
    if inst.n > BNB_PROVEN_LIMIT:
        raise ValueError(f"auditing needs a proven optimum, so n <= {BNB_PROVEN_LIMIT}")
    solve = solver or (lambda problem: optimal_sort(problem).best_sequence)
    mismatch = _mismatch(inst, solve)
    if mismatch is None:
        return None
    shrunk = False
    while mismatch[0].n > 1:
        smaller_mismatch = None
        for job in range(1, mismatch[0].n + 1):
            candidate = _drop_job(mismatch[0], job)
            smaller_mismatch = _mismatch(candidate, solve)
            if smaller_mismatch is not None:
                break
        if smaller_mismatch is None:
            break
        shrunk = True
        mismatch = smaller_mismatch
    found, solver_seq, solver_obj, oracle = mismatch
    return Counterexample(
        instance_text=serialize_instance(found),
        solver_objective=solver_obj,
        oracle_objective=oracle.objective,
        solver_order=solver_seq.order,
        oracle_order=oracle.sequence.order,
        shrunk=shrunk,
    )


def mine_counterexamples(n: int, count: int, seed: int, solver=None) -> list[Counterexample]:
    """Hunt for instances the solver gets wrong, shrinking each find."""
    found: list[Counterexample] = []
    for index in range(count):
        inst = bench_instance(seed, n, index)
        case = audit_instance(inst, solver=solver)
        if case is not None:
            found.append(case)
    return found


def _mismatch(inst: Instance, solve) -> tuple[Instance, Sequence, int, OracleResult] | None:
    solver_seq = solve(inst)
    solver_obj = compute_profile(inst, solver_seq).objective
    oracle = branch_and_bound_optimum(inst)
    if solver_obj > oracle.objective:
        return inst, solver_seq, solver_obj, oracle
    return None


def improving_relocation(
    inst: Instance, order: tuple[int, ...]
) -> tuple[str, int, int, int] | None:
    """The first relocation that lowers the objective of ``order``, or None.

    Scans forward moves (i ascending, then k), then backward moves, and
    returns ``(direction, i, k, delta)`` for the first negative
    ``delta_total``. The deltas are exact, so None means no single
    relocation improves ``order``: the solver's local-optimality claim.
    """
    profile = compute_profile(inst, Sequence(order=order))
    n = inst.n
    for i in range(1, n + 1):
        for k in range(i + 1, n + 1):
            delta = forward_move_delta(profile, inst, i, k).delta_total
            if delta < 0:
                return FORWARD, i, k, delta
    for i in range(2, n + 1):
        for k in range(1, i):
            delta = backward_move_delta(profile, inst, i, k).delta_total
            if delta < 0:
                return BACKWARD, i, k, delta
    return None


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


def _solve_payload(result: SolveResult) -> dict:
    return {
        "objective": result.best_objective,
        "order": list(result.best_sequence.order),
        "iterations": result.iterations,
        "elapsed_ms": result.elapsed * 1000,
        "safety_tripped": result.safety_tripped,
    }


def _read_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point; returns 0 on success, 1 on usage error, 2 on verify mismatch."""
    parser = _Parser(prog="minwait", description="Single-machine total-waiting scheduling toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file")
    p_solve.add_argument("--log", help="write the accepted-move log to this path")
    p_solve.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_oracle = sub.add_parser("oracle", help="run an exact oracle on an instance file")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--method", choices=["brute", "bnb"], required=True)
    p_oracle.add_argument("--limit-nodes", type=int, default=None)
    p_oracle.add_argument("--limit-ms", type=int, default=None)

    p_verify = sub.add_parser("verify", help="solver vs oracle on one instance")
    p_verify.add_argument("file")
    p_verify.add_argument("--method", choices=["auto", "brute", "bnb"], default="auto")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench", help="benchmark solver vs oracles")
    p_bench.add_argument("--sizes", required=True, help="comma-separated sizes, e.g. 10,12,14")
    p_bench.add_argument("--count", type=int, required=True)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--json", default=None, help="also write a JSON report here")

    p_mine = sub.add_parser("mine", help="search for solver/oracle mismatches")
    p_mine.add_argument("--n", type=int, required=True)
    p_mine.add_argument("--count", type=int, required=True)
    p_mine.add_argument("--seed", type=int, required=True)
    p_mine.add_argument("--out", required=True, help="directory for counterexample artifacts")

    p_export = sub.add_parser("export-lp", help="write the big-M model as LP text")
    p_export.add_argument("file")
    p_export.add_argument("--big-m", type=int, default=None)

    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return _dispatch(args)
    except (InstanceFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "solve":
        inst = _read_instance(args.file)
        result = optimal_sort(inst)
        if args.log:
            lines = [
                f"{it} {kind} {i} {k} {delta}" for it, kind, i, k, delta in result.move_log
            ]
            Path(args.log).write_text("\n".join(lines) + "\n", encoding="utf-8")
        if args.json:
            print(json.dumps(_solve_payload(result)))
        else:
            print(f"objective {result.best_objective}")
            print("order " + " ".join(str(j) for j in result.best_sequence.order))
            print(f"iterations {result.iterations}")
            print(f"elapsed_ms {result.elapsed * 1000:.3f}")
            print(f"safety_tripped {str(result.safety_tripped).lower()}")
        return 0

    if args.command == "oracle":
        inst = _read_instance(args.file)
        oracle = _run_oracle(
            inst, args.method, node_limit=args.limit_nodes, time_limit_ms=args.limit_ms
        )
        print(f"objective {oracle.objective}")
        print("order " + " ".join(str(j) for j in oracle.sequence.order))
        print(f"proved_optimal {str(oracle.proved_optimal).lower()}")
        print(f"nodes {oracle.nodes_explored}")
        print(f"elapsed_ms {oracle.elapsed * 1000:.3f}")
        return 0

    if args.command == "verify":
        inst = _read_instance(args.file)
        method = _oracle_for(inst.n, args.method)
        if method == "none":
            print(f"no feasible oracle for n={inst.n}; nothing verified")
            return 0
        result = optimal_sort(inst)
        oracle = _run_oracle(inst, method)
        print(f"solver {result.best_objective} oracle {oracle.objective} method {method}")
        if oracle.proved_optimal and result.best_objective > oracle.objective:
            print("MISMATCH: solver missed the proven optimum")
            return 2
        if not oracle.proved_optimal:
            print("oracle did not prove optimality; comparison is advisory")
        return 0

    if args.command == "gen":
        inst = generate_instance(args.n, args.seed)
        text = serialize_instance(inst)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
        return 0

    if args.command == "bench":
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
        report = run_benchmark(sizes, args.count, args.seed)
        print(report.to_text(), end="")
        if args.json:
            Path(args.json).write_text(report.to_json(), encoding="utf-8")
        return 0

    if args.command == "mine":
        found = mine_counterexamples(args.n, args.count, args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for idx, ce in enumerate(found):
            (out_dir / f"counterexample_{idx:03d}.txt").write_text(
                ce.instance_text, encoding="utf-8"
            )
            meta = {
                "solver_objective": ce.solver_objective,
                "oracle_objective": ce.oracle_objective,
                "solver_order": list(ce.solver_order),
                "oracle_order": list(ce.oracle_order),
                "shrunk": ce.shrunk,
            }
            (out_dir / f"counterexample_{idx:03d}.json").write_text(
                json.dumps(meta, indent=2) + "\n", encoding="utf-8"
            )
        print(f"found {len(found)} counterexamples in {args.count} instances")
        return 0

    if args.command == "export-lp":
        inst = _read_instance(args.file)
        print(export_milp(inst, big_m=args.big_m), end="")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
