from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minwait
from minwait import (
    Instance,
    audit_instance,
    bench_instance,
    cli_main,
    compute_profile,
    generate_instance,
    initial_sequence,
    mine_counterexamples,
    parse_instance,
    run_benchmark,
    serialize_instance,
)
from minwait.harness import BNB_PROVEN_LIMIT

from conftest import REFERENCE_TEXT


def lazy_solver(inst):
    """A deliberately weak stand-in: returns the starting order unchanged."""
    return initial_sequence(inst)


def test_bench_instances_are_reproducible():
    assert bench_instance(7, 9, 3) == bench_instance(7, 9, 3)
    assert bench_instance(7, 9, 3) != bench_instance(7, 9, 4)
    assert bench_instance(8, 9, 3) != bench_instance(7, 9, 3)


def test_benchmark_deterministic_content():
    first = run_benchmark([6, 7], count=3, seed=11)
    second = run_benchmark([6, 7], count=3, seed=11)
    assert first.to_dict(include_timing=False) == second.to_dict(include_timing=False)
    assert first.rows[0].oracle_method == "brute"
    assert first.rows[0].mismatches == 0
    assert first.rows[0].mean_gap_pct == 0.0


def test_benchmark_empty_count():
    report = run_benchmark([5], count=0, seed=1)
    assert report.rows[0].count == 0
    assert report.rows[0].mean_gap_pct is None
    assert report.to_text().count("\n") >= 3


def test_benchmark_oracle_selection():
    report = run_benchmark([BNB_PROVEN_LIMIT + 2], count=0, seed=1)
    assert report.rows[0].oracle_method == "none"
    with pytest.raises(ValueError):
        run_benchmark([12], count=1, seed=1, oracle_method="brute")


def test_benchmark_text_table():
    report = run_benchmark([5], count=2, seed=3)
    text = report.to_text()
    assert "gap (%)" in text and "method" in text
    payload = json.loads(report.to_json())
    assert payload["rows"][0]["n"] == 5


def test_audit_passes_exact_solver():
    for index in range(5):
        assert audit_instance(generate_instance(6, 1000 + index)) is None


def test_audit_rejects_oversize():
    with pytest.raises(ValueError):
        audit_instance(generate_instance(12, 1))


def test_miner_finds_and_shrinks_with_weak_solver():
    found = mine_counterexamples(6, 40, seed=77, solver=lazy_solver)
    assert found, "the identity solver must miss some optima"
    for case in found:
        assert case.reverify()
        inst = parse_instance(case.instance_text)
        # local minimality: dropping any single job removes the mismatch
        if case.shrunk and inst.n > 1:
            for drop in range(1, inst.n + 1):
                keep = [j for j in range(1, inst.n + 1) if j != drop]
                sub = Instance(
                    n=inst.n - 1,
                    release=tuple(inst.release[j - 1] for j in keep),
                    processing=tuple(inst.processing[j - 1] for j in keep),
                )
                assert audit_instance(sub, solver=lazy_solver) is None


def test_miner_clean_on_real_solver():
    assert mine_counterexamples(6, 10, seed=5) == []


def test_cli_solve_json(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text(REFERENCE_TEXT)
    code = cli_main(["solve", str(path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == 4
    assert payload["order"] == [1, 2, 3, 4, 5]
    assert payload["safety_tripped"] is False
    assert payload["iterations"] >= 1
    assert payload["elapsed_ms"] >= 0


def test_cli_solve_text_and_log(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text(REFERENCE_TEXT)
    log = tmp_path / "moves.log"
    assert cli_main(["solve", str(path), "--log", str(log)]) == 0
    out = capsys.readouterr().out
    assert "objective 4" in out
    assert log.exists()


def test_cli_gen_deterministic(capsys):
    assert cli_main(["gen", "--n", "5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["gen", "--n", "5", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second
    inst = parse_instance(first)
    assert inst.n == 5


def test_cli_gen_to_file(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert cli_main(["gen", "--n", "4", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert parse_instance(out.read_text()).n == 4


def test_cli_runs_as_module(tmp_path):
    out = tmp_path / "x.txt"
    package_root = str(Path(minwait.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    args = ["gen", "--n", "5", "--seed", "1", "--out", str(out)]
    completed = subprocess.run(
        [sys.executable, "-m", "minwait.harness", *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert out.read_text(encoding="utf-8") == serialize_instance(generate_instance(5, 1))


def test_cli_oracle(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text(REFERENCE_TEXT)
    assert cli_main(["oracle", str(path), "--method", "brute"]) == 0
    out = capsys.readouterr().out
    assert "objective 4" in out and "proved_optimal true" in out


def test_cli_verify_match(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text(REFERENCE_TEXT)
    assert cli_main(["verify", str(path)]) == 0
    assert "solver 4 oracle 4" in capsys.readouterr().out


def test_cli_verify_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    import minwait.harness as harness_module
    from minwait import SolveResult, Sequence

    def broken_solver(inst):
        seq = Sequence(order=tuple(range(1, inst.n + 1)))
        return SolveResult(
            best_sequence=seq,
            best_objective=compute_profile(inst, seq).objective,
            iterations=1,
            move_log=(),
            elapsed=0.0,
            safety_tripped=False,
        )

    monkeypatch.setattr(harness_module, "optimal_sort", broken_solver)
    inst = Instance(n=3, release=(0, 0, 0), processing=(9, 1, 1))
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 9\n0 1\n0 1\n")
    assert cli_main(["verify", str(path)]) == 2
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_export_lp(tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text(REFERENCE_TEXT)
    assert cli_main(["export-lp", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Minimize")
    assert "47 x_1_2" in out
    assert cli_main(["export-lp", str(path), "--big-m", "99"]) == 0
    assert "99 x_1_2" in capsys.readouterr().out


def test_cli_bench(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli_main(
        ["bench", "--sizes", "5", "--count", "2", "--seed", "4", "--json", str(report_path)]
    )
    assert code == 0
    assert "method" in capsys.readouterr().out
    payload = json.loads(report_path.read_text())
    assert payload["rows"][0]["count"] == 2


def test_cli_mine(tmp_path, capsys):
    out_dir = tmp_path / "finds"
    code = cli_main(
        ["mine", "--n", "5", "--count", "3", "--seed", "6", "--out", str(out_dir)]
    )
    assert code == 0
    assert "found 0 counterexamples" in capsys.readouterr().out
    assert out_dir.exists()


def test_cli_usage_errors(tmp_path, capsys):
    assert cli_main(["frobnicate"]) == 1
    assert cli_main(["solve"]) == 1
    assert cli_main(["solve", str(tmp_path / "missing.txt")]) == 1
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 5\n")
    assert cli_main(["solve", str(bad)]) == 1
    capsys.readouterr()
