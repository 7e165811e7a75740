"""The package surface: what ``import minwait`` exports, loads and keeps bound.

The root exports the library and nothing else; the harness is reached as
``minwait.harness``. The benchmark under ``perfbench/`` looks up package
attributes and module-level bindings by name, so a name that goes missing
there would crash every benchmark run; these checks catch it here first.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import minwait

ROOT_NAMES = (
    "Instance",
    "InstanceFormatError",
    "Sequence",
    "bench_instance",
    "generate_instance",
    "initial_sequence",
    "parse_instance",
    "serialize_instance",
    "EngineInvariantError",
    "WaitingProfile",
    "FCFS_CONSISTENT",
    "LCFS_SWAPPED",
    "classify_adjacent",
    "compute_profile",
    "segment_cost",
    "segment_profile",
    "objective_delta",
    "propagate_decrease",
    "propagate_increase",
    "FORWARD",
    "BACKWARD",
    "apply_move",
    "forward_move_delta",
    "backward_move_delta",
    "forward_solution_set",
    "backward_solution_set",
    "adjacent_exchange",
    "bottleneck_breakthrough",
    "certify_global",
    "optimal_sort",
    "branch_and_bound_optimum",
    "brute_force_optimum",
    "export_milp",
)

# Package attributes perfbench/run.py and perfbench/selftest.py call directly.
BENCHMARK_ATTRIBUTES = (
    "bench_instance",
    "Instance",
    "initial_sequence",
    "optimal_sort",
    "branch_and_bound_optimum",
)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_root_exports_exactly_the_library():
    assert sorted(minwait.__all__) == sorted(ROOT_NAMES)
    assert len(minwait.__all__) == len(ROOT_NAMES) == 33
    for name in ROOT_NAMES:
        assert getattr(minwait, name) is not None, name


def test_import_leaves_harness_unloaded(tmp_path):
    package_root = str(Path(minwait.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, minwait; print('minwait.harness' in sys.modules)"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


def test_tracer_bindings_resolve():
    tracer = _load_tracer()
    for module_name, attr, _ in tracer.BINDINGS:
        module = importlib.import_module(f"minwait.{module_name}")
        assert callable(getattr(module, attr, None)), f"minwait.{module_name}.{attr}"
    for attr, _ in tracer.ENTRY_POINTS.values():
        assert callable(getattr(minwait, attr, None)), f"minwait.{attr}"


def test_benchmark_attributes_resolve():
    for name in BENCHMARK_ATTRIBUTES:
        assert callable(getattr(minwait, name, None)), name
