"""Outside-in tracing of the library's layers.

The tracer replaces, for the duration of a ``with tracer.installed(...)``
block, each name a caller inside the package uses to reach another layer:
``minwait.driver.bottleneck_breakthrough`` rather than only
``minwait.rules.bottleneck_breakthrough``, because the driver looks the
name up in its own module. Nothing under ``src/`` changes; the originals are
put back when the block exits.

Each wrapped call records a span (name, start, end, parent span, request)
in flat arrays kept in memory, and a few wrappers also count what the call
returned, such as the members of a solution set. Self time is derived from
the spans: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module the caller lives in, name it calls, span name). One span name may
# be reached through several bindings; all of them are wrapped.
BINDINGS = (
    ("driver", "compute_profile", "timeline.compute_profile"),
    ("driver", "segment_profile", "timeline.segment_profile"),
    ("rules", "segment_profile", "timeline.segment_profile"),
    ("rules", "segment_cost", "timeline.segment_cost"),
    ("driver", "apply_move", "move_calculus.apply_move"),
    ("driver", "forward_move_delta", "move_calculus.forward_move_delta"),
    ("driver", "backward_move_delta", "move_calculus.backward_move_delta"),
    ("solution_sets", "backward_move_delta", "move_calculus.backward_move_delta"),
    ("driver", "idle_adjustment", "move_calculus.idle_adjustment"),
    ("driver", "insertion_seed", "move_calculus.insertion_seed"),
    ("move_calculus", "insertion_seed", "move_calculus.insertion_seed"),
    ("move_calculus", "propagate_increase", "propagation.propagate_increase"),
    ("move_calculus", "propagate_decrease", "propagation.propagate_decrease"),
    ("driver", "forward_solution_set", "solution_sets.forward"),
    ("driver", "backward_solution_set", "solution_sets.backward"),
    ("driver", "bottleneck_breakthrough", "rules.bottleneck_breakthrough"),
    ("driver", "adjacent_exchange", "rules.adjacent_exchange"),
    ("driver", "consumption_operator", "driver.consumption_operator"),
    ("driver", "backward_traversal", "driver.backward_traversal"),
    ("driver", "initial_sequence", "instances.initial_sequence"),
    ("oracles", "initial_sequence", "instances.initial_sequence"),
    ("driver", "Sequence", "instances.Sequence"),
    ("rules", "Sequence", "instances.Sequence"),
    ("move_calculus", "Sequence", "instances.Sequence"),
    ("instances", "Sequence", "instances.Sequence"),
    ("oracles", "Sequence", "instances.Sequence"),
    ("oracles", "srpt_waiting_bound", "oracles.srpt_waiting_bound"),
)

# The benchmark's own entry points into the package: (attribute, span name).
ENTRY_POINTS = {
    "solve": ("optimal_sort", "driver.optimal_sort"),
    "prove": ("branch_and_bound_optimum", "oracles.bnb"),
}


def _count_direction(counters: Counter, args: tuple, kwargs: dict, result) -> None:
    direction = args[3] if len(args) > 3 else kwargs["direction"]
    counters[f"move_calculus.apply_move.{direction}"] += 1


def _count_members(name: str):
    def hook(counters: Counter, args: tuple, kwargs: dict, result) -> None:
        counters[f"{name}.members"] += len(result)

    return hook


def _count_fired(name: str):
    def hook(counters: Counter, args: tuple, kwargs: dict, result) -> None:
        if result[1] != 0:
            counters[f"{name}.fired"] += 1

    return hook


def _count_solve(counters: Counter, args: tuple, kwargs: dict, result) -> None:
    counters["driver.passes"] += result.iterations
    counters["driver.accepted_moves"] += len(result.move_log)


def _count_proof(counters: Counter, args: tuple, kwargs: dict, result) -> None:
    counters["oracles.bnb.nodes"] += result.nodes_explored
    counters["oracles.bnb.proved"] += result.proved_optimal


HOOKS = {
    "move_calculus.apply_move": _count_direction,
    "solution_sets.forward": _count_members("solution_sets.forward"),
    "solution_sets.backward": _count_members("solution_sets.backward"),
    "rules.bottleneck_breakthrough": _count_fired("rules.bottleneck_breakthrough"),
    "rules.adjacent_exchange": _count_fired("rules.adjacent_exchange"),
    "driver.optimal_sort": _count_solve,
    "oracles.bnb": _count_proof,
}

# Spans reported as <name>.calls and <name>.self_ms.
TIMED_SPANS = (
    "driver.optimal_sort",
    "driver.consumption_operator",
    "driver.backward_traversal",
    "rules.bottleneck_breakthrough",
    "rules.adjacent_exchange",
    "solution_sets.forward",
    "solution_sets.backward",
    "move_calculus.apply_move",
    "move_calculus.forward_move_delta",
    "move_calculus.backward_move_delta",
    "move_calculus.idle_adjustment",
    "move_calculus.insertion_seed",
    "propagation.propagate_increase",
    "propagation.propagate_decrease",
    "timeline.compute_profile",
    "timeline.segment_profile",
    "timeline.segment_cost",
    "oracles.bnb",
    "oracles.srpt_waiting_bound",
)

# Every per-layer metric a traced run reports: (name, unit, better).
LAYER_METRICS = tuple(
    metric
    for span in TIMED_SPANS
    for metric in ((f"{span}.calls", "count", "lower"), (f"{span}.self_ms", "ms", "lower"))
) + (
    ("rules.bottleneck_breakthrough.fired_ratio", "ratio", "higher"),
    ("rules.adjacent_exchange.fired_ratio", "ratio", "higher"),
    ("solution_sets.forward.members", "count", "lower"),
    ("solution_sets.backward.members", "count", "lower"),
    ("move_calculus.apply_move.forward", "count", "lower"),
    ("move_calculus.apply_move.backward", "count", "lower"),
    ("driver.passes", "count", "lower"),
    ("driver.accepted_moves", "count", "lower"),
    ("instances.sequence_created", "count", "lower"),
    ("instances.self_ms", "ms", "lower"),
    ("oracles.bnb.nodes", "count", "lower"),
    ("oracles.bnb.proved_ratio", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Spans and counters for calls into the package, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: Counter = Counter()
        # Identifier shared by the spans of one benchmark operation.
        self.request = 0
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._name_ids[name]
        hook = HOOKS.get(name)
        clock = time.perf_counter_ns
        stack = self._stack
        counters = self.counters
        span_name, span_parent = self.span_name, self.span_parent
        span_request, span_start, span_end = self.span_request, self.span_start, self.span_end

        def traced(*args, **kwargs):
            span = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_request.append(self.request)
            span_end.append(0)
            stack.append(span)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[span] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package):
        """Wrap every binding in BINDINGS; yield the wrapped entry points by operation."""
        patched = []
        try:
            for module_name, attr, name in BINDINGS:
                module = importlib.import_module(f"{package.__name__}.{module_name}")
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(name, original))
                patched.append((module, attr, original))
            yield {
                operation: self.wrap(name, getattr(package, attr))
                for operation, (attr, name) in ENTRY_POINTS.items()
            }
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def aggregate(self) -> dict[str, tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        children = [0] * len(self.span_name)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                children[parent] += self.span_end[span] - self.span_start[span]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for span, name_id in enumerate(self.span_name):
            calls[name_id] += 1
            self_ns[name_id] += self.span_end[span] - self.span_start[span] - children[span]
        return {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}

    def counts(self) -> dict[str, int]:
        """Every deterministic count: calls per span name plus the hook counters."""
        out = {f"{name}.calls": calls for name, (calls, _) in self.aggregate().items()}
        out.update(self.counters)
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values by metric name (all of LAYER_METRICS except trace.overhead_*)."""
        spans = self.aggregate()
        c = self.counters

        def calls(name: str) -> int:
            return spans.get(name, (0, 0))[0]

        def self_ms(*names: str) -> float:
            return sum(spans.get(name, (0, 0))[1] for name in names) / 1e6

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        out: dict[str, float] = {}
        for name in TIMED_SPANS:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_ms"] = self_ms(name)
        for rule in ("rules.bottleneck_breakthrough", "rules.adjacent_exchange"):
            out[f"{rule}.fired_ratio"] = ratio(c[f"{rule}.fired"], calls(rule))
        for key in (
            "solution_sets.forward.members",
            "solution_sets.backward.members",
            "move_calculus.apply_move.forward",
            "move_calculus.apply_move.backward",
            "driver.passes",
            "driver.accepted_moves",
            "oracles.bnb.nodes",
        ):
            out[key] = c[key]
        out["instances.sequence_created"] = calls("instances.Sequence")
        out["instances.self_ms"] = self_ms("instances.Sequence", "instances.initial_sequence")
        out["oracles.bnb.proved_ratio"] = ratio(c["oracles.bnb.proved"], calls("oracles.bnb"))
        out["trace.spans"] = len(self.span_name)
        return out

    def write(self, path: Path) -> None:
        """Write every span as gzipped CSV: span, parent, request, name, start_ns, end_ns.

        Times are nanoseconds since the first span started.
        """
        origin = self.span_start[0] if self.span_start else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,parent,request,name,start_ns,end_ns\n")
            for span in range(len(self.span_name)):
                out.write(
                    f"{span},{self.span_parent[span]},{self.span_request[span]},"
                    f"{self.names[self.span_name[span]]},{self.span_start[span] - origin},"
                    f"{self.span_end[span] - origin}\n"
                )
