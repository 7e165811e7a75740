"""Golden corpus: exact solver outputs that every hot-path change must reproduce.

Each row pins (best_objective, order, iterations, move_log) of one solve.
Instances are ``bench_instance(SEED, n, index)`` under one of three release
regimes: as generated, "dense" (releases scaled by n/12, a crowded queue)
and "sparse" (releases spread over the total processing time, an idle-rich
queue). A change that only removes redundant arithmetic leaves every row,
and the number of pipelines the driver runs, exactly as it was.
"""

from __future__ import annotations

import pytest

import minwait.driver
from minwait import Instance, bench_instance, optimal_sort

SEED = 20250816

GOLDEN = {
    ("generated", 8, 0): (112, (7, 8, 2, 6, 3, 4, 1, 5), 1, ()),
    ("generated", 9, 0): (214, (4, 2, 1, 3, 5, 6, 9, 7, 8), 2, ((1, "forward", 1, 2, -154),)),
    ("generated", 10, 0): (
        211, (7, 10, 4, 9, 1, 8, 3, 6, 2, 5), 2, ((1, "forward", 1, 2, -119),)
    ),
    ("generated", 11, 0): (
        512, (4, 10, 6, 2, 9, 5, 8, 3, 1, 7, 11), 2, ((1, "forward", 1, 2, -71),)
    ),
    ("generated", 12, 0): (
        434, (11, 3, 8, 2, 1, 7, 4, 9, 6, 10, 12, 5), 2, ((1, "forward", 1, 2, -146),)
    ),
    ("dense", 8, 0): (214, (7, 8, 6, 3, 4, 2, 1, 5), 2, ((1, "forward", 1, 2, -32),)),
    ("dense", 9, 0): (245, (4, 2, 1, 5, 3, 6, 9, 7, 8), 2, ((1, "forward", 1, 2, -164),)),
    ("dense", 10, 0): (340, (7, 10, 9, 4, 2, 8, 3, 6, 5, 1), 2, ((1, "forward", 1, 2, -150),)),
    ("dense", 11, 0): (
        541, (4, 10, 6, 2, 9, 5, 8, 1, 3, 7, 11), 2, ((1, "forward", 1, 2, -72),)
    ),
    ("sparse", 8, 0): (67, (7, 8, 2, 6, 3, 4, 1, 5), 1, ()),
    ("sparse", 9, 0): (227, (4, 2, 1, 5, 3, 6, 9, 7, 8), 2, ((1, "forward", 1, 2, -164),)),
    ("sparse", 10, 0): (102, (7, 10, 4, 1, 9, 2, 8, 3, 6, 5), 2, ((1, "forward", 1, 2, -14),)),
    ("sparse", 11, 0): (
        358, (4, 10, 6, 2, 5, 9, 8, 3, 7, 1, 11), 2, ((1, "forward", 1, 2, -58),)
    ),
    ("sparse", 12, 0): (
        196, (11, 3, 8, 2, 1, 7, 9, 12, 4, 10, 6, 5), 2, ((1, "forward", 1, 2, -43),)
    ),
    # n=13..16, two or more per regime
    ("generated", 13, 0): (
        428, (9, 4, 2, 10, 5, 11, 6, 13, 12, 1, 8, 7, 3), 2, ((1, "forward", 1, 2, -419),)
    ),
    ("generated", 14, 0): (
        748, (6, 7, 9, 1, 14, 10, 13, 5, 11, 3, 8, 2, 4, 12), 2, ((1, "forward", 1, 2, -268),)
    ),
    ("generated", 15, 0): (
        1405,
        (12, 3, 7, 4, 5, 13, 14, 15, 1, 9, 11, 8, 10, 6, 2),
        2,
        ((1, "forward", 1, 11, -916),),
    ),
    ("generated", 16, 0): (
        1034,
        (10, 7, 11, 13, 5, 9, 15, 14, 2, 3, 6, 8, 12, 16, 1, 4),
        2,
        ((1, "forward", 1, 2, -709),),
    ),
    ("dense", 13, 0): (
        428, (9, 4, 2, 10, 5, 7, 6, 11, 12, 1, 8, 13, 3), 2, ((1, "forward", 1, 2, -355),)
    ),
    ("dense", 14, 0): (
        692, (6, 7, 9, 2, 14, 10, 13, 5, 1, 11, 3, 8, 4, 12), 2, ((1, "forward", 1, 2, -209),)
    ),
    ("dense", 15, 0): (
        1217,
        (12, 3, 4, 7, 15, 14, 5, 13, 1, 11, 9, 8, 10, 6, 2),
        2,
        ((1, "forward", 1, 7, -863),),
    ),
    ("dense", 16, 0): (
        811,
        (10, 11, 7, 5, 4, 15, 9, 3, 14, 12, 2, 6, 8, 13, 16, 1),
        2,
        ((1, "forward", 1, 2, -493),),
    ),
    ("sparse", 13, 0): (
        368, (9, 4, 2, 10, 5, 7, 13, 6, 11, 12, 1, 8, 3), 2, ((1, "forward", 1, 6, -257),)
    ),
    ("sparse", 14, 0): (
        342, (6, 7, 2, 9, 14, 10, 5, 1, 13, 3, 11, 8, 4, 12), 2, ((1, "forward", 1, 2, -137),)
    ),
    ("sparse", 15, 0): (
        742,
        (12, 3, 8, 4, 7, 14, 15, 5, 1, 13, 11, 10, 2, 9, 6),
        2,
        ((1, "forward", 1, 7, -509),),
    ),
    ("sparse", 16, 0): (
        424,
        (10, 11, 7, 5, 13, 4, 15, 3, 9, 16, 14, 2, 12, 8, 6, 1),
        2,
        ((1, "forward", 1, 2, -243),),
    ),
    # n=17..20, one per regime
    ("generated", 17, 0): (
        1811,
        (15, 13, 12, 5, 14, 8, 1, 2, 11, 7, 6, 4, 9, 10, 3, 17, 16),
        2,
        ((1, "forward", 1, 3, -659),),
    ),
    ("dense", 17, 0): (
        1359,
        (15, 13, 12, 6, 5, 14, 8, 1, 10, 2, 11, 7, 4, 9, 3, 17, 16),
        2,
        ((1, "forward", 1, 3, -491),),
    ),
    ("sparse", 17, 0): (
        353,
        (6, 13, 15, 12, 10, 5, 3, 1, 14, 8, 17, 11, 2, 7, 4, 9, 16),
        2,
        ((1, "forward", 1, 3, -118),),
    ),
    ("generated", 18, 0): (
        803,
        (13, 6, 4, 7, 18, 15, 16, 11, 5, 9, 2, 1, 12, 17, 8, 10, 14, 3),
        2,
        ((1, "forward", 2, 3, -783),),
    ),
    ("dense", 18, 0): (
        559,
        (13, 6, 4, 7, 18, 1, 15, 16, 11, 9, 5, 10, 2, 8, 12, 17, 14, 3),
        2,
        ((1, "forward", 2, 3, -577),),
    ),
    ("sparse", 18, 0): (
        485,
        (13, 6, 4, 18, 7, 1, 15, 16, 11, 9, 5, 10, 2, 8, 12, 14, 17, 3),
        2,
        ((1, "forward", 2, 3, -408),),
    ),
    ("generated", 19, 0): (
        1876,
        (3, 15, 7, 8, 19, 2, 14, 17, 18, 9, 10, 1, 12, 11, 13, 4, 6, 16, 5),
        2,
        ((1, "forward", 2, 3, -700),),
    ),
    ("dense", 19, 0): (
        1591,
        (3, 15, 7, 8, 19, 14, 2, 1, 17, 18, 9, 12, 10, 11, 13, 4, 6, 16, 5),
        2,
        ((1, "forward", 2, 3, -641),),
    ),
    ("sparse", 19, 0): (
        1265,
        (3, 15, 7, 8, 19, 2, 14, 13, 18, 17, 1, 9, 12, 11, 4, 10, 6, 16, 5),
        2,
        ((1, "forward", 2, 3, -522),),
    ),
    ("generated", 20, 0): (
        1409,
        (16, 12, 20, 19, 14, 2, 3, 10, 5, 6, 13, 9, 1, 17, 4, 18, 7, 11, 15, 8),
        2,
        ((1, "forward", 1, 2, -1062),),
    ),
    ("dense", 20, 0): (
        876,
        (16, 12, 7, 19, 20, 2, 14, 3, 5, 10, 6, 4, 18, 13, 9, 17, 1, 11, 15, 8),
        2,
        ((1, "forward", 1, 2, -581),),
    ),
    ("sparse", 20, 0): (
        612,
        (16, 12, 7, 20, 19, 14, 2, 6, 3, 5, 10, 18, 4, 15, 13, 11, 9, 1, 17, 8),
        2,
        ((1, "forward", 1, 2, -373),),
    ),
    # the few instances whose accepted move is not (1, 2)
    ("generated", 9, 6): (152, (1, 9, 6, 8, 4, 2, 7, 5, 3), 2, ((1, "forward", 1, 4, -110),)),
    ("dense", 10, 2): (198, (6, 2, 9, 10, 4, 5, 1, 3, 7, 8), 2, ((1, "forward", 6, 7, -27),)),
    ("dense", 10, 10): (460, (4, 10, 3, 8, 2, 6, 9, 5, 7, 1), 2, ((1, "forward", 1, 5, -233),)),
    ("sparse", 10, 9): (195, (1, 7, 3, 8, 5, 9, 2, 6, 4, 10), 2, ((1, "forward", 5, 8, -102),)),
}

# Pipelines of one solve of bench_instance(SEED, 8, 0), counted by direction.
PIPELINES = {"forward": 1593, "backward": 337}

# The same for bench_instance(SEED, 16, 0), the benchmark's pinned instance:
# its golden row holds the one accepted move.
PINNED_PIPELINES = {"forward": 13219, "backward": 6123}

def golden_instance(regime: str, n: int, index: int) -> Instance:
    inst = bench_instance(SEED, n, index)
    if regime == "generated":
        return inst
    if regime == "dense":
        release = tuple(r * n // 12 for r in inst.release)
    else:
        total = sum(inst.processing)
        release = tuple(r * total // 200 for r in inst.release)
    return Instance(n=n, release=release, processing=inst.processing)


def outcome(inst: Instance) -> tuple:
    result = optimal_sort(inst)
    assert not result.safety_tripped
    return (result.best_objective, result.best_sequence.order, result.iterations, result.move_log)


def test_golden_reference(reference):
    assert outcome(reference) == (4, (1, 2, 3, 4, 5), 1, ())


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case)))
def test_golden_corpus(case):
    assert outcome(golden_instance(*case)) == GOLDEN[case]


def pipeline_counts(monkeypatch, case: tuple) -> dict[str, int]:
    """Solve a golden case, check its row, and count its pipelines by direction."""
    counts = {"forward": 0, "backward": 0}
    apply_move = minwait.driver.apply_move

    def counting(seq, i, k, direction):
        counts[direction] += 1
        return apply_move(seq, i, k, direction)

    monkeypatch.setattr(minwait.driver, "apply_move", counting)
    assert outcome(golden_instance(*case)) == GOLDEN[case]
    return counts


def test_golden_pipeline_counts(monkeypatch):
    assert pipeline_counts(monkeypatch, ("generated", 8, 0)) == PIPELINES


def test_golden_pinned_benchmark_instance(monkeypatch):
    assert pipeline_counts(monkeypatch, ("generated", 16, 0)) == PINNED_PIPELINES
    assert len(GOLDEN[("generated", 16, 0)][3]) == 1
