"""The two block rules that rework a relocation's side effects.

Adjacent exchange bubbles long jobs backward inside a block that received
an increasing flow; bottleneck breakthrough pulls a waiting job in front
of a position that caps an incoming decreasing flow. Both accept a change
only when the block's realized cost (entry shifted by the flow) strictly
drops, so every decision is an exact integer comparison. A rule sees only
the block: its jobs, its entry time and the flow it receives.
"""

from minwait import (
    Instance,
    adjacent_exchange,
    bottleneck_breakthrough,
    certify_global,
    segment_cost,
    segment_profile,
)


def main() -> None:
    print("adjacent exchange")
    inst = Instance(n=3, release=(0, 1, 2), processing=(2, 5, 3))
    block = (1, 2, 3)
    out, change = adjacent_exchange(inst, block, 0, 0)
    print(f"  {block} -> {out}, cost change {change:+d}")
    spt = tuple(sorted(range(1, 4), key=inst.p))
    certified = certify_global(0, segment_profile(inst, spt, 0))
    print(f"  certificate says the exchanged order is globally optimal: {certified}")
    print()

    print("bottleneck breakthrough")
    # a flow of 50 reaches this block, but the tiny wait at position 2
    # (w=1) caps what can be transmitted; the waiting job behind it is
    # pulled in front to restore the cascade
    inst = Instance(n=3, release=(20, 104, 60), processing=(5, 30, 3))
    block = (1, 2, 3)
    entry, flow = 100, 50
    print("  baseline waits at entry", entry, ":", segment_profile(inst, block, entry).waits)
    out, change = bottleneck_breakthrough(inst, block, entry, flow)
    print(f"  {block} -> {out}, realized cost change {change:+d}")
    before = segment_cost(inst, block, entry - flow)
    after = segment_cost(inst, out, entry - flow)
    print(f"  cost at the flow-shifted entry: {before} -> {after}")


if __name__ == "__main__":
    main()
