"""Waiting profiles: signed waits, queue leaders, and machine idle.

Five jobs, two contiguous queues. Job 4 arrives so late that the machine
goes idle for 8 units; that idle shows up as its negative wait, and the
objective only counts the positive part.
"""

from minwait import Sequence, compute_profile, parse_instance

INSTANCE = """\
5
0 5
3 3
7 4
20 5
24 6
"""


def main() -> None:
    inst = parse_instance(INSTANCE)
    seq = Sequence(order=(1, 2, 3, 4, 5))
    profile = compute_profile(inst, seq)

    print("order:", seq.order)
    print(f"{'pos':>3} {'job':>3} {'r':>4} {'p':>3} {'wait':>5} {'start':>6} {'done':>5} leader")
    for pos in range(1, inst.n + 1):
        job = seq.job_at(pos)
        print(
            f"{pos:>3} {job:>3} {inst.r(job):>4} {inst.p(job):>3}"
            f" {profile.wait_at(pos):>5} {profile.starts[pos - 1]:>6}"
            f" {profile.completions[pos - 1]:>5} {'*' if profile.leader[pos - 1] else ''}"
        )
    print()
    print("idle before each position:", [-min(0, w) for w in profile.waits])
    print("total waiting:", profile.objective)
    print("makespan:", profile.completions[-1])

    swapped = Sequence(order=(1, 2, 3, 5, 4))
    worse = compute_profile(inst, swapped)
    print()
    print("swap the last two jobs:", swapped.order)
    print("waits become", worse.waits, "and the objective jumps to", worse.objective)


if __name__ == "__main__":
    main()
