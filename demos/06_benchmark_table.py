"""A small benchmark table: solver vs oracle across sizes.

Branch and bound proves the optimum of every row (it is the oracle up to
n=40). Zero gap on every row is the expected outcome; anything else would
be a counterexample worth mining (see `minwait mine`).
"""

from minwait.harness import run_benchmark


def main() -> None:
    report = run_benchmark(sizes=[8, 10, 12], count=10, seed=2024)
    print(report.to_text(), end="")
    print()
    print("rerun `minwait bench --sizes 8,10,12 --count 10 --seed 2024`")
    print("for the same gaps; rows are fully determined by the seed.")


if __name__ == "__main__":
    main()
