"""Problem instances, text I/O, random generation, and the initial order.

An instance is a set of n jobs on one machine. Job i (ids run 1..n) becomes
available at its release time r_i and needs p_i uninterrupted time units.
All times are exact integers; the whole library works in integer arithmetic
so that every identity it checks can be checked with ``==``.

Instance file format (UTF-8 text):
    - optional comment lines starting with '#'
    - first non-comment line: n
    - then exactly n lines "r_i p_i" (decimal integers, single space)
Canonical serialization emits no comments and LF line endings.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InstanceFormatError(ValueError):
    """Raised on malformed instance text; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Instance:
    """n jobs with integer release and processing times, ids 1..n."""

    n: int
    release: tuple[int, ...]
    processing: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one job, got n={self.n}")
        if len(self.release) != self.n or len(self.processing) != self.n:
            raise ValueError("release/processing length must equal n")
        for i, r in enumerate(self.release, start=1):
            if r < 0:
                raise ValueError(f"job {i}: release {r} < 0")
        for i, p in enumerate(self.processing, start=1):
            if p < 1:
                raise ValueError(f"job {i}: processing {p} < 1")

    def r(self, job: int) -> int:
        """Release time of job id (1-based)."""
        return self.release[job - 1]

    def p(self, job: int) -> int:
        """Processing time of job id (1-based)."""
        return self.processing[job - 1]


@dataclass(frozen=True)
class Sequence:
    """A processing order: position k (1-based) holds job ``order[k-1]``."""

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValueError(f"order {self.order} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.order)

    def job_at(self, position: int) -> int:
        """Job id at 1-based position."""
        return self.order[position - 1]


def parse_instance(text: str) -> Instance:
    """Parse instance text; job id i is the i-th job line.

    Raises InstanceFormatError naming the offending 1-based line number for:
    a missing or non-integer n, non-integer tokens, a wrong token count,
    too few or too many job lines, p_i < 1, or r_i < 0.
    """
    n: int | None = None
    release: list[int] = []
    processing: list[int] = []
    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise InstanceFormatError(line_no, f"expected job count, got {line!r}") from None
            if n < 1:
                raise InstanceFormatError(line_no, f"job count must be >= 1, got {n}")
            continue
        if len(release) == n:
            raise InstanceFormatError(line_no, f"more than {n} job lines")
        tokens = line.split()
        if len(tokens) != 2:
            raise InstanceFormatError(line_no, f"expected 'r p', got {line!r}")
        try:
            r, p = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise InstanceFormatError(line_no, f"non-integer token in {line!r}") from None
        if r < 0:
            raise InstanceFormatError(line_no, f"release {r} < 0")
        if p < 1:
            raise InstanceFormatError(line_no, f"processing {p} < 1")
        release.append(r)
        processing.append(p)
    if n is None:
        raise InstanceFormatError(last_line or 1, "missing job count")
    if len(release) != n:
        raise InstanceFormatError(last_line or 1, f"expected {n} job lines, got {len(release)}")
    return Instance(n=n, release=tuple(release), processing=tuple(processing))


def serialize_instance(inst: Instance) -> str:
    """Canonical text for an instance: n, then one 'r p' line per job, LF, no comments."""
    lines = [str(inst.n)]
    lines.extend(f"{r} {p}" for r, p in zip(inst.release, inst.processing))
    return "\n".join(lines) + "\n"


# splitmix64 constants; the generator below is pinned so that a fixed
# (n, seed) yields the same instance on any platform or implementation.
_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def derive_seed(*parts: int) -> int:
    """Fold integers into one 64-bit seed (for per-instance streams)."""
    state = 0
    for part in parts:
        state, out = _splitmix64((state ^ part) & _MASK)
        state = out
    _, out = _splitmix64(state)
    return out


def generate_instance(n: int, seed: int) -> Instance:
    """Random instance: r_i uniform on [0, 200], p_i uniform on [1, 50].

    Pinned generator: a splitmix64 stream starting from ``seed``; per job,
    one draw for r (``value % 201``) then one for p (``1 + value % 50``).
    """
    if n < 1:
        raise ValueError(f"need at least one job, got n={n}")
    state = seed & _MASK
    release: list[int] = []
    processing: list[int] = []
    for _ in range(n):
        state, out = _splitmix64(state)
        release.append(out % 201)
        state, out = _splitmix64(state)
        processing.append(1 + out % 50)
    return Instance(n=n, release=tuple(release), processing=tuple(processing))


def bench_instance(seed: int, n: int, index: int) -> Instance:
    """The index-th benchmark instance of size n for a report seed."""
    return generate_instance(n, derive_seed(seed, n, index))


def initial_sequence(inst: Instance) -> Sequence:
    """Jobs sorted by non-decreasing release, ties by processing then id."""
    order = sorted(range(1, inst.n + 1), key=lambda j: (inst.r(j), inst.p(j), j))
    return Sequence(order=tuple(order))
