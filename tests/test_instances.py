from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minwait import (
    Instance,
    InstanceFormatError,
    generate_instance,
    initial_sequence,
    parse_instance,
    serialize_instance,
)

from conftest import REFERENCE_TEXT


def test_parse_reference_text():
    inst = parse_instance(REFERENCE_TEXT)
    assert inst.n == 5
    assert inst.release == (0, 3, 7, 20, 24)
    assert inst.processing == (5, 3, 4, 5, 6)


def test_parse_single_job():
    inst = parse_instance("1\n0 7")
    assert (inst.n, inst.release, inst.processing) == (1, (0,), (7,))


def test_parse_skips_comments_and_blank_lines():
    text = "# jobs follow\n\n2\n# job 1\n0 5\n3 3\n"
    inst = parse_instance(text)
    assert inst.release == (0, 3)


def test_parse_accepts_crlf():
    inst = parse_instance("2\r\n0 5\r\n3 3\r\n")
    assert inst.release == (0, 3)
    assert serialize_instance(inst) == "2\n0 5\n3 3\n"


@pytest.mark.parametrize(
    "text, line_no, fragment",
    [
        ("x\n0 5", 1, "job count"),
        ("2\n0 5\n1", 3, "expected 'r p'"),
        ("2\n0 5\n1 2 3", 3, "expected 'r p'"),
        ("2\n0 5\na 3", 3, "non-integer"),
        ("2\n0 5", 2, "expected 2 job lines"),
        ("1\n0 5\n1 2", 3, "more than 1"),
        ("1\n0 0", 2, "processing 0 < 1"),
        ("1\n-1 5", 2, "release -1 < 0"),
        ("0\n", 1, "job count must be >= 1"),
    ],
)
def test_parse_errors_name_line(text, line_no, fragment):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert err.value.line_no == line_no
    assert fragment in str(err.value)


def test_round_trip_is_canonical():
    rng = random.Random(11)
    for _ in range(100):
        inst = generate_instance(rng.randint(1, 40), rng.getrandbits(64))
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text
    # comments and padding disappear in canonical form
    assert serialize_instance(parse_instance("# c\n1\n0  7\n")) == "1\n0 7\n"


@given(
    st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)), min_size=1, max_size=30)
)
@settings(max_examples=60, deadline=None)
def test_round_trip_any_integer_instance(jobs):
    inst = Instance(
        n=len(jobs),
        release=tuple(r for r, _ in jobs),
        processing=tuple(p for _, p in jobs),
    )
    assert parse_instance(serialize_instance(inst)) == inst


def test_generator_is_deterministic():
    a = generate_instance(10, 123456789)
    b = generate_instance(10, 123456789)
    assert a == b
    assert generate_instance(10, 123456790) != a


def test_generator_pinned_stream():
    # golden values freeze the splitmix64 stream; any drift in the mixer,
    # the draw order, or the range mapping breaks cross-run reproducibility
    inst = generate_instance(4, 42)
    assert inst.release == (55, 33, 124, 25)
    assert inst.processing == (42, 15, 13, 9)
    big_seed = generate_instance(3, 2**63)
    assert big_seed.release == (64, 142, 43)
    assert big_seed.processing == (31, 28, 36)


def test_generator_ranges():
    inst = generate_instance(10_000, 7)
    assert all(0 <= r <= 200 for r in inst.release)
    assert all(1 <= p <= 50 for p in inst.processing)


def test_generator_release_mean():
    # law of large numbers on the pinned stream: mean release over 1e5
    # draws sits within 2 of the exact mean 100
    total = 0
    draws = 0
    for chunk in range(10):
        inst = generate_instance(10_000, 1000 + chunk)
        total += sum(inst.release)
        draws += inst.n
    mean = total / draws
    assert abs(mean - 100.0) <= 2.0


def test_initial_sequence_reference(reference):
    assert initial_sequence(reference).order == (1, 2, 3, 4, 5)


def test_initial_sequence_tie_break_processing():
    inst = Instance(n=3, release=(5, 5, 5), processing=(3, 1, 2))
    assert initial_sequence(inst).order == (2, 3, 1)


def test_initial_sequence_reversed_releases():
    inst = Instance(n=4, release=(30, 20, 10, 0), processing=(1, 1, 1, 1))
    assert initial_sequence(inst).order == (4, 3, 2, 1)


def test_initial_sequence_release_monotone():
    rng = random.Random(5)
    for _ in range(50):
        inst = generate_instance(rng.randint(1, 30), rng.getrandbits(64))
        order = initial_sequence(inst).order
        releases = [inst.r(j) for j in order]
        assert releases == sorted(releases)


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(n=0, release=(), processing=())
    with pytest.raises(ValueError):
        Instance(n=1, release=(-1,), processing=(1,))
    with pytest.raises(ValueError):
        Instance(n=1, release=(0,), processing=(0,))
    with pytest.raises(ValueError):
        Instance(n=2, release=(0,), processing=(1, 1))
