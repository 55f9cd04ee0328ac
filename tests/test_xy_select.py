"""Selection in implicit pairwise-sum multisets, against a sort-all oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from gapsched.errors import GapSchedError
from gapsched.xy_select import _count_at_most, select_kth


def all_sums(xs, ys):
    return sorted(x + y for x in xs for y in ys)


def test_tiny_example():
    assert select_kth([0, 1], [0, 1], 2) == 1


def test_extremes():
    xs, ys = [3, 5, 9], [-2, 0, 4]
    assert select_kth(xs, ys, 1) == xs[0] + ys[0]
    assert select_kth(xs, ys, 9) == xs[-1] + ys[-1]


def test_out_of_range():
    with pytest.raises(GapSchedError):
        select_kth([1], [1], 0)
    with pytest.raises(GapSchedError):
        select_kth([1], [1], 2)


def test_rank_example():
    assert _count_at_most([0, 1], [0, 1], 1) == 3
    assert _count_at_most([0, 1], [0, 1], 0) == 1
    assert _count_at_most([0, 1], [0, 1], -5) == 0


def test_matches_sorted_pairwise_oracle_random():
    rng = random.Random(42)
    for _ in range(30):
        xs = sorted(rng.randint(-50, 50) for _ in range(rng.randint(1, 12)))
        ys = sorted(rng.randint(-50, 50) for _ in range(rng.randint(1, 12)))
        ref = all_sums(xs, ys)
        for k in range(1, len(ref) + 1):
            assert select_kth(xs, ys, k) == ref[k - 1]


@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=15),
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=15),
    st.data(),
)
def test_select_rank_duality(xs, ys, data):
    xs, ys = sorted(xs), sorted(ys)
    k = data.draw(st.integers(1, len(xs) * len(ys)))
    v = select_kth(xs, ys, k)
    # v is the least value whose at-most count reaches k; on integers,
    # count(< v) is count(<= v - 1).
    assert _count_at_most(xs, ys, v) >= k > _count_at_most(xs, ys, v - 1)


@given(
    st.lists(st.integers(-100, 100), min_size=1, max_size=10),
    st.lists(st.integers(-100, 100), min_size=1, max_size=10),
    st.integers(-250, 250),
)
def test_rank_matches_enumeration(xs, ys, v):
    xs, ys = sorted(xs), sorted(ys)
    sums = all_sums(xs, ys)
    assert _count_at_most(xs, ys, v) == sum(1 for s in sums if s <= v)
    assert _count_at_most(xs, ys, v - 1) == sum(1 for s in sums if s < v)
