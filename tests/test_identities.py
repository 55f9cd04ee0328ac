"""Identities between solvers that answer related questions through
independent code, on planted instances of 20-40 jobs, far above the
oracles' cap of 8.

On a feasible instance with g = min_gaps(inst), the (min,+) key DP of
``min_gaps`` and the throughput DP share nothing but ``core``:

- every job fits within g gaps: max_throughput(inst, g) = n;
- not within g - 1: max_throughput(inst, g - 1) < n when g > 0;
- so min_gaps_for_throughput(inst, n) = g.

And for n >= 2, min_max_gap(inst) = max(1, ceil(min_max_gap_cont)), as
the ``min_max_gap`` docstring proves.

The hitting solvers check each other on random interval lists.  With
k = greedy_min_hitting(ivs).cardinality, the sweep of the greedy and the
column recurrence of the point-budget solvers agree:

- k points hit all n intervals: max_hit_budget(ivs, k) = n;
- k - 1 do not: max_hit_budget(ivs, k - 1) < n when k > 1;
- so min_hit_with_throughput(ivs, n) = k.

On the release-only side, the bisection of min_max_flow_cont(rs, b) = f
and the covering pass of min_points_flow_bound meet: radius f needs at
most b points, and f - 1 more than b when f > 0.  A fault that shifts both sides of
an identity alike can pass; these tests add to the oracle checks, they do
not replace them.
"""

import math
import random

import pytest

from gapsched.hitting import (
    Interval,
    greedy_min_hitting,
    max_hit_budget,
    min_hit_with_throughput,
    min_max_flow_cont,
    min_max_gap_cont,
    min_points_flow_bound,
)
from gapsched.min_gaps import min_gaps
from gapsched.min_max_gap import min_max_gap
from gapsched.throughput import max_throughput, min_gaps_for_throughput

from helpers import planted_normalized

# Horizon over n for the tight, mid and wide families.
FAMILIES = {"tight": 1.25, "mid": 2, "wide": 4}


def planted(seed: int):
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    family = list(FAMILIES)[seed % 3]
    return planted_normalized(rng, n, int(FAMILIES[family] * n) + 1, rng.randint(1, 6))


@pytest.mark.parametrize("seed", range(40))
def test_gap_count_matches_throughput(seed):
    inst = planted(seed)
    n = len(inst.jobs)
    g, _ = min_gaps(inst)
    assert max_throughput(inst, g)[0] == n
    if g > 0:
        assert max_throughput(inst, g - 1)[0] < n
    assert min_gaps_for_throughput(inst, n)[0] == g


@pytest.mark.parametrize("seed", range(40))
def test_separation_is_rounded_continuous_optimum(seed):
    inst = planted(seed)
    lam, _ = min_max_gap_cont([Interval(j.id, j.release, j.deadline) for j in inst.jobs])
    assert min_max_gap(inst)[0] == max(1, math.ceil(lam))


def random_intervals(seed: int) -> list[Interval]:
    """10-60 intervals of lengths 0 to a quarter of a horizon of 2n."""
    rng = random.Random(seed)
    n = rng.randint(10, 60)
    out = []
    for i in range(n):
        start = rng.randrange(2 * n)
        out.append(Interval(i, start, start + rng.randint(0, n // 2)))
    return out


@pytest.mark.parametrize("seed", range(40))
def test_hitting_budgets_match_greedy(seed):
    ivs = random_intervals(seed)
    n = len(ivs)
    k = greedy_min_hitting(ivs).cardinality
    assert min_hit_with_throughput(ivs, n)[0] == k
    assert max_hit_budget(ivs, k)[0] == n
    if k > 1:
        assert max_hit_budget(ivs, k - 1)[0] < n


@pytest.mark.parametrize("seed", range(40))
def test_flow_radius_is_least_covering(seed):
    rng = random.Random(seed)
    rs = [iv.start for iv in random_intervals(seed)]
    b = rng.randint(1, 8)
    f, _ = min_max_flow_cont(rs, b)
    assert min_points_flow_bound(rs, f).cardinality <= b
    if f > 0:
        assert min_points_flow_bound(rs, f - 1).cardinality > b
