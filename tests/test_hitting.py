"""Continuous interval-hitting solvers against endpoint-subset brute force."""

import heapq
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from gapsched.errors import GapSchedError, InfeasibleError
from gapsched.hitting import (
    HittingSet,
    Interval,
    SeparationGreedy,
    _by_deadline,
    _delta_table,
    greedy_min_hitting,
    max_hit_budget,
    min_hit_with_throughput,
    min_max_flow_cont,
    min_max_gap_cont,
    min_points_flow_bound,
    viable,
)

from helpers import distinct_points, max_gap, planted_normalized


def ivs(pairs, weights=None):
    ws = weights or [1] * len(pairs)
    return [Interval(i, a, b, w) for i, ((a, b), w) in enumerate(zip(pairs, ws))]


def random_intervals(rng, n, span):
    out = []
    for i in range(n):
        a = rng.randrange(span)
        b = rng.randrange(a, span)
        out.append((a, b))
    return ivs(out)


def random_shared_intervals(rng, n):
    """n intervals over a few coordinates: endpoints repeat, some
    intervals are points and some are copies of another."""
    span = rng.choice([3, 5, 8, 12])
    out = []
    for _ in range(n):
        if out and rng.random() < 0.2:
            out.append(rng.choice(out))
            continue
        a = rng.randrange(span)
        out.append((a, a) if rng.random() < 0.25 else (a, rng.randrange(a, span)))
    return ivs(out)


def brute_min_hitting_size(intervals):
    """Smallest number of endpoints hitting everything (endpoints suffice)."""
    points = sorted({iv.start for iv in intervals} | {iv.end for iv in intervals})
    for k in range(0, len(points) + 1):
        for combo in itertools.combinations(points, k):
            if all(any(iv.start <= p <= iv.end for p in combo) for iv in intervals):
                return k
    return None


def brute_max_hit(intervals, budget, weighted=False):
    """Best weight of intervals stabbed by <= budget deadlines."""
    ends = sorted({iv.end for iv in intervals})
    best = 0
    for k in range(0, min(budget, len(ends)) + 1):
        for combo in itertools.combinations(ends, k):
            got = sum((iv.weight if weighted else 1) for iv in intervals
                      if any(iv.start <= p <= iv.end for p in combo))
            best = max(best, got)
    return best


class TestDistinctIds:
    """Representatives are keyed by id, so a repeated id would let a
    witness lose an interval its value counts; every id-keyed solver
    refuses it."""

    @pytest.mark.parametrize("solve", [
        greedy_min_hitting,
        lambda x: max_hit_budget(x, 2),
        lambda x: min_hit_with_throughput(x, 1),
        lambda x: viable(x, 1),
        lambda x: viable(x, -1),
        min_max_gap_cont,
    ], ids=["greedy", "budget", "throughput", "viable", "viable-negative", "min_max_gap"])
    def test_repeated_id_refused(self, solve):
        with pytest.raises(GapSchedError, match="distinct"):
            solve([Interval(0, 0, 0), Interval(0, 5, 5)])


class TestIntervalFields:
    @pytest.mark.parametrize("start, end", [(0.5, 1.5), (0, 2.5), (Fraction(1, 2), 1)])
    def test_fractional_endpoints_rejected(self, start, end):
        # min_max_gap_cont([Interval(0, 0.5, 1.5), Interval(1, 3, 3)]) used
        # to report its bound as not viable; the optimum there is 3/2.
        with pytest.raises(ValueError, match="not an integer"):
            Interval(0, start, end)

    @pytest.mark.parametrize("weight", [-4, 0.5])
    def test_bad_weights_rejected(self, weight):
        # With weight -4 on the third interval, min_hit_with_throughput(...,
        # 1, weighted=True) reported "requirement 1 exceeds total -2" though
        # one point at 1 hits weight 1.
        with pytest.raises(ValueError, match="weight"):
            ivs([(0, 1), (3, 3), (3, 5)], [1, 1, weight])

    def test_integral_types_accepted(self):
        lam, _ = min_max_gap_cont([Interval(0, np.int64(0), np.int64(1)),
                                   Interval(1, 3, 3)])
        assert lam == 2


class TestGreedyMinHitting:
    def test_example(self):
        hs = greedy_min_hitting(ivs([(0, 2), (1, 3), (5, 6)]))
        assert distinct_points(hs) == [2, 6]
        assert hs.cardinality == 2
        # A one-pass iterable is read once, not exhausted before the sweep.
        assert greedy_min_hitting(iter(ivs([(0, 2), (1, 3), (5, 6)]))) == hs

    def test_single_interval(self):
        hs = greedy_min_hitting(ivs([(0, 5)]))
        assert distinct_points(hs) == [5]

    def test_nested_family(self):
        hs = greedy_min_hitting(ivs([(0, 9), (2, 7), (4, 5)]))
        assert hs.cardinality == 1

    def test_matches_exhaustive_minimum(self):
        rng = random.Random(9)
        for _ in range(60):
            intervals = random_intervals(rng, rng.randint(1, 7), 12)
            hs = greedy_min_hitting(intervals)
            assert len(hs.representatives) == len(intervals)
            for iv in intervals:
                assert iv.start <= hs.representatives[iv.id] <= iv.end
            assert hs.cardinality == brute_min_hitting_size(intervals)


def delta_table(intervals):
    """Unit-weight newly-hit counts over the deadline-sorted intervals."""
    return _delta_table(_by_deadline(intervals), [1] * len(intervals))


class TestDeltaTable:
    def test_disjoint_pair(self):
        d = delta_table(ivs([(0, 1), (3, 4)]))
        assert d == [[1, 1], [0, 1], [0, 0]]

    def test_diagonal_zero(self):
        d = delta_table(ivs([(0, 3), (1, 4), (2, 5)]))
        assert all(d[a + 1][a] == 0 for a in range(3))

    def test_matches_triple_loop(self):
        # Row 0 has no earlier point: it counts every interval d_b hits.
        rng = random.Random(17)
        for _ in range(40):
            intervals = random_intervals(rng, 6, 10)
            order = sorted(intervals, key=lambda iv: (iv.end, iv.start, iv.id))
            d = delta_table(intervals)
            assert len(d) == 7
            for a in range(7):
                low = order[a - 1].end if a else float("-inf")
                for b in range(6):
                    expect = sum(
                        1 for iv in order
                        if low < iv.start <= order[b].end <= iv.end)
                    assert d[a][b] == expect


class TestMaxHitBudget:
    def test_shared_point(self):
        value, hs = max_hit_budget(ivs([(0, 1), (0, 1), (3, 4)]), 1)
        assert value == 2
        assert hs.cardinality <= 1

    def test_budget_n_hits_all(self):
        rng = random.Random(21)
        for _ in range(20):
            intervals = random_intervals(rng, rng.randint(1, 6), 9)
            value, _ = max_hit_budget(intervals, len(intervals))
            assert value == len(intervals)

    def test_budget_zero_rejected(self):
        with pytest.raises(GapSchedError):
            max_hit_budget(ivs([(0, 1)]), 0)

    def test_fractional_budget_rejected(self):
        # 2.0 used to fail as "can't multiply sequence by non-int".
        intervals = ivs([(0, 1), (3, 4), (6, 7)])
        for budget in (2.0, 1.5):
            with pytest.raises(GapSchedError, match="not an integer"):
                max_hit_budget(intervals, budget)
        assert max_hit_budget(intervals, np.int64(2))[0] == 2

    def test_matches_brute_force(self):
        rng = random.Random(33)
        for _ in range(40):
            intervals = random_intervals(rng, 6, 9)
            for budget in (1, 2, 3):
                value, hs = max_hit_budget(intervals, budget)
                assert value == brute_max_hit(intervals, budget)
                assert len(hs.representatives) == value
                assert hs.cardinality <= budget
                for iid, p in hs.representatives.items():
                    iv = next(i for i in intervals if i.id == iid)
                    assert iv.start <= p <= iv.end

    def test_weighted_matches_brute_force(self):
        rng = random.Random(34)
        for _ in range(30):
            pairs = [(iv.start, iv.end) for iv in random_intervals(rng, 5, 8)]
            weights = [rng.randint(0, 5) for _ in pairs]
            intervals = ivs(pairs, weights)
            for budget in (1, 2):
                value, _ = max_hit_budget(intervals, budget, weighted=True)
                assert value == brute_max_hit(intervals, budget, weighted=True)

    def test_monotone_in_budget(self):
        rng = random.Random(35)
        for _ in range(20):
            intervals = random_intervals(rng, 6, 9)
            vals = [max_hit_budget(intervals, g)[0] for g in range(1, 7)]
            assert vals == sorted(vals)
            assert vals[-1] == 6


class TestMinHitWithThroughput:
    def test_zero_requirement(self):
        g, hs = min_hit_with_throughput(ivs([(0, 1)]), 0)
        assert g == 0 and hs.representatives == {}

    def test_three_tight_points(self):
        g, _ = min_hit_with_throughput(ivs([(0, 0), (2, 2), (4, 4)]), 2)
        assert g == 2

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            min_hit_with_throughput(ivs([(0, 1)]), 2)

    @pytest.mark.parametrize("m", ["2", None, 1.5, 2.0])
    def test_non_integer_requirement_refused(self, m):
        # "2" and None raised a bare TypeError; 1.5 was answered as 2.
        intervals = ivs([(0, 0), (2, 2), (4, 4)])
        with pytest.raises(GapSchedError, match="not an integer"):
            min_hit_with_throughput(intervals, m)
        assert min_hit_with_throughput(intervals, np.int64(2)) == \
            min_hit_with_throughput(intervals, 2)

    def test_inverse_of_max_hit(self):
        rng = random.Random(55)
        for _ in range(30):
            intervals = random_intervals(rng, 6, 10)
            m = rng.randint(1, 6)
            g, hs = min_hit_with_throughput(intervals, m)
            assert max_hit_budget(intervals, g)[0] >= m
            if g > 1:
                assert max_hit_budget(intervals, g - 1)[0] < m
            assert len(hs.representatives) >= m


class TestMinHitEarlyStop:
    def test_matches_max_hit_budget(self):
        # Stopping at the first column that reaches m gives the fewest
        # points, and the witness max_hit_budget gives at that budget.
        rng = random.Random(57)
        for trial in range(150):
            n = rng.randint(1, 12)
            intervals = (random_shared_intervals(rng, n) if trial % 2
                         else random_intervals(rng, n, 3 * n))
            for m in range(1, n + 1):
                g, hs = min_hit_with_throughput(intervals, m)
                value, witness = max_hit_budget(intervals, g)
                assert hs == witness and value >= m
                assert g == 1 or max_hit_budget(intervals, g - 1)[0] < m


def reference_hit_dp(intervals, weighted):
    """The point-budget DP with a stored choice per cell, its newly hit
    weights counted straight from the definition.  A cell stays at b
    unless a split is strictly better, and then takes the first best a.
    Returns (value, witness) for every budget 1..n."""
    order = _by_deadline(intervals)
    n = len(order)
    ends = [iv.end for iv in order]
    lows = [float("-inf")] + ends
    gain = [[sum(iv.weight if weighted else 1 for iv in order
                 if low < iv.start <= ends[b] <= iv.end)
             for b in range(n)] for low in lows]
    best = [[None, gain[0][b]] for b in range(n)]
    prev = [[None, None] for _ in range(n)]
    for g in range(2, n + 1):
        for b in range(n):
            value, arg = best[b][g - 1], b
            for a in range(b):
                if best[a][g - 1] + gain[a + 1][b] > value:
                    value, arg = best[a][g - 1] + gain[a + 1][b], a
            best[b].append(value)
            prev[b].append(arg)
    answers = []
    for g in range(1, n + 1):
        value = max(best[b][g] for b in range(n))
        b = next(b for b in range(n) if best[b][g] == value)
        points = []
        for h in range(g, 1, -1):
            if prev[b][h] != b:
                points.append(b)
                b = prev[b][h]
        points.append(b)
        reps = {}
        for b in reversed(points):
            for iv in order:
                if iv.id not in reps and iv.start <= ends[b] <= iv.end:
                    reps[iv.id] = Fraction(ends[b])
        answers.append((value, HittingSet(reps)))
    return answers


class TestHitReference:
    def test_matches_stored_choices(self):
        # Tied splits are common with shared endpoints and zero weights;
        # the witness must take the same one the stored choices take.
        rng = random.Random(59)
        for trial in range(200):
            n = rng.randint(1, 10)
            base = (random_shared_intervals(rng, n) if trial % 2
                    else random_intervals(rng, n, 3 * n))
            weights = [0 if trial % 5 == 0 else rng.randint(0, 4) for _ in base]
            intervals = ivs([(iv.start, iv.end) for iv in base], weights)
            for weighted in (False, True):
                answers = reference_hit_dp(intervals, weighted)
                for budget in range(1, n + 2):
                    assert max_hit_budget(intervals, budget, weighted) == \
                        answers[min(budget, n) - 1], (intervals, budget)
                total = sum(weights) if weighted else n
                for m in range(1, total + 1):
                    g = next(g for g, (v, _) in enumerate(answers, 1) if v >= m)
                    assert min_hit_with_throughput(intervals, m, weighted) == \
                        (g, answers[g - 1][1]), (intervals, m)


def viable_reference(intervals, lam):
    """The separation greedy in Fraction arithmetic throughout, with a heap
    of (end, index) pairs: the reference for ``viable``'s scaled-integer
    probe."""
    order = _by_deadline(intervals)
    n = len(order)
    if n == 0:
        return True, HittingSet({})
    lam = Fraction(lam)
    if lam < 0:
        return (True, HittingSet({order[0].id: Fraction(order[0].end)})) \
            if n == 1 else (False, None)
    reps = {order[0].id: Fraction(order[0].end)}
    max_h = Fraction(order[0].end)
    by_release = sorted(range(1, n), key=lambda i: order[i].start)
    heap = []
    ptr = 0
    for _ in range(n - 1):
        z = max_h + lam
        while ptr < len(by_release) and order[by_release[ptr]].start <= z:
            i = by_release[ptr]
            heapq.heappush(heap, (order[i].end, i))
            ptr += 1
        if not heap:
            return False, None
        _, i = heapq.heappop(heap)
        iv = order[i]
        h = Fraction(iv.end) if iv.end <= z else z
        reps[iv.id] = h
        max_h = max(max_h, h)
    return True, HittingSet(reps)


class TestViable:
    def test_two_tight_points(self):
        assert viable(ivs([(0, 0), (2, 2)]), 2)[0]
        assert not viable(ivs([(0, 0), (2, 2)]), 1)[0]

    def test_shared_point_zero(self):
        ok, hs = viable(ivs([(0, 5), (1, 6), (2, 7)]), 0)
        assert ok
        assert max_gap(hs) == 0

    def test_witness_respects_bound(self):
        rng = random.Random(77)
        for _ in range(100):
            intervals = random_intervals(rng, rng.randint(1, 7), 10)
            lam = Fraction(rng.randint(0, 20), rng.randint(1, 5))
            ok, hs = viable(intervals, lam)
            if ok:
                assert max_gap(hs) <= lam
                for iv in intervals:
                    assert iv.start <= hs.representatives[iv.id] <= iv.end

    def test_matches_fraction_reference(self):
        rng = random.Random(79)
        for trial in range(400):
            n = 1 if trial % 10 == 0 else rng.randint(2, 10)
            low = rng.randint(-40, 5)
            if trial % 3:
                pairs = [(iv.start + low, iv.end + low)
                         for iv in random_intervals(rng, n, rng.choice([4, 10, 30]))]
                intervals = ivs(pairs)
            else:
                intervals = random_shared_intervals(rng, n)
            lams = [Fraction(rng.randint(-5, 40), rng.randint(1, 7)),
                    Fraction(rng.randint(1, 10 ** 15), rng.randint(10 ** 13, 10 ** 14)),
                    Fraction(rng.randint(0, 30)),
                    rng.uniform(0, 12), -rng.uniform(0, 3), -1, 0]
            for lam in lams:
                assert viable(intervals, lam) == viable_reference(intervals, lam), \
                    (intervals, lam)

    def test_monotone_in_lambda(self):
        rng = random.Random(78)
        for _ in range(40):
            intervals = random_intervals(rng, 6, 10)
            grid = sorted({Fraction(a, b) for a in range(0, 12) for b in (1, 2, 3)})
            results = [viable(intervals, lam)[0] for lam in grid]
            # once true, stays true
            assert results == sorted(results)


def brute_min_max_gap(intervals):
    """Exhaustive minimum over representative placements on the candidate
    grid of endpoint-generated positions (endpoints and (r-d)/k points)."""
    n = len(intervals)
    cands = {Fraction(iv.start) for iv in intervals}
    cands |= {Fraction(iv.end) for iv in intervals}
    for a in intervals:
        for b in intervals:
            if a.start > b.end:
                for k in range(1, n):
                    lam = Fraction(a.start - b.end, k)
                    for base in [Fraction(iv.end) for iv in intervals]:
                        for m in range(-n, n + 1):
                            cands.add(base + m * lam)
    best = None
    grids = []
    for iv in intervals:
        grids.append(sorted(c for c in cands if iv.start <= c <= iv.end))
    for combo in itertools.product(*grids):
        pts = sorted(combo)
        gap = max((b - a for a, b in zip(pts, pts[1:])), default=Fraction(0))
        if best is None or gap < best:
            best = gap
    return best


def _candidate_gap_values(intervals) -> list[Fraction]:
    """All values (r_i - d_j)/k with positive numerator, k in 1..n-1."""
    n = len(intervals)
    diffs = sorted({iv2.start - iv1.end
                    for iv1 in intervals for iv2 in intervals
                    if iv2.start > iv1.end})
    return sorted({Fraction(u, k) for u in diffs for k in range(1, n)})


def min_max_gap_cont_reference(intervals):
    """Minimize the maximum gap by binary search over the explicit
    candidate list, zero included.  Cubic-size candidate set; the
    reference for the bisection and lattice snap in min_max_gap_cont; it
    probes the Fraction greedy, not the integer one."""
    cands = [Fraction(0)] + _candidate_gap_values(intervals)
    lo, hi = 0, len(cands) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if viable_reference(intervals, cands[mid])[0]:
            hi = mid
        else:
            lo = mid + 1
    ok, witness = viable_reference(intervals, cands[lo])
    assert ok
    return cands[lo], witness


class TestMinMaxGapCont:
    def test_two_tight_ends_spread(self):
        # n-2 full-range intervals between two tight ends spread evenly
        for n, span in [(3, 10), (5, 12), (4, 9)]:
            intervals = ivs([(0, 0), (span, span)] + [(0, span)] * (n - 2))
            lam, hs = min_max_gap_cont(intervals)
            assert lam == Fraction(span, n - 1)
            assert max_gap(hs) == lam

    def test_common_point_gives_zero(self):
        # Every point sits at the earliest deadline.
        lam, hs = min_max_gap_cont(ivs([(0, 9), (3, 5), (1, 7)]))
        assert lam == 0
        assert hs.representatives == {0: 5, 1: 5, 2: 5}

    def test_single_interval(self):
        lam, hs = min_max_gap_cont(ivs([(2, 8)]))
        assert lam == 0
        assert hs.representatives == {0: 8}

    def test_matches_reference_path(self):
        rng = random.Random(91)
        for trial in range(300):
            if trial % 2:
                intervals = random_shared_intervals(rng, rng.randint(1, 9))
            else:
                intervals = random_intervals(rng, rng.randint(1, 9), 12)
            lam_fast, hs_fast = min_max_gap_cont(intervals)
            lam_ref, hs_ref = min_max_gap_cont_reference(intervals)
            assert lam_fast == lam_ref
            assert hs_fast == hs_ref
            assert max_gap(hs_fast) <= lam_fast

    def test_probes_bounded_by_bisection_depth(self, monkeypatch):
        # One zero probe, one halving per bit of H * (n-1)^2, one witness.
        jobs = planted_normalized(random.Random(94), 2000, 2600, 6).jobs
        intervals = [Interval(j.id, j.release, j.deadline) for j in jobs]
        span = max(j.release for j in jobs) - min(j.deadline for j in jobs)
        probes = []
        real = SeparationGreedy.probe

        def spy(self, p, q):
            probes.append(Fraction(p, q))
            return real(self, p, q)

        monkeypatch.setattr(SeparationGreedy, "probe", spy)
        lam, hs = min_max_gap_cont(intervals)
        assert 0 < lam and max_gap(hs) <= lam
        assert probes[-1] == lam
        assert len(probes) <= 2 + (span * 1999 ** 2 - 1).bit_length()

    def test_matches_brute_force_grid(self):
        rng = random.Random(92)
        for _ in range(25):
            intervals = random_intervals(rng, rng.randint(2, 4), 7)
            lam, _ = min_max_gap_cont(intervals)
            assert lam == brute_min_max_gap(intervals)

    def test_optimum_in_candidate_set(self):
        rng = random.Random(93)
        for _ in range(60):
            intervals = random_intervals(rng, rng.randint(2, 6), 10)
            lam, _ = min_max_gap_cont(intervals)
            n = len(intervals)
            cands = {Fraction(0)}
            for a in intervals:
                for b in intervals:
                    if a.start > b.end:
                        cands |= {Fraction(a.start - b.end, k)
                                  for k in range(1, n)}
            assert lam in cands


def brute_min_points_cover(releases, bound):
    """Smallest point set covering each release within [r, r+bound]."""
    cands = sorted({r + o for r in releases for o in range(bound + 1)})
    for k in range(0, len(releases) + 1):
        for combo in itertools.combinations(cands, k):
            if all(any(r <= p <= r + bound for p in combo) for r in releases):
                return k
    return None


class TestFlowCoverage:
    def test_example(self):
        hs = min_points_flow_bound([0, 1, 5], 1)
        assert distinct_points(hs) == [1, 6]

    def test_single_release(self):
        assert min_points_flow_bound([4], 3).cardinality == 1

    def test_bound_covers_span(self):
        assert min_points_flow_bound([2, 4, 7], 5).cardinality == 1

    def test_negative_bound_rejected(self):
        with pytest.raises(GapSchedError):
            min_points_flow_bound([0], -1)

    @pytest.mark.parametrize("bound", [0.1, 1.0, float("inf")])
    def test_non_rational_bound_rejected(self, bound):
        # 3 + 0.1 rounds up, and its Fraction lies past 3 + Fraction(0.1).
        with pytest.raises(GapSchedError, match="not rational"):
            min_points_flow_bound([3], bound)

    def test_fraction_bound_is_exact(self):
        bound = Fraction(0.1)
        assert min_points_flow_bound([3], bound).representatives == {0: 3 + bound}

    def test_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(50):
            releases = sorted(rng.randrange(12) for _ in range(rng.randint(1, 6)))
            bound = rng.randint(0, 6)
            hs = min_points_flow_bound(releases, bound)
            assert hs.cardinality == brute_min_points_cover(releases, bound)
            for i, r in enumerate(sorted(releases)):
                assert r <= hs.representatives[i] <= r + bound


class TestMinMaxFlowCont:
    def test_two_points_two_centers(self):
        f, _ = min_max_flow_cont([0, 5], 2)
        assert f == 0

    def test_two_points_one_center(self):
        f, hs = min_max_flow_cont([0, 5], 1)
        assert f == 5
        assert hs.cardinality == 1

    def test_budget_zero_rejected(self):
        with pytest.raises(GapSchedError):
            min_max_flow_cont([0, 1], 0)

    def test_fractional_budget_rejected(self):
        # 1.5 used to be answered as if it were 1.
        for budget in (1.5, 2.0):
            with pytest.raises(GapSchedError, match="not an integer"):
                min_max_flow_cont([0, 3, 5], budget)
        assert min_max_flow_cont([0, 3, 5], np.int64(2))[0] == 2

    def test_fractional_release_rejected(self):
        # With two points the optimum for [0, 0.5, 3] is 0.5; 1 was answered.
        for solve in (lambda rs: min_max_flow_cont(rs, 2),
                      lambda rs: min_points_flow_bound(rs, 1)):
            with pytest.raises(GapSchedError, match="0.5 is not an integer"):
                solve([0, 0.5, 3])
        assert min_max_flow_cont([0, np.int64(1), 3], 2)[0] == 1

    def test_unsorted_releases_keyed_by_rank(self):
        # Key i is the i-th smallest release, not the i-th input.
        f, hs = min_max_flow_cont([9, 0, 5], 2)
        assert f == 4
        assert hs.representatives == {0: 4, 1: 9, 2: 9}
        assert min_points_flow_bound([9, 0, 5], 4) == hs

    def test_matches_exhaustive_subset_search(self):
        rng = random.Random(111)
        for _ in range(40):
            releases = sorted(rng.randrange(20) for _ in range(8))
            budget = rng.randint(1, 4)
            f, hs = min_max_flow_cont(releases, budget)
            # brute force: centers are release positions
            best = None
            uniq = sorted(set(releases))
            for k in range(1, budget + 1):
                for combo in itertools.combinations(uniq, k):
                    radius = max(
                        min((c - r for c in combo if c >= r), default=10**9)
                        for r in releases)
                    best = radius if best is None else min(best, radius)
            assert f == best
            assert hs.cardinality <= budget
