"""Throughput under a gap budget, and gap minimization under a floor."""

import bisect
import gc
import random
import tracemalloc
import weakref

import numpy as np
import pytest

import gapsched.core
from gapsched import throughput
from gapsched.core import Constraints, Instance, Job, gap_stats, validate
from gapsched.errors import GapSchedError, InfeasibleError
from gapsched.oracle import (oracle_max_throughput, oracle_min_gaps_throughput,
                             oracle_solve)
from gapsched.throughput import (
    edf_max_throughput,
    max_throughput,
    min_gaps_for_throughput,
)

from helpers import (
    job,
    make_instance,
    planted_normalized,
    random_feasible_normalized,
    random_raw_windows,
    random_windows,
)
from gapsched.core import normalize_distinct


def normalized(windows, weights=None):
    jobs = []
    for i, (r, d) in enumerate(windows):
        w = 1 if weights is None else weights[i]
        jobs.append(Job(i, r, d, w))
    res = normalize_distinct(Instance(tuple(jobs)))
    return res.instance


def random_normalized(rng, n, horizon, weights=False):
    windows = random_windows(rng, n, horizon)
    ws = [rng.randint(0, 4) for _ in windows] if weights else None
    return normalized(windows, ws)


def tight_chain(k, weight=1):
    """k one-slot windows two slots apart: m of them need m - 1 gaps."""
    return Instance(tuple(Job(i, 2 * i, 2 * i, weight) for i in range(k)))


def naive_canon(jobs, k, u, v):
    """The canonical window of (k, u, v) over deadline-sorted ``jobs`` by
    rescanning them, in the form ``_Windows._canon`` gives: k' = -1 for an
    empty window, 0 for one holding none of the first k jobs (u' and v'
    then unused)."""
    if u > v:
        return -1, None, None
    releases = sorted(j.release for j in jobs)
    if u not in releases:
        i = bisect.bisect_left(releases, u)
        if i == len(releases) or releases[i] > v:
            return 0, None, None
        u = releases[i] - 1
    while k > 0 and not (u <= jobs[k - 1].release <= v):
        k -= 1
    if k == 0:
        return 0, None, None
    dmax = max(jobs[i].deadline for i in range(k) if u <= jobs[i].release <= v)
    if dmax + 1 < u:  # every job inside is released after its deadline
        return 0, None, None
    return k, u, min(v, dmax + 1)


def reference_dp(inst, weighted, budget):
    """The windowed DP as memoised recursion over ``naive_canon``, with its
    ties spelled out: skip, then the first slot, then the first h.  Returns
    the top values and a witness for every feasible counted budget."""
    jobs = inst.by_deadline()
    n = len(jobs)
    releases = sorted(j.release for j in jobs)
    slots = sorted({r + s for r in releases for s in range(-n - 1, n + 2)})
    base = {-1: (0,) * (budget + 1), 0: (-1,) + (0,) * budget}
    memo = {}

    def table(k, u, v):
        key = naive_canon(jobs, k, u, v)
        if key[0] <= 0:
            return base[key[0]]
        if key not in memo:
            k, u, v = key
            job = jobs[k - 1]
            w = job.weight if weighted else 1
            best = list(table(k - 1, u, v))
            arg = [None] * (budget + 1)
            for t in slots:
                if not job.release <= t <= min(job.deadline, v):
                    continue
                left, right = table(k - 1, u, t - 1), table(k - 1, t + 1, v)
                for g in range(budget + 1):
                    for h in range(g + 1):
                        if min(left[h], right[g - h]) >= 0 and \
                                left[h] + w + right[g - h] > best[g]:
                            best[g] = left[h] + w + right[g - h]
                            arg[g] = (t, h)
            memo[key] = tuple(best), arg
        return memo[key][0]

    def witness(k, u, v, g, out):
        key = naive_canon(jobs, k, u, v)
        if key[0] <= 0:
            return out
        k, u, v = key
        step = memo[key][1][g]
        if step is None:
            return witness(k - 1, u, v, g, out)
        t, h = step
        out[jobs[k - 1].id] = t
        witness(k - 1, u, t - 1, h, out)
        return witness(k - 1, t + 1, v, g - h, out)

    top = (n, releases[0] - 1, max(j.deadline for j in jobs) + 1)
    values = table(*top)
    return values, {g: witness(*top, g, {}) for g in range(budget + 1)
                    if values[g] >= 0}


def record_budgets(monkeypatch):
    """Interior budgets of every DP solver built, in order."""
    budgets = []

    class Recording(throughput._Solver):
        def __post_init__(self):
            budgets.append(self.budget - 2)
            super().__post_init__()

    monkeypatch.setattr(throughput, "_Solver", Recording)
    return budgets


def record_discoveries(monkeypatch):
    """Instances whose windows were discovered, in order."""
    found = []

    class Counting(throughput._Windows):
        def __init__(self, inst):
            found.append(inst)
            super().__init__(inst)

    monkeypatch.setattr(throughput, "_Windows", Counting)
    return found


@pytest.fixture
def cold():
    """Drops the retained window structure now and on each call, so the
    next solve discovers its windows instead of hitting an earlier test's."""
    def clear():
        throughput._last = None
    clear()
    return clear


def sweep(inst, before=lambda: None):
    """Values and witnesses of ``max_throughput`` at budgets 0-3, weighted
    and not, and of ``min_gaps_for_throughput`` at every reachable count,
    calling ``before`` ahead of each solve."""
    out = []
    for weighted in (False, True):
        for g in range(4):
            before()
            value, sched = max_throughput(inst, g, weighted)
            out.append((value, sched.assignment))
    for m in range(1, edf_max_throughput(inst) + 1):
        before()
        g, sched = min_gaps_for_throughput(inst, m)
        out.append((g, sched.assignment))
    return out


def answer(call):
    """(value, assignment) of one call (inst, "max" or "min", weighted,
    budget or threshold)."""
    inst, kind, weighted, arg = call
    solver = max_throughput if kind == "max" else min_gaps_for_throughput
    value, sched = solver(inst, arg, weighted)
    return value, sched.assignment


def refusal_peaks(monkeypatch, refused, before, gaps=(3, 3)):
    """Traced peaks of ``max_throughput`` on a planted instance: at budget
    ``gaps[1]`` refused under a 1000-byte cap, naming ``refused``, and at
    ``gaps[0]`` uncapped; ``before`` runs ahead of each traced solve."""
    inst = planted_normalized(random.Random(5), 24, 60, 24)
    max_throughput(inst, 0)  # lazy imports happen outside the trace
    tracemalloc.start()
    try:
        before()
        max_throughput(inst, gaps[0])
        full = tracemalloc.get_traced_memory()[1]
        # A fresh trace: the fill that solve kept is not the refused one's.
        tracemalloc.stop()
        before()
        tracemalloc.start()
        monkeypatch.setattr(gapsched.core, "TABLE_CAP", 1000)
        with pytest.raises(GapSchedError, match=f"{refused} .* above the cap of 1000"):
            max_throughput(inst, gaps[1])
        return tracemalloc.get_traced_memory()[1], full
    finally:
        tracemalloc.stop()


class TestMaxThroughput:
    def test_tight_trio_budgets(self):
        inst = normalized([(0, 0), (2, 2), (4, 4)])
        assert max_throughput(inst, 0)[0] == 1
        assert max_throughput(inst, 1)[0] == 2
        assert max_throughput(inst, 2)[0] == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(GapSchedError):
            max_throughput(normalized([(0, 1)]), -1)

    @pytest.mark.parametrize("n, gaps", [(6, 1.5), (6, 2.0), (3, 2.5)])
    def test_fractional_budget_rejected(self, n, gaps):
        # Six jobs used to raise a bare TypeError; three returned a value.
        inst = Instance(tuple(Job(i, 3 * i, 3 * i) for i in range(n)))
        with pytest.raises(GapSchedError, match="not an integer"):
            max_throughput(inst, gaps)
        assert max_throughput(inst, np.int64(2)) == max_throughput(inst, 2)

    def test_zero_value_is_legal(self):
        inst = Instance((Job(0, 5, 3),))  # collapsed window, nothing fits
        value, sched = max_throughput(inst, 0)
        assert value == 0 and sched.assignment == {}

    def test_matches_oracle(self):
        rng = random.Random(61)
        for trial in range(80):
            inst = random_normalized(rng, rng.randint(1, 6), 10)
            for g in range(4):
                expect, _ = oracle_max_throughput(inst, g)
                value, sched = max_throughput(inst, g)
                assert value == expect, (inst, g)
                assert validate(sched, inst, Constraints(max_gaps=g)) == []
                assert len(sched.assignment) == value

    def test_matches_oracle_weighted(self):
        rng = random.Random(62)
        for trial in range(60):
            inst = random_normalized(rng, rng.randint(1, 5), 9, weights=True)
            for g in range(3):
                expect, _ = oracle_max_throughput(inst, g, weighted=True)
                value, sched = max_throughput(inst, g, weighted=True)
                assert value == expect, (inst, g)
                got = sum(job(inst, j).weight for j in sched.assignment)
                assert got == value

    def test_budget_past_n_minus_1_solves_at_n_minus_1(self, monkeypatch):
        # n jobs leave at most n - 1 interior gaps: a larger budget gives the
        # same answer from a DP sized to counted budget n + 1.
        inst = tight_chain(5)
        n = len(inst.jobs)

        class Capped(throughput._Solver):
            def __post_init__(self):
                # Fail here rather than fill a DP sized to the huge budget.
                assert self.budget <= n + 1, self.budget
                super().__post_init__()

        monkeypatch.setattr(throughput, "_Solver", Capped)
        for weighted in (False, True):
            value, sched = max_throughput(inst, n - 1, weighted)
            assert value == n
            got, witness = max_throughput(inst, 10**6, weighted)
            assert (got, witness.assignment) == (value, sched.assignment)

    def test_long_chain_needs_no_recursion(self):
        # One cell per job: a recursive DP would go 1200 frames deep.
        inst = tight_chain(1200)
        for gaps in (0, 3):
            value, sched = max_throughput(inst, gaps)  # certified inside
            assert value == len(sched.assignment) == gaps + 1

    def test_translation_shifts_only_the_witness(self):
        # Negative slots must not be mistaken for markers of any kind.
        rng = random.Random(69)
        for trial in range(30):
            inst = random_normalized(rng, rng.randint(1, 9), 16, weights=True)
            moved = Instance(tuple(Job(j.id, j.release - 1000, j.deadline - 1000,
                                       j.weight) for j in inst.jobs))
            for g in range(3):
                for weighted in (False, True):
                    value, sched = max_throughput(inst, g, weighted)
                    got, witness = max_throughput(moved, g, weighted)
                    assert got == value, (inst, g, weighted)
                    assert witness.assignment == {
                        j: t - 1000 for j, t in sched.assignment.items()}

    def test_collapsed_windows_match_oracle(self):
        # A job released after its deadline never runs, so a window holding
        # only such jobs is one idle gap, not an empty window.
        rng = random.Random(71)
        for trial in range(60):
            n = rng.randint(1, 6)
            windows = zip(rng.sample(range(14), n), rng.sample(range(14), n))
            inst = Instance(tuple(Job(i, r, d, rng.randint(0, 4))
                                  for i, (r, d) in enumerate(windows)))
            for g in range(n):
                for weighted in (False, True):
                    expect, _ = oracle_max_throughput(inst, g, weighted)
                    value, _ = max_throughput(inst, g, weighted)  # certified
                    assert value == expect, (inst, g, weighted)

    def test_monotone_in_budget(self):
        rng = random.Random(63)
        for _ in range(30):
            inst = random_normalized(rng, 5, 9)
            vals = [max_throughput(inst, g)[0] for g in range(6)]
            assert vals == sorted(vals)


class TestGuards:
    def test_total_weight_below_2_62(self):
        inst = Instance((Job(0, 0, 1, 2**61), Job(1, 1, 2, 2**61 - 1)))
        assert max_throughput(inst, 0, weighted=True)[0] == 2**62 - 1
        assert max_throughput(inst, 0)[0] == 2
        heavy = Instance((Job(0, 0, 1, 2**61), Job(1, 1, 2, 2**61)))
        for call in (lambda: max_throughput(heavy, 0, weighted=True),
                     lambda: min_gaps_for_throughput(heavy, 1, weighted=True)):
            with pytest.raises(GapSchedError, match="2\\*\\*62"):
                call()

    @pytest.mark.parametrize("base, ok", [(2**62 - 3, True), (2**62 - 2, False),
                                          (-2**62 + 1, True), (-2**62, False)])
    def test_coordinates_inside_2_62(self, base, ok):
        inst = Instance((Job(0, base, base + 1), Job(1, base + 1, base + 2)))
        if ok:
            value, sched = max_throughput(inst, 0)
            assert value == 2 and min(sched.assignment.values()) == base
        else:
            with pytest.raises(GapSchedError, match="2\\*\\*62"):
                max_throughput(inst, 0)

    def test_cap_refuses_before_allocating(self, monkeypatch, cold):
        # An uncapped solve peaks near 1.1 MB.  Both solves start cold, so
        # discovery's guards are the ones tried: the "throughput windows"
        # guard on the lookup tables refuses first, before they are built.
        peak, full = refusal_peaks(monkeypatch, "windows", cold)
        assert peak < full // 20, (peak, full)

    def test_cap_refuses_values_on_a_hit(self, monkeypatch, cold):
        # The windows and a fill at 4 are kept; budget 5 needs a new fill,
        # which checks its values table before allocating.
        peak, full = refusal_peaks(monkeypatch, "values", lambda: None, (3, 5))
        assert peak < full // 20, (peak, full)

    @pytest.mark.parametrize("solve, expect", [
        (lambda inst: max_throughput(inst, 1, weighted=True), 4),
        (lambda inst: min_gaps_for_throughput(inst, 4, weighted=True), 1),
        (lambda inst: oracle_solve(inst, "max_throughput", gaps=1, weighted=True), 4),
    ], ids=["max_throughput", "min_gaps_for_throughput", "oracle_solve"])
    def test_fractional_weights_rejected(self, solve, expect):
        # int64 tables would floor 1.5 and 2.5: a failed certificate, a
        # false "unreachable" and a bare AssertionError respectively.
        with pytest.raises(ValueError, match="not an integer"):
            solve(Instance((Job(0, 0, 0, 1.5), Job(1, 5, 5, 2.5))))
        # Integral types other than int still pass.
        assert solve(Instance((Job(0, 0, 0, 1), Job(1, 5, 5, np.int64(3)))))[0] == expect


class TestValueTable:
    def test_dtype_follows_the_total_weight(self):
        # Totals below 2**30 fill int32 tables; scaling every weight by K
        # moves the same instance to int64, and scales every feasible value.
        rng = random.Random(74)
        K = 2**28
        cases = [random_normalized(rng, rng.randint(1, 7), 12, weights=True)
                 for _ in range(25)]
        jobs = planted_normalized(rng, 6, 14, 3, max_weight=9).jobs
        rest = sum(j.weight for j in jobs[:-1])
        top = Job(jobs[-1].id, jobs[-1].release, jobs[-1].deadline, 2**30 - 1 - rest)
        cases.append(Instance(jobs[:-1] + (top,)))  # weighs exactly 2**30 - 1
        wides = 0
        for inst in cases:
            if not inst.jobs:
                continue
            scaled = Instance(tuple(Job(j.id, j.release, j.deadline, j.weight * K)
                                    for j in inst.jobs))
            budget = len(inst.jobs) + 1
            values, witnesses = reference_dp(inst, True, budget)
            assert reference_dp(scaled, True, budget) == (
                tuple(v * K if v >= 0 else -1 for v in values), witnesses)
            narrow = throughput._Solver(throughput._Windows(inst), True, budget)
            wide = throughput._Solver(throughput._Windows(scaled), True, budget)
            total = sum(j.weight for j in inst.jobs)
            for solver, weight in ((narrow, total), (wide, total * K)):
                assert solver.val.dtype == (np.int32 if weight < 2**30 else np.int64)
            wides += wide.val.dtype == np.int64
            assert narrow.values() == values, inst
            assert wide.values() == tuple(v * K if v >= 0 else -1 for v in values)
            for g, want in witnesses.items():
                assert narrow.witness(g) == wide.witness(g) == want, (inst, g)
            for solver in (narrow, wide):
                assert solver.val.min() >= solver.infeasible
        assert total == 2**30 - 1 and narrow.val.dtype == np.int32
        assert wides > 15

    def test_witness_refuses_a_corrupted_table(self):
        # A top value that no choice attains is refused, not answered with
        # the first slot.
        inst = planted_normalized(random.Random(76), 10, 24, 4, max_weight=5)
        for weighted in (False, True):
            for g in range(2, 6):
                solver = throughput._Solver(throughput._Windows(inst), weighted, 5)
                solver.witness(g)  # the intact table has one
                solver.val[g, solver.win.top_row] += 1
                with pytest.raises(GapSchedError, match="no choice attains"):
                    solver.witness(g)


class TestEdfMaxThroughput:
    def test_counts_schedulable_jobs(self):
        rng = random.Random(64)
        for _ in range(60):
            inst = random_normalized(rng, rng.randint(1, 6), 9)
            expect, _ = oracle_max_throughput(inst, len(inst.jobs))
            assert edf_max_throughput(inst) == expect

    def test_raw_instances(self):
        rng = random.Random(65)
        for _ in range(200):
            inst = make_instance(random_raw_windows(rng, rng.randint(1, 8), 6))
            expect, _ = oracle_max_throughput(inst, len(inst.jobs))
            assert edf_max_throughput(inst) == expect


class TestMinGapsForThroughput:
    def test_single_job_needs_no_gap(self):
        inst = normalized([(0, 4), (2, 6)])
        assert min_gaps_for_throughput(inst, 1)[0] == 0

    def test_tight_trio(self):
        inst = normalized([(0, 0), (2, 2), (4, 4)])
        assert min_gaps_for_throughput(inst, 2)[0] == 1
        assert min_gaps_for_throughput(inst, 3)[0] == 2

    def test_full_throughput_gap_free(self):
        inst = normalized([(0, 4), (1, 4), (2, 4)])
        assert min_gaps_for_throughput(inst, 3)[0] == 0

    def test_infeasible_threshold(self):
        with pytest.raises(InfeasibleError):
            min_gaps_for_throughput(normalized([(0, 0), (4, 4)]), 3)

    @pytest.mark.parametrize("threshold", ["2", None, 1.5, 2.0])
    def test_non_integer_threshold_refused(self, threshold):
        # "2" and None raised a bare TypeError; 1.5 was answered as 2.
        inst = normalized([(0, 0), (2, 2), (4, 4)])
        with pytest.raises(GapSchedError, match="not an integer"):
            min_gaps_for_throughput(inst, threshold)
        assert min_gaps_for_throughput(inst, np.int64(2)) == min_gaps_for_throughput(inst, 2)

    def test_unreachable_thresholds_fail_at_once(self, monkeypatch):
        edf_calls = []

        def counting_edf(inst):
            edf_calls.append(inst)
            return edf_max_throughput(inst)

        monkeypatch.setattr(throughput, "edf_max_throughput", counting_edf)
        monkeypatch.setattr(throughput, "_Solver",
                            lambda *a: pytest.fail("the DP was built"))
        inst = tight_chain(4, weight=3)
        with pytest.raises(InfeasibleError):
            min_gaps_for_throughput(inst, 13, weighted=True)
        with pytest.raises(InfeasibleError):
            min_gaps_for_throughput(Instance(()), 1, weighted=True)
        with pytest.raises(InfeasibleError):
            min_gaps_for_throughput(normalized([(0, 0), (4, 4)]), 3)
        assert len(edf_calls) == 1

    def test_matches_oracle_and_duality(self):
        rng = random.Random(65)
        for trial in range(60):
            inst = random_normalized(rng, rng.randint(1, 5), 9)
            n = len(inst.jobs)
            for m in range(1, n + 1):
                try:
                    expect, _ = oracle_min_gaps_throughput(inst, m)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        min_gaps_for_throughput(inst, m)
                    continue
                g, sched = min_gaps_for_throughput(inst, m)
                assert g == expect, (inst, m)
                assert len(sched.assignment) >= m
                assert gap_stats(sched).gap_count <= g if sched.assignment else g == 0
                assert max_throughput(inst, g)[0] >= m
                if g > 0:
                    assert max_throughput(inst, g - 1)[0] < m

    def test_weighted_matches_oracle(self):
        rng = random.Random(66)
        for trial in range(40):
            inst = random_normalized(rng, rng.randint(1, 4), 8, weights=True)
            total = sum(j.weight for j in inst.jobs)
            for m in {1, max(1, total // 2), total} if total else {1}:
                try:
                    expect, _ = oracle_min_gaps_throughput(
                        inst, m, weighted=True)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        min_gaps_for_throughput(inst, m, weighted=True)
                    continue
                g, _ = min_gaps_for_throughput(inst, m, weighted=True)
                assert g == expect, (inst, m)


class TestBudgetGrowth:
    def test_tight_chain_crosses_every_step(self):
        for k in range(1, 11):
            inst = tight_chain(k)
            for m in range(1, k + 1):
                g, sched = min_gaps_for_throughput(inst, m)
                assert g == m - 1, (k, m)
                assert gap_stats(sched).gap_count == g
                if k <= 8:
                    assert g == oracle_min_gaps_throughput(inst, m)[0]

    def test_growth_doubles_up_to_the_cap(self, monkeypatch, cold):
        budgets = record_budgets(monkeypatch)
        found = record_discoveries(monkeypatch)
        assert min_gaps_for_throughput(tight_chain(10), 10)[0] == 9
        assert budgets[-1] == 9
        assert all(b < c <= 2 * b for b, c in zip(budgets, budgets[1:]))
        assert len(found) == 1  # every doubling shares one structure

    def test_weighted_unreachable_stops_at_the_cap(self, monkeypatch):
        # The collapsed job can never run, so the total weight is out of
        # reach although it does not exceed the weight of all jobs.
        jobs = tight_chain(10, weight=2).jobs + (Job(10, 21, 19, 5),)
        budgets = record_budgets(monkeypatch)
        with pytest.raises(InfeasibleError):
            min_gaps_for_throughput(Instance(jobs), 25, weighted=True)
        assert budgets[-1] == len(jobs) - 1

    def test_smaller_budget_gives_same_values_and_witnesses(self):
        rng = random.Random(68)
        for trial in range(40):
            inst = random_normalized(rng, rng.randint(1, 9), 16, weights=True)
            win = throughput._Windows(inst)
            small = throughput._Solver(win, True, 3)
            large = throughput._Solver(win, True, len(inst.jobs) + 4)
            assert small.values() == large.values()[:4]
            for g in range(4):
                if small.values()[g] >= 0:
                    assert small.witness(g) == large.witness(g), (inst, g)

    def test_same_values_witnesses_and_ties_as_recursion(self):
        rng = random.Random(70)
        for trial in range(150):
            weighted = trial % 2 == 1
            inst = random_normalized(rng, rng.randint(1, 8), 14, weights=weighted)
            if not inst.jobs:
                continue
            budget = len(inst.jobs) + 1
            values, witnesses = reference_dp(inst, weighted, budget)
            solver = throughput._Solver(throughput._Windows(inst), weighted, budget)
            assert solver.values() == values, inst
            for g, want in witnesses.items():
                assert solver.witness(g) == want, (inst, g)

    def test_cells_straddling_blocks_merge(self, monkeypatch):
        # With a few pairs per block, a cell with more pairs than a block is
        # cut into pieces that finish no cell; their maxima must merge into
        # the block that finishes it, as one value and one witness.
        rng = random.Random(72)
        straddled = 0
        for trial in range(100):
            weighted = trial % 2 == 1
            inst = random_normalized(rng, rng.randint(2, 8), 14, weights=weighted)
            if not inst.jobs:
                continue
            budget = len(inst.jobs) + 1
            values, witnesses = reference_dp(inst, weighted, budget)
            win = throughput._Windows(inst)
            default = throughput._Solver(win, weighted, budget)
            for size in (1, 200):  # one pair per block, then two to six
                monkeypatch.setattr(throughput, "_BLOCK_BYTES", size)
                block = max(1, size // (8 * (budget + 1)))
                straddled += any(len(lvl.left) > block for lvl in win.levels)
                solver = throughput._Solver(win, weighted, budget)
                assert solver.values() == default.values() == values, (inst, size)
                for g, want in witnesses.items():
                    assert solver.witness(g) == default.witness(g) == want, (inst, g)
                monkeypatch.undo()
        assert straddled > 150

    def test_mixed_level_cuts_only_the_widest_cell(self, monkeypatch):
        # Tight jobs 20 slots apart, and job 4, whose window [1, 70] spans
        # them all.  At job 4's level the cells hold 1 to 54 slots, and only
        # the cell reaching past its deadline holds 54 (slot 71 lies more
        # than n + 1 from every release, so no cell ends at 70).  Blocks of
        # 53 pairs cut that cell alone; the other cells fill whole blocks.
        # Job 5 weighs nothing, so weighted answers run through the cut cell.
        jobs = [Job(i, 20 * i, 20 * i) for i in range(4)]
        inst = Instance(tuple(jobs) + (Job(4, 1, 70, 3), Job(5, 2, 80, 0)))
        win = throughput._Windows(inst)
        lvl = next(lvl for lvl in win.levels if win.jobs[lvl.k - 1].id == 4)
        counts = sorted(np.diff(lvl.bounds).tolist())
        per = counts[-2]
        assert counts[-1] > per  # one cell holds the most
        budget = len(inst.jobs) + 1
        monkeypatch.setattr(throughput, "_BLOCK_BYTES", per * 8 * (budget + 1))
        blocks = [(nc, (len(rows) - nc) // 2) for _, rows, nc, _ in lvl.blocks(per)]
        assert [m for nc, m in blocks if nc == 0] == [per]  # the one cut cell's piece
        assert sum(nc > 1 for nc, _ in blocks) > 1  # whole cells share blocks
        for weighted in (False, True):
            values, witnesses = reference_dp(inst, weighted, budget)
            solver = throughput._Solver(win, weighted, budget)
            assert solver.values() == values
            for g, want in witnesses.items():
                assert solver.witness(g) == want, (weighted, g)

    def test_duality_at_benchmark_scale(self):
        inst = planted_normalized(random.Random(30), 30, 75, reach=1)
        best = [max_throughput(inst, g)[0] for g in range(30)]
        for m in range(1, 31):
            g, sched = min_gaps_for_throughput(inst, m)
            assert best[g] >= m and len(sched.assignment) >= m
            assert g == 0 or best[g - 1] < m, (m, g)
        assert min_gaps_for_throughput(inst, 30)[0] > 8


class TestCanonicalWindows:
    def test_precomputed_map_matches_rescan(self, monkeypatch):
        # Every window the discovery pass canonicalizes, one by one, against
        # a rescan of the jobs.  Discovery names windows in rank space: a
        # start is a u-rank or nu + s for slots[s] + 1, an end a v-rank or
        # nv + s for slots[s] - 1, and the canonical u and v come back as
        # ranks.
        rng = random.Random(67)
        canon = throughput._Windows._canon
        calls = []

        def recording(self, k, x, y):
            got = canon(self, k, x, y)
            calls.append((k, x, y, got))
            return got

        monkeypatch.setattr(throughput._Windows, "_canon", recording)
        for trial in range(60):
            inst = random_normalized(rng, rng.randint(1, 12), 30)
            if trial % 3 == 0:  # collapsed jobs: released after their deadline
                free = sorted(set(range(30)) - {j.release for j in inst.jobs})
                inst = Instance(inst.jobs + (Job(98, rng.choice(free), -2),
                                             Job(99, 40, -1)))
            calls.clear()
            win = throughput._Windows(inst)  # discovers, whatever is retained
            assert calls
            begin = win.ugrid.tolist() + (win.slots + 1).tolist()
            end = win.vgrid.tolist() + (win.slots - 1).tolist()
            for k, xs, ys, got in calls:
                for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
                    u, v = begin[x], end[y]
                    want = naive_canon(win.jobs, k, u, v)
                    ck, cu, cv = (int(a[i]) for a in got)
                    if want[0] <= 0:  # a base window: only its kind counts
                        assert ck == want[0], (inst, k, u, v)
                    else:
                        cell = ck, int(win.ugrid[cu]), int(win.vgrid[cv])
                        assert cell == want, (inst, k, u, v)


@pytest.mark.usefixtures("cold")
class TestSharedWindows:
    def test_one_discovery_per_instance(self, monkeypatch):
        inst = planted_normalized(random.Random(31), 12, 30, 12)
        found = record_discoveries(monkeypatch)
        answers = sweep(inst)
        assert found == [inst]
        assert len(answers) > 8  # 8 max_throughput and some min_gaps calls

    def test_large_windows_are_not_kept(self, monkeypatch):
        # An instance whose windows take more than _KEEP_BYTES leaves no
        # entry, and each call on it discovers its windows afresh.
        inst = planted_normalized(random.Random(31), 12, 30, 12)
        want = sweep(inst)
        monkeypatch.setattr(throughput, "_KEEP_BYTES", throughput._last[1].nbytes() - 1)
        throughput._last = None
        found = record_discoveries(monkeypatch)
        assert sweep(inst) == want
        assert throughput._last is None
        assert found == [inst] * len(want)

    def test_interleaved_instances_match_cold_answers(self, cold):
        rng = random.Random(72)
        for trial in range(15):
            a = random_normalized(rng, rng.randint(1, 8), 14, weights=True)
            b = random_normalized(rng, rng.randint(1, 8), 14, weights=True)
            want_a, want_b = sweep(a, cold), sweep(b, cold)
            assert (sweep(a), sweep(b), sweep(a)) == (want_a, want_b, want_a), (a, b)

    def test_weights_alone_do_not_share_answers(self, monkeypatch):
        light = tight_chain(4, weight=1)
        heavy = Instance(tuple(Job(j.id, j.release, j.deadline, 5 - j.id)
                               for j in light.jobs))
        found = record_discoveries(monkeypatch)
        for inst in (light, heavy, light, heavy):
            for g in range(3):
                value, sched = max_throughput(inst, g, weighted=True)
                assert value == oracle_max_throughput(inst, g, weighted=True)[0]
                assert value == sum(job(inst, j).weight for j in sched.assignment)
        assert found == [light, heavy, light, heavy]

    @pytest.mark.parametrize("cap, far, error", [(10**4, (), "windows"),
                                                 (None, (2**62,), "2\\*\\*62")])
    def test_failed_discovery_keeps_no_entry(self, monkeypatch, cap, far, error):
        # Another instance's discovery fails midway (at the windows cap) or
        # at its first guard; the entry it replaced is gone, not restored.
        inst = planted_normalized(random.Random(5), 24, 60, 24)
        want = max_throughput(inst, 3)
        bad = Instance(tuple(Job(j.id, j.release + 1, j.deadline + 1) for j in inst.jobs)
                       + tuple(Job(99 + i, x, x) for i, x in enumerate(far)))
        if cap:
            monkeypatch.setattr(gapsched.core, "TABLE_CAP", cap)
        with pytest.raises(GapSchedError, match=error):
            max_throughput(bad, 3)
        assert throughput._last is None
        monkeypatch.undo()
        found = record_discoveries(monkeypatch)
        got = max_throughput(inst, 3)
        assert found == [inst]
        assert (got[0], got[1].assignment) == (want[0], want[1].assignment)


@pytest.mark.usefixtures("cold")
class TestKeptFills:
    def test_any_call_order_matches_cold_answers(self, cold):
        # Budgets up and down, shuffled, across both weightings and two
        # interleaved instances, then every threshold: each answer is the
        # one a cold call at exactly that budget gives.
        rng = random.Random(74)
        for trial in range(10):
            pair = [random_normalized(rng, rng.randint(1, 9), 16, weights=True)
                    for _ in range(2)]
            budgets = [(inst, "max", w, g) for inst in pair for g in range(len(inst.jobs) + 2)
                       for w in (False, True)]
            thresholds = [(inst, "min", w, t) for inst in pair for w in (False, True)
                          for t in range(1, max_throughput(inst, len(inst.jobs), w)[0] + 1)]
            want = {}
            for call in budgets + thresholds:
                cold()
                want[call] = answer(call)
            shuffled = rng.sample(budgets, len(budgets))
            for order in (budgets, budgets[::-1], shuffled, sorted(budgets, key=lambda c: c[3])):
                cold()
                for call in order + thresholds:
                    assert answer(call) == want[call], call
            for inst in pair:
                assert sweep(inst) == sweep(inst, cold), inst

    def test_workload_sweep_fills_twice_per_weighting(self, monkeypatch, cold):
        # Budgets 0-3 unweighted, then weighted, then every job: a fill at
        # 0, one at 4 that answers 1-3, and the same weighted; the threshold
        # is met within the kept unweighted fill at 4.
        inst = planted_normalized(random.Random(1), 24, 60, 24, max_weight=4)
        budgets = record_budgets(monkeypatch)
        for weighted in (False, True):
            for g in range(4):
                max_throughput(inst, g, weighted)
        min_gaps_for_throughput(inst, len(inst.jobs))
        assert budgets == [0, 4, 0, 4]
        cold()
        budgets.clear()
        max_throughput(inst, 0)
        assert budgets == [0]  # a lone call fills at its own budget

    def test_kept_entry_dies_with_the_next_instance(self):
        # No reference cycle: with the cyclic collector off, the previous
        # instance's windows and fill go as soon as another is solved.
        a, b = (planted_normalized(random.Random(s), 12, 30, 12) for s in (1, 2))
        gc.disable()
        try:
            max_throughput(a, 1)
            refs = weakref.ref(throughput._last[1]), weakref.ref(throughput._last[2][False])
            max_throughput(b, 1)
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_fill_above_the_limit_is_used_not_kept(self, monkeypatch):
        inst = planted_normalized(random.Random(1), 12, 30, 12)
        want = answer((inst, "max", False, 1))
        _, win, fills = throughput._last
        monkeypatch.setattr(throughput, "_KEEP_BYTES",
                            win.nbytes() + fills[False].val.nbytes - 1)
        throughput._last = None
        budgets = record_budgets(monkeypatch)
        for _ in range(2):
            assert answer((inst, "max", False, 1)) == want
            assert throughput._last[2] == {}
        assert budgets == [1, 1]
