"""Throughput under a gap budget, and gap minimization under a floor."""

import bisect
import random

import pytest

from gapsched import throughput
from gapsched.core import Constraints, Instance, Job, gap_stats, validate
from gapsched.errors import GapSchedError, InfeasibleError
from gapsched.oracle import oracle_max_throughput, oracle_min_gaps_throughput
from gapsched.throughput import (
    edf_max_throughput,
    max_throughput,
    min_gaps_for_throughput,
)

from helpers import (
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


def naive_canon(solver, k, u, v):
    """The canonical window of (k, u, v) by rescanning the jobs; the
    reference for the precomputed map behind ``_Solver._canon``."""
    if u > v:
        return "base", solver.empty_window
    releases = sorted(j.release for j in solver.jobs)
    if u not in releases:
        i = bisect.bisect_left(releases, u)
        if i == len(releases) or releases[i] > v:
            return "base", solver.empty_jobs
        u = releases[i] - 1
    while k > 0 and not (u <= solver.jobs[k - 1].release <= v):
        k -= 1
    if k == 0:
        return "base", solver.empty_jobs
    dmax = max(solver.jobs[i].deadline for i in range(k)
               if u <= solver.jobs[i].release <= v)
    return "cell", (k, u, min(v, dmax + 1))


def record_budgets(monkeypatch):
    """Interior budgets of every DP solver built, in order."""
    budgets = []

    class Recording(throughput._Solver):
        def __post_init__(self):
            budgets.append(self.budget - 2)
            super().__post_init__()

    monkeypatch.setattr(throughput, "_Solver", Recording)
    return budgets


class TestMaxThroughput:
    def test_tight_trio_budgets(self):
        inst = normalized([(0, 0), (2, 2), (4, 4)])
        assert max_throughput(inst, 0)[0] == 1
        assert max_throughput(inst, 1)[0] == 2
        assert max_throughput(inst, 2)[0] == 3

    def test_negative_budget_rejected(self):
        with pytest.raises(GapSchedError):
            max_throughput(normalized([(0, 1)]), -1)

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
                got = sum(inst.job(j).weight for j in sched.assignment)
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

    def test_monotone_in_budget(self):
        rng = random.Random(63)
        for _ in range(30):
            inst = random_normalized(rng, 5, 9)
            vals = [max_throughput(inst, g)[0] for g in range(6)]
            assert vals == sorted(vals)


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

    def test_growth_doubles_up_to_the_cap(self, monkeypatch):
        budgets = record_budgets(monkeypatch)
        assert min_gaps_for_throughput(tight_chain(10), 10)[0] == 9
        assert budgets[-1] == 9
        assert all(b < c <= 2 * b for b, c in zip(budgets, budgets[1:]))

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
            small = throughput._Solver(inst, True, 3)
            large = throughput._Solver(inst, True, len(inst.jobs) + 4)
            assert small.values() == large.values()[:4]
            for g in range(4):
                if small.values()[g] >= 0:
                    assert small.witness(g) == large.witness(g), (inst, g)

    def test_duality_at_benchmark_scale(self):
        inst = planted_normalized(random.Random(30), 30, 75, reach=1)
        best = [max_throughput(inst, g)[0] for g in range(30)]
        for m in range(1, 31):
            g, sched = min_gaps_for_throughput(inst, m)
            assert best[g] >= m and len(sched.assignment) >= m
            assert g == 0 or best[g - 1] < m, (m, g)
        assert min_gaps_for_throughput(inst, 30)[0] > 8


class TestCanonicalWindows:
    def test_precomputed_map_matches_rescan(self):
        rng = random.Random(67)
        for trial in range(60):
            inst = random_normalized(rng, rng.randint(1, 12), 30)
            if trial % 3 == 0:  # a collapsed job: released after its deadline
                inst = Instance(inst.jobs + (Job(99, 40, -1),))
            solver = throughput._Solver(inst, False, 3)
            canon = solver._canon
            queries = []

            def recording(k, u, v):
                queries.append((k, u, v))
                return canon(k, u, v)

            solver._canon = recording
            vals = solver.values()
            solver.witness(max(g for g in range(4) if vals[g] >= 0))
            assert queries
            for q in queries:
                assert canon(*q) == naive_canon(solver, *q), (inst, q)
