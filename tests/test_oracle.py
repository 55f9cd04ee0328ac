"""The exhaustive reference solvers, cross-checked against literal
enumeration of assignments on tiny instances."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest

from gapsched import oracle
from gapsched.core import Constraints, Instance, Job, gap_stats, validate
from gapsched.errors import GapSchedError, InfeasibleError, OracleCapError
from gapsched.oracle import (
    oracle_min_gaps_max_flow,
    oracle_min_gaps_throughput,
    oracle_min_max_flow,
    oracle_min_total_flow,
    oracle_solve,
)

from helpers import (enumerate_schedules, make_instance, random_raw_windows,
                     random_windows, release_instance)


def stats_of(inst, assignment):
    from gapsched.core import Schedule
    return gap_stats(Schedule(inst, assignment))


def enumerate_values(inst, score, full=True, slot_limit=None):
    return [score(a) for a in enumerate_schedules(inst, full=full,
                                                  slot_limit=slot_limit)]


class TestGapObjectivesAgainstEnumeration:
    def test_min_and_max_gaps(self):
        rng = random.Random(1)
        checked = 0
        while checked < 50:
            inst = make_instance(random_windows(rng, rng.randint(1, 4), 7))
            vals = enumerate_values(
                inst, lambda a: stats_of(inst, a).gap_count if a else 0)
            if not vals:
                for obj in ("min_gaps", "max_gaps"):
                    with pytest.raises(InfeasibleError):
                        oracle_solve(inst, obj)
                continue
            checked += 1
            lo, sched_lo = oracle_solve(inst, "min_gaps")
            hi, sched_hi = oracle_solve(inst, "max_gaps")
            assert lo == min(vals)
            assert hi == max(vals)
            for s in (sched_lo, sched_hi):
                assert validate(s, inst, Constraints(require_all=True)) == []
            assert stats_of(inst, sched_lo.assignment).gap_count == lo
            assert stats_of(inst, sched_hi.assignment).gap_count == hi

    def test_min_max_gap(self):
        rng = random.Random(2)
        checked = 0
        while checked < 50:
            inst = make_instance(random_windows(rng, rng.randint(2, 4), 7))
            vals = enumerate_values(
                inst, lambda a: stats_of(inst, a).max_separation)
            if not vals:
                continue
            checked += 1
            v, sched = oracle_solve(inst, "min_max_gap")
            assert v == min(vals)
            assert stats_of(inst, sched.assignment).max_separation == v


class TestThroughputAgainstEnumeration:
    def test_max_throughput(self):
        rng = random.Random(3)
        for _ in range(40):
            inst = make_instance(random_windows(rng, rng.randint(1, 4), 7))
            for g in (0, 1, 2):
                def score(a):
                    if not a:
                        return 0
                    st = stats_of(inst, a)
                    return len(a) if st.gap_count <= g else -1
                best = max(enumerate_values(inst, score, full=False))
                v, sched = oracle_solve(inst, "max_throughput", gaps=g)
                assert v == best
                assert len(sched.assignment) == v
                if sched.assignment:
                    assert stats_of(inst, sched.assignment).gap_count <= g
                assert validate(sched, inst) == []

    def test_weighted_throughput(self):
        rng = random.Random(4)
        for _ in range(30):
            windows = random_windows(rng, 4, 7)
            weights = [rng.randint(0, 4) for _ in windows]
            inst = Instance(tuple(Job(i, r, d, w)
                                  for i, ((r, d), w) in enumerate(zip(windows, weights))))
            wmap = {j.id: j.weight for j in inst.jobs}
            for g in (0, 1):
                def score(a):
                    if not a:
                        return 0
                    st = stats_of(inst, a)
                    return sum(wmap[i] for i in a) if st.gap_count <= g else -1
                best = max(enumerate_values(inst, score, full=False))
                v, _ = oracle_solve(inst, "max_throughput", gaps=g, weighted=True)
                assert v == best

    def test_min_gaps_throughput_duality(self):
        rng = random.Random(5)
        for _ in range(30):
            inst = make_instance(random_windows(rng, 4, 7))
            for m in (1, 2, 3, 4):
                try:
                    g, sched = oracle_solve(inst, "min_gaps_throughput",
                                            min_throughput=m)
                except InfeasibleError:
                    v, _ = oracle_solve(inst, "max_throughput", gaps=4)
                    assert v < m
                    continue
                assert len(sched.assignment) >= m
                v, _ = oracle_solve(inst, "max_throughput", gaps=g)
                assert v >= m
                if g > 0:
                    v2, _ = oracle_solve(inst, "max_throughput", gaps=g - 1)
                    assert v2 < m


def measure(inst, a):
    """(weight, gap count, max separation) of an assignment."""
    busy = sorted(a.values())
    steps = [t2 - t1 for t1, t2 in zip(busy, busy[1:])]
    return (sum(j.weight for j in inst.jobs if j.id in a), sum(d > 1 for d in steps),
            max(steps, default=0))


def enumerate_deadline(inst, full):
    """(assignment, weight, gap count, max separation) of every schedule."""
    return [(a, *measure(inst, a)) for a in enumerate_schedules(inst, full=full)]


def check_threshold_oracle(inst, scheds, weighted):
    """oracle_min_gaps_throughput at every threshold 0..total + 1."""
    def worth(a, w):
        return w if weighted else len(a)
    top = max(worth(a, w) for a, w, _, _ in scheds)
    for m in range(sum(j.weight if weighted else 1 for j in inst.jobs) + 2):
        if m > top:
            with pytest.raises(InfeasibleError, match=f"exceeds maximum {top}"):
                oracle_min_gaps_throughput(inst, m, weighted)
            continue
        g, sched = oracle_min_gaps_throughput(inst, m, weighted)
        assert g == min(gc for a, w, gc, _ in scheds if worth(a, w) >= m)
        assert validate(sched, inst, Constraints(
            max_gaps=g, min_throughput=m, weighted=weighted)) == []


def check_deadline_oracles(inst, weighted=True):
    """All five deadline oracles against enumeration, witnesses included."""
    full = enumerate_deadline(inst, full=True)
    objectives = [("min_gaps", min, 2), ("max_gaps", max, 2), ("min_max_gap", min, 3)]
    for name, best, field in objectives:
        if not full:
            with pytest.raises(InfeasibleError):
                oracle_solve(inst, name)
            continue
        v, sched = oracle_solve(inst, name)
        assert v == best(s[field] for s in full)
        assert validate(sched, inst, Constraints(require_all=True)) == []
        assert measure(inst, sched.assignment)[field - 1] == v
    partial = enumerate_deadline(inst, full=False)
    for g in range(len(inst.jobs) + 1):
        v, sched = oracle_solve(inst, "max_throughput", gaps=g, weighted=weighted)
        assert v == max((w if weighted else len(a)) for a, w, gc, _ in partial if gc <= g)
        assert validate(sched, inst, Constraints(
            max_gaps=g, min_throughput=v, weighted=weighted)) == []
    check_threshold_oracle(inst, partial, weighted)


class TestDeadlineOracleEdges:
    def test_weighted_min_gaps_throughput(self):
        rng = random.Random(12)
        for _ in range(30):
            windows = random_windows(rng, rng.randint(1, 4), 7)
            inst = Instance(tuple(Job(i, r, d, rng.randint(0, 4))
                                  for i, (r, d) in enumerate(windows)))
            check_threshold_oracle(inst, enumerate_deadline(inst, full=False), True)

    @pytest.mark.parametrize("windows, separation", [([(0, 0), (15, 15)], 15),
                                                     ([(0, 3), (12, 15)], 9)],
                             ids=["forced", "chosen"])
    def test_separation_spans_sixteen_slots(self, windows, separation):
        inst = make_instance(windows)
        assert oracle_solve(inst, "min_max_gap")[0] == separation
        check_deadline_oracles(inst)

    def test_duplicate_and_collapsed_windows(self):
        rng = random.Random(13)
        for _ in range(40):
            windows = random_raw_windows(rng, rng.randint(1, 4), 6)
            inst = Instance(tuple(Job(i, r, d, rng.randint(0, 4))
                                  for i, (r, d) in enumerate(windows)))
            check_deadline_oracles(inst, weighted=rng.random() < 0.5)

    def test_eight_jobs_at_the_slot_cap(self):
        inst = Instance(tuple(Job(i, 2 * i, min(2 * i + 2, 15), i % 3)
                              for i in range(8)))
        assert max(j.deadline for j in inst.jobs) == oracle.DEFAULT_SLOT_CAP - 1
        check_deadline_oracles(inst)


class TestWeightLimit:
    """Values are int64 with +-2**62 for unreachable states, so a total
    weight of 2**61 or more is refused before any table is built."""

    def test_total_weight_at_limit_refused(self):
        # These calls returned 2**62 with an overflow warning, and a false
        # InfeasibleError, before the limit.
        heavy = Instance(tuple(Job(i, i, i + 1, 2**62) for i in range(3)))
        at_limit = Instance((Job(0, 0, 0, 2**60), Job(1, 2, 2, 2**60)))
        for inst in (heavy, at_limit):
            with pytest.raises(GapSchedError, match=r"is not below 2\*\*61"):
                oracle.oracle_max_throughput(inst, 1, True)
            with pytest.raises(GapSchedError, match=r"is not below 2\*\*61"):
                oracle_min_gaps_throughput(inst, 3 * 2**62, True)
        assert oracle.oracle_max_throughput(heavy, 1)[0] == 3

    def test_total_weight_below_limit_exact(self):
        inst = Instance((Job(0, 0, 0, 2**60), Job(1, 2, 2, 2**60 - 1)))
        value, sched = oracle.oracle_max_throughput(inst, 1, True)
        if value != 2**61 - 1 or len(sched.assignment) != 2:
            pytest.fail(f"max throughput {value}, witness {sched.assignment}")
        g, _ = oracle_min_gaps_throughput(inst, 2**61 - 1, True)
        if g != 1:
            pytest.fail(f"{g} gaps for the full weight")


class TestFlowAgainstEnumeration:
    def test_min_total_flow(self):
        rng = random.Random(6)
        for _ in range(40):
            releases = sorted(rng.randrange(8) for _ in range(rng.randint(1, 4)))
            inst = release_instance(releases)
            limit = max(releases) + len(releases)
            for g in (0, 1, 2):
                def score(a):
                    st = stats_of(inst, a)
                    return st.total_flow if st.gap_count <= g else 10**9
                best = min(enumerate_values(inst, score, slot_limit=limit))
                v, sched = oracle_solve(inst, "min_total_flow", gaps=g)
                assert v == best
                assert stats_of(inst, sched.assignment).total_flow == v
                assert stats_of(inst, sched.assignment).gap_count <= g

    def test_min_max_flow(self):
        rng = random.Random(7)
        for _ in range(40):
            releases = sorted(rng.randrange(8) for _ in range(rng.randint(1, 4)))
            inst = release_instance(releases)
            limit = max(releases) + len(releases)
            for g in (0, 1):
                def score(a):
                    st = stats_of(inst, a)
                    return st.max_flow if st.gap_count <= g else 10**9
                best = min(enumerate_values(inst, score, slot_limit=limit))
                v, _ = oracle_solve(inst, "min_max_flow", gaps=g)
                assert v == best

    def test_min_gaps_flow_bounds(self):
        rng = random.Random(8)
        for _ in range(40):
            releases = sorted(rng.randrange(8) for _ in range(rng.randint(1, 4)))
            inst = release_instance(releases)
            limit = max(releases) + len(releases)
            f = rng.randint(0, 6)

            def score_total(a):
                st = stats_of(inst, a)
                return st.gap_count if st.total_flow <= f else 10**9
            best = min(enumerate_values(inst, score_total, slot_limit=limit))
            try:
                v, _ = oracle_solve(inst, "min_gaps_total_flow", total_flow=f)
                assert v == best
            except InfeasibleError:
                assert best == 10**9

            def score_max(a):
                st = stats_of(inst, a)
                return st.gap_count if st.max_flow <= f else 10**9
            best = min(enumerate_values(inst, score_max, slot_limit=limit))
            try:
                v, sched = oracle_solve(inst, "min_gaps_max_flow", max_flow=f)
                assert v == best
                st = stats_of(inst, sched.assignment)
                assert st.gap_count == v
                assert st.max_flow <= f
            except InfeasibleError:
                assert best == 10**9

    def test_max_flow_infeasibility_witness(self):
        """The witness is the first job, in release order, that
        left-packing starts past the bound."""
        with pytest.raises(InfeasibleError) as err:
            oracle_min_gaps_max_flow(release_instance([0, 0, 0]), 1)
        assert err.value.witness == 2
        with pytest.raises(InfeasibleError) as err:
            oracle_min_gaps_max_flow(release_instance([5, 0, 1, 1, 9]), 0)
        assert err.value.witness == 2

    def test_negative_gap_budget_refused(self):
        for fn in (oracle_min_total_flow, oracle_min_max_flow):
            with pytest.raises(GapSchedError):
                fn(release_instance([0]), -1)

    def test_slot_universe_is_wide_enough(self):
        """Doubling the slot bound never improves the optimum."""
        rng = random.Random(9)
        for _ in range(25):
            releases = sorted(rng.randrange(8) for _ in range(rng.randint(1, 4)))
            inst = release_instance(releases)
            wide = max(releases) + 2 * len(releases)
            for g in (0, 1):
                for combine in (np.add, np.maximum):
                    base, _ = oracle._solve_flow(inst, g, combine)
                    wide_v, _ = oracle._solve_flow(inst, g, combine, limit=wide)
                    assert base == wide_v


class TestOracleInvariances:
    def test_translation_invariance(self):
        rng = random.Random(10)
        for _ in range(20):
            inst = make_instance(random_windows(rng, 3, 6))
            shifted = Instance(tuple(Job(j.id, j.release + 13, j.deadline + 13)
                                     for j in inst.jobs))
            for obj in ("min_gaps", "max_gaps", "min_max_gap"):
                try:
                    v1, _ = oracle_solve(inst, obj)
                except InfeasibleError:
                    with pytest.raises(InfeasibleError):
                        oracle_solve(shifted, obj)
                    continue
                v2, _ = oracle_solve(shifted, obj)
                assert v1 == v2

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(20):
            windows = random_windows(rng, 4, 7)
            inst = make_instance(windows)
            perm = list(range(4))
            rng.shuffle(perm)
            relabeled = Instance(tuple(
                Job(f"x{i}", *windows[p]) for i, p in enumerate(perm)))
            for obj in ("min_gaps", "max_gaps"):
                try:
                    v1, s1 = oracle_solve(inst, obj)
                except InfeasibleError:
                    continue
                v2, s2 = oracle_solve(relabeled, obj)
                assert v1 == v2
                assert s1.busy_slots() == s2.busy_slots()


class TestCaps:
    def test_job_cap(self):
        inst = make_instance([(i, i) for i in range(9)])
        with pytest.raises(OracleCapError):
            oracle_solve(inst, "min_gaps")

    def test_slot_cap(self):
        inst = make_instance([(0, 30)])
        with pytest.raises(OracleCapError):
            oracle_solve(inst, "min_gaps")

    def test_flow_cap(self):
        with pytest.raises(OracleCapError):
            oracle_min_total_flow(release_instance([0, 16]), 1)

    def test_patched_caps(self, monkeypatch):
        monkeypatch.setattr(oracle, "DEFAULT_JOB_CAP", 10)
        monkeypatch.setattr(oracle, "DEFAULT_SLOT_CAP", 40)
        inst = make_instance([(0, 30)])
        v, _ = oracle_solve(inst, "min_gaps")
        assert v == 0


class TestGapBudgetType:
    @pytest.mark.parametrize("objective, inst", [
        ("max_throughput", make_instance([(3 * i, 3 * i) for i in range(4)])),
        ("min_total_flow", release_instance([0, 3, 6, 9])),
        ("min_max_flow", release_instance([0, 3, 6, 9])),
    ], ids=["throughput", "total_flow", "max_flow"])
    def test_fractional_budget_refused(self, objective, inst):
        # 1.5 and 2.0 reached the tables as floats: a bare TypeError or
        # IndexError instead of GapSchedError.
        for gaps in (1.5, 2.0):
            with pytest.raises(GapSchedError, match="not an integer"):
                oracle_solve(inst, objective, gaps=gaps)
        assert oracle_solve(inst, objective, gaps=np.int64(2))[0] == \
            oracle_solve(inst, objective, gaps=2)[0]

    @pytest.mark.parametrize("threshold", ["2", None, 1.5, 2.0])
    def test_non_integer_threshold_refused(self, threshold):
        # "2" and None (the default of min_throughput) raised a bare
        # TypeError; 1.5 was answered as 2.
        inst = make_instance([(3 * i, 3 * i) for i in range(4)])
        with pytest.raises(GapSchedError, match="not an integer"):
            oracle_solve(inst, "min_gaps_throughput", min_throughput=threshold)
        assert oracle_solve(inst, "min_gaps_throughput", min_throughput=np.int64(2))[0] == \
            oracle_solve(inst, "min_gaps_throughput", min_throughput=2)[0] == 1

    @pytest.mark.parametrize("objective", ["total_flow", "max_flow"])
    def test_non_integer_flow_bound_refused(self, objective):
        # 2.5 was answered with 0 gaps on these releases.
        inst = release_instance([0, 0, 1, 3])
        for bound in (2.5, Fraction(5, 2)):
            with pytest.raises(GapSchedError,
                               match=re.escape(f"flow bound {bound!r} is not an integer")):
                oracle_solve(inst, f"min_gaps_{objective}", **{objective: bound})
        assert oracle_solve(inst, f"min_gaps_{objective}", **{objective: np.int64(2)})[0] == \
            oracle_solve(inst, f"min_gaps_{objective}", **{objective: 2})[0]


class TestSelfChecks:
    """The oracles check their own witnesses with errors that survive
    ``python -O``."""

    @pytest.mark.parametrize("objective", ["min_gaps", "max_gaps", "min_max_gap"])
    def test_unschedulable_busy_set(self, monkeypatch, objective):
        monkeypatch.setattr(oracle, "edf_schedule_busy_set", lambda inst, busy: None)
        inst = make_instance([(0, 2), (1, 3)])
        with pytest.raises(GapSchedError, match="admits no schedule"):
            oracle_solve(inst, objective)
