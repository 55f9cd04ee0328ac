"""Core model: normalization, EDF feasibility, gap stats, block shifting."""

import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gapsched import core, hitting, oracle, throughput
from gapsched.core import (
    Constraints,
    Instance,
    Job,
    Schedule,
    certify,
    check_feasible,
    edf_schedule_busy_set,
    gap_stats,
    normalize_distinct,
    slot_union,
    validate,
)
from gapsched.errors import GapSchedError
from gapsched.max_gaps import max_gaps
from gapsched.min_gaps import min_gaps

from helpers import (
    all_window_multisets,
    edf_reference,
    enumerate_schedules,
    hall_witness_rows,
    job,
    make_instance,
    normalize_distinct_reference,
    random_feasible_normalized,
    random_raw_windows,
    random_windows,
    release_instance,
    slots_in,
)


def sched(inst, slots_by_id):
    return Schedule(inst, dict(slots_by_id))


def by_id(res):
    """The jobs of a normalized instance by id, in deadline order."""
    return {j.id: j for j in res.instance.jobs}


def raw_jobs(rng, n):
    """n jobs with heavy release and deadline ties, some windows collapsed
    (deadline before release), coordinates on both sides of 0, ids mixed
    int and str, weights 0-5, in shuffled input order."""
    horizon = rng.randint(1, 2 * n)
    base = rng.randint(-40, 40)
    reach = rng.choice([2, 5, horizon])
    jobs = []
    for i in range(n):
        r = base + rng.randrange(horizon)
        jobs.append(Job(f"j{i}" if rng.random() < 0.5 else i, r,
                        r + rng.randint(-3, reach), rng.randint(0, 5)))
    rng.shuffle(jobs)
    return Instance(tuple(jobs))


def window_jobs(rng, n):
    """n windows without collapse on a horizon of n / 2 to 2n: about half
    of them infeasible."""
    return make_instance(random_windows(rng, n, rng.randint(n // 2, 2 * n)))


def tight_instance(n):
    """n uniform windows on 0.9 n slots: infeasible, with many ties."""
    return make_instance(random_windows(random.Random(n), n, n * 9 // 10))


def hall_witness_scan(inst):
    """The narrowest window [u, v] holding more whole job windows than its
    max(0, v - u + 1) slots, ties to the smallest u, by counting the jobs
    of every (release, deadline) pair; the reference for
    ``core._hall_witness``."""
    best = None
    for u in sorted({j.release for j in inst.jobs}):
        for v in sorted({j.deadline for j in inst.jobs}):
            c = sum(1 for j in inst.jobs if j.release >= u and j.deadline <= v)
            if c > max(0, v - u + 1):
                if best is None or (v - u) < (best[1] - best[0]):
                    best = (u, v)
    return best


class TestInstance:
    def test_by_release_orders_ties_by_deadline(self):
        inst = make_instance([(-2, 0), (-2, -1)])
        assert [j.id for j in inst.by_release] == [1, 0]

    @pytest.mark.parametrize("release, deadline", [
        (0, 0.5), (0.5, 3), (Fraction(1, 2), None), (3.0, 3)])
    def test_fractional_coordinates_rejected(self, release, deadline):
        # The solvers index integer slots: on Job(0, 0, 0.5), Job(1, 3, 3)
        # min_gaps raised a bare TypeError and min_max_gap a failed
        # certificate.
        with pytest.raises(ValueError, match="not an integer"):
            Job(0, release, deadline)

    def test_integral_types_accepted(self):
        inst = Instance((Job(0, np.int64(0), np.int32(1)), Job(1, 3, 3), Job(2, 4)))
        assert [j.release for j in inst.by_release] == [0, 3, 4]

    def test_orders_are_kept_tuples(self):
        inst = make_instance([(3, 5), (0, 7), (3, 4), (1, 4)])
        for name, key in (("by_release", lambda j: (j.release, j.deadline)),
                          ("by_deadline", lambda j: (j.deadline, j.release))):
            order = getattr(inst, name)
            assert isinstance(order, tuple)
            assert order == tuple(sorted(inst.jobs, key=key))
            assert getattr(inst, name) is order

    def test_kept_orders_leave_eq_hash_and_repr(self):
        windows = [(3, 5), (0, 7), (3, 4)]
        inst, fresh = make_instance(windows), make_instance(windows)
        before = (hash(inst), repr(inst))
        _ = inst.by_release, inst.by_deadline
        assert (hash(inst), repr(inst)) == before
        assert inst == fresh and hash(inst) == hash(fresh)
        # A replaced instance sorts its own jobs, not the old ones.
        moved = replace(inst, jobs=(Job(9, -1, 0), *inst.jobs))
        assert [j.id for j in moved.by_release] == [9, 1, 2, 0]
        assert [j.id for j in moved.by_deadline] == [9, 2, 0, 1]

    @pytest.mark.parametrize("make, field", [
        (lambda v: Job(0, v, 2), "release"),
        (lambda v: Job(0, 0, v), "deadline"),
        (lambda v: Job(0, 0, 2, v), "weight"),
        (lambda v: hitting.Interval(0, v, 2), "start"),
        (lambda v: hitting.Interval(0, 0, v), "end"),
        (lambda v: hitting.Interval(0, 0, 2, v), "weight"),
    ], ids=["job-release", "job-deadline", "job-weight",
            "interval-start", "interval-end", "interval-weight"])
    def test_bool_refused_numpy_integer_accepted(self, make, field):
        # Job(0, 1, 2, True) and Interval(0, True, 2) used to construct,
        # while require_count refused the same bool as a budget.
        for value in (True, False):
            with pytest.raises(ValueError, match=f"{field} {value} is not an integer"):
                make(value)
        assert getattr(make(np.int64(1)), field) == 1


class TestJobArrays:
    def test_columns_and_inverse_orders(self):
        rng = random.Random(83)
        for _ in range(200):
            inst = make_instance(random_raw_windows(rng, rng.randint(0, 12), 10))
            jobs = inst.by_deadline
            rel, dl, order, rank = core.job_arrays(jobs)
            assert rel.dtype == dl.dtype == np.int64
            assert rel.tolist() == [j.release for j in jobs]
            assert dl.tolist() == [j.deadline for j in jobs]
            assert order[rank].tolist() == rank[order].tolist() == list(range(len(jobs)))
            # Stable: tied releases stay in deadline order.
            assert [(rel[i], i) for i in order] == sorted(zip(rel, range(len(jobs))))

    def test_release_order_is_by_release(self):
        # The DPs' release order and Instance.by_release agree, sentinels
        # included, on normalized instances and on raw ones with ties.
        rng = random.Random(89)
        for _ in range(200):
            raw = make_instance(random_raw_windows(rng, rng.randint(1, 12), 10))
            for inst in (raw, normalize_distinct(raw).instance):
                if not inst.jobs:
                    continue
                jobs = core.augment(inst)
                order = core.job_arrays(jobs)[2]
                assert [jobs[i] for i in order] == list(Instance(tuple(jobs)).by_release)


class TestNormalizeDistinct:
    def test_release_tie_pushes_later_deadline_job(self):
        inst = make_instance([(0, 2), (0, 3)])
        res = normalize_distinct(inst)
        assert by_id(res)[0] == Job(0, 0, 2)
        assert by_id(res)[1] == Job(1, 1, 3)
        assert not res.removed

    def test_deadline_tie_pulls_earlier_release_job(self):
        inst = make_instance([(0, 5), (1, 5)])
        res = normalize_distinct(inst)
        assert by_id(res)[0] == Job(0, 0, 4)
        assert by_id(res)[1] == Job(1, 1, 5)

    def test_collapsing_window_is_removed(self):
        inst = make_instance([(2, 2), (2, 2)])
        res = normalize_distinct(inst)
        assert len(res.removed) == 1
        assert len(res.instance) == 1
        assert res.instance.jobs[0] == Job(0, 2, 2)

    def test_cascaded_ties_keep_smallest_deadline_in_place(self):
        inst = make_instance([(0, 9), (0, 5), (1, 6)])
        res = normalize_distinct(inst)
        assert by_id(res)[1] == Job(1, 0, 5)
        assert by_id(res)[2] == Job(2, 1, 6)
        assert by_id(res)[0] == Job(0, 2, 9)

    def test_output_sorted_and_distinct(self):
        rng = random.Random(7)
        for _ in range(200):
            inst = make_instance(random_windows(rng, rng.randint(1, 7), 9))
            res = normalize_distinct(inst)
            out = res.instance
            assert out.releases_distinct()
            assert out.deadlines_distinct()
            ds = [j.deadline for j in out.jobs]
            assert ds == sorted(ds)
            for j in out.jobs:
                assert j.release <= j.deadline

    def test_busy_slot_sets_preserved(self):
        """The achievable busy-slot sets are in bijection before and after
        normalization (modulo removed jobs)."""
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            n = rng.randint(2, 4)
            inst = make_instance(random_windows(rng, n, 6))
            res = normalize_distinct(inst)
            if res.removed:
                continue
            checked += 1
            before = {tuple(sorted(a.values()))
                      for a in enumerate_schedules(inst)}
            after = {tuple(sorted(a.values()))
                     for a in enumerate_schedules(res.instance)}
            assert before == after

    @staticmethod
    def assert_matches_reference(inst):
        got, ref = normalize_distinct(inst), normalize_distinct_reference(inst)
        assert got.instance.jobs == ref.instance.jobs
        assert list(by_id(got).items()) == list(by_id(ref).items())
        assert got.removed == ref.removed
        return got

    def test_matches_reference(self):
        """The one-sweep passes give the jobs and the removed list, in
        order, of the slot-by-slot heap they replaced."""
        rng = random.Random(29)
        removed = 0
        for _ in range(2000):
            got = self.assert_matches_reference(raw_jobs(rng, rng.randint(1, 60)))
            removed += bool(got.removed)
        assert removed > 500

    def test_empty_window_is_removed_at_its_release(self):
        # The job with window [3, 1] was kept, with removed empty, and
        # min_gaps on the result raised InfeasibleError.
        res = normalize_distinct(Instance((Job(0, 3, 1), Job(1, 0, 4))))
        assert res.removed == (Job(0, 3, 1),)
        assert res.instance.jobs == (Job(1, 0, 4),)

    def test_empty_windows_take_no_slot(self):
        """Jobs with d < r are removed at their own windows and change
        nothing else: the jobs and the other removals are those of the
        instance without them."""
        rng = random.Random(41)
        inverted = 0
        for _ in range(2000):
            inst = raw_jobs(rng, rng.randint(1, 60))
            empty = [j for j in inst.jobs if j.deadline < j.release]
            inverted += bool(empty)
            got = normalize_distinct(inst)
            rest = normalize_distinct(Instance(tuple(j for j in inst.jobs if j not in empty)))
            assert got.instance == rest.instance
            assert list(by_id(got).items()) == list(by_id(rest).items())
            assert [j for j in got.removed if j not in empty] == list(rest.removed)
            assert set(empty) <= set(got.removed)
            assert all(j.release <= j.deadline for j in got.instance.jobs)
        assert inverted > 500

    @pytest.mark.parametrize("n", [400, 700, 1000])
    def test_matches_reference_at_scale(self, n):
        self.assert_matches_reference(tight_instance(n))
        self.assert_matches_reference(raw_jobs(random.Random(n), n))

    def test_peak_memory(self):
        # Within 10% of the slot-by-slot heap's tracemalloc peak here, 2.215
        # MiB, which built every job three times.
        inst = tight_instance(4000)
        normalize_distinct(inst)
        tracemalloc.start()
        try:
            normalize_distinct(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * 2.215 * 2**20, peak


class TestCheckFeasible:
    def test_two_tight_jobs_feasible(self):
        res = check_feasible(make_instance([(0, 0), (0, 1)]))
        assert res.feasible
        assert res.schedule.assignment == {0: 0, 1: 1}

    def test_duplicate_tight_jobs_infeasible(self):
        res = check_feasible(make_instance([(0, 0), (0, 0)]))
        assert not res.feasible
        assert res.witness == (0, 0)

    def test_pigeonhole_witness(self):
        inst = make_instance([(0, 2), (0, 2), (1, 2), (0, 1)])
        res = check_feasible(inst)
        assert not res.feasible
        u, v = res.witness
        inside = sum(1 for j in inst.jobs if j.release >= u and j.deadline <= v)
        assert inside > max(0, v - u + 1)
        # Two jobs on slot 0 overfill (0, 0); the empty inverted window
        # (5, 0) is no witness.
        assert check_feasible(make_instance([(0, 0), (0, 0), (5, 5)])).witness == (0, 0)
        # A collapsed job window is its own witness.
        assert check_feasible(make_instance([(3, 1), (0, 4)])).witness == (3, 1)

    def test_witness_matches_full_scan(self):
        rng = random.Random(17)
        infeasible = 0
        for _ in range(600):
            inst = make_instance(random_raw_windows(rng, rng.randint(1, 9), 6))
            expect = hall_witness_scan(inst)
            res = check_feasible(inst)
            assert res.feasible == (expect is None)
            if expect is None:
                with pytest.raises(GapSchedError):
                    core._hall_witness(inst)
            else:
                infeasible += 1
                assert res.witness == expect
        assert infeasible > 200
        with pytest.raises(GapSchedError):
            core._hall_witness(Instance(()))

    def test_witness_matches_scans_at_scale(self):
        """The row-block counts against the full scan for n = 20-120, and
        against the per-release walk on more and larger instances."""
        rng = random.Random(31)
        for n in range(20, 121, 10):
            inst = make_instance(random_windows(rng, n, n * 9 // 10))
            expect = hall_witness_scan(inst)
            assert expect is not None
            assert core._hall_witness(inst) == expect
        infeasible = 0
        for _ in range(150):
            inst = window_jobs(rng, rng.randint(20, 120))
            expect = hall_witness_rows(inst)
            infeasible += expect is not None
            assert check_feasible(inst).witness == expect
        assert infeasible > 50
        # With collapsed windows, the narrowest collapsed one.
        for _ in range(30):
            inst = raw_jobs(rng, rng.randint(20, 120))
            assert check_feasible(inst).witness == hall_witness_rows(inst)
        inst = tight_instance(400)
        assert check_feasible(inst).witness == hall_witness_rows(inst)

    @pytest.mark.parametrize("block_bytes", [8, 1 << 10, 1 << 30])
    def test_witness_independent_of_block_size(self, monkeypatch, block_bytes):
        # One row a block, a few rows, and every row in one block.
        monkeypatch.setattr(core, "_BLOCK_BYTES", block_bytes)
        rng = random.Random(37)
        for _ in range(40):
            inst = window_jobs(rng, rng.randint(20, 120))
            assert check_feasible(inst).witness == hall_witness_rows(inst)
        # Equally narrow windows in every block: the smallest u wins.
        twins = make_instance([(10 * k, 10 * k) for k in range(300) for _ in range(2)])
        assert check_feasible(twins).witness == (0, 0)

    @pytest.mark.parametrize("base", [2**70, -2**80, 2**63 - 2])
    def test_witness_beyond_int64(self, base):
        # Distances above n + 1 are shortened before counting in int64.
        inst = make_instance([(0, 1), (1, 1), (0, 2), (base, base), (base, base + 1),
                              (base + 1, base + 1), (2 * base, 2 * base)])
        assert check_feasible(inst).witness == (base, base + 1)
        assert hall_witness_scan(inst) == (base, base + 1)

    def test_witness_peak_memory(self):
        # Within 10% of the per-release walk's tracemalloc peak here, 0.654
        # MiB; an n x n array of counts would take 128 MB.
        inst = tight_instance(4000)
        check_feasible(inst)
        tracemalloc.start()
        try:
            res = check_feasible(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not res.feasible
        assert peak < 1.1 * 0.654 * 2**20, peak

    def test_edf_schedule_validates(self):
        rng = random.Random(3)
        for _ in range(200):
            inst = make_instance(random_windows(rng, rng.randint(1, 6), 10))
            res = check_feasible(inst)
            if res.feasible:
                assert validate(res.schedule, inst,
                                Constraints(require_all=True)) == []

    def test_edf_agrees_with_hall_condition(self):
        """EDF feasibility coincides with the Hall-style counting condition;
        exhaustive on tiny instances, sampled above that."""
        for windows in all_window_multisets(3, 5):
            inst = make_instance(windows)
            assert check_feasible(inst).feasible == (hall_witness_scan(inst) is None)
        rng = random.Random(11)
        for _ in range(400):
            inst = make_instance(random_windows(rng, rng.randint(1, 6), 10))
            assert check_feasible(inst).feasible == (hall_witness_scan(inst) is None)


class TestEdf:
    def test_matches_reference(self):
        """The sweep assigns every job to the slot of the one-loop EDF it
        replaced, in the same order, with and without prescribed slots and
        with deadline-less jobs: the tie rule that check_feasible's
        schedules and the min-gaps witnesses rest on."""
        rng = random.Random(43)
        for trial in range(3000):
            horizon = rng.randint(1, 15)
            jobs = []
            for i in range(rng.randint(0, 12)):
                r = rng.randrange(horizon)
                d = None if rng.random() < 0.2 else r + rng.randint(-2, 6)
                jobs.append(Job(i, r, d))
            inst = Instance(tuple(jobs))
            slots = None if trial % 2 else [rng.randrange(-1, horizon + 6)
                                            for _ in range(rng.randint(0, 12))]
            got, ref = core._edf(inst, slots), edf_reference(inst, slots)
            assert list(got.items()) == list(ref.items())


class TestGapStats:
    def test_contiguous(self):
        inst = make_instance([(0, 2), (0, 2), (0, 2)])
        stats = gap_stats(sched(inst, {0: 0, 1: 1, 2: 2}))
        assert (stats.gap_count, stats.max_idle, stats.max_separation) == (0, 0, 1)

    def test_single_gap(self):
        inst = make_instance([(0, 0), (0, 4)])
        stats = gap_stats(sched(inst, {0: 0, 1: 4}))
        assert (stats.gap_count, stats.max_idle, stats.max_separation) == (1, 3, 4)
        assert stats.total_flow == 4
        assert stats.max_flow == 4

    def test_two_gaps(self):
        inst = make_instance([(0, 5), (0, 5), (0, 5)])
        stats = gap_stats(sched(inst, {0: 0, 1: 2, 2: 5}))
        assert stats.gap_count == 2
        assert stats.max_idle == 2
        assert stats.max_separation == 3

    def test_empty_schedule_rejected(self):
        inst = make_instance([(0, 1)])
        with pytest.raises(GapSchedError):
            gap_stats(sched(inst, {}))

    def test_separation_is_idle_plus_one_when_gaps_exist(self):
        rng = random.Random(5)
        for _ in range(100):
            slots = sorted(rng.sample(range(12), rng.randint(2, 6)))
            inst = Instance(tuple(Job(i, 0, 12) for i in range(len(slots))))
            stats = gap_stats(sched(inst, dict(enumerate(slots))))
            if stats.gap_count >= 1:
                assert stats.max_separation == stats.max_idle + 1
            blocks = sched(inst, dict(enumerate(slots))).blocks()
            assert stats.gap_count == len(blocks) - 1

    def test_reading_busy_slots_keeps_equality(self):
        inst = make_instance([(0, 2), (0, 2)])
        s1, s2 = sched(inst, {0: 0, 1: 2}), sched(inst, {0: 0, 1: 2})
        assert s1.busy_slots() == (0, 2)
        assert s1 == s2

    def test_gaps_follow_a_changed_assignment(self):
        inst = make_instance([(0, 2), (0, 2)])
        s = sched(inst, {0: 0, 1: 2})
        assert s.gaps() == [(1, 1)]
        s.assignment[1] = 1
        assert s.busy_slots() == (0, 1)
        assert s.gaps() == []


class TestValidate:
    def test_clean(self):
        inst = make_instance([(0, 1), (1, 2)])
        assert validate(sched(inst, {0: 0, 1: 2}), inst) == []

    def test_before_release(self):
        inst = make_instance([(1, 3)])
        assert len(validate(sched(inst, {0: 0}), inst)) == 1

    def test_slot_collision(self):
        inst = make_instance([(0, 3), (0, 3)])
        assert len(validate(sched(inst, {0: 1, 1: 1}), inst)) == 1

    def test_constraint_checks(self):
        inst = make_instance([(0, 0), (0, 9)])
        s = sched(inst, {0: 0, 1: 5})
        assert validate(s, inst, Constraints(max_gaps=0)) != []
        assert validate(s, inst, Constraints(max_gaps=1)) == []
        assert validate(s, inst, Constraints(min_throughput=3)) != []

    def test_every_id_unknown(self):
        inst = make_instance([(0, 3), (1, 4)])
        s = sched(inst, {"x": 3})
        for c in [None, Constraints(require_all=True, max_gaps=0),
                  Constraints(min_throughput=1, weighted=True)]:
            assert "unknown job 'x'" in validate(s, inst, c)
        assert "throughput 0 below floor 1" in validate(
            s, inst, Constraints(min_throughput=1))
        # An unknown id does not stand in for a missing job.
        mixed = sched(inst, {"x": 3, 0: 1})
        assert "jobs not scheduled: [1]" in validate(
            mixed, inst, Constraints(require_all=True))


def shift_block_left(schedule: Schedule, block: tuple[int, int]) -> Schedule:
    """Shift one block a single slot to the left (the paper's block-shift
    lemma, executed).

    Re-permutes jobs inside the block along the chain i_1, i_2, ... where
    i_1 sits at the block's last slot and each subsequent job sits at the
    previous one's release time.  Requires distinct release times and that
    the job at the block's last slot is not at its own release.
    """
    inst = schedule.instance
    if not inst.releases_distinct():
        raise GapSchedError("shift_block_left requires distinct release times")
    u, v = block
    busy = set(schedule.busy_slots())
    if not all(t in busy for t in range(u, v + 1)):
        raise GapSchedError(f"[{u}, {v}] is not fully busy")
    if u - 1 in busy or v + 1 in busy:
        raise GapSchedError(f"[{u}, {v}] is not a maximal block")
    slot_to_job = {t: jid for jid, t in schedule.assignment.items()}
    rel = {j.id: j.release for j in inst.jobs}

    chain = [slot_to_job[v]]
    while rel[chain[-1]] >= u:
        nxt = slot_to_job[rel[chain[-1]]]
        if nxt == chain[-1]:
            raise GapSchedError(
                f"job {chain[-1]!r} is scheduled at its release; block cannot shift")
        chain.append(nxt)
    new_assignment = dict(schedule.assignment)
    for jid in chain[:-1]:
        new_assignment[jid] = rel[jid]
    new_assignment[chain[-1]] = u - 1
    return Schedule(inst, new_assignment)


class TestShiftBlockLeft:
    def test_simple_shift(self):
        inst = make_instance([(4, 9), (5, 9)])
        s = sched(inst, {0: 5, 1: 6})
        out = shift_block_left(s, (5, 6))
        assert sorted(out.assignment.values()) == [4, 5]
        assert validate(out, inst) == []

    def test_blocked_by_release(self):
        inst = make_instance([(5, 9), (6, 9)])
        s = sched(inst, {0: 5, 1: 6})
        with pytest.raises(GapSchedError, match="release"):
            shift_block_left(s, (5, 6))

    def test_chain_repermutation(self):
        # Jobs released at 1, 2, 3 in slots [3,5]; the chain walks from the
        # last slot through release positions and frees slot 5.
        inst = make_instance([(1, 9), (2, 9), (3, 9)])
        s = sched(inst, {0: 3, 1: 4, 2: 5})
        out = shift_block_left(s, (3, 5))
        assert sorted(out.assignment.values()) == [2, 3, 4]
        assert validate(out, inst) == []

    def test_gap_count_and_adjacent_gap_sizes(self):
        rng = random.Random(23)
        done = 0
        while done < 80:
            n = rng.randint(2, 5)
            releases = rng.sample(range(10), n)
            inst = Instance(tuple(Job(i, r, 30) for i, r in enumerate(releases)))
            busy = sorted(rng.sample(range(12, 25), n))
            s = edf_schedule_busy_set(inst, tuple(busy))
            if s is None:
                continue
            blocks = s.blocks()
            target = rng.choice(blocks)
            slot_to_job = {t: j for j, t in s.assignment.items()}
            last_job = job(inst, slot_to_job[target[1]])
            if last_job.release >= target[1] or target[0] - 2 in set(busy):
                continue
            done += 1
            out = shift_block_left(s, target)
            assert validate(out, inst) == []
            if len(blocks) > 1:
                assert gap_stats(out).gap_count == gap_stats(s).gap_count


class TestEdfScheduleBusySet:
    inst = make_instance([(0, 2), (1, 3), (1, 1)])

    def test_fills_a_matchable_set(self):
        s = edf_schedule_busy_set(self.inst, (0, 1, 2))
        assert s.assignment == {0: 0, 2: 1, 1: 2}

    @pytest.mark.parametrize("busy", [
        (-1, 1, 2),     # a busy slot before any release
        (0, 1),         # one slot too few
        (0, 1, 2, 3),   # one slot too many
        (0, 2, 3),      # the job with window [1, 1] would run late
        (0, 1, 1),      # a repeated slot cannot take two jobs
    ])
    def test_unmatchable_sets(self, busy):
        assert edf_schedule_busy_set(self.inst, busy) is None

    def test_release_only_jobs_in_release_order(self):
        inst = release_instance([3, 0, 0, 5])
        s = edf_schedule_busy_set(inst, (0, 4, 5, 9))
        assert s.assignment == {1: 0, 2: 4, 0: 5, 3: 9}
        assert edf_schedule_busy_set(inst, (0, 1, 2, 9)) is None


class TestCertify:
    inst = make_instance([(0, 3), (1, 4), (6, 8)])
    full = Constraints(require_all=True)

    def test_two_jobs_in_one_slot(self):
        with pytest.raises(GapSchedError, match="slot 1 assigned to both"):
            certify(sched(self.inst, {0: 1, 1: 1, 2: 6}), self.inst, self.full, 1,
                    "gap_count")

    def test_slot_outside_window(self):
        with pytest.raises(GapSchedError, match="after deadline"):
            certify(sched(self.inst, {0: 0, 1: 1, 2: 9}), self.inst, self.full, 1,
                    "gap_count")

    def test_missing_job_under_require_all(self):
        with pytest.raises(GapSchedError, match="not scheduled"):
            certify(sched(self.inst, {0: 0, 1: 1}), self.inst, self.full, 0,
                    "gap_count")

    def test_gap_budget_exceeded(self):
        with pytest.raises(GapSchedError, match="exceeds budget 1"):
            certify(sched(self.inst, {0: 0, 1: 3, 2: 6}), self.inst,
                    Constraints(max_gaps=1), 2, "gap_count")

    def test_claimed_value_off_by_one(self):
        s = sched(self.inst, {0: 0, 1: 1, 2: 6})
        for value, measure in [(0, "gap_count"), (4, "max_separation"),
                               (4, "count"), (2, "weight")]:
            with pytest.raises(GapSchedError, match=f"claimed {measure} {value}"):
                certify(s, self.inst, self.full, value, measure)

    def test_every_violation_is_listed(self):
        with pytest.raises(GapSchedError) as err:
            certify(sched(self.inst, {0: 1, 1: 1}), self.inst, self.full, 7,
                    "gap_count")
        msg = str(err.value)
        assert "slot 1 assigned to both" in msg
        assert "not scheduled" in msg
        assert "claimed gap_count 7" in msg

    def test_every_id_unknown(self):
        s = sched(self.inst, {"x": 3})
        for value, measure in [(0, "gap_count"), (0, "max_separation"),
                               (1, "count"), (0, "weight")]:
            with pytest.raises(GapSchedError, match="unknown job 'x'"):
                certify(s, self.inst, self.full, value, measure)

    def test_survives_optimize_flag(self):
        code = ("from gapsched.core import Constraints, Instance, Job, Schedule, certify\n"
                "inst = Instance((Job(0, 0, 3), Job(1, 1, 4)))\n"
                "try:\n"
                "    certify(Schedule(inst, {0: 1, 1: 1}), inst,\n"
                "            Constraints(require_all=True), 0, 'gap_count')\n"
                "except Exception as e:\n"
                "    print(type(e).__name__)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "GapSchedError"


def _witness(out):
    """A solver's answer as plain values: the value and the witness map."""
    value, wit = out if isinstance(out, tuple) else (None, out)
    return value, wit.assignment if isinstance(wit, Schedule) else wit.representatives


_TRIO = Instance((Job(0, 0, 0, 2), Job(1, 2, 2, 3), Job(2, 4, 4, 1)))
_RELEASES = release_instance([0, 0, 1, 3])
_INTERVALS = [hitting.Interval(i, 3 * i, 3 * i + 1) for i in range(4)]
# (entry point, its count's name, least legal value or None, rational or not):
# every public solver that takes a budget, threshold or bound.
COUNTED = [
    pytest.param(lambda x: throughput.max_throughput(_TRIO, x), "gap budget", 0, False,
                 id="max_throughput"),
    pytest.param(lambda x: throughput.min_gaps_for_throughput(_TRIO, x),
                 "throughput threshold", None, False, id="min_gaps_for_throughput"),
    pytest.param(lambda x: hitting.max_hit_budget(_INTERVALS, x), "point budget", 1, False,
                 id="max_hit_budget"),
    pytest.param(lambda x: hitting.min_hit_with_throughput(_INTERVALS, x),
                 "throughput threshold", None, False, id="min_hit_with_throughput"),
    pytest.param(lambda x: hitting.min_max_flow_cont([0, 0, 1, 3], x), "point budget", 1,
                 False, id="min_max_flow_cont"),
    pytest.param(lambda x: hitting.min_points_flow_bound([0, 0, 1, 3], x), "flow bound", 0,
                 True, id="min_points_flow_bound"),
    pytest.param(lambda x: oracle.oracle_max_throughput(_TRIO, x), "gap budget", 0, False,
                 id="oracle_max_throughput"),
    pytest.param(lambda x: oracle.oracle_min_gaps_throughput(_TRIO, x),
                 "throughput threshold", None, False, id="oracle_min_gaps_throughput"),
    pytest.param(lambda x: oracle.oracle_min_total_flow(_RELEASES, x), "gap budget", 0,
                 False, id="oracle_min_total_flow"),
    pytest.param(lambda x: oracle.oracle_min_max_flow(_RELEASES, x), "gap budget", 0,
                 False, id="oracle_min_max_flow"),
    pytest.param(lambda x: oracle.oracle_min_gaps_total_flow(_RELEASES, x), "flow bound",
                 0, False, id="oracle_min_gaps_total_flow"),
    pytest.param(lambda x: oracle.oracle_min_gaps_max_flow(_RELEASES, x), "flow bound", 0,
                 False, id="oracle_min_gaps_max_flow"),
    pytest.param(lambda x: oracle.oracle_solve(_TRIO, "max_throughput", gaps=x),
                 "gap budget", 0, False, id="oracle_solve"),
]


class TestRequireCount:
    @pytest.mark.parametrize("solve, name, least, rational", COUNTED)
    @pytest.mark.parametrize("value", [2.5, Fraction(5, 2), True, -1, np.int64(2)],
                             ids=["float", "fraction", "bool", "negative", "int64"])
    def test_every_entry_point(self, solve, name, least, rational, value):
        # A bool is refused everywhere: True is not the count 1.
        refused = "not rational" if rational else "not an integer"
        if isinstance(value, bool) or isinstance(value, float) or (
                isinstance(value, Fraction) and not rational):
            with pytest.raises(GapSchedError, match=f"{name} .* is {refused}"):
                solve(value)
        elif value == -1 and least is not None:
            with pytest.raises(GapSchedError, match=f"{name} must be"):
                solve(value)
        elif value == -1:  # a threshold of at most 0 asks for nothing
            assert _witness(solve(value)) == (0, {})
        elif isinstance(value, Fraction):  # a bound may be a fraction
            assert _witness(solve(value)) == (None, {0: Fraction(5, 2), 1: Fraction(5, 2),
                                                     2: Fraction(5, 2), 3: Fraction(11, 2)})
        else:
            assert _witness(solve(value)) == _witness(solve(2))

    @pytest.mark.parametrize("minimum, value, message", [
        (0, -1, "gap budget must be non-negative, got -1"),
        (1, 0, "gap budget must be positive, got 0"),
        (3, 2, "gap budget must be at least 3, got 2"),
    ])
    def test_minimum_message(self, minimum, value, message):
        core.require_count("gap budget", value + 1, minimum)
        with pytest.raises(GapSchedError, match=f"^{message}$"):
            core.require_count("gap budget", value, minimum)


def small_level_blocks():
    """Keys 5 and 7.  Level 0: rows 0-2, one column; level 1: rows 0-1,
    columns 1-2; level 2: row 0, columns 2-3."""
    blocks = core.LevelBlocks("test tables", np.int16, 100, [5, 7],
                              [3, 2, 1], [0, 1, 2], [1, 3, 4])
    blocks.block(0)[:, 0] = [10, 11, 12]
    blocks.block(1)[...] = [[20, 21], [22, 23]]
    blocks.block(2)[...] = [[30, 31]]
    return blocks


class TestLevelBlocks:
    def test_blocks_are_views_of_one_store(self):
        blocks = small_level_blocks()
        assert blocks.store.dtype == np.int16
        assert blocks.store.tolist() == [10, 11, 12, 20, 21, 22, 23, 30, 31]

    def test_level_zero_column_serves_every_column(self):
        blocks = small_level_blocks()
        assert blocks.block(0).shape == (3, 1)
        assert [[blocks.cell(0, u, v) for v in range(5)] for u in range(3)] == \
            [[10] * 5, [11] * 5, [12] * 5]

    def test_cell_clamps_at_the_last_column(self):
        blocks = small_level_blocks()
        assert [blocks.cell(1, 1, v) for v in (1, 2, 3, 9)] == [22, 23, 23, 23]
        assert [blocks.cell(2, 0, v) for v in (2, 3, 4, 9)] == [30, 31, 31, 31]

    @pytest.mark.parametrize("k, lo, hi, last", [
        (2, 5, 7, 2), (2, 7, 7, 2), (2, 5, 6, 1), (2, 5, 5, 1), (1, 5, 9, 1),
        (1, 6, 9, 0), (2, 8, 9, 0), (2, 6, 6, 0), (2, 0, 4, 0), (0, 0, 9, 0),
    ])
    def test_last_inside_bounds_are_inclusive(self, k, lo, hi, last):
        assert small_level_blocks().last_inside(k, lo, hi) == last

    def test_store_and_working_table_checked_together(self, monkeypatch):
        # 9 stored int16 cells and a working table of 100 bytes.
        monkeypatch.setattr(core, "TABLE_CAP", 118)
        small_level_blocks()
        monkeypatch.setattr(core, "TABLE_CAP", 117)
        with pytest.raises(GapSchedError, match="^test tables would take 118 bytes"):
            small_level_blocks()


def random_ranges(rng, n):
    """n ranges [lo, hi] around 0, in no order: anywhere, nested in an
    earlier one, adjacent to one on either side, or empty (hi < lo)."""
    ranges = []
    for _ in range(n):
        kind = rng.randrange(4) if ranges else 0
        if kind == 0:
            lo = rng.randint(-60, 60)
            hi = lo + rng.randint(-3, 25)
        elif kind == 1:
            a, b = rng.choice(ranges)
            lo = rng.randint(a, max(a, b))
            hi = rng.randint(lo - 1, max(lo, b))
        elif kind == 2:
            a, b = rng.choice(ranges)
            width = rng.randint(0, 8)
            lo, hi = (b + 1, b + 1 + width) if rng.random() < 0.5 else (a - 1 - width, a - 1)
        else:
            lo = rng.randint(-60, 60)
            hi = lo - rng.randint(1, 5)
        ranges.append((lo, hi))
    return ranges


def union(ranges, what="test slots", bytes_per_slot=8):
    lo, hi = (np.array([r[i] for r in ranges], dtype=np.int64) for i in (0, 1))
    return slot_union(lo, hi, what, bytes_per_slot)


class TestSlotUnion:
    def test_matches_the_set_of_slots(self):
        rng = random.Random(67)
        empty = negative = unsorted = 0
        for _ in range(3000):
            ranges = random_ranges(rng, rng.randint(0, 30))
            got = union(ranges)
            assert got.dtype == np.int64
            assert got.tolist() == slots_in(ranges), ranges
            empty += any(hi < lo for lo, hi in ranges)
            negative += any(lo < 0 for lo, _ in ranges)
            unsorted += ranges != sorted(ranges)
        assert min(empty, negative, unsorted) > 1000

    @pytest.mark.parametrize("ranges, slots", [
        ([], []),
        ([(3, 2)], []),
        ([(5, 9), (6, 7)], [5, 6, 7, 8, 9]),          # nested
        ([(4, 5), (1, 3)], [1, 2, 3, 4, 5]),          # adjacent, unsorted
        ([(-3, -2), (0, 0), (-9, -10)], [-3, -2, 0]),  # disjoint, negative, empty
        ([(0, 4), (2, 8), (2, 1)], list(range(9))),   # overlapping, empty at a tie
    ])
    def test_examples(self, ranges, slots):
        assert union(ranges).tolist() == slots

    def test_cap_counts_the_union(self, monkeypatch):
        ranges = [(0, 9), (5, 14), (20, 20), (30, 29)]    # 16 slots
        monkeypatch.setattr(core, "TABLE_CAP", 48)
        assert len(union(ranges, "test slots", 3)) == 16
        monkeypatch.setattr(core, "TABLE_CAP", 47)
        with pytest.raises(GapSchedError, match="^test slots would take 48 bytes"):
            union(ranges, "test slots", 3)

    def test_refused_before_listing(self, monkeypatch):
        # 2000 ranges of 10**8 slots would list 1.6 TB of slots.
        def no_listing(starts, counts):
            raise AssertionError("slots listed before the table check")

        monkeypatch.setattr(core, "_ranges", no_listing)
        ranges = [(i * 10**9, i * 10**9 + 10**8 - 1) for i in range(2000)]
        tracemalloc.start()
        try:
            with pytest.raises(GapSchedError, match=f"^test slots would take {16 * 10**11} bytes"):
                union(ranges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_throughput_candidate_slots(self):
        rng = random.Random(71)
        for _ in range(200):
            n = rng.randint(1, 12)
            inst = random_feasible_normalized(rng, n, rng.randint(n, 40 * n))
            if inst is None:
                continue
            win = throughput._Windows(inst)
            assert win.slots.tolist() == slots_in((j.release - n - 1, j.release + n + 1)
                                                  for j in inst.jobs)

    def test_distinct(self):
        rng = random.Random(73)
        for n in range(40):
            a = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=np.int64)
            assert core.distinct(a.copy()).tolist() == sorted(set(a.tolist()))


class TestSentinels:
    def test_sentinels_equal_no_other_id(self):
        assert core.START is not core.END and core.START != core.END
        for jid in ("__start__", "__end__", "<start>", "<end>", 0, None):
            assert jid not in (core.START, core.END)
        assert (repr(core.START), repr(core.END)) == ("<start>", "<end>")

    @pytest.mark.parametrize("jid", ["__start__", "__end__", "<start>", "<end>"])
    def test_user_id_spelled_like_a_sentinel(self, jid):
        # With the string sentinels "__start__" and "__end__", min_gaps
        # refused "__end__" as a duplicate id and max_gaps dropped its job.
        rng = random.Random(79)
        instances = [Instance((Job(jid, 0, 1), Job(1, 3, 4), Job(2, 6, 6)))]
        while len(instances) < 25:
            inst = random_feasible_normalized(rng, rng.randint(1, 6), 12)
            if inst is not None:
                first, *rest = inst.jobs
                instances.append(Instance((Job(jid, first.release, first.deadline), *rest)))
        for inst in instances:
            for solve, exhaustive in ((min_gaps, oracle.oracle_min_gaps),
                                      (max_gaps, oracle.oracle_max_gaps)):
                value, sched = solve(inst)
                assert value == exhaustive(inst)[0], (solve.__name__, inst)
                assert validate(sched, inst, Constraints(require_all=True)) == []
