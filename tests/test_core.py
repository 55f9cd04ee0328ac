"""Core model: normalization, EDF feasibility, gap stats, block shifting."""

import os
import random
import subprocess
import sys
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
    validate,
)
from gapsched.errors import GapSchedError

from helpers import (
    all_window_multisets,
    enumerate_schedules,
    job,
    make_instance,
    random_raw_windows,
    random_windows,
    release_instance,
)


def sched(inst, slots_by_id):
    return Schedule(inst, dict(slots_by_id))


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
        assert [j.id for j in inst.by_release()] == [1, 0]

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
        assert [j.release for j in inst.by_release()] == [0, 3, 4]

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


class TestNormalizeDistinct:
    def test_release_tie_pushes_later_deadline_job(self):
        inst = make_instance([(0, 2), (0, 3)])
        res = normalize_distinct(inst)
        assert res.remap[0] == Job(0, 0, 2)
        assert res.remap[1] == Job(1, 1, 3)
        assert not res.removed

    def test_deadline_tie_pulls_earlier_release_job(self):
        inst = make_instance([(0, 5), (1, 5)])
        res = normalize_distinct(inst)
        assert res.remap[0] == Job(0, 0, 4)
        assert res.remap[1] == Job(1, 1, 5)

    def test_collapsing_window_is_removed(self):
        inst = make_instance([(2, 2), (2, 2)])
        res = normalize_distinct(inst)
        assert len(res.removed) == 1
        assert len(res.instance) == 1
        assert res.instance.jobs[0] == Job(0, 2, 2)

    def test_cascaded_ties_keep_smallest_deadline_in_place(self):
        inst = make_instance([(0, 9), (0, 5), (1, 6)])
        res = normalize_distinct(inst)
        assert res.remap[1] == Job(1, 0, 5)
        assert res.remap[2] == Job(2, 1, 6)
        assert res.remap[0] == Job(0, 2, 9)

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
