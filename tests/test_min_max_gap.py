"""Minimum maximum separation: oracle equivalence and the ceil(lambda) path."""

import math
import random

import pytest

from gapsched.core import Constraints, Instance, Job, gap_stats, validate
from gapsched.errors import GapSchedError
from gapsched.hitting import Interval, SeparationGreedy, min_max_gap_cont
from gapsched.min_max_gap import min_max_gap, separation_schedule
from gapsched.oracle import oracle_solve

from helpers import planted_normalized, random_feasible_normalized


def continuous_bound(inst):
    intervals = [Interval(j.id, j.release, j.deadline) for j in inst.jobs]
    return min_max_gap_cont(intervals)[0]


class TestSmallCases:
    def test_no_jobs(self):
        value, sched = min_max_gap(Instance(()))
        assert value == 0
        assert sched.assignment == {}

    def test_one_job(self):
        inst = Instance((Job("a", 3, 7),))
        value, sched = min_max_gap(inst)
        assert value == 0
        assert validate(sched, inst, Constraints(require_all=True)) == []


    @pytest.mark.parametrize("windows", [[(3, 2), (0, 5)], [(3, None), (0, None)]])
    def test_separation_schedule_refuses_a_job_with_no_window(self, windows):
        # The greedy reads each job's window as is, so a deadline before
        # the release, or none, is refused before it runs.
        inst = Instance(tuple(Job(i, r, d) for i, (r, d) in enumerate(windows)))
        with pytest.raises(GapSchedError, match="deadline at or after its release"):
            separation_schedule(inst, 3)


class TestOracleEquivalence:
    def test_matches_exhaustive_minimum(self):
        rng = random.Random(41)
        done = 0
        while done < 150:
            n = rng.randint(1, 7)
            inst = random_feasible_normalized(rng, n, rng.choice((n, 2 * n)))
            if inst is None:
                continue
            done += 1
            expect, _ = oracle_solve(inst, "min_max_gap")
            value, sched = min_max_gap(inst)
            assert value == expect, inst
            assert validate(sched, inst, Constraints(require_all=True)) == []
            assert gap_stats(sched).max_separation == value


class TestContinuousBound:
    """min_max_gap bisects the integers with the integer greedy and never
    computes lambda; min_max_gap_cont bisects the rationals and snaps to a
    fraction.  Agreement checks one path against the other."""

    def test_value_is_rounded_continuous_optimum(self):
        rng = random.Random(43)
        done = 0
        while done < 300:
            n = rng.randint(2, 40)
            inst = random_feasible_normalized(rng, n, rng.choice((n, 2 * n, 4 * n)))
            if inst is None:
                continue
            done += 1
            value, sched = min_max_gap(inst)
            assert value == max(1, math.ceil(continuous_bound(inst))), inst
            assert gap_stats(sched).max_separation == value


class TestProbes:
    def test_integer_bisection_depth(self, monkeypatch):
        # One probe per halving of [1, H], one for the schedule.
        rng = random.Random(47)
        probes = []
        real = SeparationGreedy.probe

        def spy(self, p, q):
            probes.append(q)
            return real(self, p, q)

        monkeypatch.setattr(SeparationGreedy, "probe", spy)
        for n, horizon, reach in [(2000, 2600, 6), (300, 3000, 40), (40, 80, 80)]:
            inst = planted_normalized(rng, n, horizon, reach)
            span = (max(j.release for j in inst.jobs)
                    - min(j.deadline for j in inst.jobs))
            probes.clear()
            value, _ = min_max_gap(inst)
            assert value >= 1 and probes
            assert len(probes) <= 2 + span.bit_length()
            assert set(probes) == {1}
