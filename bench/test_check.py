"""Tests for the benchmark's answer checks.

    python3 -m pytest -q bench

The checks must reject a corrupted answer, and the references they use
(bipartite matching, integer programs) must agree with the exhaustive
oracles in ``gapsched.oracle`` on tiny instances.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from gapsched import oracle  # noqa: E402
from gapsched.core import FeasibilityResult, Schedule  # noqa: E402
from gapsched.errors import InfeasibleError  # noqa: E402

import check  # noqa: E402
import generate  # noqa: E402
import milp  # noqa: E402
import workloads  # noqa: E402


def tiny(rng, n=5, horizon=9):
    return generate.uniform_raw(rng, n, horizon)


def solved_round(workload, cases):
    rnd = workloads.run_round(workload, cases)
    assert rnd.failed == 0, rnd.errors
    return rnd.answers


@pytest.fixture(scope="module")
def gap_case():
    jobs = generate.planted(random.Random(3), 8, 11, ("tight", "mid", "wide"))
    ref = {"min_gaps": milp.min_gaps(jobs), "max_gaps": milp.max_gaps(jobs),
           "min_max_gap": milp.min_max_separation(jobs)}
    case = workloads.Case("tiny", jobs, workloads.to_instance(jobs), ref)
    return case, solved_round("gap-objectives", [case])


@pytest.fixture(scope="module")
def admission_case():
    jobs = tiny(random.Random(5), 9, 7)  # more jobs than slots: infeasible
    case = workloads.Case("tiny", jobs, workloads.to_instance(jobs))
    return case, solved_round("admission-separation", [case])


def corrupt(answers, label, value=None, assignment=None):
    v, sched = answers[label]
    sched = Schedule(sched.instance, dict(sched.assignment if assignment is None
                                          else assignment))
    return {**answers, label: (v if value is None else value, sched)}


def test_correct_answers_pass(gap_case, admission_case):
    workloads.check_answers("gap-objectives", [gap_case[0]], gap_case[1])
    workloads.check_answers("admission-separation", [admission_case[0]], admission_case[1])


def test_two_jobs_in_one_slot_rejected(gap_case):
    case, answers = gap_case
    a = dict(answers["tiny min_gaps"][1].assignment)
    a[1] = a[0]
    with pytest.raises(check.CheckError, match="two jobs"):
        check.schedule_slots(a, dict(enumerate(case.jobs)), full=True)
    with pytest.raises(check.CheckError):
        workloads.check_answers("gap-objectives", [case],
                                corrupt(answers, "tiny min_gaps", assignment=a))


def test_slot_outside_window_rejected(gap_case):
    case, answers = gap_case
    a = dict(answers["tiny max_gaps"][1].assignment)
    a[0] = case.jobs[0][1] + 1
    with pytest.raises(check.CheckError, match="outside its window"):
        workloads.check_answers("gap-objectives", [case],
                                corrupt(answers, "tiny max_gaps", assignment=a))


@pytest.mark.parametrize("label", ["tiny min_gaps", "tiny max_gaps", "tiny min_max_gap"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_value_off_by_one_rejected(gap_case, label, delta):
    case, answers = gap_case
    value = answers[label][0] + delta
    with pytest.raises(check.CheckError):
        workloads.check_answers("gap-objectives", [case],
                                corrupt(answers, label, value=value))


def test_wrong_optimum_with_matching_witness_rejected(gap_case):
    """A consistent value and witness still fail against the reference."""
    case, answers = gap_case
    worse = replace(case, ref={**case.ref, "min_gaps": case.ref["min_gaps"] - 1})
    with pytest.raises(check.CheckError, match="optimum"):
        workloads.check_answers("gap-objectives", [worse], answers)


def test_flipped_verdict_rejected(admission_case):
    case, answers = admission_case
    label = "tiny check_feasible"
    assert not answers[label].feasible
    flipped = {**answers, label: FeasibilityResult(True, Schedule(case.inst, {}))}
    with pytest.raises(check.CheckError, match="verdict"):
        workloads.check_answers("admission-separation", [case], flipped)


def test_throughput_count_off_by_one_rejected(admission_case):
    case, answers = admission_case
    label = "tiny edf_max_throughput"
    with pytest.raises(check.CheckError, match="matching"):
        workloads.check_answers("admission-separation", [case],
                                {**answers, label: answers[label] + 1})


def test_matching_agrees_with_oracle():
    rng = random.Random(11)
    for _ in range(40):
        jobs = tiny(rng, rng.randint(1, 6), rng.randint(3, 9))
        inst = workloads.to_instance(jobs)
        best, _ = oracle.oracle_max_throughput(inst, len(jobs))
        assert check.max_matching(jobs) == best
        try:
            oracle.oracle_min_gaps(inst)
            feasible = True
        except InfeasibleError:
            feasible = False
        assert feasible == (check.max_matching(jobs) == len(jobs))


def test_milp_agrees_with_oracle():
    rng = random.Random(12)
    for _ in range(12):
        n = rng.randint(2, 6)
        jobs = generate.planted(rng, n, n + rng.randint(0, 5), ("tight", "mid", "wide"),
                                (1, 9))
        inst = workloads.to_instance(jobs)
        assert milp.min_gaps(jobs) == oracle.oracle_min_gaps(inst)[0]
        assert milp.max_gaps(jobs) == oracle.oracle_max_gaps(inst)[0]
        assert milp.min_max_separation(jobs) == oracle.oracle_min_max_gap(inst)[0]
        for g in range(3):
            for weighted in (False, True):
                want = oracle.oracle_max_throughput(inst, g, weighted)[0]
                assert milp.max_throughput(jobs, g, weighted) == want


def test_cover_count_is_minimal():
    rng = random.Random(13)
    for _ in range(200):
        rs = [rng.randrange(20) for _ in range(rng.randint(1, 7))]
        radius = rng.randrange(5)
        # Brute force: fewest points, each chosen among r + radius.
        cands = sorted({r + radius for r in rs})
        best = min(k for k in range(1, len(cands) + 1)
                   for pts in combinations(cands, k)
                   if all(any(r <= p <= r + radius for p in pts) for r in rs))
        assert check.cover_count(rs, radius) == best


def test_transform_keeps_optima():
    rng = random.Random(14)
    for _ in range(10):
        jobs = generate.planted(rng, 6, 9, ("tight", "mid", "wide"), (1, 9))
        moved = generate.transform(rng, jobs)
        a, b = workloads.to_instance(jobs), workloads.to_instance(moved)
        assert oracle.oracle_min_gaps(a)[0] == oracle.oracle_min_gaps(b)[0]
        assert oracle.oracle_max_gaps(a)[0] == oracle.oracle_max_gaps(b)[0]
        assert oracle.oracle_min_max_gap(a)[0] == oracle.oracle_min_max_gap(b)[0]
        assert (oracle.oracle_max_throughput(a, 1, True)[0]
                == oracle.oracle_max_throughput(b, 1, True)[0])
