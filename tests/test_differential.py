"""Fast solvers against their exhaustive oracles under Hypothesis
strategies, within the oracle cap (8 jobs, 16 slots).

Full-schedule objectives: raw instances may collapse a window (deadline
before release), repeat releases and deadlines, and sit anywhere on the
line.  The fast solver runs on the ``normalize_distinct`` form, the oracle
on the raw instance: the normalized windows lie inside the raw ones and
keep every schedulable busy set, so both must agree on the value and on
feasibility, and each witness must certify against the raw instance.

Throughput objectives schedule a subset of the jobs, so both solvers get
the same instance, with distinct releases and deadlines, collapsed windows
and zero weights allowed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gapsched.core import Constraints, Instance, Job, Schedule, certify, normalize_distinct
from gapsched.errors import InfeasibleError
from gapsched.max_gaps import max_gaps
from gapsched.min_gaps import min_gaps
from gapsched.min_max_gap import min_max_gap
from gapsched.oracle import (
    oracle_max_gaps,
    oracle_max_throughput,
    oracle_min_gaps,
    oracle_min_gaps_throughput,
    oracle_min_max_gap,
)
from gapsched.throughput import max_throughput, min_gaps_for_throughput

from helpers import make_instance

# (fast solver, oracle, measure of the value)
PAIRS = {
    "min_gaps": (min_gaps, oracle_min_gaps, "gap_count"),
    "max_gaps": (max_gaps, oracle_max_gaps, "gap_count"),
    "min_max_gap": (min_max_gap, oracle_min_max_gap, "max_separation"),
}

OFFSETS = st.one_of(st.sampled_from([0, -1, 2**30 - 16, -2**30]),
                    st.integers(-2**30, 2**30 - 16))


@st.composite
def raw_instances(draw):
    """Up to 8 windows over 16 slots, translated by an offset.  About one
    instance in four has a collapsed window, its deadline 1 or 2 slots
    before its release."""
    windows = draw(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 5)),
                            max_size=8))
    collapsed = draw(st.integers(0, 31))
    if collapsed < len(windows):
        windows[collapsed] = (windows[collapsed][0] + 2,
                              -draw(st.integers(1, 2)))
    offset = draw(OFFSETS)
    return make_instance([(offset + r, offset + r + length) for r, length in windows])


def solve(fn, inst):
    """(value, schedule), or None when no full schedule exists."""
    try:
        return fn(inst)
    except InfeasibleError:
        return None


@pytest.mark.parametrize("name", sorted(PAIRS))
@settings(derandomize=True, max_examples=300, deadline=None)
@given(raw=raw_instances())
def test_fast_solver_matches_oracle(name, raw):
    fast, oracle, measure = PAIRS[name]
    expect = solve(oracle, raw)
    norm = normalize_distinct(raw)
    got = None if norm.removed else solve(fast, norm.instance)
    assert (got is None) == (expect is None), (raw, norm)
    if got is None:
        return
    assert got[0] == expect[0], raw
    full = Constraints(require_all=True)
    for value, sched in (got, expect):
        certify(Schedule(raw, dict(sched.assignment)), raw, full, value, measure)


@st.composite
def distinct_instances(draw):
    """Up to 8 jobs with distinct releases and distinct deadlines over 16
    slots, translated by an offset; a deadline may precede its release.
    Weights run from 0 to 4."""
    n = draw(st.integers(0, 8))
    releases = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n, unique=True))
    deadlines = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n, unique=True))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    offset = draw(OFFSETS)
    return Instance(tuple(Job(i, offset + r, offset + d, w)
                          for i, (r, d, w) in enumerate(zip(releases, deadlines, weights))))


def certify_witnesses(inst, results, constraints, measure):
    for value, sched in results:
        certify(Schedule(inst, dict(sched.assignment)), inst, constraints, value, measure)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(inst=distinct_instances(), gaps=st.integers(0, 2), weighted=st.booleans())
def test_max_throughput_matches_oracle(inst, gaps, weighted):
    got = max_throughput(inst, gaps, weighted)
    expect = oracle_max_throughput(inst, gaps, weighted)
    assert got[0] == expect[0], (inst, gaps, weighted)
    certify_witnesses(inst, (got, expect), Constraints(max_gaps=gaps),
                      "weight" if weighted else "count")


@settings(derandomize=True, max_examples=300, deadline=None)
@given(inst=distinct_instances(), share=st.floats(0, 1.2), weighted=st.booleans())
def test_min_gaps_for_throughput_matches_oracle(inst, share, weighted):
    # Thresholds from 0 to a little past everything the jobs can give.
    total = sum(j.weight for j in inst.jobs) if weighted else len(inst.jobs)
    threshold = round(share * total)
    got = solve(lambda i: min_gaps_for_throughput(i, threshold, weighted), inst)
    expect = solve(lambda i: oracle_min_gaps_throughput(i, threshold, weighted), inst)
    assert (got is None) == (expect is None), (inst, threshold, weighted)
    if got is None:
        return
    assert got[0] == expect[0], (inst, threshold, weighted)
    certify_witnesses(inst, (got, expect),
                      Constraints(min_throughput=threshold, weighted=weighted),
                      "gap_count")
