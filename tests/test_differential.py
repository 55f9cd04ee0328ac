"""Fast solvers against their exhaustive oracles under one Hypothesis
strategy, within the oracle cap (8 jobs, 16 slots).

Raw instances may collapse a window (deadline before release), repeat
releases and deadlines, and sit anywhere on the line.  The fast solver runs
on the ``normalize_distinct`` form, the oracle on the raw instance: the
normalized windows lie inside the raw ones and keep every schedulable busy
set, so both must agree on the value and on feasibility, and each witness
must certify against the raw instance.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gapsched.core import Constraints, Schedule, certify, normalize_distinct
from gapsched.errors import InfeasibleError
from gapsched.max_gaps import max_gaps
from gapsched.min_gaps import min_gaps
from gapsched.oracle import oracle_max_gaps, oracle_min_gaps

from helpers import make_instance

# (fast solver, oracle, measure of the value)
PAIRS = {
    "min_gaps": (min_gaps, oracle_min_gaps, "gap_count"),
    "max_gaps": (max_gaps, oracle_max_gaps, "gap_count"),
}


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
    offset = draw(st.one_of(st.sampled_from([0, -1, 2**30 - 16, -2**30]),
                            st.integers(-2**30, 2**30 - 16)))
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
