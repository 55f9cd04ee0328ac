"""Exhaustive reference solvers: ground truth for every objective.

All nine oracles share one suffix DP: tables[s][mask, a] is the best
value the slots from s on can add with the jobs in mask placed and the
schedule in state a, which enumerates every injective assignment
implicitly.  Each objective only describes its states: the state after
an idle slot, the state after a busy slot (or none, where a busy slot is
not allowed), what a busy slot costs in each state, add or max to
combine, min or max to choose, and whether only the full mask may
finish.  A busy slot's cost plus its job's gain there -- the weight for
throughput, slot - release for flow, 0 elsewhere -- is combined with the
value of the slots after it.  The states are

- gap oracles: 0 = nothing placed yet, 1 = last slot busy, 2 = idle
  since the last busy slot, where a busy slot closes an interior gap;
- separation oracle: the run since the last busy slot (0: none yet),
  saturating at len(slots) + 1;
- budget oracles (throughput and flow): 3g + p, with g gaps still
  allowed and p a gap state.  One fill at g = n - 1 gives the best value
  of every budget, read at state 3g.

The caller gives the DP its jobs, in order, and its slots.  Deadline
oracles take the jobs by (deadline, release) over the slots from the
first release to the last deadline.  The release-only flow oracles
ignore deadlines: they take the jobs by release over the slots
[min release, max release + n], which some optimal schedule fits (its
blocks end at releases, shifted right at most n), and give every job
that last slot as its deadline.

One forward walk rebuilds a witness: each slot takes the first job, in
the DP's order, whose move keeps the target value, and otherwise stays
idle.  The gap and separation oracles then schedule the walk's busy
slots by EDF.  Values are int64 and an unreachable state holds +-2**62;
any value at least 2**61 from zero counts as unreachable, so the
weighted oracles refuse a total weight of 2**61 or more.  The tests
cross-check every oracle against literal enumeration on tiny inputs.

Sizes are capped: at most DEFAULT_JOB_CAP jobs over a horizon of at most
DEFAULT_SLOT_CAP slots, beyond which OracleCapError is raised.  For the
flow oracles the horizon is the span of the releases, so their DP sees
at most DEFAULT_SLOT_CAP + DEFAULT_JOB_CAP slots.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .core import Instance, Job, Schedule, edf_schedule_busy_set, require_count
from .errors import GapSchedError, InfeasibleError, OracleCapError

DEFAULT_JOB_CAP = 8
DEFAULT_SLOT_CAP = 16

_BAD = 2**62  # an unreachable state's value, negated when maximizing
_WEIGHT_LIMIT = 2**61  # any value this far from 0 is unreachable


def _check_caps(n_jobs: int, span: int):
    if n_jobs > DEFAULT_JOB_CAP:
        raise OracleCapError(f"{n_jobs} jobs exceed oracle cap {DEFAULT_JOB_CAP}")
    if span > DEFAULT_SLOT_CAP:
        raise OracleCapError(f"horizon {span} exceeds oracle cap {DEFAULT_SLOT_CAP}")


class _Spec(NamedTuple):
    """An objective's states and moves (see the module docstring)."""
    idle: list[int]  # state after an idle slot
    busy: list[int]  # state after a busy slot; -1: a busy slot is not allowed
    cost: list[int]  # what a busy slot costs in each state
    combine: Callable  # np.add or np.maximum
    maximize: bool
    full_only: bool  # only the full mask may finish


def _gap_spec(maximize: bool) -> _Spec:
    return _Spec([0, 2, 2], [1, 1, 1], [0, 0, 1], np.add, maximize, True)


def _sep_spec(nslots: int) -> _Spec:
    top = nslots + 1  # runs this long are final anyway
    return _Spec([0] + [min(r + 1, top) for r in range(1, top + 1)],
                 [1] * (top + 1), list(range(top + 1)), np.maximum, False, True)


def _budget_spec(gcap: int, combine: Callable, maximize: bool, full_only: bool) -> _Spec:
    states = [(g, p) for g in range(gcap + 1) for p in range(3)]
    return _Spec([3 * g + (0, 2, 2)[p] for g, p in states],
                 [3 * g + 1 if p < 2 else 3 * g - 2 if g else -1 for g, p in states],
                 [0] * len(states), combine, maximize, full_only)


# The budget objectives: (combine, maximize, full_only).
_THROUGHPUT = (np.add, True, False)
_TOTAL_FLOW = (np.add, False, True)
_MAX_FLOW = (np.maximum, False, True)


def _flow(job: Job, slot: int) -> int:
    return slot - job.release


def _weight(inst: Instance, weighted: bool) -> Callable:
    """Throughput's gain: a job's weight, or 1."""
    total = sum(j.weight for j in inst.jobs) if weighted else len(inst)
    if total >= _WEIGHT_LIMIT:
        raise GapSchedError(f"total weight {total} is not below 2**61")
    return lambda job, slot: job.weight if weighted else 1


class _DeadlineDP:
    def __init__(self, jobs: tuple[Job, ...], slots: range):
        """jobs in the walk's order, each placed in its window among slots."""
        self.jobs, self.slots, self.n = jobs, slots, len(jobs)
        self.avail = [[j for j, job in enumerate(jobs) if job.release <= t <= job.deadline]
                      for t in slots]
        idx = np.arange(1 << self.n)
        self.wo = [idx[(idx >> j) & 1 == 0] for j in range(self.n)]
        self.wb = [w | (1 << j) for j, w in enumerate(self.wo)]

    def fill(self, spec: _Spec, gain: Callable = lambda job, slot: 0) -> None:
        """tables[s][mask, a]: the best value the slots from s on add to a
        schedule in state a with the jobs in mask placed, where job at slot
        gains gain(job, slot) besides its state's cost.  The last column
        is a dead state that only a disallowed busy slot leads to."""
        k = len(spec.idle)
        best = np.maximum if spec.maximize else np.minimum
        idle = np.array(spec.idle + [-1])
        busy = np.array(spec.busy)
        cost = np.array(spec.cost, dtype=np.int64)
        self.spec = spec
        self.gain = [[gain(job, t) for job in self.jobs] for t in self.slots]
        base = np.full((1 << self.n, k + 1), -_BAD if spec.maximize else _BAD,
                       dtype=np.int64)
        base[-1 if spec.full_only else slice(None), :k] = 0
        self.tables = [base]
        for s in reversed(range(len(self.slots))):
            nxt = self.tables[-1]
            cur = nxt[:, idle]
            after = nxt[:, busy]
            for j in self.avail[s]:
                src = self.wo[j]
                cur[src, :k] = best(cur[src, :k], spec.combine(
                    after[self.wb[j]], cost + self.gain[s][j]))
            self.tables.append(cur)
        self.tables.reverse()

    def walk(self, state: int) -> dict:
        """A witness for tables[0][0, state] as job id -> slot.  Each slot
        takes the first job, in the order of self.jobs, whose move keeps
        the target value, and otherwise stays idle."""
        spec, mask, placed = self.spec, 0, {}
        for s, slot in enumerate(self.slots):
            target, nxt = self.tables[s][mask, state], self.tables[s + 1]
            to = spec.busy[state]
            for j in self.avail[s]:
                if not (mask >> j) & 1 and target == spec.combine(
                        nxt[mask | 1 << j, to], spec.cost[state] + self.gain[s][j]):
                    placed[self.jobs[j].id] = slot
                    mask, state = mask | 1 << j, to
                    break
            else:
                state = spec.idle[state]
                if nxt[mask, state] != target:
                    raise GapSchedError("oracle walk failed")
        return placed


def _deadline_dp(inst: Instance) -> _DeadlineDP:
    """Jobs by (deadline, release), slots from the first release to the
    last deadline."""
    if not inst.has_deadlines:
        raise GapSchedError("deadline oracle needs deadlines")
    jobs = inst.by_deadline
    lo = min((j.release for j in jobs), default=0)
    hi = max((j.deadline for j in jobs), default=-1)
    _check_caps(len(jobs), hi - lo + 1)
    return _DeadlineDP(jobs, range(lo, hi + 1))


def _flow_dp(inst: Instance) -> _DeadlineDP:
    """Jobs by release, slots [min r, max r + n], each job's deadline the
    last of them; the cap covers the releases alone."""
    jobs = inst.by_release
    lo, hi = (jobs[0].release, jobs[-1].release) if jobs else (0, -1)
    _check_caps(len(jobs), hi - lo + 1)
    last = hi + len(jobs)
    return _DeadlineDP(tuple(replace(j, deadline=last) for j in jobs), range(lo, last + 1))


def _full_schedule(inst: Instance, make_spec):
    """Best value over full schedules, with the EDF witness on the walk's
    busy slots; make_spec takes the number of slots."""
    dp = _deadline_dp(inst)
    dp.fill(make_spec(len(dp.slots)))
    value = int(dp.tables[0][0, 0])
    if abs(value) >= _WEIGHT_LIMIT:
        raise InfeasibleError("no full schedule exists")
    busy = tuple(dp.walk(0).values())
    sched = edf_schedule_busy_set(inst, busy)
    if sched is None:
        raise GapSchedError(f"oracle busy set {busy} admits no schedule")
    return value, sched


def _at_budget(inst: Instance, dp: _DeadlineDP, gaps: int, objective, gain):
    """The best value within `gaps` gaps, with the walk's witness."""
    gcap = min(gaps, max(dp.n - 1, 0))
    dp.fill(_budget_spec(gcap, *objective), gain)
    return int(dp.tables[0][0, 3 * gcap]), Schedule(inst, dp.walk(3 * gcap))


def _fewest_gaps(inst: Instance, dp: _DeadlineDP, objective, gain, bound: int,
                 fail: Callable):
    """The fewest gaps whose best value meets `bound`, with the walk's
    witness; raises fail(the best value at n - 1 gaps) when none does."""
    spec = _budget_spec(max(dp.n - 1, 0), *objective)
    dp.fill(spec, gain)
    # State 3g: nothing placed yet, g gaps allowed (the dead column skipped).
    values = [int(v) for v in dp.tables[0][0, :-1:3]]
    for g, v in enumerate(values):
        if v >= bound if spec.maximize else v <= bound:
            return g, Schedule(inst, dp.walk(3 * g))
    raise fail(values[-1])


def oracle_min_gaps(inst: Instance):
    return _full_schedule(inst, lambda _: _gap_spec(False))


def oracle_max_gaps(inst: Instance):
    return _full_schedule(inst, lambda _: _gap_spec(True))


def oracle_min_max_gap(inst: Instance):
    return _full_schedule(inst, _sep_spec)


def oracle_max_throughput(inst: Instance, gaps: int, weighted: bool = False):
    require_count("gap budget", gaps)
    return _at_budget(inst, _deadline_dp(inst), gaps, _THROUGHPUT, _weight(inst, weighted))


def oracle_min_gaps_throughput(inst: Instance, m: int, weighted: bool = False):
    require_count("throughput threshold", m, None)
    dp = _deadline_dp(inst)
    if m <= 0:
        return 0, Schedule(inst, {})
    if dp.n == 0:
        raise InfeasibleError(f"throughput {m} unreachable on empty instance")
    return _fewest_gaps(inst, dp, _THROUGHPUT, _weight(inst, weighted), m, lambda top:
                        InfeasibleError(f"throughput {m} exceeds maximum {top}"))


def oracle_min_total_flow(inst: Instance, gaps: int):
    require_count("gap budget", gaps)
    return _at_budget(inst, _flow_dp(inst), gaps, _TOTAL_FLOW, _flow)


def oracle_min_max_flow(inst: Instance, gaps: int):
    require_count("gap budget", gaps)
    return _at_budget(inst, _flow_dp(inst), gaps, _MAX_FLOW, _flow)


def oracle_min_gaps_total_flow(inst: Instance, flow_bound: int):
    require_count("flow bound", flow_bound)
    # With distinct releases the floor is 0; duplicates force some flow.
    return _fewest_gaps(inst, _flow_dp(inst), _TOTAL_FLOW, _flow, flow_bound, lambda floor:
                        InfeasibleError(f"total flow bound {flow_bound} below the minimum {floor}"))


def oracle_min_gaps_max_flow(inst: Instance, flow_bound: int):
    require_count("flow bound", flow_bound)

    def fail(_):
        # Left-packing starts every job as early as possible, so the first
        # job it starts past the bound witnesses infeasibility.
        packed = None
        for bad, r in enumerate(sorted(j.release for j in inst.jobs)):
            packed = r if packed is None else max(r, packed + 1)
            if packed - r > flow_bound:
                break
        return InfeasibleError(f"flow bound {flow_bound} unattainable", witness=bad)
    return _fewest_gaps(inst, _flow_dp(inst), _MAX_FLOW, _flow, flow_bound, fail)


def oracle_solve(inst: Instance, objective: str, *, gaps=None,
                 min_throughput=None, total_flow=None, max_flow=None,
                 weighted: bool = False):
    """Dispatch an exhaustive solve; returns (value, witness Schedule)."""
    if objective == "min_gaps":
        return oracle_min_gaps(inst)
    if objective == "max_gaps":
        return oracle_max_gaps(inst)
    if objective == "min_max_gap":
        return oracle_min_max_gap(inst)
    if objective == "max_throughput":
        return oracle_max_throughput(inst, gaps, weighted)
    if objective == "min_gaps_throughput":
        return oracle_min_gaps_throughput(inst, min_throughput, weighted)
    if objective == "min_total_flow":
        return oracle_min_total_flow(inst, gaps)
    if objective == "min_gaps_total_flow":
        return oracle_min_gaps_total_flow(inst, total_flow)
    if objective == "min_gaps_max_flow":
        return oracle_min_gaps_max_flow(inst, max_flow)
    if objective == "min_max_flow":
        return oracle_min_max_flow(inst, gaps)
    raise GapSchedError(f"unknown objective {objective!r}")
