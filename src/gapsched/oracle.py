"""Exhaustive reference solvers: ground truth for every objective.

Deadline objectives share one suffix DP: tables[s][mask, a] is the best
value the slots from s on can add with the jobs in mask placed and the
schedule in state a, which enumerates every injective assignment
implicitly.  Each objective only describes its states: the state after
an idle slot, the state after a busy slot (or none, where a busy slot is
not allowed), what a busy slot adds, add or max to combine, min or max
to choose, and whether only the full mask may finish.  The states are

- gap oracles: 0 = nothing placed yet, 1 = last slot busy, 2 = idle
  since the last busy slot, where a busy slot closes an interior gap;
- separation oracle: the run since the last busy slot (0: none yet),
  saturating at len(slots) + 1;
- throughput oracles: 3g + p, with g gaps still allowed and p a gap state.

One forward walk rebuilds a witness: each slot takes the first job by
(deadline, release) whose move keeps the target value, and otherwise
stays idle.  The gap and separation oracles then schedule the walk's busy
slots by EDF.  Values are int64 and an unreachable state holds +-2**62;
any value at least 2**61 from zero counts as unreachable, so the weighted
oracles refuse a total weight of 2**61 or more.

Release-only flow objectives place jobs in release order and share one
bottom-up table over (job, slot, gaps left), walked forward to each
job's first optimal slot.  Every table is filled without recursion.  The
tests cross-check all of them against literal enumeration on tiny inputs.

Sizes are capped: at most DEFAULT_JOB_CAP jobs over a horizon of at most
DEFAULT_SLOT_CAP slots, beyond which OracleCapError is raised.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .core import Instance, Schedule, edf_schedule_busy_set, require_count
from .errors import GapSchedError, InfeasibleError, OracleCapError

_INF = 2**30

DEFAULT_JOB_CAP = 8
DEFAULT_SLOT_CAP = 16


def _check_caps(n_jobs: int, span: int):
    if n_jobs > DEFAULT_JOB_CAP:
        raise OracleCapError(f"{n_jobs} jobs exceed oracle cap {DEFAULT_JOB_CAP}")
    if span > DEFAULT_SLOT_CAP:
        raise OracleCapError(f"horizon {span} exceeds oracle cap {DEFAULT_SLOT_CAP}")


# ---------------------------------------------------------------------------
# Deadline problems: one suffix DP over (slot, placed mask, state).

_BAD = 2**62  # an unreachable state's value, negated when maximizing
_WEIGHT_LIMIT = 2**61  # any value this far from 0 is unreachable


class _Spec(NamedTuple):
    """An objective's states and moves (see the module docstring)."""
    idle: list[int]  # state after an idle slot
    busy: list[int]  # state after a busy slot; -1: a busy slot is not allowed
    cost: list[int]  # what a busy slot adds
    combine: Callable  # np.add or np.maximum
    maximize: bool
    full_only: bool  # only the full mask may finish


def _gap_spec(maximize: bool) -> _Spec:
    return _Spec([0, 2, 2], [1, 1, 1], [0, 0, 1], np.add, maximize, True)


def _sep_spec(nslots: int) -> _Spec:
    top = nslots + 1  # runs this long are final anyway
    return _Spec([0] + [min(r + 1, top) for r in range(1, top + 1)],
                 [1] * (top + 1), list(range(top + 1)), np.maximum, False, True)


def _throughput_spec(gcap: int) -> _Spec:
    states = [(g, p) for g in range(gcap + 1) for p in range(3)]
    return _Spec([3 * g + (0, 2, 2)[p] for g, p in states],
                 [3 * g + 1 if p < 2 else 3 * g - 2 if g else -1 for g, p in states],
                 [0] * len(states), np.add, True, False)


class _DeadlineDP:
    def __init__(self, inst: Instance):
        if not inst.has_deadlines:
            raise GapSchedError("deadline oracle needs deadlines")
        self.jobs = inst.by_deadline()
        self.n = len(self.jobs)
        if self.n == 0:
            self.slots = []
            return
        lo = min(j.release for j in self.jobs)
        hi = max(j.deadline for j in self.jobs)
        _check_caps(self.n, hi - lo + 1)
        self.slots = list(range(lo, hi + 1))
        self.avail = [[j for j in range(self.n)
                       if self.jobs[j].release <= t <= self.jobs[j].deadline]
                      for t in self.slots]
        idx = np.arange(1 << self.n)
        self.wo = [idx[(idx >> j) & 1 == 0] for j in range(self.n)]
        self.wb = [w | (1 << j) for j, w in enumerate(self.wo)]

    def weights(self, weighted: bool) -> list[int]:
        w = [j.weight if weighted else 1 for j in self.jobs]
        if sum(w) >= _WEIGHT_LIMIT:
            raise GapSchedError(f"total weight {sum(w)} is not below 2**61")
        return w

    def fill(self, spec: _Spec, weights=None) -> None:
        """tables[s][mask, a]: the best value the slots from s on add to a
        schedule in state a with the jobs in mask placed.  The last column
        is a dead state that only a disallowed busy slot leads to."""
        k = len(spec.idle)
        best = np.maximum if spec.maximize else np.minimum
        idle = np.array(spec.idle + [-1])
        busy = np.array(spec.busy)
        cost = np.array(spec.cost, dtype=np.int64)
        self.spec = spec
        self.w = [0] * self.n if weights is None else weights
        base = np.full((1 << self.n, k + 1), -_BAD if spec.maximize else _BAD,
                       dtype=np.int64)
        base[-1 if spec.full_only else slice(None), :k] = 0
        self.tables = [base]
        for s in reversed(range(len(self.slots))):
            nxt = self.tables[-1]
            cur = nxt[:, idle]
            moved = spec.combine(nxt[:, busy], cost)
            for j in self.avail[s]:
                src = self.wo[j]
                cur[src, :k] = best(cur[src, :k], moved[self.wb[j]] + self.w[j])
            self.tables.append(cur)
        self.tables.reverse()

    def walk(self, state: int) -> dict:
        """A witness for tables[0][0, state] as job id -> slot.  Each slot
        takes the first job, by (deadline, release) as self.jobs is sorted,
        whose move keeps the target value, and otherwise stays idle."""
        spec, mask, placed = self.spec, 0, {}
        for s, slot in enumerate(self.slots):
            target, nxt = self.tables[s][mask, state], self.tables[s + 1]
            to = spec.busy[state]
            for j in self.avail[s]:
                if not (mask >> j) & 1 and target == self.w[j] + spec.combine(
                        nxt[mask | 1 << j, to], spec.cost[state]):
                    placed[self.jobs[j].id] = slot
                    mask, state = mask | 1 << j, to
                    break
            else:
                state = spec.idle[state]
                if nxt[mask, state] != target:
                    raise GapSchedError("deadline oracle walk failed")
        return placed


def _full_schedule(inst: Instance, make_spec):
    """Best value over full schedules, with the EDF witness on the walk's
    busy slots; make_spec takes the number of slots."""
    dp = _DeadlineDP(inst)
    if dp.n == 0:
        return 0, Schedule(inst, {})
    dp.fill(make_spec(len(dp.slots)))
    value = int(dp.tables[0][0, 0])
    if abs(value) >= _WEIGHT_LIMIT:
        raise InfeasibleError("no full schedule exists")
    busy = tuple(dp.walk(0).values())
    sched = edf_schedule_busy_set(inst, busy)
    if sched is None:
        raise GapSchedError(f"oracle busy set {busy} admits no schedule")
    return value, sched


def oracle_min_gaps(inst: Instance):
    return _full_schedule(inst, lambda _: _gap_spec(False))


def oracle_max_gaps(inst: Instance):
    return _full_schedule(inst, lambda _: _gap_spec(True))


def oracle_min_max_gap(inst: Instance):
    return _full_schedule(inst, _sep_spec)


def oracle_max_throughput(inst: Instance, gaps: int, weighted: bool = False):
    require_count("gap budget", gaps)
    dp = _DeadlineDP(inst)
    if dp.n == 0:
        return 0, Schedule(inst, {})
    gcap = min(gaps, dp.n - 1)
    dp.fill(_throughput_spec(gcap), dp.weights(weighted))
    return int(dp.tables[0][0, 3 * gcap]), Schedule(inst, dp.walk(3 * gcap))


def oracle_min_gaps_throughput(inst: Instance, m: int, weighted: bool = False):
    require_count("throughput threshold", m, None)
    dp = _DeadlineDP(inst)
    if m <= 0:
        return 0, Schedule(inst, {})
    if dp.n == 0:
        raise InfeasibleError(f"throughput {m} unreachable on empty instance")
    dp.fill(_throughput_spec(dp.n - 1), dp.weights(weighted))
    # State 3g: nothing placed yet, g gaps allowed (the dead column skipped).
    values = [int(v) for v in dp.tables[0][0, :-1:3]]
    for g, v in enumerate(values):
        if v >= m:
            return g, Schedule(inst, dp.walk(3 * g))
    raise InfeasibleError(f"throughput {m} exceeds maximum {values[-1]}")


# ---------------------------------------------------------------------------
# Release-only (flow) problems: jobs go in release order; slot universe is
# [min release, max release + n], which any optimal schedule fits (blocks
# end at releases, shifted right at most n).  One bottom-up table serves
# total flow (combine = add) and max flow (combine = maximum):
# cost[i][s, g] is the least combined flow of jobs i.. when job i runs at
# slot s with g gaps left for the jobs after it.

def _solve_flow(inst: Instance, gaps: int, combine, limit=None):
    """Least combined flow within `gaps` gaps, with its witness; `limit`
    is the last slot of the universe (default: max release + n)."""
    require_count("gap budget", gaps)
    jobs = inst.by_release()
    n = len(jobs)
    if n == 0:
        return 0, Schedule(inst, {})
    rs = [j.release for j in jobs]
    _check_caps(n, rs[-1] - rs[0] + 1)
    slots = np.arange(rs[0], (rs[-1] + n if limit is None else limit) + 1)
    gcap = min(gaps, n - 1)
    flows = [np.where(slots >= r, slots - r, _INF)[:, None] for r in rs]
    tables = [np.repeat(flows[-1], gcap + 1, axis=1)]
    for flow in reversed(flows[:-1]):
        nxt = tables[-1]
        # The next job runs right after, at no gap cost, or after one gap
        # at any slot from s + 2 on (slots before its release cost _INF).
        rest = np.full_like(nxt, _INF)
        rest[:-1] = nxt[1:]
        later = np.minimum.accumulate(nxt[::-1], axis=0)[::-1]
        rest[:-2, 1:] = np.minimum(rest[:-2, 1:], later[2:, :-1])
        tables.append(combine(flow, rest))
    tables.reverse()

    # Walk forward, taking the first slot whose completion keeps the
    # combined flow within the optimum.
    value = int(tables[0][:, gcap].min())
    acc, g, prev, assignment = 0, gcap, None, {}
    for job, table in zip(jobs, tables):
        if prev is None:
            cand = table[:, g]
        else:
            cand = np.full(len(slots), _INF)
            cand[prev + 1:prev + 2] = table[prev + 1:prev + 2, g]
            if g:
                cand[prev + 2:] = table[prev + 2:, g - 1]
        fits = np.flatnonzero(combine(acc, cand) <= value)
        if not fits.size:
            raise GapSchedError("flow oracle walk failed")
        s = int(fits[0])
        if prev is not None and s > prev + 1:
            g -= 1
        assignment[job.id] = int(slots[s])
        acc = combine(acc, assignment[job.id] - job.release)
        prev = s
    return value, Schedule(inst, assignment)


def oracle_min_total_flow(inst: Instance, gaps: int):
    return _solve_flow(inst, gaps, np.add)


def oracle_min_max_flow(inst: Instance, gaps: int):
    return _solve_flow(inst, gaps, np.maximum)


def oracle_min_gaps_total_flow(inst: Instance, flow_bound: int):
    require_count("flow bound", flow_bound)
    n = len(inst.jobs)
    floor = None
    for g in range(max(n, 1)):
        value, sched = oracle_min_total_flow(inst, g)
        if value <= flow_bound:
            return g, sched
        floor = value
    # With distinct releases the floor is 0; duplicates force some flow.
    raise InfeasibleError(
        f"total flow bound {flow_bound} below the minimum {floor}")


def oracle_min_gaps_max_flow(inst: Instance, flow_bound: int):
    require_count("flow bound", flow_bound)
    for g in range(max(len(inst.jobs), 1)):
        value, sched = oracle_min_max_flow(inst, g)
        if value <= flow_bound:
            return g, sched
    # Left-packing starts every job as early as possible, so the first job
    # it starts past the bound witnesses infeasibility.
    packed = None
    for bad, r in enumerate(sorted(j.release for j in inst.jobs)):
        packed = r if packed is None else max(r, packed + 1)
        if packed - r > flow_bound:
            break
    raise InfeasibleError(f"flow bound {flow_bound} unattainable", witness=bad)


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
