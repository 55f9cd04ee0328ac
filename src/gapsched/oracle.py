"""Exhaustive reference solvers: ground truth for every objective.

Deadline objectives take their values from a suffix DP over
(slot, scheduled-subset) states, which enumerates every injective
assignment implicitly.  Release-only flow objectives place jobs in
release order and share one bottom-up table over (job, slot, gaps left).
Every table is filled without recursion, and witness schedules are
rebuilt by a deterministic forward walk over it (busy slots as early as
possible, jobs by deadline; flow jobs at their first optimal slot).  The
tests cross-check all of them against literal enumeration on tiny inputs.

Sizes are capped: at most DEFAULT_JOB_CAP jobs over a horizon of at most
DEFAULT_SLOT_CAP slots, beyond which OracleCapError is raised.
"""

from __future__ import annotations

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
# Deadline problems: suffix DP over (slot, subset, last-slot-busy).

class _DeadlineDP:
    def __init__(self, inst: Instance):
        if not inst.has_deadlines:
            raise GapSchedError("deadline oracle needs deadlines")
        self.inst = inst
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
        m = 1 << self.n
        idx = np.arange(m)
        self.wo = [idx[(idx >> j) & 1 == 0] for j in range(self.n)]
        self.wb = [w | (1 << j) for j, w in enumerate(self.wo)]

    def _canonical_job(self, candidates):
        return min(candidates,
                   key=lambda j: (self.jobs[j].deadline, self.jobs[j].release))


def _gap_tables(dp: _DeadlineDP, maximize: bool):
    """suffix[s][mask][prev] = best interior-gap count completing the
    schedule from slot s on, all jobs outside mask still to place."""
    m = 1 << dp.n
    full = m - 1
    bad = -_INF if maximize else _INF
    pick = np.maximum if maximize else np.minimum
    base = np.full((m, 2), bad, dtype=np.int64)
    base[full, :] = 0
    tables = [base]
    gapcost = None
    for s in range(len(dp.slots) - 1, -1, -1):
        nxt = tables[-1]
        cur = np.empty((m, 2), dtype=np.int64)
        cur[:, 0] = nxt[:, 0]
        cur[:, 1] = nxt[:, 0]
        for j in dp.avail[s]:
            src, dst = dp.wo[j], dp.wb[j]
            vals = nxt[dst, 1]
            cur[src, 1] = pick(cur[src, 1], vals)
            cost = (src != 0).astype(np.int64)
            cur[src, 0] = pick(cur[src, 0], np.where(np.abs(vals) >= _INF,
                                                     vals, vals + cost))
        tables.append(cur)
    tables.reverse()
    return tables


def _walk_gaps(dp: _DeadlineDP, tables, maximize: bool) -> tuple[int, ...]:
    mask, prev = 0, 0
    busy = []
    for s in range(len(dp.slots)):
        target = tables[s][mask][prev]
        chosen = None
        cands = []
        for j in dp.avail[s]:
            if mask & (1 << j):
                continue
            cost = 1 if (prev == 0 and mask != 0) else 0
            v = tables[s + 1][mask | (1 << j)][1]
            if abs(v) < _INF and v + cost == target:
                cands.append(j)
        if cands:
            chosen = dp._canonical_job(cands)
        if chosen is not None:
            busy.append(dp.slots[s])
            mask |= 1 << chosen
            prev = 1
        else:
            if tables[s + 1][mask][0] != target:
                raise GapSchedError("gap oracle walk failed")
            prev = 0
    return tuple(busy)


def _busy_schedule(inst: Instance, busy: tuple[int, ...]) -> Schedule:
    sched = edf_schedule_busy_set(inst, busy)
    if sched is None:
        raise GapSchedError(f"oracle busy set {busy} admits no schedule")
    return sched


def _solve_gap_objective(inst: Instance, maximize: bool):
    dp = _DeadlineDP(inst)
    if dp.n == 0:
        return 0, Schedule(inst, {})
    tables = _gap_tables(dp, maximize)
    value = int(tables[0][0][0])
    if abs(value) >= _INF:
        raise InfeasibleError("no full schedule exists")
    return value, _busy_schedule(inst, _walk_gaps(dp, tables, maximize))


def oracle_min_gaps(inst: Instance):
    return _solve_gap_objective(inst, maximize=False)


def oracle_max_gaps(inst: Instance):
    return _solve_gap_objective(inst, maximize=True)


def _sep_tables(dp: _DeadlineDP):
    """suffix[s][mask][run] = min achievable max-separation onward; run is
    the distance to the last busy slot (0: none yet)."""
    m = 1 << dp.n
    full = m - 1
    nslots = len(dp.slots)
    runs = nslots + 1
    base = np.full((m, runs + 1), _INF, dtype=np.int64)
    base[full, :] = 0
    tables = [base]
    for s in range(nslots - 1, -1, -1):
        nxt = tables[-1]
        cur = np.full((m, runs + 1), _INF, dtype=np.int64)
        # idle: run 0 stays 0, positive runs grow by one
        cur[:, 0] = nxt[:, 0]
        cur[:, 1:runs] = nxt[:, 2:runs + 1]
        cur[:, runs] = nxt[:, runs]  # saturated; separations this long are final anyway
        run_cost = np.arange(runs + 1, dtype=np.int64)
        run_cost[0] = 0
        for j in dp.avail[s]:
            src, dst = dp.wo[j], dp.wb[j]
            vals = nxt[dst, 1][:, None]  # after scheduling, run resets to 1
            cand = np.maximum(vals, run_cost[None, :])
            cand = np.where(vals >= _INF, _INF, cand)
            cur[src, :] = np.minimum(cur[src, :], cand)
        tables.append(cur)
    tables.reverse()
    return tables


def oracle_min_max_gap(inst: Instance):
    dp = _DeadlineDP(inst)
    if dp.n == 0:
        return 0, Schedule(inst, {})
    tables = _sep_tables(dp)
    value = int(tables[0][0][0])
    if value >= _INF:
        raise InfeasibleError("no full schedule exists")
    mask, run = 0, 0
    busy = []
    nslots = len(dp.slots)
    runs = nslots + 1
    for s in range(nslots):
        target = tables[s][mask][run]
        cands = []
        for j in dp.avail[s]:
            if mask & (1 << j):
                continue
            v = tables[s + 1][mask | (1 << j)][1]
            if v < _INF and max(v, run) == target:
                cands.append(j)
        if cands:
            busy.append(dp.slots[s])
            mask |= 1 << dp._canonical_job(cands)
            run = 1
        else:
            nrun = 0 if run == 0 else min(run + 1, runs)
            if tables[s + 1][mask][nrun] != target:
                raise GapSchedError("separation oracle walk failed")
            run = nrun
    return value, _busy_schedule(inst, tuple(busy))


def _throughput_tables(dp: _DeadlineDP, weights, gcap: int):
    """suffix[s][mask][prev][g] = max weight schedulable from slot s with g
    interior gaps still allowed."""
    m = 1 << dp.n
    w = np.asarray(weights, dtype=np.int64)
    base = np.zeros((m, 2, gcap + 1), dtype=np.int64)
    tables = [base]
    for s in range(len(dp.slots) - 1, -1, -1):
        nxt = tables[-1]
        cur = np.empty_like(base)
        cur[:, 0, :] = nxt[:, 0, :]
        cur[:, 1, :] = nxt[:, 0, :]
        for j in dp.avail[s]:
            src, dst = dp.wo[j], dp.wb[j]
            vals = nxt[dst, 1, :] + w[j]
            cur[src, 1, :] = np.maximum(cur[src, 1, :], vals)
            # prev idle: scheduling j opens a gap unless nothing is placed yet;
            # src is sorted, so the empty mask sits in row 0.
            gap_vals = np.full_like(vals, -_INF)
            gap_vals[:, 1:] = vals[:, :-1]
            gap_vals[0, :] = vals[0, :]
            cur[src, 0, :] = np.maximum(cur[src, 0, :], gap_vals)
        tables.append(cur)
    tables.reverse()
    return tables


def _walk_throughput(dp: _DeadlineDP, tables, weights, g: int) -> dict:
    mask, prev, budget = 0, 0, g
    assignment = {}
    for s in range(len(dp.slots)):
        target = tables[s][mask][prev][budget]
        chosen = None
        cands = []
        for j in dp.avail[s]:
            if mask & (1 << j):
                continue
            gapflag = 1 if (prev == 0 and mask != 0) else 0
            if budget - gapflag < 0:
                continue
            v = weights[j] + tables[s + 1][mask | (1 << j)][1][budget - gapflag]
            if v == target:
                cands.append(j)
        if cands:
            chosen = dp._canonical_job(cands)
            assignment[dp.jobs[chosen].id] = dp.slots[s]
            gapflag = 1 if (prev == 0 and mask != 0) else 0
            budget -= gapflag
            mask |= 1 << chosen
            prev = 1
        else:
            if tables[s + 1][mask][0][budget] != target:
                raise GapSchedError("throughput oracle walk failed")
            prev = 0
    return assignment


def oracle_max_throughput(inst: Instance, gaps: int, weighted: bool = False):
    require_count("gap budget", gaps)
    dp = _DeadlineDP(inst)
    if dp.n == 0:
        return 0, Schedule(inst, {})
    weights = [j.weight if weighted else 1 for j in dp.jobs]
    gcap = min(gaps, max(dp.n - 1, 0))
    tables = _throughput_tables(dp, weights, gcap)
    value = int(tables[0][0][0][gcap])
    return value, Schedule(inst, _walk_throughput(dp, tables, weights, gcap))


def oracle_min_gaps_throughput(inst: Instance, m: int, weighted: bool = False):
    require_count("throughput threshold", m, None)
    dp = _DeadlineDP(inst)
    if m <= 0:
        return 0, Schedule(inst, {})
    if dp.n == 0:
        raise InfeasibleError(f"throughput {m} unreachable on empty instance")
    weights = [j.weight if weighted else 1 for j in dp.jobs]
    gcap = max(dp.n - 1, 0)
    tables = _throughput_tables(dp, weights, gcap)
    for g in range(gcap + 1):
        if int(tables[0][0][0][g]) >= m:
            return g, Schedule(inst, _walk_throughput(dp, tables, weights, g))
    raise InfeasibleError(f"throughput {m} exceeds maximum "
                          f"{int(tables[0][0][0][gcap])}")


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
