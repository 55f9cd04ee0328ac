"""Throughput maximization under a gap budget, and its inverse.

Windowed DP: for the first k jobs (by deadline) released inside [u, v],
the cell value vector holds the best schedulable count/weight for every
allowed number of counted gaps (window-boundary gaps included).  The
top-level query pads the window one slot past both extremes, which makes
both boundary gaps unavoidable, so interior budget gamma becomes counted
budget gamma + 2.

Window keys are canonicalized -- u snaps to (next release) - 1, v to
(max reachable deadline) + 1, k to the last job actually inside -- which
keeps the memo at O(n) distinct u's and O(n^2) distinct v's.  Candidate
slots for the newest job are releases plus offsets in [-(n+1), n+1]:
every block of a (left-shifted) optimal schedule contains a job at its
release, and blocks hold at most n jobs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .core import Constraints, Instance, Schedule, certify, require_normalized
from .errors import GapSchedError, InfeasibleError

_NEG = -1  # value vectors hold weights >= 0; any negative means infeasible


def edf_max_throughput(inst: Instance) -> int:
    """Maximum number of schedulable jobs: deadline order, earliest free slot."""
    nxt: dict[int, int] = {}

    def find(s: int) -> int:
        path = []
        while s in nxt:
            path.append(s)
            s = nxt[s]
        for p in path:
            nxt[p] = s
        return s

    count = 0
    for j in sorted(inst.jobs, key=lambda j: (j.deadline, j.release)):
        s = find(j.release)
        if s <= j.deadline:
            nxt[s] = s + 1
            count += 1
    return count


@dataclass
class _Solver:
    inst: Instance
    weighted: bool
    budget: int  # counted-gap budget (boundary gaps included)
    memo: dict = field(default_factory=dict)
    choice: dict = field(default_factory=dict)

    def __post_init__(self):
        jobs = self.inst.by_deadline()
        self.jobs = jobs
        self.n = len(jobs)
        self.weights = [j.weight if self.weighted else 1 for j in jobs]
        self.releases = sorted(j.release for j in jobs)
        self.release_set = set(self.releases)
        margin = self.n + 1
        self.slot_cands = sorted({r + s for r in self.releases
                                  for s in range(-margin, margin + 1)})
        self.empty_window = tuple([0] * (self.budget + 1))
        self.empty_jobs = tuple([_NEG] + [0] * self.budget)

    # -- canonicalization ---------------------------------------------------
    def _canon(self, k: int, u: int, v: int):
        """Returns ('base', vector) or ('cell', (k', u', v'))."""
        if u > v:
            return "base", self.empty_window
        if u not in self.release_set:
            i = bisect.bisect_left(self.releases, u)
            if i == len(self.releases) or self.releases[i] > v:
                return "base", self.empty_jobs
            u = self.releases[i] - 1
        while k > 0 and not (u <= self.jobs[k - 1].release <= v):
            k -= 1
        if k == 0:
            return "base", self.empty_jobs
        dmax = max(self.jobs[i].deadline for i in range(k)
                   if u <= self.jobs[i].release <= v)
        v = min(v, dmax + 1)
        return "cell", (k, u, v)

    # -- the DP --------------------------------------------------------------
    def table(self, k: int, u: int, v: int) -> tuple[int, ...]:
        kind, res = self._canon(k, u, v)
        if kind == "base":
            return res
        key = res
        got = self.memo.get(key)
        if got is not None:
            return got
        k, u, v = key
        jk = self.jobs[k - 1]
        wk = self.weights[k - 1]
        best = list(self.table(k - 1, u, v))
        arg = [("skip",)] * (self.budget + 1)
        lo = jk.release
        hi = min(jk.deadline, v)
        i0 = bisect.bisect_left(self.slot_cands, lo)
        i1 = bisect.bisect_right(self.slot_cands, hi)
        for t in self.slot_cands[i0:i1]:
            left = self.table(k - 1, u, t - 1)
            right = self.table(k - 1, t + 1, v)
            for g in range(self.budget + 1):
                top = best[g]
                pick = None
                for h in range(g + 1):
                    if left[h] < 0 or right[g - h] < 0:
                        continue
                    cand = left[h] + wk + right[g - h]
                    if cand > top:
                        top, pick = cand, h
                if pick is not None:
                    best[g] = top
                    arg[g] = ("place", t, pick)
        best = tuple(best)
        self.memo[key] = best
        self.choice[key] = arg
        return best

    def reconstruct(self, k: int, u: int, v: int, g: int, out: dict):
        kind, res = self._canon(k, u, v)
        if kind == "base":
            return
        k, u, v = res
        step = self.choice[res][g]
        if step[0] == "skip":
            self.reconstruct(k - 1, u, v, g, out)
            return
        _, t, h = step
        out[self.jobs[k - 1].id] = t
        self.reconstruct(k - 1, u, t - 1, h, out)
        self.reconstruct(k - 1, t + 1, v, g - h, out)


def _solve(solver: _Solver, counted_budget: int):
    inst = solver.inst
    u0 = min(j.release for j in inst.jobs) - 1
    v0 = max(j.deadline for j in inst.jobs) + 1
    vals = solver.table(solver.n, u0, v0)
    value = vals[counted_budget]
    out: dict = {}
    solver.reconstruct(solver.n, u0, v0, counted_budget, out)
    return value, out


def max_throughput(inst: Instance, gaps: int,
                   weighted: bool = False) -> tuple[int, Schedule]:
    """Best count (or weight) of jobs schedulable with at most ``gaps``
    interior gaps."""
    if gaps < 0:
        raise GapSchedError("gap budget must be non-negative")
    require_normalized(inst)
    if not inst.jobs:
        return 0, Schedule(inst, {})
    solver = _Solver(inst, weighted, gaps + 2)
    value, out = _solve(solver, gaps + 2)
    sched = Schedule(inst, out)
    certify(sched, inst, Constraints(max_gaps=gaps), value,
            "weight" if weighted else "count")
    return value, sched


def min_gaps_for_throughput(inst: Instance, threshold: int,
                            weighted: bool = False) -> tuple[int, Schedule]:
    """Fewest interior gaps among schedules reaching the throughput
    threshold."""
    require_normalized(inst)
    if threshold <= 0:
        return 0, Schedule(inst, {})
    if not weighted and edf_max_throughput(inst) < threshold:
        raise InfeasibleError(
            f"at most {edf_max_throughput(inst)} jobs are schedulable")
    solver = _Solver(inst, weighted, max(len(inst.jobs) - 1, 0) + 2)
    for g in range(max(len(inst.jobs) - 1, 0) + 1):
        value, out = _solve(solver, g + 2)
        if value >= threshold:
            sched = Schedule(inst, out)
            certify(sched, inst, Constraints(min_throughput=threshold,
                                             weighted=weighted), g, "gap_count")
            return g, sched
    raise InfeasibleError(f"throughput {threshold} is unreachable")
