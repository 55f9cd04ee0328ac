"""Throughput maximization under a gap budget, and its inverse.

Windowed DP: for the first k jobs (by deadline) released inside [u, v],
the cell value vector holds the best schedulable count/weight for every
allowed number of counted gaps (window-boundary gaps included).  The
top-level query pads the window one slot past both extremes, which makes
both boundary gaps unavoidable, so interior budget gamma becomes counted
budget gamma + 2.

Window keys are canonicalized -- u snaps to (next release) - 1, v to
(max reachable deadline) + 1, k to the last job actually inside -- which
keeps the memo at O(n) distinct u's and O(n^2) distinct v's.  The snap is
a lookup: for each release rank i and prefix k, the releases of the first
k jobs released at or after the i-th release are kept sorted with running
maxima of their job indices, so one bisect on v finds the last job inside,
whose deadline is the latest reachable one.  Candidate slots for the
newest job are releases plus offsets in [-(n+1), n+1]: every block of a
(left-shifted) optimal schedule contains a job at its release, and blocks
hold at most n jobs.

Budgets are prefix-closed.  A cell's entry at counted budget g combines
only entries <= g of its sub-cells, ties go to the first slot and split
in a fixed order, and the base vectors for budget B are prefixes of those
for any larger budget.  So a solver sized to budget B gives every g <= B
the same value and the same witness as a larger one.
``min_gaps_for_throughput`` relies on this: it solves at a small interior
budget and doubles it, capped at n - 1, only while the threshold is not
met, instead of sizing one solve to n - 1 whatever the answer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from .core import (Constraints, Instance, Schedule, certify, edf_max_throughput,
                   require_normalized)
from .errors import GapSchedError, InfeasibleError

_NEG = -1  # value vectors hold weights >= 0; any negative means infeasible


def _window_map(jobs: list, releases: list[int]) -> list[list[tuple]]:
    """``out[i][k]`` lists the jobs among the first k (by deadline) released
    at or after ``releases[i]``: their releases in increasing order, and for
    each prefix of that order the largest job index in it."""
    out = []
    for r in releases:
        rels: list[int] = []
        last: list[int] = []
        row = [(rels, last)]
        for idx, j in enumerate(jobs):
            if j.release >= r:
                p = bisect.bisect_left(rels, j.release)
                # idx exceeds every index already listed, so it is the
                # prefix maximum from position p on.
                rels = rels[:p] + [j.release] + rels[p:]
                last = last[:p] + [idx] * (len(rels) - p)
            row.append((rels, last))
        out.append(row)
    return out


@dataclass
class _Solver:
    """The windowed DP for one non-empty instance at one counted budget."""

    inst: Instance
    weighted: bool
    budget: int  # counted-gap budget (boundary gaps included)
    memo: dict = field(default_factory=dict)
    seen: dict = field(default_factory=dict)  # raw window key -> vector
    choice: dict = field(default_factory=dict)

    def __post_init__(self):
        jobs = self.inst.by_deadline()
        self.jobs = jobs
        self.n = len(jobs)
        self.weights = [j.weight if self.weighted else 1 for j in jobs]
        self.releases = sorted(j.release for j in jobs)
        self.windows = _window_map(jobs, self.releases)
        margin = self.n + 1
        self.slot_cands = sorted({r + s for r in self.releases
                                  for s in range(-margin, margin + 1)})
        self.empty_window = tuple([0] * (self.budget + 1))
        self.empty_jobs = tuple([_NEG] + [0] * self.budget)
        self.u0 = self.releases[0] - 1
        self.v0 = max(j.deadline for j in jobs) + 1

    # -- canonicalization ---------------------------------------------------
    def _canon(self, k: int, u: int, v: int):
        """Returns ('base', vector) or ('cell', (k', u', v'))."""
        if u > v:
            return "base", self.empty_window
        i = bisect.bisect_left(self.releases, u)
        if i == self.n:
            return "base", self.empty_jobs
        if self.releases[i] != u:
            u = self.releases[i] - 1
        rels, last = self.windows[i][k]
        j = bisect.bisect_right(rels, v)
        if j == 0:
            return "base", self.empty_jobs
        k = last[j - 1] + 1
        # Deadlines increase with the index, so job k-1 has the latest one.
        return "cell", (k, u, min(v, self.jobs[k - 1].deadline + 1))

    # -- the DP --------------------------------------------------------------
    def table(self, k: int, u: int, v: int) -> tuple[int, ...]:
        raw = (k, u, v)
        got = self.seen.get(raw)
        if got is not None:
            return got
        kind, key = self._canon(k, u, v)
        if kind == "base":
            self.seen[raw] = key
            return key
        got = self.memo.get(key)
        if got is not None:
            self.seen[raw] = got
            return got
        k, u, v = key
        jk = self.jobs[k - 1]
        wk = self.weights[k - 1]
        budget = self.budget
        best = list(self.table(k - 1, u, v))
        arg = [("skip",)] * (budget + 1)
        lo = jk.release
        hi = min(jk.deadline, v)
        i0 = bisect.bisect_left(self.slot_cands, lo)
        i1 = bisect.bisect_right(self.slot_cands, hi)
        for t in self.slot_cands[i0:i1]:
            left = self.table(k - 1, u, t - 1)
            right = self.table(k - 1, t + 1, v)
            # Value vectors are non-decreasing in g (the base vectors are,
            # and max-plus convolution and max keep it), so their infeasible
            # entries form a prefix and left[g - rneg] + right[g - lneg]
            # bounds every split of g from above.
            lneg = left.count(_NEG)
            rneg = right.count(_NEG)
            for g in range(lneg + rneg, budget + 1):
                # left[h] + wk + right[g-h] > best[g], first h on ties.
                top = best[g] - wk
                if left[g - rneg] + right[g - lneg] <= top:
                    continue
                pick = None
                for h in range(lneg, g - rneg + 1):
                    cand = left[h] + right[g - h]
                    if cand > top:
                        top, pick = cand, h
                if pick is not None:
                    best[g] = top + wk
                    arg[g] = ("place", t, pick)
        best = tuple(best)
        self.memo[key] = best
        self.choice[key] = arg
        self.seen[raw] = best
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

    def values(self) -> tuple[int, ...]:
        """Best value at every counted budget <= ``budget`` for the whole
        instance, its window padded one slot past both extremes."""
        return self.table(self.n, self.u0, self.v0)

    def witness(self, counted_budget: int) -> dict:
        out: dict = {}
        self.reconstruct(self.n, self.u0, self.v0, counted_budget, out)
        return out


def max_throughput(inst: Instance, gaps: int,
                   weighted: bool = False) -> tuple[int, Schedule]:
    """Best count (or weight) of jobs schedulable with at most ``gaps``
    interior gaps."""
    if gaps < 0:
        raise GapSchedError("gap budget must be non-negative")
    require_normalized(inst)
    if not inst.jobs:
        return 0, Schedule(inst, {})
    # n jobs leave at most n - 1 interior gaps, so larger budgets add nothing.
    counted = min(gaps, len(inst.jobs) - 1) + 2
    solver = _Solver(inst, weighted, counted)
    value = solver.values()[counted]
    sched = Schedule(inst, solver.witness(counted))
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
    if weighted:
        total = sum(j.weight for j in inst.jobs)
        if total < threshold:
            raise InfeasibleError(f"all jobs together weigh only {total}")
    else:
        best = edf_max_throughput(inst)
        if best < threshold:
            raise InfeasibleError(f"at most {best} jobs are schedulable")
    cap = len(inst.jobs) - 1
    checked = -1  # interior budgets up to here fall short of the threshold
    # Most of a solve is its sweep over cells and candidate slots, which
    # does not depend on the budget, so a solve at interior budget 4 costs
    # little more than one at 0; starting at 1 would take three solves to
    # get there.
    gaps = min(4, cap)
    while True:
        solver = _Solver(inst, weighted, gaps + 2)
        vals = solver.values()
        for g in range(checked + 1, gaps + 1):
            if vals[g + 2] >= threshold:
                sched = Schedule(inst, solver.witness(g + 2))
                certify(sched, inst, Constraints(min_throughput=threshold,
                                                 weighted=weighted),
                        g, "gap_count")
                return g, sched
        if gaps == cap:
            raise InfeasibleError(f"throughput {threshold} is unreachable")
        checked, gaps = gaps, min(2 * gaps, cap)
