"""Throughput maximization under a gap budget, and its inverse.

Windowed DP: for the first k jobs (by deadline) released inside [u, v],
the cell value vector holds the best schedulable count/weight for every
allowed number of counted gaps (window-boundary gaps included).  The
top-level query pads the window one slot past both extremes, which makes
both boundary gaps unavoidable, so interior budget gamma becomes counted
budget gamma + 2.

Window keys are canonicalized -- u snaps to (next release) - 1, v to
(max reachable deadline) + 1, k to the last job actually inside -- which
keeps the cells at O(n) distinct u's and O(n^2) distinct v's.  A window
whose jobs were all released after their deadlines is one idle gap, like
a window with no job.  The last job inside [u, v] among the first k is
a range maximum of deadline indices over the release order, restricted
to indices below k; a sparse table of O(n log n) entries answers it,
rebuilt for each level.
Candidate slots for the newest job are releases plus offsets in
[-(n+1), n+1]: every block of a (left-shifted) optimal schedule contains
a job at its release, and blocks hold at most n jobs.

The DP runs in three passes over int arrays, none of them recursive.
Discovery walks the levels from k = n down to 1 and collects the
canonical cells the top query reaches, each level in a few numpy calls:
every cell's candidate slots, and the canonical form of its children --
skip (k-1, u, v), and for each slot t left (k-1, u, t-1) and right
(k-1, t+1, v).  The fill then walks the levels upwards; a level's
(cell, slot) pairs are gathered in blocks of about 1 MiB and combined by
max-plus convolution, one whole-array step per h.  The value table is
budget-major, one row of cells per budget, so every step runs along a
contiguous row of pairs rather than along a budget vector of at most a
few entries.  The pairs are gathered with ``take(..., axis=1)``, which
keeps that layout; ``val[:, rows]`` would hand back the pair axis
outermost and strided.  An infeasible entry is -2**62, so it never
combines into a feasible one while the total weight stays below 2**62;
coordinates must lie strictly inside +-2**62 too.
Reconstruction walks down from the top cell with an explicit stack and
re-derives each choice from the values, so no choice is stored: skip
wins every tie, then the first slot, then the first left budget h.

Discovery depends on neither budget nor weights, so every fill
(``_Solver``) on an instance shares its ``_Windows``.  ``_windows`` retains
the last instance's when its arrays take at most 64 MiB, so a sweep over
budgets on one instance discovers once, and a large instance leaves
nothing behind once its call returns.

Budgets are prefix-closed.  A cell's entry at counted budget g combines
only entries <= g of its sub-cells, ties go to skip, then the first slot
and split in a fixed order, and the base vectors for budget B are
prefixes of those for any larger budget.  So a solver sized to budget B
gives every g <= B the same value and the same witness as a larger one.
``min_gaps_for_throughput`` relies on this: it solves at a small interior
budget and doubles it, capped at n - 1, only while the threshold is not
met, instead of sizing one solve to n - 1 whatever the answer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (INTEGER, Constraints, Instance, Schedule, certify,
                   edf_max_throughput, require_normalized, require_table_fits)
from .errors import GapSchedError, InfeasibleError

_LIMIT = 1 << 62          # bound on total weight and on |coordinates|
_INFEASIBLE = -_LIMIT     # two of them sum to int64's minimum, no lower
_BLOCK_BYTES = 1 << 20    # the fill's temporaries: one (budgets x pairs) block
_KEEP_BYTES = 64 << 20    # the largest windows ``_windows`` keeps after a call
_EMPTY_WINDOW, _NO_JOB = 0, 1  # rows of the two base vectors


def _ranges(starts, counts):
    """The ranges [starts[i], starts[i] + counts[i]), concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


class _Windows:
    """The candidate slots, canonical cells and children of the DP for one
    non-empty instance, whatever the budget and weights."""

    def __init__(self, inst: Instance):
        jobs = inst.by_deadline()
        self.jobs = jobs
        self.n = n = len(jobs)
        if any(not -_LIMIT < x < _LIMIT for j in jobs for x in (j.release, j.deadline)):
            raise GapSchedError("coordinates must lie strictly inside +-2**62")
        self.release = np.array([j.release for j in jobs], dtype=np.int64)
        self.deadline = np.array([j.deadline for j in jobs], dtype=np.int64)
        self.rank_job = np.argsort(self.release)   # deadline index by release rank
        self.releases = self.release[self.rank_job]
        self.log2 = np.array([0] + [x.bit_length() - 1 for x in range(1, n + 1)])
        # Slots within n + 1 of some release: each release's interval, less
        # the part its predecessor's interval already covers.
        m = n + 1
        hi = self.releases + m
        lo = np.concatenate(([self.releases[0] - m],
                             np.maximum(self.releases[1:] - m, hi[:-1] + 1)))
        counts = np.maximum(hi - lo + 1, 0)
        require_table_fits("throughput candidate slots", int(counts.sum()) * 8)
        self.slots = _ranges(lo, counts)
        # Every canonical u is a release or the slot before one; every
        # canonical v is a slot - 1, a deadline + 1, or the top query's end.
        self.ugrid = np.unique(np.concatenate((self.releases - 1, self.releases)))
        self.vgrid = np.unique(np.concatenate((self.slots - 1, self.deadline + 1)))
        self.nu, self.nv = len(self.ugrid), len(self.vgrid)
        if (n + 1) * self.nu * self.nv >= 1 << 63:
            raise GapSchedError(f"{n} jobs over {self.nv} window ends: too many windows")
        self.u0 = int(self.releases[0]) - 1
        self.v0 = int(self.deadline.max()) + 1
        self._discover()

    # -- canonicalization ---------------------------------------------------
    def _canon(self, k: int, u, v):
        """Canonical forms (k', u', v') of the windows (k, u[i], v[i]).  k' is
        -1 for an empty window (u > v) and 0 for one that holds none of the
        first k jobs, or only collapsed ones; u' and v' only mean something
        where k' > 0."""
        rel, n = self.releases, self.n
        i = rel.searchsorted(u)
        j = rel.searchsorted(v, side="right")
        # Sparse table: row l, column p is the largest deadline index below
        # k among release ranks [p, p + 2**l), or -1.
        table = np.full((int(self.log2[n]) + 1, n), -1, dtype=np.int64)
        table[0] = np.where(self.rank_job < k, self.rank_job, -1)
        for lv in range(1, len(table)):
            w = 1 << (lv - 1)
            np.maximum(table[lv - 1, :n - 2 * w + 1], table[lv - 1, w:n - w + 1],
                       out=table[lv, :n - 2 * w + 1])
        lv = self.log2[np.maximum(j - i, 1)]
        ic = np.minimum(i, n - 1)
        last = np.maximum(table[lv, ic], table[lv, j - (1 << lv)])
        last = np.where(j > i, last, -1)
        # Deadlines increase with the index, so the last job has the latest.
        # If even that one ends before u', every job inside is collapsed
        # (released after its deadline) and the window is one idle gap.
        cu = np.where(rel[ic] == u, u, rel[ic] - 1)
        cv = np.minimum(v, self.deadline[last] + 1)
        return np.where(u > v, -1, np.where(cv < cu, 0, last + 1)), cu, cv

    def _keys(self, k: int, u, v):
        """One int64 per canonical window of (k, u[i], v[i]), ordered by
        (k', u', v'); the base windows get -2 (empty) and -1 (no job)."""
        ck, cu, cv = self._canon(k, u, v)
        key = ((ck * self.nu + self.ugrid.searchsorted(cu)) * self.nv
               + self.vgrid.searchsorted(cv))
        return np.where(ck > 0, key, ck - 1)

    # -- the DP --------------------------------------------------------------
    def _discover(self):
        """Collect the canonical cells the top query reaches, level by level
        from k = n down, with their children's rows."""
        per_level = self.nu * self.nv
        top = self._keys(self.n, np.array([self.u0]), np.array([self.v0]))
        # Keys of the cells found but not yet expanded, sorted, so the
        # highest level's cells are the tail.
        pool = top[top >= 0]
        levels = []
        stored = 0
        while len(pool):
            k = int(pool[-1] // per_level)
            cut = int(pool.searchsorted(k * per_level))
            keys, pool = pool[cut:], pool[:cut]
            rest = keys - k * per_level
            u = self.ugrid[rest // self.nv]
            v = self.vgrid[rest % self.nv]
            # Candidate slots of job k: slots in [r_k, min(d_k, v)].
            lo = int(self.slots.searchsorted(self.release[k - 1]))
            hi = self.slots.searchsorted(np.minimum(self.deadline[k - 1], v), side="right")
            counts = np.maximum(hi - lo, 0)
            npairs = int(counts.sum())
            stored += 8 * (2 * len(keys) + 2 * npairs)  # keys and child keys
            require_table_fits("throughput windows", stored)
            cell = np.repeat(np.arange(len(keys)), counts)
            t = self.slots[lo + _ranges(np.zeros_like(counts), counts)]
            children = self._keys(k - 1, np.concatenate((u, u[cell], t + 1)),
                                  np.concatenate((v, t - 1, v[cell])))
            pool = np.unique(np.concatenate((pool, children[children >= 0])))
            levels.append((k, keys, lo, counts, children))
        all_keys = np.concatenate([lvl[1] for lvl in reversed(levels)] + [top[:0]])

        def rows(keys):
            return np.where(keys < 0, keys + 2, all_keys.searchsorted(keys) + 2
                            ).astype(np.int32)

        self.levels = []
        first = 2
        while levels:
            k, keys, lo, counts, children = levels.pop()
            ends = np.cumsum(counts)
            busy = np.flatnonzero(counts)
            ncell, npairs = len(keys), int(ends[-1])
            r = rows(children)
            self.levels.append(_Level(k, first, lo, busy, (ends - counts)[busy],
                                      ends[busy], r[:ncell], r[ncell:ncell + npairs],
                                      r[ncell + npairs:]))
            first += ncell
        self.nrows = first
        self.top_row = int(rows(top)[0])
        self.firsts = [lvl.first for lvl in self.levels]  # what witness bisects

    def nbytes(self) -> int:
        """Bytes held in the structure's arrays, its levels' included."""
        arrays = list(vars(self).values()) + [a for lvl in self.levels for a in lvl]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


class _Level(NamedTuple):
    """One level's cells: rows first .. first + len(skip) - 1 of the table."""

    k: int
    first: int
    lo: int             # index in ``slots`` of every cell's first slot
    busy: np.ndarray    # the cells with at least one slot, ascending
    starts: np.ndarray  # where each busy cell's pairs start
    ends: np.ndarray    # and end
    skip: np.ndarray    # row of (k - 1, u, v) for every cell
    left: np.ndarray    # row of (k - 1, u, t - 1) for every pair
    right: np.ndarray   # row of (k - 1, t + 1, v) for every pair


@dataclass
class _Solver:
    """The DP's values over one instance's windows at one counted budget."""

    win: _Windows
    weighted: bool
    budget: int  # counted-gap budget (boundary gaps included)

    def __post_init__(self):
        self.weights = [j.weight if self.weighted else 1 for j in self.win.jobs]
        if sum(self.weights) >= _LIMIT:
            raise GapSchedError(f"total weight {sum(self.weights)} is not below 2**62")
        self._fill()

    def _fill(self):
        """Values of all cells, level by level from k = 1 up."""
        g1 = self.budget + 1
        require_table_fits("throughput values", self.win.nrows * g1 * 8)
        val = np.empty((g1, self.win.nrows), dtype=np.int64)
        val[:, _EMPTY_WINDOW] = 0
        val[:, _NO_JOB] = 0
        val[0, _NO_JOB] = _INFEASIBLE  # an idle window is one gap
        block = max(1, _BLOCK_BYTES // (8 * g1))
        for lvl in self.win.levels:
            npairs = len(lvl.left)
            best = np.full((g1, len(lvl.busy)), _INFEASIBLE, dtype=np.int64)
            for s in range(0, npairs, block):
                e = min(s + block, npairs)
                lv = val.take(lvl.left[s:e], axis=1)
                rv = val.take(lvl.right[s:e], axis=1)
                # most[g] = max over h of lv[h] + rv[g - h]
                most = lv[:1] + rv
                for h in range(1, g1):
                    np.maximum(most[h:], lv[h:h + 1] + rv[:g1 - h], out=most[h:])
                # The busy cells holding pairs s..e-1 and their segments.
                c0, c1 = lvl.ends.searchsorted((s, e - 1), side="right")
                seg = np.maximum(lvl.starts[c0:c1 + 1] - s, 0)
                np.maximum(best[:, c0:c1 + 1], np.maximum.reduceat(most, seg, axis=1),
                           out=best[:, c0:c1 + 1])
            place = np.where(best >= 0, best + self.weights[lvl.k - 1], _INFEASIBLE)
            cells = val.take(lvl.skip, axis=1)
            cells[:, lvl.busy] = np.maximum(cells[:, lvl.busy], place)
            val[:, lvl.first:lvl.first + len(lvl.skip)] = cells
        self.val = val

    def values(self) -> tuple[int, ...]:
        """Best value at every counted budget <= ``budget`` for the whole
        instance, its window padded one slot past both extremes; -1 marks
        a budget no schedule meets."""
        return tuple(max(int(x), -1) for x in self.val[:, self.win.top_row])

    def witness(self, counted_budget: int) -> dict:
        """A schedule attaining ``values()[counted_budget]`` (which must be
        feasible), rebuilt from the top cell with an explicit stack."""
        val, win = self.val, self.win
        out: dict = {}
        stack = [(win.top_row, counted_budget)]
        while stack:
            row, g = stack.pop()
            if row < 2:
                continue
            lvl = win.levels[bisect.bisect_right(win.firsts, row) - 1]
            c = row - lvl.first
            best = val[g, row]
            if best == val[g, lvl.skip[c]]:  # skip wins every tie
                stack.append((int(lvl.skip[c]), g))
                continue
            i = int(lvl.busy.searchsorted(c))  # placing needs a slot: c is busy
            a, b = int(lvl.starts[i]), int(lvl.ends[i])
            left, right = lvl.left[a:b], lvl.right[a:b]
            # sums[h, p] = left value at h + right value at g - h; the first
            # match in (p, h) order is the first slot, then the first h.
            sums = val[:g + 1].take(left, axis=1) + val[g::-1].take(right, axis=1)
            p, h = divmod(int(np.argmax((sums == best - self.weights[lvl.k - 1]).T)),
                          g + 1)
            out[win.jobs[lvl.k - 1].id] = int(win.slots[lvl.lo + p])
            stack.append((int(right[p]), g - h))
            stack.append((int(left[p]), h))
        return out


_last = None  # (instance, its _Windows): the one entry _windows keeps


def _windows(inst: Instance) -> _Windows:
    """The windows of ``inst``, reused while calls stay on one instance
    whose windows take at most _KEEP_BYTES."""
    global _last
    hit = _last
    if hit is None or hit[0] != inst:
        hit = _last = None  # never hold two structures at once
        hit = inst, _Windows(inst)
        if hit[1].nbytes() <= _KEEP_BYTES:
            _last = hit
    return hit[1]


def max_throughput(inst: Instance, gaps: int,
                   weighted: bool = False) -> tuple[int, Schedule]:
    """Best count (or weight) of jobs schedulable with at most ``gaps``
    interior gaps."""
    if not isinstance(gaps, INTEGER):
        raise GapSchedError(f"gap budget {gaps!r} is not an integer")
    if gaps < 0:
        raise GapSchedError("gap budget must be non-negative")
    require_normalized(inst)
    if not inst.jobs:
        return 0, Schedule(inst, {})
    # n jobs leave at most n - 1 interior gaps, so larger budgets add nothing.
    counted = min(gaps, len(inst.jobs) - 1) + 2
    solver = _Solver(_windows(inst), weighted, counted)
    value = solver.values()[counted]
    sched = Schedule(inst, solver.witness(counted))
    certify(sched, inst, Constraints(max_gaps=gaps), value,
            "weight" if weighted else "count")
    return value, sched


def min_gaps_for_throughput(inst: Instance, threshold: int,
                            weighted: bool = False) -> tuple[int, Schedule]:
    """Fewest interior gaps among schedules reaching the throughput
    threshold."""
    if not isinstance(threshold, INTEGER):
        raise GapSchedError(f"throughput threshold {threshold!r} is not an integer")
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
    # The windows are discovered once, so a doubling costs only a fill.  A
    # fill at interior budget 4 costs about 1.7 fills at 0 on 24-32 jobs and
    # 3 on 60-80; starting at 1 would take three fills to get there.
    win = _windows(inst)
    gaps = min(4, cap)
    while True:
        solver = _Solver(win, weighted, gaps + 2)
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
