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
canonical cells the top query reaches: every cell's candidate slots, and
the canonical form of its children -- skip (k-1, u, v), and for each
slot t left (k-1, u, t-1) and right (k-1, t+1, v).  It works in rank
space: a cell carries the ranks of its u and v in the sorted grids of
canonical values, a child's other end is a slot index, and every lookup
-- the releases around a window, its canonical u, the rank of its v,
job k's candidate slots -- is a gather from tables built once per
instance.  A left child depends on u and t alone and a right one on t
and v alone, so a level canonicalizes each distinct child once, and its
pairs read their rows from those.
The fill then walks the levels upwards.  The value table is
budget-major, one row of cells per budget, so every step runs along a
contiguous row of pairs rather than along a budget vector of at most a
few entries.  A level's child rows are one int32 array: skip for every
cell, then left and right for every (cell, slot) pair.  A level of at
most about 1 MiB of pairs gathers all their values with one
``take(..., axis=1)``, which keeps that layout (``val[:, rows]`` would
hand back the pair axis outermost and strided), combines each pair's
halves by max-plus convolution, one whole-array step per h, and takes
each cell's best slot with one ``maximum.reduceat``.  A larger level
goes in blocks of about 1 MiB that end on cell boundaries, so each block
finishes its cells.  A cell with more pairs than a block -- one wide
window can hold O(n^2) slots -- is cut into pieces whose maxima merge.
Values are int32 when the total weight is below 2**30, with -2**30 for
infeasible, and int64 otherwise, with -2**62; the total must stay below
2**62, and coordinates strictly inside +-2**62.  A cell takes the
maximum of its skip value and each pair's sum plus job k's weight with
no test of feasibility, because the sign alone decides it:
- a stored value is never below the sentinel, since each cell is a
  maximum that includes its skip value (and the base values are 0 and
  the sentinel);
- two sentinels sum to exactly the dtype's minimum, so no sum overflows;
- an infeasible entry is the sentinel plus the weight of some of its
  cell's jobs, so a sum with an infeasible side, job k's weight added,
  stays below sentinel + total weight < 0.
So an entry is feasible exactly when it is >= 0, and ``values()`` maps
every negative entry to -1.
Reconstruction walks down from the top cell with an explicit stack and
re-derives each choice from the values in Python scalars, so no choice
is stored: skip wins every tie, then the first slot, then the first left
budget h.  A cell that no choice attains is refused with GapSchedError.

Discovery depends on neither budget nor weights, so every fill
(``_Solver``) on an instance shares its ``_Windows``.  The module keeps one
entry, for the last instance solved: its windows and at most one fill per
weighting.  The entry is dropped whole when another instance comes, and
kept only while its windows take at most 64 MiB; a fill is kept only while
windows and fills together stay within that, and is otherwise used and
dropped.  A large instance so leaves nothing behind once its call returns.
The entry holds the fills, and a fill holds the windows, never the other
way round, so the entry dies by reference counting alone.

Budgets are prefix-closed.  A cell's entry at counted budget g combines
only entries <= g of its sub-cells, ties go to skip, then the first slot
and split in a fixed order, and the base vectors for budget B are
prefixes of those for any larger budget.  So a fill at budget B gives
every g <= B the same value and the same witness as a larger one, and a
kept fill answers every budget up to its own.  The first fill for an
instance and weighting is made at the budget asked, so a lone call costs
no more than its own fill; a later ask above the kept budget fills at the
first of 4, 8, 16, ... capped at n - 1 that covers it, so a sweep over
small budgets fills twice per weighting, and further asks up to 4 are
answered from the kept fill.  ``min_gaps_for_throughput`` asks budgets
in that same sequence and stops at the first that meets the threshold,
instead of sizing one fill to n - 1 whatever the answer.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (Constraints, Instance, Schedule, certify, distinct, edf_max_throughput,
                   require_count, require_normalized, require_table_fits, slot_union)
from .errors import GapSchedError, InfeasibleError

_LIMIT = 1 << 62          # bound on total weight and on |coordinates|
_NARROW = 1 << 30         # totals below it fill int32 values
_BLOCK_BYTES = 1 << 20    # the fill's temporaries: one (budgets x pairs) block
_KEEP_BYTES = 64 << 20    # the most the kept entry's windows and fills take
_EMPTY_WINDOW, _NO_JOB = 0, 1  # rows of the two base vectors


class _Windows:
    """The candidate slots, canonical cells and children of the DP for one
    non-empty instance, whatever the budget and weights."""

    def __init__(self, inst: Instance):
        jobs = inst.by_deadline()
        self.jobs = jobs
        self.n = n = len(jobs)
        if any(not -_LIMIT < x < _LIMIT for j in jobs for x in (j.release, j.deadline)):
            raise GapSchedError("coordinates must lie strictly inside +-2**62")
        release = np.array([j.release for j in jobs], dtype=np.int64)
        deadline = np.array([j.deadline for j in jobs], dtype=np.int64)
        self.rank_job = np.argsort(release)   # deadline index by release rank
        rel = release[self.rank_job]
        # Slots within n + 1 of some release.  These and the grids below come
        # from the grid helpers of ``core``, ``slot_union`` and ``distinct``.
        slots = self.slots = slot_union(rel - (n + 1), rel + (n + 1),
                                        "throughput candidate slots", 8)
        # The grids and the lookup tables below: about ten int64 per slot.
        require_table_fits("throughput windows", 80 * (len(slots) + n))
        # Every canonical u is a release or the slot before one; every
        # canonical v is a slot - 1, a deadline + 1, or the top query's end.
        ugrid = self.ugrid = distinct(np.concatenate((rel - 1, rel)))
        vgrid = self.vgrid = distinct(np.concatenate((slots - 1, deadline + 1)))
        self.nu, self.nv = len(ugrid), len(vgrid)
        if (n + 1) * self.nu * self.nv >= 1 << 63:
            raise GapSchedError(f"{n} jobs over {self.nv} window ends: too many windows")
        # Discovery works in rank space, and each lookup of a window is a
        # gather from the tables below.  A window starts at a u-rank x < nu,
        # or at nu + s for the start t + 1 after slot t = slots[s]; it ends
        # at a v-rank y < nv, or at nv + s for the end t - 1 before slot s.
        begin = np.concatenate((ugrid, slots + 1))
        end = np.concatenate((vgrid, slots - 1))
        # first: the rank of the first release at or after the start (n if
        # none); past: the number of releases at or before the end.
        self.first = rel.searchsorted(begin)
        self.past = rel.searchsorted(end, side="right")
        # The canonical u of a start is the start itself when it is a
        # release, else the slot before the next release.  A start past
        # every release gets the last release's, and its windows hold no job.
        nxt = rel[np.minimum(self.first, n - 1)]
        cu = np.where(nxt == begin, begin, nxt - 1)
        self.canon_u = ugrid.searchsorted(cu)
        # A window is empty when its end's v-rank lies below empty_v, and
        # holds no job when its canonical v's rank lies below job_v.
        self.empty_v = vgrid.searchsorted(begin)
        self.job_v = vgrid.searchsorted(cu)
        self.end_v = vgrid.searchsorted(end)  # every end is in vgrid
        # The v-rank of d + 1 for each deadline index.  The extra last
        # entry, which index -1 reads, stands for no job: it lies below
        # every job_v.
        self.dead_v = np.append(vgrid.searchsorted(deadline + 1), -1)
        # Job k's candidate slots run from slot index slot_lo[k] up to, not
        # including, the smaller of slot_hi[k] and slot_end[v-rank].
        self.slot_lo = slots.searchsorted(release)
        self.slot_hi = slots.searchsorted(deadline, side="right")
        self.slot_end = slots.searchsorted(vgrid, side="right")
        # Where _canon's sparse table answers a range of q release ranks:
        # row 0 (all -1) for q <= 0, else row 1 + floor(log2 q), read at
        # the range's start (head) and at its end less 2**floor(log2 q)
        # (tail), as flat offsets.  Entries n + 1 .. 2n serve q = -n .. -1.
        self.table_rows = n.bit_length() + 1
        lg = [q.bit_length() - 1 for q in range(1, n + 1)]
        self.head = np.array([0] + [(g + 1) * (n + 1) for g in lg] + [0] * n)
        self.tail = np.array([0] + [(g + 1) * (n + 1) - (1 << g) for g in lg] + [0] * n)
        self.top = (0, int(vgrid.searchsorted(deadline.max() + 1)))
        self._discover()

    # -- canonicalization ---------------------------------------------------
    def _canon(self, k: int, x, y):
        """Canonical forms (k', u-rank, v-rank) of the windows from start x[i]
        to end y[i] over the first k jobs, in the index spaces above.  k' is
        -1 for an empty window and 0 for one that holds none of the first k
        jobs, or only collapsed ones; the ranks only mean something where
        k' > 0."""
        n = self.n
        i, j = self.first[x], self.past[y]
        # Sparse table: row l + 1, column p is the largest deadline index
        # below k among release ranks [p, p + 2**l), or -1; row 0 and
        # column n are -1.
        table = np.full((self.table_rows, n + 1), -1, dtype=np.int64)
        table[1, :n] = np.where(self.rank_job < k, self.rank_job, -1)
        for lv in range(2, self.table_rows):
            w = 1 << (lv - 2)
            np.maximum(table[lv - 1, :n - 2 * w + 1], table[lv - 1, w:n - w + 1],
                       out=table[lv, :n - 2 * w + 1])
        table = table.ravel()
        q = j - i
        last = np.maximum(table.take(self.head[q] + i), table.take(self.tail[q] + j))
        # Deadlines increase with the index, so the last job has the latest.
        # If even that one ends before u', every job inside is collapsed
        # (released after its deadline) and the window is one idle gap.
        v = self.end_v[y]
        cv = np.minimum(v, self.dead_v[last])
        ck = np.where(v < self.empty_v[x], -1,
                      np.where(cv < self.job_v[x], 0, last + 1))
        return ck, self.canon_u[x], cv

    def _keys(self, k: int, x, y):
        """One int64 per canonical window of (k, x[i], y[i]), ordered by
        (k', u', v'); the base windows get -2 (empty) and -1 (no job)."""
        ck, cu, cv = self._canon(k, x, y)
        return np.where(ck > 0, (ck * self.nu + cu) * self.nv + cv, ck - 1)

    # -- the DP --------------------------------------------------------------
    def _discover(self):
        """Collect the canonical cells the top query reaches, level by level
        from k = n down, with their children's rows."""
        nu, nv = self.nu, self.nv
        per_level = nu * nv
        top = self._keys(self.n, *(np.array([r]) for r in self.top))
        # Keys of the cells found but not yet expanded, by level: each
        # level's list holds sorted runs, one from each level that found it.
        pending = {}

        def found(keys):  # sorted, distinct, none of them a base window
            level = keys // per_level
            cuts = [0] + ((level[1:] != level[:-1]).nonzero()[0] + 1).tolist() + [len(keys)]
            for a, b in zip(cuts, cuts[1:]):
                if a < b:
                    pending.setdefault(int(level[a]), []).append(keys[a:b])

        found(top[top >= 0])
        levels = []
        stored = 0
        for k in range(self.n, 0, -1):
            if k not in pending:
                continue
            runs = pending.pop(k)  # each sorted and distinct already
            keys = runs[0] if len(runs) == 1 else distinct(np.concatenate(runs))
            ncell = len(keys)
            u, v = np.divmod(keys - k * per_level, nv)
            # Candidate slots of job k: slots in [r_k, min(d_k, v)], so a
            # cell's count depends on v alone and grows with it.
            lo = int(self.slot_lo[k - 1])
            counts = np.maximum(np.minimum(self.slot_end[v], self.slot_hi[k - 1]) - lo, 0)
            bounds = np.concatenate(([0], counts.cumsum()))
            # A left child (u, t - 1) depends on u and t alone, and a right
            # child (t + 1, v) on t and v alone, so each is canonicalized
            # once: a u over the slots of its cell with the most, the last of
            # its run since cells go by (u, v), and a v over its own slots.
            # Each u-rank, then each v-rank from the level's least, gets a
            # run of children; the v-ranks lie in job k's window, far fewer
            # than nv when releases are far apart.
            last = np.concatenate((u[1:] != u[:-1], [True])).nonzero()[0]
            v0 = int(v.min())
            side = v + (nu - v0)  # the run of each cell's right children
            width = np.zeros(int(side.max()) + 1, dtype=np.int64)
            width[u[last]] = counts[last]
            width[side] = counts
            start = width.cumsum() - width
            lsum, total = int(start[nu]), int(start[-1] + width[-1])
            # Keys, bounds, children and where they start; the level's rows.
            stored += 8 * (4 * ncell + total) + 4 * (ncell + 2 * int(bounds[-1]))
            require_table_fits("throughput windows", stored)
            t = np.arange(total) - start.repeat(width)  # slot index, less lo
            whose = np.arange(len(width)).repeat(width)  # u-rank, or v-rank + nu - v0
            children = self._keys(
                k - 1, np.concatenate((u, whose[:lsum], t[lsum:] + (nu + lo))),
                np.concatenate((v, t[:lsum] + (nv + lo), whose[lsum:] + (v0 - nu))))
            found(distinct(children[children >= 0]))
            # Where each cell's left and right children start, less the index
            # of its first pair.
            head = ncell - bounds[:-1]
            lbase, rbase = head + start[u], head + start[side]
            levels.append((k, keys, lo, bounds, children, lbase, rbase))
        all_keys = np.concatenate([lvl[1] for lvl in reversed(levels)] + [top[:0]])

        def rows(keys):
            return np.where(keys < 0, keys + 2, all_keys.searchsorted(keys) + 2
                            ).astype(np.int32)

        self.levels = []
        first = 2
        while levels:
            k, keys, lo, bounds, children, lbase, rbase = levels.pop()
            ncell = len(keys)
            counts = bounds[1:] - bounds[:-1]
            pair = np.arange(int(bounds[-1]))
            got = rows(children)
            self.levels.append(_Level(k, first, ncell, lo, bounds, np.concatenate((
                got[:ncell], got[lbase.repeat(counts) + pair],
                got[rbase.repeat(counts) + pair]))))
            first += ncell
        self.nrows = first
        self.top_row = int(rows(top)[0])
        self.firsts = [lvl.first for lvl in self.levels]  # what witness bisects

    def nbytes(self) -> int:
        """Bytes held in the structure's arrays, its levels' included."""
        arrays = list(vars(self).values()) + [a for lvl in self.levels for a in lvl]
        return sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))


class _Level(NamedTuple):
    """One level's cells: rows first .. first + ncell - 1 of the table.

    Every cell of a level has a candidate slot, since its window holds job
    k's release, unless job k is collapsed; then no cell has one."""

    k: int
    first: int
    ncell: int
    lo: int              # index in ``slots`` of every cell's first slot
    bounds: np.ndarray   # cell c's pairs are bounds[c] .. bounds[c + 1] - 1
    rows: np.ndarray     # the children's rows: skip, then left, then right

    @property
    def skip(self):      # row of (k - 1, u, v) for every cell
        return self.rows[:self.ncell]

    @property
    def left(self):      # row of (k - 1, u, t - 1) for every pair
        return self.rows[self.ncell:self.ncell + int(self.bounds[-1])]

    @property
    def right(self):     # row of (k - 1, t + 1, v) for every pair
        return self.rows[self.ncell + int(self.bounds[-1]):]

    def blocks(self, per: int):
        """The level's fill in blocks of at most ``per`` pairs, as tuples
        (first column, rows to gather, cells finished, reduceat offsets).

        A block gathers its cells' skip rows, then its pairs' left and right
        rows, and ends on a cell boundary, so it finishes its cells.  A
        level of at most ``per`` pairs is one block, which gathers ``rows``
        itself.  A cell with more than ``per`` pairs is cut: its first
        pieces finish no cell, and their maxima merge into the first cell of
        the block holding its last piece."""
        bounds, npairs = self.bounds, int(self.bounds[-1])
        if npairs <= per:
            yield self.first, self.rows, self.ncell, bounds[:-1]
            return
        skip, left, right = self.skip, self.left, self.right
        ends = bounds[1:]
        c = 0
        while c < self.ncell:
            s = int(bounds[c])
            while ends[c] - s > per:
                yield 0, np.concatenate((left[s:s + per], right[s:s + per])), 0, [0]
                s += per
            c1 = int(ends.searchsorted(s + per, side="right"))
            e = int(ends[c1 - 1])
            yield (self.first + c, np.concatenate((skip[c:c1], left[s:e], right[s:e])),
                   c1 - c, np.maximum(bounds[c:c1] - s, 0))
            c = c1


@dataclass
class _Solver:
    """The DP's values over one instance's windows at one counted budget."""

    win: _Windows
    weighted: bool
    budget: int  # counted-gap budget (boundary gaps included)

    def __post_init__(self):
        self.weights = [int(j.weight) if self.weighted else 1 for j in self.win.jobs]
        total = sum(self.weights)
        if total >= _LIMIT:
            raise GapSchedError(f"total weight {total} is not below 2**62")
        # Two sentinels sum to the dtype's minimum (see the module docstring).
        narrow = total < _NARROW
        self.dtype = np.dtype(np.int32 if narrow else np.int64)
        self.infeasible = -_NARROW if narrow else -_LIMIT
        self._fill()

    def _fill(self):
        """Values of all cells, level by level from k = 1 up."""
        g1 = self.budget + 1
        dtype = self.dtype
        require_table_fits("throughput values", self.win.nrows * g1 * dtype.itemsize)
        val = np.empty((g1, self.win.nrows), dtype=dtype)
        val[:, _EMPTY_WINDOW] = 0
        val[:, _NO_JOB] = 0
        val[0, _NO_JOB] = self.infeasible  # an idle window is one gap
        # Blocks are sized in 8-byte units whatever the dtype, so a block
        # holds as many pairs in int32 as in int64 and is cut at the same
        # cells.
        per = max(1, _BLOCK_BYTES // (8 * g1))
        # Buffers every block reuses: the gathered values, the maxima and the
        # sums.  A level of at most ``per`` pairs gathers all its rows; a
        # block of a larger one, at most ``per`` pairs and as many cells.
        width = max((len(lvl.rows) if lvl.bounds[-1] <= per else 3 * per
                     for lvl in self.win.levels), default=0)
        gather = np.empty(g1 * width, dtype=dtype)
        most_buf, sum_buf = np.empty((2, g1 * min(width, per)), dtype=dtype)
        for lvl in self.win.levels:
            w = self.weights[lvl.k - 1]
            carry = None  # the maxima of a cut cell's pieces so far
            for first, rows, nc, seg in lvl.blocks(per):
                got = gather[:g1 * len(rows)].reshape(g1, len(rows))
                # Every row is in range, so "clip" changes nothing; it lets
                # take write straight into the buffer.
                val.take(rows, axis=1, out=got, mode="clip")
                cells = got[:, :nc]  # the skip values
                m = (len(rows) - nc) // 2
                if not m:
                    val[:, first:first + nc] = cells
                    continue
                lv, rv = got[:, nc:nc + m], got[:, nc + m:]
                # most[g] = max over h of lv[h] + rv[g - h]
                most = np.add(lv[:1], rv, out=most_buf[:g1 * m].reshape(g1, m))
                sums = sum_buf[:g1 * m].reshape(g1, m)
                for h in range(1, g1):
                    np.add(lv[h:h + 1], rv[:g1 - h], out=sums[:g1 - h])
                    np.maximum(most[h:], sums[:g1 - h], out=most[h:])
                best = np.maximum.reduceat(most, seg, axis=1)
                if carry is not None:
                    np.maximum(best[:, :1], carry, out=best[:, :1])
                if not nc:
                    carry = best
                    continue
                carry = None
                best += w
                np.maximum(cells, best, out=val[:, first:first + nc])
        self.val = val

    def values(self) -> tuple[int, ...]:
        """Best value at every counted budget <= ``budget`` for the whole
        instance, its window padded one slot past both extremes; -1 marks
        a budget no schedule meets."""
        return tuple(max(x, -1) for x in self.val[:, self.win.top_row].tolist())

    def witness(self, counted_budget: int) -> dict:
        """A schedule attaining ``values()[counted_budget]`` (which must be
        feasible), rebuilt from the top cell with an explicit stack.  Each
        placed job takes the first slot, then the first left budget h, whose
        split attains its cell; a cell that neither its skip value nor any
        split attains raises GapSchedError."""
        at, win = self.val.item, self.win
        out: dict = {}
        stack = [(win.top_row, counted_budget)]
        while stack:
            row, g = stack.pop()
            if row < 2:
                continue
            lvl = win.levels[bisect.bisect_right(win.firsts, row) - 1]
            c = row - lvl.first
            best, rows = at(g, row), lvl.rows.item
            skip = rows(c)
            if best == at(g, skip):  # skip wins every tie
                stack.append((skip, g))
                continue
            p, left, right, h = self._split(lvl, c, g, best - self.weights[lvl.k - 1])
            out[win.jobs[lvl.k - 1].id] = win.slots.item(lvl.lo + p)
            stack.append((right, g - h))
            stack.append((left, h))
        return out

    def _split(self, lvl: _Level, c: int, g: int, need: int):
        """The first slot p of cell c (counted from its first), then the first
        h, whose left value at h plus right value at g - h is ``need``, as
        (p, left row, right row, h)."""
        at, rows = self.val.item, lvl.rows.item
        a, b = lvl.bounds.item(c), lvl.bounds.item(c + 1)
        ls = lvl.ncell              # where the pairs' left rows start in rows
        rs = ls + lvl.bounds.item(-1)  # and their right rows
        for p in range(a, b):
            left, right = rows(ls + p), rows(rs + p)
            for h in range(g + 1):
                if at(h, left) + at(g - h, right) == need:
                    return p - a, left, right, h
        raise GapSchedError(f"no choice attains row {lvl.first + c}'s value at "
                            f"counted budget {g}")


_last = None  # (instance, its _Windows, {weighted: kept _Solver}): the one entry kept


def _entry(inst: Instance) -> tuple[Instance, _Windows, dict]:
    """The kept entry of ``inst``, or a new one, kept when its windows take
    at most _KEEP_BYTES."""
    global _last
    entry = _last
    if entry is None or entry[0] != inst:
        entry = _last = None  # never hold two structures at once
        entry = inst, _Windows(inst), {}
        if entry[1].nbytes() <= _KEEP_BYTES:
            _last = entry
    return entry


def _solver(entry: tuple, weighted: bool, gaps: int) -> _Solver:
    """A fill covering interior budget ``gaps`` (at most n - 1): the entry's
    kept one for this weighting if its budget covers ``gaps``, else a new
    one, kept while the windows and the fills take at most _KEEP_BYTES.
    The first fill is made at ``gaps``, a later one at the first of 4, 8,
    16, ... capped at n - 1 that covers it."""
    _, win, fills = entry
    if weighted in fills:
        if fills[weighted].budget >= gaps + 2:
            return fills[weighted]
        del fills[weighted]  # never hold two fills of one weighting
        gaps = min(max(4, 1 << (gaps - 1).bit_length()), win.n - 1)
    solver = _Solver(win, weighted, gaps + 2)
    if win.nbytes() + sum(f.val.nbytes for f in fills.values()) + solver.val.nbytes <= _KEEP_BYTES:
        fills[weighted] = solver
    return solver


def max_throughput(inst: Instance, gaps: int,
                   weighted: bool = False) -> tuple[int, Schedule]:
    """Best count (or weight) of jobs schedulable with at most ``gaps``
    interior gaps."""
    require_count("gap budget", gaps)
    require_normalized(inst)
    if not inst.jobs:
        return 0, Schedule(inst, {})
    # n jobs leave at most n - 1 interior gaps, so larger budgets add nothing.
    counted = min(gaps, len(inst.jobs) - 1) + 2
    solver = _solver(_entry(inst), weighted, counted - 2)
    value = solver.values()[counted]
    sched = Schedule(inst, solver.witness(counted))
    certify(sched, inst, Constraints(max_gaps=gaps), value,
            "weight" if weighted else "count")
    return value, sched


def min_gaps_for_throughput(inst: Instance, threshold: int,
                            weighted: bool = False) -> tuple[int, Schedule]:
    """Fewest interior gaps among schedules reaching the throughput
    threshold.

    Asks fills at interior budgets 4, 8, 16, ... capped at n - 1, and reads
    each one's budgets not read yet, so a kept fill at a larger budget
    answers at once and a fill at n - 1 is made only when a smaller one
    falls short."""
    require_count("throughput threshold", threshold, None)
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
    # A fill at interior budget 4 costs about 2.2 fills at 0 on 24-32 jobs
    # and 2.7 on 60-80; starting at 1 would take three fills to get there.
    entry = _entry(inst)
    checked = -1  # interior budgets up to here fall short of the threshold
    while checked < cap:
        solver = _solver(entry, weighted, min(max(4, 2 * checked), cap))
        vals = solver.values()
        for g in range(checked + 1, solver.budget - 1):
            if vals[g + 2] >= threshold:
                sched = Schedule(inst, solver.witness(g + 2))
                certify(sched, inst, Constraints(min_throughput=threshold,
                                                 weighted=weighted),
                        g, "gap_count")
                return g, sched
        checked = solver.budget - 2
    raise InfeasibleError(f"throughput {threshold} is unreachable")
