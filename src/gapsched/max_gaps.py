"""Maximum number of gaps for feasible deadline instances.

Windowed DP: best[k][u][v] is the most gaps (extremal ones included) a
schedule of the first k jobs released inside [u, v] can show in that
window.  Job k must run at some t in [r_k, min(v, d_k, r_k + 3n)]; every
schedule can be rewritten, without losing a gap, so that no job travels
further than 3n past its release (the rewrite is executed and checked in
tests/test_max_gaps.py, TestLemma2Normalize), which also pins the useful
window starts to releases and their predecessors.  The right sub-window is
remapped to start just before the next release, collapsing the u-axis to
O(n) values and the total work to O(n^5).

The v-axis holds only the window ends the recursion reads: for each job j,
sentinels included, the slots [r_j - 1, min(d_j, r_j + 3n)].  Placing job
k at slot t fills the cells at ends v >= t from level k - 1 at ends t - 1
and v alone, and t - 1 and t lie in job k's range.  So these ends are
closed under the fill's reads, and they hold END's slot, where the top
query ends: no other end is ever read.  Level k fills only the ends up to
the first one past d_k and copies that column to the later ends: no job
of the first k can run past d_k, so every later end holds the same value.
``core.slot_union`` lists these ends, and the working table is sized
from their count, the length of the union of the ranges, before they are
listed: far-apart long windows are refused at O(n) memory.

Every level's candidate slots are listed once, before the working table
is allocated, by ``_slot_table``, as int32 columns: t is read back as its
end's column.  Job k's candidates are the slots of [r_k, min(d_k, r_k +
3n)] at which no job before k is released, since another job must run
there.  Each slot keeps its split column, that of the next such release
past it, and the row its right window starts at: that release, or the
slot just before it.  In release order, the next such release is the
first one from the first release past t whose job comes before k; it is
found for every slot at once by binary lifting over a sparse table of
range minima of the jobs' deadline indices, log n rows of n + 1.  The
listing is O(S log n) work and O(S + n log n) memory for S slots.

One int16 working table, ``cur``, holds the level being filled, indexed
[v][u], so that the fold reads and writes whole rows over the starts.
Level k changes only starts u <= r_k from end r_k on, and its block is
those starts up to that first end past d_k.  Slot t's value at end v is
its left factor, window [u, t - 1], plus its right factor, window
[t + 1, v]: 0 at v = t (an empty window), 1 up to the split at the next
prior release (an idle tail is one gap), and from the split on the row
the right window starts at, which lies past r_k and so is level k - 1's.

The slots that share a split form a run, and they are consecutive ends:
a slot between two of them would be a prior release.  Along a run the
left factor never falls: [u, t] holds the same jobs as [u, t - 1], since
no job before k is released at t, and every schedule of the smaller
window is one of the larger with no fewer gaps.  So before its run's
split, end v takes the larger of the slot at v plus 0 and the run's
latest slot before v plus 1; past the run's last slot, as where the 3n
reach stops, only the latter.  That is two row gathers, through the
column maps ``cols[k]``: for each block end, the slot at it and that
latest slot, each as the row of its end t - 1, and the row past the
last end, a floor, for none.  From the split on, the slots that also
share a right row form a group, at most two a run, since only the slot
just before the release starts its right window at the release.  A
group's left factor is that of its last slot, and ``groups[k]`` lists
each group's left-factor row, right row and split column.  Consecutive groups
are folded in slabs: each slab sums its left and right factors, the
latter a floor before each group's split, into one buffer of
``_SLAB_BYTES`` (or of the largest block, if one group needs more) from
its first group's split, and raises the block to its maximum over the
slab.  On the seed-1 ``gap-objectives`` pool the fold sums 19.4 M cells,
and 1.4 M more are gathered, where folding each slot from its own
column summed 42.5 M.  An empty window [r_k, r_k - 1] holds 0: no level
writes it, and only job k's first slot reads it.

The maps are listed with the slot table, once per instance: the slot
table and the groups take 12 bytes a slot and a group, at most one
group a slot, and the column maps 8 bytes a block column.  They are
sized from each job's slot count and block width and checked with the
working table and the blocks before they are listed.

Only the blocks are kept, in a ``core.LevelBlocks`` that holds the read
rule, keyed by the releases: window [u, v] holds the jobs released in it.
Level 0 is one column of 1s, the empty window's one all-idle gap.  The
working table and the blocks, 2 bytes a cell, are checked before either is
allocated.

The rebuild, ``_rebuild``, re-derives each placed job's slot from these
values in Python scalars.  It walks the job's candidate slots in the fill's
order and stops at the first whose split attains the cell's value, so a
later slot that only ties it never wins.  A slot's left and right windows
are each read at the last job released inside them, found by stepping
down from job k - 1: at most k - 1 steps a window.  The slots that share
a split form a run, and inside a run both windows hold the same jobs of
the first k - 1, so the steps are taken once a run, not once a slot.  A
placed job so costs O(n) a run and O(1) a slot tried, at most 3n + 1
slots; the rebuild is O(n^3) at worst, against the fill's O(n^5).

A value is at most n + 1, so a sum of two fits int16 while n is at most
``_MAX_JOBS``, sentinels included; a larger n is refused first.  Every
coordinate, sentinels and the 3n span included, must lie strictly inside
+-2**62, so that int64 holds every slot and bound the fill computes.
"""

from __future__ import annotations

import bisect
from typing import NamedTuple

import numpy as np

from .core import (
    END,
    START,
    Constraints,
    Instance,
    LevelBlocks,
    Schedule,
    augment,
    certify,
    distinct,
    job_arrays,
    require_normalized,
    slot_union,
)
from .errors import GapSchedError

_INT16_MAX = int(np.iinfo(np.int16).max)
_MAX_JOBS = _INT16_MAX // 2 - 1    # 2(n + 1), a sum of two values, fits int16
_FLOOR = -(_INT16_MAX // 2)        # plus any value: below 0, above int16's minimum
_SLAB_BYTES = 256 << 10            # one slab's temporary: slots x rows x columns


class _Levels(NamedTuple):
    """The filled DP: every level's block, and the grid and slots the
    rebuild reads them by."""

    jobs: list                  # deadline-sorted, sentinels included
    ug: np.ndarray              # window starts u, ascending
    vg: np.ndarray              # window ends v, ascending
    blocks: LevelBlocks         # keyed by the releases
    slots: list                 # slots[k]: int32 rows column, split column, right row


def _slot_table(rel: np.ndarray, order: np.ndarray, cnt: np.ndarray, ug: np.ndarray,
                vg: np.ndarray, first: np.ndarray, end: np.ndarray) -> tuple[list, list, list]:
    """Every job's candidate slots, the free ones of the cnt[k] slots from
    r_k, ascending, and the fold's maps over them, for k from 1.
    ``order`` holds the job indices in release order, and job k's block
    spans the ends first[k] .. end[k] - 1.

    slots[k] holds job k's columns, split columns and right-factor rows as
    three int32 rows.  A slot's left factor is read at the end before its
    own, t - 1, and none at the floor row past the last end.  cols[k]
    holds two such rows for each block end: that of the slot at it, and
    that of the latest earlier slot whose split lies past it.  groups[k]
    holds, for each group that splits inside the block, its last slot's
    left-factor row, its right row and its split column from first[k]."""
    n = len(rel)
    # Job k's slots are consecutive ends from r_k's column on; below, k
    # is the job's index from 0, so the jobs before it are those below k.
    tcol = np.repeat(first - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    ts, k = vg[tcol], np.repeat(np.arange(n), cnt)
    # The releases ascending, then a bound past every end whose job comes
    # before every job; p is the first release past t.
    rs, who = np.append(rel[order], vg[-1] + 2), np.append(order, -1)
    p = rs.searchsorted(ts, side="right")
    free = (rs[p - 1] != ts) | (who[p - 1] >= k)    # no job before k released at t
    tcol, ts, k, p = tcol[free], ts[free], k[free], p[free]
    # The next prior release is the first from p whose job comes before k:
    # lift p over every block of 2**j releases whose least job, mins[j],
    # is k or later.
    mins = [who]
    while 1 << len(mins) < n:
        h = 1 << (len(mins) - 1)
        mins.append(np.minimum(mins[-1], np.append(mins[-1][h:], np.full(h, -1))))
    for j in range(len(mins) - 1, -1, -1):
        p += (mins[j][p] >= k) * (1 << j)
    # The right window starts at that release, or at the row of the slot
    # just before it.  A slot with no next release splits past every
    # column, so its row is never read.
    nxt = rs[p]
    split, rrow = vg.searchsorted(rs)[p], ug.searchsorted(rs)[p] - (nxt > ts + 1)
    table = np.array((tcol, split, rrow), dtype=np.int32)
    at = k.searchsorted(np.arange(n + 1))
    # Every job's block ends, one block after another: the slot at each
    # end, by its index from 1 (0 for none), and the latest slot before
    # it, the latest at or before the previous end; a block's first end
    # holds its first slot, so it has none before.  The latter is kept
    # while its split lies past the end.
    width = end - first
    col = np.cumsum(width) - width
    slot_at = np.zeros(width.sum(), dtype=np.int64)
    slot_at[col[k] + tcol - first[k]] = np.arange(1, len(k) + 1)
    prev = np.append(0, np.maximum.accumulate(slot_at)[:-1])
    prev[col] = 0
    prev *= split[prev - 1] > np.repeat(first - col, width) + np.arange(len(prev))
    # Each slot's left-factor row, and last the floor row, which slot 0
    # reads.
    lrow = np.append(tcol - 1, len(vg))
    maps = np.array((lrow[slot_at - 1], lrow[prev - 1]), dtype=np.int32)
    # A group's last slot: its job, split or row differs from the next
    # slot's.
    last = np.append((k[1:] != k[:-1]) | (split[1:] != split[:-1]) | (rrow[1:] != rrow[:-1]),
                     True)
    g = np.flatnonzero(last & (split < end[k]))
    groups = np.array((tcol[g] - 1, rrow[g], split[g] - first[k[g]]), dtype=np.int32)
    gat = k[g].searchsorted(np.arange(n + 1))
    col = np.append(col, len(slot_at))
    return ([None] + [table[:, a:b] for a, b in zip(at[:-1], at[1:])],
            [None] + [maps[:, a:b] for a, b in zip(col[:-1], col[1:])],
            [None] + [groups[:, a:b] for a, b in zip(gat[:-1], gat[1:])])


def _fill(jobs: list) -> _Levels:
    """Fill the DP for the sentinel-augmented jobs, keeping each level's
    block."""
    n = len(jobs)
    span = 3 * n
    rel, dl, order, _ = job_arrays(jobs)
    hi = np.minimum(dl, rel + span)
    ug = distinct(np.concatenate((rel - 1, rel)))
    # The window ends: the slot before each job's release and every slot it
    # may take, [r_j - 1, min(d_j, r_j + span)].
    vg = slot_union(rel - 1, hi, "max_gaps working table", 2 * len(ug))
    nu, nv, cnt = len(ug), len(vg), hi - rel + 1

    # Level k's block: rows u <= r_k and columns from r_k through the first
    # end past d_k (or the last end).  Level 0's: every row, one column.
    # The working table with its floor row, the slot table and the groups,
    # 3 int32 each for each of cnt[k] slots a job at most, and the column
    # maps, 2 int32 a block column, are checked with them.
    top, first = ug.searchsorted(rel, side="right"), vg.searchsorted(rel)
    last = np.minimum(vg.searchsorted(dl + 1) + 1, nv)
    rows, end = [nu] + top.tolist(), [1] + last.tolist()
    blocks = LevelBlocks("max_gaps working table, blocks and slots", np.int16,
                         (nv + 1) * nu * 2 + 24 * int(cnt.sum()) + 8 * int((last - first).sum()),
                         rel.tolist(), rows, [0] + first.tolist(), end)
    blocks.block(0)[...] = 1
    slots, cols, groups = _slot_table(rel, order, cnt, ug, vg, first, last)

    # cur[v][u] is the current level k, filled in place; level 0 is the
    # empty sub-instance: one all-idle gap.  An empty window [r_k, r_k - 1]
    # holds 0: no level writes it, and only job k's first slot reads it.
    # The row past the last end, the maps' none, holds a floor.
    cur = np.ones((nv + 1, nu), dtype=np.int16)
    cur[first - 1, top - 1] = 0
    cur[nv] = _FLOOR
    buf = np.empty(max(_SLAB_BYTES // 2, *np.multiply(rows, blocks.width)), np.int16)
    columns = np.arange(nv)
    for k in range(1, n + 1):
        at, before = cols[k]
        gleft, grow, gsplit = groups[k]
        rk, c0, ck = rows[k], end[k] - blocks.width[k], end[k]
        # Each group's left factor over u, window [u, t - 1] for its last
        # slot t, read before this level overwrites it.
        lefts = cur[gleft, :rk]
        # Before its run's split, an end takes the slot at it, 0 on the
        # right, or the run's latest earlier slot, 1 on the right.
        block = cur[c0:ck, :rk]
        np.maximum(cur[at, :rk], cur[before, :rk] + 1, out=block)
        # From a group's split on, its right factor is the start its right
        # window takes, past r_k and so level k - 1's.  Consecutive groups
        # are folded in slabs from the first one's split, each group with
        # a floor before its own.
        rights = cur[c0:ck, grow].T
        np.copyto(rights, _FLOOR, where=columns[:ck - c0] < gsplit[:, None])
        s = 0
        while s < len(gleft):
            cs = int(gsplit[s])
            w = ck - c0 - cs
            e = min(len(gleft), s + max(1, _SLAB_BYTES // (2 * rk * w)))
            tmp = buf[:(e - s) * w * rk].reshape(e - s, w, rk)
            np.add(lefts[s:e, None, :], rights[s:e, cs:, None], out=tmp)
            np.maximum(block[cs:], tmp.max(axis=0), out=block[cs:])
            s = e
        cur[ck:nv, :rk] = cur[ck - 1, :rk]
        blocks.block(k)[...] = block.T
    return _Levels(jobs, ug, vg, blocks, slots)


def _rebuild(levels: _Levels) -> tuple[int, dict]:
    """The top cell's value and a schedule attaining it, sentinels included.

    Each placed job leaves a left window, taken next, and possibly a right
    one, taken first (pushed last).  A window is solved by the last job
    released inside it: the top one by END.
    """
    jobs, slots, ug, vg = levels.jobs, levels.slots, levels.ug.tolist(), levels.vg.tolist()
    last_inside, cell, end = levels.blocks.last_inside, levels.blocks.cell, levels.blocks.end

    def place(k: int, u: int, v: int) -> tuple[int, ...]:
        """Job k's slot in cell (k, u, v): the first, as the fill met them,
        whose split attains the cell's value, with the last jobs inside its
        left and right windows.  These windows, [u, t - 1] and [row, v], are
        read at level k - 1.  Jobs before k are released before d_k, so a
        split at or before v lies at or before vc, and [row, v] holds the
        same jobs and the same value as [row, vc]."""
        vc = min(v, end[k] - 1)
        best = cell(k, u, vc)
        lo = ug[u]
        run = None
        for tcol, split, rrow in zip(*slots[k].tolist()):
            if tcol > vc:
                break
            t = vg[tcol]
            if split != run:    # a new run: its windows hold other jobs
                run = split
                jl = last_inside(k - 1, lo, t - 1) if lo < t else 0
                jr = last_inside(k - 1, ug[rrow], vg[vc]) if split <= vc else 0
            left = cell(jl, u, tcol - 1) if lo < t else 0
            right = cell(jr, rrow, vc) if split <= vc else 0 if tcol == vc else 1
            if left + right == best:
                return t, tcol, split, rrow, jl, jr
        raise GapSchedError(f"no slot of job {jobs[k - 1].id!r} attains "
                            f"{best} in window [{lo}, {vg[v]}]")

    n = len(jobs)
    top_u = bisect.bisect_left(ug, jobs[0].release)
    top_v = bisect.bisect_left(vg, jobs[-1].release)
    value = cell(n, top_u, top_v) - 2
    assignment: dict = {}
    stack = [(n, top_u, top_v)]
    while stack:
        k, u, v = stack.pop()
        if k == 0:
            continue
        t, tcol, split, rrow, jl, jr = place(k, u, v)
        assignment[jobs[k - 1].id] = t
        if ug[u] < t:
            stack.append((jl, u, tcol - 1))
        if split <= v:
            stack.append((jr, rrow, v))
    return value, assignment


def max_gaps(inst: Instance) -> tuple[int, Schedule]:
    """Maximum interior gap count over full schedules, with witness."""
    require_normalized(inst, feasible=True)
    if len(inst.jobs) == 0:
        return 0, Schedule(inst, {})
    jobs = augment(inst)
    if len(jobs) > _MAX_JOBS:
        raise GapSchedError(f"{len(jobs)} jobs (sentinels included), above the "
                            f"int16 limit of {_MAX_JOBS}")
    lo, hi = jobs[0].release - 1, jobs[-1].release + 3 * len(jobs)
    if not (-2**62 < lo and hi < 2**62):
        raise GapSchedError(f"coordinates {lo}..{hi}, 3n span included, not inside +-2**62")
    value, assignment = _rebuild(_fill(jobs))
    sched = Schedule(inst, {j: t for j, t in assignment.items()
                            if j not in (START, END)})
    certify(sched, inst, Constraints(require_all=True), value, "gap_count")
    return value, sched
