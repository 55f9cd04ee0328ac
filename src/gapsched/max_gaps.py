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
listing is O(S log n) work and O(S + n log n) memory for S slots, and
the slot table, 12 bytes a slot, is sized from each job's slot count and
checked with the working table and the blocks before it is listed.

One int16 working table holds the level being filled.  Level k changes
only rows u <= r_k from column r_k on, and its block is those rows up to
that first end past d_k.  The left factors of all its slots, window
[u, t - 1], are gathered before the level writes.  The right factors form
one matrix over slots and block columns: a floor that never wins before
t, 0 at v = t (an empty window), 1 up to the split at the next prior
release (an idle tail is one gap), and from the split on the row the
right window starts at, which lies past r_k and so is level k - 1's.
The part before the split is one gather from a band shared by all
levels, sliding windows over nv floors, one 0 and nv 1s; the split's own
columns are copied over it from the working table.  Consecutive slots
are folded in slabs: each slab sums its left and right factors into one
buffer of ``_SLAB_BYTES`` (or of the largest block, if one slot needs
more) and raises the block to its maximum over the slab.

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
from numpy.lib.stride_tricks import sliding_window_view

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


def _slot_table(rel: np.ndarray, cnt: np.ndarray, ug: np.ndarray, vg: np.ndarray) -> list:
    """Every job's candidate slots, the free ones of the cnt[k] slots from
    r_k, ascending: slots[k] holds job k's columns, split columns and
    right-factor rows as three int32 rows, for k from 1."""
    n = len(rel)
    # Job k's slots are consecutive ends from r_k's column on; below, k
    # is the job's index from 0, so the jobs before it are those below k.
    tcol = np.repeat(vg.searchsorted(rel) - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())
    ts, k = vg[tcol], np.repeat(np.arange(n), cnt)
    # The releases ascending, then a bound past every end whose job comes
    # before every job; p is the first release past t.
    order = rel.argsort()
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
    table = np.array((tcol, vg.searchsorted(rs)[p],
                      ug.searchsorted(rs)[p] - (nxt > ts + 1)), dtype=np.int32)
    at = k.searchsorted(np.arange(n + 1))
    return [None] + [table[:, a:b] for a, b in zip(at[:-1], at[1:])]


def _fill(jobs: list) -> _Levels:
    """Fill the DP for the sentinel-augmented jobs, keeping each level's
    block."""
    n = len(jobs)
    span = 3 * n
    rel = np.array([j.release for j in jobs], dtype=np.int64)
    dl = np.array([j.deadline for j in jobs], dtype=np.int64)
    hi = np.minimum(dl, rel + span)
    ug = distinct(np.concatenate((rel - 1, rel)))
    # The window ends: the slot before each job's release and every slot it
    # may take, [r_j - 1, min(d_j, r_j + span)].
    vg = slot_union(rel - 1, hi, "max_gaps working table", 2 * len(ug))
    nu, nv, cnt = len(ug), len(vg), hi - rel + 1

    # Level k's block: rows u <= r_k and columns from r_k through the first
    # end past d_k (or the last end).  Level 0's: every row, one column.
    # The slot table, 3 int32 for each of cnt[k] slots a job, is checked
    # with them.
    rows = [nu] + ug.searchsorted(rel, side="right").tolist()
    end = [1] + np.minimum(vg.searchsorted(dl + 1) + 1, nv).tolist()
    blocks = LevelBlocks("max_gaps working table, blocks and slots", np.int16,
                         nu * nv * 2 + 12 * int(cnt.sum()),
                         rel.tolist(), rows, [0] + vg.searchsorted(rel).tolist(), end)
    blocks.block(0)[...] = 1
    slots = _slot_table(rel, cnt, ug, vg)

    # cur[u][v] is the current level k, filled in place; level 0 is the
    # empty sub-instance: one all-idle gap.  A right factor before its
    # split is a window of the band: a floor before t, 0 at t, 1 past it.
    cur = np.ones((nu, nv), dtype=np.int16)
    buf = np.empty(max(_SLAB_BYTES // 2, *np.multiply(rows, blocks.width)), np.int16)
    band = sliding_window_view(np.repeat(np.array([_FLOOR, 0, 1], np.int16), [nv, 1, nv]), nv + 1)
    for k in range(1, n + 1):
        tcol, split, rrow = slots[k]
        rk, c0, ck = rows[k], int(tcol[0]), end[k]
        # Left factors over u, window [u, t - 1] (t - 1 is the column before
        # t's), read before this level overwrites them.  The first slot is
        # r_k, and the window [r_k, r_k - 1] in the last row is empty.
        lefts = cur[:rk, tcol - 1].T
        lefts[0, -1] = 0
        # Right factors over the block's columns v, window [t + 1, v].
        rights = band[nv + c0 - tcol, :ck - c0]
        np.copyto(rights, cur[rrow, c0:ck], where=np.arange(c0, ck) >= split[:, None])
        cur[:rk, c0:ck] = -1
        s = 0
        while s < len(tcol):
            cs = int(tcol[s])
            w = ck - cs
            e = min(len(tcol), s + max(1, _SLAB_BYTES // (2 * rk * w)))
            block = cur[:rk, cs:ck]
            tmp = buf[:(e - s) * rk * w].reshape(e - s, rk, w)
            np.add(lefts[s:e, :, None], rights[s:e, None, cs - c0:], out=tmp)
            np.maximum(block, tmp.max(axis=0), out=block)
            s = e
        cur[:rk, ck:] = cur[:rk, ck - 1:ck]
        blocks.block(k)[...] = cur[:rk, c0:ck]
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
