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

One int16 working table holds the level being filled.  Level k changes
only rows u <= r_k from column r_k on, and its block is those rows up to
that first end past d_k.  Its candidate slots are found at once, with
their columns, next prior releases, split columns and right-factor rows.
The left factors of all slots, window [u, t - 1], are gathered before the
level writes.  The right factors form one matrix over slots and block
columns: a floor that never wins before t, 0 at v = t (an empty window),
1 up to the split at the next prior release (an idle tail is one gap),
and from the split on the row the right window starts at, which lies past
r_k and so is level k - 1's.  Consecutive slots are folded in slabs: each
slab sums its left and right factors into one buffer of ``_SLAB_BYTES``
(or of the largest block, if one slot needs more) and raises the block to
its maximum over the slab.

Only the blocks are kept, in one flat array.  Since level k copies every
cell outside its block from level k - 1, cell (k, u, v) equals cell
(j, u, v) for the last job j <= k released inside [u, v], read from block
j at column min(v, end_j - 1) (every row of the block is constant from its
last column on); with no job inside it is 1, level 0's one all-idle gap.
The working table and the blocks, 2 bytes a cell, are checked against
``core.require_table_fits`` before either is allocated.

The rebuild, ``_rebuild``, re-derives each placed job's slot from these
values in Python scalars.  It walks the job's candidate slots in the fill's
order and stops at the first whose split attains the cell's value, so a
later slot that only ties it never wins.  A slot's left and right windows
are each read at the last job released inside them, found by stepping
down from job k - 1 as ``MinGapsTables`` does: at most k - 1 steps a
window.  A placed job so costs O(n) a slot tried, and at most 3n + 1
slots; the rebuild is O(n^3) at worst, against the fill's O(n^5).

A value is at most n + 1, so a sum of two fits int16 while n is at most
``_MAX_JOBS``, sentinels included; a larger n is refused first.
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
    Schedule,
    augment,
    certify,
    require_normalized,
    require_table_fits,
)
from .errors import GapSchedError

_INT16_MAX = int(np.iinfo(np.int16).max)
_MAX_JOBS = _INT16_MAX // 2 - 1    # 2(n + 1), a sum of two values, fits int16
_FLOOR = -(_INT16_MAX // 2)        # plus any value: below 0, above int16's minimum
_SLAB_BYTES = 256 << 10            # one slab's temporary: slots x rows x columns


def _window_ends(jobs: list, span: int) -> list[int]:
    """The window ends the fill reads, sorted: the slot before each job's
    release and every slot it may take, [r_j - 1, min(d_j, r_j + span)]."""
    return sorted({v for j in jobs
                   for v in range(j.release - 1, min(j.deadline, j.release + span) + 1)})


class _Levels(NamedTuple):
    """The filled DP: every level's block in one flat store, and the grid
    and slots the rebuild reads them by."""

    jobs: list                  # deadline-sorted, sentinels included
    ug: np.ndarray              # window starts u, ascending
    vg: np.ndarray              # window ends v, ascending
    rel: np.ndarray             # rel[k - 1]: release of job k
    base: np.ndarray            # cell (k, u, v) at base[k] + u * width[k] + v
    width: np.ndarray
    end: np.ndarray             # one past level k's last stored column
    store: np.ndarray           # int16, every level's block
    slots: list                 # slots[k]: rows t, column, split column, right row


def _fill(jobs: list) -> _Levels:
    """Fill the DP for the sentinel-augmented jobs, keeping each level's
    block."""
    n = len(jobs)
    span = 3 * n
    ug = np.array(sorted({r for j in jobs for r in (j.release - 1, j.release)}),
                  dtype=np.int64)
    vg = np.array(_window_ends(jobs, span), dtype=np.int64)
    nu, nv = len(ug), len(vg)
    rel = np.array([j.release for j in jobs], dtype=np.int64)
    dl = np.array([j.deadline for j in jobs], dtype=np.int64)

    # Level k's block, k >= 1: rows u <= r_k and columns first[k] to
    # end[k] - 1, from r_k to the first end past d_k (or the last end), at
    # offset[k] in one flat store.  Entry 0 is level 0: one stored cell, 1,
    # that every window reads (row width 0, last column 0).
    rows = np.concatenate(([0], np.searchsorted(ug, rel, side="right")))
    first = np.concatenate(([0], np.searchsorted(vg, rel)))
    last = np.concatenate(([0], np.searchsorted(vg, dl + 1)))
    end = np.minimum(last + 1, nv)
    width = end - first
    width[0] = 0
    sizes = rows * width
    sizes[0] = 1
    offset = np.concatenate(([0], np.cumsum(sizes)))
    require_table_fits("max_gaps working table and blocks",
                       (nu * nv + int(offset[-1])) * 2)
    store = np.empty(int(offset[-1]), dtype=np.int16)
    store[0] = 1
    # The releases with a bound on either side, below every slot and past
    # every end: its first k + 1 entries bound the releases of jobs < k.
    bounded = np.concatenate(([ug[0] - 1, vg[-1] + 2], rel))

    def candidates(k: int) -> np.ndarray:
        """Job k's candidate slots, ascending, with their columns, split
        columns and right-factor rows, as four rows.  Another job must run
        at its release, so those slots are out; the right window starts at
        the next prior release past t, or at the row of the slot just
        before it."""
        jk = jobs[k - 1]
        prior = np.sort(bounded[:k + 1])
        ts = np.arange(jk.release, min(jk.deadline, jk.release + span) + 1)
        p = prior.searchsorted(ts, side="right")
        free = prior[p - 1] != ts
        ts, nxt = ts[free], prior[p[free]]
        # Job k's slots are consecutive ends from r_k's column on, and the
        # row of nxt - 1 is the one before nxt's.  A slot with no next
        # release splits past every column, so its row is never read.
        tcol = first[k] + (ts - jk.release)
        return np.array((ts, tcol, vg.searchsorted(nxt),
                         ug.searchsorted(nxt) - (nxt > ts + 1)))

    # cur[u][v] is the current level k, filled in place; level 0 is the
    # empty sub-instance: one all-idle gap.
    cur = np.ones((nu, nv), dtype=np.int16)
    buf = np.empty(max(_SLAB_BYTES // 2, int(sizes[1:].max())), dtype=np.int16)
    slots = [None]
    for k in range(1, n + 1):
        rk, c0, ck = rows[k], first[k], end[k]
        slots.append(candidates(k))
        ts, tcol, split, rrow = slots[k]
        # Left factors over u, window [u, t - 1] (t - 1 is the column before
        # t's), read before this level overwrites them.  The first slot is
        # r_k, and the window [r_k, r_k - 1] in the last row is empty.
        lefts = cur[:rk, tcol - 1].T
        lefts[0, -1] = 0
        # Right factors over the block's columns v, window [t + 1, v].
        cols = np.arange(c0, ck)
        rights = cur[rrow, c0:ck]
        np.copyto(rights, 1, where=cols < split[:, None])
        np.copyto(rights, _FLOOR, where=cols < tcol[:, None])
        rights[np.arange(len(ts)), tcol - c0] = 0
        cur[:rk, c0:ck] = -1
        s = 0
        while s < len(ts):
            cs = tcol[s]
            w = ck - cs
            e = min(len(ts), s + max(1, _SLAB_BYTES // (2 * rk * w)))
            block = cur[:rk, cs:ck]
            tmp = buf[:(e - s) * rk * w].reshape(e - s, rk, w)
            np.add(lefts[s:e, :, None], rights[s:e, None, cs - c0:], out=tmp)
            np.maximum(block, tmp.max(axis=0), out=block)
            s = e
        cur[:rk, ck:] = cur[:rk, last[k]:ck]
        store[offset[k]:offset[k + 1]].reshape(rk, ck - c0)[...] = cur[:rk, c0:ck]
    return _Levels(jobs, ug, vg, rel, offset[:-1] - first, width, end, store, slots)


def _rebuild(levels: _Levels) -> tuple[int, dict]:
    """The top cell's value and a schedule attaining it, sentinels included.

    Each placed job leaves a left window, taken next, and possibly a right
    one, taken first (pushed last).  A window is solved by the last job
    released inside it: the top one by END.
    """
    jobs, store, slots = levels.jobs, levels.store, levels.slots
    ug, vg, rel = levels.ug.tolist(), levels.vg.tolist(), levels.rel.tolist()
    base, width, end = levels.base.tolist(), levels.width.tolist(), levels.end.tolist()

    def last_inside(k: int, lo: int, hi: int) -> int:
        """The last of the first k jobs released inside [lo, hi], or 0."""
        while k and not lo <= rel[k - 1] <= hi:
            k -= 1
        return k

    def cell(j: int, u: int, v: int) -> int:
        """Value of cell (j, u, v), j the last job inside its window."""
        return store.item(base[j] + u * width[j] + min(v, end[j] - 1))

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
        for t, tcol, split, rrow in zip(*slots[k].tolist()):
            if tcol > vc:
                break
            jl = last_inside(k - 1, lo, t - 1) if lo < t else 0
            left = cell(jl, u, tcol - 1) if lo < t else 0
            jr = last_inside(k - 1, ug[rrow], vg[vc]) if split <= vc else 0
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
    value, assignment = _rebuild(_fill(jobs))
    sched = Schedule(inst, {j: t for j, t in assignment.items()
                            if j not in (START, END)})
    certify(sched, inst, Constraints(require_all=True), value, "gap_count")
    return value, sched
