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

One int16 table holds the level being filled; each slot t raises its
block of cells to the sum of its left and right factors with one maximum,
and no choice is stored.  After level k only its columns up to that first
end past d_k are kept.  Every row of level k is constant from that column
on: the rows it fills by the copy above, the rest because they are level
k - 1's, constant from an earlier column since deadlines grow with k (and
level 0 is all ones).  So level j is read at column min(c, width_j - 1).
The rebuild re-derives each placed job's slot from these values: the
first slot, in the fill's order, whose split attains the cell's value, so
a later slot that only ties it never wins.
"""

from __future__ import annotations

import bisect

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


def _window_ends(jobs: list, span: int) -> list[int]:
    """The window ends the fill reads, sorted: the slot before each job's
    release and every slot it may take, [r_j - 1, min(d_j, r_j + span)]."""
    return sorted({v for j in jobs
                   for v in range(j.release - 1, min(j.deadline, j.release + span) + 1)})


def max_gaps(inst: Instance) -> tuple[int, Schedule]:
    """Maximum interior gap count over full schedules, with witness."""
    require_normalized(inst, feasible=True)
    if len(inst.jobs) == 0:
        return 0, Schedule(inst, {})
    jobs = augment(inst)
    n = len(jobs)
    span = 3 * n

    ugrid = sorted({r for j in jobs for r in (j.release - 1, j.release)})
    vgrid = _window_ends(jobs, span)
    ui = {u: i for i, u in enumerate(ugrid)}
    vi = {v: i for i, v in enumerate(vgrid)}
    nu, nv = len(ugrid), len(vgrid)
    # The stored levels take at most this, and the working table is one more.
    require_table_fits("max_gaps value levels", (n + 1) * nu * nv * 2)

    # cur[u][v] is the current level k, filled in place; level 0 is the
    # empty sub-instance: one all-idle gap.  A value is at most n + 1 gaps,
    # and the table cap keeps n below 1000, so int16 holds it and a sum of
    # two.  levels[k] keeps level k's columns up to its last distinct one,
    # read through at().  prefixes[i] holds the sorted releases of the
    # first i jobs.  After job k runs at t, the right sub-window starts at
    # the first release of the jobs before k past t, or at the row of the
    # slot just before it.
    cur = np.ones((nu, nv), dtype=np.int16)
    levels = [cur[:, :1].copy()]
    prefixes: list[list[int]] = [[]]

    def at(k: int, u: int, v: int) -> int:
        level = levels[k]
        return int(level[u, min(v, level.shape[1] - 1)])

    def next_release(k: int, t: int) -> int | None:
        rels = prefixes[k - 1]
        p = bisect.bisect_right(rels, t)
        return rels[p] if p < len(rels) else None

    def right_row(t: int, nxt: int) -> int:
        return ui[nxt] if nxt == t + 1 else ui[nxt - 1]

    def slots(k: int) -> list[int]:
        """Job k's candidate slots, ascending: another job must run at its
        release, so those are out."""
        jk = jobs[k - 1]
        taken = set(prefixes[k - 1])
        return [t for t in range(jk.release, min(jk.deadline, jk.release + span) + 1)
                if t not in taken]

    for k in range(1, n + 1):
        jk = jobs[k - 1]
        rows = bisect.bisect_right(ugrid, jk.release)          # u <= r_k
        first_col = bisect.bisect_left(vgrid, jk.release)      # v >= r_k
        last_col = bisect.bisect_left(vgrid, jk.deadline + 1)  # v > d_k
        end = min(last_col + 1, nv)
        ts = slots(k)
        # Left factors over u, window [u, t - 1], read before this level
        # overwrites them.  The right factors read rows past r_k, which
        # this level leaves as they are.
        lefts = cur[:rows, [vi[t - 1] for t in ts]]
        lefts = np.where(np.asarray(ugrid[:rows])[:, None] < np.asarray(ts), lefts, 0)
        cur[:rows, first_col:end] = -1
        for i, t in enumerate(ts):
            tcol = vi[t]
            # right factor over t <= v <= last_col
            right = np.empty(end - tcol, dtype=np.int16)
            right[0] = 0  # v == t: empty right window
            nxt = next_release(k, t)
            if nxt is None:
                right[1:] = 1  # idle tail is a single gap
            else:
                split = vi[nxt] - tcol
                right[1:split] = 1
                right[split:] = cur[right_row(t, nxt), tcol + split:end]
            block = cur[:rows, tcol:end]
            np.maximum(block, lefts[:, i:i + 1] + right, out=block)
        cur[:rows, end:] = cur[:rows, last_col:end]
        levels.append(cur[:, :end].copy())
        prefixes.append(sorted(prefixes[k - 1] + [jk.release]))

    top_u, top_v = ui[jobs[0].release], vi[jobs[-1].release]
    value = at(n, top_u, top_v) - 2

    def slot(k: int, u: int, v: int) -> int:
        """The slot job k takes in cell (k, u, v): the first whose split
        attains the cell's value, as the fill met them."""
        best = at(k, u, v)
        vc = min(v, levels[k].shape[1] - 1)
        for t in slots(k):
            tcol = vi[t]
            if tcol > vc:
                break
            left = at(k - 1, u, vi[t - 1]) if ugrid[u] < t else 0
            nxt = next_release(k, t)
            if tcol == vc:
                right = 0
            elif nxt is None or vi[nxt] > vc:
                right = 1
            else:
                right = at(k - 1, right_row(t, nxt), vc)
            if left + right == best:
                return t
        raise GapSchedError(f"no slot of job {jobs[k - 1].id!r} attains "
                            f"{best} in window [{ugrid[u]}, {vgrid[v]}]")

    # Rebuild: each placed job leaves a left window, taken next, and
    # possibly a right one, taken first (pushed last).
    assignment: dict = {}
    stack = [(n, top_u, top_v)]
    while stack:
        k, u, v = stack.pop()
        if k == 0:
            continue
        jk = jobs[k - 1]
        if not (ugrid[u] <= jk.release <= vgrid[v]):
            stack.append((k - 1, u, v))
            continue
        t = slot(k, u, v)
        assignment[jk.id] = t
        if t - 1 >= ugrid[u]:
            stack.append((k - 1, u, vi[t - 1]))
        nxt = next_release(k, t)
        if nxt is not None and nxt <= vgrid[v] and t < vgrid[v]:
            stack.append((k - 1, right_row(t, nxt), v))

    sched = Schedule(inst, {j: t for j, t in assignment.items()
                            if j not in (START, END)})
    certify(sched, inst, Constraints(require_all=True), value, "gap_count")
    return value, sched
