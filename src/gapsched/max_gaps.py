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
of the first k can run past d_k, so every later end holds the same value
and the same choice.
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
    require_table_fits("max_gaps choice levels", (n + 1) * nu * nv * 2)

    # cur[u][v] is the current level k; level 0 is the empty sub-instance:
    # one all-idle gap.  Only the choices in args are kept for every level.
    # prefixes[i] holds the sorted releases of the first i jobs.  After job
    # k runs at t, the right sub-window starts at the first release of the
    # jobs before k past t, or at the row of the slot just before it.
    cur = np.ones((nu, nv), dtype=np.int32)
    args = [None]
    prefixes: list[list[int]] = [[]]

    def next_release(k: int, t: int) -> int | None:
        rels = prefixes[k - 1]
        p = bisect.bisect_right(rels, t)
        return rels[p] if p < len(rels) else None

    def right_row(t: int, nxt: int) -> int:
        return ui[nxt] if nxt == t + 1 else ui[nxt - 1]

    for k in range(1, n + 1):
        jk = jobs[k - 1]
        prev = cur
        cur = prev.copy()
        arg = np.full((nu, nv), -1, dtype=np.int16)
        rows = bisect.bisect_right(ugrid, jk.release)          # u <= r_k
        tmax = min(jk.deadline, jk.release + span)
        ucol = np.asarray(ugrid[:rows], dtype=np.int64)

        first_col = bisect.bisect_left(vgrid, jk.release)      # v >= r_k
        last_col = bisect.bisect_left(vgrid, jk.deadline + 1)  # v > d_k
        end = min(last_col + 1, nv)
        cur[:rows, first_col:end] = -1
        prefix_set = set(prefixes[k - 1])
        for t in range(jk.release, tmax + 1):
            if t in prefix_set:
                continue  # another job must run at its release here
            tcol = vi[t]
            # left factor over u: window [u, t-1]
            left = np.where(ucol <= t - 1, prev[:rows, vi[t - 1]], 0)
            # right factor over t <= v <= last_col
            right = np.empty(end - tcol, dtype=np.int32)
            right[0] = 0  # v == t: empty right window
            nxt = next_release(k, t)
            if nxt is None:
                right[1:] = 1  # idle tail is a single gap
            else:
                split = vi[nxt] - tcol
                right[1:split] = 1
                right[split:] = prev[right_row(t, nxt), tcol + split:end]
            cand = left[:, None] + right[None, :]
            block = cur[:rows, tcol:end]
            improved = cand > block
            block[improved] = cand[improved]
            arg_block = arg[:rows, tcol:end]
            arg_block[improved] = t - jk.release
        cur[:rows, end:] = cur[:rows, last_col:end]
        arg[:rows, end:] = arg[:rows, last_col:end]
        args.append(arg)
        prefixes.append(sorted(prefixes[k - 1] + [jk.release]))

    top_u, top_v = ui[jobs[0].release], vi[jobs[-1].release]
    value = int(cur[top_u][top_v]) - 2

    # Rebuild from the choices: each placed job leaves a left window, taken
    # next, and possibly a right one, taken first (pushed last).
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
        t = jk.release + int(args[k][u][v])
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
