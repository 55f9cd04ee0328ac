"""Minimum number of gaps for feasible deadline instances.

Dynamic program over sub-instances J(k, a, b): jobs among the first k by
deadline released strictly between the a-th and b-th release positions,
scheduled inside the open window.  Each cell stores the minimum count of
non-final gaps together with the latest completion time ("stretch")
achievable at that count; when job k goes strictly inside a block it must
sit right before some release r_c, which splits the window in two.  Two
artificial tight jobs below and above the instance anchor both ends, and
their two boundary gaps are subtracted at the end.  O(n^4) overall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    END,
    START,
    Constraints,
    Instance,
    Job,
    Schedule,
    augment,
    certify,
    edf_schedule_busy_set,
    require_normalized,
)
from .errors import GapSchedError

_INF = np.int64(2**31)


@dataclass
class MinGapsTables:
    """Filled DP tables plus enough structure to rebuild any cell's witness."""

    jobs: list[Job]              # deadline-sorted, sentinels included
    rank_release: np.ndarray     # release of the p-th smallest release
    rank_job: list[int]          # deadline index of that job
    job_rank: list[int]          # release rank of deadline index j
    gaps: np.ndarray             # (N+1, N, N); gaps[k][a][b]
    stretch: np.ndarray          # (N+1, N, N)
    choice: np.ndarray           # (N+1, N, N); split rank, or -1 for "k last"

    def window_jobs(self, k: int, a: int, b: int) -> list[Job]:
        lo, hi = self.rank_release[a], self.rank_release[b]
        return [j for j in self.jobs[:k] if lo < j.release < hi]

    def reconstruct_busy(self, k: int, a: int, b: int) -> tuple[int, ...]:
        """Busy slots of a schedule realizing gaps[k][a][b] that ends exactly
        at stretch[k][a][b]."""
        if k == 0:
            return ()
        jk = self.jobs[k - 1]
        pk = self.job_rank[k - 1]
        if not (a < pk < b):
            return self.reconstruct_busy(k - 1, a, b)
        rb_edge = int(self.rank_release[b]) - 1
        c = int(self.choice[k][a][b])
        if c < 0:
            prev = self.reconstruct_busy(k - 1, a, b)
            s_prev = int(self.stretch[k - 1][a][b])
            if s_prev + 1 < jk.release:
                return prev + (min(jk.deadline, rb_edge),)
            if s_prev < rb_edge:
                return prev + (s_prev + 1,)
            return _shift_last_block(prev) + (rb_edge,)
        rc = int(self.rank_release[c])
        left = self.reconstruct_busy(k - 1, a, c)
        if left and left[-1] == rc - 1:
            left = _shift_last_block(left)
        if left and left[-1] != rc - 2:
            raise GapSchedError(f"left part ends at {left[-1]}, not {rc - 2}")
        return left + (rc - 1, rc) + self.reconstruct_busy(k - 1, c, b)


def _shift_last_block(slots: tuple[int, ...]) -> tuple[int, ...]:
    """Move the last block one slot left (set level; jobs re-matched later)."""
    e = slots[-1]
    s = e
    while s - 1 in slots:
        s -= 1
    if s - 2 in slots:
        raise GapSchedError("compression would merge blocks")
    return tuple(t for t in slots if t < s) + tuple(range(s - 1, e))


def min_gaps_tables(inst: Instance) -> MinGapsTables:
    """Fill the gap/stretch tables for the sentinel-augmented instance."""
    require_normalized(inst, feasible=True)
    if not inst.jobs:
        raise GapSchedError("need at least one job")
    jobs = augment(inst)
    n = len(jobs)

    by_release = sorted(range(n), key=lambda j: jobs[j].release)
    rank_job = by_release
    job_rank = [0] * n
    for p, j in enumerate(by_release):
        job_rank[j] = p
    rank_release = np.array([jobs[j].release for j in by_release], dtype=np.int64)
    rank_dlidx = np.array(by_release, dtype=np.int64)

    gaps = np.zeros((n + 1, n, n), dtype=np.int64)
    stretch = np.zeros((n + 1, n, n), dtype=np.int64)
    choice = np.full((n + 1, n, n), -1, dtype=np.int64)
    stretch[0] = rank_release[:, None]

    ranks = np.arange(n)
    tri_less = ranks[:, None] < ranks[None, :]   # [c, b]: c left of b
    edge = rank_release - 1                      # last usable slot before b

    for k in range(1, n + 1):
        gaps[k] = gaps[k - 1]
        stretch[k] = stretch[k - 1]
        jk = jobs[k - 1]
        pk = job_rank[k - 1]
        g_prev = gaps[k - 1]
        s_prev = stretch[k - 1]
        cand_base = (ranks > pk) & (rank_dlidx <= k - 2)
        if pk == 0:
            continue
        for a in range(pk):
            row_s = s_prev[a]
            row_g = g_prev[a]

            cand = cand_base & (row_s >= rank_release - 2)
            vals = np.where(cand[:, None] & tri_less,
                            row_g[:, None] + g_prev, _INF)
            top_g = vals.min(axis=0)
            s_cand = np.where(vals == top_g[None, :], s_prev, -_INF)
            top_s = s_cand.max(axis=0)
            top_c = (s_cand == top_s[None, :]).argmax(axis=0)

            new_gap = row_s + 1 < jk.release
            bot_g = row_g + new_gap
            bot_s = np.where(new_gap,
                             np.minimum(jk.deadline, edge),
                             np.minimum(row_s + 1, edge))

            use_top = (top_g < bot_g) | ((top_g == bot_g) & (top_s > bot_s))
            row_gn = np.where(use_top, top_g, bot_g)
            row_sn = np.where(use_top, top_s, bot_s)
            row_cn = np.where(use_top, top_c, -1)

            sel = ranks > pk
            gaps[k][a][sel] = row_gn[sel]
            stretch[k][a][sel] = row_sn[sel]
            choice[k][a][sel] = row_cn[sel]

    return MinGapsTables(jobs, rank_release, rank_job, job_rank,
                         gaps, stretch, choice)


def min_gaps(inst: Instance) -> tuple[int, Schedule]:
    """Minimum interior gap count over full schedules, with witness."""
    if not inst.jobs:
        return 0, Schedule(inst, {})
    tables = min_gaps_tables(inst)
    n = len(tables.jobs)
    value = int(tables.gaps[n][0][n - 1]) - 1
    busy = tables.reconstruct_busy(n, 0, n - 1)
    start, end = tables.jobs[0], tables.jobs[-1]
    aug_inst = Instance(tuple(tables.jobs))
    full = edf_schedule_busy_set(aug_inst, (start.release,) + busy + (end.release,))
    if full is None:
        raise GapSchedError("DP busy set is not schedulable")
    sched = Schedule(inst, {j: t for j, t in full.assignment.items()
                            if j not in (START, END)})
    certify(sched, inst, Constraints(require_all=True), value, "gap_count")
    return value, sched
