"""Minimum number of gaps for feasible deadline instances.

Dynamic program over sub-instances J(k, a, b): jobs among the first k by
deadline released strictly between the a-th and b-th release positions,
scheduled inside the open window.  Each cell stores the minimum count of
non-final gaps together with the latest completion time ("stretch")
achievable at that count; when job k goes strictly inside a block it must
sit right before some release r_c, which splits the window in two.  Two
artificial tight jobs below and above the instance anchor both ends, and
their two boundary gaps are subtracted at the end.

Level k is filled in one pass over all its rows a < p_k (p_k the release
rank of job k) and columns b > p_k.  The "k last" branch is plain array
arithmetic over that block.  A split at rank c can only win when job c
comes before job k and the stretch of (a, c) reaches r_c - 2, so the
candidate pairs (a, c) are gathered first and the split values are built
for those pairs only, against every column b.  Level k thus costs its
number of pairs times n, at most n^3, and the whole fill stays within
O(n^4).  Ties go to the fewest gaps, then the latest stretch, then the
smallest c, and "k last" is kept unless a split is strictly better.  The
pairs are taken in chunks of at most 4n^2 split values, so the temporary
arrays beside the tables stay a few levels' size however many pairs a level
has.

The tables keep every level: ``gaps`` int16, ``stretch`` int32 and
``choice`` int16, 8 bytes a cell.  Their size is checked against
``core.require_table_fits`` before anything is allocated, and every
coordinate, sentinel jobs included, must lie strictly inside +-2**31,
the values that stand for "no candidate" in the tie-breaking.
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
    require_table_fits,
)
from .errors import GapSchedError

_INF = np.int64(2**31)
_CELL_BYTES = 2 + 4 + 2     # one cell each of gaps, stretch and choice


@dataclass
class MinGapsTables:
    """Filled DP tables plus enough structure to rebuild any cell's witness."""

    jobs: list[Job]              # deadline-sorted, sentinels included
    rank_release: np.ndarray     # release of the p-th smallest release
    job_rank: list[int]          # release rank of deadline index j
    gaps: np.ndarray             # (N+1, N, N); gaps[k][a][b]
    stretch: np.ndarray          # (N+1, N, N)
    choice: np.ndarray           # (N+1, N, N); split rank, or -1 for "k last"

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
    lo, hi = jobs[0].release, jobs[-1].release
    if not (-_INF < lo and hi < _INF):
        raise GapSchedError(f"coordinates {lo}..{hi} (sentinels included) "
                            f"do not fit strictly inside +-2**31")
    require_table_fits("min_gaps tables", (n + 1) * n * n * _CELL_BYTES)

    by_release = sorted(range(n), key=lambda j: jobs[j].release)
    job_rank = [0] * n
    for p, j in enumerate(by_release):
        job_rank[j] = p
    rank_release = np.array([jobs[j].release for j in by_release], dtype=np.int64)
    rank_dlidx = np.array(by_release, dtype=np.int64)

    gaps = np.zeros((n + 1, n, n), dtype=np.int16)
    stretch = np.zeros((n + 1, n, n), dtype=np.int32)
    choice = np.full((n + 1, n, n), -1, dtype=np.int16)
    stretch[0] = rank_release[:, None]
    edge = rank_release - 1                      # last usable slot before b

    for k in range(1, n + 1):
        gaps[k] = gaps[k - 1]
        stretch[k] = stretch[k - 1]
        jk = jobs[k - 1]
        pk = job_rank[k - 1]
        if pk == 0:
            continue
        # Rows a < pk and columns b > pk are the cells whose window holds
        # job k; split ranks c lie in the same range as b.
        right = slice(pk + 1, n)
        g_prev = gaps[k - 1].astype(np.int64)
        s_prev = stretch[k - 1].astype(np.int64)
        row_g = g_prev[:pk, right]
        row_s = s_prev[:pk, right]

        # Job k last: right after the stretch, or at its release past a gap.
        new_gap = row_s + 1 < jk.release
        out_g = row_g + new_gap
        out_s = np.where(new_gap, np.minimum(jk.deadline, edge[right]),
                         np.minimum(row_s + 1, edge[right]))
        out_c = np.full(out_g.shape, -1, dtype=np.int64)

        # Job k right before release r_c: only ranks c of jobs before k whose
        # left part can end at r_c - 2 (stretch of (a, c) >= r_c - 2).
        cand = (rank_dlidx[right] <= k - 2) & (row_s >= rank_release[right] - 2)
        pa, pc = np.nonzero(cand)              # pairs come sorted by a, then c
        # At most 4n^2 split values at a time, so temporaries stay a few
        # levels' size.  A row cut between chunks is merged twice; its later
        # part has larger c and wins only if strictly better, as in one pass.
        step = 4 * n * n // max(n - pk - 1, 1)
        for i in range(0, len(pa), step):
            ca, c = pa[i:i + step], pc[i:i + step] + pk + 1
            vals = np.where(c[:, None] < np.arange(pk + 1, n),
                            row_g[ca, c - pk - 1][:, None] + g_prev[c, right],
                            _INF)
            first = np.r_[True, ca[1:] != ca[:-1]]
            starts = np.flatnonzero(first)
            seg = np.cumsum(first) - 1
            rows = ca[starts]
            # Fewest gaps, then the latest stretch, then the smallest c.
            top_g = np.minimum.reduceat(vals, starts, axis=0)
            s_cand = np.where(vals == top_g[seg], s_prev[c, right], -_INF)
            top_s = np.maximum.reduceat(s_cand, starts, axis=0)
            c_cand = np.where(s_cand == top_s[seg], c[:, None], n)
            top_c = np.minimum.reduceat(c_cand, starts, axis=0)

            bot_g, bot_s, bot_c = out_g[rows], out_s[rows], out_c[rows]
            use = (top_g < bot_g) | ((top_g == bot_g) & (top_s > bot_s))
            out_g[rows] = np.where(use, top_g, bot_g)
            out_s[rows] = np.where(use, top_s, bot_s)
            out_c[rows] = np.where(use, top_c, bot_c)

        gaps[k, :pk, right] = out_g
        stretch[k, :pk, right] = out_s
        choice[k, :pk, right] = out_c

    return MinGapsTables(jobs, rank_release, job_rank, gaps, stretch, choice)


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
