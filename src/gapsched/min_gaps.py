"""Minimum number of gaps for feasible deadline instances.

Dynamic program over sub-instances J(k, a, b): jobs among the first k by
deadline released strictly between the a-th and b-th release positions,
scheduled inside the open window.  Each cell holds the minimum count of
non-final gaps together with the latest completion time ("stretch")
achievable at that count; when job k goes strictly inside a block it must
sit right before some release r_c, which splits the window in two.  Two
artificial tight jobs below and above the instance anchor both ends, and
their two boundary gaps are subtracted at the end.

A cell is one int64 key from ``_order_key``: the gap count in the top
bits, then the stretch reversed, then the split rank c plus one, so the
smallest key has the fewest gaps, then the latest stretch, then the
smallest c; "k last" takes c = -1 and wins every full tie.  One n x n
table ``cur`` of keys holds the level being filled.  Level k rewrites only
its block: rows a < p_k (p_k the release rank of job k) and columns
b > p_k, the cells whose window holds job k.  Every read of level k - 1
comes before that write: the block's own rows, and the rows c > p_k of the
split tails, which level k leaves as they are.  A split at rank c is
usable when job c comes before job k and the stretch of (a, c) reaches
r_c - 2.  Its key is the gap field of (a, c) plus the key of (c, b) with
c + 1 in the split field, so the split branch is a (min,+) product over
the ordered key, restricted to the split ranks some row can use and taken
in blocks of at most 4n^2 values.  Level k costs at most n^3, the fill
O(n^4).

A level is updated on the keys themselves, never decoded.  ``cur`` keeps
its keys with the split field 0, and the stretch field runs backwards, so
the latest of two slots has the larger field.  For a row key, gap is
key & _GAP_FIELD and after = key - gap - (1 << 11) is the stretch field
of s + 1; edge_f[b] is the field of r_b - 1, the last slot before r_b.
"k last" keeps the gap count when s + 1 comes at or after r_k (after at
most the field of r_k), with key gap + max(after, edge_f[b]): stretch
min(s + 1, r_b - 1).  Otherwise it opens a gap at r_k, with key
gap + (1 << 43) + max(edge_f[b], field of d_k): stretch min(d_k, r_b - 1).
A split at rank c is usable when s + 1 >= r_c - 1, that is after <=
edge_f[c].  Its left factor is gap + c + 1 and its tail is ``cur``'s key of
(c, b).  Every cell a >= b of ``cur``, which is no window, holds _FAR, so
a tail with c >= b never wins.  The stored block is the level's minimum
with its split field; ``cur`` takes it with the field cleared.

Only the blocks are kept, in a ``core.LevelBlocks`` that holds the read
rule: level k's block is p_k x (n - p_k - 1) keys, and the ranks p_k run
over 0 .. n - 1, so all of them take n(n - 1)(n - 2)/6 cells.  Level 0 is
the empty window's key of each row a, one column.  The keys of the rule
are the release ranks, so window (a, b) holds the ranks [a + 1, b - 1].
The working table and the blocks, 8 bytes a cell, are checked before
anything is allocated.  ``gaps``, ``stretch`` and ``choice`` expand the
blocks to every level in full, for audits only.  Every coordinate,
sentinel jobs included, must lie strictly inside +-2**31 (the key's
stretch field), and there may be at most 2047 jobs, sentinels included
(its split-rank field).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Constraints,
    Instance,
    Job,
    LevelBlocks,
    Schedule,
    augment,
    certify,
    edf_schedule_busy_set,
    job_arrays,
    require_normalized,
)
from .errors import GapSchedError

_GAP_SHIFT = 43             # key bits: gaps 43.., stretch 11..42, c + 1 0..10
_STRETCH_SHIFT = 11
_STRETCH_TOP = 2**31 - 1    # the stretch field holds _STRETCH_TOP - stretch
_STRETCH_MASK = 2**32 - 1
_CHOICE_MASK = 2**11 - 1
_GAP_FIELD = -(1 << _GAP_SHIFT)  # the gap bits of a key
_GAP_ONE = 1 << _GAP_SHIFT          # one gap more
_STRETCH_ONE = 1 << _STRETCH_SHIFT  # one slot less of stretch
_MAX_JOBS = _CHOICE_MASK    # split ranks c < n must fit c + 1 in 11 bits
_FAR = np.int64(2**61)      # an unusable split; two of them sum to 2**62


def _order_key(g, s, c):
    """Key ranking candidates by fewest gaps g, then latest stretch s, then
    smallest split rank c; "k last" passes c = -1."""
    return (g << _GAP_SHIFT) | ((_STRETCH_TOP - s) << _STRETCH_SHIFT) | (c + 1)


# The fields of a key, or of an array of keys.
def _gaps(key):
    return key >> _GAP_SHIFT


def _stretch(key):
    return _STRETCH_TOP - ((key >> _STRETCH_SHIFT) & _STRETCH_MASK)


def _choice(key):
    return (key & _CHOICE_MASK) - 1


@dataclass
class MinGapsTables:
    """The filled DP's stored blocks plus enough structure to read any cell
    and rebuild its witness."""

    jobs: list[Job]              # deadline-sorted, sentinels included
    rank_release: np.ndarray     # release of the p-th smallest release
    job_rank: list[int]          # release rank of deadline index j
    blocks: LevelBlocks          # keyed by job_rank

    def cell(self, k: int, a: int, b: int) -> int:
        """Key of cell (k, a, b): the block of the last job inside (a, b)."""
        return self.blocks.cell(self.blocks.last_inside(k, a + 1, b - 1), a, b)

    def _levels(self, outside=None) -> np.ndarray:
        """Keys of every level in full, (n + 1, n, n).  A cell outside level
        k's block holds level k - 1's key, or ``outside`` if given; level 0's
        one column fills every b."""
        n = len(self.jobs)
        keys = np.zeros((n + 1, n, n), dtype=np.int64)
        for k, block in enumerate(map(self.blocks.block, range(n + 1))):
            keys[k] = keys[k - 1] if outside is None else outside
            keys[k, :len(block), self.blocks.end[k] - block.shape[1]:] = block
        return keys

    @property
    def gaps(self) -> np.ndarray:
        """Audit view, (n + 1, n, n) int16: gaps[k][a][b]."""
        return _gaps(self._levels()).astype(np.int16)

    @property
    def stretch(self) -> np.ndarray:
        """Audit view, (n + 1, n, n) int32."""
        return _stretch(self._levels()).astype(np.int32)

    @property
    def choice(self) -> np.ndarray:
        """Audit view, (n + 1, n, n) int16: the split rank in level k's
        block, or -1 for "k last"; -1 outside the block."""
        return _choice(self._levels(outside=0)).astype(np.int16)

    def reconstruct_busy(self, k: int, a: int, b: int) -> tuple[int, ...]:
        """Busy slots of a schedule realizing the gap count of cell (k, a, b)
        that ends exactly at its stretch.

        A cell's slots are built from its sub-cells' slots once those are
        done, so the walk keeps an explicit stack of cells to open and to
        close, and a stack of finished slot tuples.
        """
        done: list[tuple[int, ...]] = []
        todo = [(False, k, a, b)]
        while todo:
            close, k, a, b = todo.pop()
            if not close:
                k = self.blocks.last_inside(k, a + 1, b - 1)
                if k == 0:
                    done.append(())
                    continue
                c = _choice(self.cell(k, a, b))
                todo.append((True, k, a, b))
                if c < 0:
                    todo.append((False, k - 1, a, b))
                else:  # the left part is opened, and so finished, first
                    todo += [(False, k - 1, c, b), (False, k - 1, a, c)]
                continue
            jk = self.jobs[k - 1]
            rb_edge = int(self.rank_release[b]) - 1
            c = _choice(self.cell(k, a, b))
            if c < 0:
                prev = done.pop()
                s_prev = _stretch(self.cell(k - 1, a, b))
                if s_prev + 1 < jk.release:
                    done.append(prev + (min(jk.deadline, rb_edge),))
                elif s_prev < rb_edge:
                    done.append(prev + (s_prev + 1,))
                else:
                    done.append(_shift_last_block(prev) + (rb_edge,))
                continue
            rc = int(self.rank_release[c])
            right = done.pop()
            left = done.pop()
            if left and left[-1] == rc - 1:
                left = _shift_last_block(left)
            if left and left[-1] != rc - 2:
                raise GapSchedError(f"left part ends at {left[-1]}, not {rc - 2}")
            done.append(left + (rc - 1, rc) + right)
        return done[0]


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
    """Fill the DP for the sentinel-augmented instance, keeping each level's
    block."""
    require_normalized(inst, feasible=True)
    if not inst.jobs:
        raise GapSchedError("need at least one job")
    jobs = augment(inst)
    n = len(jobs)
    lo, hi = jobs[0].release, jobs[-1].release
    if not (-2**31 < lo and hi < 2**31):
        raise GapSchedError(f"coordinates {lo}..{hi} (sentinels included) "
                            f"do not fit strictly inside +-2**31")
    if n > _MAX_JOBS:
        raise GapSchedError(f"{n} jobs (sentinels included), above the "
                            f"limit of {_MAX_JOBS}")
    rel, _, by_release, rank = job_arrays(jobs)
    job_rank = rank.tolist()
    # Level k's block: rows a < p_k, columns b > p_k; level 0's: every row,
    # one column.
    blocks = LevelBlocks("min_gaps tables", np.int64, n * n * 8, job_rank, [n] + job_rank,
                         [0] + [p + 1 for p in job_rank], [1] + [n] * n)
    rank_release = rel[by_release]

    # Level 0: every window (a, b), a < b, is empty, its stretch the release
    # r_a; the cells a >= b are no window, _FAR.
    blocks.block(0)[:, 0] = _order_key(0, rank_release, -1)
    cur = np.where(np.triu(np.ones((n, n), dtype=bool), 1), blocks.block(0), _FAR)
    # Stretch field of r_b - 1, the last slot before release b.
    edge_f = (_STRETCH_TOP - (rank_release - 1)) << _STRETCH_SHIFT
    usable = np.zeros(n, dtype=bool)    # by rank: the jobs before job k

    for k in range(1, n + 1):
        jk = jobs[k - 1]
        pk = job_rank[k - 1]
        # Rows a < pk and columns b > pk are the cells whose window holds
        # job k; split ranks c lie in the same range as b.
        right = slice(pk + 1, n)
        row = cur[:pk, right]
        gap = row & _GAP_FIELD
        after = row - gap - _STRETCH_ONE     # the stretch field of s + 1
        edge = edge_f[right]

        # Job k last: right after the stretch, or at its release past a gap;
        # the stretch is at most r_b - 1.
        new_gap = after > (_STRETCH_TOP - jk.release) << _STRETCH_SHIFT
        at_release = _GAP_ONE + np.maximum(
            edge, (_STRETCH_TOP - jk.deadline) << _STRETCH_SHIFT)
        best = blocks.block(k)
        np.add(gap, np.where(new_gap, at_release, np.maximum(after, edge)), out=best)

        # Job k right before release r_c, for the ranks c some row can use
        # (s + 1 >= r_c - 1): min over c of left[a, c] + tail[c, b], a
        # (min,+) product in blocks of at most 4n^2 values; the left factor
        # carries the split field c + 1.  Rows c > pk are level k - 1's and
        # stay so.
        ok = usable[right] & (after <= edge)
        cs = np.flatnonzero(ok.any(axis=0))
        left = np.where(ok[:, cs], gap[:, cs] + (cs + pk + 2), _FAR)
        tail = cur[cs + pk + 1, right]
        step = 4 * n * n // max(best.size, 1)
        del gap, after, new_gap, ok     # the product's blocks set the peak memory
        for i in range(0, len(cs), step):
            blk = slice(i, i + step)
            np.minimum(best, (left[:, blk, None] + tail[None, blk]).min(axis=1), out=best)

        np.bitwise_and(best, ~_CHOICE_MASK, out=row)
        usable[pk] = True

    return MinGapsTables(jobs, rank_release, job_rank, blocks)


def min_gaps(inst: Instance) -> tuple[int, Schedule]:
    """Minimum interior gap count over full schedules, with witness."""
    if not inst.jobs:
        return 0, Schedule(inst, {})
    tables = min_gaps_tables(inst)
    n = len(tables.jobs)
    value = _gaps(tables.cell(n, 0, n - 1)) - 1
    # The real jobs' busy slots: the sentinels' lie outside every real
    # window, so earliest deadline first places the real jobs alike with
    # or without them.
    sched = edf_schedule_busy_set(inst, tables.reconstruct_busy(n, 0, n - 1))
    if sched is None:
        raise GapSchedError("DP busy set is not schedulable")
    certify(sched, inst, Constraints(require_all=True), value, "gap_count")
    return value, sched
