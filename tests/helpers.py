"""Shared instance generators and small brute-force helpers for the tests."""

from __future__ import annotations

import heapq
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from gapsched.core import Instance, Job, NormalizeResult, check_feasible, normalize_distinct
from gapsched.hitting import HittingSet


def make_instance(windows) -> Instance:
    """Instance from (release, deadline) pairs; ids are list positions."""
    return Instance(tuple(Job(i, r, d) for i, (r, d) in enumerate(windows)))


def job(inst: Instance, job_id) -> Job:
    """The job of ``inst`` with id ``job_id``."""
    for j in inst.jobs:
        if j.id == job_id:
            return j
    raise KeyError(job_id)


def release_instance(releases, weights=None) -> Instance:
    ws = weights or [1] * len(releases)
    return Instance(tuple(Job(i, r, None, w) for i, (r, w) in enumerate(zip(releases, ws))))


def random_windows(rng: random.Random, n: int, horizon: int):
    out = []
    for _ in range(n):
        r = rng.randrange(horizon)
        d = rng.randrange(r, horizon)
        out.append((r, d))
    return out


def random_raw_windows(rng: random.Random, n: int, horizon: int):
    """Windows with repeated releases and deadlines, some collapsed
    (deadline before release)."""
    out = []
    for _ in range(n):
        r = rng.randrange(horizon)
        out.append((r, r + rng.randint(-2, 4)))
    return out


def random_feasible_normalized(rng: random.Random, n: int, horizon: int,
                               max_tries: int = 200) -> Instance | None:
    """A feasible instance with distinct releases and deadlines, or None."""
    for _ in range(max_tries):
        inst = make_instance(random_windows(rng, n, horizon))
        res = normalize_distinct(inst)
        if res.removed:
            continue
        if check_feasible(res.instance).feasible:
            return res.instance
    return None


def planted_normalized(rng: random.Random, n: int, horizon: int, reach: int,
                       max_weight: int = 1) -> Instance:
    """n jobs around a planted schedule on n distinct slots of [0, horizon).

    Each window reaches up to ``reach`` slots either side of its job's slot.
    A taken release moves left and a taken deadline right until free, so
    releases and deadlines are distinct and the planted schedule stays
    valid.  Weights are drawn from 1..max_weight.
    """
    releases: set[int] = set()
    deadlines: set[int] = set()
    jobs = []
    for i, p in enumerate(sorted(rng.sample(range(horizon), n))):
        r = p - rng.randint(0, reach)
        while r in releases:
            r -= 1
        d = p + rng.randint(0, reach)
        while d in deadlines:
            d += 1
        releases.add(r)
        deadlines.add(d)
        jobs.append(Job(i, r, d, rng.randint(1, max_weight)))
    return Instance(tuple(jobs))


def nested_wide(rng: random.Random, n: int) -> Instance:
    """n // 2 short windows in a row, one every three slots, under n - n // 2
    nested wide windows: the later a wide window's deadline, the earlier its
    release, and every wide deadline comes after the short jobs.  A window
    that starts between short jobs holds early short jobs and misses every
    later one, so a walk from job k down to the last job inside a window
    runs long.  Releases and deadlines are distinct, and the wide windows
    have free slots to spare, so the instance is feasible."""
    s, w = n // 2, n - n // 2
    short = [(3 * (w + i), 3 * (w + i) + rng.randint(0, 1)) for i in range(s)]
    wide = [(3 * (w + s // 2 - i) + 1, 3 * (w + s + 1) + 2 * i + rng.randint(0, 1))
            for i in range(w)]
    return make_instance(short + wide)


def slots_in(ranges) -> list[int]:
    """The slots of the ranges [lo, hi], sorted, by a set: the reference for
    ``core.slot_union``.  A range with hi < lo is empty."""
    return sorted({v for lo, hi in ranges for v in range(lo, hi + 1)})


def window_ends(jobs, span: int) -> list[int]:
    """The window ends max_gaps' fill reads, sorted: the slot before each
    job's release and every slot it may take, [r_j - 1, min(d_j, r_j + span)]."""
    return slots_in((j.release - 1, min(j.deadline, j.release + span)) for j in jobs)


def max_gaps_slots_reference(jobs) -> list:
    """max_gaps' candidate slots, found level by level: for each job k of
    the sentinel-augmented jobs, from 1, its slots ascending with their
    columns, split columns and right-factor rows, as four rows.  Another job
    must run at its release, so those slots are out; the right window
    starts at the next prior release past t, or at the row of the slot just
    before it."""
    n = len(jobs)
    span = 3 * n
    rel = np.array([j.release for j in jobs], dtype=np.int64)
    ug = np.array(sorted({r for j in jobs for r in (j.release - 1, j.release)}), dtype=np.int64)
    vg = np.array(window_ends(jobs, span), dtype=np.int64)
    # The releases with a bound on either side, below every slot and past
    # every end: its first k + 1 entries bound the releases of jobs < k.
    bounded = np.concatenate(([ug[0] - 1, vg[-1] + 2], rel))
    slots = [None]
    for k in range(1, n + 1):
        jk = jobs[k - 1]
        prior = np.sort(bounded[:k + 1])
        ts = np.arange(jk.release, min(jk.deadline, jk.release + span) + 1)
        p = prior.searchsorted(ts, side="right")
        free = prior[p - 1] != ts
        ts, nxt = ts[free], prior[p[free]]
        # Job k's slots are consecutive ends from r_k's column on, and the
        # row of nxt - 1 is the one before nxt's.  A slot with no next
        # release splits past every column, so its row is never read.
        tcol = vg.searchsorted(jk.release) + (ts - jk.release)
        slots.append(np.array((ts, tcol, vg.searchsorted(nxt),
                               ug.searchsorted(nxt) - (nxt > ts + 1))))
    return slots


def all_window_multisets(n: int, horizon: int, step: int = 1):
    """Every multiset of n windows over a coarse slot grid."""
    slots = range(0, horizon, step)
    windows = [(r, d) for r in slots for d in slots if r <= d]
    yield from itertools.combinations_with_replacement(windows, n)


def enumerate_schedules(inst: Instance, full: bool = True, slot_limit=None):
    """Yield every (partial or full) injective assignment as a dict.

    A job without a deadline may run up to ``slot_limit``; with
    ``full=False`` each job may also stay unscheduled."""
    choices = []
    for j in inst.jobs:
        hi = j.deadline if j.deadline is not None else slot_limit
        choices.append(([] if full else [None]) + list(range(j.release, hi + 1)))
    for slots in itertools.product(*choices):
        taken = [t for t in slots if t is not None]
        if len(set(taken)) == len(taken):
            yield {j.id: t for j, t in zip(inst.jobs, slots) if t is not None}


def brute_force_value(schedules, score, best=min):
    vals = [score(s) for s in schedules]
    return best(vals) if vals else None


def normalize_distinct_reference(inst: Instance) -> NormalizeResult:
    """``core.normalize_distinct`` as a heap of (release, deadline, order)
    that moves each job losing a contested release one slot right, one
    slot per push, and the same in mirrored time for the deadlines:
    O(n^2) heap operations on tie-heavy instances, the reference for the
    one-sweep-per-pass code."""
    order = {j.id: i for i, j in enumerate(inst.jobs)}
    kept, removed = _spread(inst.jobs, order)
    kept, pulled = _spread(_mirror(kept), {k: -o for k, o in order.items()})
    jobs = sorted(_mirror(kept), key=lambda j: j.deadline)
    return NormalizeResult(Instance(tuple(jobs)), tuple(removed + _mirror(pulled)))


def _mirror(jobs) -> list[Job]:
    return [Job(j.id, -j.deadline, -j.release, j.weight) for j in jobs]


def _spread(jobs, order):
    """At every contested release the job with the earliest deadline (then
    the smallest ``order``) keeps it, and the others move one slot right
    to compete again.  A job popped with its deadline before its release,
    from the input or pushed past its deadline, is removed at that window.
    Returns the kept jobs and the removed ones, at their final windows."""
    heap = [(j.release, j.deadline, order[j.id], j) for j in jobs]
    heapq.heapify(heap)
    kept, removed = [], []
    prev = None
    while heap:
        r, d, o, j = heapq.heappop(heap)
        if d < r:
            removed.append(Job(j.id, r, d, j.weight))
        elif prev is not None and r <= prev:
            heapq.heappush(heap, (prev + 1, d, o, j))
        else:
            kept.append(Job(j.id, r, d, j.weight))
            prev = r
    return kept, removed


def edf_reference(inst: Instance, slots=None) -> dict:
    """``core._edf`` as one loop over the release-sorted jobs: at each slot
    the pending jobs past their deadline are dropped and the one with the
    earliest deadline runs, ties in release order; a job with no deadline
    is never late.  The slots are ``slots``, or with None every slot from
    the first release on, idle stretches skipped."""
    jobs = inst.by_release()
    ahead = None if slots is None else iter(sorted(set(slots)))
    assignment = {}
    pending = []    # (deadline, order, id)
    i, t = 0, None
    while True:
        if slots is not None:
            t = next(ahead, None)
        elif pending:
            t += 1
        else:
            t = jobs[i].release if i < len(jobs) else None
        if t is None:
            break
        while i < len(jobs) and jobs[i].release <= t:
            d = jobs[i].deadline
            heapq.heappush(pending, (math.inf if d is None else d, i, jobs[i].id))
            i += 1
        while pending and pending[0][0] < t:
            heapq.heappop(pending)
        if pending:
            assignment[heapq.heappop(pending)[2]] = t
    return assignment


def distinct_points(hs: HittingSet) -> list[Fraction]:
    """The distinct representatives of a hitting set, ascending."""
    return sorted(set(hs.representatives.values()))


def max_gap(hs: HittingSet) -> Fraction:
    """The largest difference between consecutive representatives, 0 for
    fewer than two."""
    pts = sorted(hs.representatives.values())
    return max((b - a for a, b in zip(pts, pts[1:])), default=Fraction(0))


def hall_witness_rows(inst: Instance):
    """``core._hall_witness`` by a walk per distinct release u over the
    deadline groups, counting the releases >= u in Python; the first
    deadline that qualifies gives the narrowest window starting at u.
    None when no window is overfull."""
    by_deadline = [(v, [j.release for j in group]) for v, group
                   in itertools.groupby(inst.by_deadline(), key=lambda j: j.deadline)]
    best = None
    for u in sorted({j.release for j in inst.jobs}):
        inside = 0
        for v, releases in by_deadline:
            inside += sum(r >= u for r in releases)
            if inside > max(0, v - u + 1):
                if best is None or v - u < best[1] - best[0]:
                    best = (u, v)
                break
    return best
