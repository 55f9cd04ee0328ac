"""Shared instance generators and small brute-force helpers for the tests."""

from __future__ import annotations

import itertools
import random

from gapsched.core import Instance, Job, check_feasible, normalize_distinct


def make_instance(windows) -> Instance:
    """Instance from (release, deadline) pairs; ids are list positions."""
    return Instance(tuple(Job(i, r, d) for i, (r, d) in enumerate(windows)))


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
