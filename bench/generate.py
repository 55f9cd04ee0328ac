"""Seeded instance generator for the benchmark.

Pure Python over ``random.Random``; it never imports ``gapsched``, so the
inputs do not depend on the code being measured.  A job is a tuple
``(release, deadline, weight)``; a job's id is its position in the list.

Feasible instances are planted: n distinct busy slots are drawn first,
then each job gets a release at or before its slot and a deadline at or
after it.  A release that is already taken moves one slot left until it
is free, a deadline one slot right, so releases and deadlines come out
pairwise distinct and the planted schedule stays valid.
"""

from __future__ import annotations

import hashlib
import json
import random

# Slack drawn on each side of a planted slot, as a fraction of n.
WIDTHS = {"tight": 0.02, "mid": 0.15, "wide": 0.6}


def planted(rng: random.Random, n: int, horizon: int, families,
            weights: tuple[int, int] = (1, 1)) -> list[tuple[int, int, int]]:
    """n jobs with distinct releases and deadlines around a planted schedule.

    Each job draws its window family uniformly from ``families`` (keys of
    WIDTHS) and its weight uniformly from the closed range ``weights``.
    """
    slots = sorted(rng.sample(range(horizon), n))
    used_r: set[int] = set()
    used_d: set[int] = set()
    jobs = []
    for p in slots:
        reach = max(1, round(WIDTHS[rng.choice(families)] * n))
        r = p - rng.randint(0, reach)
        while r in used_r:
            r -= 1
        d = p + rng.randint(0, reach)
        while d in used_d:
            d += 1
        used_r.add(r)
        used_d.add(d)
        jobs.append((r, d, rng.randint(*weights)))
    return _from_zero(jobs)


def planted_raw(rng: random.Random, n: int, horizon: int,
                reach: int) -> list[tuple[int, int, int]]:
    """A feasible instance with repeated releases and deadlines.

    Windows are clipped to [0, horizon) and are not made distinct, so the
    normalisation step has real work to do.
    """
    jobs = []
    for p in sorted(rng.sample(range(horizon), n)):
        r = max(0, p - rng.randint(0, reach))
        d = min(horizon - 1, p + rng.randint(0, reach))
        jobs.append((r, d, 1))
    rng.shuffle(jobs)
    return jobs


def uniform_raw(rng: random.Random, n: int, horizon: int) -> list[tuple[int, int, int]]:
    """Release uniform on [0, horizon), deadline uniform on [release, horizon)."""
    jobs = []
    for _ in range(n):
        r = rng.randrange(horizon)
        jobs.append((r, rng.randrange(r, horizon), 1))
    return jobs


def transform(rng: random.Random, jobs):
    """A random shift of an instance in time and a random order of its jobs.

    Neither changes any objective, so an instance's optimal values carry
    over.  Mirroring time would keep them too, but it changes the solvers'
    work by up to a quarter on these instances, which would make a run's
    time depend on the seed.
    """
    shift = rng.randrange(1000)
    jobs = [(r + shift, d + shift, w) for r, d, w in jobs]
    rng.shuffle(jobs)
    return jobs


def fingerprint(jobs) -> str:
    """Short content hash, used to tie stored references to their instance."""
    return hashlib.sha256(json.dumps(sorted(jobs)).encode()).hexdigest()[:16]


def _from_zero(jobs):
    lo = min(r for r, _, _ in jobs)
    return [(r - lo, d - lo, w) for r, d, w in jobs]


# The instances of the two workloads whose answers are checked against
# stored integer-programming optima: (n, horizon / n, k), named "n/k" and
# seeded by "<workload>/<n>/<k>".  Every round solves all of them; a run's
# seed only shifts and reorders them (see transform), because a
# fresh instance would need a fresh optimum, which takes minutes.
GAP_BUDGETS = range(4)   # max_throughput budgets with a stored optimum

POOLS = {
    # A tighter horizon forces fewer, longer blocks.
    "gap-objectives": ((80, 1.5, 0), (80, 1.5, 1), (120, 1.4, 0), (120, 1.4, 1),
                       (160, 1.3, 0)),
    "throughput-budget": ((24, 2.5, 0), (24, 2.5, 1), (32, 2.5, 0)),
}


def pool(workload: str):
    """Yield (name, jobs) for every pool instance of a workload."""
    for n, ratio, k in POOLS[workload]:
        rng = random.Random(f"{workload}/{n}/{k}")
        if workload == "gap-objectives":
            jobs = planted(rng, n, round(ratio * n), ("tight", "mid", "wide"))
        else:
            jobs = planted(rng, n, round(ratio * n), ("wide",), (1, 9))
        yield f"{n}/{k}", jobs
