"""Answer checks that do not go through ``gapsched``.

Jobs are ``(release, deadline, weight)`` tuples.  Checks that look jobs
up by id take a mapping id -> job (``dict(enumerate(jobs))`` for a list
from ``generate.py``); a schedule is a mapping job id -> slot.  Every
check raises CheckError with a message naming what is wrong.
"""

from __future__ import annotations

import numpy as np


class CheckError(Exception):
    """A solver's answer is wrong."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckError(message)


def schedule_slots(assignment, jobs, full: bool) -> list[int]:
    """Sorted busy slots of a valid schedule; ``full`` requires every job.

    Valid: every key is a job id, slots are pairwise distinct, and every
    job runs inside its window.
    """
    seen: set[int] = set()
    for jid, t in assignment.items():
        require(jid in jobs, f"unknown job {jid!r}")
        r, d, _ = jobs[jid]
        require(r <= t <= d, f"job {jid} at slot {t} outside its window [{r}, {d}]")
        require(t not in seen, f"two jobs in slot {t}")
        seen.add(t)
    if full:
        require(len(assignment) == len(jobs),
                f"{len(jobs) - len(assignment)} of {len(jobs)} jobs not scheduled")
    return sorted(seen)


def gap_count(slots) -> int:
    """Interior idle runs between the first and the last busy slot."""
    return sum(1 for a, b in zip(slots, slots[1:]) if b > a + 1)


def max_separation(slots) -> int:
    """Largest distance between consecutive busy slots (0 for one slot)."""
    return max((b - a for a, b in zip(slots, slots[1:])), default=0)


def throughput(assignment, jobs, weighted: bool) -> int:
    return sum(jobs[j][2] for j in assignment) if weighted else len(assignment)


def max_matching(jobs) -> int:
    """Most jobs that can run at distinct slots inside their windows."""
    # Imported here so that a run's set-up time and memory leave scipy out.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if not jobs:
        return 0
    lo = min(r for r, _, _ in jobs)
    indptr = [0]
    indices: list[int] = []
    for r, d, _ in jobs:
        indices.extend(range(r - lo, d - lo + 1))
        indptr.append(len(indices))
    hi = max(d for _, d, _ in jobs)
    graph = csr_matrix((np.ones(len(indices), dtype=np.int8), indices, indptr),
                       shape=(len(jobs), hi - lo + 1))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int(np.count_nonzero(match >= 0))


def hitting_points(representatives, intervals, full: bool):
    """Every representative lies inside its interval; ``full`` requires one
    for every interval.  ``intervals`` maps id -> (start, end, weight)."""
    for iid, x in representatives.items():
        require(iid in intervals, f"unknown interval {iid!r}")
        a, b, _ = intervals[iid]
        require(a <= x <= b, f"interval {iid} represented at {x}, outside [{a}, {b}]")
    if full:
        require(len(representatives) == len(intervals),
                f"{len(intervals) - len(representatives)} intervals not hit")


def cover_count(releases, radius: int) -> int:
    """Fewest points p with every release r covered by some p in
    [r, r + radius]: sweep left to right, placing a point as late as the
    first uncovered release allows."""
    count, last = 0, None
    for r in sorted(releases):
        if last is None or r > last:
            last = r + radius
            count += 1
    return count
