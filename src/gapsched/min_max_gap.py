"""Minimize the maximum separation between consecutive busy slots.

The separation of a schedule is the largest difference of consecutive
busy slots (idle-run length plus one).  With n >= 2 jobs the optimum is
the smallest integer bound B >= 1 that the viability greedy of
``hitting.SeparationGreedy`` accepts, found by bisecting the integers:

* Every schedule is a hitting set of the job windows, so its separation
  is at least the continuous optimum lambda of min_max_gap_cont, and
  being an integer, at least ceil(lambda).  With n >= 2 jobs the slots
  are distinct, so it is also at least 1.
* The greedy is monotone in its bound and accepts lambda itself, so it
  accepts exactly the bounds >= lambda, and the smallest integer B >= 1
  it accepts is max(1, ceil(lambda)).  The search never computes lambda;
  comparing its value with max(1, ceil(lambda)) checks one path against
  the other.
* B <= max(1, H) for H = max release - min deadline.  The greedy's first
  point is the earliest deadline, so at bound H >= 1 every job is
  released after it; and H <= 0 means all windows share a point, so
  lambda = 0.
* At an integer bound, with distinct deadlines, the greedy places every
  job at its deadline or at the previous maximum plus the bound:
  pairwise distinct integer slots, a schedule whose separation is at
  most B, hence equal to it.
"""

from __future__ import annotations

from .core import Constraints, Instance, Schedule, certify, require_normalized
from .errors import GapSchedError
from .hitting import Interval, SeparationGreedy


def _intervals(inst: Instance) -> list[Interval]:
    return [Interval(j.id, j.release, j.deadline) for j in inst.by_deadline]


def separation_schedule(inst: Instance, bound: int) -> Schedule | None:
    """A full schedule with all consecutive separations <= bound, if any.

    Runs the viability greedy at an integer bound; with distinct
    deadlines its chosen points are pairwise distinct integers, so they
    form a schedule directly.
    """
    greedy = SeparationGreedy(_intervals(inst))
    points = greedy.probe(bound, 1)
    if points is None:
        return None
    assignment = {iv.id: h for iv, h in zip(greedy.ivs, points)}
    if len(set(assignment.values())) < len(assignment):
        raise GapSchedError(f"viability greedy at bound {bound} did not give "
                            "distinct integer slots")
    return Schedule(inst, assignment)


def min_max_gap(inst: Instance) -> tuple[int, Schedule]:
    """Schedule all jobs minimizing the maximum separation."""
    require_normalized(inst, feasible=True)
    if len(inst.jobs) <= 1:
        return 0, Schedule(inst, {j.id: j.release for j in inst.jobs})
    greedy = SeparationGreedy(_intervals(inst))
    lo = 1
    hi = max(1, max(j.release for j in inst.jobs) - min(j.deadline for j in inst.jobs))
    while lo < hi:
        mid = (lo + hi) // 2
        if greedy.probe(mid, 1) is None:
            lo = mid + 1
        else:
            hi = mid
    sched = separation_schedule(inst, lo)
    if sched is None:
        raise GapSchedError(f"separation {lo} is not viable")
    certify(sched, inst, Constraints(require_all=True), lo, "max_separation")
    return lo, sched
