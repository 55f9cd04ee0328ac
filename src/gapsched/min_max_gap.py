"""Minimize the maximum separation between consecutive busy slots.

The separation of a schedule is the largest difference of consecutive
busy slots (idle-run length plus one).  One solve path gives the optimum:

* Every schedule is a hitting set of the job windows, so its separation
  is at least the continuous optimum lambda of min_max_gap_cont, and
  being an integer, at least ceil(lambda).  With n >= 2 jobs the slots
  are distinct, so it is also at least 1.
* ``viable`` is monotone in its bound, so it succeeds at the target
  max(ceil(lambda), 1) >= lambda.  At an integer bound, with distinct
  deadlines, its greedy places every job at its deadline or at the
  previous maximum plus the bound: pairwise distinct integer slots, a
  schedule whose separation is at most the target, hence equal to it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import Constraints, Instance, Schedule, certify, require_normalized
from .errors import GapSchedError
from .hitting import Interval, min_max_gap_cont, viable


def _intervals(inst: Instance) -> list[Interval]:
    return [Interval(j.id, j.release, j.deadline) for j in inst.by_deadline()]


def separation_schedule(inst: Instance, bound: int) -> Schedule | None:
    """A full schedule with all consecutive separations <= bound, if any.

    Runs the continuous viability greedy at an integer bound; with
    distinct deadlines its chosen points are pairwise distinct integers,
    so they form a schedule directly.
    """
    ok, hs = viable(_intervals(inst), Fraction(bound))
    if not ok:
        return None
    assignment = {jid: int(h) for jid, h in hs.representatives.items()
                  if h.denominator == 1}
    if (len(assignment) < len(hs.representatives)
            or len(set(assignment.values())) < len(assignment)):
        raise GapSchedError(f"viability greedy at bound {bound} did not give "
                            "distinct integer slots")
    return Schedule(inst, assignment)


def min_max_gap(inst: Instance) -> tuple[int, Schedule]:
    """Schedule all jobs minimizing the maximum separation."""
    require_normalized(inst, feasible=True)
    if len(inst.jobs) <= 1:
        return 0, Schedule(inst, {j.id: j.release for j in inst.jobs})
    lam, _ = min_max_gap_cont(_intervals(inst))
    target = max(math.ceil(lam), 1)
    sched = separation_schedule(inst, target)
    if sched is None:
        raise GapSchedError(f"separation {target} >= {lam} is not viable")
    certify(sched, inst, Constraints(require_all=True), target, "max_separation")
    return target, sched
