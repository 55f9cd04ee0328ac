"""Instance model, normalization, feasibility and schedule bookkeeping.

Unit jobs occupy one integer slot each.  A gap is a maximal run of idle
slots strictly between the first and last busy slot, so a schedule with
b blocks has exactly b - 1 gaps.  Everything here but ``LevelBlocks``,
the store that the gap-count DPs fill, is a pure function over immutable
values; solvers in the sibling modules build on these primitives.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .errors import GapSchedError, InfeasibleError

JobId = str | int

# What counts as an integer coordinate or weight.  int is listed first
# because the abstract class alone is slow to check.
INTEGER = (int, numbers.Integral)


@dataclass(frozen=True)
class Job:
    id: JobId
    release: int
    deadline: int | None = None
    weight: int = 1

    def __post_init__(self):
        # Slots are integers, and the DPs and oracles sum weights in int64
        # tables.
        if not isinstance(self.release, INTEGER):
            raise ValueError(f"job {self.id}: release {self.release!r} is not an integer")
        if self.deadline is not None and not isinstance(self.deadline, INTEGER):
            raise ValueError(f"job {self.id}: deadline {self.deadline!r} is not an integer")
        if not isinstance(self.weight, INTEGER):
            raise ValueError(f"job {self.id}: weight {self.weight!r} is not an integer")
        if self.weight < 0:
            raise ValueError(f"job {self.id}: negative weight")


@dataclass(frozen=True)
class Instance:
    jobs: tuple[Job, ...]

    def __post_init__(self):
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids")

    def __len__(self):
        return len(self.jobs)

    @property
    def has_deadlines(self) -> bool:
        return all(j.deadline is not None for j in self.jobs)

    def by_deadline(self) -> list[Job]:
        return sorted(self.jobs, key=lambda j: (j.deadline, j.release))

    def by_release(self) -> list[Job]:
        return sorted(self.jobs, key=lambda j: (
            j.release, j.release if j.deadline is None else j.deadline))

    def job(self, job_id: JobId) -> Job:
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(job_id)

    def releases_distinct(self) -> bool:
        rs = [j.release for j in self.jobs]
        return len(set(rs)) == len(rs)

    def deadlines_distinct(self) -> bool:
        ds = [j.deadline for j in self.jobs]
        return len(set(ds)) == len(ds)


@dataclass(frozen=True)
class GapStats:
    gap_count: int
    max_idle: int
    max_separation: int
    total_flow: int
    max_flow: int


@dataclass
class Schedule:
    """Injective assignment of job ids to slots, tied to its instance."""

    instance: Instance
    assignment: dict[JobId, int]

    def busy_slots(self) -> tuple[int, ...]:
        return tuple(sorted(self.assignment.values()))

    def blocks(self) -> list[tuple[int, int]]:
        out = []
        for t in self.busy_slots():
            if out and t == out[-1][1] + 1:
                out[-1] = (out[-1][0], t)
            else:
                out.append((t, t))
        return out

    def gaps(self) -> list[tuple[int, int]]:
        blocks = self.blocks()
        return [(a[1] + 1, b[0] - 1) for a, b in zip(blocks, blocks[1:])]


def gap_stats(schedule: Schedule) -> GapStats:
    """Gap/flow statistics of a non-empty schedule; flows cover the
    scheduled jobs of its instance."""
    if not schedule.assignment:
        raise GapSchedError("gap_stats of an empty schedule")
    busy = schedule.busy_slots()
    gaps = schedule.gaps()
    max_idle = max((b - a + 1 for a, b in gaps), default=0)
    max_sep = max((t2 - t1 for t1, t2 in zip(busy, busy[1:])), default=0)
    flows = [schedule.assignment[j.id] - j.release
             for j in schedule.instance.jobs if j.id in schedule.assignment]
    return GapStats(
        gap_count=len(gaps),
        max_idle=max_idle,
        max_separation=max_sep,
        total_flow=sum(flows),
        max_flow=max(flows, default=0),
    )


@dataclass(frozen=True)
class Constraints:
    """Optional side constraints checked by validate()."""

    max_gaps: int | None = None
    min_throughput: int | None = None
    require_all: bool = False
    weighted: bool = False


def validate(schedule: Schedule, inst: Instance,
             constraints: Constraints | None = None) -> list[str]:
    """Return a list of violation messages; empty iff the schedule is valid."""
    v = []
    slots_seen: dict[int, JobId] = {}
    jobs_by_id = {j.id: j for j in inst.jobs}
    for jid, t in schedule.assignment.items():
        if jid not in jobs_by_id:
            v.append(f"unknown job {jid!r}")
            continue
        job = jobs_by_id[jid]
        if t < job.release:
            v.append(f"job {jid!r} scheduled at {t} before release {job.release}")
        if job.deadline is not None and t > job.deadline:
            v.append(f"job {jid!r} scheduled at {t} after deadline {job.deadline}")
        if t in slots_seen:
            v.append(f"slot {t} assigned to both {slots_seen[t]!r} and {jid!r}")
        slots_seen[t] = jid
    c = constraints
    if c is None:
        return v
    if c.require_all:
        missing = set(jobs_by_id) - set(schedule.assignment)
        if missing:
            v.append(f"jobs not scheduled: {sorted(missing, key=str)}")
    if c.max_gaps is not None:
        count = len(schedule.gaps())
        if count > c.max_gaps:
            v.append(f"gap count {count} exceeds budget {c.max_gaps}")
    if c.min_throughput is not None:
        got = sum(jobs_by_id[j].weight if c.weighted else 1
                  for j in schedule.assignment if j in jobs_by_id)
        if got < c.min_throughput:
            v.append(f"throughput {got} below floor {c.min_throughput}")
    return v


def certify(schedule: Schedule, inst: Instance, constraints: Constraints | None,
            value: int, measure: str) -> None:
    """Raise GapSchedError unless ``schedule`` is a witness for ``value``.

    The schedule must pass validate() under ``constraints``, and its
    ``measure`` -- "gap_count" or "max_separation" (both 0 on an empty
    schedule), "count" or "weight" -- must equal ``value``.  Every problem
    found is listed in the message.
    """
    problems = validate(schedule, inst, constraints)
    if measure == "count":
        got = len(schedule.assignment)
    elif measure == "weight":
        weights = {j.id: j.weight for j in inst.jobs}
        got = sum(weights.get(j, 0) for j in schedule.assignment)
    elif measure in ("gap_count", "max_separation"):
        got = getattr(gap_stats(schedule), measure) if schedule.assignment else 0
    else:
        raise GapSchedError(f"unknown measure {measure!r}")
    if got != value:
        problems.append(f"claimed {measure} {value}, witness has {got}")
    if problems:
        raise GapSchedError("certificate failed: " + "; ".join(problems))


def require_normalized(inst: Instance, feasible: bool = False) -> None:
    """Raise unless every job has a deadline and releases and deadlines are
    pairwise distinct; with ``feasible``, also raise InfeasibleError
    carrying an overfull window when no full schedule exists."""
    if not inst.has_deadlines:
        raise GapSchedError("deadline instance required")
    if not (inst.releases_distinct() and inst.deadlines_distinct()):
        raise GapSchedError("instance must be normalized to distinct "
                            "releases and deadlines first")
    if feasible:
        res = check_feasible(inst)
        if not res.feasible:
            raise InfeasibleError(f"infeasible: window {res.witness} is overfull",
                                  witness=res.witness)


def require_count(name: str, value, minimum: int | None = 0) -> None:
    """Raise GapSchedError unless ``value`` is an integer of at least
    ``minimum`` (None: any integer).  A bool is refused: True is not the
    budget or threshold 1."""
    if isinstance(value, bool) or not isinstance(value, INTEGER):
        raise GapSchedError(f"{name} {value!r} is not an integer")
    if minimum is not None and value < minimum:
        bound = {0: "non-negative", 1: "positive"}.get(minimum, f"at least {minimum}")
        raise GapSchedError(f"{name} must be {bound}, got {value}")


TABLE_CAP = 1 << 30


def require_table_fits(what: str, nbytes: int) -> None:
    """Raise GapSchedError when DP tables of ``nbytes`` bytes, named by
    ``what``, exceed TABLE_CAP bytes (1 GiB); solvers call it before
    allocating them.  The gap-count DPs, min_gaps and max_gaps, check their
    working tables and stored blocks through ``LevelBlocks``, the throughput
    DP its slots, windows and values.
    """
    if nbytes > TABLE_CAP:
        raise GapSchedError(f"{what} would take {nbytes} bytes, above the "
                            f"cap of {TABLE_CAP} bytes")


class LevelBlocks:
    """The stored levels of a gap-count DP that adds jobs one at a time.

    Level k changes only the windows that hold job k, so only its block is
    kept: rows 0 .. rows[k] - 1 and columns first[k] .. end[k] - 1, row
    after row in one flat store.  Level 0, the empty sub-instance, is a
    block of one column.  Cell (k, u, v) equals cell (j, u, v) for the last
    job j <= k inside the window, which ``last_inside`` finds from one key
    per job, and ``cell`` reads block j at column min(v, end[j] - 1): every
    row of a block is constant from its last column on.  ``rows``,
    ``first`` and ``end`` are lists with one entry a level, from level 0,
    and ``keys`` a list with one a job.  The store and the caller's working
    table of ``work_bytes`` are checked against ``require_table_fits``
    before the store is allocated.
    """

    def __init__(self, what: str, dtype, work_bytes: int, keys, rows, first, end):
        self.keys, self.rows, self.end = keys, rows, end
        self.width = [e - f for f, e in zip(first, end)]
        offset = [0, *accumulate(r * w for r, w in zip(rows, self.width))]
        self.base = [o - f for o, f in zip(offset, first)]    # where cell (k, 0, 0) lies
        require_table_fits(what, work_bytes + offset[-1] * np.dtype(dtype).itemsize)
        self.store = np.empty(offset[-1], dtype=dtype)

    def block(self, k: int) -> np.ndarray:
        """Level k's block, a writable view of the store."""
        rows, width = self.rows[k], self.width[k]
        start = self.base[k] + self.end[k] - width      # cell (k, 0, first[k])
        return self.store[start:start + rows * width].reshape(rows, width)

    def last_inside(self, k: int, lo: int, hi: int) -> int:
        """The last of the first k jobs whose key lies in [lo, hi], or 0."""
        while k and not lo <= self.keys[k - 1] <= hi:
            k -= 1
        return k

    def cell(self, k: int, u: int, v: int):
        """Cell (k, u, v) as a Python scalar, read from level k's own block:
        k must be the last job inside the window."""
        return self.store.item(self.base[k] + u * self.width[k] + min(v, self.end[k] - 1))


START = "__start__"
END = "__end__"


def augment(inst: Instance) -> list[Job]:
    """Deadline-sorted jobs between tight sentinel jobs START and END, two
    slots outside the instance's span."""
    lo = min(j.release for j in inst.jobs) - 2
    hi = max(j.deadline for j in inst.jobs) + 2
    return [Job(START, lo, lo)] + inst.by_deadline() + [Job(END, hi, hi)]


@dataclass(frozen=True)
class NormalizeResult:
    instance: Instance
    remap: dict[JobId, Job]
    removed: tuple[Job, ...]


def normalize_distinct(inst: Instance) -> NormalizeResult:
    """Make all release times and all deadlines pairwise distinct.

    Release ties are broken by pushing the job with the later deadline one
    slot to the right; deadline ties pull the job with the earlier release
    one slot to the left.  Ties on both coordinates are processed in stable
    input order.  Jobs whose window collapses (deadline < release) are
    dropped and reported; schedulable busy-slot sets are preserved for the
    survivors.
    """
    if not inst.has_deadlines:
        raise GapSchedError("normalize_distinct requires deadlines")
    order = {j.id: i for i, j in enumerate(inst.jobs)}
    kept, removed = _spread(inst.jobs, order)
    # The deadline pass is the release pass in mirrored time, where
    # (r, d) becomes (-d, -r) and the latest release keeps a contested
    # deadline; negated tie keys keep input order on full ties.
    kept, pulled = _spread(_mirror(kept), {k: -o for k, o in order.items()})
    jobs = sorted(_mirror(kept), key=lambda j: j.deadline)
    return NormalizeResult(Instance(tuple(jobs)), {j.id: j for j in jobs},
                           tuple(removed + _mirror(pulled)))


def _mirror(jobs) -> list[Job]:
    return [Job(j.id, -j.deadline, -j.release, j.weight) for j in jobs]


def _spread(jobs, order: dict[JobId, int]) -> tuple[list[Job], list[Job]]:
    """The release pass of normalize_distinct: at every contested release
    the job with the earliest deadline (then the smallest ``order``) keeps
    it, and the others move one slot right to compete again.  Returns the
    kept jobs and those whose window collapsed, at their final windows."""
    heap = [(j.release, j.deadline, order[j.id], j) for j in jobs]
    heapq.heapify(heap)
    kept: list[Job] = []
    removed: list[Job] = []
    prev = None
    while heap:
        r, d, o, j = heapq.heappop(heap)
        if prev is not None and r <= prev:
            if prev + 1 > d:
                removed.append(Job(j.id, prev + 1, d, j.weight))
            else:
                heapq.heappush(heap, (prev + 1, d, o, j))
            continue
        kept.append(Job(j.id, r, d, j.weight))
        prev = r
    return kept, removed


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    schedule: Schedule | None = None
    witness: tuple[int, int] | None = None


def _edf(inst: Instance, slots=None) -> dict[JobId, int]:
    """Earliest-deadline-first matching of jobs to slots.

    At each slot the pending jobs past their deadline are dropped and the
    one with the earliest deadline runs, ties in release order; a job with
    no deadline is never late.  The slots are ``slots``, or with None every
    slot from the first release on, idle stretches skipped.  This greedy
    is a maximum matching of the convex bipartite graph of jobs and slots
    (Glover 1967).
    """
    jobs = inst.by_release()
    ahead = None if slots is None else iter(sorted(set(slots)))
    assignment: dict[JobId, int] = {}
    pending: list[tuple[float, int, JobId]] = []  # (deadline, order, id)
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


def check_feasible(inst: Instance) -> FeasibilityResult:
    """EDF feasibility for a deadline instance.

    Feasible iff earliest deadline first places every job.  On failure
    returns an overfull window [u, v] containing more jobs than slots
    (u a release, v a deadline).
    """
    if not inst.has_deadlines:
        raise GapSchedError("check_feasible requires deadlines")
    assignment = _edf(inst)
    if len(assignment) < len(inst.jobs):
        return FeasibilityResult(False, witness=_hall_witness(inst))
    return FeasibilityResult(True, Schedule(inst, assignment))


def edf_max_throughput(inst: Instance) -> int:
    """Maximum number of schedulable jobs of a deadline instance."""
    return len(_edf(inst))


def _hall_witness(inst: Instance) -> tuple[int, int]:
    """An interval [u, v] holding more whole job windows than its
    max(0, v - u + 1) slots; the narrowest such window, ties to the
    smallest u.

    Searching u over releases and v over deadlines suffices.  An inverted
    window (v < u) qualifies only when it holds a collapsed job window.
    For each u the jobs are counted in deadline order; the first deadline
    that qualifies gives the narrowest window starting at u.
    """
    by_deadline = [(v, [j.release for j in group]) for v, group
                   in groupby(inst.by_deadline(), key=lambda j: j.deadline)]
    best = None
    for u in sorted({j.release for j in inst.jobs}):
        inside = 0
        for v, releases in by_deadline:
            inside += sum(r >= u for r in releases)
            if inside > max(0, v - u + 1):
                if best is None or v - u < best[1] - best[0]:
                    best = (u, v)
                break
    if best is None:
        raise GapSchedError("no Hall witness in a feasible instance")
    return best


def edf_schedule_busy_set(inst: Instance, busy: tuple[int, ...]) -> Schedule | None:
    """Match jobs onto a prescribed busy-slot set, earliest deadline first.

    Returns None when no injective window-respecting assignment fills the
    set with every job.  Since earliest deadline first gives a maximum
    matching, it finds one whenever one exists.
    """
    assignment = _edf(inst, busy)
    if not len(assignment) == len(inst.jobs) == len(busy):
        return None
    return Schedule(inst, assignment)
