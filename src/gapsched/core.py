"""Instance model, normalization, feasibility and schedule bookkeeping.

Unit jobs occupy one integer slot each.  A gap is a maximal run of idle
slots strictly between the first and last busy slot, so a schedule with
b blocks has exactly b - 1 gaps.  Everything here but ``LevelBlocks``,
the store that the gap-count DPs fill, is a pure function over immutable
values; solvers in the sibling modules build on these primitives.  The
windowed DPs, max_gaps and the throughput DP, build their grids of window
starts with ``distinct`` and of slots with ``slot_union``.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import GapSchedError, InfeasibleError

JobId = str | int


def is_integer(value, kind=numbers.Integral) -> bool:
    """Whether ``value`` is an integer (numpy's included), or an instance of
    the wider numbers class ``kind``, and not a bool: True is not the
    coordinate, weight, count or bound 1."""
    # int is listed first because the abstract class alone is slow to check.
    return isinstance(value, (int, kind)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Job:
    id: JobId
    release: int
    deadline: int | None = None
    weight: int = 1

    def __post_init__(self):
        # Slots are integers, and the DPs and oracles sum weights in int64
        # tables.
        if not is_integer(self.release):
            raise ValueError(f"job {self.id}: release {self.release!r} is not an integer")
        if self.deadline is not None and not is_integer(self.deadline):
            raise ValueError(f"job {self.id}: deadline {self.deadline!r} is not an integer")
        if not is_integer(self.weight):
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


def require_count(name: str, value, minimum: int | None = 0,
                  kind=numbers.Integral) -> None:
    """Raise GapSchedError unless ``value`` is an integer, or with ``kind``
    numbers.Rational a rational, of at least ``minimum`` (None: no least
    value), by ``is_integer``."""
    if not is_integer(value, kind):
        what = "an integer" if kind is numbers.Integral else "rational"
        raise GapSchedError(f"{name} {value!r} is not {what}")
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


def distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of ``a``, ascending, sorting ``a`` in place: a
    sort and a mask, several times faster here than ``np.unique``, which
    hashes first and imports ``numpy.ma``."""
    a.sort()
    return np.concatenate((a[:1], a[1:][a[1:] != a[:-1]]))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + counts[i]), concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def slot_union(lo: np.ndarray, hi: np.ndarray, what: str, bytes_per_slot: int) -> np.ndarray:
    """The slots of the union of the ranges [lo[i], hi[i]], ascending; a
    range with hi < lo is empty.

    Sorted by start, each range adds its slots past the largest end before
    it, which the ranges before it cover from their starts on.  The union's
    size times ``bytes_per_slot``, named by ``what``, is checked against
    ``require_table_fits`` before any slot is listed, so a union too large
    to hold is refused in O(n) memory.
    """
    order = lo.argsort()
    lo, hi = lo[order], hi[order]
    before = np.concatenate((lo[:1] - 1, np.maximum.accumulate(hi)[:-1]))
    starts = np.maximum(lo, before + 1)
    counts = np.maximum(hi - starts + 1, 0)
    require_table_fits(what, int(counts.sum()) * bytes_per_slot)
    return _ranges(starts, counts)


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


@dataclass(frozen=True, eq=False)
class _Sentinel:
    """The id of a sentinel job of ``augment``: it equals no other id."""

    name: str

    def __repr__(self):
        return f"<{self.name}>"


START, END = _Sentinel("start"), _Sentinel("end")


def augment(inst: Instance) -> list[Job]:
    """Deadline-sorted jobs between tight sentinel jobs START and END, two
    slots outside the instance's span."""
    lo = min(j.release for j in inst.jobs) - 2
    hi = max(j.deadline for j in inst.jobs) + 2
    return [Job(START, lo, lo)] + inst.by_deadline() + [Job(END, hi, hi)]


@dataclass(frozen=True)
class NormalizeResult:
    instance: Instance
    removed: tuple[Job, ...]


def normalize_distinct(inst: Instance) -> NormalizeResult:
    """Make all release times and all deadlines pairwise distinct.

    Both passes are ``_sweep`` over the jobs keyed by input order.  The
    release pass sweeps time upwards.  At slot t every waiting job with
    deadline < t has lost its window and is dropped, in (deadline, input
    order), as the job [t, d]; then the waiting job with the earliest
    deadline keeps release t, and the rest compete again at t + 1.  So a
    release tie keeps the job with the earliest deadline in place and
    pushes the others right, full ties in input order.  A job whose window
    is empty from the start (d < r) is dropped at its release as [r, d]
    and takes no slot from another job.

    The deadline pass is the same sweep in mirrored time, where (r, d)
    becomes (-d, -r) and the tie key is the negated input order: a deadline
    tie keeps the job with the latest release, full ties the one later in
    the input, and pulls the others left; a job it drops at slot s of
    unmirrored time, s < r, is reported as [r, s].  ``removed`` lists the
    release pass's drops, then the deadline pass's, each in drop order.
    Schedulable busy-slot sets are preserved for the survivors, which come
    sorted by deadline.

    Each pass pushes and pops every job once, so the whole takes
    O(n log n) time, and each output ``Job`` is built once.
    """
    if not inst.has_deadlines:
        raise GapSchedError("normalize_distinct requires deadlines")
    jobs = inst.jobs

    def one_pass(items):
        kept, dropped = [], []
        for e in _sweep(sorted(items)):
            (kept if e[1] >= e[0] else dropped).append(e)
        return kept, dropped

    kept, pushed = one_pass((j.release, j.deadline, i) for i, j in enumerate(jobs))
    kept, pulled = one_pass((-d, -t, -i) for t, d, i in kept)

    def job(i, release, deadline):
        return Job(jobs[i].id, release, deadline, jobs[i].weight)

    out = [job(-k, -d, -t) for t, d, k in reversed(kept)]
    removed = [job(i, t, d) for t, d, i in pushed] + [job(-k, -d, -t) for t, d, k in pulled]
    return NormalizeResult(Instance(tuple(out)), tuple(removed))


def _sweep(items, slots=None):
    """Earliest deadline first over (release, deadline, key) items with
    distinct keys, read lazily in ascending release order.

    The slots are ``slots``, ascending, or with None every slot from the
    first release on, idle stretches skipped.  At slot t the jobs released
    by t wait in a heap keyed by (deadline, key).  Every waiting job with
    deadline < t is dropped, in heap order, and then the top job takes t.
    Yields (t, deadline, key) for each job dropped or kept at slot t, in
    that order, so a job is kept exactly when its deadline is at least t.
    The kept jobs form a maximum matching of the convex bipartite graph of
    jobs and slots (Glover 1967).
    """
    items = iter(items)
    ahead = None if slots is None else iter(slots)
    item = next(items, None)
    waiting: list = []      # (deadline, key)
    t = None
    while True:
        if ahead is not None:
            t = next(ahead, None)
        elif waiting:
            t += 1
        else:
            t = None if item is None else item[0]
        if t is None:
            return
        while item is not None and item[0] <= t:
            heapq.heappush(waiting, item[1:])
            item = next(items, None)
        while waiting:
            d, k = heapq.heappop(waiting)
            yield t, d, k
            if d >= t:
                break


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    schedule: Schedule | None = None
    witness: tuple[int, int] | None = None


def _edf(inst: Instance, slots=None) -> dict[JobId, int]:
    """Earliest-deadline-first matching of jobs to slots by ``_sweep``,
    ties in release order; a job with no deadline is never late.  The
    slots are ``slots``, or with None every slot from the first release on.
    """
    jobs = inst.by_release()
    items = ((j.release, math.inf if j.deadline is None else j.deadline, i)
             for i, j in enumerate(jobs))
    events = _sweep(items, None if slots is None else sorted(set(slots)))
    return {jobs[k].id: t for t, d, k in events if d >= t}


def check_feasible(inst: Instance) -> FeasibilityResult:
    """EDF feasibility for a deadline instance.

    Feasible iff earliest deadline first places every job, which takes
    O(n log n).  On failure returns ``_hall_witness``'s overfull window
    [u, v] containing more jobs than slots (u a release, v a deadline):
    the narrowest, ties to the smallest u.
    """
    if not inst.has_deadlines:
        raise GapSchedError("check_feasible requires deadlines")
    assignment = _edf(inst)
    if len(assignment) == len(inst.jobs):
        return FeasibilityResult(True, Schedule(inst, assignment))
    del assignment      # freed before the witness search, to bound the peak
    return FeasibilityResult(False, witness=_hall_witness(inst))


def edf_max_throughput(inst: Instance) -> int:
    """Maximum number of schedulable jobs of a deadline instance."""
    return len(_edf(inst))


_BLOCK_BYTES = 16 << 10     # one row block's counts: rows x deadlines, int64


def _hall_witness(inst: Instance) -> tuple[int, int]:
    """An interval [u, v] holding more whole job windows than its
    max(0, v - u + 1) slots; the narrowest such window, ties to the
    smallest u.

    Searching u over releases and v over deadlines suffices.  An inverted
    window (v < u) qualifies only when it holds a collapsed job window
    (d < r), and then the narrowest window is the collapsed [r, d] with the
    least d - r, ties to the smallest r.  Otherwise let c(u, v) count the
    jobs with r >= u and d <= v; window [u, v] qualifies when
    c(u, v) > max(0, v - u + 1), which needs u <= v < u + n - 1.  So
    coordinates are first mapped to positions that keep every distance
    between neighbours up to n + 1 and lower the larger ones to n + 1:
    that keeps every qualifying window and its width, adds none, and makes
    the counting exact in int64 for integers of any size.

    c is a suffix sum over the release ranks of a prefix sum over the
    deadline ranks.  It is built in blocks of release rows, from the
    largest u down, each of at most ``_BLOCK_BYTES`` (or one row), with the
    column totals of the rows above carried from block to block; no n x n
    array is formed.  In each row, ``argmax`` finds the first qualifying
    deadline, the narrowest window starting at that u.  That is O(n^2)
    cell work in numpy, in at most one block per release and O(n log n)
    Python work besides, in O(n + _BLOCK_BYTES) memory.
    """
    collapsed = [(j.deadline - j.release, j.release, j.deadline)
                 for j in inst.jobs if j.deadline < j.release]
    if collapsed:
        _, u, v = min(collapsed)
        return u, v
    n = len(inst.jobs)
    xs = sorted({x for j in inst.jobs for x in (j.release, j.deadline)})
    pos = dict(zip(xs, accumulate((min(b - a, n + 1) for a, b in zip(xs, xs[1:])),
                                  initial=0)))
    us = sorted({j.release for j in inst.jobs})
    vs = sorted({j.deadline for j in inst.jobs})
    upos = np.array([pos[u] for u in us], dtype=np.int64)
    vpos = np.array([pos[v] for v in vs], dtype=np.int64)
    nu, nv = len(us), len(vs)
    # Jobs as (release rank, deadline rank) cells, in ascending order.
    jobs = inst.by_release()
    cells = (np.searchsorted(upos, [pos[j.release] for j in jobs]) * nv
             + np.searchsorted(vpos, [pos[j.deadline] for j in jobs]))
    starts = np.searchsorted(cells, np.arange(nu + 1) * nv)
    rows = max(1, _BLOCK_BYTES // (8 * max(nv, 1)))
    above = np.zeros(nv, dtype=np.int64)    # c(u_hi, v): the rows above the block
    best = None                             # (width, release rank, deadline rank)
    for hi in range(nu, 0, -rows):
        lo = max(0, hi - rows)
        c = np.bincount(cells[starts[lo]:starts[hi]] - lo * nv,
                        minlength=(hi - lo) * nv).reshape(hi - lo, nv)
        np.cumsum(c, axis=1, out=c)
        c[-1] += above
        up = c[::-1]
        np.cumsum(up, axis=0, out=up)
        above = c[0].copy()
        slots = vpos - (upos[lo:hi, None] - 1)
        hit = c > np.maximum(slots, 0, out=slots)
        first = hit.argmax(axis=1)
        found = np.flatnonzero(hit[np.arange(hi - lo), first])
        if len(found):
            widths = vpos[first[found]] - upos[lo + found]
            k = int(widths.argmin())
            if best is None or widths[k] <= best[0]:
                best = (int(widths[k]), lo + int(found[k]), int(first[found[k]]))
    if best is None:
        raise GapSchedError("no Hall witness in a feasible instance")
    return us[best[1]], vs[best[2]]


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
