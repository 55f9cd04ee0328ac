"""Interval-hitting analogues of the scheduling problems, in exact rationals.

Intervals have integer endpoints; chosen representative points may be
rational (fractions.Fraction).  A hitting set is kept as the map
interval-id -> representative; its gaps are the differences between
consecutive representatives in sorted order.  No floating point anywhere.

Rationals appear only at the API boundary: a gap bound p/q given to
``viable`` and the representatives returned.  The separation greedy runs
on the line scaled by q, where every point it places is an integer, and
the searches sort the intervals once and then probe that integer greedy.

The point-budget solvers share one column recurrence over the deadlines
d_0 <= ... <= d_{n-1}.  Row a + 1 of the delta table is the weight that
d_b hits and d_a does not; row 0 is the weight that d_b hits.  Column g
holds the most weight hit by at most g points, the last at d_b.  Column 1
is row 0; then col[b] = max(prev[b], prev[a] + delta[a + 1][b] for a < b).
No choice is stored: the witness starts at the first b attaining the last
column's maximum, stays at b while a column repeats the one before it,
and else steps to the first a whose split gives the value.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .core import is_integer, require_count
from .errors import GapSchedError, InfeasibleError
from .xy_select import select_kth


@dataclass(frozen=True)
class Interval:
    id: object
    start: int
    end: int
    weight: int = 1

    def __post_init__(self):
        if not is_integer(self.start):
            raise ValueError(f"interval {self.id}: start {self.start!r} is not an integer")
        if not is_integer(self.end):
            raise ValueError(f"interval {self.id}: end {self.end!r} is not an integer")
        if self.end < self.start:
            raise ValueError(f"interval {self.id}: end < start")
        # The weighted DPs assume hitting more never weighs less.
        if not is_integer(self.weight):
            raise ValueError(f"interval {self.id}: weight {self.weight!r} is not an integer")
        if self.weight < 0:
            raise ValueError(f"interval {self.id}: negative weight")


@dataclass(frozen=True)
class HittingSet:
    representatives: dict[object, Fraction]

    def sorted_points(self) -> list[Fraction]:
        return sorted(self.representatives.values())

    def distinct_points(self) -> list[Fraction]:
        return sorted(set(self.representatives.values()))

    @property
    def cardinality(self) -> int:
        return len(set(self.representatives.values()))

    def max_gap(self) -> Fraction:
        pts = self.sorted_points()
        return max((b - a for a, b in zip(pts, pts[1:])), default=Fraction(0))


def _by_deadline(intervals) -> list[Interval]:
    """Intervals by end, then start; sorted is stable, so full ties keep
    their input order.  Representatives are keyed by id, so ids must be
    distinct."""
    ivs = sorted(intervals, key=lambda iv: (iv.end, iv.start))
    if len({iv.id for iv in ivs}) < len(ivs):
        raise GapSchedError("interval ids must be distinct")
    return ivs


def greedy_min_hitting(intervals) -> HittingSet:
    """Minimum-cardinality hitting set; all chosen points are interval ends.

    Sweep in order of right endpoint, stabbing the earliest-ending interval
    not yet hit.
    """
    reps: dict[object, Fraction] = {}
    last = None
    for iv in _by_deadline(intervals):
        if last is None or iv.start > last:
            last = iv.end
        reps[iv.id] = Fraction(last)
    return HittingSet(reps)


def _delta_table(ivs: list[Interval], w: list[int]) -> list[list[int]]:
    """table[a + 1][b] = weight of the intervals i with d_a < r_i <= d_b <= d_i,
    for deadline-sorted ``ivs``; row 0 puts a bound below every coordinate
    in place of d_a.  One O(n) sweep per row; release events are applied
    before deadline events at equal coordinates so both inclusions stay
    sharp.
    """
    n = len(ivs)
    coords = sorted({iv.start for iv in ivs} | {iv.end for iv in ivs})
    rel_at = {}
    dl_at = {}
    for i, iv in enumerate(ivs):
        rel_at.setdefault(iv.start, []).append(i)
        dl_at.setdefault(iv.end, []).append(i)
    table = [[0] * n for _ in range(n + 1)]
    bounds = [coords[0] - 1] + [iv.end for iv in ivs]
    for row, bound in zip(table, bounds):
        active = 0
        for x in coords:
            for i in rel_at.get(x, ()):
                if ivs[i].start > bound:
                    active += w[i]
            for b in dl_at.get(x, ()):
                row[b] = active
            for i in dl_at.get(x, ()):
                if ivs[i].start > bound:
                    active -= w[i]
    return table


def _next_column(delta: list[list[int]], col: list[int]) -> list[int]:
    """Column g + 1 of the point-budget recurrence from column g."""
    out = []
    for b, value in enumerate(col):
        for a in range(b):
            cand = col[a] + delta[a + 1][b]
            if cand > value:
                value = cand
        out.append(value)
    return out


def _hit_witness(ivs, delta, cols) -> HittingSet:
    b = cols[-1].index(max(cols[-1]))
    points = []
    for g in range(len(cols) - 1, 0, -1):
        value, prev = cols[g][b], cols[g - 1]
        if value != prev[b]:
            points.append(b)
            b = next(a for a in range(b) if prev[a] + delta[a + 1][b] == value)
    points.append(b)
    points.reverse()
    reps: dict[object, Fraction] = {}
    for b in points:
        x = ivs[b].end
        for iv in ivs:
            if iv.id not in reps and iv.start <= x <= iv.end:
                reps[iv.id] = Fraction(x)
    return HittingSet(reps)


def max_hit_budget(intervals, budget: int, weighted: bool = False):
    """Maximum number (or weight) of intervals hit by at most ``budget``
    points; witness points are interval ends."""
    require_count("point budget", budget, 1)
    ivs = _by_deadline(intervals)
    n = len(ivs)
    if n == 0:
        return 0, HittingSet({})
    delta = _delta_table(ivs, [iv.weight if weighted else 1 for iv in ivs])
    cols = [delta[0]]
    while len(cols) < min(budget, n):
        cols.append(_next_column(delta, cols[-1]))
    return max(cols[-1]), _hit_witness(ivs, delta, cols)


def min_hit_with_throughput(intervals, m: int, weighted: bool = False):
    """Smallest point count whose best hit value reaches ``m``."""
    require_count("throughput threshold", m, None)
    if m <= 0:
        return 0, HittingSet({})
    ivs = _by_deadline(intervals)
    weights = [iv.weight if weighted else 1 for iv in ivs]
    if m > sum(weights):
        raise InfeasibleError(f"requirement {m} exceeds total {sum(weights)}")
    delta = _delta_table(ivs, weights)
    cols = [delta[0]]
    while max(cols[-1]) < m:
        if len(cols) == len(ivs):  # n points hit every interval
            raise InfeasibleError(f"requirement {m} unreachable")
        cols.append(_next_column(delta, cols[-1]))
    return len(cols), _hit_witness(ivs, delta, cols)


class SeparationGreedy:
    """The viability greedy of ``viable``, its sorting done once so that a
    search can probe many bounds.

    ``probe(p, q)`` decides the bound lambda = p/q (q > 0) on the line
    scaled by q: every coordinate is multiplied by q, so each point the
    greedy places is an integer.  Deadline order ranks the intervals by
    end first, so the released interval that ends earliest is the one
    with the smallest index, and a heap of indices serves it.
    """

    def __init__(self, intervals):
        self.ivs = _by_deadline(intervals)
        self.ends = [iv.end for iv in self.ivs]
        starts = [iv.start for iv in self.ivs]
        self.by_release = sorted(range(1, len(starts)), key=starts.__getitem__)
        self.releases = [starts[i] for i in self.by_release]

    def probe(self, p: int, q: int) -> list[int] | None:
        """The greedy's points times q, by deadline order, if every gap can
        be at most p/q; otherwise None."""
        ends, by_release, releases = self.ends, self.by_release, self.releases
        n = len(ends)
        if n == 0:
            return []
        if p < 0 and n > 1:
            return None
        points = [0] * n
        max_h = points[0] = ends[0] * q
        heap: list[int] = []  # released intervals, by index
        ptr = 0
        for _ in range(n - 1):
            z = max_h + p
            # A start s, an integer, is released when s * q <= z.
            zq = z // q
            while ptr < n - 1 and releases[ptr] <= zq:
                heapq.heappush(heap, by_release[ptr])
                ptr += 1
            if not heap:
                return None
            i = heapq.heappop(heap)
            h = points[i] = ends[i] * q if ends[i] <= zq else z
            if h > max_h:
                max_h = h
        return points

    def witness(self, points: list[int], q: int) -> HittingSet:
        return HittingSet({iv.id: Fraction(h, q) for iv, h in zip(self.ivs, points)})


def viable(intervals, lam) -> tuple[bool, HittingSet | None]:
    """Is there a hitting set with all gaps at most ``lam``?

    Left-to-right greedy: start at the earliest deadline, then repeatedly
    give the earliest-ending reachable interval the latest useful point.
    """
    greedy = SeparationGreedy(intervals)
    lam = Fraction(lam)
    points = greedy.probe(lam.numerator, lam.denominator)
    if points is None:
        return False, None
    return True, greedy.witness(points, lam.denominator)


def min_max_gap_cont(intervals) -> tuple[Fraction, HittingSet]:
    """Minimize the maximum gap of a hitting set.

    The optimum is 0 or (r_i - d_j)/k for some 1 <= k <= n-1.  Any two
    distinct fractions u/k with 1 <= k <= n-1 lie at least 1/(n-1)^2
    apart, so once bisection has shrunk the optimum's bracket (lo, hi] to
    that width, the optimum is the smallest such fraction above lo.
    """
    greedy = SeparationGreedy(intervals)
    n = len(greedy.ivs)
    if n == 0:
        raise GapSchedError("need at least one interval")
    points = greedy.probe(0, 1)
    if points is not None:
        return Fraction(0), greedy.witness(points, 1)
    # n >= 2 here.  At hi every interval is released once the first point,
    # the earliest deadline, is placed, so hi is viable.
    lo = Fraction(0)
    hi = Fraction(max(iv.start for iv in greedy.ivs) - greedy.ends[0])
    while (hi - lo) * (n - 1) ** 2 > 1:
        mid = (lo + hi) / 2
        if greedy.probe(mid.numerator, mid.denominator) is not None:
            hi = mid
        else:
            lo = mid
    # The smallest u/k above lo = a/b is (floor(a k / b) + 1)/k, minimised over k.
    a, b = lo.numerator, lo.denominator
    u, k = a // b + 1, 1
    for k2 in range(2, n):
        u2 = a * k2 // b + 1
        if u2 * k < u * k2:
            u, k = u2, k2
    lam = Fraction(u, k)
    points = greedy.probe(lam.numerator, lam.denominator)
    if points is None:
        raise GapSchedError(f"searched gap bound {lam} is not viable")
    return lam, greedy.witness(points, lam.denominator)


def _sorted_releases(releases) -> list[int]:
    rs = sorted(releases)
    for r in rs:
        require_count("release", r, None)
    return rs


def min_points_flow_bound(releases, bound) -> HittingSet:
    """Minimum-cardinality point set covering every release within
    [r, r + bound]; single left-to-right pass.

    Representatives are keyed by rank in sorted release order, not by
    input position: key i covers the i-th smallest release.  ``bound`` is
    an integer or a Fraction: a float would round when added to a release,
    and True is not the bound 1.
    """
    if isinstance(bound, bool) or not isinstance(bound, numbers.Rational):
        raise GapSchedError(f"flow bound {bound!r} is not rational")
    if bound < 0:
        raise GapSchedError(f"flow bound must be non-negative, got {bound}")
    return _cover(_sorted_releases(releases), bound)


def _cover(rs: list[int], bound) -> HittingSet:
    """``min_points_flow_bound`` on releases already sorted and checked."""
    reps: dict[object, Fraction] = {}
    last = None
    for i, r in enumerate(rs):
        if last is None or r > last:
            last = Fraction(r + bound)
        reps[i] = last
    return HittingSet(reps)


def min_max_flow_cont(releases, budget: int) -> tuple[int, HittingSet]:
    """Minimum coverage radius for at most ``budget`` points on the directed
    line (binary search by rank in the implicit difference set).

    As in ``min_points_flow_bound``, representatives are keyed by rank in
    sorted release order, not by input position.
    """
    require_count("point budget", budget, 1)
    rs = _sorted_releases(releases)
    n = len(rs)
    if n == 0:
        return 0, HittingSet({})
    ys = sorted(-r for r in rs)

    def decide(f: int) -> bool:
        return f >= 0 and _cover(rs, f).cardinality <= budget

    p, q = 1, n * n
    while p < q:
        mid = (p + q) // 2
        if decide(select_kth(rs, ys, mid)):
            q = mid
        else:
            p = mid + 1
    best = select_kth(rs, ys, p)
    return best, min_points_flow_bound(rs, best)
