"""Selection in the implicit pairwise-sum multiset of two sorted vectors.

The conceptual matrix M[i][j] = X[i] + Y[j] has sorted rows and columns;
nothing here ever materializes it.  Ranks are counted with a two-pointer
staircase walk, and selection binary-searches the value range, which is
exact for integer inputs.
"""

from __future__ import annotations

from .errors import GapSchedError


def _count_at_most(xs, ys, value) -> int:
    """Number of sums <= value, by a staircase walk; O(|X| + |Y|)."""
    count = 0
    j = len(ys) - 1
    for x in xs:
        while j >= 0 and x + ys[j] > value:
            j -= 1
        if j < 0:
            break
        count += j + 1
    return count


def select_kth(xs, ys, k: int) -> int:
    """k-th smallest of the multiset {x + y}, 1-indexed, duplicates counted."""
    total = len(xs) * len(ys)
    if not 1 <= k <= total:
        raise GapSchedError(f"k={k} outside [1, {total}]")
    lo = xs[0] + ys[0]
    hi = xs[-1] + ys[-1]
    while lo < hi:
        mid = (lo + hi) // 2
        if _count_at_most(xs, ys, mid) >= k:
            hi = mid
        else:
            lo = mid + 1
    return lo
