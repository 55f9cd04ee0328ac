"""Minimum-gap solver: spec examples, full table audit, oracle equivalence,
the (min,+) fill against a per-row reference, the stored blocks and their
memory, and the table guard."""

import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest

import gapsched.core
from gapsched.core import (
    Constraints,
    augment,
    gap_stats,
    normalize_distinct,
    require_normalized,
    validate,
)
from gapsched.errors import GapSchedError, InfeasibleError
from gapsched.max_gaps import max_gaps
from gapsched.min_gaps import min_gaps, min_gaps_tables
from gapsched.oracle import oracle_min_gaps

from helpers import (make_instance, nested_wide, planted_normalized, random_feasible_normalized,
                     window_ends)


def window_jobs(tables, k, a, b):
    """Jobs of sub-instance J(k, a, b): among the first k by deadline,
    released strictly between the a-th and b-th release."""
    lo, hi = tables.rank_release[a], tables.rank_release[b]
    return [j for j in tables.jobs[:k] if lo < j.release < hi]


def normalized(windows):
    res = normalize_distinct(make_instance(windows))
    assert not res.removed
    return res.instance


class TestExamples:
    def test_two_tight_jobs(self):
        value, sched = min_gaps(normalized([(0, 0), (5, 5)]))
        assert value == 1
        assert sorted(sched.assignment.values()) == [0, 5]

    def test_contiguous_pair(self):
        value, _ = min_gaps(normalized([(0, 3), (1, 2)]))
        assert value == 0

    def test_three_jobs_one_gap(self):
        value, _ = min_gaps(normalized([(0, 0), (0, 5), (5, 5)]))
        assert value == 1

    def test_infeasible_raises_with_witness(self):
        # Distinct releases and deadlines guarantee feasibility, so the only
        # way a direct call can fail is a collapsed window.
        from gapsched.core import Instance, Job

        inst = Instance((Job(0, 5, 3), Job(1, 0, 9)))
        with pytest.raises(InfeasibleError) as exc:
            min_gaps(inst)
        assert exc.value.witness == (5, 3)

    def test_tie_heavy_instance_infeasible_via_normalization(self):
        res = normalize_distinct(make_instance([(2, 2), (2, 2)]))
        assert res.removed  # feasibility-required callers treat this as infeasible

    def test_unnormalized_rejected(self):
        with pytest.raises(GapSchedError):
            min_gaps(make_instance([(0, 2), (0, 3)]))

    def test_single_job(self):
        assert min_gaps(normalized([(3, 5)]))[0] == 0


def cell_reference(jobs, lo, hi):
    """(min counted gaps, latest end at that count) for scheduling all of
    ``jobs`` inside [lo, hi]; the trailing idle run is not counted."""
    if not jobs:
        return 0, None
    windows = [range(max(j.release, lo), min(j.deadline, hi) + 1) for j in jobs]
    best = None
    for combo in itertools.product(*windows):
        if len(set(combo)) != len(combo):
            continue
        busy = sorted(combo)
        blocks = 1 + sum(1 for x, y in zip(busy, busy[1:]) if y > x + 1)
        counted = blocks - 1 + (1 if busy[0] > lo else 0)
        end = busy[-1]
        if best is None or (counted, -end) < (best[0], -best[1]):
            best = (counted, end)
    return best


class TestTables:
    def test_every_cell_matches_reference(self):
        rng = random.Random(1009)
        done = 0
        while done < 6:
            inst = random_feasible_normalized(rng, 4, 9)
            if inst is None:
                continue
            done += 1
            tables = min_gaps_tables(inst)
            gaps, stretch = tables.gaps, tables.stretch
            n = len(tables.jobs)
            for k in range(n + 1):
                for a in range(n):
                    for b in range(n):
                        ra = int(tables.rank_release[a])
                        rb = int(tables.rank_release[b])
                        if ra >= rb:
                            continue
                        sub = window_jobs(tables, k, a, b)
                        ref = cell_reference(sub, ra + 1, rb - 1)
                        got_g = int(gaps[k][a][b])
                        got_s = int(stretch[k][a][b])
                        if not sub:
                            assert got_g == 0 and got_s == ra
                            continue
                        assert got_g == ref[0], (k, a, b, sub)
                        assert got_s == ref[1], (k, a, b, sub)
        # Nested wide windows over short ones, too wide to enumerate: ``cell``
        # walks from k down to the last job inside, up to n steps, and must
        # give the per-row reference's key fields in every window.
        for size in (40, 50):
            inst = nested_wide(rng, size)
            tables = min_gaps_tables(inst)
            gaps, stretch, _ = min_gaps_tables_reference(inst)
            n = len(tables.jobs)
            for k in range(n + 1):
                for a in range(n):
                    for b in range(a + 1, n):
                        key = tables.cell(k, a, b)
                        assert (tables.layout.gaps(key), tables.layout.stretch(key)) == \
                            (gaps[k, a, b], stretch[k, a, b]), (k, a, b)

    def test_every_cell_witness_reconstructs(self):
        rng = random.Random(1013)
        done = 0
        while done < 4:
            inst = random_feasible_normalized(rng, 4, 9)
            if inst is None:
                continue
            done += 1
            tables = min_gaps_tables(inst)
            gaps, stretch = tables.gaps, tables.stretch
            from gapsched.core import Instance, edf_schedule_busy_set

            n = len(tables.jobs)
            for k in range(n + 1):
                for a in range(n):
                    for b in range(n):
                        ra = int(tables.rank_release[a])
                        rb = int(tables.rank_release[b])
                        if ra >= rb:
                            continue
                        sub = window_jobs(tables, k, a, b)
                        busy = tables.reconstruct_busy(k, a, b)
                        assert len(busy) == len(sub)
                        if not sub:
                            continue
                        assert all(ra < t < rb for t in busy)
                        assert busy[-1] == int(stretch[k][a][b])
                        matched = edf_schedule_busy_set(
                            Instance(tuple(sub)), busy)
                        assert matched is not None, (k, a, b, busy, sub)
                        blocks = 1 + sum(1 for x, y in zip(busy, busy[1:])
                                         if y > x + 1)
                        counted = blocks - 1 + (1 if busy[0] > ra + 1 else 0)
                        assert counted == int(gaps[k][a][b])


    def test_witness_needs_no_recursion(self):
        # The reconstruction visits one cell per job, 152 with the
        # sentinels; a recursive walk would need that many frames.
        inst = planted_normalized(random.Random(150), 150, 195, 3)
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            value, sched = min_gaps(inst)  # certified inside
        finally:
            sys.setrecursionlimit(limit)
        assert len(sched.assignment) == 150
        assert gap_stats(sched).gap_count == value


class TestOracleEquivalence:
    def test_matches_exhaustive_minimum(self):
        rng = random.Random(2027)
        done = 0
        while done < 120:
            n = rng.randint(1, 6)
            inst = random_feasible_normalized(rng, n, 10)
            if inst is None:
                continue
            done += 1
            expect, _ = oracle_min_gaps(inst)
            value, sched = min_gaps(inst)
            assert value == expect, inst
            assert validate(sched, inst, Constraints(require_all=True)) == []
            assert gap_stats(sched).gap_count == value


def min_gaps_tables_reference(inst):
    """The fill one (k, a) row at a time over every pair (c, b), in int64:
    (gaps, stretch, choice) as min_gaps_tables must give them."""
    require_normalized(inst, feasible=True)
    jobs = augment(inst)
    n = len(jobs)
    inf = np.int64(2**31)

    by_release = sorted(range(n), key=lambda j: jobs[j].release)
    job_rank = [0] * n
    for p, j in enumerate(by_release):
        job_rank[j] = p
    rank_release = np.array([jobs[j].release for j in by_release], dtype=np.int64)
    rank_dlidx = np.array(by_release, dtype=np.int64)

    gaps = np.zeros((n + 1, n, n), dtype=np.int64)
    stretch = np.zeros((n + 1, n, n), dtype=np.int64)
    choice = np.full((n + 1, n, n), -1, dtype=np.int64)
    stretch[0] = rank_release[:, None]

    ranks = np.arange(n)
    tri_less = ranks[:, None] < ranks[None, :]   # [c, b]: c left of b
    edge = rank_release - 1                      # last usable slot before b

    for k in range(1, n + 1):
        gaps[k] = gaps[k - 1]
        stretch[k] = stretch[k - 1]
        jk = jobs[k - 1]
        pk = job_rank[k - 1]
        g_prev = gaps[k - 1]
        s_prev = stretch[k - 1]
        cand_base = (ranks > pk) & (rank_dlidx <= k - 2)
        for a in range(pk):
            row_s = s_prev[a]
            row_g = g_prev[a]

            cand = cand_base & (row_s >= rank_release - 2)
            vals = np.where(cand[:, None] & tri_less,
                            row_g[:, None] + g_prev, inf)
            top_g = vals.min(axis=0)
            s_cand = np.where(vals == top_g[None, :], s_prev, -inf)
            top_s = s_cand.max(axis=0)
            top_c = (s_cand == top_s[None, :]).argmax(axis=0)

            new_gap = row_s + 1 < jk.release
            bot_g = row_g + new_gap
            bot_s = np.where(new_gap,
                             np.minimum(jk.deadline, edge),
                             np.minimum(row_s + 1, edge))

            use_top = (top_g < bot_g) | ((top_g == bot_g) & (top_s > bot_s))
            sel = ranks > pk
            gaps[k][a][sel] = np.where(use_top, top_g, bot_g)[sel]
            stretch[k][a][sel] = np.where(use_top, top_s, bot_s)[sel]
            choice[k][a][sel] = np.where(use_top, top_c, -1)[sel]

    return gaps, stretch, choice


def assert_tables_match_reference(inst):
    tables = min_gaps_tables(inst)
    for name, ref in zip(("gaps", "stretch", "choice"),
                         min_gaps_tables_reference(inst)):
        got = getattr(tables, name).astype(np.int64)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref), (name, inst)


def split_free_levels(tables):
    """Count the levels k with no usable split rank: for every c, job c comes
    after k or no row a has a stretch of (a, c) at level k - 1 reaching
    r_c - 2."""
    n = len(tables.jobs)
    rank_dlidx = np.argsort([j.release for j in tables.jobs])
    stretch = tables.stretch
    free = 0
    for k in range(1, n + 1):
        pk = tables.job_rank[k - 1]
        c = np.arange(pk + 1, n)
        ok = ((rank_dlidx[c] <= k - 2)
              & (stretch[k - 1][:pk, pk + 1:] >= tables.rank_release[c] - 2))
        free += not ok.any()
    return free


def planted_family(n, horizon, reach):
    return planted_normalized(random.Random(f"{n}/{reach}"), n,
                              round(horizon * n), reach)


class TestFillMatchesRowReference:
    """The (min,+) fill over the ordered key gives the tables of the full
    per-row scan cell for cell; equal choices mean equal witnesses."""

    def test_random_small_instances(self):
        rng = random.Random(6007)
        done = 0
        while done < 200:
            inst = random_feasible_normalized(rng, rng.randint(1, 14),
                                              rng.randint(3, 30))
            if inst is None:
                continue
            done += 1
            assert_tables_match_reference(inst)

    def test_coordinate_scaled_instances(self):
        # Scaling a feasible instance's coordinates keeps it feasible and
        # normalized and widens only the key's stretch field, so both key
        # dtypes meet the reference.
        rng = random.Random(6011)
        dtypes = set()
        done = 0
        while done < 60:
            inst = random_feasible_normalized(rng, rng.randint(1, 12), rng.randint(3, 30))
            if inst is None:
                continue
            done += 1
            f, off = 2 ** rng.randint(10, 25), rng.randint(-2**28, 2**28)
            inst = make_instance([(j.release * f + off, j.deadline * f + off)
                                  for j in inst.jobs])
            dtypes.add(min_gaps_tables(inst).layout.dtype)
            assert_tables_match_reference(inst)
        assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}

    @pytest.mark.parametrize("horizon, reach",
                             [(1.3, 3), (1.3, 8), (1.3, 40), (1.3, 200), (20, 3)])
    @pytest.mark.parametrize("n", [30, 60])
    def test_planted_instances(self, n, horizon, reach):
        assert_tables_match_reference(planted_family(n, horizon, reach))

    @pytest.mark.parametrize("n", [30, 60])
    def test_wide_horizon_has_split_free_levels(self, n):
        # The wide family above reaches the fill's empty split branch.
        tables = min_gaps_tables(planted_family(n, 20, 3))
        assert split_free_levels(tables) >= n // 2

    def test_audit_views_keep_their_dtypes(self):
        inst = planted_normalized(random.Random(3), 12, 16, 4)
        tables = min_gaps_tables(inst)
        n = len(tables.jobs)
        assert tables.gaps.dtype == np.int16
        assert tables.stretch.dtype == np.int32
        assert tables.choice.dtype == np.int16
        assert tables.gaps.shape == (n + 1, n, n)


def key_bits(inst):
    """The bits of inst's keys: the split rank's bit_length(n), the stretch
    field's bit_length(hi - lo + 2) and the gap count's bit_length(n + 2),
    with n, lo and hi counting the sentinels."""
    jobs = augment(inst)
    n, lo, hi = len(jobs), jobs[0].release, jobs[-1].release
    return n.bit_length() + (hi - lo + 2).bit_length() + (n + 2).bit_length()


def key_itemsize(inst):
    """4 bytes a key when it takes at most 29 bits, else 8."""
    return 4 if key_bits(inst) <= 29 else 8


def min_gaps_table_bytes(inst):
    """The n x n working key table and the two n x n level tables, level
    0's column of n keys and level k's block of p_k rows and n - p_k - 1
    columns for every job k, at ``key_itemsize`` bytes a cell."""
    n = len(inst.jobs) + 2                       # sentinels included
    return (3 * n * n + n + sum(p * (n - p - 1) for p in range(n))) * key_itemsize(inst)


class TestStoredBlocks:
    def test_blocks_take_the_layout_dtype_and_total_the_guard_figure(self):
        inst = planted_normalized(random.Random(3), 12, 16, 4)
        tables = min_gaps_tables(inst)
        n = len(tables.jobs)
        assert len(tables.blocks.keys) == n
        assert tables.blocks.block(0).shape == (n, 1)
        stored = tables.blocks.block(0).nbytes
        for k in range(1, n + 1):
            block = tables.blocks.block(k)
            pk = tables.job_rank[k - 1]
            assert block.dtype == tables.layout.dtype == np.int32
            assert block.shape == (pk, n - pk - 1)
            stored += block.nbytes
        assert stored == tables.blocks.store.nbytes
        assert stored + 3 * n * n * tables.layout.dtype.itemsize == min_gaps_table_bytes(inst)

    def test_cell_matches_audit_views(self):
        rng = random.Random(7019)
        done = 0
        while done < 30:
            inst = random_feasible_normalized(rng, rng.randint(1, 10),
                                              rng.randint(3, 24))
            if inst is None:
                continue
            done += 1
            tables = min_gaps_tables(inst)
            n = len(tables.jobs)
            gaps, stretch, choice = tables.gaps, tables.stretch, tables.choice
            lay = tables.layout
            for k, a, b in itertools.product(range(n + 1), range(n), range(n)):
                key = tables.cell(k, a, b)
                assert lay.gaps(key) == gaps[k][a][b], (k, a, b)
                assert lay.stretch(key) == stretch[k][a][b], (k, a, b)
                # Outside level k's block the choice view reads -1.
                inside = k > 0 and a < tables.job_rank[k - 1] < b
                assert (lay.choice(key) if inside else -1) == choice[k][a][b], (k, a, b)


class TestKeyLayout:
    """Keys of at most 29 bits are int32, wider ones int64, and both give the
    row reference's tables and the oracle's value."""

    WINDOWS = [(0, 2), (1, 1), (3, 5), (4, 4), (7, 11)]

    @pytest.mark.parametrize("bits, dtype", [(29, np.int32), (30, np.int64)])
    def test_one_slot_wider_takes_int64(self, bits, dtype):
        # 7 jobs with the sentinels: 3 split bits and 4 gap bits, so the last
        # job's deadline d sets the stretch field's bit_length(d + 6): 22
        # bits up to d = 2**22 - 7, 23 from one slot more.
        d = 2**22 - 7 + bits - 29
        inst = normalized(self.WINDOWS[:-1] + [(7, d)])
        assert key_bits(inst) == bits
        tables = min_gaps_tables(inst)
        assert tables.layout.dtype == tables.blocks.store.dtype == dtype
        assert_tables_match_reference(inst)
        # The last job is released past every other deadline, so it makes a
        # block of its own wherever it goes: cutting its window back to
        # (7, 11) changes no gap count, and it ends the witness at its
        # deadline either way.
        base = normalized(self.WINDOWS)
        value, sched = min_gaps(inst)
        assert value == oracle_min_gaps(base)[0] == 1
        assert sched.assignment == {**min_gaps(base)[1].assignment, 4: d}
        assert validate(sched, inst, Constraints(require_all=True)) == []


class TestBlockMemory:
    def test_peak_below_a_quarter_of_full_levels(self):
        # Every level in full, as int64 keys, takes (n + 1) * n^2 * 8 bytes.
        inst = planted_normalized(random.Random(61), 60, 78, 8)
        n = len(inst.jobs) + 2
        full = (n + 1) * n * n * 8
        min_gaps(inst)  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            min_gaps(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full // 4, (peak, full)

    def test_160_jobs_store_int32_and_peak_below_a_quarter_of_full_levels(self):
        # Every level in full, as int32 keys, takes (n + 1) * n^2 * 4 bytes,
        # 17.1 MB here; the peak is 3.3 MB, and int64 keys would peak near
        # 6.5 MB.
        inst = planted_normalized(random.Random(160), 160, 208, 8)
        assert min_gaps_tables(inst).blocks.store.dtype == np.int32
        n = len(inst.jobs) + 2
        full = (n + 1) * n * n * 4
        min_gaps(inst)
        tracemalloc.start()
        try:
            min_gaps(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < full // 4, (peak, full)


def max_gaps_work_bytes(inst):
    """The nu x nv working table, 2 bytes a cell."""
    jobs = augment(inst)
    ugrid = {r for j in jobs for r in (j.release - 1, j.release)}
    return len(ugrid) * len(window_ends(jobs, 3 * len(jobs))) * 2


def max_gaps_table_bytes(inst):
    """The working table with one floor row of nu values, level 0's column
    of nu values and level k's block for every job k: rows u <= r_k,
    columns from r_k through the first end past d_k; 2 bytes a cell.  Then
    the slot table and the groups, 12 bytes each for each slot of every
    job's [r_k, min(d_k, r_k + 3n)], and the column maps, 8 bytes for each
    column of every level's block."""
    jobs = augment(inst)
    span = 3 * len(jobs)
    ugrid = {r for j in jobs for r in (j.release - 1, j.release)}
    vgrid = window_ends(jobs, span)
    cells, columns = 2 * len(ugrid), 0
    for j in jobs:
        rows = sum(u <= j.release for u in ugrid)
        cols = (sum(j.release <= v <= j.deadline for v in vgrid)
                + any(v > j.deadline for v in vgrid))
        cells += rows * cols
        columns += cols
    slots = sum(min(j.deadline, j.release + span) - j.release + 1 for j in jobs)
    return max_gaps_work_bytes(inst) + cells * 2 + slots * 24 + columns * 8


class TestTableGuard:
    @pytest.mark.parametrize("solver", [min_gaps, max_gaps])
    def test_cap_refuses_before_allocating(self, solver, monkeypatch):
        # min_gaps' three key tables and blocks take 197 656 B, in int32
        # keys of 20 bits, max_gaps' working table, blocks and slots
        # 176 254 B; validating the input and sizing the tables alone peak
        # near 13 000 B in min_gaps and 17 700 B in max_gaps.  max_gaps
        # checks its working table alone before it lists the window ends;
        # the cap is that table's 17 710 B, so the refusal comes from the
        # full figure.
        inst = planted_normalized(random.Random(5), 60, 78, 20)
        table_bytes = {min_gaps: min_gaps_table_bytes,
                       max_gaps: max_gaps_table_bytes}[solver](inst)
        cap = max_gaps_work_bytes(inst)
        monkeypatch.setattr(gapsched.core, "TABLE_CAP", cap)
        tracemalloc.start()
        try:
            with pytest.raises(GapSchedError) as exc:
                solver(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"take {table_bytes} bytes, above the cap of {cap}" in str(exc.value)
        assert peak < table_bytes // 4, peak

    def test_job_count_refused_before_allocating(self, monkeypatch):
        # The split-rank field of the fill's key holds 11 bits, so at most
        # 2047 jobs, sentinels included, whatever the table cap.
        inst = make_instance([(i, i) for i in range(2046)])
        n = len(inst.jobs) + 2
        monkeypatch.setattr(gapsched.core, "TABLE_CAP", 1 << 40)
        tracemalloc.start()
        try:
            with pytest.raises(GapSchedError, match="2048 jobs"):
                min_gaps_tables(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n                      # under one byte a cell of a level

    def test_job_count_limit_is_inclusive(self):
        # 2047 jobs pass the count check and meet the table cap instead.
        inst = make_instance([(i, i) for i in range(2045)])
        with pytest.raises(GapSchedError, match="above the cap"):
            min_gaps_tables(inst)

    def test_cap_is_inclusive(self, monkeypatch):
        inst = planted_normalized(random.Random(5), 10, 13, 3)
        nbytes = min_gaps_table_bytes(inst)
        monkeypatch.setattr(gapsched.core, "TABLE_CAP", nbytes)
        value, _ = min_gaps(inst)
        monkeypatch.setattr(gapsched.core, "TABLE_CAP", nbytes - 1)
        with pytest.raises(GapSchedError, match=f"take {nbytes} bytes"):
            min_gaps(inst)
        monkeypatch.undo()
        assert min_gaps(inst)[0] == value

    # Sentinels sit 2 below the first release and 2 past the last deadline.
    @pytest.mark.parametrize("base", [2**31, 2**31 - 5, -2**31 + 1])
    def test_coordinates_beyond_int32_refused(self, base):
        inst = make_instance([(base, base + 1), (base + 1, base + 3)])
        with pytest.raises(GapSchedError, match="2\\*\\*31"):
            min_gaps(inst)

    @pytest.mark.parametrize("base", [2**31 - 6, -2**31 + 3])
    def test_coordinates_at_the_int32_edge(self, base):
        windows = [(0, 1), (1, 3)]
        _, near = min_gaps(make_instance(windows))
        value, sched = min_gaps(make_instance([(r + base, d + base)
                                               for r, d in windows]))
        assert value == 0
        assert {j: t - base for j, t in sched.assignment.items()} == near.assignment
