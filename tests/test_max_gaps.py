"""Maximum-gap solver and the schedule rewrite rules behind its windowing.

The solver only tries slots up to 3n past a job's release.  The rewrite
below (lemma2_normalize and its two rules) is the lemma that makes this
safe, run on concrete schedules: it never loses a gap and leaves no job
with an idle run of three slots or more behind it.
"""

import bisect
import random
import tracemalloc

import numpy as np
import pytest

import gapsched.core
import gapsched.max_gaps as max_gaps_module
from gapsched.core import (
    END,
    START,
    Constraints,
    Instance,
    Job,
    Schedule,
    augment,
    gap_stats,
    normalize_distinct,
    validate,
)
from gapsched.errors import GapSchedError
from gapsched.max_gaps import _MAX_JOBS, _fill, _rebuild, _window_ends, max_gaps
from gapsched.oracle import oracle_max_gaps

from helpers import (job, make_instance, nested_wide, planted_normalized,
                     random_feasible_normalized)


def normalized(windows):
    res = normalize_distinct(make_instance(windows))
    assert not res.removed
    return res.instance


class TestExamples:
    def test_two_tight_jobs(self):
        value, sched = max_gaps(normalized([(0, 0), (4, 4)]))
        assert value == 1
        assert sorted(sched.assignment.values()) == [0, 4]

    def test_nested_pair(self):
        value, _ = max_gaps(normalized([(0, 3), (1, 2)]))
        assert value == 1

    def test_three_jobs_two_gaps(self):
        value, sched = max_gaps(normalized([(0, 0), (1, 2), (4, 4)]))
        assert value == 2
        assert sorted(sched.assignment.values()) == [0, 2, 4]


class TestOracleEquivalence:
    def test_matches_exhaustive_maximum(self):
        rng = random.Random(31)
        done = 0
        while done < 120:
            n = rng.randint(1, 6)
            inst = random_feasible_normalized(rng, n, 10)
            if inst is None:
                continue
            done += 1
            expect, _ = oracle_max_gaps(inst)
            value, sched = max_gaps(inst)
            assert value == expect, inst
            assert validate(sched, inst, Constraints(require_all=True)) == []
            assert gap_stats(sched).gap_count == value

    def test_wider_t_range_changes_nothing(self):
        """The windowed candidate restriction never loses the optimum: the
        witness found under restrictions matches the unrestricted search."""
        rng = random.Random(37)
        done = 0
        while done < 40:
            inst = random_feasible_normalized(rng, rng.randint(2, 5), 8)
            if inst is None:
                continue
            done += 1
            assert max_gaps(inst)[0] == oracle_max_gaps(inst)[0]


def every_end_to_3n_past_release(jobs, span):
    """The v-axis as it was before it held only the ends the fill reads:
    every r_j + c with -1 <= c <= span + 1."""
    return sorted({j.release + c for j in jobs for c in range(-1, span + 2)})


class TestWindowEnds:
    def test_same_answer_as_every_end_to_3n(self, monkeypatch):
        rng = random.Random(43)
        instances = []
        while len(instances) < 320:
            n = rng.randint(1, 30)
            kind = len(instances) % 3
            if kind == 0:
                inst = random_feasible_normalized(rng, n, 2 * n + 2)
            elif kind == 1:    # dense: n jobs on about 1.3n slots
                inst = planted_normalized(rng, n, n + n // 3 + 1, rng.randint(1, n))
            else:              # sparse: horizon 6n-12n, short windows
                inst = planted_normalized(rng, n, rng.randint(6 * n, 12 * n),
                                          rng.randint(1, 3))
            if inst is not None:
                instances.append(inst)
        expected = [max_gaps(inst) for inst in instances]
        monkeypatch.setattr(max_gaps_module, "_window_ends",
                            every_end_to_3n_past_release)
        for inst, (value, sched) in zip(instances, expected):
            old_value, old_sched = max_gaps(inst)
            assert value == old_value, inst
            assert sched.assignment == old_sched.assignment, inst

    def test_far_apart_short_windows_fit_the_cap(self):
        # At 3n + 3 window ends per release these value levels were
        # above the default cap.
        inst = Instance(tuple(Job(i, 2000 * i, 2000 * i + 2) for i in range(200)))
        value, sched = max_gaps(inst)
        assert value == 199
        assert validate(sched, inst, Constraints(require_all=True)) == []
        assert gap_stats(sched).gap_count == value


def max_gaps_reference(inst: Instance) -> tuple[int, dict]:
    """The windowed DP with every level's choices stored: an int16 slot
    offset per cell beside an int32 working table.  A slot replaces a
    cell's choice only when its split is strictly better.  Returns the
    value and the assignment, sentinels left out."""
    jobs = augment(inst)
    n = len(jobs)
    span = 3 * n
    ugrid = sorted({r for j in jobs for r in (j.release - 1, j.release)})
    vgrid = _window_ends(jobs, span)
    ui = {u: i for i, u in enumerate(ugrid)}
    vi = {v: i for i, v in enumerate(vgrid)}
    nu, nv = len(ugrid), len(vgrid)
    cur = np.ones((nu, nv), dtype=np.int32)
    args = [None]
    prefixes = [[]]

    def next_release(k, t):
        rels = prefixes[k - 1]
        p = bisect.bisect_right(rels, t)
        return rels[p] if p < len(rels) else None

    def right_row(t, nxt):
        return ui[nxt] if nxt == t + 1 else ui[nxt - 1]

    for k in range(1, n + 1):
        jk = jobs[k - 1]
        prev = cur
        cur = prev.copy()
        arg = np.full((nu, nv), -1, dtype=np.int16)
        rows = bisect.bisect_right(ugrid, jk.release)
        ucol = np.asarray(ugrid[:rows], dtype=np.int64)
        first_col = bisect.bisect_left(vgrid, jk.release)
        last_col = bisect.bisect_left(vgrid, jk.deadline + 1)
        end = min(last_col + 1, nv)
        cur[:rows, first_col:end] = -1
        for t in range(jk.release, min(jk.deadline, jk.release + span) + 1):
            if t in prefixes[k - 1]:
                continue
            tcol = vi[t]
            left = np.where(ucol <= t - 1, prev[:rows, vi[t - 1]], 0)
            right = np.empty(end - tcol, dtype=np.int32)
            right[0] = 0
            nxt = next_release(k, t)
            if nxt is None:
                right[1:] = 1
            else:
                split = vi[nxt] - tcol
                right[1:split] = 1
                right[split:] = prev[right_row(t, nxt), tcol + split:end]
            cand = left[:, None] + right[None, :]
            block = cur[:rows, tcol:end]
            improved = cand > block
            block[improved] = cand[improved]
            arg[:rows, tcol:end][improved] = t - jk.release
        cur[:rows, end:] = cur[:rows, last_col:end]
        arg[:rows, end:] = arg[:rows, last_col:end]
        args.append(arg)
        prefixes.append(sorted(prefixes[k - 1] + [jk.release]))

    top_u, top_v = ui[jobs[0].release], vi[jobs[-1].release]
    assignment = {}
    stack = [(n, top_u, top_v)]
    while stack:
        k, u, v = stack.pop()
        if k == 0:
            continue
        jk = jobs[k - 1]
        if not ugrid[u] <= jk.release <= vgrid[v]:
            stack.append((k - 1, u, v))
            continue
        t = jk.release + int(args[k][u][v])
        assignment[jk.id] = t
        if t - 1 >= ugrid[u]:
            stack.append((k - 1, u, vi[t - 1]))
        nxt = next_release(k, t)
        if nxt is not None and nxt <= vgrid[v] and t < vgrid[v]:
            stack.append((k - 1, right_row(t, nxt), v))
    value = int(cur[top_u][top_v]) - 2
    return value, {j: t for j, t in assignment.items() if j not in (START, END)}


class TestStoredChoiceReference:
    def test_same_values_and_witnesses(self):
        # Ties between slots are common; the witness must take the first
        # slot attaining the value, as the stored choices do.
        rng = random.Random(47)
        instances = []
        while len(instances) < 360:
            kind = len(instances) % 3
            if kind == 0:
                n = rng.randint(1, 9)
                inst = random_feasible_normalized(rng, n, rng.randint(n, 3 * n + 6))
            elif kind == 1:    # dense: n jobs on about 1.3n slots
                n = rng.randint(1, 40)
                inst = planted_normalized(rng, n, n + n // 3 + 1, rng.randint(1, n))
            else:              # sparse: horizon 6n-12n, short windows
                n = rng.randint(1, 40)
                inst = planted_normalized(rng, n, rng.randint(6 * n, 12 * n),
                                          rng.randint(1, 3))
            if inst is not None:
                instances.append(inst)
        # Long walks down to the last job inside a window: up to 59 steps
        # at n = 60, where a planted instance of that size needs at most 10.
        instances += [nested_wide(rng, n) for n in (40, 50, 60)]
        for inst in instances:
            value, sched = max_gaps(inst)
            assert (value, sched.assignment) == max_gaps_reference(inst), inst


class TestRebuild:
    def test_unattained_value_refused(self):
        # The top cell one above what any slot of END attains: a store the
        # fill cannot make.  The rebuild refuses it with GapSchedError, not
        # an assert, so the check holds under python -O too.
        inst = planted_normalized(random.Random(59), 12, 16, 3)
        jobs = augment(inst)
        n = len(jobs)
        levels = _fill(jobs)
        value, assignment = _rebuild(levels)
        assert (value, {j: t for j, t in assignment.items() if j not in (START, END)}) == \
            max_gaps_reference(inst)
        u = int(levels.ug.searchsorted(jobs[0].release))
        v = min(int(levels.vg.searchsorted(jobs[-1].release)), levels.blocks.end[n] - 1)
        block = levels.blocks.block(n)
        block[u, v - (levels.blocks.end[n] - block.shape[1])] += 1
        # The top cell counts the sentinels' two gaps: value + 2, now + 3.
        with pytest.raises(GapSchedError, match=f"no slot of job {END!r} attains {value + 3}"):
            _rebuild(levels)


class TestBlockMemory:
    def test_peak_below_four_mib(self):
        # Only each level's block is kept: 0.55 MiB here, and the tracemalloc
        # peak is 1.2 MiB.  Every row of each level up to its first end past
        # the deadline would take 7.9 MiB.
        inst = planted_normalized(random.Random(53), 160, 208, 16)
        max_gaps(inst)  # lazy imports happen outside the trace
        tracemalloc.start()
        try:
            max_gaps(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20, peak


class TestJobLimit:
    def test_a_sum_of_two_values_fits_int16(self):
        # A value is at most n + 1 gaps, sentinels included.
        assert 2 * (_MAX_JOBS + 1) <= np.iinfo(np.int16).max < 2 * (_MAX_JOBS + 2)

    def test_job_count_refused_before_any_table(self, monkeypatch):
        inst = make_instance([(i, i) for i in range(_MAX_JOBS - 1)])
        monkeypatch.setattr(gapsched.core, "TABLE_CAP", 1 << 40)

        def no_grid(jobs, span):
            raise AssertionError("window ends built before the job count check")

        monkeypatch.setattr(max_gaps_module, "_window_ends", no_grid)
        with pytest.raises(GapSchedError, match=f"{_MAX_JOBS + 1} jobs"):
            max_gaps(inst)

    def test_job_count_limit_is_inclusive(self):
        # _MAX_JOBS jobs pass the count check and meet the table cap instead.
        inst = make_instance([(i, i) for i in range(_MAX_JOBS - 2)])
        with pytest.raises(GapSchedError, match="above the cap"):
            max_gaps(inst)

    def test_far_apart_long_windows_refused_before_listing_ends(self, monkeypatch):
        # 2000 windows of 5n slots, 10n apart, give about 12 million window
        # ends and a working table of about 96 GB.  Listing the ends before
        # sizing the table took about 3.2 s and 1.1 GiB of peak RSS.
        n = 2000
        inst = Instance(tuple(Job(i, 10 * n * i, 10 * n * i + 5 * n) for i in range(n)))

        def no_grid(jobs, span):
            raise AssertionError("window ends listed before the table check")

        monkeypatch.setattr(max_gaps_module, "_window_ends", no_grid)
        tracemalloc.start()
        try:
            with pytest.raises(GapSchedError, match="max_gaps working table would take"):
                max_gaps(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak


class TestCoordinates:
    # Sentinels sit 2 below the first release and 2 past the last deadline;
    # the u-axis starts one below the first, and slots reach 3n past the last.
    @pytest.mark.parametrize("windows", [
        [(2**63, 2**63)],                                 # was an OverflowError
        [(0, 0), (1, 1), (2**63 - 4, 2**63 - 3)],         # was a ValueError
        [(0, 0), (1, 1), (2**63 - 5, 2**63 - 4)],         # was an IndexError
        [(2**62 - 17, 2**62 - 16), (2**62 - 16, 2**62 - 14)],
        [(-2**62 + 3, -2**62 + 4), (-2**62 + 4, -2**62 + 6)],
    ])
    def test_beyond_int62_refused(self, windows):
        with pytest.raises(GapSchedError, match="2\\*\\*62"):
            max_gaps(make_instance(windows))

    @pytest.mark.parametrize("base", [2**62 - 18, -2**62 + 4])
    def test_at_the_edge(self, base):
        windows = [(0, 1), (1, 3)]
        near_value, near = max_gaps(make_instance(windows))
        value, sched = max_gaps(make_instance([(r + base, d + base) for r, d in windows]))
        assert value == near_value
        assert {j: t - base for j, t in sched.assignment.items()} == near.assignment


def lemma2_normalize(schedule: Schedule) -> Schedule:
    """Rewrite a schedule so every job has only short gaps behind it: the
    lemma that no job needs to run more than 3n slots past its release,
    executed.

    Two rules, iterated to a fixpoint, never decreasing the gap count:
    (i) a job with an idle run of length >= 3 between its release and its
    slot moves into that run; (ii) a block preceded by an idle run of
    length >= 2 whose first late job exists sends that job to the slot
    just before the block.  Each rewrite makes the busy-slot set
    lexicographically smaller, so the process terminates.
    """
    inst = schedule.instance
    if not inst.releases_distinct():
        raise GapSchedError("lemma2_normalize requires distinct releases")
    rel = {j.id: j.release for j in inst.jobs}
    assignment = dict(schedule.assignment)
    for _ in range(10_000):
        cur = Schedule(inst, dict(assignment))
        before = gap_stats(cur).gap_count if assignment else 0
        move = _rule_move_into_long_gap(cur, rel) or _rule_close_up_block(cur, rel)
        if move is None:
            return cur
        jid, slot = move
        if slot >= assignment[jid]:
            raise GapSchedError(f"rewrite moved job {jid!r} right, to {slot}")
        assignment[jid] = slot
        after = gap_stats(Schedule(inst, dict(assignment))).gap_count
        if after < before:
            raise GapSchedError("rewrite decreased the gap count")
    raise GapSchedError("rewrite loop failed to reach a fixpoint")


def _rule_move_into_long_gap(schedule: Schedule, rel) -> tuple | None:
    # Idle runs are clipped to [release, slot); runs ahead of the first busy
    # slot count as well.
    busy = set(schedule.busy_slots())
    for jid, slot in sorted(schedule.assignment.items(), key=lambda kv: kv[1]):
        run_start = None
        for x in range(rel[jid], slot):
            if x in busy:
                run_start = None
                continue
            if run_start is None:
                run_start = x
            if x - run_start + 1 >= 3:
                return jid, run_start + 1
    return None


def _rule_close_up_block(schedule: Schedule, rel) -> tuple | None:
    blocks = schedule.blocks()
    slot_to_job = {t: j for j, t in schedule.assignment.items()}
    for prev_blk, blk in zip(blocks, blocks[1:]):
        if blk[0] - prev_blk[1] - 1 < 2:
            continue
        for t in range(blk[0], blk[1] + 1):
            jid = slot_to_job[t]
            if rel[jid] < t:
                # distinct releases put the first late job's release below
                # the block start
                if rel[jid] > blk[0] - 1:
                    raise GapSchedError(
                        f"job {jid!r} released inside its block at {rel[jid]}")
                return jid, blk[0] - 1
    return None


class TestLemma2Normalize:
    def test_long_gap_pulls_job_left(self):
        inst = Instance((Job(0, 0, 9), Job(1, 6, 9)))
        s = Schedule(inst, {0: 5, 1: 9})
        out = lemma2_normalize(s)
        assert validate(out, inst) == []
        assert gap_stats(out).gap_count >= gap_stats(s).gap_count

    def test_all_at_release_is_fixpoint(self):
        inst = Instance((Job(0, 0, 9), Job(1, 3, 9), Job(2, 7, 9)))
        s = Schedule(inst, {0: 0, 1: 3, 2: 7})
        out = lemma2_normalize(s)
        assert out.assignment == s.assignment

    def test_fixpoint_properties(self):
        rng = random.Random(41)
        done = 0
        while done < 80:
            n = rng.randint(2, 5)
            releases = rng.sample(range(12), n)
            inst = Instance(tuple(Job(i, r, 40) for i, r in enumerate(releases)))
            slots = []
            used = set()
            ok = True
            for i, r in enumerate(releases):
                cands = [t for t in range(r, r + 10) if t not in used]
                if not cands:
                    ok = False
                    break
                t = rng.choice(cands)
                slots.append(t)
                used.add(t)
            if not ok:
                continue
            done += 1
            s = Schedule(inst, dict(enumerate(slots)))
            out = lemma2_normalize(s)
            assert validate(out, inst) == []
            assert gap_stats(out).gap_count >= gap_stats(s).gap_count
            # busy set never increased lexicographically
            assert out.busy_slots() <= s.busy_slots()
            # fixpoint: no job has an idle run of length >= 3 behind it
            busy = set(out.busy_slots())
            for jid, t in out.assignment.items():
                r = job(inst, jid).release
                run = 0
                for x in range(r, t):
                    run = run + 1 if x not in busy else 0
                    assert run <= 2
