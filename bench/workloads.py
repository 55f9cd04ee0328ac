"""The benchmark's three workloads: set-up, one timed round, answer checks.

A workload builds a fixed list of cases from the seed at set-up.  One
round calls the solvers on every case in order, one call at a time, and
a run repeats whole rounds.  Solvers are looked up on their modules at
call time (``min_gaps.min_gaps``, not an imported name) so that the
traced run can wrap them.

Each call's time goes to one group; the groups are the per-solver splits
of a round's solver time.
"""

from __future__ import annotations

import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from gapsched import core, hitting, max_gaps, min_gaps, min_max_gap, throughput
from gapsched.core import Instance, Job

import calibrate
import check
import generate
from check import require

REFERENCES = Path(__file__).with_name("references.json")

GAP_BUDGETS = generate.GAP_BUDGETS
HIT_BUDGET = 3           # points for hitting.max_hit_budget

GROUPS = {
    "gap-objectives": ("min_gaps_s", "max_gaps_s", "min_max_gap_s"),
    "throughput-budget": ("max_throughput_s", "min_gaps_for_throughput_s"),
    "admission-separation": ("admit_s", "min_max_gap_s", "hitting_s"),
}


@dataclass
class Case:
    name: str
    jobs: list            # (release, deadline, weight); id = position
    inst: Instance
    ref: dict = field(default_factory=dict)
    thresholds: tuple = ()


def to_instance(jobs) -> Instance:
    return Instance(tuple(Job(i, r, d, w) for i, (r, d, w) in enumerate(jobs)))


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one run; the same seed gives the same cases."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "admission-separation":
        return _admission_cases(rng)
    refs = json.loads(REFERENCES.read_text())[workload]
    cases = []
    for name, jobs in generate.pool(workload):
        ref = refs.get(name)
        if ref is None or ref["fingerprint"] != generate.fingerprint(jobs):
            raise RuntimeError(f"{workload}/{name}: stored references do not match "
                               "the generator; run bench/milp.py")
        jobs = generate.transform(rng, jobs)
        thresholds = _thresholds(THRESHOLDS.get(name), len(jobs), ref)
        cases.append(Case(name, jobs, to_instance(jobs), ref, thresholds))
    return cases


# min_gaps_for_throughput thresholds per throughput-budget instance: all
# jobs, or one job more than fits with no gap.
THRESHOLDS = {"24/0": "all", "24/1": "gap", "32/0": "all"}


def _thresholds(kind, n: int, ref: dict) -> tuple[int, ...]:
    if kind == "all":
        return (n,)
    if kind == "gap":
        return (ref["max_throughput"][0] + 1,)
    return ()


def _admission_cases(rng: random.Random) -> list[Case]:
    specs = [
        # Fewer slots than jobs: infeasible on every seed, so check_feasible
        # always takes its infeasible path and normalize_distinct drops jobs.
        ("tight-400", generate.uniform_raw(rng, 400, 360)),
        ("tight-440", generate.uniform_raw(rng, 440, 396)),
        # Planted schedules on a horizon of 3n with repeated releases and
        # deadlines: feasible, and large enough that only the greedy and
        # hitting layers can answer.
        ("wide-700", generate.planted_raw(rng, 700, 2100, 60)),
        ("wide-1000", generate.planted_raw(rng, 1000, 3000, 60)),
    ]
    return [Case(name, jobs, to_instance(jobs)) for name, jobs in specs]


# -- one round --------------------------------------------------------------

class Round:
    """Times the calls of one round and keeps their answers by label."""

    def __init__(self, on_call=None, on_timed=None):
        self.on_call = on_call    # optional hook wrapped around every call
        self.on_timed = on_timed  # optional hook given each call's calibration factor
        # label -> (group, raw seconds, calibrated seconds)
        self.seconds: dict[str, tuple[str, float, float]] = {}
        self.answers: dict[str, object] = {}
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, group: str, label: str, fn, *args):
        self.attempted += 1
        before = calibrate.loop_seconds()
        t0 = perf_counter()
        try:
            out = self.on_call(group, fn, *args) if self.on_call else fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.append(f"{label}: {exc!r}")
            out = None
        dt = perf_counter() - t0
        scale = calibrate.factor(before, calibrate.loop_seconds())
        self.seconds[label] = (group, dt, dt * scale)
        self.answers[label] = out
        if self.on_timed:
            self.on_timed(scale)
        return out

    def skip(self, labels):
        """Operations that could not start because an earlier one failed."""
        for label in labels:
            self.attempted += 1
            self.errors.append(f"{label}: skipped")
            self.answers[label] = None

    @property
    def failed(self) -> int:
        return len(self.errors)


def typical_times(rounds: list[Round], calibrated: bool = True) -> dict[str, float]:
    """Each call's median time over the rounds, summed by group.

    A per-call median over rounds run at different moments resists the
    machine's drift better than the median of whole-round totals when a
    run holds only a few rounds.
    """
    col = 2 if calibrated else 1
    groups: dict[str, float] = {}
    for label, (group, *_) in rounds[0].seconds.items():
        median = statistics.median(r.seconds[label][col] for r in rounds)
        groups[group] = groups.get(group, 0.0) + median
    return groups


def run_round(workload: str, cases: list[Case], on_call=None, on_timed=None) -> Round:
    """Call the solvers once on every case; see ``Round`` for the hooks."""
    rnd = Round(on_call, on_timed)
    for case in cases:
        if workload == "gap-objectives":
            rnd.call("min_gaps_s", f"{case.name} min_gaps", min_gaps.min_gaps, case.inst)
            rnd.call("max_gaps_s", f"{case.name} max_gaps", max_gaps.max_gaps, case.inst)
            rnd.call("min_max_gap_s", f"{case.name} min_max_gap",
                     min_max_gap.min_max_gap, case.inst)
        elif workload == "throughput-budget":
            for weighted in (False, True):
                for g in GAP_BUDGETS:
                    rnd.call("max_throughput_s", f"{case.name} max_throughput {g} {weighted}",
                             throughput.max_throughput, case.inst, g, weighted)
            for t in case.thresholds:
                rnd.call("min_gaps_for_throughput_s",
                         f"{case.name} min_gaps_for_throughput {t}",
                         throughput.min_gaps_for_throughput, case.inst, t)
        else:
            _admission_round(case, rnd)
    return rnd


def _admission_round(case: Case, rnd: Round):
    p = case.name + " "
    norm = rnd.call("admit_s", p + "normalize_distinct", core.normalize_distinct, case.inst)
    rnd.call("admit_s", p + "check_feasible", core.check_feasible, case.inst)
    rnd.call("admit_s", p + "edf_max_throughput", throughput.edf_max_throughput, case.inst)
    later = [p + s for s in ("min_max_gap", "min_max_gap_cont", "max_hit_budget",
                             "min_max_flow_cont")]
    if norm is None:
        rnd.skip(later)
        return
    jobs = norm.instance.jobs
    intervals = [hitting.Interval(j.id, j.release, j.deadline) for j in jobs]
    releases = [j.release for j in jobs]
    rnd.call("min_max_gap_s", later[0], min_max_gap.min_max_gap, norm.instance)
    rnd.call("hitting_s", later[1], hitting.min_max_gap_cont, intervals)
    rnd.call("hitting_s", later[2], hitting.max_hit_budget, intervals, HIT_BUDGET)
    rnd.call("hitting_s", later[3], hitting.min_max_flow_cont, releases,
             flow_budget(len(releases)))


def flow_budget(n: int) -> int:
    return max(1, n // 16)


# -- answers ----------------------------------------------------------------

def canonical(answer):
    """A plain-data form of an answer, for comparing rounds."""
    if answer is None or isinstance(answer, int):
        return answer
    if isinstance(answer, tuple):
        return tuple(canonical(a) for a in answer)
    if isinstance(answer, core.Schedule):
        return tuple(sorted(answer.assignment.items()))
    if isinstance(answer, hitting.HittingSet):
        return tuple(sorted(answer.representatives.items()))
    if isinstance(answer, core.FeasibilityResult):
        return (answer.feasible, canonical(answer.schedule), answer.witness)
    if isinstance(answer, core.NormalizeResult):
        return (canonical_jobs(answer.instance.jobs), canonical_jobs(answer.removed))
    return answer  # Fraction


def canonical_jobs(jobs):
    return tuple(sorted((j.id, j.release, j.deadline, j.weight) for j in jobs))


def check_answers(workload: str, cases: list[Case], answers: dict):
    """Check one round's answers; raises check.CheckError."""
    for case in cases:
        get = {label[len(case.name) + 1:]: a for label, a in answers.items()
               if label.startswith(case.name + " ")}
        if workload == "gap-objectives":
            _check_gap(case, get)
        elif workload == "throughput-budget":
            _check_throughput(case, get)
        else:
            _check_admission(case, get)


def _solved(case, get, key):
    ans = get[key]
    require(ans is not None, f"{case.name} {key}: no answer")
    return ans


def _check_gap(case: Case, get):
    jobs = dict(enumerate(case.jobs))
    values = {}
    for key, measure in (("min_gaps", check.gap_count), ("max_gaps", check.gap_count),
                         ("min_max_gap", check.max_separation)):
        value, sched = _solved(case, get, key)
        slots = check.schedule_slots(sched.assignment, jobs, full=True)
        require(measure(slots) == value,
                f"{case.name} {key}: witness scores {measure(slots)}, answer {value}")
        require(value == case.ref[key],
                f"{case.name} {key}: answer {value}, optimum {case.ref[key]}")
        values[key] = value
    require(values["min_gaps"] <= values["max_gaps"], f"{case.name}: min gaps > max gaps")


def _check_throughput(case: Case, get):
    jobs = dict(enumerate(case.jobs))
    got = {}
    for weighted, ref_key in ((False, "max_throughput"), (True, "max_weight")):
        for g in GAP_BUDGETS:
            key = f"max_throughput {g} {weighted}"
            value, sched = _solved(case, get, key)
            slots = check.schedule_slots(sched.assignment, jobs, full=False)
            require(check.gap_count(slots) <= g,
                    f"{case.name} {key}: witness has {check.gap_count(slots)} gaps")
            score = check.throughput(sched.assignment, jobs, weighted)
            require(score == value, f"{case.name} {key}: witness scores {score}, answer {value}")
            want = case.ref[ref_key][g]
            require(value == want, f"{case.name} {key}: answer {value}, optimum {want}")
            if g:
                require(value >= got[weighted, g - 1],
                        f"{case.name} {key}: less than with budget {g - 1}")
            got[weighted, g] = value
    for t in case.thresholds:
        key = f"min_gaps_for_throughput {t}"
        g, sched = _solved(case, get, key)
        slots = check.schedule_slots(sched.assignment, jobs, full=False)
        require(check.gap_count(slots) <= g and len(sched.assignment) >= t,
                f"{case.name} {key}: witness does not meet ({g} gaps, {t} jobs)")
        want = _fewest_gaps(case, t)
        require(g == want, f"{case.name} {key}: answer {g}, optimum {want}")
        # The inverse of max_throughput: the smallest budget reaching t.
        if g in GAP_BUDGETS:
            require(got[False, g] >= t and (g == 0 or got[False, g - 1] < t),
                    f"{case.name} {key}: {g} is not the smallest budget reaching {t}")
        else:
            require(got[False, max(GAP_BUDGETS)] < t,
                    f"{case.name} {key}: a smaller budget already reaches {t}")


def _fewest_gaps(case: Case, t: int) -> int:
    for g in GAP_BUDGETS:
        if case.ref["max_throughput"][g] >= t:
            return g
    require(t == len(case.jobs), f"{case.name}: no reference for threshold {t}")
    return case.ref["min_gaps"]


def _check_admission(case: Case, get):
    n = len(case.jobs)
    raw = dict(enumerate(case.jobs))
    best = check.max_matching(case.jobs)

    norm = _solved(case, get, "normalize_distinct")
    kept = {j.id: (j.release, j.deadline, j.weight) for j in norm.instance.jobs}
    dropped = [j.id for j in norm.removed]
    require(sorted(list(kept) + dropped) == list(range(n)),
            f"{case.name} normalize_distinct: jobs lost or duplicated")
    require(len({r for r, _, _ in kept.values()}) == len(kept)
            and len({d for _, d, _ in kept.values()}) == len(kept),
            f"{case.name} normalize_distinct: releases or deadlines repeat")
    for jid, (r, d, _) in kept.items():
        r0, d0, _ = raw[jid]
        require(r0 <= r <= d <= d0, f"{case.name} normalize_distinct: job {jid} "
                f"window [{r}, {d}] not inside [{r0}, {d0}]")
    require(check.max_matching(list(kept.values())) == len(kept),
            f"{case.name} normalize_distinct: survivors are infeasible")

    feas = _solved(case, get, "check_feasible")
    require(feas.feasible == (best == n),
            f"{case.name} check_feasible: verdict {feas.feasible}, matching {best} of {n}")
    if feas.feasible:
        check.schedule_slots(feas.schedule.assignment, raw, full=True)
    count = _solved(case, get, "edf_max_throughput")
    require(count == best, f"{case.name} edf_max_throughput: {count}, matching {best}")

    value, sched = _solved(case, get, "min_max_gap")
    slots = check.schedule_slots(sched.assignment, kept, full=True)
    require(check.max_separation(slots) == value,
            f"{case.name} min_max_gap: witness scores {check.max_separation(slots)}, "
            f"answer {value}")

    lam, hs = _solved(case, get, "min_max_gap_cont")
    check.hitting_points(hs.representatives, kept, full=True)
    pts = sorted(hs.representatives.values())
    require(max((b - a for a, b in zip(pts, pts[1:])), default=0) <= lam,
            f"{case.name} min_max_gap_cont: witness gap exceeds {lam}")
    require(value >= max(1, math.ceil(lam)),
            f"{case.name} min_max_gap: {value} below the continuous bound {lam}")

    hit, hs = _solved(case, get, "max_hit_budget")
    check.hitting_points(hs.representatives, kept, full=False)
    require(len(set(hs.representatives.values())) <= HIT_BUDGET,
            f"{case.name} max_hit_budget: more than {HIT_BUDGET} points")
    require(hit == len(hs.representatives),
            f"{case.name} max_hit_budget: witness hits {len(hs.representatives)}, answer {hit}")

    radius, hs = _solved(case, get, "min_max_flow_cont")
    rs = sorted(r for r, _, _ in kept.values())
    k = flow_budget(len(rs))
    require(len(set(hs.representatives.values())) <= k,
            f"{case.name} min_max_flow_cont: more than {k} points")
    require(sorted(hs.representatives) == list(range(len(rs)))
            and all(rs[i] <= p <= rs[i] + radius for i, p in hs.representatives.items()),
            f"{case.name} min_max_flow_cont: a release is not covered within {radius}")
    require(radius == 0 or check.cover_count(rs, radius - 1) > k,
            f"{case.name} min_max_flow_cont: radius {radius - 1} already needs "
            f"only {check.cover_count(rs, radius - 1)} points")
