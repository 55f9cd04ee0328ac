"""Exact optimal values from integer programs solved by HiGHS.

Each model is time-indexed: x[j, t] = 1 when job j runs at slot t, for
every slot t in j's window; s[t] marks the first slot of a block.  The
models share nothing with ``gapsched`` but the problem statement.

Run as a script to regenerate ``references.json``: it rebuilds the
pool instances of ``generate.POOLS`` and solves every model for each of
them.  This takes about ten minutes on one core; ``--only PREFIX``
limits it to the instances whose ``workload/n/k`` name starts with
PREFIX.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix


class _Model:
    """x[j, t] for every job j and slot t in its window, then per-slot
    binaries: y[t] = 1 when slot t is busy and one more per-slot variable
    whose meaning each model gives.  Branching on the per-slot binaries
    rather than on x alone is what keeps the models fast."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.lo = min(r for r, _, _ in jobs)
        self.hi = max(d for _, d, _ in jobs)
        self.nslots = self.hi - self.lo + 1
        self.xcols = [(j, t) for j, (r, d, _) in enumerate(jobs)
                      for t in range(r, d + 1)]
        self.nx = len(self.xcols)
        self.nvar = self.nx + 2 * self.nslots
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.vals: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []

    def y(self, t: int) -> int:
        return self.nx + (t - self.lo)

    def z(self, t: int) -> int:
        return self.nx + self.nslots + (t - self.lo)

    def slots(self):
        return range(self.lo, self.hi + 1)

    def add_row(self, coeffs, lb, ub):
        r = len(self.lb)
        for c, v in coeffs:
            self.rows.append(r)
            self.cols.append(c)
            self.vals.append(v)
        self.lb.append(lb)
        self.ub.append(ub)

    def assignment_rows(self, full: bool):
        """Each job once (or at most once when not ``full``); y[t] is the
        number of jobs at t, so at most one."""
        by_job: dict[int, list[int]] = {}
        by_slot: dict[int, list[int]] = {}
        for c, (j, t) in enumerate(self.xcols):
            by_job.setdefault(j, []).append(c)
            by_slot.setdefault(t, []).append(c)
        for cs in by_job.values():
            self.add_row([(c, 1.0) for c in cs], 1.0 if full else 0.0, 1.0)
        for t in self.slots():
            self.add_row([(self.y(t), 1.0)] + [(c, -1.0) for c in by_slot.get(t, ())],
                         0.0, 0.0)

    def block_start_rows(self, at_least: bool):
        """z[t] marks the first slot of a block: z[t] >= y[t] - y[t-1] when
        ``at_least`` (for minimising), else z[t] <= y[t], z[t] <= 1 - y[t-1]."""
        for t in self.slots():
            z, y = (self.z(t), 1.0), (self.y(t), -1.0)
            prev = [(self.y(t - 1), 1.0)] if t > self.lo else []
            if at_least:
                self.add_row([z, y] + prev, 0.0, np.inf)
            else:
                self.add_row([z, y], -np.inf, 0.0)
                self.add_row([z] + prev, -np.inf, 1.0)

    def block_starts(self):
        return [(self.z(t), 1.0) for t in self.slots()]

    def solve(self, c):
        a = coo_matrix((self.vals, (self.rows, self.cols)),
                       shape=(len(self.lb), self.nvar)).tocsr()
        return milp(np.asarray(c, dtype=float), integrality=np.ones(self.nvar),
                    bounds=Bounds(0, 1),
                    constraints=LinearConstraint(a, self.lb, self.ub))

    def busy(self, res) -> list[int]:
        return [t for t in self.slots() if res.x[self.y(t)] > 0.5]


def _optimal(res) -> float:
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove optimality: {res.message}")
    return res.fun


def _count_blocks(m: _Model, sign: float):
    c = np.zeros(m.nvar)
    for col, _ in m.block_starts():
        c[col] = sign
    return c


def min_gaps(jobs) -> int:
    """Fewest interior gaps over schedules of all jobs."""
    m = _Model(jobs)
    m.assignment_rows(full=True)
    m.block_start_rows(at_least=True)
    return round(_optimal(m.solve(_count_blocks(m, 1.0)))) - 1


def max_gaps(jobs) -> int:
    """Most interior gaps over schedules of all jobs."""
    m = _Model(jobs)
    m.assignment_rows(full=True)
    m.block_start_rows(at_least=False)
    return round(-_optimal(m.solve(_count_blocks(m, -1.0)))) - 1


def max_throughput(jobs, gaps: int, weighted: bool) -> int:
    """Most jobs (or weight) schedulable with at most ``gaps`` interior gaps."""
    m = _Model(jobs)
    m.assignment_rows(full=False)
    m.block_start_rows(at_least=True)
    m.add_row(m.block_starts(), 0.0, gaps + 1)
    c = np.zeros(m.nvar)
    for col, (j, _) in enumerate(m.xcols):
        c[col] = -(jobs[j][2] if weighted else 1)
    return round(-_optimal(m.solve(c)))


def separation_feasible(jobs, bound: int):
    """Busy slots of a full schedule whose consecutive busy slots are at
    most ``bound`` apart, or None when there is none.

    z[t] >= y[u] for every u >= t says some job runs at t or later; then
    y[a] = 1 and z[a+1] = 1 force a busy slot in (a, a + bound].
    """
    m = _Model(jobs)
    m.assignment_rows(full=True)
    for t in m.slots():
        m.add_row([(m.z(t), 1.0), (m.y(t), -1.0)], 0.0, np.inf)
        if t < m.hi:
            m.add_row([(m.z(t), 1.0), (m.z(t + 1), -1.0)], 0.0, np.inf)
    for a in range(m.lo, m.hi):
        window = [(m.y(t), 1.0) for t in range(a + 1, min(a + bound, m.hi) + 1)]
        m.add_row(window + [(m.y(a), -1.0), (m.z(a + 1), -1.0)], -1.0, np.inf)
    res = m.solve(np.zeros(m.nvar))
    if res.status == 0:
        return m.busy(res)
    if res.status == 2:  # infeasible
        return None
    raise RuntimeError(f"HiGHS gave no verdict: {res.message}")


def min_max_separation(jobs) -> int:
    """Smallest bound on the distance between consecutive busy slots over
    schedules of all jobs, by bisection on ``separation_feasible``."""
    if len(jobs) < 2:
        return 0
    lo = 1
    busy = separation_feasible(jobs, max(d for _, d, _ in jobs))
    while True:
        hi = max(b - a for a, b in zip(busy, busy[1:]))
        if lo >= hi:
            return hi
        mid = (lo + hi) // 2
        got = separation_feasible(jobs, mid)
        if got is None:
            lo = mid + 1
        else:
            busy = got


def references(workload: str, jobs) -> dict:
    """Every stored optimum for one pool instance."""
    from generate import GAP_BUDGETS

    if workload == "gap-objectives":
        return {"min_gaps": min_gaps(jobs), "max_gaps": max_gaps(jobs),
                "min_max_gap": min_max_separation(jobs)}
    return {"min_gaps": min_gaps(jobs),
            "max_throughput": [max_throughput(jobs, g, False) for g in GAP_BUDGETS],
            "max_weight": [max_throughput(jobs, g, True) for g in GAP_BUDGETS]}


def main(argv=None):
    import argparse
    import json
    import time
    from pathlib import Path

    import generate

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", default="", help="name prefix, as in 'gap-objectives/80'")
    ap.add_argument("--out", default=str(Path(__file__).with_name("references.json")))
    args = ap.parse_args(argv)
    out = Path(args.out)
    refs = json.loads(out.read_text()) if out.exists() else {}
    for workload in generate.POOLS:
        for name, jobs in generate.pool(workload):
            key = f"{workload}/{name}"
            if not key.startswith(args.only):
                continue
            t0 = time.perf_counter()
            entry = {"fingerprint": generate.fingerprint(jobs)}
            entry.update(references(workload, jobs))
            refs.setdefault(workload, {})[name] = entry
            out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            print(f"{key}: {entry} ({time.perf_counter() - t0:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
