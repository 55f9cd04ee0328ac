"""Benchmark for gapsched: one seeded workload per run, answers checked.

    python3 bench/run.py --workload gap-objectives --seed 1 --seconds 20 --trace 0

A run builds its cases from the seed (set-up), then repeats whole rounds
over them, one solver call at a time in this one process, until
``--seconds`` have passed.  It then checks the first round's answers
against references computed without ``gapsched`` and requires every later
round to give the same answers.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
plain and traced rounds and reports the per-layer metrics, the per-solver
splits of the plain rounds, the tracemalloc peaks of one extra round and
the tracing overhead.  ``--workload all`` runs every workload in turn,
each in a fresh process.  Human-readable lines come first; the last line
is one JSON object.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("gap-objectives", "throughput-budget", "admission-separation")
SETUP_REPEATS = 7   # set-ups per run, each in a fresh process but the first


def setup(workload: str, seed: int):
    """Import the program and build the cases.

    Returns (calibrated seconds, workloads module, cases).
    """
    before = calibrate.loop_seconds()
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import gapsched
    if SRC not in Path(gapsched.__file__).resolve().parents:
        raise ImportError(f"gapsched comes from {gapsched.__file__}, not {SRC}")
    import workloads
    cases = workloads.build(workload, seed)
    dt = perf_counter() - t0
    return calibrate.scaled(dt, before, calibrate.loop_seconds()), workloads, cases


def setup_seconds(args, first: float) -> float:
    """Median set-up time: this process's own plus fresh-process repeats."""
    times = [first]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, __file__, "--setup-only",
                              "--workload", args.workload, "--seed", str(args.seed)],
                             capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def measure(args, wl, cases):
    """Plain rounds until the time is up; returns the list of rounds."""
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < args.seconds:
        rounds.append(wl.run_round(args.workload, cases))
    return rounds


def measure_traced(args, wl, cases):
    """Alternating plain and traced rounds, then one tracemalloc round."""
    import trace
    tracer = trace.Tracer()
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not plain or perf_counter() - start < args.seconds:
        plain.append(wl.run_round(args.workload, cases))
        tracer.reset()
        tracer.install()
        try:
            traced.append(wl.run_round(args.workload, cases, on_timed=tracer.settle))
        finally:
            tracer.uninstall()
        layers.append(tracer.metrics())
    peak = trace.PeakMemory()
    last = wl.run_round(args.workload, cases, on_call=peak)
    splits = wl.typical_times(plain)
    groups = dict.fromkeys(g for gs in wl.GROUPS.values() for g in gs)
    metrics = {g: (splits.get(g, 0.0), "s") for g in groups}
    for name in layers[0]:
        unit = "count" if name.endswith(".calls") else (
            "B" if name.endswith("_bytes") else "s")
        metrics[name] = (statistics.median(m[name] for m in layers), unit)
    for name, value in peak.peaks.items():
        metrics[name] = (value, "B")
    plain_solve = sum(splits.values())
    traced_solve = sum(wl.typical_times(traced).values())
    metrics["trace.solve_s"] = (traced_solve, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_solve / plain_solve - 1.0), "%")
    return plain + traced + [last], metrics


def verify(args, wl, cases, rounds) -> list[str]:
    """Check the first round's answers, then that every round repeats them.

    A failed call is itself a wrong result.  A case with a failed call in
    the first round is left out of the answer checks, which need all of
    its answers; a failed call in a later round skips only its comparison.
    """
    import check
    problems = [f"failed: {e}" for r in rounds for e in r.errors]
    failed_cases = {label.split(" ")[0] for label, a in rounds[0].answers.items()
                    if a is None}
    checked = [c for c in cases if c.name not in failed_cases]
    try:
        wl.check_answers(args.workload, checked, rounds[0].answers)
    except check.CheckError as exc:
        problems.append(str(exc))
    first = {label: wl.canonical(a) for label, a in rounds[0].answers.items()}
    for i, r in enumerate(rounds[1:], 1):
        for label, a in r.answers.items():
            if a is None or first[label] is None:
                continue
            if wl.canonical(a) != first[label]:
                problems.append(f"round {i}: {label} differs from round 0")
    return problems


def run_one(args) -> int:
    try:
        first, wl, cases = setup(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError, RuntimeError) as exc:
        print(f"set-up failed: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(first)
        return 0
    setup_s = setup_seconds(args, first)
    if args.trace:
        rounds, metrics = measure_traced(args, wl, cases)
    else:
        rounds = measure(args, wl, cases)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        splits = wl.typical_times(rounds)
        raw = sum(wl.typical_times(rounds, calibrated=False).values())
        metrics = {"solve_s": (sum(splits.values()), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}
    problems = verify(args, wl, cases, rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cases)} cases, {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    if not args.trace:
        for g in wl.GROUPS[args.workload]:
            print(f"  {g:<40} {splits[g]:12.4f} s   (split of solve_s)")
        print(f"  {'uncalibrated solve time':<40} {raw:12.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:12.4f} {unit}")
    for line in sorted(set(problems)):
        print(f"  WRONG {line}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", workload,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], check=False)
        status = status or out.returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded benchmark for gapsched.")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it; the repeats behind setup_s")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
