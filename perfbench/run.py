"""cayleyac benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  One process, no threads, jobs=1.  A run
measures for ``--seconds`` seconds: the workload is set up several times
(``setup_s`` is the median), then its unit of work repeats until the time is
up (``wall_s`` and ``cpu_s`` are medians over the units).  Every unit's output is checked
against reference.json; each check is one operation, and any failed check
makes the exit code 1.  The last line of standard output is the result as
one JSON object.

With ``--trace 1`` traced and untraced units alternate; the traced ones
record spans around each call into cayleyac plus call counts, and the result
holds the per-layer metrics instead of the end-to-end ones.  Spans are
written to .perfbench_out/ in the checkout when the run ends.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up repeats at least SETUP_REPS times and, while it is cheap, until
# SETUP_SECONDS have passed (at most SETUP_MAX_REPS times).
SETUP_REPS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPS = 500

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import cayleyac from this checkout's src/ (never an installed copy)
    and return the workloads module."""
    if not (SRC / "cayleyac" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cayleyac package under {SRC}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import cayleyac

    if Path(cayleyac.__file__).resolve().parent != SRC / "cayleyac":
        raise SystemExit(f"perfbench: imported cayleyac from {cayleyac.__file__}")
    import workloads

    return workloads


def git_state() -> dict:
    """Commit and dirty flag of the checkout; both None outside a git
    working tree (git is not allowed to look above the checkout)."""
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
                             capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                timeout=30, capture_output=True, text=True,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": bool(status.strip())}


def os_threads() -> int:
    return len(os.listdir("/proc/self/task"))


def run_record(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "git": git_state(),
        "jobs": 1, "pid": os.getpid(),
    }


def median_metrics(dicts: list[dict]) -> dict:
    keys = {key for d in dicts for key in d}
    return {key: statistics.median(d[key] for d in dicts if key in d) for key in keys}


def measure(wl, args, checks, record) -> dict:
    import workloads
    from tracing import NoTrace, Tracer

    notrace = NoTrace()
    tracers = []

    deadline = time.perf_counter() + args.seconds
    setup_times, setup_layers = [], []
    state = None
    rep = 0
    gc.collect()
    while rep < SETUP_REPS or (sum(setup_times) < SETUP_SECONDS and rep < SETUP_MAX_REPS):
        state = None
        tr = Tracer(wl.name, f"setup{rep}") if args.trace else notrace
        start = time.perf_counter()
        state = wl.setup(tr)
        setup_times.append(time.perf_counter() - start)
        checks.against(f"{wl.name} set-up", wl.observe_setup(state), wl.reference["setup"])
        if args.trace:
            wl.trace_setup(state, tr, checks)
            setup_layers.append(wl.setup_layers(tr))
            tracers.append(tr)
        rep += 1

    walls, cpus, traced_walls, unit_layers = [], [], [], []
    count = 0
    while True:
        traced = bool(args.trace) and count % 2 == 1
        out = None
        gc.collect()
        tr = Tracer(wl.name, f"unit{count}") if traced else notrace
        if traced:
            wl.instrument(state, tr)
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            out = wl.unit(state, tr, count)
            wall1, cpu1 = time.perf_counter(), time.process_time()
        finally:
            if traced:
                wl.release(state)
        if traced:
            wl.check_replay(out, checks)
            traced_walls.append(wall1 - wall0 - tr.total(workloads.REPLAY_SPAN))
            unit_layers.append(wl.unit_layers(tr))
            tracers.append(tr)
        else:
            walls.append(wall1 - wall0)
            cpus.append(cpu1 - cpu0)
        wl.check_unit(wl.observe(out), count, checks)
        count += 1
        if time.perf_counter() >= deadline and (not args.trace or count >= 2):
            break

    checks.expect("one process, one thread, jobs=1",
                  threading.active_count() == 1 and os_threads() == 1)
    print(f"# {len(walls)} untraced units, {len(traced_walls)} traced units, "
          f"{len(setup_times)} set-ups")
    print(f"# wall_s per unit: {', '.join(f'{w:.3f}' for w in walls)}")
    print(f"# setup_s: min {min(setup_times):.6f}, max {max(setup_times):.6f}")

    if not args.trace:
        return {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    metrics = dict.fromkeys(workloads.PER_LAYER, 0)
    metrics.update(median_metrics(unit_layers))
    metrics.update(median_metrics(setup_layers))
    metrics.update(wl.setup_counts(state))
    metrics.update(wl.micro(state, out, random.Random(args.seed)))
    spans = [rec for tr in tracers for rec in tr.records()]
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    metrics["trace.spans"] = len(spans)
    unknown = set(metrics) - set(workloads.PER_LAYER)
    if unknown:
        raise RuntimeError(f"metrics missing from PER_LAYER: {sorted(unknown)}")
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    trace_path.write_text(json.dumps({"run": record, "spans": spans}, indent=0))
    print(f"# spans written to {trace_path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    record = run_record(args)
    print(json.dumps({"run_record": record}, sort_keys=True))

    checks = workloads.Checks()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cache-") as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp, reference)
        values = measure(wl, args, checks, record)

    units = END_TO_END if not args.trace else workloads.PER_LAYER
    for name in sorted(values):
        print(f"{name} = {values[name]:.6g} {units[name]}")
    print(f"ops_failed = {len(checks.failures)} of ops_total = {checks.attempted}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 1 if checks.failures else 0


if __name__ == "__main__":
    sys.exit(main())
