"""Benchmark of the cluster-twist library: one workload per run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run is one process and one closed
loop: a single client runs the workload's tasks back to back.  The
library's ``functools`` caches are cleared before every task, outside the
timed region, so each task starts cold, as a CLI call does.  The loop
stops starting tasks once the measured task time reaches ``--seconds``.
Task times are scaled to a reference host speed by a fixed calibration
loop timed just before and just after each task.
Every task's output is checked against its recorded digest between
tasks, outside the timed region; A-side expansions are also checked
against an independent exchange-relation oracle, and the gallery values
against the package's JSON expectations, once the loop is done.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats one
round of the workload untraced and then traced, and reports per-layer
call counts and self times per round, with the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7
MIN_TASKS = 100  # p90 needs ten samples beyond it
PACE_REPEATS = 3
# Seconds the calibration loop takes on the reference host: the machine
# the benchmark was tuned on (an Intel Xeon vCPU at 2.1 GHz) in its
# faster state.
REFERENCE_PACE_S = 0.00052

# name -> unit of the end-to-end metrics in the result line
END_TO_END = {
    "throughput_tasks_per_s": "tasks/s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def load_library():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "cluster_twist" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cluster_twist sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cluster_twist

    if Path(cluster_twist.__file__).resolve().parent != SRC / "cluster_twist":
        sys.exit(f"perfbench: imported cluster_twist from {cluster_twist.__file__}, not {SRC}")
    return cluster_twist


def library_caches() -> list:
    """Every ``functools`` cache in the loaded ``cluster_twist`` modules
    and in the classes they define."""
    from tracer import library_modules

    found = {}
    for mod in library_modules():
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def calibration_work():
    """Fixed pure-Python work of the kind the library does: integer
    arithmetic and a dict keyed by exponent tuples.  It calls no library
    code, so no change to the library moves it."""
    terms = {}
    for i in range(1, 2000):
        key = (i % 13, -(i % 7), i % 3)
        terms[key] = terms.get(key, 0) + i * i % 1009
    return terms


def host_pace() -> float:
    """Seconds the calibration loop takes now: the fastest of a few runs."""
    best = float("inf")
    for _ in range(PACE_REPEATS):
        start = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


def to_reference(seconds: float, pace_before: float, pace_after: float) -> float:
    """``seconds`` measured between two paces, scaled to the reference host.

    The host this was tuned on switches between two speeds, about 1.7
    times apart, for stretches of seconds to minutes; the calibration loop
    slows by the same factor as library tasks to within 2%.
    """
    return seconds * 2 * REFERENCE_PACE_S / (pace_before + pace_after)


def percentile(values, q: float) -> float:
    """q-th percentile (0 < q < 100), interpolated between order statistics.

    Refuses a percentile with fewer than ten samples beyond it, since such
    a tail is decided by a handful of tasks.
    """
    n = len(values)
    if n * (100 - q) / 100 < 10:
        raise ValueError(f"p{q:g} needs at least {int(1000 / (100 - q))} samples, got {n}")
    ordered = sorted(values)
    pos = (n - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_task(task, checker, caches, tracer=None):
    """Run one task from cold ``caches``; returns (seconds, passed).  A task
    that raises fails."""
    for cache in caches:
        cache.cache_clear()
    start = time.perf_counter()
    try:
        if tracer is None:
            result = task.run()
        else:
            with tracer.task(task.key):
                result = task.run()
    except Exception:
        seconds = time.perf_counter() - start
        checker.messages.append(f"{task.key}: raised\n{traceback.format_exc()}")
        return seconds, False
    seconds = time.perf_counter() - start
    return seconds, checker.check(task, result)


def timed_loop(stream, round_tasks, checker, seconds: float, caches, between_rounds):
    """Closed loop over whole rounds until ``seconds`` of task time and at
    least the tasks the metrics need; ``between_rounds`` runs after each
    round, outside the timed region.

    Returns the task times on the reference host and the number of failed
    tasks.
    """
    times, failed = [], 0
    measured = 0.0
    while measured < seconds or len(times) < MIN_TASKS:
        for task in round_tasks:
            before = host_pace()
            took, ok = run_task(task, checker, caches)
            times.append(to_reference(took, before, host_pace()))
            measured += took
            failed += not ok
        between_rounds()
        round_tasks = stream.next_round()
    return times, failed


def traced_passes(round_tasks, checker, seconds: float, caches, tracer):
    """Alternate untraced and traced passes over one round of tasks."""
    attempted = failed = 0
    untraced = traced = 0.0
    passes = 0
    began = time.perf_counter()
    while passes == 0 or (time.perf_counter() - began) * (passes + 1) / passes <= seconds:
        for task in round_tasks:
            took, ok = run_task(task, checker, caches)
            untraced += took
            failed += not ok
        with tracer.patched():
            for task in round_tasks:
                took, ok = run_task(task, checker, caches, tracer)
                traced += took
                failed += not ok
        passes += 1
        attempted += 2 * len(round_tasks)
    return passes, attempted, failed, traced / untraced


def setup_seconds(args) -> float:
    """Wall time of a fresh process that only sets the workload up.

    It is not scaled to the reference host: process start and imports
    slow down less than the calibration loop when the host does.
    """
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        check=True,
        cwd=ROOT,
    )
    return time.perf_counter() - start


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed task: import, inputs, seed files."""
    load_library()
    import workloads

    stream = workloads.make_stream(workload, seed, workdir)
    first_round = stream.next_round()
    return stream, first_round


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "expand", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        stream, first_round = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        return measure(args, stream, first_round)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, stream, first_round) -> int:
    import checks
    import cluster_twist
    from tracer import Tracer, unit

    checker = checks.Checker(args.workload)
    caches = library_caches()
    gc.collect()
    if args.trace:
        tracer = Tracer()
        passes, attempted, failed, overhead = traced_passes(first_round, checker, args.seconds, caches, tracer)
        metrics = {name: (value, unit(name)) for name, value in tracer.layer_metrics(passes, overhead).items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-{args.seed}.json").write_text(json.dumps(tracer.spans))
    else:
        setups = []
        times, failed = timed_loop(
            stream, first_round, checker, args.seconds, caches, lambda: setups.append(setup_seconds(args))
        )
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(args))
        attempted = len(times)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies_ms = [t * 1000 for t in times]
        values = {
            "throughput_tasks_per_s": attempted / sum(times),
            "task_p50_ms": statistics.median(latencies_ms),
            "task_p90_ms": percentile(latencies_ms, 90),
            "setup_s": min(setups),
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: (value, END_TO_END[name]) for name, value in values.items()}
    oracle_bad = checker.oracle_mismatches()
    gallery_bad = checks.gallery_mismatches(cluster_twist)
    failed += len(oracle_bad)
    for line in checker.messages[:5]:
        print(f"perfbench: {line}", file=sys.stderr)
    for key in oracle_bad:
        print(f"perfbench: oracle disagrees on {key}", file=sys.stderr)
    for name in gallery_bad:
        print(f"perfbench: gallery mismatch {name}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  mix {stream.mix()}  rejected inputs {stream.rejected_inputs}")
    print(f"tasks attempted {attempted}  failed {failed}  failed_ratio {failed / attempted:.4f} ratio")
    print(f"oracle samples {len(checker.samples)}  gallery mismatches {len(gallery_bad)}")
    for name, (value, unit_name) in metrics.items():
        note = f"  (over {attempted} tasks)" if name == "task_p90_ms" else ""
        print(f"{name} {value:.6g} {unit_name}{note}")
    result = {
        "correct": failed == 0 and not gallery_bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_name} for name, (value, unit_name) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
