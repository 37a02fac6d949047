"""Run one workload in this process and print its result as one JSON line.

Started by run.py in a fresh child process.  Imports zetajoin from the
checkout's src/ only, sets up the inputs, then runs passes over the items
until --seconds have passed: the first pass always completes, later ones
stop after the item that ends past the deadline.  A set-up (a fresh
interpreter's import, the inputs and one warm-up item) is repeated twice
after every pass, outside the measured time, so that its samples span the
run like the items' do; setup_s summarises them as an item's latency
summarises its samples.  With --trace 1 untraced and
traced whole passes alternate and only per-layer figures are reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_PASS = 2
SETUP_REPS = 10  # at least this many set-ups per run
# Times the import of numpy and zetajoin in a fresh interpreter, after the
# worker's own import has compiled the sources, so bytecode is always read.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import numpy, zetajoin, zetajoin.cli
print(time.perf_counter() - t)
"""
# Fixed, so that item_tail_ms means the same thing on every commit.  It is
# the highest percentile with >= 10 items beyond it on the 112-item corpus;
# the other workloads have fewer items than that.
TAIL_PERCENTILE = 90
# An item's latency in a run is this percentile of its samples (four or more
# per run), and setup_s this percentile of the run's set-ups.  The host runs
# at a steady speed with intermittent faster spells that cover a varying
# share of each run; the upper percentile follows the steady speed, and over
# ten runs it spread less than the median did.
REPEAT_PERCENTILE = 90


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def provenance(numpy_version: str) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def import_zetajoin():
    src = ROOT / "src"
    if not (src / "zetajoin" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'zetajoin'} not found; run from a zetajoin checkout")
    sys.path.insert(0, str(src))
    import numpy
    import zetajoin
    import zetajoin.cli  # noqa: F401  (the oracle workload calls cli.main)

    if Path(zetajoin.__file__).resolve().parent != (src / "zetajoin").resolve():
        sys.exit(f"error: imported zetajoin from {zetajoin.__file__}, not {src}")
    return zetajoin, numpy.__version__


def fresh_import_s() -> float:
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(child.stdout)


def set_up(zj, workload, seed: int, workdir: Path):
    """One set-up: a fresh import, the inputs and the warm-up item.

    Returns its time in seconds, the items, the warm-up items and their outputs.
    """
    import_s = fresh_import_s()
    t = perf_counter()
    items = workload.build(zj, seed, workdir)
    warmup = [item for item in items if item.id == workload.warmup_id]
    _, _, outputs = run_items(warmup)
    return import_s + perf_counter() - t, items, warmup, outputs


def run_items(items, tracer=None, deadline=None):
    """Run the items in order, timing only each item's call.

    With a deadline, stop after the first item that ends past it.
    """
    latencies, outputs = [], []
    started = perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t = perf_counter()
        try:
            output, error = item.run(), None
        except Exception as exc:  # an item that raises is a failed item
            output, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        latencies.append(end - t)
        outputs.append((output, error))
        if deadline is not None and end >= deadline:
            break
    return perf_counter() - started, latencies, outputs


def check_items(items, outputs, first_exact: dict, failures: list, pass_no: int) -> int:
    """Count failed items; runs outside the timed region."""
    failed = 0
    for item, (output, error) in zip(items, outputs):
        if error is None:
            try:
                error, exact = item.check(output)
            except Exception as exc:
                error, exact = f"check raised {type(exc).__name__}: {exc}", None
            if error is None:
                if item.id not in first_exact:
                    first_exact[item.id] = exact
                elif first_exact[item.id] != exact:
                    error = "exact output differs from the first pass"
        if error is not None:
            failed += 1
            failures.append({"pass": pass_no, "item": item.id, "reason": error})
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path, help="write the spans of a traced run here")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    zj, numpy_version = import_zetajoin()

    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    first_exact: dict = {}
    failures: list = []
    samples: dict[str, list[float]] = {}
    walls = {"untraced": [], "traced": []}
    tracers: list[tracing.Tracer] = []
    attempted = failed = warmup_attempted = warmup_failed = 0
    setup_reps: list[float] = []
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:

        def repeat_setup():
            nonlocal warmup_attempted, warmup_failed
            started = perf_counter()
            setup_s, built, warmup, outputs = set_up(zj, workload, args.seed, Path(workdir))
            setup_reps.append(setup_s)
            warmup_attempted += len(warmup)
            warmup_failed += check_items(warmup, outputs, first_exact, failures, 0)
            return built, perf_counter() - started

        items, _ = repeat_setup()
        measure_start = perf_counter()
        deadline = measure_start + args.seconds
        while True:
            pass_no = len(walls["untraced"]) + len(walls["traced"]) + 1
            # the first pass always completes; later ones stop at the deadline
            wall, latencies, outputs = run_items(
                items, deadline=None if args.trace or pass_no == 1 else deadline
            )
            walls["untraced"].append(wall)
            for item, latency in zip(items, latencies):
                samples.setdefault(item.id, []).append(latency)
            attempted += len(outputs)
            failed += check_items(items, outputs, first_exact, failures, pass_no)
            if args.trace:
                with tracing.Tracer() as tracer:
                    wall, _, outputs = run_items(items, tracer=tracer)
                tracers.append(tracer)
                walls["traced"].append(wall)
                attempted += len(outputs)
                failed += check_items(items, outputs, first_exact, failures, pass_no + 1)
                # stop before an (untraced, traced) pair that would overrun
                elapsed = perf_counter() - measure_start
                if elapsed * (len(tracers) + 1) / len(tracers) > args.seconds:
                    break
            elif perf_counter() >= deadline:
                break
            else:
                # set-ups between passes are not part of the measured time
                for _ in range(SETUPS_PER_PASS):
                    deadline += repeat_setup()[1]
        while not args.trace and len(setup_reps) < SETUP_REPS:
            repeat_setup()

    item_latencies = sorted(percentile(v, REPEAT_PERCENTILE) for v in samples.values())
    tail = percentile(item_latencies, TAIL_PERCENTILE)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_pass": len(items),
        "pass_wall_s": walls,
        "setup_reps_s": setup_reps,
        "warmup_attempted": warmup_attempted,
        "warmup_failed": warmup_failed,
        "fail_ratio": (failed + warmup_failed) / (attempted + warmup_attempted),
        "failures": failures[:50],
        "latency_samples_s": samples,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_items": len(item_latencies),
        "tail_items_beyond": sum(1 for x in item_latencies if x > tail),
        "provenance": provenance(numpy_version),
    }
    if args.trace:
        overhead = statistics.mean(walls["traced"]) / statistics.mean(walls["untraced"])
        metrics = tracing.per_layer_metrics(tracers, overhead)
        if args.spans is not None:
            write_spans(args.spans, tracers)
    else:
        metrics = {
            "setup_s": percentile(setup_reps, REPEAT_PERCENTILE),
            "items_per_s": len(item_latencies) / sum(item_latencies),
            "item_p50_ms": percentile(item_latencies, 50) * 1000,
            "item_tail_ms": tail * 1000,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics, "record": record}))


def write_spans(path: Path, tracers: list[tracing.Tracer]) -> None:
    """One JSON object per span; ids and parents are global across passes."""
    with open(path, "w", encoding="utf-8") as handle:
        offset = 0
        for pass_no, tracer in enumerate(tracers):
            for index, (name, start, end, parent, item) in enumerate(tracer.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": offset + index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": offset + parent if parent >= 0 else None,
                            "item": f"{pass_no}:{item}",
                        }
                    )
                    + "\n"
                )
            offset += len(tracer.spans)


if __name__ == "__main__":
    main()
