"""zetajoin benchmark: time to a verified answer, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus-closed-forms --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh child process (bench/worker.py) with
single-threaded numerical libraries, driven by one closed-loop caller
that starts each item when the previous one has finished.  Every item's
exact outputs are checked outside the timed region.  The metrics are
printed by name with their units; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The full
run record (seed, provenance, tail percentile and sample count,
failures) is written to .bench_run/, and a traced run also writes its
spans there.  Without --workload, every workload runs in turn.

See bench/NOTES.md for why each workload exists and what each metric
should show.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HELD_OUT_SEED = 9173  # never used while tuning; check later claims on it
CHILD_TIMEOUT_S = 170


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, as BENCHMARK.json defines them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict | None:
    out_dir = ROOT / ".bench_run"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    command = [
        sys.executable,
        str(Path(__file__).with_name("worker.py")),
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        command += ["--spans", str(out_dir / f"{stem}.spans.jsonl")]
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: {name} worker exited with code {child.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    record = result["record"]
    record["held_out_seed"] = HELD_OUT_SEED
    record["metrics"] = result["metrics"]
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    units = metric_units(trace)
    if set(units) != set(result["metrics"]):
        print(f"error: {name} reported metrics other than BENCHMARK.json lists", file=sys.stderr)
        return None
    # the warm-up items of every set-up count as attempted items too
    attempted = result["attempted"] + record["warmup_attempted"]
    failed = result["failed"] + record["warmup_failed"]
    print(f"# {name}  seed {seed}  (held-out seed {HELD_OUT_SEED})  {record['provenance']}")
    for metric, value in result["metrics"].items():
        print(f"{name}  {metric} = {value:.6g} {units[metric]}")
    print(f"{name}  fail_ratio = {record['fail_ratio']:.6g} ({failed}/{attempted})")
    print(
        f"{name}  tail = p{record['tail_percentile']} of {record['tail_items']} items, "
        f"{record['tail_items_beyond']} beyond; passes: {len(record['pass_wall_s']['untraced'])} "
        f"untraced, {len(record['pass_wall_s']['traced'])} traced"
    )
    for failure in record["failures"][:10]:
        print(f"{name}  FAILED pass {failure['pass']} {failure['item']}: {failure['reason']}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "zetajoin" / "__init__.py").is_file():
        print(f"error: no zetajoin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
