"""Check that the tracer's wrappers catch every call of every traced function.

Runs one pass of a workload under cProfile and one pass under the
tracer, on the same seeded inputs, and compares the call count of each
function in tracer.FUNCTIONS.  Exits 1 on any difference.  Run it after
a change that adds a call site or a binding of a traced function:

    python3 bench/check_trace.py --workload corpus-closed-forms --seed 1
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tempfile
from pathlib import Path

import tracer as tracing
from worker import ROOT, import_zetajoin, run_items
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    zj, _ = import_zetajoin()
    workload = WORKLOADS[args.workload]

    work_root = ROOT / ".bench_run"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        items = workload.build(zj, args.seed, Path(workdir))
        run_items([item for item in items if item.id == workload.warmup_id])

        profile = cProfile.Profile()
        profile.enable()
        run_items(items)
        profile.disable()
        with tracing.Tracer() as tracer:
            run_items(items, tracer=tracer)

    profiled = {}
    for (filename, line, name), (_, calls, *_rest) in pstats.Stats(profile).stats.items():
        profiled[(filename, line, name)] = calls
    traced = tracer.totals()
    mismatches = 0
    for fn in tracing.FUNCTIONS:
        layer, name = fn.split(".")
        code = getattr(sys.modules[f"zetajoin.{layer}"], name).__code__
        expected = profiled.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        got = traced[fn][0]
        status = "ok" if got == expected else "MISMATCH"
        mismatches += got != expected
        print(f"{status:8s} {fn:40s} traced {got:7d}  cProfile {expected:7d}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
