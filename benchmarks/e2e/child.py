"""One timed run of one workload, in an interpreter of its own.

`run.py` starts this file once per timed run: the tier-3 `_MEMO`,
`Program.decoded_cache` and the allocator are process-global, so a
repeat inside one process would measure a warm cache no user has.
Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
    sys.exit(f"benchmarks/e2e measures {ROOT / 'src'}, "
             f"but `repro` resolved to {repro.__file__}")

import sizes  # noqa: E402


def timed_run(args) -> dict:
    module = importlib.import_module(sizes.MODULES[args.workload])
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    size = sizes.size_of(args.workload, args.scale, args.quarter)
    run = module.prepare(args.seed, size)
    if tracer is not None:
        tracer.begin()
    started = time.monotonic()
    module.execute(run)
    wall_s = time.monotonic() - started
    if tracer is not None:
        tracer.end()
    # `rpc-socket` stamps its own last token; the others end with the call.
    wall_s = getattr(run, "wall_s", wall_s)
    outcome = module.verify(run)
    totals, net = outcome["totals"], outcome["net"]
    result = {
        "workload": args.workload,
        "size": size,
        "work": outcome["work"],
        "attempted": outcome["attempted"],
        "completed": outcome["completed"],
        "failed": outcome["failed"],
        "errors": outcome["errors"],
        "setup_s": started - args.spawned_at,
        "wall_s": wall_s,
        "instructions": totals.instructions,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "engine": outcome["engine"],
        "extras": outcome["extras"],
    }
    if tracer is not None:
        import layers

        traced = tracer.totals
        result["errors"] += layers.self_check(args.workload, traced["calls"])
        result["layers"] = {
            name: {"value": value, "unit": unit} for name, (value, unit)
            in layers.layer_metrics(traced, tracer.setup_totals,
                                    totals, net).items()}
        if args.spans:
            tracer.write_spans(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(sizes.MODULES))
    parser.add_argument("--equivalence", choices=("pubsub", "mapreduce"),
                        help="run the driver-equivalence self-check instead")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--quarter", action="store_true",
                        help="a quarter of the size, for scaling_exp")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=time.monotonic(),
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args()
    if args.equivalence:
        import macro

        result = {"errors": macro.equivalence_errors(args.equivalence,
                                                     args.seed)}
    elif args.workload:
        result = timed_run(args)
    else:
        parser.error("one of --workload and --equivalence is required")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
