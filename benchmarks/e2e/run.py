"""benchmarks/e2e: five workloads, source text to remote reply.

    python3 benchmarks/e2e/run.py --seed S [--out F] [--smoke]
        every workload: K untraced timed runs at full size and K at a
        quarter of it, then one traced run; prints one line per metric
        (`workload metric value unit`, min and max of the runs beside
        an end-to-end median) and exits non-zero if a check fails.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1
        one workload, for the driver of BENCHMARK.json: the last line
        of standard output is one JSON object with the end-to-end
        (`--trace 0`) or the per-layer (`--trace 1`) metrics.

    python3 benchmarks/e2e/run.py --compare A.json B.json
        two `--out` files, metric by metric against each bound.

Every timed run is a fresh child interpreter (child.py), one after
another; nothing runs beside a timed run.  The child environment is
scrubbed of REPRO_*, so the program runs in its default configuration;
the VM engine that resolved is recorded.  `--seed` feeds the workload
generators only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import sizes  # noqa: E402

#: Untraced timed runs per size; the reported value is their median.
K = 3
CHILD_TIMEOUT_S = 150
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
#: Every workload this command runs.  BENCHMARK.json lists four of
#: them for the driver: `rpc-socket` is measured, checked and traced
#: like the rest, but on this host its wall clock spreads wider across
#: seeds than any bound the driver allows (README, "First numbers").
WORKLOADS = list(sizes.MODULES)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Untraced numbers that only some workloads have, or that are exact:
#: reported beside the per-layer ledger, under `e2e.`.
EXTRAS = {"wire_bytes_per_op": "B", "sim_p50_us": "us", "sim_p99_us": "us",
          "op_ms_p50": "ms", "op_ms_p99": "ms"}


class BenchmarkError(RuntimeError):
    pass


def child(*args: str) -> dict:
    """Run child.py to completion; its last line is the result."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    command = [sys.executable, str(HERE / "child.py"), *args,
               "--spawned-at", repr(time.monotonic())]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"{' '.join(command)} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def timed(workload: str, seed: int, scale: float, *flags: str) -> dict:
    return child("--workload", workload, "--seed", str(seed),
                 "--scale", repr(scale), *flags)


def measure(workload: str, seed: int, scale: float, k: int) -> dict:
    """The untraced runs of one workload: every end-to-end metric as
    the median of `k` fresh children, with the `k` values beside it."""
    errors = []
    if sizes.MODULES[workload] == "macro":
        errors += child("--equivalence", workload, "--seed", str(seed))["errors"]
    full, quarter = [], []
    for _ in range(k):
        full.append(timed(workload, seed, scale))
        quarter.append(timed(workload, seed, scale, "--quarter"))
    runs = {
        "setup_s": [r["setup_s"] for r in full + quarter],
        "wall_s": [r["wall_s"] for r in full],
        "ops_per_s": [r["completed"] / r["wall_s"] for r in full],
        "minstr_per_s": [r["instructions"] / r["wall_s"] / 1e6 for r in full],
        "scaling_exp": [scaling_exp(f, q) for f, q in zip(full, quarter)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in full],
    }
    for r in full + quarter:
        errors += r["errors"]
    return {
        "median_run": sorted(full, key=lambda r: r["wall_s"])[len(full) // 2],
        "engine": full[0]["engine"],
        "size": full[0]["size"],
        "attempted": sum(r["attempted"] for r in full + quarter),
        "failed": sum(r["failed"] for r in full + quarter),
        "errors": errors,
        "end_to_end": {
            name: {"value": statistics.median(values),
                   "unit": END_TO_END[name]["unit"], "runs": values}
            for name, values in runs.items()},
    }


def scaling_exp(full: dict, quarter: dict) -> float:
    """ln(wall(N) / wall(N/4)) / ln(N / (N/4)): 1.0 is linear.  The
    sizes are whole numbers, so the ratio is taken as it came out."""
    if full["work"] == quarter["work"]:
        return 1.0    # smoke sizes can round a size and its quarter together
    return (math.log(full["wall_s"] / quarter["wall_s"])
            / math.log(full["work"] / quarter["work"]))


def trace(workload: str, seed: int, scale: float, untraced: dict,
          spans: str | None = None) -> dict:
    """The traced run of one workload, read against `untraced`, one
    untraced run of the same size."""
    flags = ["--trace", "1"] + (["--spans", spans] if spans else [])
    traced = timed(workload, seed, scale, *flags)
    layers = traced["layers"]
    layers["bench.trace_overhead_pct"] = {
        "value": 100 * (traced["wall_s"] - untraced["wall_s"])
        / untraced["wall_s"], "unit": "%"}
    layers["e2e.fail_ratio"] = {
        "value": untraced["failed"] / untraced["attempted"], "unit": "ratio"}
    for name, unit in EXTRAS.items():
        layers[f"e2e.{name}"] = {"value": untraced["extras"].get(name, 0.0),
                                 "unit": unit}
    return {"attempted": traced["attempted"], "failed": traced["failed"],
            "errors": traced["errors"], "per_layer": layers}


# -- the driver's contract: one workload, one JSON line ----------------------


def contract(args) -> int:
    scale = args.seconds / sizes.RUN_SECONDS
    if args.trace:
        untraced = timed(args.workload, args.seed, scale)
        got = trace(args.workload, args.seed, scale, untraced)
        for key in ("attempted", "failed", "errors"):
            got[key] = untraced[key] + got[key]
        metrics = got["per_layer"]
        wanted = PER_LAYER
    else:
        got = measure(args.workload, args.seed, scale, K)
        metrics = got["end_to_end"]
        wanted = END_TO_END
    # BENCHMARK.json lists the metrics its workloads can move; the rest
    # (the socket transport's, type checking's) print in the full run.
    if not set(wanted) <= set(metrics):
        raise BenchmarkError(f"BENCHMARK.json names metrics the benchmark "
                             f"lacks: {sorted(set(wanted) - set(metrics))}")
    for error in got["errors"]:
        print(f"FAILED CHECK: {error}", file=sys.stderr)
    correct = not got["errors"] and got["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]} for name in wanted},
    }))
    return 0 if correct else 1


# -- every workload, for people ----------------------------------------------


def everything(args) -> int:
    scale, k = (sizes.SMOKE_SCALE, 1) if args.smoke else (1.0, K)
    report = {"seed": args.seed, "scale": scale, "k": k, "workloads": {}}
    failed = False
    for workload in WORKLOADS:
        got = measure(workload, args.seed, scale, k)
        traced = trace(workload, args.seed, scale, got.pop("median_run"),
                       spans=args.spans and f"{args.spans}.{workload}.json")
        got["per_layer"] = traced["per_layer"]
        for key in ("attempted", "failed", "errors"):
            got[key] += traced[key]
        got["fail_ratio"] = got["failed"] / got["attempted"]
        report["workloads"][workload] = got
        print(f"# {workload}: engine {got['engine']}, size {got['size']}, "
              f"fail_ratio {got['fail_ratio']:g}")
        for name, m in got["end_to_end"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']} "
                  f"(min {min(m['runs']):.6g}, max {max(m['runs']):.6g}, "
                  f"{len(m['runs'])} runs)")
        for name, m in got["per_layer"].items():
            print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
        for error in got["errors"]:
            print(f"FAILED CHECK: {workload}: {error}")
        failed = failed or bool(got["errors"]) or got["failed"] > 0
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n",
                                  encoding="utf-8")
    return 1 if failed else 0


# -- two sets of runs, metric by metric --------------------------------------


def verdict(metric: dict, a: dict, b: dict) -> tuple[str, float]:
    """Is `b` worse than `a` by more than the metric's bound?  A side
    whose own runs spread wider than the bound cannot tell, unless
    every run of `b` reads better than every run of `a`."""
    lower = metric["better"] == "lower"
    worse_by = (b["value"] - a["value"]) / abs(a["value"])
    if not lower:
        worse_by = -worse_by
    spread = max((max(s["runs"]) - min(s["runs"])) / abs(s["value"])
                 for s in (a, b))
    if spread > metric["bound"]:
        all_better = (max(b["runs"]) < min(a["runs"]) if lower
                      else min(b["runs"]) > max(a["runs"]))
        return ("ok" if all_better else "unresolved"), worse_by
    return ("worse" if worse_by > metric["bound"] else "ok"), worse_by


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    worst = 0
    for workload in WORKLOADS:
        for name, metric in END_TO_END.items():
            side_a = a["workloads"][workload]["end_to_end"][name]
            side_b = b["workloads"][workload]["end_to_end"][name]
            word, worse_by = verdict(metric, side_a, side_b)
            print(f"{workload} {name} {side_a['value']:.6g} -> "
                  f"{side_b['value']:.6g} {metric['unit']} "
                  f"({100 * worse_by:+.2f}% worse, bound "
                  f"{100 * metric['bound']:g}%) {word}")
            worst = max(worst, ("ok", "unresolved", "worse").index(word))
        for side, path in ((a, path_a), (b, path_b)):
            if side["workloads"][workload]["fail_ratio"] > 0:
                print(f"{workload} fail_ratio > 0 in {path} worse")
                worst = 2
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=sizes.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20 and one run per size")
    parser.add_argument("--out", help="write every number here, as JSON")
    parser.add_argument("--spans", help="write the traced spans to "
                        "SPANS.<workload>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/e2e measures {ROOT / 'src'}, which is missing")
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return contract(args)
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
