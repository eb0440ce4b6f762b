"""Regenerate every experiment table (E1-E17) for EXPERIMENTS.md.

Usage:  python benchmarks/run_all.py [e1 e4 ...]
        python benchmarks/run_all.py --json BENCH.json [--only e2,e4]

Each ``bench_*`` module exposes ``report() -> list[dict]``; this script
runs them all and prints aligned tables.  ``--json PATH`` instead
writes the baseline metric set (see baseline.py) -- the exact
record test_baseline.py pins against ``BENCH_pr16.json``.  With
``--json``, ``--only e2,e4`` restricts collection to those
experiment groups.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

EXPERIMENTS = {
    "e1": ("bench_e1_vm_throughput", "VM reduction throughput"),
    "e2": ("bench_e2_local_vs_remote", "local vs remote communication"),
    "e3": ("bench_e3_latency_hiding", "latency hiding via concurrency"),
    "e4": ("bench_e4_fetch_vs_ship", "code fetching vs code shipping"),
    "e5": ("bench_e5_seti_scaling", "SETI worker scaling"),
    "e6": ("bench_e6_rpc", "RPC derivation counts and timing"),
    "e7": ("bench_e7_nameservice", "network name service"),
    "e8": ("bench_e8_links", "Myrinet vs Fast Ethernet"),
    "e9": ("bench_e9_wire", "wire format sizes"),
    "e10": ("bench_e10_types", "type-inference scaling"),
    "e11": ("bench_e11_calculus", "formal derivations"),
    "e13": ("bench_e13_failure", "failure detection and recovery"),
    "e10gc": ("bench_e10_distgc", "distributed GC churn"),
    "e14": ("bench_e14_pubsub", "macro: pub/sub chat fabric"),
    "e15": ("bench_e15_mapreduce", "macro: map-reduce code movement"),
    "e16": ("bench_e16_agents", "macro: mobile-agent pipeline"),
    "e17": ("bench_e17_migration", "live migration: a cutover out and back"),
}


def print_table(rows: list[dict]) -> None:
    if not rows:
        print("  (no rows)")
        return
    keys = list(rows[0])
    widths = {k: max(len(str(k)), *(len(str(r.get(k, ""))) for r in rows))
              for k in keys}
    header = " | ".join(str(k).ljust(widths[k]) for k in keys)
    print("  " + header)
    print("  " + "-+-".join("-" * widths[k] for k in keys))
    for r in rows:
        print("  " + " | ".join(str(r.get(k, "")).ljust(widths[k])
                                for k in keys))


def _reject_unknown(names) -> None:
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        raise SystemExit(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(EXPERIMENTS))})")


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--json"]:
        import baseline

        out = "BENCH.json"
        only = None
        rest = argv[1:]
        i = 0
        while i < len(rest):
            if rest[i] == "--only":
                only = {g.strip().lower() for g in rest[i + 1].split(",")}
                i += 2
            else:
                out = rest[i]
                i += 1
        try:
            metrics = baseline.write_json(out, only=only)
        except ValueError as exc:          # unknown --only group
            raise SystemExit(str(exc))
        for key, value in sorted(metrics.items()):
            print(f"{key}: {value}")
        print(f"wrote {out}")
        return
    wanted = [w.lower() for w in argv] or list(EXPERIMENTS)
    _reject_unknown(wanted)
    for key in wanted:
        module_name, title = EXPERIMENTS[key]
        print(f"\n== {key.upper()}: {title} ==")
        module = importlib.import_module(module_name)
        print_table(module.report())


if __name__ == "__main__":
    main()
