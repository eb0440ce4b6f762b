"""Drive the macro workloads with seeded open-loop traffic.

One `repro.workloads` spec fully determines a run: the application
(pub/sub chat fabric, map-reduce with FETCH code movement, or the
mobile-agent pipeline), its topology, and the arrival schedule.  On
the simulator the whole latency distribution is reproducible
bit-for-bit; pass ``socket`` to measure real round trips over loopback
TCP.

Usage:  python examples/workload_traffic.py [workload] [world]
        python examples/workload_traffic.py mapreduce socket
"""

import sys

from repro.workloads import WorkloadSpec, run_workload, trace_digest


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "pubsub"
    world = sys.argv[2] if len(sys.argv) > 2 else "sim"
    spec = WorkloadSpec(workload, seed=1, ops=60,
                        rate_per_s=10_000.0 if world == "sim" else 500.0,
                        nodes=3)
    print(f"spec: {spec.to_json()}")
    print(f"trace digest: {trace_digest(spec)}")

    report = run_workload(spec, world=world)
    summary = report.summary()
    print(f"\n{workload} on {world}: {summary['completed']}/{summary['ops']}"
          f" ops, makespan {summary['makespan_us']}us, "
          f"{summary['throughput_ops_per_s']} ops/s")
    for op, row in sorted(summary["per_op"].items()):
        print(f"  {op:>8}: p50 {row['p50_us']}us  p90 {row['p90_us']}us  "
              f"p99 {row['p99_us']}us  max {row['max_us']}us")
    if report.violations:
        for message in report.violations:
            print(f"  VIOLATION: {message}")
        raise SystemExit(1)
    print("  every operation completed with the expected effects")

    if world == "sim":
        again = run_workload(spec)
        same = again.summary() == summary
        print(f"  repeat run identical: {'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
