"""Workload sizes.

`REFERENCE` is the size ISSUE 11 names for each workload (7-9 s per
timed run on the 2-core box).  The driver's cap on total time is
tighter than that, so every size is scaled by the one `FACTOR`; the
two macro workloads stay above 1000 ops, where the superlinear term
shows.  `--seconds` scales the sizes again, in proportion to
`RUN_SECONDS`, the `run_seconds` of BENCHMARK.json.
"""

from __future__ import annotations

FACTOR = 0.6
RUN_SECONDS = 12
SMOKE_SCALE = 1 / 20

#: workload -> the module that runs it.
MODULES = {"pubsub": "macro", "mapreduce": "macro", "vmloop": "vmloop",
           "coldstart": "coldstart", "rpc-socket": "rpc_socket"}

REFERENCE = {
    "pubsub": {"ops": 2000},
    "mapreduce": {"ops": 2000},
    # Loop counts; leaves for spawn_tree.  Each >= 1.5 s at this size.
    "vmloop": {"counter_loop": 1_000_000, "cell_churn": 80_000,
               "ping_pong": 160_000, "spawn_tree": 1 << 18},
    # 8 programs of 400 classes.
    "coldstart": {"classes": 8 * 400},
    "rpc-socket": {"rounds": 20_000},
}

#: Classes per generated program, at most (the issue's program size).
MAX_CLASSES = 400


def size_of(workload: str, scale: float, quarter: bool) -> dict:
    """The sizes of one timed run; `quarter` is the N/4 run that
    `scaling_exp` is computed against."""
    scale = scale * FACTOR / (4 if quarter else 1)
    size = {key: max(1, round(value * scale))
            for key, value in REFERENCE[workload].items()}
    if workload in ("pubsub", "mapreduce"):
        size["app"] = workload
    if workload == "coldstart":
        total = size.pop("classes")
        size["programs"] = -(-total // MAX_CLASSES)
        size["classes"] = max(8, total // size["programs"])
    return size
