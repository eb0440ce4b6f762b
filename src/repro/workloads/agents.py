"""E16 -- the mobile-agent pipeline (remote evaluation / code on demand).

``stages`` stage sites each export a mailbox; a generated ``tour``
operation launches an agent site that visits a seeded prefix of the
stages *sequentially* -- ship a probe name to the stage, wait for the
stage's resident continuation to answer with its local value, move on
(the paper's "intelligent mobile agents" pattern, as in
``examples/mobile_agent_tour.py``, but chained instead of fanned out).
After the last hop the agent FETCHes the ``Finish`` class from
``stage0`` (code on demand) to fold its collected values, then reports
to the collector.

A tour with ``h`` hops therefore exercises ``h`` sequential cross-site
rendezvous, one class FETCH (linked out of the node's code store once
the first agent on a node has downloaded it), and the shared completion
path -- the longest dependency chains of the three macro workloads,
which is why its tail latency is the interesting number.
"""

from __future__ import annotations

from .spec import Arrival, WorkloadSpec
from .pubsub import COLLECTOR_SRC


def _stage_entry(spec: WorkloadSpec, s: int) -> tuple[str, str, str]:
    finish = ("export def Finish(v, out) = out![v + v] in " if s == 0 else "")
    src = (f"{finish}export new mb{s} "
           f"def Stage(c) = c?(p) = (p![{(s + 1) * 10}] | Stage[c]) "
           f"in Stage[mb{s}]")
    return spec.node_ip(s), f"stage{s}", src


def setup_phases(spec: WorkloadSpec) -> list[list[tuple[str, str, str]]]:
    stages = [_stage_entry(spec, s) for s in range(spec.stages)]
    stages.append((spec.node_ip(0), "collector", COLLECTOR_SRC))
    return [stages]


def op_entry(spec: WorkloadSpec, arrival: Arrival) -> tuple[str, str, str]:
    if arrival.op != "tour":
        raise ValueError(f"agents cannot run op {arrival.op!r}")
    hops = arrival.key
    imports = ["import Finish from stage0 in"]
    imports += [f"import mb{s} from stage{s} in" for s in range(hops)]
    imports.append("import done from collector in")
    total = " + ".join(f"v{s}" for s in range(hops))
    body = (f"new out (Finish[{total}, out] "
            f"| out?(w) = done![{arrival.seq}])")
    for s in reversed(range(hops)):
        body = f"new p{s} (mb{s}![p{s}] | p{s}?(v{s}) = {body})"
    src = f"{' '.join(imports)} {body}"
    return spec.node_ip(arrival.node), f"op{arrival.seq}", src


def post_phases(spec: WorkloadSpec,
                trace: list[Arrival]) -> list[list[tuple[str, str, str]]]:
    return []


def expected_outputs(spec: WorkloadSpec,
                     trace: list[Arrival]) -> dict[str, tuple]:
    return {"collector": tuple(sorted(a.seq for a in trace))}
