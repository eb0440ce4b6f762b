"""Workload specification and the seeded open-loop traffic schedule.

A :class:`WorkloadSpec` fully determines one macro-workload run: the
application (pub/sub chat fabric, map-reduce, mobile-agent pipeline),
its topology parameters, and the *open-loop* arrival process driving
it.  :func:`generate_trace` expands a spec into the exact operation
schedule -- a list of :class:`Arrival` records -- using nothing but
``random.Random(spec.seed)`` over **integer microseconds**, so the
trace is byte-identical across runs, hosts and Python builds (no libm
floats enter the schedule; the Mersenne generator is bit-portable).

Open-loop means arrivals do not wait for completions: the ``k``-th
operation is injected at its scheduled offset whether or not earlier
operations have finished, which is what makes the recorded latencies
honest under load (closed-loop generators hide queueing by slowing
down with the system -- the coordinated-omission trap).

Serialization is canonical JSON (sorted keys, fixed separators);
``WorkloadSpec.from_json(spec.to_json()) == spec`` is property-tested.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, fields

#: The applications `repro.workloads` knows how to build, with the
#: operation types each one's traffic mix may contain.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "pubsub": ("publish", "ping"),
    "mapreduce": ("map",),
    "agents": ("tour",),
}

#: Default operation mix per workload (op -> weight).
DEFAULT_MIX: dict[str, tuple[tuple[str, float], ...]] = {
    "pubsub": (("publish", 0.85), ("ping", 0.15)),
    "mapreduce": (("map", 1.0),),
    "agents": (("tour", 1.0),),
}


class WorkloadError(ValueError):
    """An invalid spec or an impossible workload request."""


@dataclass(frozen=True)
class WorkloadSpec:
    """One reproducible macro-workload configuration.

    Parameters
    ----------
    workload:
        ``"pubsub"`` | ``"mapreduce"`` | ``"agents"``.
    seed:
        Seeds the one ``random.Random`` behind the whole schedule.
    ops:
        Number of operations the generator injects.
    rate_per_s:
        Mean open-loop arrival rate (operations per *simulated* second
        on SimWorld; per wall second on the socket world).
        Inter-arrival gaps are uniform integers in
        ``[1, 2*mean_gap - 1]`` microseconds (mean = ``1e6/rate``).
    nodes:
        Node count; sites and operations are spread over
        ``n0 .. n{nodes-1}`` round-robin / by seeded draw.
    topics / subscribers:
        Pub/sub fabric shape: ``topics`` hub sites, each fanning out
        to ``subscribers`` subscriber sites.
    workers:
        Map-reduce pool size: tasks are placed on the first
        ``min(workers, nodes - 1)`` nodes after ``n0`` (the master
        node); with a single node everything runs on ``n0``.
    stages:
        Mobile-agent pipeline length; each tour visits a seeded prefix
        of the stages, so tours have mixed lengths.
    mix:
        Operation mix as ``((op, weight), ...)``; ``None`` picks the
        workload's default.  Weights need not sum to 1.
    """

    workload: str
    seed: int = 0
    ops: int = 64
    rate_per_s: float = 20_000.0
    nodes: int = 3
    topics: int = 2
    subscribers: int = 4
    workers: int = 3
    stages: int = 3
    mix: tuple[tuple[str, float], ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.workload not in WORKLOADS:
            raise WorkloadError(
                f"unknown workload {self.workload!r} "
                f"(choose from {', '.join(sorted(WORKLOADS))})")
        for name in ("ops", "nodes", "topics", "subscribers", "workers",
                     "stages"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise WorkloadError(f"{name} must be a positive int, "
                                    f"got {value!r}")
        if not isinstance(self.seed, int):
            raise WorkloadError(f"seed must be an int, got {self.seed!r}")
        if not self.rate_per_s > 0:
            raise WorkloadError(f"rate_per_s must be > 0, "
                                f"got {self.rate_per_s!r}")
        if self.mix is not None:
            # Normalize to a canonical sorted tuple so equal mixes
            # compare (and serialize) equal.
            allowed = WORKLOADS[self.workload]
            entries = tuple(sorted((str(op), float(w)) for op, w in self.mix))
            for op, weight in entries:
                if op not in allowed:
                    raise WorkloadError(
                        f"op {op!r} not valid for {self.workload} "
                        f"(allowed: {', '.join(allowed)})")
                if not weight > 0:
                    raise WorkloadError(
                        f"mix weight for {op!r} must be > 0, got {weight}")
            if len({op for op, _w in entries}) != len(entries):
                raise WorkloadError("mix lists an op twice")
            object.__setattr__(self, "mix", entries)

    # -- derived -------------------------------------------------------------

    def effective_mix(self) -> tuple[tuple[str, float], ...]:
        return self.mix if self.mix is not None else \
            DEFAULT_MIX[self.workload]

    def mean_gap_us(self) -> int:
        return max(1, round(1_000_000 / self.rate_per_s))

    def node_ip(self, index: int) -> str:
        return f"n{index % self.nodes}"

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "workload": self.workload,
            "seed": self.seed,
            "ops": self.ops,
            "rate_per_s": self.rate_per_s,
            "nodes": self.nodes,
            "topics": self.topics,
            "subscribers": self.subscribers,
            "workers": self.workers,
            "stages": self.stages,
        }
        if self.mix is not None:
            out["mix"] = {op: weight for op, weight in self.mix}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadSpec":
        if not isinstance(data, dict):
            raise WorkloadError(f"spec must be a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise WorkloadError(f"unknown spec field(s): {sorted(unknown)}")
        kwargs = dict(data)
        mix = kwargs.get("mix")
        if mix is not None:
            if not isinstance(mix, dict):
                raise WorkloadError(f"mix must be an object, got {mix!r}")
            kwargs["mix"] = tuple(sorted(mix.items()))
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "WorkloadSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, slots=True)
class Arrival:
    """One scheduled operation of the open-loop trace.

    ``at_us`` is the integer-microsecond offset from traffic start;
    ``node`` the index of the node the operation's client site is
    launched on; ``key`` the per-op parameter -- the topic index for a
    publish, the chunk value for a map task, the hop count for an
    agent tour, unused (0) for a ping.
    """

    seq: int
    at_us: int
    op: str
    node: int
    key: int

    def to_dict(self) -> dict:
        return {"seq": self.seq, "at_us": self.at_us, "op": self.op,
                "node": self.node, "key": self.key}


def _pick_op(mix: tuple[tuple[str, float], ...], u: float) -> str:
    total = sum(w for _op, w in mix)
    acc = 0.0
    for op, weight in mix:
        acc += weight
        if u * total < acc:
            return op
    return mix[-1][0]


def generate_trace(spec: WorkloadSpec) -> list[Arrival]:
    """Expand ``spec`` into its deterministic arrival schedule.

    Pure function of the spec (the seed included): the one RNG is
    consulted in a fixed per-op order (gap, op type, node, key), all
    draws are integers or raw MT floats, and no wall clock is read.
    """
    rng = random.Random(spec.seed)
    mix = spec.effective_mix()
    gap_mean = spec.mean_gap_us()
    arrivals: list[Arrival] = []
    t_us = 0
    for seq in range(spec.ops):
        t_us += rng.randint(1, 2 * gap_mean - 1) if gap_mean > 1 else 1
        op = _pick_op(mix, rng.random())
        if op == "map" and spec.nodes > 1:
            # Tasks go to the worker pool; n0 is the master node.
            node = 1 + rng.randrange(min(spec.workers, spec.nodes - 1))
        else:
            node = rng.randrange(spec.nodes)
        if op in ("publish", "ping"):
            key = rng.randrange(spec.topics)
        elif op == "map":
            key = rng.randrange(1, 100)      # the chunk value
        else:  # tour
            key = rng.randrange(1, spec.stages + 1)   # hops visited
        arrivals.append(Arrival(seq=seq, at_us=t_us, op=op,
                                node=node, key=key))
    return arrivals


def trace_json(spec: WorkloadSpec) -> str:
    """The canonical (byte-stable) JSON text of the whole trace."""
    doc = {"spec": spec.to_dict(),
           "arrivals": [a.to_dict() for a in generate_trace(spec)]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def trace_digest(spec: WorkloadSpec) -> str:
    """sha256 of :func:`trace_json` -- the pinned determinism anchor."""
    return hashlib.sha256(trace_json(spec).encode("ascii")).hexdigest()
