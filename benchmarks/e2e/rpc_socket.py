"""The `rpc-socket` workload: one closed-loop chain over loopback TCP.

A server site on `n1` and a client site on `n2` of a `SocketWorld`;
the client runs `rounds` sequential calls, each printing the reply, so
one round is one request and one reply on real sockets and the gap
between successive printed tokens is one round trip.  Closed loop, one
client: with 8 concurrent chains the rate swung 4200-6400 rounds/s
from run to run, one chain held 2780-2940.

Both sites are launched before the world starts.  Launching into a
running wall-clock world races `Node.step` (see the README), so the
loopback connect and handshake fall inside the timed window: a few
milliseconds of it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.runtime.network import DiTyCONetwork
from repro.transport.socket import SocketWorld

from common import SiteTotals, TapList

SERVER_SRC = """
export new svc
def Serve(self) = self?{ call(k, reply) = (reply![k + 1] | Serve[self]) }
in Serve[svc]
"""

#: Seconds without a new token after which the run is given up and
#: every outstanding round counts as failed.
STALL_TIMEOUT_S = 20.0


def client_src(rounds: int) -> str:
    return f"""
    import svc from server in
    def Loop(k) =
      if k < {rounds} then new a (svc!call[k, a] | a?(v) = (print![v] | Loop[k + 1]))
      else 0
    in Loop[0]
    """


@dataclass
class RpcRun:
    rounds: int
    net: DiTyCONetwork
    stamps: list[float] = field(default_factory=list)
    done: threading.Event = field(default_factory=threading.Event)
    wall_s: float = 0.0


def prepare(seed: int, size: dict) -> RpcRun:
    """Nothing here is drawn from the seed: the chain is fixed."""
    rounds = size["rounds"]
    net = DiTyCONetwork(world=SocketWorld())
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", SERVER_SRC)
    client = net.launch("n2", "client", client_src(rounds))
    run = RpcRun(rounds=rounds, net=net)
    stamps = run.stamps
    clock = time.perf_counter

    def on_token(_token) -> None:
        stamps.append(clock())
        if len(stamps) == rounds:
            run.done.set()

    client.vm.output = TapList(client.vm.output, on_token)
    return run


def execute(run: RpcRun) -> None:
    """The timed window: world start to the last token."""
    stamps = run.stamps
    started = time.perf_counter()
    run.net.world.start()
    seen = 0
    while not run.done.wait(STALL_TIMEOUT_S):
        if len(stamps) == seen:
            break
        seen = len(stamps)
    run.wall_s = (stamps[-1] if stamps else time.perf_counter()) - started


def verify(run: RpcRun) -> dict:
    net = run.net
    errors = []
    try:
        net.run(max_time=5.0)
    except TimeoutError as exc:
        errors.append(f"rpc-socket did not drain: {exc}")
    finally:
        net.world.shutdown()
    tokens = list(net.site("client").output)
    want = list(range(1, run.rounds + 1))
    completed = 0
    for got, expected in zip(tokens, want):
        if got != expected:
            break
        completed += 1
    if tokens != want:
        errors.append(f"client printed {len(tokens)} token(s), in-order "
                      f"prefix {completed}, expected 1..{run.rounds}")
    totals = SiteTotals()
    totals.add_live(net)
    stamps = run.stamps
    gaps = sorted((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
    extras = {"wire_bytes_per_op": net.world.stats.bytes / run.rounds}
    if gaps:
        extras["op_ms_p50"] = gaps[len(gaps) // 2]
        extras["op_ms_p99"] = gaps[min(len(gaps) - 1, len(gaps) * 99 // 100)]
    return {
        "work": run.rounds,
        "engine": net.site("client").vm.engine,
        "attempted": run.rounds,
        "completed": completed,
        "failed": run.rounds - completed,
        "errors": errors,
        "totals": totals,
        "extras": extras,
        "net": net,
    }
