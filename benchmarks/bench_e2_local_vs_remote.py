"""E2 -- intra-site vs same-node vs cross-node communication cost.

Section 5, claim 4: "the use of multiprocessing nodes is very
important since it allows to perform optimizations in the case of
local (within a node) communication.  In this case, code movement or
message sending can be implemented with a single shared-memory
reference exchange."

Two measurements per placement:

* **unpipelined** -- a single one-hop message: the cross-node case
  pays the full link latency, the local cases only compute;
* **pipelined** -- a 16-message batch: the in-flight messages overlap,
  so the per-message cost collapses toward the serialisation +
  compute cost (the bandwidth story).

Ablation A3 (``repro.runtime.daemon.LOCAL_FAST_PATH = False``) forces
same-node interactions through the wire encoding; its cost is visible
in encoded bytes and in wall time (the simulator charges network time
only to real links).
"""

from unittest import mock

import pytest

from _workloads import one_hop_network

PLACEMENTS = ("same-site", "same-node", "cross-node")


def simulated_time(placement: str, n_messages: int) -> float:
    net = one_hop_network(placement, n_messages=n_messages)
    elapsed = net.run()
    server = net.site("server")
    assert sorted(v for v in server.output) == list(range(n_messages))
    return elapsed / n_messages


def encoded_bytes(placement: str, local_fast_path: bool) -> int:
    net = one_hop_network(placement, n_messages=8)
    with mock.patch("repro.runtime.daemon.LOCAL_FAST_PATH",
                    local_fast_path):
        net.run()
    return sum(n.tycod.stats.bytes_sent for n in net.world.nodes.values())


class TestShape:
    def test_single_message_latency_ordering(self):
        t_site = simulated_time("same-site", 1)
        t_node = simulated_time("same-node", 1)
        t_cross = simulated_time("cross-node", 1)
        # Local interactions are an order of magnitude below the link
        # latency; the remote one pays it in full.
        assert t_cross > 9e-6
        assert t_site < t_cross / 5
        assert t_node < t_cross / 5

    def test_pipelining_amortises_latency(self):
        t_one = simulated_time("cross-node", 1)
        t_many = simulated_time("cross-node", 16)
        assert t_many < t_one / 2

    def test_fast_path_ablation_adds_encoding(self):
        assert encoded_bytes("same-node", local_fast_path=True) == 0
        assert encoded_bytes("same-node", local_fast_path=False) > 0

    def test_no_packets_for_same_site(self):
        net = one_hop_network("same-site", n_messages=4)
        net.run()
        assert net.world.stats.packets == 0


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_wall_time_per_placement(benchmark, placement):
    def kernel():
        net = one_hop_network(placement, n_messages=16)
        net.run()
        return net

    net = benchmark(kernel)
    benchmark.extra_info["simulated_us_per_msg"] = round(
        net.world.time / 16 * 1e6, 4)


@pytest.mark.parametrize("fast_path", [True, False])
def test_wall_time_fast_path_ablation(benchmark, fast_path):
    """A3 in wall time: the no-fast-path config pays encode+decode."""

    def kernel():
        net = one_hop_network("same-node", n_messages=16)
        with mock.patch("repro.runtime.daemon.LOCAL_FAST_PATH", fast_path):
            net.run()
        return net

    benchmark(kernel)


def report() -> list[dict]:
    rows = []
    for placement in PLACEMENTS:
        rows.append({
            "placement": placement,
            "one_msg_us": round(simulated_time(placement, 1) * 1e6, 4),
            "pipelined_us_per_msg": round(
                simulated_time(placement, 16) * 1e6, 4),
        })
    rows.append({
        "placement": "same-node A3 encoded bytes (8 msgs)",
        "one_msg_us": encoded_bytes("same-node", False),
        "pipelined_us_per_msg": "(fast path: 0 bytes)",
    })
    return rows


if __name__ == "__main__":
    for row in report():
        print(row)
