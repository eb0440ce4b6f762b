"""Message-ordering guarantees of the transports.

The paper's protocol is asynchronous and makes no global ordering
promise, but both worlds deliver *point-to-point in FIFO order* (the
simulator because equal-latency packets dequeue in send order, the
socket world because each (src, dst) link is one TCP connection whose
records are handed to the node under a per-destination receive lock).
Programs in the tests/benchmarks rely on that, so it is pinned down
here.
"""

import pytest

from repro.runtime import DiTyCONetwork
from repro.transport import SimWorld, SocketWorld


def fifo_program(net, n=8):
    receivers = " | ".join(
        f"(svc?(v{i}) = print![v{i}])" for i in range(n))
    net.launch("n1", "server", f"export new svc ({receivers})")
    sends = " | ".join(f"svc![{i}]" for i in range(n))
    net.launch("n2", "client", f"import svc from server in ({sends})")
    return n


class TestSimOrdering:
    def test_point_to_point_fifo(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        n = fifo_program(net)
        net.run()
        # The val-objects are interchangeable, so arrival order IS the
        # print order; sends were issued 0..n-1 by one thread chain.
        assert net.site("server").output == list(range(n))

    def test_two_senders_interleave_but_each_is_fifo(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2", "n3"])
        receivers = " | ".join(f"(svc?(v{i}) = print![v{i}])"
                               for i in range(6))
        net.launch("n1", "server", f"export new svc ({receivers})")
        net.launch("n2", "a", "import svc from server in "
                              "(svc![10] | svc![11] | svc![12])")
        net.launch("n3", "b", "import svc from server in "
                              "(svc![20] | svc![21] | svc![22])")
        net.run()
        out = net.site("server").output
        a_stream = [v for v in out if v < 20]
        b_stream = [v for v in out if v >= 20]
        assert a_stream == [10, 11, 12]
        assert b_stream == [20, 21, 22]

    def test_larger_packet_arrives_later(self):
        """Bandwidth delay: a big payload sent first can arrive after a
        small one sent second only if their serialisation differs --
        with our per-packet link model, order still holds because the
        second send starts after the first (same event time, FIFO seq).
        Pin the current (in-order) behaviour."""
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server",
                   "export new svc ((svc?(a) = print![1]) | svc?(b) = print![2])")
        big = "x" * 5000
        net.launch("n2", "client",
                   f'import svc from server in (svc!["{big}"] | svc![2])')
        net.run()
        assert net.site("server").output == [1, 2]


class TestSocketOrdering:
    def test_point_to_point_fifo(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        n = fifo_program(net)
        try:
            net.run(max_time=20.0)
        finally:
            world.shutdown()
        assert net.site("server").output == list(range(n))


class TestBatchedOrdering:
    """Regression wall for wire batching: coalescing same-destination
    packets into frames must not break the per-(src, dst) FIFO promise
    pinned above, on either transport."""

    def test_sim_fifo_with_batch_frames(self):
        from repro.obs import TraceCollector

        world = SimWorld()
        sink = TraceCollector()
        world.obs.subscribe(sink)
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        n = fifo_program(net, n=12)
        net.run()
        assert net.site("server").output == list(range(n))
        # The guarantee must hold *because of* frames, not for lack of
        # them: the client's burst really was batched.
        assert any(e.kind == "batch" for e in sink.events)

    def test_sim_fifo_without_batching_matches(self):
        net = DiTyCONetwork(batching=False)
        net.add_nodes(["n1", "n2"])
        n = fifo_program(net, n=12)
        net.run()
        assert net.site("server").output == list(range(n))

    def test_sim_link_clock_defeats_jitter_reorder(self):
        """Chaos jitter stretches per-packet delays by 100x the link
        latency; the per-link FIFO clock must still deliver one link's
        stream in send order (batching off, so every packet rides the
        link individually)."""
        from repro.testkit import ChaosConfig, ChaosWorld

        for seed in (3, 11, 23):
            world = ChaosWorld(seed=seed, config=ChaosConfig(jitter_s=1e-3))
            net = DiTyCONetwork(world=world, batching=False)
            net.add_nodes(["n1", "n2"])
            n = fifo_program(net)
            net.run()
            assert net.site("server").output == list(range(n)), \
                f"seed {seed} reordered a single link's stream"

    def test_socket_two_senders_fifo_under_batching(self):
        """Concurrent senders into one node: the per-destination
        receive lock must enqueue each frame atomically, so every
        sender's stream stays FIFO even when frames interleave."""
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2", "n3"])
        receivers = " | ".join(f"(svc?(v{i}) = print![v{i}])"
                               for i in range(8))
        net.launch("n1", "server", f"export new svc ({receivers})")
        net.launch("n2", "a", "import svc from server in "
                              "(svc![10] | svc![11] | svc![12] | svc![13])")
        net.launch("n3", "b", "import svc from server in "
                              "(svc![20] | svc![21] | svc![22] | svc![23])")
        try:
            net.run(max_time=20.0)
        finally:
            world.shutdown()
        out = net.site("server").output
        assert [v for v in out if v < 20] == [10, 11, 12, 13]
        assert [v for v in out if v >= 20] == [20, 21, 22, 23]
