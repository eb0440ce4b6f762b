"""Unit tests for the asyncio TCP transport (repro.transport.socket).

Covers the stream layer without sockets (StreamDecoder, handshake
codec), endpoint behaviour over real loopback TCP (version-mismatch
rejection, reconnect with backoff after a peer restart), SocketWorld
end-to-end runs with clean shutdown, and the thread model:
one loop thread steps every node, backpressure defers a node instead
of blocking a sender, and a failing node ends ``run()``.
"""

import functools
import logging
import socket as stdlib_socket
import struct
import threading
import time

import pytest

from repro.runtime import DiTyCONetwork
from repro.transport import SocketWorld
from repro.transport import socket as socket_transport
from repro.transport.socket import (
    ACK_BAD_VERSION,
    ACK_OK,
    MAX_RECORD,
    LoopThread,
    SocketEndpoint,
    StreamDecoder,
    decode_ack,
    decode_hello,
    encode_ack,
    encode_hello,
    encode_record,
)

SERVER = "export new svc svc?(r) = r![7]"
CLIENT = "import svc from server in new a (svc![a] | a?(w) = print![w])"


def dityco_threads(before=()):
    """Names of the ``dityco-*`` threads alive now and not in ``before``."""
    return sorted(t.name for t in threading.enumerate()
                  if t.name.startswith("dityco-") and t not in before)


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestStreamDecoder:
    def test_byte_by_byte_reassembly(self):
        records = [b"hello", b"", b"x" * 1000, b"tail"]
        stream = b"".join(encode_record(r) for r in records)
        decoder = StreamDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i:i + 1]))
        assert out == records
        assert decoder.pending_bytes == 0

    def test_many_records_in_one_chunk(self):
        records = [bytes([i]) * i for i in range(20)]
        stream = b"".join(encode_record(r) for r in records)
        decoder = StreamDecoder()
        assert decoder.feed(stream) == records

    def test_short_write_boundary_split(self):
        # Split exactly inside the length prefix of the second record.
        a, b = encode_record(b"first"), encode_record(b"second")
        stream = a + b
        cut = len(a) + 2
        decoder = StreamDecoder()
        assert decoder.feed(stream[:cut]) == [b"first"]
        assert decoder.pending_bytes == 2
        assert decoder.feed(stream[cut:]) == [b"second"]

    def test_oversize_record_rejected(self):
        decoder = StreamDecoder(max_record=64)
        with pytest.raises(ValueError):
            decoder.feed(encode_record(b"y" * 65))

    def test_records_framed_ahead_of_an_oversize_prefix_are_kept(self):
        decoder = StreamDecoder(max_record=64)
        with pytest.raises(ValueError) as err:
            decoder.feed(encode_record(b"a") + encode_record(b"b")
                         + encode_record(b"y" * 65))
        assert err.value.records == [b"a", b"b"]


class TestHandshakeCodec:
    def test_hello_roundtrip(self):
        magic, version, attempt, ip = decode_hello(
            encode_hello("node-17", attempt=3))
        assert (magic, version, attempt, ip) == (b"DTCO", 3, 3, "node-17")

    def test_ack_roundtrip(self):
        assert decode_ack(encode_ack(ACK_OK)) == (ACK_OK, 3)
        assert decode_ack(encode_ack(ACK_BAD_VERSION))[0] == ACK_BAD_VERSION

    def test_truncated_hello_rejected(self):
        with pytest.raises(ValueError):
            decode_hello(b"DT")


class _Harness:
    """A pair-of-endpoints fixture over real loopback sockets."""

    def __init__(self):
        self.loop = LoopThread(name="test-io")
        self.loop.start()
        self.directory = {}
        self.delivered = []
        self.endpoints = []

    def endpoint(self, ip, port=0, **kw):
        ep = SocketEndpoint(
            ip,
            deliver=lambda src, dst, data: self.delivered.append(
                (src, dst, data)),
            resolve=lambda dst: self.directory[dst],
            loop=self.loop, **kw)
        self.directory[ip] = ("127.0.0.1", ep.start(port))
        self.endpoints.append(ep)
        return ep

    def send(self, ep, dst, data):
        """Endpoints are driven from their loop."""
        self.loop.call(ep.send, dst, data)

    def close(self):
        for ep in self.endpoints:
            ep.close()
        self.loop.stop()


@pytest.fixture
def harness():
    h = _Harness()
    try:
        yield h
    finally:
        h.close()


class TestSocketEndpoint:
    def test_records_delivered_across_links(self, harness):
        a = harness.endpoint("a")
        harness.endpoint("b")
        payloads = [b"r%d" % i for i in range(50)]
        for p in payloads:
            harness.send(a, "b", p)
        assert wait_until(lambda: len(harness.delivered) == 50)
        assert [d for (_s, _d, d) in harness.delivered] == payloads
        assert all(src == "a" and dst == "b"
                   for (src, dst, _data) in harness.delivered)
        assert a.stats.handshakes == 1

    def test_version_mismatch_rejected(self, monkeypatch, harness):
        # a's hellos claim version 1; b accepts WIRE_VERSION == 3 only.
        monkeypatch.setattr(socket_transport, "encode_hello",
                            functools.partial(encode_hello, version=1))
        a = harness.endpoint("a")
        b = harness.endpoint("b")
        harness.send(a, "b", b"doomed")
        assert wait_until(lambda: a.records_dropped >= 1)
        assert a.stats.handshake_failures >= 1
        assert b.stats.handshake_failures >= 1
        assert harness.delivered == []
        # The link is dead-lettered, not retried: further sends drop
        # immediately instead of queueing forever.
        harness.send(a, "b", b"also-doomed")
        assert a.records_dropped >= 2

    def test_version_1_hello_acked_bad_version(self, harness):
        # Version 1 carried a code-cache generation after the attempt;
        # a peer still speaking it is refused, not misparsed.
        harness.endpoint("b")
        v1_hello = struct.pack(">4sBIIH", b"DTCO", 1, 1, 9, 1) + b"a"
        with stdlib_socket.create_connection(harness.directory["b"],
                                             timeout=10) as conn:
            conn.sendall(encode_record(v1_hello))
            reply = b""
            while len(reply) < 4 + 6:
                chunk = conn.recv(64)
                if not chunk:
                    break
                reply += chunk
        assert decode_ack(reply[4:])[0] == ACK_BAD_VERSION

    def test_oversized_record_closes_only_its_connection(self, caplog,
                                                         harness):
        # A valid HELLO, then a length prefix past MAX_RECORD: the
        # acceptor drops that connection without a log line and serves
        # the next dialer.
        caplog.set_level(logging.WARNING, logger="asyncio")
        harness.endpoint("b")
        with stdlib_socket.create_connection(harness.directory["b"],
                                             timeout=10) as conn:
            conn.sendall(encode_record(encode_hello("x", 1))
                         + struct.pack(">I", MAX_RECORD + 1))
            try:
                while conn.recv(64):       # until b closes it
                    pass
            except ConnectionResetError:
                pass
        a = harness.endpoint("a")
        harness.send(a, "b", b"after")
        assert wait_until(lambda: harness.delivered == [("a", "b", b"after")])
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    @staticmethod
    def _send_and_read(address, data):
        """Send ``data`` in one write; everything read until the close."""
        reply = b""
        with stdlib_socket.create_connection(address, timeout=10) as conn:
            conn.sendall(data)
            try:
                while chunk := conn.recv(64):
                    reply += chunk
            except ConnectionResetError:
                pass
        return reply

    def test_hello_ahead_of_a_bad_prefix_is_acked(self, harness):
        harness.endpoint("b")
        reply = self._send_and_read(
            harness.directory["b"],
            encode_record(encode_hello("x", 1))
            + struct.pack(">I", MAX_RECORD + 1))
        assert reply[:4] == struct.pack(">I", 6)
        assert decode_ack(reply[4:10]) == (ACK_OK, 3)

    def test_records_ahead_of_a_bad_prefix_are_delivered(self, harness):
        # One chunk: HELLO, two records, then a prefix past MAX_RECORD.
        # The two records arrive before the connection is dropped.
        harness.endpoint("b")
        self._send_and_read(
            harness.directory["b"],
            encode_record(encode_hello("x", 1)) + encode_record(b"one")
            + encode_record(b"two") + struct.pack(">I", MAX_RECORD + 1))
        assert wait_until(lambda: len(harness.delivered) == 2, timeout=2)
        assert harness.delivered == [("x", "b", b"one"), ("x", "b", b"two")]

    def test_reconnect_with_backoff_after_peer_restart(self, monkeypatch,
                                                       harness):
        monkeypatch.setattr(socket_transport, "BACKOFF_BASE", 0.01)
        monkeypatch.setattr(socket_transport, "BACKOFF_CAP", 0.1)
        resets, b_resets = [], []
        a = harness.endpoint("a", on_link_reset=resets.append)
        b = harness.endpoint("b")
        b_port = harness.directory["b"][1]
        harness.send(a, "b", b"before")
        assert wait_until(lambda: len(harness.delivered) == 1)
        # Kill b entirely, then poke the link until a notices the drop.
        b.close()
        harness.endpoints.remove(b)
        harness.send(a, "b", b"sacrificial")
        assert wait_until(lambda: a.stats.resets >= 1)
        # Queue real traffic while the peer is down, then bring it back
        # on the same port: the link must redial and drain the queue.
        harness.send(a, "b", b"queued-during-outage")
        harness.endpoint("b", port=b_port, on_link_reset=b_resets.append)
        assert wait_until(lambda: any(
            data == b"queued-during-outage"
            for (_s, _d, data) in harness.delivered))
        assert a.stats.reconnects >= 1
        assert resets == ["b"]
        assert b_resets == ["a"]           # a's hello said "reconnect"


class TestSocketWorld:
    def _run(self, programs, timeout=30.0, **world_kw):
        world = SocketWorld(**world_kw)
        net = DiTyCONetwork(world=world)
        net.add_nodes(sorted({ip for ip, _, _ in programs}))
        try:
            for ip, name, src in programs:
                net.launch(ip, name, src)
            net.run(max_time=timeout)
            return net, world
        finally:
            world.shutdown()

    def test_remote_message_over_tcp(self):
        net, world = self._run([("n1", "server", SERVER),
                                ("n2", "client", CLIENT)])
        assert net.site("client").output == [7]
        assert world.stats.packets >= 2
        assert world.records_delivered == world.records_sent
        assert world.stats.handshakes >= 2   # one connection each way

    def test_fetch_over_tcp(self):
        net, _world = self._run([
            ("n1", "server", "export def Applet(x) = x![6 * 7] in 0"),
            ("n2", "client",
             "import Applet from server in new v (Applet[v] | v?(w) = print![w])"),
        ])
        assert net.site("client").output == [42]
        assert net.site("client").stats.fetch_requests_sent == 1

    def test_unknown_destination_raises(self):
        world = SocketWorld()
        try:
            with pytest.raises(LookupError):
                world._send("a", "ghost", b"data")
        finally:
            world.shutdown()

    def test_quiescence_timeout(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            net.launch("n1", "diverge", "def Loop(n) = Loop[n + 1] in Loop[0]")
            with pytest.raises(TimeoutError):
                net.run(max_time=0.3)
        finally:
            world.shutdown()

    def test_run_waits_for_a_planned_action(self):
        # The network is quiet before the action falls due; run() must
        # still wait for it, and for the work it starts.
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            net.run(max_time=10.0)
            fired = []
            at = world.time + 0.2

            def arrive():
                fired.append(world.time)
                net.launch("n1", "late", "print![5]")

            world.schedule_at(at, arrive)
            net.run(max_time=10.0)
            assert fired and fired[0] >= at
            assert net.site("late").output == [5]
            # A time already past fires at once; the simulator would
            # refuse it instead.
            world.schedule_at(0.0, lambda: fired.append("past"))
            net.run(max_time=10.0)
            assert fired[-1] == "past"
        finally:
            world.shutdown()

    def test_a_cancelled_planned_action_is_not_waited_for(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            world.start()
            fired = []
            cancel = world.schedule_at(world.time + 30.0,
                                       lambda: fired.append("late"))
            assert world.call(lambda: world._timers) == 1
            cancel()
            assert world.call(lambda: world._timers) == 0
            assert net.run(max_time=10.0) < 5.0
            cancel()                 # a second cancel changes nothing
            assert world.call(lambda: world._timers) == 0
            assert fired == []
        finally:
            world.shutdown()

    def test_a_failing_planned_action_ends_run(self):
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            world.start()
            world.schedule_at(world.time, lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                net.run(max_time=5.0)
        finally:
            world.shutdown()

    def test_undecodable_record_is_a_delivery_error(self):
        from repro.runtime.site import DeliveryError
        from repro.runtime.wire import WireError

        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_node("n1")
        try:
            world.start()
            with stdlib_socket.create_connection(
                    ("127.0.0.1", world.endpoint("n1").port),
                    timeout=10) as conn:
                conn.sendall(encode_record(encode_hello("x", 1))
                             + encode_record(b"\xff"))
                assert wait_until(lambda: world.records_delivered == 1)
            with pytest.raises(DeliveryError, match="n1") as info:
                net.run(max_time=5.0)
            assert isinstance(info.value.__cause__, WireError)
        finally:
            world.shutdown()

    def test_world_metrics_gain_socket_gauges(self):
        from repro.obs import world_metrics

        _net, world = self._run([("n1", "server", SERVER),
                                 ("n2", "client", CLIENT)])
        text = world_metrics(world).render()
        assert "repro_socket_handshakes_total" in text
        assert "repro_socket_reconnects_total 0" in text

    def test_sim_world_metrics_unchanged(self):
        from repro.obs import world_metrics

        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", SERVER)
        net.launch("n2", "client", CLIENT)
        net.run()
        assert "repro_socket_" not in world_metrics(net.world).render()

    def test_clean_shutdown_no_leaks(self):
        before = set(threading.enumerate())
        net, world = self._run([("n1", "server", SERVER),
                                ("n2", "client", CLIENT)])
        # _run already shut the world down; everything must be at rest.
        assert not world.io.alive
        for ip in ("n1", "n2"):
            ep = world.endpoint(ip)
            assert ep.pending_tasks() == 0
            assert ep._server is None
            assert not ep._inbound
        assert dityco_threads(before) == []
        world.shutdown()                  # idempotent
        assert net.site("client").output == [7]

    def test_backpressure_defers_the_node(self, monkeypatch):
        # A link held down for its first three dials, with room for 4:
        # the client's node is not stepped while the queue is full, so
        # the queue overshoots the limit by at most one quantum's
        # records, and every record still arrives, in send order.
        from repro.runtime.node import Node

        n = 24
        monkeypatch.setattr(socket_transport, "QUEUE_LIMIT", 4)
        monkeypatch.setattr(socket_transport, "QUANTUM", 16)
        monkeypatch.setattr("repro.runtime.node.BATCHING", False)
        world = SocketWorld()
        resolve = world._resolve
        outage = iter(range(3))

        def resolve_after_outage(src_ip, dst_ip):
            if next(outage, None) is not None:
                raise LookupError(f"{dst_ip} is not in the directory yet")
            return resolve(src_ip, dst_ip)

        monkeypatch.setattr(world, "_resolve", resolve_after_outage)
        depths = []
        step = Node.step

        def recording_step(node, quantum):
            depths.append(max(world.endpoint(node.ip).queue_depths().values(),
                              default=0))
            return step(node, quantum)

        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        monkeypatch.setattr(Node, "step", recording_step)
        try:
            net.launch("n1", "server", (
                "def Serve(c) = c?(v) = (print![v] | Serve[c]) "
                "in export new svc Serve[svc]"))
            net.launch("n2", "client", (
                "import svc from server in "
                f"def Send(k) = if k < {n} then (svc![k] | Send[k + 1]) "
                "else 0 in Send[0]"))
            net.run(max_time=30.0)
        finally:
            world.shutdown()
        assert net.site("server").output == list(range(n))
        assert world.stats.backpressure_waits > 0
        assert 4 <= world.stats.queue_peak <= 4 + world.quantum
        assert max(depths) < 4          # no step began at the limit


class TestThreadModel:
    """One loop thread steps a socket process: no per-node threads."""

    SERVER = ("def Serve(c) = c?(r) = (r![7] | Serve[c]) "
              "in export new svc Serve[svc]")
    CLIENT = ("import svc from server in "
              "new a (svc![a] | a?(w) = print![w])")

    def test_every_node_call_runs_on_the_loop(self, monkeypatch):
        from repro.runtime.node import Node
        from repro.runtime.site import Site

        seen = []

        def record(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                seen.append((f"{cls.__name__}.{name}",
                             threading.current_thread().name))
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for cls, name in ((Node, "step"), (Node, "receive"),
                          (Site, "step"), (Node, "_on_ns_update")):
            record(cls, name)
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2", "n3"])
        try:
            world.start()
            # The first client's import stalls until the server exports.
            net.launch("n2", "early", self.CLIENT)
            launcher = threading.Thread(target=lambda: [
                net.launch("n3", f"c{i}", self.CLIENT) for i in range(5)])
            launcher.start()
            launcher.join(timeout=30.0)
            assert not launcher.is_alive()
            net.launch("n1", "server", self.SERVER)
            net.run(max_time=30.0)
        finally:
            world.shutdown()
        assert net.site("early").output == [7]
        assert all(net.site(f"c{i}").output == [7] for i in range(5))
        assert {name for name, _ in seen} == {
            "Node.step", "Node.receive", "Site.step", "Node._on_ns_update"}
        assert {thread for _, thread in seen} == {"dityco-io"}

    def test_the_loop_is_the_only_thread(self):
        before = set(threading.enumerate())
        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2", "n3"])
        try:
            net.launch("n1", "server", self.SERVER)
            net.launch("n2", "client", self.CLIENT)
            net.run(max_time=30.0)
            assert dityco_threads(before) == ["dityco-io"]
            net.launch("n3", "late", self.CLIENT)
            net.run(max_time=30.0)
            assert dityco_threads(before) == ["dityco-io"]
        finally:
            world.shutdown()
        assert net.site("late").output == [7]
        assert dityco_threads(before) == []

    def test_a_failing_node_ends_run(self):
        from repro.vm.machine import VMRuntimeError

        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        try:
            world.start()
            net.launch("n1", "bad", "print![1 + true]")
            started = time.monotonic()
            with pytest.raises(VMRuntimeError):
                net.run(max_time=5.0)
            assert time.monotonic() - started < 2.0
            # The node stays stopped: the next run raises it again.
            with pytest.raises(VMRuntimeError):
                net.run(max_time=5.0)
        finally:
            world.shutdown()


class TestLoopCost:
    """A record is a ``transport.write`` on one side and a
    ``data_received`` on the other: no task per record."""

    SERVER = ("export new svc def Serve(self) = "
              "self?{ call(k, reply) = (reply![k + 1] | Serve[self]) } "
              "in Serve[svc]")

    def _tasks_for_chain(self, rounds):
        client_src = (
            "import svc from server in def Loop(k) = "
            f"if k < {rounds} then new a (svc!call[k, a] | "
            "a?(v) = (print![v] | Loop[k + 1])) else 0 in Loop[0]")
        world = SocketWorld()
        loop = world.io.loop
        created = []
        create_task = loop.create_task

        def counting_create_task(*args, **kwargs):
            created.append(1)
            return create_task(*args, **kwargs)

        loop.create_task = counting_create_task
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        try:
            net.launch("n1", "server", self.SERVER)
            client = net.launch("n2", "client", client_src)
            world.start()
            # Poll from this thread: run() would hop onto the loop.
            assert wait_until(lambda: len(client.output) == rounds,
                              timeout=60.0)
            tasks = len(created)
            net.run(max_time=10.0)
        finally:
            world.shutdown()
        assert client.output == list(range(1, rounds + 1))
        return tasks

    def test_a_record_costs_no_task(self):
        assert self._tasks_for_chain(1000) <= self._tasks_for_chain(500)
