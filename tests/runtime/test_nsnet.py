"""Unit tests for the TCP name service (repro.runtime.nsnet)."""

import ast
import socket
import threading
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.runtime import DiTyCONetwork, wire
from repro.runtime.cluster import _DaemonControl, control_call
from repro.runtime.nameservice import NameServiceError, UnknownSiteName
from repro.runtime.nsnet import (NameServiceClient, NameServiceServer,
                                 recv_msg, recv_reply, send_msg)
from repro.transport.socket import encode_record
from repro.vm.values import NetRef


@pytest.fixture
def ns():
    server = NameServiceServer().start()
    client = NameServiceClient(server.host, server.port)
    try:
        yield server, client
    finally:
        client.close()
        server.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestRpcRoundtrips:
    def test_site_and_name_tables(self, ns):
        _server, client = ns
        sid = client.register_site("alpha", "n1")
        assert client.register_site("alpha", "n1") == sid  # idempotent
        client.export_name("alpha", "svc", heap_id=42)
        rec = client.lookup_site("alpha")
        assert (rec.site_name, rec.site_id, rec.ip) == ("alpha", sid, "n1")
        ref = client.lookup_name("alpha", "svc")
        assert (ref.heap_id, ref.site_id, ref.ip) == (42, sid, "n1")
        assert client.lookup_name("alpha", "missing") is None
        assert client.unregister_export("alpha", "svc") is True
        assert client.lookup_name("alpha", "svc") is None
        client.export_name("alpha", "svc", heap_id=42)
        assert client.unregister_site("alpha") is True
        assert client.unregister_site("alpha") is False
        assert client.lookup_name("alpha", "svc") is None
        with pytest.raises(UnknownSiteName):
            client.lookup_site("alpha")
        assert client.register_site("alpha", "n2") > sid

    def test_class_table(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        client.export_class("alpha", "Applet", class_id=7)
        ref = client.lookup_class("alpha", "Applet")
        assert (ref.class_id, ref.ip) == (7, "n1")
        assert client.unregister_class_export("alpha", "Applet") is True

    def test_snapshot_and_counts(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        client.register_site("beta", "n2")
        client.export_name("alpha", "svc", 1)
        snap = client.snapshot()
        assert sorted(snap["sites"]) == ["alpha", "beta"]
        assert snap["names"] == {("alpha", "svc"): 1}
        assert client.site_count() == 2
        assert client.exported_count() == 1
        assert [r.site_name for r in client.sites_at("n1")] == ["alpha"]

    def test_unregister_ip(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        client.register_site("beta", "n2")
        assert client.unregister_ip("n1") == ["alpha"]
        with pytest.raises(UnknownSiteName):
            client.lookup_site("alpha")

    def test_errors_cross_the_wire_typed(self, ns):
        _server, client = ns
        with pytest.raises(UnknownSiteName):
            client.lookup_site("ghost")
        client.register_site("alpha", "n1")
        with pytest.raises(NameServiceError):
            client.register_site("alpha", "other-ip")
        with pytest.raises(UnknownSiteName):
            client.export_name("ghost", "x", 1)


class TestNodeDirectory:
    def test_register_and_resolve(self, ns):
        _server, client = ns
        client.register_node("n1", "127.0.0.1", 4100)
        assert client.node_addr("n1") == ("127.0.0.1", 4100)
        assert client.nodes() == {"n1": ("127.0.0.1", 4100)}
        with pytest.raises(KeyError):
            client.node_addr("n2")

    def test_wait_for_nodes(self, ns):
        _server, client = ns
        client.register_node("n1", "h", 1)
        with pytest.raises(TimeoutError):
            client.wait_for_nodes(["n1", "n2"], timeout=0.1)
        client.register_node("n2", "h", 2)
        client.wait_for_nodes(["n1", "n2"], timeout=1.0)


class TestSubscriptions:
    def test_version_polling_fires_subscribers(self, ns):
        server, client = ns
        # A second client plays the role of another daemon: its
        # registrations must reach the first client's subscribers.
        other = NameServiceClient(server.host, server.port)
        fired = []
        client.subscribe(lambda: fired.append(1))
        try:
            other.register_site("alpha", "n1")
            other.export_name("alpha", "svc", 3)
            assert wait_until(lambda: fired)
        finally:
            other.close()

    def test_resubscribing_is_a_noop_and_order_is_first_subscription(self, ns):
        # A daemon subscribes Node._on_ns_update once per site it
        # creates; the poller must still run it once per version bump.
        class Waiter:
            def __init__(self, tag, log):
                self.tag, self.log = tag, log

            def woken(self):
                self.log.append(self.tag)

        _server, client = ns
        log = []
        first, second = Waiter("first", log), Waiter("second", log)
        for _ in range(100):
            client.subscribe(first.woken)
        client.subscribe(second.woken)
        client.subscribe(first.woken)
        client.register_site("alpha", "n1")
        # "second" runs last, so seeing it means the bump's loop is over.
        assert wait_until(lambda: "second" in log)
        assert log == ["first", "second"]
        client.export_name("alpha", "svc", 3)
        assert wait_until(lambda: log.count("second") == 2)
        assert log == ["first", "second"] * 2

    def test_reconnects_after_transient_failure(self, ns):
        _server, client = ns
        client.register_site("alpha", "n1")
        # Sever the connection behind the client's back; the next call
        # must transparently redial.
        client._sock.close()
        assert client.lookup_site("alpha").site_name == "alpha"


def handlers_done():
    """No socketserver handler thread of this process is still running."""
    return wait_until(lambda: not any(
        "process_request_thread" in t.name for t in threading.enumerate()))


def send_and_close(addr, data):
    with socket.create_connection(addr, timeout=5.0) as sock:
        sock.sendall(data)


@pytest.fixture
def control():
    net = DiTyCONetwork()
    net.add_node("n1")
    ctl = _DaemonControl(net, net.world, "n1", "127.0.0.1", 0)
    try:
        yield ctl, ("127.0.0.1", ctl.port)
    finally:
        ctl.close()


class TornPeer:
    """A fake name server: answers every request of every connection
    with the same canned bytes, then closes."""

    def __init__(self, answer: bytes) -> None:
        self.answer = answer
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.02)
        self.addr = self._listener.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                self.connections += 1
                recv_msg(conn)
                conn.sendall(self.answer)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()
        self._listener.close()


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=False) | st.text(max_size=8)
           | st.binary(max_size=8))
WIRE_VALUES = st.recursive(
    SCALARS | st.builds(NetRef, st.integers(0, 99), st.integers(0, 99),
                        st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)


class TestTornRecords:
    """EOF inside a record, or a record that does not decode, is a
    typed error on the reading side and ends one connection only."""

    REPLY = encode_record(wire.encode(("ok", ("alpha", 1, "n1"))))

    def test_every_prefix_of_a_request_leaves_the_server_serving(
            self, ns, control, capfd):
        server, client = ns
        ctl, ctl_addr = control
        record = encode_record(wire.encode(("site_count",)))
        for addr in ((server.host, server.port), ctl_addr):
            for cut in range(len(record)):      # cut 2: a torn header
                send_and_close(addr, record[:cut])
            # Complete records that are not requests: an unknown tag,
            # bad UTF-8 in a str, a truncated tuple, nested past the
            # decoder's limit, a non-sequence, a bare str, a trailing
            # byte, and a length prefix over the record bound.
            for payload in (b"\xff", b"\x05\x02\xff\xfe", b"\x07\x02\x00",
                            b"\x07\x01" * 5000 + b"\x00", wire.encode(5),
                            wire.encode("shutdown"),
                            wire.encode(("site_count",)) + b"\x00"):
                send_and_close(addr, encode_record(payload))
            send_and_close(addr, b"\xff\xff\xff\xff")
        assert handlers_done()
        assert client.site_count() == 0
        assert control_call(ctl_addr, "ident")["ip"] == "n1"
        assert not ctl.shutdown_requested.is_set()
        assert capfd.readouterr().err == ""

    def test_non_sequence_control_request_is_an_err_reply(self, control):
        _ctl, addr = control
        with socket.create_connection(addr, timeout=5.0) as sock:
            send_msg(sock, 5)
            status, err_type, _message = recv_msg(sock)
            assert (status, err_type) == ("err", "TypeError")
            # ... and the connection keeps serving.
            send_msg(sock, ("ident",))
            assert recv_msg(sock)[0] == "ok"

    @pytest.mark.parametrize("answer", [
        REPLY[:3],                      # torn header
        REPLY[:len(REPLY) // 2],        # full header, half a payload
        b"",                            # EOF in place of the reply
    ], ids=["torn-header", "half-payload", "eof"])
    def test_client_gets_connection_error_after_one_retry(self, answer):
        peer = TornPeer(answer)
        client = NameServiceClient(*peer.addr)
        try:
            with pytest.raises(ConnectionError):
                client.lookup_site("alpha")
            assert peer.connections == 2
        finally:
            client.close()
            peer.close()

    @pytest.mark.parametrize("payload", [
        b"\x07\x02\x00", b"\x05\x01\xff", b"\xff", wire.encode(5),
        wire.encode(("ok",)), wire.encode(("maybe", 1)),
        wire.encode(("err", [1], "m"))],
        ids=["unbalanced", "bad-utf8", "unknown-tag", "non-tuple",
             "short-ok", "unknown-status", "unhashable-err-type"])
    def test_garbled_reply_is_a_value_error(self, payload):
        peer = TornPeer(encode_record(payload))
        client = NameServiceClient(*peer.addr)
        try:
            with pytest.raises(ValueError):
                client.lookup_site("alpha")
            with pytest.raises(ValueError):
                control_call(peer.addr, "ident")
        finally:
            client.close()
            peer.close()

    @settings(max_examples=100, deadline=None)
    @given(obj=WIRE_VALUES, data=st.data())
    def test_strict_prefix_then_eof_is_none_or_connection_error(
            self, obj, data):
        record = encode_record(wire.encode(obj))
        cut = data.draw(st.integers(0, len(record) - 1))
        reader, writer = socket.socketpair()
        with reader, writer:
            writer.sendall(record[:cut])
            writer.shutdown(socket.SHUT_WR)
            if cut == 0:
                assert recv_msg(reader) is None
            else:
                with pytest.raises(ConnectionError):
                    recv_msg(reader)
        reader, writer = socket.socketpair()
        with reader, writer:
            writer.sendall(record)
            writer.shutdown(socket.SHUT_WR)
            assert recv_msg(reader) == obj
            assert recv_msg(reader) is None


class TestPoller:
    """A reply the poller cannot use -- one that does not decode, or an
    error -- is skipped: the thread lives on for the next bump."""

    @pytest.mark.parametrize("answer", [
        encode_record(b"\xff"),
        encode_record(wire.encode(("err", "KeyError", "x")))],
        ids=["undecodable", "err-reply"])
    def test_poller_survives_a_bad_version_reply(self, answer):
        peer = TornPeer(answer)
        client = NameServiceClient(*peer.addr)
        try:
            client.subscribe(lambda: None)
            time.sleep(0.2)
            assert client._poller.is_alive()
        finally:
            client.close()
            peer.close()


class TestRowTypes:
    """The tables hold only what a snapshot can send back out."""

    @pytest.mark.parametrize("method, args", [
        ("register_site", (5, "n1")),
        ("register_site", ("beta", None)),
        ("export_name", ("alpha", "svc", True)),
        ("export_class", ("alpha", 7, 1)),
        ("rebind_site", ("alpha", "n2", "1")),
        ("register_node", ("n1", "127.0.0.1", 4100.0)),
    ])
    def test_a_row_the_wire_cannot_carry_is_an_err_reply(
            self, ns, method, args):
        _server, client = ns
        client.register_site("alpha", "n1")
        before = client.snapshot(), client.nodes()
        with pytest.raises(NameServiceError, match="expected"):
            getattr(client, method)(*args)
        assert (client.snapshot(), client.nodes()) == before


def rpc_names(target):
    return sorted(name[len("_rpc_"):] for name in dir(target)
                  if name.startswith("_rpc_"))


class TestHostileRequests:
    """Both servers, any input: a reply or a closed connection, never a
    traceback, and the next client is served."""

    def test_any_record_gets_an_err_reply_or_closes_its_connection(
            self, ns, control, capfd):
        server, client = ns
        _ctl, ctl_addr = control

        @settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
        @given(payload=st.binary(max_size=48)
               | WIRE_VALUES.map(wire.encode))
        def check(payload):
            for addr in ((server.host, server.port), ctl_addr):
                with socket.create_connection(addr, timeout=5.0) as sock:
                    sock.sendall(encode_record(payload))
                    try:
                        reply = recv_msg(sock)
                    except ConnectionError:     # reset by the server
                        reply = None
                    assert reply is None or reply[0] == "err"

        check()
        assert handlers_done()
        assert client.site_count() == 0
        assert control_call(ctl_addr, "ident")["ip"] == "n1"
        assert capfd.readouterr().err == ""

    def test_every_well_framed_request_gets_ok_or_err(
            self, ns, control, capfd):
        server, client = ns
        ctl, ctl_addr = control
        servers = [((server.host, server.port), rpc_names(server)),
                   (ctl_addr, rpc_names(ctl))]
        args = st.sampled_from(["alpha", "n1", 1, 5, True, None]) \
            | WIRE_VALUES

        @settings(max_examples=150, deadline=None, derandomize=True,
                  database=None)
        @given(data=st.data())
        def check(data):
            for addr, names in servers:
                method = data.draw(st.sampled_from(names)
                                   | st.text(max_size=8))
                request = (method, *data.draw(st.lists(args, max_size=3)))
                with socket.create_connection(addr, timeout=5.0) as sock:
                    send_msg(sock, request)
                    assert recv_reply(sock)[0] in ("ok", "err")

        check()
        assert handlers_done()
        client.snapshot()
        client.nodes()
        client.site_count()
        assert capfd.readouterr().err == ""


def test_no_runtime_or_obs_module_imports_ast():
    """One codec: the control plane has no ``literal_eval`` path."""
    root = Path(repro.__file__).parent
    for path in sorted([*(root / "runtime").glob("*.py"),
                        *(root / "obs").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert "ast" not in modules, path
