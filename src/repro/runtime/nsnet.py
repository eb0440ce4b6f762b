"""The network name service over TCP (multi-process deployments).

In-process worlds share one :class:`~repro.runtime.nameservice.NameService`
object; when each node is a genuine OS process (``python -m repro
daemon``), the paper's "centralized [service] ... all sites know its
location in advance" becomes a real server: :class:`NameServiceServer`
wraps the plain NameService behind a tiny RPC loop, and
:class:`NameServiceClient` is a drop-in replacement for the object API
that sites and nodes already use.

Wire format: the transport's length-prefixed records
(:func:`repro.transport.socket.encode_record`), each carrying one
:func:`repro.runtime.wire.encode`'d tuple -- ``(method, *args)`` up,
``("ok", result)`` or ``("err", exception_type, message)`` down -- read
with the data plane's decoder and error rule.  :class:`RpcServer` is
the one server loop, here and on the daemon control port.

Subscriptions (sites retry pending imports when *anything* registers)
cannot be pushed over a request/response socket, so the server keeps a
**version counter** bumped on every registration and the client polls
it from a daemon thread, firing local subscriber callbacks whenever
the version moved -- through :attr:`NameServiceClient.handoff`, which
a daemon points at its world's loop.  The poll interval only delays
import retries, not correctness -- a registration is visible to
lookups immediately.

The server also keeps the **node directory** (``register_node`` /
``node_addr``): each daemon publishes its transport listening address
at startup, which is how peers' :class:`SocketEndpoint` links resolve
destinations (the static IP topology table of section 5).
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import Callable, Optional

from repro.transport.clock import monotime
from repro.transport.socket import MAX_RECORD, encode_record, _LEN
from repro.vm.values import NetRef, RemoteClassRef

from . import wire
from .nameservice import (
    NameService,
    NameServiceError,
    SiteRecord,
    UnknownSiteName,
)

#: How often a subscribed client asks the server for its version.
POLL_INTERVAL_S = 0.02
#: Connect timeout, and the blocking-socket timeout of every call.
CALL_TIMEOUT_S = 10.0

_ERRORS = {
    "NameServiceError": NameServiceError,
    "UnknownSiteName": UnknownSiteName,
    "KeyError": KeyError,
    "LookupError": LookupError,
}


def send_msg(sock: socket.socket, obj: object) -> None:
    sock.sendall(encode_record(wire.encode(obj)))


def recv_msg(sock: socket.socket) -> object:
    """One length-prefixed wire value off a blocking socket.

    ``None`` only for a clean EOF *between* records.  EOF anywhere
    inside one raises ``ConnectionError``; a complete record that is
    oversized or whose payload does not decode raises ``ValueError``.
    """
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (size,) = _LEN.unpack(header)
    if size > MAX_RECORD:
        raise ValueError(f"record of {size} bytes exceeds limit")
    payload = _recv_exact(sock, size)
    if payload is None:
        raise ConnectionError("connection closed mid-record")
    try:
        return wire.decode(payload)
    except wire.WireError as exc:
        raise ValueError(f"record does not decode: {exc}") from None


def recv_reply(sock: socket.socket) -> tuple:
    """The answer to one request: ``("ok", result)`` or ``("err",
    exception_type, message)`` with two strs.  EOF in its place is a
    ``ConnectionError``, any other value a ``ValueError``."""
    reply = recv_msg(sock)
    if reply is None:
        raise ConnectionError("connection closed before the reply")
    if isinstance(reply, tuple) and (
            (len(reply) == 2 and reply[0] == "ok")
            or (len(reply) == 3 and reply[0] == "err"
                and all(isinstance(part, str) for part in reply[1:]))):
        return reply
    raise ValueError(f"malformed reply {reply!r:.80}")


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Exactly ``n`` bytes; ``None`` if the peer closed before the
    first of them, ``ConnectionError`` if it closed after."""
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise ConnectionError("connection closed mid-record")
            return None
        buf += chunk
    return buf


class _RpcHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        # A torn, oversized or undecodable record, or a peer gone
        # before its reply, ends this connection only.  A request that
        # decodes gets ("ok", result) or ("err", type, message) -- an
        # err also when the result does not encode.
        try:
            while (msg := recv_msg(self.request)) is not None:
                try:
                    method, *args = msg
                    result = self.server.dispatch(method, args)
                    reply = wire.encode(("ok", result))
                except Exception as exc:  # noqa: BLE001 - to the caller
                    reply = wire.encode(("err", type(exc).__name__,
                                         str(exc)))
                self.request.sendall(encode_record(reply))
        except (OSError, ValueError):
            return


class RpcServer(socketserver.ThreadingTCPServer):
    """The control plane's one RPC loop: a ``(method, *args)`` record
    calls the subclass's ``_rpc_<method>(*args)``, one reply per
    request until the client's EOF.  The name service and the daemon
    control port both subclass it."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str, port: int, name: str) -> None:
        super().__init__((host, port), _RpcHandler)
        self.host, self.port = self.server_address[:2]
        self._thread = threading.Thread(target=self.serve_forever,
                                        name=name, daemon=True)

    def dispatch(self, method, args):
        return getattr(self, f"_rpc_{method}")(*args)

    def start(self) -> "RpcServer":
        self._thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()


def _check(kind: type, *values) -> None:
    """A table row holds ``str`` names and ips and ``int`` (not
    ``bool``) ids and ports, or a later snapshot could not encode it."""
    for value in values:
        if type(value) is not kind:
            raise TypeError(f"expected {kind.__name__}, got {value!r:.40}")


class NameServiceServer(RpcServer):
    """The name service as an actual TCP server (one per cluster)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.ns = NameService()
        self._version = 0
        self._nodes: dict[str, tuple[str, int]] = {}
        self._lock = threading.Lock()
        self.ns.subscribe(self._bump)
        super().__init__(host, port, "dityco-ns")

    def _bump(self) -> None:
        with self._lock:
            self._version += 1

    # -- RPCs ----------------------------------------------------------------

    def _rpc_version(self):
        with self._lock:
            return self._version

    def _rpc_register_site(self, site_name, ip):
        _check(str, site_name, ip)
        return self.ns.register_site(site_name, ip)

    def _rpc_export_name(self, site_name, id_name, heap_id):
        _check(str, site_name, id_name)
        _check(int, heap_id)
        self.ns.export_name(site_name, id_name, heap_id)

    def _rpc_export_class(self, site_name, id_name, class_id):
        _check(str, site_name, id_name)
        _check(int, class_id)
        self.ns.export_class(site_name, id_name, class_id)

    def _rpc_lookup_site(self, site_name):
        rec = self.ns.lookup_site(site_name)
        return (rec.site_name, rec.site_id, rec.ip)

    def _rpc_lookup_name(self, site_name, id_name):
        ref = self.ns.lookup_name(site_name, id_name)
        return None if ref is None else (ref.heap_id, ref.site_id, ref.ip)

    def _rpc_lookup_class(self, site_name, id_name):
        ref = self.ns.lookup_class(site_name, id_name)
        return None if ref is None else (ref.class_id, ref.site_id, ref.ip)

    def _rpc_rebind_site(self, site_name, new_ip, site_id):
        _check(str, site_name, new_ip)
        if site_id is not None:
            _check(int, site_id)
        return self.ns.rebind_site(site_name, new_ip, site_id=site_id)

    def _rpc_unregister_site(self, site_name):
        return self.ns.unregister_site(site_name)

    def _rpc_unregister_export(self, site_name, id_name):
        return self.ns.unregister_export(site_name, id_name)

    def _rpc_unregister_class_export(self, site_name, id_name):
        return self.ns.unregister_class_export(site_name, id_name)

    def _rpc_unregister_ip(self, ip):
        return self.ns.unregister_ip(ip)

    def _rpc_sites_at(self, ip):
        return [(r.site_name, r.site_id, r.ip) for r in self.ns.sites_at(ip)]

    def _rpc_site_count(self):
        return self.ns.site_count()

    def _rpc_exported_count(self):
        return self.ns.exported_count()

    def _rpc_snapshot(self):
        # IdTable / ClassTable keys are (site, id) pairs and wire dicts
        # take str keys, so those two travel as (site, id, value) rows.
        snap = self.ns.snapshot()
        return {"sites": {k: (r.site_name, r.site_id, r.ip)
                          for k, r in snap["sites"].items()},
                "names": [(*key, v) for key, v in snap["names"].items()],
                "classes": [(*key, v) for key, v in snap["classes"].items()]}

    def _rpc_register_node(self, ip, host, port):
        _check(str, ip, host)
        _check(int, port)
        with self._lock:
            self._nodes[ip] = (host, port)
        self._bump()

    def _rpc_node_addr(self, ip):
        with self._lock:
            if ip not in self._nodes:
                raise KeyError(f"no node registered at {ip!r}")
            return self._nodes[ip]

    def _rpc_nodes(self):
        with self._lock:
            return dict(self._nodes)


class NameServiceClient:
    """The NameService object API, remoted over one TCP connection.

    Drop-in for sites/nodes: ``DiTyCONetwork(nameservice=client)``.
    Calls are synchronous request/response under a lock (the world's
    loop and the poller call in concurrently); :meth:`subscribe` lazily
    starts the version poller thread, which runs each subscriber
    callback through :attr:`handoff`.
    """

    def __init__(self, host: str, port: int) -> None:
        self.addr = (host, port)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._subscribers: dict[Callable[[], None], None] = {}
        self._poller: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._seen_version = 0
        #: How the poller runs a subscriber callback (a daemon hands it
        #: to the loop that steps its node).
        self.handoff: Callable[[Callable[[], None]], None] = lambda fn: fn()

    # -- plumbing ------------------------------------------------------------

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self.addr, timeout=CALL_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _call(self, method: str, *args):
        with self._lock:
            for attempt in (1, 2):
                if self._sock is None:
                    self._sock = self._connect()
                try:
                    send_msg(self._sock, (method, *args))
                    reply = recv_reply(self._sock)
                    break
                except (OSError, ValueError):
                    # Closed, torn or garbled: the stream cannot be
                    # trusted past this point, so reconnect once.
                    self._sock.close()
                    self._sock = None
                    if attempt == 2:
                        raise
        if reply[0] == "ok":
            return reply[1]
        _status, err_type, message = reply
        raise _ERRORS.get(err_type, NameServiceError)(message)

    def close(self) -> None:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=2.0)
        with self._lock:
            if self._sock is not None:
                self._sock.close()
                self._sock = None

    # -- NameService API -----------------------------------------------------

    def register_site(self, site_name: str, ip: str) -> int:
        return self._call("register_site", site_name, ip)

    def export_name(self, site_name: str, id_name: str, heap_id: int) -> None:
        self._call("export_name", site_name, id_name, heap_id)

    def export_class(self, site_name: str, id_name: str,
                     class_id: int) -> None:
        self._call("export_class", site_name, id_name, class_id)

    def lookup_site(self, site_name: str) -> SiteRecord:
        return SiteRecord(*self._call("lookup_site", site_name))

    def lookup_name(self, site_name: str, id_name: str) -> Optional[NetRef]:
        got = self._call("lookup_name", site_name, id_name)
        if got is None:
            return None
        heap_id, site_id, ip = got
        return NetRef(heap_id=heap_id, site_id=site_id, ip=ip)

    def lookup_class(self, site_name: str,
                     id_name: str) -> Optional[RemoteClassRef]:
        got = self._call("lookup_class", site_name, id_name)
        if got is None:
            return None
        class_id, site_id, ip = got
        return RemoteClassRef(class_id=class_id, site_id=site_id, ip=ip)

    def rebind_site(self, site_name: str, new_ip: str,
                    site_id: Optional[int] = None) -> int:
        return self._call("rebind_site", site_name, new_ip, site_id)

    def unregister_site(self, site_name: str) -> bool:
        return self._call("unregister_site", site_name)

    def unregister_export(self, site_name: str, id_name: str) -> bool:
        return self._call("unregister_export", site_name, id_name)

    def unregister_class_export(self, site_name: str, id_name: str) -> bool:
        return self._call("unregister_class_export", site_name, id_name)

    def unregister_ip(self, ip: str) -> list[str]:
        return self._call("unregister_ip", ip)

    def sites_at(self, ip: str) -> list[SiteRecord]:
        return [SiteRecord(*row) for row in self._call("sites_at", ip)]

    def site_count(self) -> int:
        return self._call("site_count")

    def exported_count(self) -> int:
        return self._call("exported_count")

    def snapshot(self) -> dict:
        snap = self._call("snapshot")
        return {"sites": {k: SiteRecord(*row)
                          for k, row in snap["sites"].items()},
                "names": {(s, i): v for s, i, v in snap["names"]},
                "classes": {(s, i): v for s, i, v in snap["classes"]}}

    # -- node directory ------------------------------------------------------

    def register_node(self, ip: str, host: str, port: int) -> None:
        self._call("register_node", ip, host, port)

    def node_addr(self, ip: str) -> tuple[str, int]:
        return tuple(self._call("node_addr", ip))

    def nodes(self) -> dict[str, tuple[str, int]]:
        return {ip: tuple(addr)
                for ip, addr in self._call("nodes").items()}

    def wait_for_nodes(self, ips, timeout: float = 30.0) -> None:
        deadline = monotime() + timeout
        want = set(ips)
        while not want <= set(self._call("nodes")):
            if monotime() > deadline:
                missing = sorted(want - set(self._call("nodes")))
                raise TimeoutError(f"nodes never registered: {missing}")
            self._stop.wait(0.01)

    # -- subscriptions (version polling) -------------------------------------

    def subscribe(self, callback: Callable[[], None]) -> None:
        """Same rule as :meth:`NameService.subscribe`: a set, fired in
        first-subscription order on every version bump."""
        self._subscribers.setdefault(callback)
        if self._poller is None:
            self._poller = threading.Thread(
                target=self._poll_loop, name="dityco-ns-poll", daemon=True)
            self._poller.start()

    def _poll_loop(self) -> None:
        while not self._stop.is_set():
            try:
                version = self._call("version")
            except (OSError, ValueError, LookupError, NameServiceError):
                version = self._seen_version
            if version != self._seen_version:
                self._seen_version = version
                for cb in list(self._subscribers):
                    self.handoff(cb)
            self._stop.wait(POLL_INTERVAL_S)
