"""Real TCP transport: the paper's deployment substrate, over asyncio.

"Inter-node communication uses sockets over TCP/IP" -- this module is
the first transport where a :class:`~repro.runtime.node.Node` talks to
its peers through an actual network stack instead of a function call.
Three layers (see docs/TRANSPORT.md):

* **stream framing** -- each TCP stream carries length-prefixed
  *records*; a record's payload is exactly one transport buffer, i.e.
  one wire-encoded packet or one multi-packet batch frame
  (:func:`repro.runtime.wire.encode_frame`) -- the PR2 wire format,
  verbatim.  :class:`StreamDecoder` reassembles records across
  arbitrary read boundaries.
* **per-link connections** -- every (src, dst) pair gets its own
  dialed connection (records flow one way per connection, like the
  paper's TyCOd channel pairs), opened lazily on first send, with a
  versioned handshake carrying the dialer's node id, connection
  attempt and code-cache generation.  Lost connections reconnect with
  capped exponential backoff; an unclean drop is surfaced to the node
  as :meth:`~repro.runtime.node.Node.on_link_reset` (crash-restart
  semantics: in-flight code requests re-drive, plain messages may be
  lost).
* **backpressure** -- each link owns an outbound queue, and a world
  does not step a node while one of its links holds
  :data:`QUEUE_LIMIT` records; the peak depth and the deferrals are
  visible in :class:`~repro.transport.base.TransportStats`.

:class:`SocketWorld` runs the whole network in one process on one
asyncio loop thread, which owns every endpoint and steps every node --
that is what the differential and chaos-proxy tests drive.
:mod:`repro.runtime.cluster` reuses it to run each node as a genuine
OS process (``python -m repro daemon``).
"""

from __future__ import annotations

import asyncio
import struct
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.node import Node

from .base import World
from .clock import monotime

MAGIC = b"DTCO"
#: Version of the stream protocol (framing + handshake layout).  The
#: *payload* format inside records is governed by docs/WIRE.md and
#: carries its own tags; this number only changes when the stream
#: layer itself does.
WIRE_VERSION = 1

#: Upper bound on one record: a defence against a desynchronised or
#: hostile stream turning a garbage length prefix into a giant
#: allocation.  Far above any real frame (code bundles are KBs).
MAX_RECORD = 16 * 1024 * 1024

#: Records a link queues before its node is deferred (backpressure).
QUEUE_LIMIT = 1024
#: Instructions a node may run per step, read when a world is built
#: (the simulator's is :data:`repro.transport.sim.QUANTUM`).
QUANTUM = 512
#: First redial delay after a failed connect or handshake; doubles per
#: failure up to :data:`BACKOFF_CAP` seconds.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 1.0

_LEN = struct.Struct(">I")
_HELLO = struct.Struct(">4sBIIH")     # magic, version, attempt, generation, len(ip)
_ACK = struct.Struct(">4sBB")         # magic, status, version

ACK_OK = 0
ACK_BAD_VERSION = 1
ACK_BAD_MAGIC = 2


def encode_record(payload: bytes) -> bytes:
    """One stream record: 4-byte big-endian length + payload."""
    return _LEN.pack(len(payload)) + payload


class StreamDecoder:
    """Incremental record reassembly over an arbitrary byte stream.

    Feed it whatever ``recv`` returned -- half a length prefix, three
    records and a tail, one byte -- and it yields each complete record
    payload exactly once, in order.  Kept free of any socket so the
    reassembly logic is unit-testable byte-by-byte.
    """

    def __init__(self, max_record: int = MAX_RECORD) -> None:
        self.max_record = max_record
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        self._buf.extend(data)
        out: list[bytes] = []
        while True:
            if len(self._buf) < _LEN.size:
                return out
            (size,) = _LEN.unpack_from(self._buf)
            if size > self.max_record:
                raise ValueError(
                    f"record of {size} bytes exceeds the "
                    f"{self.max_record}-byte bound (desynchronised stream?)")
            if len(self._buf) < _LEN.size + size:
                return out
            out.append(bytes(self._buf[_LEN.size:_LEN.size + size]))
            del self._buf[:_LEN.size + size]

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete record."""
        return len(self._buf)


def encode_hello(ip: str, attempt: int, generation: int,
                 version: int = WIRE_VERSION) -> bytes:
    raw = ip.encode()
    return _HELLO.pack(MAGIC, version, attempt, generation, len(raw)) + raw


def decode_hello(payload: bytes) -> tuple[bytes, int, int, int, str]:
    """-> (magic, version, attempt, generation, ip).  Raises ValueError
    on a truncated record."""
    if len(payload) < _HELLO.size:
        raise ValueError("truncated handshake")
    magic, version, attempt, generation, iplen = _HELLO.unpack_from(payload)
    ip = payload[_HELLO.size:_HELLO.size + iplen].decode()
    return magic, version, attempt, generation, ip


def encode_ack(status: int) -> bytes:
    return _ACK.pack(MAGIC, status, WIRE_VERSION)


def decode_ack(payload: bytes) -> tuple[int, int]:
    """-> (status, version)."""
    magic, status, version = _ACK.unpack_from(payload)
    if magic != MAGIC:
        raise ValueError("bad handshake ack")
    return status, version


class _Link:
    """Dialer-side state for one (src, dst) connection."""

    __slots__ = ("dst", "queue", "event", "task", "state", "attempt",
                 "writing", "dropped")

    def __init__(self, dst: str) -> None:
        self.dst = dst
        self.queue: deque[bytes] = deque()
        self.event: Optional[asyncio.Event] = None
        self.task: Optional[asyncio.Task] = None
        self.state = "connecting"      # connecting | up | rejected | closed
        self.attempt = 0
        self.writing = False
        self.dropped = 0

    def is_idle(self) -> bool:
        """Nothing queued, nothing mid-write, and not in a state where
        progress is still expected (a reconnecting link that already
        carried traffic counts as busy until it is back up)."""
        if self.queue or self.writing:
            return False
        if self.state == "connecting" and self.attempt >= 1:
            return False
        return True


class LoopThread:
    """One asyncio event loop on a daemon thread: the one thread of a
    process that touches an endpoint, a chaos relay or -- under
    :class:`SocketWorld` -- a node."""

    def __init__(self, name: str = "dityco-io") -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name=name,
                                        daemon=True)
        self._started = False

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()
        # Drain cancellations scheduled during shutdown, then close.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        if pending:
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self.loop.close()

    def start(self) -> None:
        if not self._started:
            self._started = True
            self._thread.start()

    def on_loop(self) -> bool:
        return threading.current_thread() is self._thread

    def call(self, fn, *args, timeout: float = 10.0):
        """Run ``fn(*args)`` on the loop from another thread; return its
        result (awaited if a coroutine) or raise its exception here."""
        async def run():
            result = fn(*args)
            return await result if asyncio.iscoroutine(result) else result
        return asyncio.run_coroutine_threadsafe(run(), self.loop).result(timeout)

    def stop(self, timeout: float = 5.0) -> None:
        if not self._started or not self._thread.is_alive():
            return
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()


class SocketEndpoint:
    """One node's TCP presence: a listening server for inbound records
    and one dialed link per destination for outbound records.

    Thread model: everything, :meth:`send` included, runs on the
    shared :class:`LoopThread`; only :meth:`start` and :meth:`close`
    are called from outside it.
    """

    def __init__(self, ip: str,
                 deliver: Callable[[str, str, bytes], None],
                 resolve: Callable[[str], tuple[str, int]],
                 loop: LoopThread,
                 stats=None,
                 on_link_reset: Optional[Callable[[str], None]] = None,
                 on_reset_observed: Optional[Callable[[str], None]] = None,
                 on_drain: Callable[[], None] = lambda: None,
                 generation: Callable[[], int] = lambda: 0,
                 host: str = "127.0.0.1") -> None:
        from .base import TransportStats

        self.ip = ip
        self.host = host
        self.port: Optional[int] = None
        self.deliver = deliver
        self.resolve = resolve
        self.loop = loop
        self.stats = stats if stats is not None else TransportStats()
        self.on_link_reset = on_link_reset
        self.on_reset_observed = on_reset_observed
        #: Told when a link's queue empties or drops below the limit.
        self.on_drain = on_drain
        self.generation = generation
        self._links: dict[str, _Link] = {}
        #: Destinations whose queue holds :data:`QUEUE_LIMIT` records or more.
        self.full: set[str] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._inbound: set[asyncio.StreamWriter] = set()
        #: Last handshake seen per dialing peer: ip -> (attempt, generation).
        self.peer_hello: dict[str, tuple[int, int]] = {}
        self.records_delivered = 0
        self.records_dropped = 0      # dead-lettered (rejected link)
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, port: int = 0) -> int:
        """Bind and start the listening server; returns the bound port."""
        self.port = self.loop.call(self._start, port)
        return self.port

    async def _start(self, port: int) -> int:
        self._server = await asyncio.start_server(
            self._serve, host=self.host, port=port)
        return self._server.sockets[0].getsockname()[1]

    def close(self) -> None:
        """Tear everything down (idempotent): link tasks, dialed
        connections, inbound connections, the server socket."""
        if self._closed:
            return
        self._closed = True
        if self.loop.alive:
            try:
                self.loop.call(self._close, timeout=5.0)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    async def _close(self) -> None:
        links = list(self._links.values())
        for link in links:
            link.state = "closed"
            if link.task is not None:
                link.task.cancel()
        tasks = [link.task for link in links if link.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for writer in list(self._inbound):
            writer.close()
        self._inbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def links_idle(self) -> bool:
        """Every link drained, at rest, and not mid-reconnect."""
        return all(link.is_idle() for link in self._links.values())

    def pending_tasks(self) -> int:
        """Link tasks not yet finished (0 after a clean close)."""
        return sum(1 for link in self._links.values()
                   if link.task is not None and not link.task.done())

    def queue_depths(self) -> dict[str, int]:
        """Outbound queue depth per destination ip (a point-in-time
        snapshot; the cluster plane's ``load`` scrape surfaces it)."""
        return {dst: len(link.queue) for dst, link in self._links.items()}

    # -- outbound ------------------------------------------------------------

    def send(self, dst_ip: str, data: bytes) -> None:
        """Queue one record for ``dst_ip`` (on the loop).  Never blocks:
        a queue that reaches :data:`QUEUE_LIMIT` puts ``dst_ip`` in
        :attr:`full` until the drain frees a slot.  Dead-letters the
        record if the link was rejected or closed."""
        link = self._links.get(dst_ip)
        if link is None:
            link = self._links[dst_ip] = _Link(dst_ip)
            if not self._closed:
                link.event = asyncio.Event()
                link.task = self.loop.loop.create_task(self._run_link(link))
        if link.state in ("rejected", "closed"):
            link.dropped += 1
            self.records_dropped += 1
            return
        queue = link.queue
        queue.append(data)
        depth = len(queue)
        if depth > self.stats.queue_peak:
            self.stats.queue_peak = depth
        if depth >= QUEUE_LIMIT:
            self.full.add(dst_ip)
        if link.event is not None:
            link.event.set()

    async def _run_link(self, link: _Link) -> None:
        backoff = BACKOFF_BASE
        while not self._closed and link.state != "closed":
            link.state = "connecting"
            try:
                host, port = await asyncio.get_running_loop().run_in_executor(
                    None, self.resolve, link.dst)
                reader, writer = await asyncio.open_connection(host, port)
            except (OSError, LookupError):
                # Peer unreachable or not yet in the directory (its
                # registration may still be propagating): back off.
                await asyncio.sleep(backoff)
                backoff = min(BACKOFF_CAP, backoff * 2)
                continue
            try:
                accepted = await self._handshake(link, reader, writer)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                writer.close()
                await asyncio.sleep(backoff)
                backoff = min(BACKOFF_CAP, backoff * 2)
                continue
            if not accepted:
                link.state = "rejected"
                self._dead_letter(link)
                writer.close()
                return
            backoff = BACKOFF_BASE
            link.attempt += 1
            link.state = "up"
            self.stats.handshakes += 1
            if link.attempt >= 2:
                self.stats.reconnects += 1
                if self.on_link_reset is not None:
                    self.on_link_reset(link.dst)
            try:
                await self._drain(link, reader, writer)
            except (OSError, ConnectionError):
                pass
            finally:
                link.writing = False
                writer.close()
            if self._closed or link.state == "closed":
                return
            # The connection died under us: unclean drop.
            self.stats.resets += 1
            if self.on_reset_observed is not None:
                self.on_reset_observed(link.dst)

    async def _handshake(self, link: _Link, reader, writer) -> bool:
        writer.write(encode_record(encode_hello(
            self.ip, link.attempt + 1, self.generation())))
        await writer.drain()
        size = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
        status, _version = decode_ack(await reader.readexactly(size))
        if status != ACK_OK:
            self.stats.handshake_failures += 1
            return False
        return True

    async def _drain(self, link: _Link, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        """Ship queued records until the connection breaks.  The head
        record is only dequeued after a successful drain, so a record
        interrupted mid-write is re-sent on the next connection
        (at-least-once for the interrupted record; duplicates are
        tolerated by the protocol layer).

        The acceptor never writes after its handshake ack, so a read
        on the connection acts as an EOF watchdog: it completes only
        when the peer closed or reset the connection, letting an idle
        link notice a dead peer without waiting for a write to fail.
        """
        loop = asyncio.get_running_loop()
        eof = loop.create_task(reader.read(1))
        queue = link.queue
        try:
            while not self._closed and link.state == "up":
                if eof.done():
                    raise ConnectionResetError("peer closed the connection")
                if not queue:
                    link.event.clear()
                    waiter = loop.create_task(link.event.wait())
                    done, _pending = await asyncio.wait(
                        {waiter, eof}, timeout=0.5,
                        return_when=asyncio.FIRST_COMPLETED)
                    waiter.cancel()
                    continue
                link.writing = True
                try:
                    writer.write(encode_record(queue[0]))
                    await writer.drain()
                finally:
                    link.writing = False
                queue.popleft()
                if not queue or (link.dst in self.full
                                 and len(queue) < QUEUE_LIMIT):
                    self.full.discard(link.dst)
                    self.on_drain()
        finally:
            eof.cancel()

    def _dead_letter(self, link: _Link) -> None:
        dropped = len(link.queue)
        link.queue.clear()
        link.dropped += dropped
        self.records_dropped += dropped
        self.full.discard(link.dst)
        self.on_drain()

    # -- inbound -------------------------------------------------------------

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self._inbound.add(writer)
        try:
            try:
                size = _LEN.unpack(await reader.readexactly(_LEN.size))[0]
                hello = await reader.readexactly(min(size, MAX_RECORD))
                magic, version, attempt, generation, peer = \
                    decode_hello(hello)
            except (asyncio.IncompleteReadError, ValueError, OSError):
                return
            if magic != MAGIC:
                writer.write(encode_record(encode_ack(ACK_BAD_MAGIC)))
                await writer.drain()
                self.stats.handshake_failures += 1
                return
            if version != WIRE_VERSION:
                writer.write(encode_record(encode_ack(ACK_BAD_VERSION)))
                await writer.drain()
                self.stats.handshake_failures += 1
                return
            writer.write(encode_record(encode_ack(ACK_OK)))
            await writer.drain()
            reconnect = attempt >= 2
            self.peer_hello[peer] = (attempt, generation)
            if reconnect and self.on_link_reset is not None:
                self.on_link_reset(peer)
            decoder = StreamDecoder()
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    return
                for record in decoder.feed(chunk):
                    self.records_delivered += 1
                    self.deliver(peer, self.ip, record)
        except (OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._inbound.discard(writer)
            writer.close()


class SocketWorld(World):
    """The full network over real TCP, in one process: one asyncio loop
    thread owns every :class:`SocketEndpoint` and steps every node.

    "A DiTyCO node is implemented as a Unix process.  The sites, the
    communication daemon (TyCOd), and the user interface daemon (TyCOi)
    are implemented as threads sharing the address space of the node."
    Here they share one thread: a delivered record, new work or a busy
    quantum schedules the node's :meth:`Node.step` on the loop, and a
    distgc sweep that falls due later (:meth:`Node.next_deadline`) a
    ``call_at``.  A node with a link at :data:`QUEUE_LIMIT` is not stepped
    until the drain frees a slot.  Another thread reaches a node
    through :meth:`call`; a node whose step or receive raises is
    stepped no more, and :meth:`run` raises the exception.

    The world's timer, :meth:`schedule_at`, is a ``call_at`` on the same
    loop, on the same clock (``monotime`` is the loop's clock): workload
    arrivals, balancer ticks, SLO checks and migration retries all ride
    it, exactly as they ride the simulator's event queue.

    Quiescence is one check on the loop (:meth:`_quiet`): no node has
    work, no planned action is still to run, every link is idle, and
    exact record accounting says every record sent has been delivered.

    ``proxy`` (a :class:`~repro.testkit.proxy.ChaosProxy`) interposes
    a fault-injecting TCP relay on every link; the world then mirrors
    the proxy's drop/dup counters under the names the chaos invariant
    checkers expect (``chaos_dropped``, ``chaos_duplicated``,
    ``delivery_balance`` ...), so the same checkers run unmodified
    against real sockets.
    """

    wall_clock = True

    def __init__(self, host: str = "127.0.0.1") -> None:
        super().__init__()
        self.quantum = QUANTUM
        self.host = host
        self.io = LoopThread()
        self.proxy = None
        self._endpoints: dict[str, SocketEndpoint] = {}
        self._addrs: dict[str, tuple[str, int]] = {}
        self._scheduled: set[str] = set()    # a step is on the loop's queue
        self._deferred: set[str] = set()     # waiting for a link slot
        self._armed: dict[str, float] = {}   # last sweep deadline per node
        self._timers = 0                     # planned actions not yet run
        self._due: deque[Callable[[], None]] = deque()   # fell due, to run
        #: ip -> what that node's step or receive raised ("" for a
        #: planned action).
        self._errors: dict[str, Exception] = {}
        self._started = False
        self._running = False                # the loop steps the nodes
        self._waiting = False                # run() wants _settled
        self._settled = threading.Event()
        self.records_sent = 0
        self.records_delivered = 0
        #: Peers whose links suffered an unclean drop -- the socket
        #: analogue of the simulator's ``crashed_ever`` (loss markers
        #: for the invariant checkers).
        self.crashed_ever: set[str] = set()

    # -- world interface -----------------------------------------------------

    @property
    def time(self) -> float:
        return monotime()

    def call(self, fn, *args):
        if self._started and not self.io.on_loop():
            return self.io.call(fn, *args)
        return fn(*args)

    def add_node(self, node: "Node") -> None:
        if self._started:
            raise RuntimeError("cannot add nodes after start")
        if node.ip in self.nodes:
            raise ValueError(f"duplicate node ip {node.ip}")
        self.nodes[node.ip] = node
        endpoint = SocketEndpoint(
            node.ip, deliver=self._deliver,
            resolve=lambda dst, src=node.ip: self._resolve(src, dst),
            loop=self.io, stats=self.stats,
            on_link_reset=lambda peer, ip=node.ip: self._on_reset(ip, peer),
            on_reset_observed=lambda peer, ip=node.ip:
                self._note_reset(ip, peer),
            on_drain=lambda ip=node.ip: self._on_drain(ip),
            generation=node.code_generation, host=self.host)
        self._endpoints[node.ip] = endpoint
        node.attach_transport(self._send,
                              wakeup=lambda ip=node.ip: self._wake(ip),
                              clock=monotime, schedule=self.schedule_at)
        node.attach_obs(self.obs)

    def use_proxy(self, proxy) -> None:
        """Route every link through a chaos relay (before :meth:`start`)."""
        if self._started:
            raise RuntimeError("attach the proxy before starting")
        self.proxy = proxy

    def endpoint(self, ip: str) -> SocketEndpoint:
        return self._endpoints[ip]

    def link_queue_depths(self) -> dict[str, dict[str, int]]:
        """Per-endpoint outbound queue depths, ``src -> dst -> count``
        (the ``load`` control command and ``repro obs top`` read it)."""
        return {ip: endpoint.queue_depths()
                for ip, endpoint in sorted(self._endpoints.items())}

    def _resolve(self, src_ip: str, dst_ip: str) -> tuple[str, int]:
        if self.proxy is not None:
            return self.proxy.relay_addr(src_ip, dst_ip)
        return self._addrs[dst_ip]

    def _routable(self, dst_ip: str) -> bool:
        """Whether ``dst_ip`` is a known destination (the daemon world
        overrides this to consult the cluster's node directory)."""
        return dst_ip in self.nodes

    # -- the loop: stepping, delivery, timers ----------------------------------

    def _wake(self, ip: str) -> None:
        if self._running and ip not in self._scheduled:
            self._scheduled.add(ip)
            self.io.loop.call_soon(self._step, ip)

    def _step(self, ip: str) -> None:
        self._scheduled.discard(ip)
        if not self._running or ip in self._errors:
            return
        if self._endpoints[ip].full:
            self._deferred.add(ip)
            self.stats.backpressure_waits += 1
            return
        node = self.nodes[ip]
        try:
            report = node.step(self.quantum)
        except Exception as exc:  # noqa: BLE001 - run() raises it
            self._fail(ip, exc)
            return
        if report.busy:
            self._wake(ip)
            return
        # monotime is the loop's clock; a stale timer only steps an
        # idle node once more.
        deadline = node.next_deadline()
        if deadline is not None and self._armed.get(ip) != deadline:
            self._armed[ip] = deadline
            self.io.loop.call_at(deadline, self._wake, ip)
        if not self._scheduled:
            self._settle()

    def _fail(self, ip: str, exc: Exception) -> None:
        self._errors.setdefault(ip, exc)
        self._settled.set()

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` on the loop at ``time`` on the ``monotime``
        clock; a time already past fires at once.  Callable from any
        thread."""
        if not callable(action):
            raise TypeError(f"event action must be callable, got {action!r}")
        self.call(self._plant, time, action)

    def _plant(self, time: float, action: Callable[[], None]) -> None:
        self._timers += 1
        self.io.loop.call_at(time, self._fall_due, action)

    def _fall_due(self, action: Callable[[], None]) -> None:
        # One due action per pass of the loop, behind the node steps
        # already queued: a burst of late arrivals cannot starve the
        # nodes that serve them.
        self._due.append(action)
        if len(self._due) == 1:
            self.io.loop.call_soon(self._fire)

    def _fire(self) -> None:
        action = self._due.popleft()
        try:
            action()
        except Exception as exc:  # noqa: BLE001 - run() raises it
            self._fail("", exc)
        self._timers -= 1
        if self._due:
            self.io.loop.call_soon(self._fire)
        else:
            self._settle()

    def _send(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        if not self._routable(dst_ip):
            raise LookupError(f"no node at {dst_ip}")
        stats = self.stats
        stats.packets += 1
        stats.bytes += len(data)
        self.records_sent += 1
        in_flight = self.records_sent - self.records_delivered
        if in_flight > stats.max_in_flight:
            stats.max_in_flight = in_flight
        self.trace("send", src_ip, dst_ip, len(data))
        self._endpoints[src_ip].send(dst_ip, data)

    def _deliver(self, src_ip: str, dst_ip: str, data: bytes) -> None:
        """A record arrived at ``dst_ip``'s endpoint."""
        if dst_ip not in self._errors:
            try:
                self.nodes[dst_ip].receive(data)
            except Exception as exc:  # noqa: BLE001 - run() raises it
                self._fail(dst_ip, exc)
        self.records_delivered += 1
        self.trace("deliver", src_ip, dst_ip, len(data))
        self._wake(dst_ip)

    def _on_drain(self, ip: str) -> None:
        """A link of ``ip`` emptied or freed a slot."""
        if ip in self._deferred and not self._endpoints[ip].full:
            self._deferred.discard(ip)
            self._wake(ip)
        self._settle()

    def _note_reset(self, ip: str, peer: str) -> None:
        """An endpoint observed an unclean connection drop: records may
        have died in a kernel buffer, so exact accounting is off for
        the rest of the run."""
        if not self._running:
            return    # teardown closes connections; that is not a fault
        self.crashed_ever.add(ip)
        self.crashed_ever.add(peer)

    def _on_reset(self, ip: str, peer: str) -> None:
        """A link to ``peer`` was re-established after an unclean
        drop: let the node re-drive its in-flight code requests."""
        if not self._running:
            return
        self._note_reset(ip, peer)
        self.nodes[ip].on_link_reset(peer)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.io.start()
        for ip, endpoint in self._endpoints.items():
            self._addrs[ip] = (self.host, endpoint.start())
        if self.proxy is not None:
            self.proxy.start(self.io, dict(self._addrs))
        self.io.call(self._begin)

    def _begin(self) -> None:
        self._running = True
        for ip in self.nodes:
            self._wake(ip)

    def shutdown(self) -> None:
        """Stop stepping, then close endpoints, proxy and the IO loop
        (idempotent)."""
        self._running = False
        for endpoint in self._endpoints.values():
            endpoint.close()
        if self.proxy is not None:
            self.proxy.close()
        self.io.stop()

    # -- quiescence ----------------------------------------------------------

    def _expected_deliveries(self) -> int:
        expected = self.records_sent
        expected -= sum(e.records_dropped for e in self._endpoints.values())
        if self.proxy is not None:
            expected -= self.proxy.dropped_total
            expected += self.proxy.duplicated_total
        return expected

    def _quiet(self) -> bool:
        """The one quiescence check (on the loop); after an unclean
        drop the accounting proves nothing and is skipped."""
        if (self._timers or self._scheduled
                or any(n.has_work() for n in self.nodes.values())):
            return False
        if not all(e.links_idle() for e in self._endpoints.values()):
            return False
        if self.proxy is not None and self.proxy.pending():
            return False
        return (bool(self.crashed_ever)
                or self.records_delivered == self._expected_deliveries())

    def _settle(self) -> None:
        if self._waiting and self._quiet():
            self._settled.set()

    def _observe(self) -> tuple[bool, tuple]:
        return self._quiet(), (
            self.records_sent, self.records_delivered,
            None if self.proxy is None else self.proxy.fingerprint())

    def run(self, max_time: float | None = None) -> float:
        """Start (if needed) and wait for global inactivity.

        Returns the wall-clock seconds waited; raises what a node's
        step or receive raised, or ``TimeoutError`` if ``max_time``
        elapses first.  This does *not* require strict
        :meth:`Node.is_quiescent`: a site parked on an unanswerable
        FETCH is passive, and fault-injecting proxy runs legitimately
        end in that state (the chaos corpus observes it).  Use
        :meth:`is_quiescent` to assert the strict notion afterwards.
        """
        self.start()
        start = monotime()
        deadline = None if max_time is None else start + max_time
        last = None
        self._waiting = True
        try:
            while True:
                self._settled.clear()
                quiet, fingerprint = self.io.call(self._observe)
                if self._errors:
                    raise next(iter(self._errors.values()))
                # After an unclean drop: a second, unchanged observation.
                if quiet and (not self.crashed_ever or fingerprint == last):
                    return monotime() - start
                last = fingerprint if quiet else None
                if deadline is not None and monotime() > deadline:
                    raise TimeoutError("network did not reach quiescence")
                # The loop signals a quiet network; the timeout re-looks
                # at what signals nothing (a record the proxy dropped).
                self._settled.wait(0.01)
        finally:
            self._waiting = False

    # -- chaos-checker surface (mirrors ChaosWorld) --------------------------

    @property
    def deliveries(self) -> int:
        return self.records_delivered

    @property
    def chaos_dropped(self) -> int:
        return 0 if self.proxy is None else self.proxy.dropped_total

    @property
    def chaos_duplicated(self) -> int:
        return 0 if self.proxy is None else self.proxy.duplicated_total

    @property
    def dropped_packets(self) -> int:
        """Records dead-lettered by the endpoints themselves."""
        return sum(e.records_dropped for e in self._endpoints.values())

    @property
    def in_flight(self) -> int:
        """Best-effort records-on-the-wire estimate.  After an unclean
        drop the true number is unknowable (bytes may have died in a
        kernel buffer); report 0 once the world is stable so checkers
        that disarm on in-flight traffic still run."""
        if self.crashed_ever:
            return 0
        return max(0, self._expected_deliveries() - self.records_delivered)

    def delivery_balance(self) -> int:
        """``deliveries - (sent + duplicated - dropped)``, exactly as
        the chaos world defines it."""
        return self.records_delivered - self._expected_deliveries()


