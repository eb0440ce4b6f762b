"""Chaos proxy: the seeded fault corpus replayed against real sockets.

:class:`ChaosProxy` interposes one TCP relay per (src, dst) link of a
:class:`~repro.transport.socket.SocketWorld`: the world's resolver
hands every dialing link the relay's port instead of the real peer's,
and the relay re-frames the stream (``StreamDecoder``) so it can
perturb whole records -- never bytes -- with exactly the fault
envelope of :class:`~repro.testkit.chaos.ChaosConfig`:

* **drop / dup** -- a data record silently vanishes, or is forwarded
  twice;
* **jitter / delay** -- the relay sleeps before forwarding.  Sleeping
  the stream (instead of reordering it) preserves the per-link FIFO
  discipline the simulator guarantees; *cross*-link reordering comes
  for free from real concurrency;
* **connection reset** (:class:`LinkReset`) -- after the Nth data
  record on a link, the relay aborts both sides of the connection:
  the socket analogue of a crash-restart, exercised by the
  ``applet-reset-mid-fetch`` proxy corpus entry.

Handshake records pass through unfaulted and uncounted: faults model
the network mangling *application* traffic, and the connection layer
re-handshakes on every reconnect anyway.

Determinism: each link draws its decisions from its own
``random.Random`` seeded with ``(seed, src, dst)``, consumed in
per-link record order -- so the decision *sequence per link* is a pure
function of the corpus seed, independent of how the OS interleaves
links.  (Unlike the simulator, wall-clock interleaving still varies
across runs, which is why the proxy corpus pins invariants rather
than exact outputs -- see docs/TESTING.md.)
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.transport.socket import LoopThread, StreamDecoder, encode_record

from .chaos import ChaosConfig


@dataclass(frozen=True, slots=True)
class LinkReset:
    """Abort the (src, dst) connection when the ``after``-th data
    record arrives at the relay (1-indexed; that record is lost, like
    a packet in flight at a crash).  Single-shot."""

    src: str
    dst: str
    after: int = 1

    def __post_init__(self) -> None:
        if self.after < 1:
            raise ValueError("after must be >= 1 (records are 1-indexed)")


@dataclass(slots=True)
class LinkStats:
    """Per-link relay accounting."""

    records: int = 0       # data records seen (handshakes excluded)
    forwarded: int = 0
    dropped: int = 0
    duplicated: int = 0    # extra copies forwarded
    resets: int = 0


class _Abort(Exception):
    """Internal: a LinkReset fired; tear the connection down."""


class ChaosProxy:
    """A fault-injecting TCP relay for every link of a SocketWorld.

    Lifecycle: construct, hand to
    :meth:`~repro.transport.socket.SocketWorld.use_proxy`, and the
    world starts/stops it.  Standalone use: :meth:`start` with a
    ``LoopThread`` and the real address directory, then point dialers
    at :meth:`relay_addr`.
    """

    def __init__(self, seed: int = 0, config: ChaosConfig | None = None,
                 resets: tuple[LinkReset, ...] = ()) -> None:
        self.seed = seed
        self.config = config or ChaosConfig()
        if self.config.crashes:
            raise ValueError(
                "ChaosProxy models crash-restart as connection resets; "
                "pass LinkReset entries instead of CrashEvents")
        self.resets = tuple(resets)
        self.stats: dict[tuple[str, str], LinkStats] = {}
        self.faults: list[str] = []
        self._loop: LoopThread | None = None
        self._targets: dict[str, tuple[str, int]] = {}
        self._relay_ports: dict[tuple[str, str], int] = {}
        self._servers: list[asyncio.AbstractServer] = []
        self._rngs: dict[tuple[str, str], random.Random] = {}
        self._reset_for: dict[tuple[str, str], LinkReset] = {
            (r.src, r.dst): r for r in self.resets}
        self._reset_fired: set[tuple[str, str]] = set()
        self._pending = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, loop: LoopThread, addrs: dict[str, tuple[str, int]]
              ) -> None:
        """Create one relay listener per ordered (src, dst) pair."""
        self._loop = loop
        self._targets = dict(addrs)
        loop.start()
        for src in addrs:
            for dst in addrs:
                if src == dst:
                    continue
                link = (src, dst)
                self.stats[link] = LinkStats()
                self._rngs[link] = random.Random(
                    f"{self.seed}:{src}:{dst}")
                port = loop.call(self._listen, link)
                self._relay_ports[link] = port

    async def _listen(self, link: tuple[str, str]) -> int:
        server = await asyncio.start_server(
            lambda r, w, link=link: self._handle(link, r, w),
            host="127.0.0.1", port=0)
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    def relay_addr(self, src_ip: str, dst_ip: str) -> tuple[str, int]:
        """Where ``src_ip`` should dial to reach ``dst_ip``."""
        return ("127.0.0.1", self._relay_ports[(src_ip, dst_ip)])

    def close(self) -> None:
        if self._closed or self._loop is None:
            return
        self._closed = True
        if self._loop.alive:
            try:
                self._loop.call(self._close, timeout=5.0)
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    async def _close(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()

    # -- relaying ------------------------------------------------------------

    async def _handle(self, link: tuple[str, str],
                      client: asyncio.StreamReader,
                      client_writer: asyncio.StreamWriter) -> None:
        """One dialed connection from ``src``: splice it to the real
        ``dst``, faulting data records on the forward path and passing
        the return path (the handshake ack) through verbatim."""
        try:
            upstream, upstream_writer = await asyncio.open_connection(
                *self._targets[link[1]])
        except OSError:
            client_writer.close()
            return

        async def pump_back() -> None:
            try:
                while True:
                    data = await upstream.read(65536)
                    if not data:
                        break
                    client_writer.write(data)
                    await client_writer.drain()
            except (OSError, ConnectionError, asyncio.CancelledError):
                pass
            finally:
                client_writer.close()

        back = asyncio.get_running_loop().create_task(pump_back())
        decoder = StreamDecoder()
        handshaken = False
        try:
            while True:
                chunk = await client.read(65536)
                if not chunk:
                    break
                for record in decoder.feed(chunk):
                    if not handshaken:
                        handshaken = True
                        upstream_writer.write(encode_record(record))
                        await upstream_writer.drain()
                        continue
                    await self._relay_record(
                        link, record, upstream_writer, client_writer)
        except (_Abort, OSError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            back.cancel()
            upstream_writer.close()
            if not client_writer.is_closing():
                client_writer.close()

    async def _relay_record(self, link: tuple[str, str], record: bytes,
                            upstream_writer: asyncio.StreamWriter,
                            client_writer: asyncio.StreamWriter) -> None:
        stats = self.stats[link]
        rng = self._rngs[link]
        cfg = self.config
        stats.records += 1
        reset = self._reset_for.get(link)
        if (reset is not None and link not in self._reset_fired
                and stats.records >= reset.after):
            self._reset_fired.add(link)
            stats.resets += 1
            self.faults.append(f"reset {link[0]}->{link[1]} "
                               f"at record {stats.records}")
            # RST both sides: the record in flight is lost, both
            # endpoints observe an unclean drop.
            client_writer.transport.abort()
            upstream_writer.transport.abort()
            raise _Abort()
        self._pending += 1
        try:
            copies = 1
            if cfg.drop_prob and rng.random() < cfg.drop_prob:
                stats.dropped += 1
                self.faults.append(f"drop {link[0]}->{link[1]}")
                return
            if cfg.dup_prob and rng.random() < cfg.dup_prob:
                stats.duplicated += 1
                copies = 2
                self.faults.append(f"dup {link[0]}->{link[1]}")
            delay = 0.0
            if cfg.jitter_s:
                delay += rng.random() * cfg.jitter_s
            if cfg.delay_prob and rng.random() < cfg.delay_prob:
                extra = rng.random() * cfg.delay_s
                delay += extra
                self.faults.append(f"delay {link[0]}->{link[1]} +{extra:g}s")
            if delay > 0.0:
                # Sleeping the stream delays everything behind this
                # record too: per-link FIFO, exactly like the simulator.
                await asyncio.sleep(delay)
            for _ in range(copies):
                upstream_writer.write(encode_record(record))
            await upstream_writer.drain()
            stats.forwarded += copies
        finally:
            self._pending -= 1

    # -- accounting ----------------------------------------------------------

    @property
    def dropped_total(self) -> int:
        return sum(s.dropped for s in self.stats.values())

    @property
    def duplicated_total(self) -> int:
        return sum(s.duplicated for s in self.stats.values())

    @property
    def forwarded_total(self) -> int:
        return sum(s.forwarded for s in self.stats.values())

    @property
    def resets_total(self) -> int:
        return sum(s.resets for s in self.stats.values())

    def pending(self) -> int:
        """Records currently held inside the relay (delaying or
        mid-forward)."""
        return self._pending

    def fingerprint(self) -> tuple:
        """Stable-state digest SocketWorld compares across two
        observations after an unclean drop."""
        return (self.forwarded_total, self.dropped_total,
                self.duplicated_total, self.resets_total, self._pending)

    def fault_count(self) -> int:
        return len(self.faults)
