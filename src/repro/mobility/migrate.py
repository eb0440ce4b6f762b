"""Live site migration: FREEZE -> SHIP -> forward -> rebind -> RESUME.

The paper moves *code* between fixed sites (FETCH); this module moves
a whole *site* between nodes, built on the checkpoint bytes of
:mod:`repro.mobility.checkpoint`.  The protocol, per migration:

1. **FREEZE** -- the source node drains the site's outgoing queue,
   captures its checkpoint ONCE, and removes it from the site pool.
   From here on, every packet addressed to the frozen site is buffered
   (*residuals*) instead of delivered.
2. **CKPT_SHIP** -- a ``MIG_SHIP`` control packet carries the state
   bytes plus the *digest* of the code part (never the code itself).
   The destination answers from its code library when the digest is
   known (warm: one message) or asks with ``MIG_NEED`` and receives
   ``MIG_CODE`` (cold: three messages) -- the CodeCache economics of
   FETCH applied to whole checkpoints.  The library is emptied at
   ``codecache.MAX_SLICES`` blobs; an unACKed migration's record keeps
   its code, so a NEED never depends on the library.
3. **RESUME** -- the destination restores the site, rebinds its name
   service record to the new home, adopts it into its pool and sends
   ``MIG_ACK``.
4. **Redirect** -- on ACK the source drops the frozen state, installs
   a *tombstone* (site id -> new home) and flushes the residuals to
   the new home.  Later strays that still arrive at the old home are
   forwarded by the tombstone.

At-most-once cutover under the chaos fault model falls out of three
rules: state is captured once (retries ship identical bytes), the
destination dedups by migration token (a dup SHIP after completion is
re-ACKed, never re-restored), and the source only discards the frozen
state on ACK.  If every retry is exhausted the site stays frozen at
the source -- present in exactly one place, merely stopped -- and the
manager reports idle so runs terminate.

Control packets are node-level: ``repro.runtime.wire.KINDS`` declares
them, addressed as site 0, with every other kind.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional

from repro.runtime import codecache
from repro.runtime.site import DeliveryError
from repro.runtime.wire import (
    KIND_MIG_ACK,
    KIND_MIG_CODE,
    KIND_MIG_NEED,
    KIND_MIG_SHIP,
    KINDS,
    Packet,
    encode,
)

from .checkpoint import CheckpointError, capture_site, restore_site


@dataclass(frozen=True, slots=True)
class MobilityConfig:
    """Timing knobs, in world-clock seconds (virtual under sim)."""

    #: SHIP retransmit interval while no ACK arrived.
    retry_s: float = 2e-3
    #: Retries before the migration is abandoned (site stays frozen
    #: at the source: stopped, but in exactly one place).
    max_attempts: int = 50

    @classmethod
    def wall_clock(cls) -> "MobilityConfig":
        """Defaults for wall-clock transports: the simulated-scale
        retry interval would retransmit between scheduling quanta of
        a real TCP link (same scaling as ``GcConfig.wall_clock``)."""
        return cls(retry_s=0.05, max_attempts=100)


@dataclass(slots=True)
class MobilityStats:
    """Per-node migration counters (rendered as repro_migration_*)."""

    migrations_out: int = 0
    migrations_in: int = 0
    ships_sent: int = 0
    needs_sent: int = 0
    codes_sent: int = 0
    retries: int = 0
    failures: int = 0
    dup_ships: int = 0
    dup_acks: int = 0
    residuals_buffered: int = 0
    forwards: int = 0
    warm_restores: int = 0
    cold_restores: int = 0
    state_bytes_shipped: int = 0
    code_bytes_shipped: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(slots=True)
class _Outbound:
    """One in-flight outgoing migration (source side)."""

    token: str
    site_name: str
    site_id: int
    dest_ip: str
    state_bytes: bytes
    code_digest: bytes
    code: bytes          # answers a NEED until the ACK
    attempts: int = 0
    failed: bool = False
    #: Cancels the planted SHIP retry (the ACK does).
    cancel_retry: Optional[Callable[[], None]] = None


@dataclass(slots=True)
class _Inbound:
    """One arrived SHIP waiting for its code (destination side)."""

    token: str
    site_name: str
    site_id: int
    src_ip: str
    state_bytes: bytes
    code_digest: bytes


class MobilityManager:
    """Per-node migration endpoint (both source and destination role).

    Created lazily by :meth:`Node.ensure_mobility`; nodes that never
    migrate never construct one, keeping every pre-mobility schedule
    byte-identical.
    """

    def __init__(self, node) -> None:
        self.node = node
        #: Retry timing; :meth:`Node.ensure_mobility` swaps in
        #: :meth:`MobilityConfig.wall_clock` on wall-clock worlds.
        self.config = MobilityConfig()
        self.stats = MobilityStats()
        #: site_id -> outbound record while the site is frozen here.
        self.frozen: dict[int, _Outbound] = {}
        #: token -> outbound record until the ACK arrives.
        self.outbound: dict[str, _Outbound] = {}
        #: site_id -> new home ip, installed on ACK.
        self.tombstones: dict[int, str] = {}
        #: token -> (site_name, site_id) of completed inbound
        #: migrations (dup-SHIP dedup; invariant accounting).
        self.completed_in: dict[str, tuple[str, int]] = {}
        #: token -> inbound record while its code is being fetched.
        self.pending_in: dict[str, _Inbound] = {}
        #: code digest -> checkpoint code bytes.  Both roles feed it:
        #: shipping registers our own code (a migrate-back is warm),
        #: receiving keeps what we were sent (:meth:`_keep_code`).
        self.code_library: dict[bytes, bytes] = {}
        #: site_id -> packets that arrived while the site was frozen.
        self.residuals: dict[int, list[Packet]] = {}
        #: control packets awaiting :meth:`process_inbox` (the node's
        #: step loop).  Deferral matters: processing a SHIP sends a
        #: NEED, whose processing sends a CODE -- run inline inside
        #: transport delivery that chain re-enters the transport
        #: (unbounded recursion on the simulator).
        self.inbox: list[Packet] = []
        self._seq = 0

    # -- source side --------------------------------------------------------

    def migrate_site(self, site_name: str, dest_ip: str) -> str:
        """FREEZE the named site and start shipping it to ``dest_ip``;
        returns the migration token."""
        if dest_ip == self.node.ip:
            raise ValueError(f"site {site_name!r} is already at {dest_ip}")
        site = self.node.sites_by_name.get(site_name)
        if site is None:
            raise LookupError(f"node {self.node.ip}: no site {site_name!r}")
        # Drain pending transport work so the checkpoint holds program
        # state only, then freeze: out of the pool, scheduler never
        # touches it again.
        self.node.tycod.pump()
        ckpt = capture_site(site)
        self.node.remove_site(site)
        self._keep_code(ckpt.code_digest, ckpt.code)
        self._seq += 1
        token = f"{self.node.ip}:{site.site_id}:{self._seq}"
        record = _Outbound(token=token, site_name=site_name,
                           site_id=site.site_id, dest_ip=dest_ip,
                           state_bytes=ckpt.state,
                           code_digest=ckpt.code_digest, code=ckpt.code)
        self.frozen[site.site_id] = record
        self.outbound[token] = record
        self.stats.migrations_out += 1
        self.node.trace("migrate-out", src=self.node.ip, dst=dest_ip,
                        size=ckpt.total_bytes(),
                        note=f"{site_name} token={token}")
        self._send_ship(record)
        self._arm_retry(record)
        return token

    def _send_ship(self, record: _Outbound) -> None:
        record.attempts += 1
        packet = Packet(kind=KIND_MIG_SHIP, src_ip=self.node.ip,
                        src_site_id=0, dest_ip=record.dest_ip,
                        dest_site_id=0,
                        payload=(record.token, record.site_name,
                                 record.site_id, record.state_bytes,
                                 record.code_digest))
        data = encode(packet)
        self.stats.ships_sent += 1
        self.stats.state_bytes_shipped += len(data)
        self.node.trace("migrate-ship", src=self.node.ip,
                        dst=record.dest_ip, size=len(data),
                        note=f"{record.site_name} attempt={record.attempts}")
        self.node.transport_send(record.dest_ip, data)

    def _arm_retry(self, record: _Outbound) -> None:
        # The node's world timer (World.schedule_at) fires the retry.
        token = record.token
        record.cancel_retry = self.node.schedule_at(
            self.node.now() + self.config.retry_s, lambda: self._retry(token))

    def _retry(self, token: str) -> None:
        record = self.outbound.get(token)
        if record is None or record.failed:
            return
        if record.attempts >= self.config.max_attempts:
            record.failed = True
            self.stats.failures += 1
            self.node.trace("migrate-fail", src=self.node.ip,
                            dst=record.dest_ip,
                            note=f"{record.site_name} after "
                                 f"{record.attempts} attempts; site stays "
                                 f"frozen at {self.node.ip}")
            return
        self.stats.retries += 1
        self.node.trace("migrate-retry", src=self.node.ip,
                        dst=record.dest_ip,
                        note=f"{record.site_name} attempt={record.attempts + 1}")
        self._send_ship(record)
        self._arm_retry(record)

    # -- control packet dispatch --------------------------------------------

    def enqueue_control(self, packet: Packet) -> None:
        """A ``dest_site_id=0`` mobility packet arrived (from TyCOd):
        queue it for the node's next step quantum."""
        self.inbox.append(packet)
        self.node.on_work_available()

    def process_inbox(self) -> int:
        """Handle every queued control packet; returns how many."""
        done = 0
        while self.inbox:
            self.on_control(self.inbox.pop(0))
            done += 1
        return done

    def on_control(self, packet: Packet) -> None:
        """Dispatch one control packet to its handler in
        :data:`~repro.runtime.wire.KINDS`; the node's door held a
        peer's packet to its kind's layout."""
        getattr(self, KINDS[packet.kind][1])(packet)

    # -- destination side ---------------------------------------------------

    def _on_ship(self, packet: Packet) -> None:
        token, site_name, site_id, state_bytes, code_digest = packet.payload
        if token in self.completed_in:
            # Duplicate after completion (our ACK was dropped): the
            # site already runs here, just re-ACK.
            self.stats.dup_ships += 1
            self._send_ack(packet.src_ip, token)
            return
        if token in self.pending_in:
            # Duplicate while the code request is in flight: re-NEED
            # (the earlier NEED may have been the dropped packet).
            self.stats.dup_ships += 1
            self._send_need(packet.src_ip, token, code_digest)
            return
        code = self.code_library.get(code_digest)
        if code is not None:
            self.stats.warm_restores += 1
            self._complete_inbound(token, site_name, site_id, state_bytes,
                                   code, packet.src_ip)
            return
        self.pending_in[token] = _Inbound(
            token=token, site_name=site_name, site_id=site_id,
            src_ip=packet.src_ip, state_bytes=state_bytes,
            code_digest=code_digest)
        self._send_need(packet.src_ip, token, code_digest)

    def _send_need(self, dest_ip: str, token: str, code_digest: bytes) -> None:
        packet = Packet(kind=KIND_MIG_NEED, src_ip=self.node.ip,
                        src_site_id=0, dest_ip=dest_ip, dest_site_id=0,
                        payload=(token, code_digest))
        self.stats.needs_sent += 1
        self.node.trace("migrate-need", src=self.node.ip, dst=dest_ip,
                        note=f"digest={code_digest.hex()[:12]}")
        self.node.transport_send(dest_ip, encode(packet))

    def _on_need(self, packet: Packet) -> None:
        token, code_digest = packet.payload
        record = self.outbound.get(token)
        if record is not None and record.code_digest == code_digest:
            code = record.code
        else:
            code = self.code_library.get(code_digest)
        if code is None:
            # Unknown digest: a stray from a long-gone migration --
            # nothing to serve; the SHIP retry loop re-drives if real.
            return
        reply = Packet(kind=KIND_MIG_CODE, src_ip=self.node.ip,
                       src_site_id=0, dest_ip=packet.src_ip, dest_site_id=0,
                       payload=(token, code_digest, code))
        data = encode(reply)
        self.stats.codes_sent += 1
        self.stats.code_bytes_shipped += len(data)
        self.node.trace("migrate-code", src=self.node.ip, dst=packet.src_ip,
                        size=len(data), note=f"digest={code_digest.hex()[:12]}")
        self.node.transport_send(packet.src_ip, data)

    def _on_code(self, packet: Packet) -> None:
        token, code_digest, code = packet.payload
        if codecache.digest_bytes(code) != code_digest:
            # Never install code that does not match its digest.
            return
        self._keep_code(code_digest, code)
        record = self.pending_in.pop(token, None)
        if record is None:
            return  # duplicate CODE: already completed (or never asked)
        self.stats.cold_restores += 1
        self._complete_inbound(record.token, record.site_name,
                               record.site_id, record.state_bytes, code,
                               record.src_ip)

    def _complete_inbound(self, token: str, site_name: str, site_id: int,
                          state_bytes: bytes, code: bytes,
                          src_ip: str) -> None:
        try:
            site = restore_site(self.node, code, state_bytes)
        except CheckpointError as exc:
            raise DeliveryError(
                f"node {self.node.ip}: {site_name} does not restore: "
                f"{exc}") from exc
        self.node.nameservice.rebind_site(site_name, self.node.ip,
                                          site_id=site.site_id)
        self.node.adopt_site(site)
        # If this site once migrated *away from* this node, a stale
        # tombstone still points at its old destination -- it's home
        # again, so the redirect must go.
        self.tombstones.pop(site.site_id, None)
        self.completed_in[token] = (site_name, site.site_id)
        self.stats.migrations_in += 1
        self.node.trace("migrate-in", src=src_ip, dst=self.node.ip,
                        size=len(state_bytes),
                        note=f"{site_name} token={token}")
        self._send_ack(src_ip, token)
        self.node.on_work_available()

    def _keep_code(self, code_digest: bytes, code: bytes) -> None:
        """Keep the first copy of a digest; empty a full library."""
        library = self.code_library
        if code_digest not in library:
            if len(library) >= codecache.MAX_SLICES:
                library.clear()
            library[code_digest] = code

    def _send_ack(self, dest_ip: str, token: str) -> None:
        packet = Packet(kind=KIND_MIG_ACK, src_ip=self.node.ip,
                        src_site_id=0, dest_ip=dest_ip, dest_site_id=0,
                        payload=(token, True))
        self.node.trace("migrate-ack", src=self.node.ip, dst=dest_ip,
                        note=f"token={token}")
        self.node.transport_send(dest_ip, encode(packet))

    # -- source side, completion --------------------------------------------

    def _on_ack(self, packet: Packet) -> None:
        token, _ok = packet.payload
        record = self.outbound.pop(token, None)
        if record is None:
            self.stats.dup_acks += 1
            return
        record.cancel_retry()
        self.frozen.pop(record.site_id, None)
        self.tombstones[record.site_id] = record.dest_ip
        self.node.trace("migrate-out", src=self.node.ip, dst=record.dest_ip,
                        note=f"{record.site_name} cutover complete")
        for pkt in self.residuals.pop(record.site_id, []):
            self._forward(pkt, record.dest_ip)

    def _forward(self, packet: Packet, dest_ip: str) -> None:
        packet.dest_ip = dest_ip
        self.stats.forwards += 1
        self.node.trace("migrate-forward", src=self.node.ip, dst=dest_ip,
                        note=f"{packet.kind} site={packet.dest_site_id}")
        self.node.transport_send(dest_ip, encode(packet))

    # -- old-home packet interception ----------------------------------------

    def intercept(self, packet: Packet) -> bool:
        """Called by TyCOd when a packet addresses a site this node
        does not host: buffer it (frozen here, mid-migration) or
        forward it (tombstoned: it left).  Returns whether the packet
        was consumed."""
        site_id = packet.dest_site_id
        if site_id in self.frozen:
            self.residuals.setdefault(site_id, []).append(packet)
            self.stats.residuals_buffered += 1
            return True
        dest_ip = self.tombstones.get(site_id)
        if dest_ip is not None:
            self._forward(packet, dest_ip)
            return True
        return False

    # -- lifecycle ----------------------------------------------------------

    def idle(self) -> bool:
        """No migration still in progress (failed-frozen sites and
        tombstones are terminal states, not work)."""
        return not self.inbox and not self.pending_in and all(
            r.failed for r in self.outbound.values())

    def on_restart(self) -> None:
        """The node restarted after a crash: re-drive every in-flight
        exchange.  Duplicates are harmless by design (dedup by token),
        lost replies get re-asked."""
        for record in list(self.outbound.values()):
            if not record.failed:
                record.cancel_retry()     # one retry chain per migration
                self._send_ship(record)
                self._arm_retry(record)
        for pending in list(self.pending_in.values()):
            self._send_need(pending.src_ip, pending.token,
                            pending.code_digest)
