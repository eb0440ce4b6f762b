"""Live site migration: FREEZE -> SHIP -> forward -> rebind -> RESUME.

The paper moves *code* between fixed sites (FETCH); this module moves
a whole *site* between nodes, built on the checkpoint bytes of
:mod:`repro.mobility.checkpoint`.  The protocol, per migration:

1. **FREEZE** -- the source node drains the site's outgoing queue,
   captures its checkpoint ONCE, and removes it from the site pool.
   From here on, every packet addressed to the frozen site is buffered
   (*residuals*) instead of delivered.
2. **CKPT_SHIP** -- one ``MIG_SHIP`` control packet carries both
   checkpoint parts, state and code: the site moves with its code, as
   the paper's SHIPO moves an object with its methods.
3. **RESUME** -- on that SHIP the destination restores the site,
   rebinds its name service record to the new home, adopts it into its
   pool and sends ``MIG_ACK``.
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

from repro.runtime.site import DeliveryError
from repro.runtime.wire import KIND_MIG_ACK, KIND_MIG_SHIP, KINDS, Packet, encode

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
    retries: int = 0
    failures: int = 0
    dup_ships: int = 0
    dup_acks: int = 0
    residuals_buffered: int = 0
    forwards: int = 0
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
    code: bytes
    attempts: int = 0
    failed: bool = False
    #: Cancels the planted SHIP retry (the ACK does).
    cancel_retry: Optional[Callable[[], None]] = None


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
        #: site_id -> packets that arrived while the site was frozen.
        self.residuals: dict[int, list[Packet]] = {}
        #: control packets awaiting :meth:`process_inbox` (the node's
        #: step loop).  Deferral keeps control work on the node's own
        #: quantum: a SHIP's restore runs there, and the ACK and the
        #: residual forwards it sends ride that quantum's batch frames
        #: instead of leaving unbatched from inside transport delivery
        #: (which would move every pinned migration schedule).
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
        self._seq += 1
        token = f"{self.node.ip}:{site.site_id}:{self._seq}"
        record = _Outbound(token=token, site_name=site_name,
                           site_id=site.site_id, dest_ip=dest_ip,
                           state_bytes=ckpt.state, code=ckpt.code)
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
                                 record.code))
        data = encode(packet)
        self.stats.ships_sent += 1
        self.stats.state_bytes_shipped += len(record.state_bytes)
        self.stats.code_bytes_shipped += len(record.code)
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
        token, site_name, _site_id, state_bytes, code = packet.payload
        if token in self.completed_in:
            # Duplicate after completion (our ACK was dropped): the
            # site already runs here, just re-ACK.
            self.stats.dup_ships += 1
            self._send_ack(packet.src_ip, token)
            return
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
        self.node.trace("migrate-in", src=packet.src_ip, dst=self.node.ip,
                        size=len(state_bytes) + len(code),
                        note=f"{site_name} token={token}")
        self._send_ack(packet.src_ip, token)
        self.node.on_work_available()

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
        return not self.inbox and all(
            r.failed for r in self.outbound.values())

    def on_restart(self) -> None:
        """The node restarted after a crash: re-drive every in-flight
        migration.  Duplicates are harmless by design (dedup by token)."""
        for record in list(self.outbound.values()):
            if not record.failed:
                record.cancel_retry()     # one retry chain per migration
                self._send_ship(record)
                self._arm_retry(record)
