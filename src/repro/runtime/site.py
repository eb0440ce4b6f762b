"""Sites: the basic units of the DiTyCO implementation (section 5).

"SITES are the basic units of the implementation.  They are
implemented as threads, each running a re-engineered TyCO virtual
machine."  A :class:`Site` wraps one :class:`~repro.vm.machine.TycoVM`
and provides everything the extension list in section 5 requires:

* **local vs network references** and the **export table** mapping the
  local channels that have left the site to their network references
  (plus the reverse direction for incoming references);
* the **two-step free-variable translation**: outgoing values are
  marshalled (local channels -> NetRefs, everything else untouched)
  here at the sender, and incoming NetRefs that point at *this* site
  are resolved back to heap pointers on delivery;
* the **new instructions** ``export``/``import`` (delegated to the
  network name service through the node's TyCOd);
* the re-implemented ``trmsg``/``trobj``/``instof`` -- their remote
  halves arrive here as :meth:`ship_message`, :meth:`ship_object` and
  :meth:`fetch_instance`;
* **incoming/outgoing queues** -- the TyCOd daemon of the node moves
  packets between them;
* the **I/O port** -- the VM's console output list.

Two protocols ride on a site and own their state: code movement
(FETCH, the SHIPO offer, offer / need / reply;
:class:`~repro.runtime.codecache.SiteCode`, ``site.code``) and the
distributed GC's leases (:class:`~repro.runtime.distgc.LeaseProtocol`,
``site.distgc``, None unless enabled).  The site marshals values and
dispatches each delivered packet to its owner.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

from repro.compiler.assembly import Program
from repro.transport.clock import monotime
from repro.vm.machine import ImportPending, TycoVM, VMRuntimeError
from repro.vm.values import (
    Channel,
    ClassRef,
    NetRef,
    RemoteClassRef,
    remote_ref_key,
)

from .codecache import DeliveryError, SiteCode
from .distgc import GcConfig, LeaseProtocol
from .nameservice import NameService
from .wire import KIND_MESSAGE, KIND_OBJECT, KINDS, Packet, check_payload

#: A site keeps the classes it FETCHed (the ClassRef cache), read when
#: the site is built.  False makes every remote instantiation re-run
#: FETCH: the ablation E4's refetch workload is built with.
FETCH_CACHE = True


class ReclaimedRefError(DeliveryError):
    """An incoming packet referenced an id the distributed GC already
    reclaimed.  Expected (not a protocol violation) during the races
    the lease grace period exists for -- the site logs a ``gc-late``
    trace event and drops the packet instead of faulting."""


@dataclass(slots=True)
class SiteStats:
    """Distribution counters of one site."""

    marshalled_channels: int = 0
    packets_sent: int = 0
    packets_received: int = 0
    fetch_requests_sent: int = 0
    fetch_replies_served: int = 0
    fetch_cache_hits: int = 0
    imports_resolved: int = 0
    imports_stalled: int = 0
    # Code cache (offer/need/reply protocol, docs/WIRE.md).
    code_cache_hits: int = 0
    code_cache_misses: int = 0
    code_needs_sent: int = 0
    code_replies_served: int = 0
    code_items_installed: int = 0


class Site:
    """One site: an extended TyCO VM plus its network plumbing."""

    def __init__(self, site_name: str, site_id: int, ip: str,
                 program: Program, nameservice: NameService,
                 name_signatures: Optional[dict] = None,
                 distgc: bool = False,
                 gc_config: Optional[GcConfig] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.site_name = site_name
        self.site_id = site_id
        self.ip = ip
        #: Former homes of a migrated site (repro.mobility): network
        #: references minted before a migration still carry the old ip,
        #: so the same-site checks below accept any alias as "us".
        #: Empty (and free) for every site that never moved.
        self.alias_ips: set[str] = set()
        self.nameservice = nameservice
        self.vm = TycoVM(program, port=self, name=site_name)
        self.stats = SiteStats()
        #: The lease time base (the world's virtual clock under
        #: simulation).
        self.clock: Callable[[], float] = clock or monotime
        #: Code movement: FETCH, the SHIPO offer, offer / need / reply.
        self.code = SiteCode(self, FETCH_CACHE)
        #: Distributed GC (docs/GC.md).  Off by default: lease traffic
        #: perturbs packet schedules, so it is opt-in like ``typecheck``.
        self.distgc: Optional[LeaseProtocol] = (
            LeaseProtocol(self, gc_config) if distgc else None)
        # hint -> id currently registered with the name service; the
        # registration itself pins the id (an importer may claim at any
        # time), so these survive every sweep until unexported.
        self.name_exports: dict[str, int] = {}
        self.class_export_names: dict[str, int] = {}
        # Dynamic-checking signatures (section 7): hint -> WireSignature
        # from the static pass; heap id -> WireSignature once exported.
        self.name_signatures: dict = dict(name_signatures or {})
        self.wire_signatures: dict[int, object] = {}
        # Export table: which heap ids have legitimately left the site.
        self.exported_ids: set[int] = set()
        # Class export table: ClassRef <-> class id.
        self.class_exports: dict[int, ClassRef] = {}
        self._class_ids: dict[int, int] = {}  # id(ClassRef) -> class id
        self._next_class_id = 1
        # Incoming/outgoing packet queues (pumped by the node's TyCOd).
        self.incoming: deque[Packet] = deque()
        self.outgoing: deque[Packet] = deque()
        # Set by the owning node: reschedules the node when outside
        # events (user input) make this site runnable again.
        self.on_work: Optional[callable] = None
        #: The world's observability bus (repro.obs), set by the node
        #: via :meth:`attach_obs`.
        self.obs = None
        #: Causal span of the packet currently being delivered; packets
        #: created while processing it inherit the span, which is what
        #: threads a cross-site chain (SHIPM -> FETCH -> ...) into one
        #: trace tree.  0 = no span / tracing off.
        self._span_ctx = 0
        # Last (allocated, reclaimed, run-queue depth, comm, inst)
        # published as a "heap" event; only changes are emitted.
        self._vm_state_seen = (0, 0, 0, 0, 0)

    # The code protocol's settings, under the names a site answers to.
    fetch_cache = property(lambda self: self.code.fetch_cache)
    codecache = property(lambda self: self.code.cache)
    codestore = property(lambda self: self.code.store)

    # -- life-cycle ----------------------------------------------------------

    def boot(self) -> None:
        self.vm.boot()

    def is_idle(self) -> bool:
        return (self.vm.is_idle() and not self.incoming and not self.outgoing)

    def has_parked_work(self) -> bool:
        """Work waiting on an answer from elsewhere: a stalled import,
        a pending FETCH or a code offer awaiting its byte-code."""
        return self.vm.has_stalled() or self.code.has_pending()

    def is_blocked(self) -> bool:
        """Idle but holding parked work."""
        return self.is_idle() and self.has_parked_work()

    def attach_obs(self, bus) -> None:
        """Connect this site to the world's event bus.  The VM is not
        told: its state is read off it after each step."""
        self.obs = bus

    def trace(self, kind: str, dst: str = "", size: int = 0,
              note: str = "") -> None:
        """Publish one site-level event on the world's bus."""
        if self.obs is not None and self.obs.active:
            self.obs.emit(kind, src=self.site_name, dst=dst, size=size,
                          note=note, node=self.ip, span=self._span_ctx)

    def _obs_span(self) -> int:
        """Span for an outgoing packet: inherit the chain being
        processed, or open a fresh one.  0 unless tracing is on."""
        if self.obs is None or not self.obs.tracing:
            return 0
        return self._span_ctx or self.obs.new_span()

    def emit_vm_state(self) -> None:
        """Publish a ``heap`` event if the VM's state changed."""
        hs = self.vm.heap.stats()
        vs = self.vm.stats
        depth = len(self.vm.runqueue)
        state = (hs.allocated, hs.reclaimed, depth,
                 vs.comm_reductions, vs.inst_reductions)
        if state == self._vm_state_seen:
            return
        self._vm_state_seen = state
        self.trace("heap", size=hs.live,
                   note=f"alloc={hs.allocated} reclaimed={hs.reclaimed} "
                        f"rq={depth} comm={vs.comm_reductions} "
                        f"inst={vs.inst_reductions}")

    def step(self, budget: int) -> int:
        """Drain the incoming queue, then run the VM for ``budget``."""
        self.pump_incoming()
        executed = self.vm.step(budget)
        if self.distgc is not None:
            self.distgc.flush_claims()
        if self.obs is not None and self.obs.tracing:
            self.emit_vm_state()
        return executed

    def pump_incoming(self) -> int:
        """Process every queued incoming packet."""
        count = 0
        while self.incoming:
            packet = self.incoming.popleft()
            self._span_ctx = packet.span
            try:
                self._deliver(packet)
            except ReclaimedRefError as exc:
                # Grace-period race resolved against a late packet (only
                # the lease protocol reclaims): drop it, as the sender's
                # lease had lapsed.
                self.distgc.stats.late_drops += 1
                self.trace("gc-late", packet.src_ip, note=str(exc))
            finally:
                self._span_ctx = 0
            count += 1
        if self.distgc is not None:
            self.distgc.flush_claims()
        return count

    def on_nameservice_update(self) -> None:
        """Retry imports stalled on missing registrations."""
        if self.vm.has_stalled():
            self.vm.resume_stalled()

    def debug_report(self) -> str:
        """Human-readable state dump: what the site is waiting on.

        The first tool for "why did my network stop?": lists channels
        with queued messages/objects, stalled imports and pending
        FETCHes.
        """
        lines = [f"site {self.site_name} (id {self.site_id}) @ {self.ip}:"]
        s = self.vm.stats
        lines.append(
            f"  executed {s.instructions} instr, "
            f"{s.comm_reductions} comm, {s.inst_reductions} inst; "
            f"runnable: {len(self.vm.runqueue)}")
        waiting = [ch for ch in self.vm.heap if not ch.is_idle()]
        for ch in waiting:
            if ch.messages:
                labels = ", ".join(l for l, _ in ch.messages)
                lines.append(
                    f"  channel {ch.hint}#{ch.heap_id}: "
                    f"{len(ch.messages)} queued message(s) [{labels}]")
            if ch.objects:
                suites = ", ".join(
                    "{" + ", ".join(sorted(m)) + "}" for m, _ in ch.objects)
                lines.append(
                    f"  channel {ch.hint}#{ch.heap_id}: "
                    f"{len(ch.objects)} waiting object(s) {suites}")
        if self.vm.has_stalled():
            lines.append(f"  {len(self.vm.stalled)} thread(s) stalled on "
                         f"unresolved imports")
        parts = self.code.debug_lines()
        if self.distgc is not None:
            parts.extend(self.distgc.debug_lines())
        lines.extend("  " + line for line in parts)
        if len(lines) == 2 and not waiting:
            lines.append("  idle, no queued work")
        return "\n".join(lines)

    @property
    def output(self) -> list:
        return self.vm.output

    def post_input(self, hint: str, label: str, args: tuple = ()) -> None:
        """The input half of the site I/O port (section 5): "users may
        selectively provide data to running programs".

        Delivers a message to the program's free channel named
        ``hint`` -- e.g. a program containing ``stdin?(v) = ...``
        receives ``site.post_input("stdin", "val", (42,))``.
        """
        channel = self.vm.externals.get(hint)
        if channel is None:
            raise KeyError(
                f"{self.site_name}: program has no external channel "
                f"{hint!r} (externals: {sorted(self.vm.externals)})")
        self.vm._trmsg(channel, label, args)
        if self.on_work is not None:
            self.on_work()

    # -- RemotePort: externals -------------------------------------------------

    def resolve_external(self, hint: str) -> Optional[Channel]:
        return None  # default policy (console/fresh) decided by the VM

    # -- RemotePort: name service ------------------------------------------------

    def export_name(self, hint: str, channel) -> None:
        if not isinstance(channel, Channel):
            raise VMRuntimeError(
                f"{self.site_name}: export of non-channel {channel!r}")
        self.exported_ids.add(channel.heap_id)
        ws = self.name_signatures.get(hint)
        if ws is not None:
            self.wire_signatures[channel.heap_id] = ws
        old = self.name_exports.get(hint)
        if old != channel.heap_id:
            self._unpin("n", old)
        self.name_exports[hint] = channel.heap_id
        self.nameservice.export_name(self.site_name, hint, channel.heap_id)

    def unexport_name(self, hint: str) -> bool:
        """Withdraw a name-service registration; the id stays pinned
        for the lease grace period, then becomes collectable (unless a
        holder's lease keeps it alive).  Returns whether it existed."""
        old = self.name_exports.pop(hint, None)
        self._unpin("n", old)
        return self.nameservice.unregister_export(self.site_name, hint) \
            or old is not None

    def _unpin(self, kind: str, old: Optional[int]) -> None:
        """A name no longer registers id ``old``, but an importer may
        have looked it up moments ago and its claim may still be in
        flight: with distgc the id stays pinned for the grace period."""
        if old is not None and self.distgc is not None:
            self.distgc.add_grace((kind, old), self.clock())

    def import_name(self, hint: str, site: str):
        ref = self.nameservice.lookup_name(site, hint)
        if ref is None:
            self.stats.imports_stalled += 1
            raise ImportPending(f"{site}.{hint}")
        self.stats.imports_resolved += 1
        # Same-site optimisation: an import of our own export is local.
        if self.is_self(ref.ip, ref.site_id):
            return self.vm.heap.get(ref.heap_id)
        if self.distgc is not None:
            self.distgc.note_remote(ref)
        return ref

    def export_class(self, hint: str, classref) -> None:
        if not isinstance(classref, ClassRef):
            raise VMRuntimeError(
                f"{self.site_name}: export of non-class {classref!r}")
        class_id = self._class_id_for(classref)
        old = self.class_export_names.get(hint)
        if old != class_id:
            self._unpin("c", old)
        self.class_export_names[hint] = class_id
        self.nameservice.export_class(self.site_name, hint, class_id)

    def unexport_class(self, hint: str) -> bool:
        """Withdraw a class registration (grace rules as for names)."""
        old = self.class_export_names.pop(hint, None)
        self._unpin("c", old)
        return self.nameservice.unregister_class_export(self.site_name, hint) \
            or old is not None

    def retire_exports(self) -> None:
        """Withdraw every registration this site made (called by the
        TyCOi reaper before destroying an exited site)."""
        for hint in list(self.name_exports):
            self.unexport_name(hint)
        for hint in list(self.class_export_names):
            self.unexport_class(hint)

    def import_class(self, hint: str, site: str):
        ref = self.nameservice.lookup_class(site, hint)
        if ref is None:
            self.stats.imports_stalled += 1
            raise ImportPending(f"{site}.{hint}")
        self.stats.imports_resolved += 1
        if self.is_self(ref.ip, ref.site_id):
            return self.class_exports[ref.class_id]
        if self.distgc is not None:
            self.distgc.note_remote(ref)
        return ref

    def _class_id_for(self, classref: ClassRef) -> int:
        key = id(classref)
        existing = self._class_ids.get(key)
        if existing is not None:
            return existing
        class_id = self._next_class_id
        self._next_class_id += 1
        self._class_ids[key] = class_id
        self.class_exports[class_id] = classref
        return class_id

    def forget_class(self, class_id: int) -> None:
        """Drop an exported class the lease protocol reclaimed."""
        self._class_ids.pop(id(self.class_exports.pop(class_id)), None)

    def exported_class(self, class_id: int, what: str = "") -> ClassRef:
        """The class exported under ``class_id``; ``what`` names the
        asker in the error ("FETCH of ")."""
        classref = self.class_exports.get(class_id)
        if classref is None:
            if self.distgc is not None \
                    and class_id in self.distgc.class_tombstones:
                raise ReclaimedRefError(
                    f"{self.site_name}: {what or 'reference to '}reclaimed "
                    f"class id {class_id}")
            raise DeliveryError(
                f"{self.site_name}: {what}unknown class id {class_id}")
        return classref

    def check_target(self, heap_id: int, what: str = "delivery to") -> None:
        """``heap_id`` must name a channel this site exported."""
        if self.distgc is not None and heap_id in self.distgc.tombstones:
            raise ReclaimedRefError(
                f"{self.site_name}: {what} reclaimed heap id {heap_id}")
        if heap_id not in self.exported_ids:
            raise DeliveryError(
                f"{self.site_name}: {what} unexported heap id {heap_id}")

    # -- RemotePort: shipping ------------------------------------------------------

    def ship_message(self, target: NetRef, label: str, args: tuple) -> None:
        """SHIPM at the VM level: marshal args and enqueue the packet."""
        dest = (target.ip, target.site_id)
        payload = (target.heap_id, label,
                   tuple(self.marshal_value(a, dest) for a in args))
        self.send(KIND_MESSAGE, target.ip, target.site_id, payload)
        self.trace("shipm", target.ip, size=len(args), note=label)

    def ship_object(self, target: NetRef, methods: dict[str, int],
                    env: tuple) -> None:
        """SHIPO: the code protocol offers the method blocks by digest;
        the environment is marshalled here."""
        token, positions, digests = self.code.offer(methods)
        dest = (target.ip, target.site_id)
        payload = (token, target.heap_id, positions, digests,
                   tuple(self.marshal_value(v, dest) for v in env))
        self.send(KIND_OBJECT, target.ip, target.site_id, payload)
        self.trace("shipo", target.ip, size=len(methods))

    def fetch_instance(self, cref: RemoteClassRef, args: tuple) -> None:
        """INSTOF on a remote class (the code protocol's FETCH)."""
        self.code.fetch_instance(cref, args)

    def send(self, kind: str, dest_ip: str, dest_site_id: int,
             payload) -> None:
        """Queue one packet for the TyCOd.  The caller has built
        ``payload`` already, so marshalling runs before the span is
        allocated: span ids and wire bytes depend on that order."""
        self.outgoing.append(Packet(
            kind=kind,
            src_ip=self.ip, src_site_id=self.site_id,
            dest_ip=dest_ip, dest_site_id=dest_site_id,
            payload=payload,
            span=self._obs_span(),
        ))
        self.stats.packets_sent += 1

    def is_self(self, ip: str, site_id: int) -> bool:
        """Does ``(ip, site_id)`` name *this* site?  A migrated site
        answers for every former home too (:attr:`alias_ips`), so
        references minted before the move keep resolving locally."""
        return site_id == self.site_id and (
            ip == self.ip or ip in self.alias_ips)

    # -- marshalling (the two-step translation of section 5) ------------------------

    def marshal_value(self, v: Any, dest: Optional[tuple[str, int]] = None) -> Any:
        """Sender half: local references become network references.

        ``dest`` is the receiving endpoint ``(ip, site_id)`` when
        known; with distributed GC it receives an immediate lease on
        every reference shipped to it (grant-on-marshal-out), so the
        id stays pinned until the holder's own claim takes over."""
        if isinstance(v, Channel):
            self.exported_ids.add(v.heap_id)
            self.stats.marshalled_channels += 1
            if self.distgc is not None:
                self.distgc.grant_out(("n", v.heap_id), dest)
            return NetRef(heap_id=v.heap_id, site_id=self.site_id, ip=self.ip)
        if isinstance(v, ClassRef):
            # A class value leaving the site becomes a remote class
            # reference bound to this site (lexical scope on classes).
            class_id = self._class_id_for(v)
            if self.distgc is not None:
                self.distgc.grant_out(("c", class_id), dest)
            return RemoteClassRef(class_id=class_id,
                                  site_id=self.site_id, ip=self.ip)
        if isinstance(v, (NetRef, RemoteClassRef)):
            # Forwarding a reference we merely hold: if it points into
            # *this* site it still needs a lease for the new holder.
            if self.distgc is not None and self.is_self(v.ip, v.site_id):
                self.distgc.grant_out(remote_ref_key(v), dest)
            return v
        if isinstance(v, (bool, int, float, str)):
            return v
        raise VMRuntimeError(
            f"{self.site_name}: value {v!r} cannot cross the network")

    def unmarshal_value(self, v: Any) -> Any:
        """Receiver half: references bound to this site become local."""
        if isinstance(v, (int, float, str)):    # bool is an int
            return v
        if isinstance(v, NetRef):
            if self.is_self(v.ip, v.site_id):
                self.check_target(v.heap_id, "reference to")
                return self.vm.heap.get(v.heap_id)
            if self.distgc is not None:
                self.distgc.note_remote(v)
            return v
        if isinstance(v, RemoteClassRef):
            if self.is_self(v.ip, v.site_id):
                return self.exported_class(v.class_id)
            if self.distgc is not None:
                self.distgc.note_remote(v)
            return self.code.cached_class(v)
        # Only what marshal_value produces crosses the network.
        raise DeliveryError(
            f"{self.site_name}: received value {v!r:.80} is not a "
            f"marshalled value")

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, packet: Packet) -> None:
        """Hand a packet to the handler its kind names in ``KINDS``."""
        self.stats.packets_received += 1
        owner, handler, _layout = KINDS[packet.kind]
        target = self if owner == "site" else getattr(self, owner)
        if target is not None:  # else no distgc: stray lease traffic
            getattr(target, handler)(packet)

    def on_message(self, packet: Packet) -> None:
        """SHIPM's remote half: a message for a channel we exported."""
        heap_id, label, args = packet.payload
        self.check_target(heap_id)
        values = tuple(self.unmarshal_value(a) for a in args)
        signature = self.wire_signatures.get(heap_id)
        if signature is not None:
            # Dynamic half of the section-7 checking scheme.
            signature.check(label, values)
        self.vm.deliver_message(heap_id, label, values)

    # -- checkpoint (repro.mobility.checkpoint) -------------------------------

    def checkpoint_state(self, cap) -> dict:
        """The site's own tables for a checkpoint; ``cap.flatten``
        gives a VM value its checkpoint form."""
        return {
            "site_name": self.site_name,
            "site_id": self.site_id,
            "ip": self.ip,
            "alias_ips": sorted(self.alias_ips),
            "site_stats": asdict(self.stats),
            "exported_ids": sorted(self.exported_ids),
            "name_exports": list(self.name_exports.items()),
            "class_export_names": list(self.class_export_names.items()),
            "class_exports": [(cid, cap.flatten(cr))
                              for cid, cr in sorted(self.class_exports.items())],
            "next_class_id": self._next_class_id,
            "incoming": list(self.incoming),
            "outgoing": list(self.outgoing),
        }

    def restore_state(self, state: dict, res) -> None:
        """Refill from :meth:`checkpoint_state` (``res.unflatten``
        turns a checkpoint form back into a value).  Restoring onto a
        new ip records the old home in :attr:`alias_ips`."""
        self.alias_ips = set(state["alias_ips"])
        self.alias_ips.add(state["ip"])
        self.alias_ips.discard(self.ip)
        self.stats = SiteStats(**state["site_stats"])
        self.exported_ids = set(state["exported_ids"])
        self.name_exports = dict(state["name_exports"])
        self.class_export_names = dict(state["class_export_names"])
        self.class_exports = {cid: res.unflatten(flat)
                              for cid, flat in state["class_exports"]}
        self._class_ids = {id(cr): cid
                           for cid, cr in self.class_exports.items()}
        self._next_class_id = state["next_class_id"]
        self.incoming = deque(state["incoming"])
        self.outgoing = deque(state["outgoing"])
        for packet in (*self.incoming, *self.outgoing):
            check_payload(packet)
