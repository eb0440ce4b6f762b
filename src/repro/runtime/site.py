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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.compiler.assembly import Program
from repro.transport.clock import monotime
from repro.compiler.linker import LinkError, extract_bundle
from repro.vm.machine import ImportPending, TycoVM, VMRuntimeError
from repro.vm.values import (
    Channel,
    ClassRef,
    NetRef,
    RemoteClassRef,
    remote_ref_key,
)

from . import codecache
from .codecache import (
    BLOCK,
    GROUP,
    ROOTS_ARG,
    CodeCache,
    CodeStore,
    digest_item,
    link_bundle_cached,
    manifest_for_bundle,
    verified_roots,
)
from .distgc import DistGC, GcConfig
from .nameservice import NameService
from .wire import (
    KIND_CODE_NEED,
    KIND_CODE_REPLY,
    KIND_FETCH_REPLY,
    KIND_FETCH_REQUEST,
    KIND_MESSAGE,
    KIND_OBJECT,
    KIND_REF_DROP,
    KIND_REF_LEASE,
    KIND_REF_RENEW,
    Packet,
)

#: A site keeps the classes it FETCHed (the ClassRef cache), read when
#: the site is built.  False makes every remote instantiation re-run
#: FETCH: the ablation E4's refetch workload is built with.
FETCH_CACHE = True


class DeliveryError(VMRuntimeError):
    """An incoming packet referenced an unknown or unexported entity."""


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
        #: This site's :data:`FETCH_CACHE` setting; a checkpoint
        #: carries it, so an ablated site restores ablated.
        self.fetch_cache = FETCH_CACHE
        self.vm = TycoVM(program, port=self, name=site_name)
        self.stats = SiteStats()
        # Distributed GC (repro.runtime.distgc, docs/GC.md).  Off by
        # default: lease traffic perturbs packet schedules, so it is
        # opt-in like ``typecheck``.  ``clock`` supplies the time base
        # leases live on (the world's virtual clock under simulation).
        self.distgc: Optional[DistGC] = DistGC(gc_config) if distgc else None
        self.clock: Callable[[], float] = clock or monotime
        # hint -> id currently registered with the name service; the
        # registration itself pins the id (an importer may claim at any
        # time), so these survive every sweep until unexported.
        self._name_exports: dict[str, int] = {}
        self._class_export_names: dict[str, int] = {}
        # Ids the distributed GC reclaimed: late packets for them are
        # dropped gracefully rather than treated as protocol errors.
        self._gc_tombstones: set[int] = set()
        self._gc_class_tombstones: set[int] = set()
        # Dynamic-checking signatures (section 7): hint -> WireSignature
        # from the static pass; heap id -> WireSignature once exported.
        self.name_signatures: dict = dict(name_signatures or {})
        self.wire_signatures: dict[int, object] = {}
        # Export table: which heap ids have legitimately left the site.
        self.exported_ids: set[int] = set()
        # Class export table: ClassRef <-> class id.
        self._class_exports: dict[int, ClassRef] = {}
        self._class_ids: dict[int, int] = {}  # id(ClassRef) -> class id
        self._next_class_id = 1
        # FETCH cache: (owner ip, owner site, class id) -> local ClassRef.
        self._fetched: dict[tuple[str, int, int], ClassRef] = {}
        # Instantiations waiting for an in-flight FETCH.
        self._pending_fetch: dict[tuple[str, int, int], list[tuple]] = {}
        # Per-site code table: digest -> id in *this* program area,
        # plus the in-flight protocol state (ablation A2,
        # ``codecache.CODE_CACHE`` off, links every bundle from scratch,
        # the pre-cache behaviour).
        self.codecache: Optional[CodeCache] = (
            CodeCache(program) if codecache.CODE_CACHE else None)
        #: Where the code itself is kept: the node's store, handed over
        #: by ``Node.create_site`` / ``adopt_site``.  A bare site gets a
        #: private one so there is a single path; None with the cache
        #: ablated (every offer is then answered with a CODE_NEED).
        self.codestore: Optional[CodeStore] = (
            CodeStore() if codecache.CODE_CACHE else None)
        # The one digest memo over this program area (serving and
        # shipping; site-owned so an ablated cache still serves from it).
        self._digest_memo: dict = {}
        # Offers whose code has not arrived yet:
        # (src ip, src site, token kind, token value) ->
        #     (needed digests, offer payload).
        self._pending_code: dict[tuple[str, int, str, Any],
                                 tuple[tuple[bytes, ...], tuple]] = {}
        # SHIPO offers we made, so a CODE_NEED can be answered later --
        # kept for the lifetime of the site: a crashed receiver may ask
        # for the code long after the offer (restart recovery).  Once
        # the site is gone its node answers from the store instead
        # (``TyCOd._answer_orphan_need``).
        self._ship_offers: dict[int, tuple[int, ...]] = {}
        self._next_ship_token = 1
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

    # -- life-cycle ----------------------------------------------------------

    def boot(self) -> None:
        self.vm.boot()

    def is_idle(self) -> bool:
        return (self.vm.is_idle() and not self.incoming and not self.outgoing)

    def has_parked_work(self) -> bool:
        """Work waiting on an answer from elsewhere: a stalled import,
        a pending FETCH or a code offer awaiting its byte-code."""
        return (self.vm.has_stalled() or bool(self._pending_fetch)
                or bool(self._pending_code))

    def is_blocked(self) -> bool:
        """Idle but holding parked work."""
        return self.is_idle() and self.has_parked_work()

    def attach_obs(self, bus) -> None:
        """Connect this site to the world's event bus.  The VM is not
        told: its state is read off it after each step."""
        self.obs = bus

    def _trace(self, kind: str, dst: str = "", size: int = 0,
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

    def _emit_vm_state(self) -> None:
        hs = self.vm.heap.stats()
        vs = self.vm.stats
        depth = len(self.vm.runqueue)
        state = (hs.allocated, hs.reclaimed, depth,
                 vs.comm_reductions, vs.inst_reductions)
        if state == self._vm_state_seen:
            return
        self._vm_state_seen = state
        self._trace("heap", size=hs.live,
                    note=f"alloc={hs.allocated} reclaimed={hs.reclaimed} "
                         f"rq={depth} comm={vs.comm_reductions} "
                         f"inst={vs.inst_reductions}")

    def step(self, budget: int) -> int:
        """Drain the incoming queue, then run the VM for ``budget``."""
        self.pump_incoming()
        executed = self.vm.step(budget)
        self._flush_gc_claims()
        if self.obs is not None and self.obs.tracing:
            self._emit_vm_state()
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
                # Grace-period race resolved against a late packet:
                # drop it, as the sender's lease had lapsed.
                if self.distgc is not None:
                    self.distgc.stats.late_drops += 1
                self._trace("gc-late", packet.src_ip, note=str(exc))
            finally:
                self._span_ctx = 0
            count += 1
        self._flush_gc_claims()
        return count

    def now(self) -> float:
        """The lease time base (world virtual clock under simulation)."""
        return self.clock()

    def on_nameservice_update(self) -> None:
        """Retry imports stalled on missing registrations."""
        if self.vm.has_stalled():
            self.vm.resume_stalled()

    # -- distributed GC (repro.runtime.distgc, docs/GC.md) ---------------------

    def _gc_extra_roots(self, include_exports: bool = True) -> list:
        """Values outside the VM graph that must count as live for a
        sweep: arguments parked on FETCHes, parked code offers, cached
        and exported classes (their environments hold channels), and
        the payloads of queued packets (already marshalled, so they
        contain references, never raw channels).

        ``include_exports=False`` omits the exported channels
        themselves -- the testkit uses it to ask "what is reachable
        *without* the export pins?" for the liveness invariant."""
        extra: list = [args for waiting in self._pending_fetch.values()
                       for args in waiting]
        extra.extend(entry[1] for entry in self._pending_code.values())
        extra.extend(self._fetched.values())
        extra.extend(self._class_exports.values())
        extra.extend(p.payload for p in self.incoming)
        extra.extend(p.payload for p in self.outgoing)
        if include_exports:
            # Exported channels' queues are live data while pinned;
            # remote references parked in them still need renewing.
            heap = self.vm.heap
            extra.extend(heap.get(hid) for hid in self.exported_ids
                         if hid in heap)
        return extra

    def run_distgc(self, now: Optional[float] = None) -> int:
        """One distributed-GC sweep (driven by the owning node).

        Holder half: rescan the live graph, drop leases on references
        we no longer hold, renew the rest, flush first-sight claims.
        Owner half: expire overdue leases, reclaim exported classes
        and heap channels that are neither registered, leased, nor
        locally reachable.  Returns reclaimed channel count."""
        if self.distgc is None:
            return 0
        gc = self.distgc
        if now is None:
            now = self.now()
        # -- holder side -----------------------------------------------------
        self_ep = (self.ip, self.site_id)
        remote = self.vm.scan_refs(extra_roots=self._gc_extra_roots())
        reachable: dict[tuple[str, int], set] = {}
        for ref in remote:
            owner = (ref.ip, ref.site_id)
            if owner == self_ep:
                continue
            reachable.setdefault(owner, set()).add(remote_ref_key(ref))
        # Cached and in-flight fetches hold the owner's class alive
        # even when no RemoteClassRef value remains in the graph.
        for (ip, sid, cid) in self._fetched:
            if (ip, sid) != self_ep:
                reachable.setdefault((ip, sid), set()).add(("c", cid))
        for (ip, sid, cid) in self._pending_fetch:
            if (ip, sid) != self_ep:
                reachable.setdefault((ip, sid), set()).add(("c", cid))
        for owner, keys in gc.sync_held(reachable, now).items():
            self._send_ref(KIND_REF_DROP, owner, keys)
        for owner, keys in gc.pop_renewals(now).items():
            self._send_ref(KIND_REF_RENEW, owner, keys)
        self._flush_gc_claims()
        # -- owner side ------------------------------------------------------
        live = gc.live_keys(now)
        live_classes = set(self._class_export_names.values())
        live_classes.update(i for (k, i) in live if k == "c")
        dead_classes = [c for c in self._class_exports
                        if c not in live_classes]
        for cid in dead_classes:
            classref = self._class_exports.pop(cid)
            self._class_ids.pop(id(classref), None)
            self._gc_class_tombstones.add(cid)
        gc.stats.classes_reclaimed += len(dead_classes)
        pinned = set(self._name_exports.values())
        pinned.update(i for (k, i) in live if k == "n")
        # include_exports=False: pinned ids are already transitive roots
        # inside Heap.collect; rooting *every* exported channel here
        # would keep unpinned exports alive forever.
        reclaimed = self.vm.collect_garbage(
            pinned=pinned,
            extra_roots=self._gc_extra_roots(include_exports=False))
        dead_exports = [hid for hid in self.exported_ids
                        if hid not in self.vm.heap]
        for hid in dead_exports:
            self.exported_ids.discard(hid)
            self.wire_signatures.pop(hid, None)
            self._gc_tombstones.add(hid)
        gc.stats.sweeps += 1
        gc.stats.channels_reclaimed += reclaimed
        if reclaimed or dead_classes:
            hs = self.vm.heap.stats()
            self._trace("gc", size=reclaimed,
                        note=f"classes={len(dead_classes)} "
                             f"exports={len(dead_exports)} "
                             f"heap={hs.live}/{hs.allocated}")
        if self.obs is not None and self.obs.tracing:
            # A sweep changes the heap outside a step; the holder may
            # be idle, and an idle site is never stepped.
            self._emit_vm_state()
        return reclaimed

    def on_peer_suspected(self, ip: str) -> None:
        """Failure-detector reconfiguration: the node at ``ip`` is
        suspected dead.  Its leases on our exports lapse immediately
        (no grace -- its references are gone with it), we stop renewing
        leases it granted us, and its cached class bindings are evicted
        (a restarted peer may rebind class ids; the content-addressed
        code itself stays installed and is simply re-linked)."""
        if self.distgc is None or ip == self.ip:
            return
        self.distgc.expire_holder(ip)
        self.distgc.drop_owner(ip)
        for key in [k for k in self._fetched if k[0] == ip]:
            del self._fetched[key]
        if self.codecache is not None:
            self.codecache.bump_generation()

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
        for key, args_list in self._pending_fetch.items():
            ip, sid, cid = key
            lines.append(f"  FETCH pending from {ip}/s{sid}/c{cid} "
                         f"({len(args_list)} instantiation(s) parked)")
        for pkey, (needed, _payload) in self._pending_code.items():
            ip, sid, token_kind, token_val = pkey
            lines.append(f"  code pending from {ip}/s{sid} "
                         f"({token_kind} {token_val}, "
                         f"{len(needed)} digest(s) awaited)")
        if self.distgc is not None:
            hs = self.vm.heap.stats()
            gs = self.distgc.stats
            lines.append(
                f"  heap: {hs.live} live / {hs.allocated} allocated / "
                f"{hs.reclaimed} reclaimed; gc: {gs.sweeps} sweep(s), "
                f"{len(self.distgc.leases)} leased key(s), "
                f"{gs.late_drops} late drop(s)")
            lines.extend("  " + line for line in self.distgc.debug_lines())
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
        old = self._name_exports.get(hint)
        if self.distgc is not None and old is not None \
                and old != channel.heap_id:
            # Rebinding the name unpins the old id, but an importer may
            # have looked it up moments ago and its claim may still be
            # in flight: keep the old id pinned for the grace period.
            self.distgc.add_grace(("n", old), self.now())
        self._name_exports[hint] = channel.heap_id
        self.nameservice.export_name(self.site_name, hint, channel.heap_id)

    def unexport_name(self, hint: str) -> bool:
        """Withdraw a name-service registration; the id stays pinned
        for the lease grace period, then becomes collectable (unless a
        holder's lease keeps it alive).  Returns whether it existed."""
        old = self._name_exports.pop(hint, None)
        if old is not None and self.distgc is not None:
            self.distgc.add_grace(("n", old), self.now())
        return self.nameservice.unregister_export(self.site_name, hint) \
            or old is not None

    def import_name(self, hint: str, site: str):
        ref = self.nameservice.lookup_name(site, hint)
        if ref is None:
            self.stats.imports_stalled += 1
            raise ImportPending(f"{site}.{hint}")
        self.stats.imports_resolved += 1
        # Same-site optimisation: an import of our own export is local.
        if self._is_self(ref.ip, ref.site_id):
            return self.vm.heap.get(ref.heap_id)
        self._note_remote(ref)
        return ref

    def export_class(self, hint: str, classref) -> None:
        if not isinstance(classref, ClassRef):
            raise VMRuntimeError(
                f"{self.site_name}: export of non-class {classref!r}")
        class_id = self._class_id_for(classref)
        old = self._class_export_names.get(hint)
        if self.distgc is not None and old is not None and old != class_id:
            self.distgc.add_grace(("c", old), self.now())
        self._class_export_names[hint] = class_id
        self.nameservice.export_class(self.site_name, hint, class_id)

    def unexport_class(self, hint: str) -> bool:
        """Withdraw a class registration (grace rules as for names)."""
        old = self._class_export_names.pop(hint, None)
        if old is not None and self.distgc is not None:
            self.distgc.add_grace(("c", old), self.now())
        return self.nameservice.unregister_class_export(self.site_name, hint) \
            or old is not None

    def retire_exports(self) -> None:
        """Withdraw every registration this site made (called by the
        TyCOi reaper before destroying an exited site)."""
        for hint in list(self._name_exports):
            self.unexport_name(hint)
        for hint in list(self._class_export_names):
            self.unexport_class(hint)

    def import_class(self, hint: str, site: str):
        ref = self.nameservice.lookup_class(site, hint)
        if ref is None:
            self.stats.imports_stalled += 1
            raise ImportPending(f"{site}.{hint}")
        self.stats.imports_resolved += 1
        if self._is_self(ref.ip, ref.site_id):
            return self._class_exports[ref.class_id]
        self._note_remote(ref)
        return ref

    def _class_id_for(self, classref: ClassRef) -> int:
        key = id(classref)
        existing = self._class_ids.get(key)
        if existing is not None:
            return existing
        class_id = self._next_class_id
        self._next_class_id += 1
        self._class_ids[key] = class_id
        self._class_exports[class_id] = classref
        return class_id

    # -- RemotePort: shipping ------------------------------------------------------

    def ship_message(self, target: NetRef, label: str, args: tuple) -> None:
        """SHIPM at the VM level: marshal args and enqueue the packet."""
        dest = (target.ip, target.site_id)
        payload = (target.heap_id, label,
                   tuple(self.marshal_value(a, dest) for a in args))
        self._send(KIND_MESSAGE, target.ip, target.site_id, payload)
        self._trace("shipm", target.ip, size=len(args), note=label)

    def _digest_of(self, kind: str, item_id: int) -> bytes:
        """Content digest of one of our own program items (serving
        side of the code protocol).  The slice extracted to compute it
        stays in the node's store: the next need for it is answered
        without extracting again, by this site or -- once this site
        was reaped -- by the node."""
        return digest_item(self.vm.program, kind, item_id,
                           self._digest_memo, self.codestore)

    def ship_object(self, target: NetRef, methods: dict[str, int],
                    env: tuple) -> None:
        """SHIPO: *offer* the movable byte-code by content digest; the
        receiver answers with a CODE_NEED for the method blocks it does
        not already hold (docs/WIRE.md)."""
        block_ids = tuple(methods.values())
        digests = tuple(self._digest_of(BLOCK, bid) for bid in block_ids)
        if self.codecache is not None:
            # Our own exported code is cached too, so code that bounces
            # back to this site is recognised instead of re-downloaded.
            for bid, digest in zip(block_ids, digests):
                self.codecache.register(digest, BLOCK, bid)
        token = self._next_ship_token
        self._next_ship_token += 1
        self._ship_offers[token] = block_ids
        positions = {label: i for i, label in enumerate(methods.keys())}
        dest = (target.ip, target.site_id)
        payload = (token, target.heap_id, positions, digests,
                   tuple(self.marshal_value(v, dest) for v in env))
        self._send(KIND_OBJECT, target.ip, target.site_id, payload)
        self._trace("shipo", target.ip, size=len(block_ids))

    def fetch_instance(self, cref: RemoteClassRef, args: tuple) -> None:
        """INSTOF on a remote class: FETCH protocol with caching."""
        key = (cref.ip, cref.site_id, cref.class_id)
        if self.fetch_cache:
            cached = self._fetched.get(key)
            if cached is not None:
                self.stats.fetch_cache_hits += 1
                self.vm.spawn_instance(cached, args)
                return
        pending = self._pending_fetch.get(key)
        if pending is not None:
            pending.append(args)
            return
        self._pending_fetch[key] = [args]
        self.stats.fetch_requests_sent += 1
        self._send(KIND_FETCH_REQUEST, cref.ip, cref.site_id,
                   (cref.class_id,))
        self._trace("fetch-req", cref.ip, note=f"class {cref.class_id}")

    def _send(self, kind: str, dest_ip: str, dest_site_id: int,
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

    def _is_self(self, ip: str, site_id: int) -> bool:
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
            self._grant_out(("n", v.heap_id), dest)
            return NetRef(heap_id=v.heap_id, site_id=self.site_id, ip=self.ip)
        if isinstance(v, ClassRef):
            # A class value leaving the site becomes a remote class
            # reference bound to this site (lexical scope on classes).
            class_id = self._class_id_for(v)
            self._grant_out(("c", class_id), dest)
            return RemoteClassRef(class_id=class_id,
                                  site_id=self.site_id, ip=self.ip)
        if isinstance(v, (NetRef, RemoteClassRef)):
            # Forwarding a reference we merely hold: if it points into
            # *this* site it still needs a lease for the new holder.
            if self._is_self(v.ip, v.site_id):
                self._grant_out(remote_ref_key(v), dest)
            return v
        if isinstance(v, (bool, int, float, str)):
            return v
        raise VMRuntimeError(
            f"{self.site_name}: value {v!r} cannot cross the network")

    def _grant_out(self, key: tuple[str, int],
                   dest: Optional[tuple[str, int]]) -> None:
        if self.distgc is None or dest is None:
            return
        if dest == (self.ip, self.site_id):
            return
        self.distgc.grant(key, dest, self.now())

    def _note_remote(self, ref) -> None:
        """Holder side: a remote reference entered this site's graph;
        claim a lease at its owner on first sight (idempotent at the
        owner, and the only signal for third-party forwards)."""
        if self.distgc is None:
            return
        owner = (ref.ip, ref.site_id)
        if self._is_self(ref.ip, ref.site_id):
            return
        self.distgc.note_held(owner, remote_ref_key(ref), self.now())

    def _flush_gc_claims(self) -> None:
        if self.distgc is None:
            return
        for owner, keys in self.distgc.pop_claims().items():
            self._send_ref(KIND_REF_LEASE, owner, keys)

    def _send_ref(self, kind: str, owner: tuple[str, int],
                  keys: tuple) -> None:
        self._send(kind, owner[0], owner[1], (tuple(keys),))
        if self.on_work is not None:
            self.on_work()

    def unmarshal_value(self, v: Any) -> Any:
        """Receiver half: references bound to this site become local."""
        if isinstance(v, NetRef):
            if self._is_self(v.ip, v.site_id):
                if v.heap_id in self._gc_tombstones:
                    raise ReclaimedRefError(
                        f"{self.site_name}: reference to reclaimed "
                        f"heap id {v.heap_id}")
                if v.heap_id not in self.exported_ids:
                    raise DeliveryError(
                        f"{self.site_name}: reference to unexported "
                        f"heap id {v.heap_id}")
                return self.vm.heap.get(v.heap_id)
            self._note_remote(v)
            return v
        if isinstance(v, RemoteClassRef):
            if self._is_self(v.ip, v.site_id):
                classref = self._class_exports.get(v.class_id)
                if classref is None:
                    if v.class_id in self._gc_class_tombstones:
                        raise ReclaimedRefError(
                            f"{self.site_name}: reference to reclaimed "
                            f"class id {v.class_id}")
                    raise DeliveryError(
                        f"{self.site_name}: unknown class id {v.class_id}")
                return classref
            self._note_remote(v)
            if self.fetch_cache:
                cached = self._fetched.get((v.ip, v.site_id, v.class_id))
                if cached is not None:
                    return cached
            return v
        return v

    # -- delivery -------------------------------------------------------------------

    def _deliver(self, packet: Packet) -> None:
        self.stats.packets_received += 1
        if packet.kind == KIND_MESSAGE:
            heap_id, label, args = packet.payload
            self._check_target(heap_id)
            values = tuple(self.unmarshal_value(a) for a in args)
            signature = self.wire_signatures.get(heap_id)
            if signature is not None:
                # Dynamic half of the section-7 checking scheme.
                signature.check(label, values)
            self.vm.deliver_message(heap_id, label, values)
            return
        if packet.kind == KIND_OBJECT:
            self._on_object_offer(packet)
            return
        if packet.kind == KIND_FETCH_REQUEST:
            (class_id,) = packet.payload
            self._serve_fetch(packet, class_id)
            return
        if packet.kind == KIND_FETCH_REPLY:
            self._on_fetch_offer(packet)
            return
        if packet.kind == KIND_CODE_NEED:
            self._serve_code_need(packet)
            return
        if packet.kind == KIND_CODE_REPLY:
            self._on_code_reply(packet)
            return
        if packet.kind in (KIND_REF_LEASE, KIND_REF_RENEW):
            self._on_ref_lease(packet, renew=packet.kind == KIND_REF_RENEW)
            return
        if packet.kind == KIND_REF_DROP:
            self._on_ref_drop(packet)
            return
        raise DeliveryError(f"unknown packet kind {packet.kind!r}")

    def _on_ref_lease(self, packet: Packet, renew: bool) -> None:
        """Owner side of REF_LEASE / REF_RENEW: record or extend the
        sender's leases.  Entries naming already-reclaimed ids are
        skipped per-entry (the claim lost the grace race; the holder's
        next scan will drop the dead reference) -- one stale entry must
        not void the live ones batched with it."""
        if self.distgc is None:
            return  # stray lease traffic to a non-distgc site: ignore
        holder = (packet.src_ip, packet.src_site_id)
        now = self.now()
        (entries,) = packet.payload
        for kind, ident in entries:
            key = (kind, ident)
            if (kind == "n" and ident in self._gc_tombstones) or \
                    (kind == "c" and ident in self._gc_class_tombstones):
                self.distgc.stats.late_drops += 1
                self._trace("gc-late", packet.src_ip,
                            note=f"lease for reclaimed {kind}{ident}")
                continue
            if renew:
                self.distgc.renew(key, holder, now)
                self._trace("lease-renew", packet.src_ip,
                            note=f"{kind}{ident}")
            else:
                self.distgc.grant(key, holder, now)
                self._trace("lease-claim", packet.src_ip,
                            note=f"{kind}{ident}")

    def _on_ref_drop(self, packet: Packet) -> None:
        if self.distgc is None:
            return
        holder = (packet.src_ip, packet.src_site_id)
        now = self.now()
        (entries,) = packet.payload
        for kind, ident in entries:
            self.distgc.drop((kind, ident), holder, now)
            self._trace("lease-drop", packet.src_ip, note=f"{kind}{ident}")

    def _check_target(self, heap_id: int) -> None:
        if heap_id in self._gc_tombstones:
            raise ReclaimedRefError(
                f"{self.site_name}: delivery to reclaimed heap id {heap_id}")
        if heap_id not in self.exported_ids:
            raise DeliveryError(
                f"{self.site_name}: delivery to unexported heap id {heap_id}")

    def _serve_fetch(self, packet: Packet, class_id: int) -> None:
        """Owner side of FETCH: *offer* the class group by content
        digest plus its captured environment.  The byte-code itself
        travels only if the requester answers with a CODE_NEED."""
        classref = self._class_exports.get(class_id)
        if classref is None:
            if class_id in self._gc_class_tombstones:
                raise ReclaimedRefError(
                    f"{self.site_name}: FETCH of reclaimed class "
                    f"id {class_id}")
            raise DeliveryError(
                f"{self.site_name}: FETCH of unknown class id {class_id}")
        # The requester becomes a holder of the class the moment we
        # serve it (its own claim may still be in flight).
        self._grant_out(("c", class_id),
                        (packet.src_ip, packet.src_site_id))
        root_digest = self._digest_of(GROUP, classref.group_id)
        if self.codecache is not None:
            self.codecache.register(root_digest, GROUP, classref.group_id)
        group = self.vm.program.groups[classref.group_id]
        requester = (packet.src_ip, packet.src_site_id)
        captured = tuple(self.marshal_value(v, requester)
                         for v in classref.env[:group.nfree])
        self.stats.fetch_replies_served += 1
        self._send(KIND_FETCH_REPLY, packet.src_ip, packet.src_site_id,
                   (class_id, root_digest, classref.index, captured,
                    classref.hint))
        self._trace("fetch-serve", packet.src_ip, note=f"class {class_id}")

    # -- the offer / need / reply protocol (docs/WIRE.md) ---------------------

    def _send_code_need(self, src_ip: str, src_site_id: int,
                        token_kind: str, token_val,
                        digests: tuple[bytes, ...]) -> None:
        if self.codecache is not None:
            for digest in digests:
                self.codecache.mark_in_flight(digest)
        self.stats.code_needs_sent += 1
        self._send(KIND_CODE_NEED, src_ip, src_site_id,
                   (token_kind, token_val, digests))
        self._trace("code-need", src_ip, size=len(digests))

    def _park_offer(self, packet: Packet, token_kind: str, token_val,
                    needed: tuple[bytes, ...]) -> None:
        """Record an offer whose code is missing; request the missing
        digests unless an earlier request already covers them all
        (in-flight coalescing: concurrent fetches of the same code
        share one download)."""
        pkey = (packet.src_ip, packet.src_site_id, token_kind, token_val)
        if pkey in self._pending_code:
            return  # duplicate offer; a request is already out
        self._pending_code[pkey] = (needed, packet.payload)
        if self.codecache is not None:
            missing = tuple(d for d in needed
                            if not self.codecache.has(d)
                            and not self.codecache.is_in_flight(d))
            if not missing:
                return  # every digest is cached or already requested
        else:
            missing = needed
        self._send_code_need(packet.src_ip, packet.src_site_id,
                             token_kind, token_val, missing)

    def _local_code(self, digest: bytes, kind: str,
                    installed: dict[bytes, tuple[str, int]]
                    ) -> Optional[int]:
        """The one lookup order of the code protocol: what a reply just
        linked (``installed``; all an ablated site has to go by), this
        site's own table, then the node's store -- a hit there links
        the stored slice into *our* program area (block ids are
        area-relative) and registers it in the table.  None means only
        the owner can help."""
        found = installed.get(digest)
        cache = self.codecache
        if found is None and cache is not None:
            found = cache.lookup(digest)
            if found is None and self.codestore is not None:
                result = self.codestore.link(digest, self.vm.program, cache)
                if result is not None:
                    self.stats.code_items_installed += \
                        result.installed_count()
                    found = cache.lookup(digest)
        if found is not None and found[0] == kind:
            return found[1]
        return None

    def _local_methods(self, payload,
                       installed: dict[bytes, tuple[str, int]]
                       ) -> Optional[dict[str, int]]:
        """label -> local block id for an offered object, or None while
        a method block is still missing."""
        _token, _heap_id, positions, entry_digests, _env = payload
        block_ids = {}
        for label, pos in positions.items():
            block_id = self._local_code(entry_digests[pos], BLOCK, installed)
            if block_id is None:
                return None
            block_ids[label] = block_id
        return block_ids

    def _on_fetch_offer(self, packet: Packet) -> None:
        """Requester side of FETCH, step 1: the owner offered the class
        group by digest.  Held by this site or its node -> link locally
        with zero code bytes on the wire; missing -> ask for the slice."""
        class_id, root_digest, _index, _captured, _hint = packet.payload
        group_id = self._local_code(root_digest, GROUP, {})
        if group_id is not None:
            self.stats.code_cache_hits += 1
            self._trace("cache-hit", packet.src_ip, note=f"class {class_id}")
            self._install_fetched(packet.src_ip, packet.src_site_id,
                                  packet.payload, group_id)
            return
        self.stats.code_cache_misses += 1
        self._trace("cache-miss", packet.src_ip, note=f"class {class_id}")
        self._park_offer(packet, "fetch", class_id, (root_digest,))

    def _on_object_offer(self, packet: Packet) -> None:
        """Receiver side of SHIPO, step 1: method blocks offered by
        digest; deliver from what the site or its node holds, or ask
        for the missing ones."""
        token, heap_id, _positions, entry_digests, _env = packet.payload
        self._check_target(heap_id)
        block_ids = self._local_methods(packet.payload, {})
        if block_ids is not None:
            self.stats.code_cache_hits += 1
            self._trace("cache-hit", packet.src_ip, note=f"obj {heap_id}")
            self._install_shipped(packet.payload, block_ids)
            return
        self.stats.code_cache_misses += 1
        self._trace("cache-miss", packet.src_ip, note=f"obj {heap_id}")
        # Request only the digests we are actually missing; de-dup
        # (an object may expose the same block under two labels).
        seen: dict[bytes, None] = {}
        for d in entry_digests:
            seen.setdefault(d)
        self._park_offer(packet, "ship", token, tuple(seen))

    def _serve_code_need(self, packet: Packet) -> None:
        """Owner side, step 2: send the requested slice with its
        manifest, so the receiver installs item-by-item.  A single
        root -- every FETCH, every one-method object -- is the slice
        the node's store already keeps under the digest we offered."""
        token_kind, token_val, digests = packet.payload
        if token_kind == "fetch":
            classref = self._class_exports.get(token_val)
            if classref is None:
                if token_val in self._gc_class_tombstones:
                    raise ReclaimedRefError(
                        f"{self.site_name}: CODE_NEED for reclaimed "
                        f"class id {token_val}")
                raise DeliveryError(
                    f"{self.site_name}: CODE_NEED for unknown class "
                    f"id {token_val}")
            kind, root_ids = GROUP, (classref.group_id,)
        elif token_kind == "ship":
            block_ids = self._ship_offers.get(token_val)
            if block_ids is None:
                raise DeliveryError(
                    f"{self.site_name}: CODE_NEED for unknown ship "
                    f"token {token_val}")
            # Send only the subset of entry blocks the receiver asked
            # for; the rest it already holds.
            wanted = set(digests)
            subset = tuple(b for b in block_ids
                           if self._digest_of(BLOCK, b) in wanted)
            kind, root_ids = BLOCK, subset or block_ids
        else:
            raise DeliveryError(
                f"{self.site_name}: unknown CODE_NEED token kind "
                f"{token_kind!r}")
        store = self.codestore if len(root_ids) == 1 else None
        root_digest = self._digest_of(kind, root_ids[0])  # memoised: offered
        reply = store.get(root_digest) if store is not None else None
        if reply is None:  # several roots, evicted since offered, or A2
            bundle = extract_bundle(self.vm.program,
                                    **{ROOTS_ARG[kind]: root_ids})
            reply = (store.deposit(root_digest, bundle) if store is not None
                     else (bundle, manifest_for_bundle(bundle)))
        self.stats.code_replies_served += 1
        self._send(KIND_CODE_REPLY, packet.src_ip, packet.src_site_id,
                   (token_kind, token_val, *reply))

    def _verify_code_reply(self, pkey, bundle, manifest) -> list:
        """Nothing unverified is linked or stored: every digest of the
        manifest is recomputed from the shipped bundle, and while the
        offer is parked the bundle must be rooted at digests it asked
        for.  Returns the bundle's roots."""
        try:
            roots = verified_roots(bundle, manifest)
        except LinkError as exc:
            raise DeliveryError(
                f"{self.site_name}: CODE_REPLY does not verify: "
                f"{exc}") from exc
        entry = self._pending_code.get(pkey)
        if entry is not None:
            asked = set(entry[0])
            if not roots or any(d not in asked for _k, _i, d in roots):
                raise DeliveryError(
                    f"{self.site_name}: CODE_REPLY is not the code "
                    f"{pkey[2]} {pkey[3]} asked for")
        return roots

    def _on_code_reply(self, packet: Packet) -> None:
        """Receiver side, step 3: verify the slice, link it (installing
        only the missing items), leave each root with the node for the
        sites that come after us, then complete every offer it
        satisfies."""
        token_kind, token_val, bundle, manifest = packet.payload
        pkey = (packet.src_ip, packet.src_site_id, token_kind, token_val)
        roots = self._verify_code_reply(pkey, bundle, manifest)
        result = link_bundle_cached(self.vm.program, bundle, manifest,
                                    self.codecache)
        if self.codestore is not None and pkey in self._pending_code:
            self.codestore.deposit_roots(bundle, roots)
        installed = self._installed_map(manifest, result)
        new_items = result.installed_count()
        self.stats.code_items_installed += new_items
        self._trace("code-install", packet.src_ip, size=new_items,
                    note=f"{token_kind} {token_val}")
        self._try_complete_code(pkey, installed)
        if self.codecache is not None:
            # Coalesced offers parked on the same digests complete now.
            for other in list(self._pending_code):
                self._try_complete_code(other, installed)

    @staticmethod
    def _installed_map(manifest, result) -> dict[bytes, tuple[str, int]]:
        """digest -> (kind, local id) for every item of one reply."""
        installed: dict[bytes, tuple[str, int]] = {}
        for i, digest in enumerate(manifest.block_digests):
            installed[digest] = (BLOCK, result.block_map[i])
        for i, digest in enumerate(manifest.group_digests):
            installed[digest] = (GROUP, result.group_map[i])
        return installed

    def _try_complete_code(
            self, pkey, installed: dict[bytes, tuple[str, int]]) -> bool:
        """Complete one parked offer if all its code is now local."""
        entry = self._pending_code.get(pkey)
        if entry is None:
            return False
        src_ip, src_site_id, token_kind, _token_val = pkey
        _needed, payload = entry
        if token_kind == "fetch":
            _class_id, root_digest, _index, _captured, _hint = payload
            group_id = self._local_code(root_digest, GROUP, installed)
            if group_id is None:
                return False
            del self._pending_code[pkey]
            self._install_fetched(src_ip, src_site_id, payload, group_id)
            return True
        block_ids = self._local_methods(payload, installed)
        if block_ids is None:
            return False
        del self._pending_code[pkey]
        self._install_shipped(payload, block_ids)
        return True

    def _install_shipped(self, payload, block_ids: dict[str, int]) -> None:
        """Deliver a shipped object once its method blocks are local."""
        _token, heap_id, _positions, _entry_digests, env = payload
        self.vm.deliver_object(
            heap_id, block_ids,
            tuple(self.unmarshal_value(v) for v in env))

    def _install_fetched(self, src_ip: str, src_site_id: int, payload,
                         group_id: int) -> None:
        """Requester side of FETCH, final step: build the ClassRefs on
        the (cached or just-installed) class group and spawn every
        parked instantiation."""
        class_id, _root_digest, index, captured, hint = payload
        group = self.vm.program.groups[group_id]
        env: list = [self.unmarshal_value(v) for v in captured]
        env.extend([None] * len(group.clauses))
        classrefs = []
        for i, (clause_hint, block_id) in enumerate(group.clauses):
            cr = ClassRef(block_id, env, group_id, i, hint=clause_hint)
            env[group.nfree + i] = cr
            classrefs.append(cr)
        target = classrefs[index]
        key = (src_ip, src_site_id, class_id)
        if self.fetch_cache:
            self._fetched[key] = target
        waiting = self._pending_fetch.pop(key, [])
        # The reply can come back from a different ip than the request
        # went to: the owning site was live-migrated while our
        # fetch_req was in flight and the old home forwarded it
        # (docs/MIGRATION.md).  Site ids are allocated by the name
        # service and survive rebinds, so (site_id, class_id) still
        # identifies the fetch; adopt instantiations parked under the
        # stale ip and alias the cache so heap refs minted before the
        # move keep hitting it.
        for stale in [k for k in self._pending_fetch
                      if k[1] == src_site_id and k[2] == class_id]:
            waiting.extend(self._pending_fetch.pop(stale))
            if self.fetch_cache:
                self._fetched[stale] = target
        for args in waiting:
            self.vm.spawn_instance(target, args)

    # -- restart recovery -----------------------------------------------------

    def on_restart(self) -> None:
        """Called when the owning node restarts after a crash.

        A crash makes every in-flight code request unanswerable (its
        CODE_NEED or CODE_REPLY may have been dropped while we were
        down).  Bump the cache generation to invalidate the in-flight
        marks, then re-drive the protocol: complete offers the cache
        can already satisfy, re-request the rest, and re-issue FETCH
        requests whose offer never arrived.  Installed code survives --
        it is content-addressed, never stale."""
        if self.codecache is not None:
            self.codecache.bump_generation()
        for pkey in list(self._pending_code):
            if self._try_complete_code(pkey, {}):
                continue
            src_ip, src_site_id, token_kind, token_val = pkey
            needed, _payload = self._pending_code[pkey]
            if self.codecache is not None:
                missing = tuple(d for d in needed
                                if not self.codecache.has(d))
            else:
                missing = needed
            self._send_code_need(src_ip, src_site_id, token_kind,
                                 token_val, missing)
        for key in list(self._pending_fetch):
            ip, sid, class_id = key
            if (ip, sid, "fetch", class_id) in self._pending_code:
                continue  # offer arrived; the re-sent NEED covers it
            self.stats.fetch_requests_sent += 1
            self._send(KIND_FETCH_REQUEST, ip, sid, (class_id,))
