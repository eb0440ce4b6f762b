"""DiTyCO nodes (section 5).

"NODES are composed of a pool of sites running concurrently, a
dedicated communication daemon (TyCOd), and a user interface daemon
(TyCOi).  There is one DiTyCO node per IP node. ... A DiTyCO node is
implemented as a Unix process.  The sites, the communication daemon
(TyCOd), and the user interface daemon (TyCOi) are implemented as
threads sharing the address space of the node."

In this reproduction a node is one Python object; *how* its sites get
CPU time is decided by the attached world: the simulated transport
calls :meth:`step` from its event loop (deterministic, virtual time),
the socket transport from the asyncio loop that owns its sockets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.compiler.assembly import Program

from repro.transport.clock import monotime

from . import codecache
from .codecache import CodeStore
from .daemon import TyCOd, TyCOi
from .distgc import GcConfig
from .nameservice import NameService, NameServiceError
from .site import Site
from .wire import decode_frame, encode_frame, is_frame

#: Wire batching: a stepping node holds its outgoing packets per
#: destination and sends them as one frame at the quantum boundary.
#: False (one packet per send, no frames) is the ablation tests and
#: benchmarks flip.
BATCHING = True

#: A destination's batch is flushed early once this many bytes wait.
BATCH_BYTES = 4096


@dataclass(slots=True)
class NodeStepReport:
    """What one scheduling quantum of a node actually did."""

    instructions: int
    context_switches: int
    packets_moved: int

    @property
    def busy(self) -> bool:
        return self.instructions > 0 or self.packets_moved > 0


class Node:
    """One IP node: a pool of sites plus the TyCOd/TyCOi daemons."""

    def __init__(self, ip: str, nameservice: NameService,
                 typecheck: bool = False,
                 distgc: bool = False,
                 gc_config: Optional[GcConfig] = None) -> None:
        self.ip = ip
        self.nameservice = nameservice
        self.sites: dict[int, Site] = {}
        self.sites_by_name: dict[str, Site] = {}
        self.tycod = TyCOd(self)
        self.tycoi = TyCOi(self)
        #: Code belongs to the node: every site this node runs links
        #: out of, and deposits into, this one store -- a class is
        #: downloaded once per node, not once per site.  None under
        #: ablation A2 (:data:`~repro.runtime.codecache.CODE_CACHE`).
        self.codestore: Optional[CodeStore] = (
            CodeStore() if codecache.CODE_CACHE else None)
        #: Sampling profiler (repro.obs.profiler): when set (usually by
        #: VMProfiler.install_network), every site this node creates or
        #: adopts gets the profiler installed on its VM.
        self.profiler = None
        #: Wire batching (:data:`BATCHING`) buffers while a scheduling
        #: quantum runs and flushes at its boundary (or earlier, once
        #: ``BATCH_BYTES`` are buffered).  Only active inside
        #: :meth:`step`, so direct pumps from tests and tools send at once.
        self._batch_buf: dict[str, list[bytes]] = {}
        self._batch_size: dict[str, int] = {}
        self._in_step = False
        self.typecheck = typecheck
        #: Distributed GC (docs/GC.md): opt-in, like ``typecheck`` --
        #: its lease traffic perturbs packet schedules, so default-off
        #: keeps every non-GC run byte-identical to the pre-GC system.
        self.distgc = distgc
        self.gc_config = gc_config
        self._gc_sweep_s = (gc_config or GcConfig()).sweep_s
        self._next_sweep = 0.0
        self._clock: Callable[[], float] = monotime
        self._timer: Optional[Callable] = None
        self._send: Optional[Callable[[str, str, bytes], None]] = None
        self._wakeup: Optional[Callable[[], None]] = None
        #: The world's observability bus (repro.obs), set by add_node
        #: via :meth:`attach_obs`.  None for a standalone node.
        self.obs = None
        #: Live-migration manager (repro.mobility), created lazily by
        #: :meth:`ensure_mobility` -- nodes that never migrate carry a
        #: None and every pre-mobility schedule stays byte-identical.
        self.mobility = None

    # -- wiring ---------------------------------------------------------------

    def attach_transport(self, send: Callable[[str, str, bytes], None],
                         wakeup: Optional[Callable[[], None]] = None,
                         clock: Optional[Callable[[], float]] = None,
                         schedule: Optional[Callable] = None) -> None:
        """Connect the node to a world: ``send(src_ip, dst_ip, data)``
        forwards a buffer; ``wakeup`` reschedules the node when new
        work appears (used by both transports); ``clock`` is the
        world's time base (virtual under simulation) that GC leases
        and sweep cadences are measured on; ``schedule(time, action)``
        is the world's timer on that clock (:meth:`World.schedule_at`),
        which migration retries ride."""
        self._send = send
        self._wakeup = wakeup
        if clock is not None:
            self._clock = clock
        self._timer = schedule

    def now(self) -> float:
        """Current time on the attached world's clock."""
        return self._clock()

    def schedule_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at ``time`` on the attached world's timer."""
        if self._timer is None:
            raise RuntimeError(f"node {self.ip} has no world timer attached")
        self._timer(time, action)

    def transport_send(self, dest_ip: str, data: bytes) -> None:
        if self._send is None:
            raise RuntimeError(f"node {self.ip} has no transport attached")
        if not (BATCHING and self._in_step):
            self._send(self.ip, dest_ip, data)
            return
        self._batch_buf.setdefault(dest_ip, []).append(data)
        size = self._batch_size.get(dest_ip, 0) + len(data)
        self._batch_size[dest_ip] = size
        if size >= BATCH_BYTES:
            self._flush_dest(dest_ip)

    def _flush_dest(self, dest_ip: str) -> None:
        chunks = self._batch_buf.pop(dest_ip, None)
        self._batch_size.pop(dest_ip, None)
        if not chunks:
            return
        if len(chunks) == 1:
            # A lone packet goes out raw: framing buys nothing.
            self._send(self.ip, dest_ip, chunks[0])
            return
        frame = encode_frame(chunks)
        self.trace("batch", self.ip, dest_ip, len(frame),
                   note=f"{len(chunks)} packets")
        self._send(self.ip, dest_ip, frame)

    def flush_batches(self) -> None:
        """Send every buffered batch (insertion order: deterministic)."""
        for dest_ip in list(self._batch_buf):
            self._flush_dest(dest_ip)

    def on_work_available(self) -> None:
        if self._wakeup is not None:
            self._wakeup()

    def attach_obs(self, bus) -> None:
        """Connect the node (and every site, existing and future) to
        the world's :class:`~repro.obs.bus.EventBus`."""
        self.obs = bus
        for site in self.sites.values():
            site.attach_obs(bus)

    def trace(self, kind: str, src: str = "", dst: str = "",
              size: int = 0, note: str = "") -> None:
        """Publish one node-level event on the world's bus."""
        if self.obs is not None and self.obs.active:
            self.obs.emit(kind, src=src, dst=dst, size=size,
                          note=note, node=self.ip)

    # -- site pool ----------------------------------------------------------------

    def create_site(self, site_name: str, program: Program,
                    name_signatures: Optional[dict] = None) -> Site:
        """Register with the name service, create and boot a site.

        A name this node still runs a site under is refused, like the
        name service refuses one registered at another node: the
        second site would take the first one's id and pool slot, and
        the first one's exports would dangle.  A name is free again
        once its site was reaped.
        """
        if site_name in self.sites_by_name:
            raise NameServiceError(
                f"site {site_name!r} already registered at {self.ip}")
        site_id = self.nameservice.register_site(site_name, self.ip)
        site = Site(site_name, site_id, self.ip, program,
                    self.nameservice,
                    name_signatures=name_signatures,
                    distgc=self.distgc, gc_config=self.gc_config,
                    clock=self.now)
        self._admit(site)
        site.boot()
        self.on_work_available()
        return site

    def ensure_mobility(self, config=None):
        """Create (once) and return this node's migration manager."""
        if self.mobility is None:
            from repro.mobility.migrate import MobilityConfig, MobilityManager
            from repro.transport.clock import monotime

            if config is None and self._clock is monotime:
                # Every wall-clock world attaches monotime as the node
                # clock; the sim-scale retry interval would retransmit
                # between scheduling quanta of a real link (the same
                # scaling GcConfig.wall_clock applies).
                config = MobilityConfig.wall_clock()
            self.mobility = MobilityManager(self, config=config)
        return self.mobility

    def adopt_site(self, site: Site) -> Site:
        """Wire an already-built site (a checkpoint restore) into the
        pool: :meth:`create_site` minus registration and boot -- the
        site keeps its checkpointed id and resumes mid-program."""
        self._admit(site)
        self.on_work_available()
        return site

    def _admit(self, site: Site) -> None:
        """Wire a site into the pool: the one admission path of
        :meth:`create_site` and :meth:`adopt_site`."""
        self.sites[site.site_id] = site
        self.sites_by_name[site.site_name] = site
        if site.codecache is not None:
            site.codestore = self.codestore
        site.on_work = self.on_work_available
        if self.obs is not None:
            site.attach_obs(self.obs)
        if self.profiler is not None:
            self.profiler.install(site.vm)
        # Idempotent: the node holds one subscription, made by its
        # first admission, however many sites follow.
        self.nameservice.subscribe(self._on_ns_update)

    def remove_site(self, site: Site) -> None:
        """The one way a site leaves the pool (TyCOi reap, migration
        freeze): gone by id and by name, so nothing schedules, looks up
        or re-checkpoints a site this node no longer runs."""
        del self.sites[site.site_id]
        del self.sites_by_name[site.site_name]

    def _on_ns_update(self) -> None:
        for site in self.sites.values():
            site.on_nameservice_update()
        self.on_work_available()

    def site(self, site_name: str) -> Site:
        return self.sites_by_name[site_name]

    # -- execution -------------------------------------------------------------------

    def receive(self, data: bytes) -> None:
        """A buffer arrives from the network (called by the world)."""
        if is_frame(data):
            for chunk in decode_frame(data):
                self.tycod.receive(chunk)
            return
        self.tycod.receive(data)

    def step(self, quantum: int = 256) -> NodeStepReport:
        """One scheduling quantum: pump the daemon, then round-robin
        the site pool with a per-site instruction budget.  While the
        quantum runs, outgoing buffers are batched per destination;
        the quantum boundary flushes them.

        A quantum costs what runs in it: with nothing queued or
        runnable and no distgc sweep to serve it returns at the door,
        and the walk steps only the sites that have work when it
        reaches them (a name-service wake-up earlier in the same walk
        counts).  The budget still divides by the whole pool -- that,
        and pool order, are the schedule."""
        if not (self.distgc or self.has_work()):
            return NodeStepReport(0, 0, 0)
        self._in_step = True
        try:
            moved = self.tycod.pump()
            executed = switches = 0
            nsites = len(self.sites)
            if nsites:
                per_site = max(1, quantum // nsites)
                for site in list(self.sites.values()):
                    vm = site.vm
                    # has_work()'s test, inline: a call per site per
                    # quantum shows on the wall (docs/PERF.md, "The
                    # stepping shell").
                    if (site.incoming or site.outgoing
                            or vm.current is not None or vm.runqueue._queue):
                        # Switches are charged per visited site: a reap
                        # refunds nothing, an adoption brings no history.
                        runqueue = vm.runqueue
                        before = runqueue.context_switches
                        executed += site.step(per_site)
                        switches += runqueue.context_switches - before
            if self.distgc and self.sites:
                # Sweep before the closing pump so renew/drop/claim
                # packets ride this quantum's batch frames.
                now = self.now()
                if now >= self._next_sweep:
                    self._next_sweep = now + self._gc_sweep_s
                    for site in list(self.sites.values()):
                        site.run_distgc(now)
            if self.mobility is not None:
                moved += self.mobility.process_inbox()
            moved += self.tycod.pump()
        finally:
            self._in_step = False
            self.flush_batches()
        return NodeStepReport(instructions=executed,
                              context_switches=switches,
                              packets_moved=moved)

    def on_peer_suspected(self, ip: str) -> None:
        """The failure detector suspects the node at ``ip``: fan the
        reconfiguration out to every site.  A no-op unless this node
        runs the distributed GC (non-GC behaviour stays untouched)."""
        if not self.distgc:
            return
        for site in list(self.sites.values()):
            site.on_peer_suspected(ip)
        self.on_work_available()

    def on_link_reset(self, peer_ip: str) -> None:
        """The transport lost (and re-established) the connection to
        ``peer_ip``: any record in flight on that link may be gone, in
        either direction.  Treat it like the peer crash-restarting from
        this node's point of view: re-drive every in-flight code
        request, exactly as :meth:`on_restart` does after a real crash.

        Only sites with *pending* protocol state re-drive -- a site
        with nothing outstanding has nothing to recover (plain lost
        messages stay lost, matching the simulator's crash-drop
        semantics), and re-driving is idempotent anyway: a duplicated
        FETCH_REPLY finds no pending entry and installed code is
        content-addressed.
        """
        for site in list(self.sites.values()):
            if site._pending_code or site._pending_fetch:
                site.on_restart()
        self.on_work_available()

    def code_generation(self) -> int:
        """Sum of the per-site code-cache generations: a cheap scalar
        that only moves when some site invalidated in-flight cache
        state.  Carried in the socket transport's handshake so peers
        can observe that a reconnecting node re-drove its requests."""
        total = 0
        for site in self.sites.values():
            if site.codecache is not None:
                total += site.codecache.generation
        return total

    def on_restart(self) -> None:
        """The world restarted this node after a crash: let every site
        re-drive its in-flight code requests (stale in-flight state is
        what generation-based cache invalidation clears)."""
        self._batch_buf.clear()
        self._batch_size.clear()
        for site in list(self.sites.values()):
            site.on_restart()
        if self.mobility is not None:
            self.mobility.on_restart()
        self.on_work_available()

    def has_work(self) -> bool:
        """Anything runnable or queued on this node?"""
        if self._batch_buf or (self.mobility is not None
                               and self.mobility.inbox):
            return True
        for site in self.sites.values():
            vm = site.vm
            # "This site has work": mail in either queue or a runnable
            # thread.  step() asks every site it walks past the same.
            if (site.incoming or site.outgoing
                    or vm.current is not None or vm.runqueue._queue):
                return True
        return False

    def next_deadline(self) -> Optional[float]:
        """When this node's distgc sweep falls due on its clock, or None."""
        return self._next_sweep if self.distgc and self.sites else None

    def is_quiescent(self) -> bool:
        """Nothing runnable, queued or parked on any site."""
        if self.mobility is not None and not self.mobility.idle():
            return False
        return not self._batch_buf and all(
            site.is_idle() and not site.has_parked_work()
            for site in self.sites.values()
        )

    # -- aggregate statistics -----------------------------------------------------------

    def total_instructions(self) -> int:
        return sum(s.vm.stats.instructions for s in self.sites.values())

    def total_reductions(self) -> int:
        return sum(s.vm.stats.reductions for s in self.sites.values())
