"""The DiTyCO network facade: nodes + name service + transport.

This is the top of the runtime stack (figure 2): "the network is
composed of multiple DiTyCO nodes connected in a static IP topology.
Message passing and code mobility occurs at the level of sites, and at
this level the communication topology changes dynamically."

:class:`DiTyCONetwork` assembles a world (simulated by default), the
centralized network name service, and any number of nodes; programs
are submitted through each node's TyCOi exactly as TyCOsh would.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.compiler.assembly import Program
from repro.transport.base import World
from repro.transport.links import ClusterModel
from repro.transport.sim import SimWorld

from .nameservice import NameService
from .node import Node
from .site import Site


class DiTyCONetwork:
    """One DiTyCO network: a static topology of nodes.

    Parameters
    ----------
    world:
        The substrate driving nodes and packets.  Defaults to a fresh
        :class:`~repro.transport.sim.SimWorld` (deterministic,
        virtual-clock).
    nameservice:
        Defaults to a fresh in-process :class:`NameService` (the
        paper's centralized service); a multi-process cluster passes a
        :class:`~repro.runtime.nsnet.NameServiceClient` talking to the
        one shared store.
    distgc / gc_config:
        The lease-based distributed garbage collector (docs/GC.md).
        Off by default -- lease traffic perturbs packet schedules, so
        it is opt-in like ``typecheck``.  Both are plain attributes
        read at :meth:`add_node` time, so a scenario can flip them
        after construction but before adding nodes.
    """

    def __init__(self, world: Optional[World] = None,
                 nameservice: Optional[NameService] = None,
                 cluster: Optional[ClusterModel] = None,
                 typecheck: bool = False,
                 distgc: bool = False,
                 gc_config=None) -> None:
        if world is None:
            world = SimWorld(cluster) if cluster else SimWorld()
        elif cluster is not None:
            raise ValueError("pass cluster or world, not both")
        self.world = world
        self.nameservice = nameservice or NameService()
        self.typecheck = typecheck
        self.distgc = distgc
        self.gc_config = gc_config
        #: Sampling profiler (repro.obs.profiler): a plain attribute
        #: read at :meth:`add_node` time, normally set through
        #: ``VMProfiler.install_network`` -- None keeps every VM on the
        #: untouched dispatch loop.
        self.profiler = None

    # -- topology -------------------------------------------------------------

    def add_node(self, ip: str) -> Node:
        """Create one node at a (static) IP address."""
        gc_config = self.gc_config
        if self.distgc and gc_config is None and \
                getattr(self.world, "wall_clock", False):
            # The GcConfig defaults are simulated-microsecond scale;
            # on a wall-clock transport they would expire live leases
            # between scheduling quanta (see GcConfig.wall_clock).
            from .distgc import GcConfig

            gc_config = GcConfig.wall_clock()
        node = Node(ip, self.nameservice,
                    typecheck=self.typecheck,
                    distgc=self.distgc,
                    gc_config=gc_config)
        node.profiler = self.profiler
        self.world.add_node(node)
        return node

    def add_nodes(self, ips: Iterable[str]) -> list[Node]:
        return [self.add_node(ip) for ip in ips]

    def node(self, ip: str) -> Node:
        return self.world.node(ip)

    # -- program submission (what TyCOsh does) -----------------------------------

    def launch(self, ip: str, site_name: str, program: str | Program) -> Site:
        """Submit a program to the node at ``ip`` (TyCOi path)."""
        return self.world.call(self.node(ip).tycoi.submit, site_name, program)

    # -- live migration (repro.mobility) ------------------------------------------

    def mobility(self, ip: str):
        """The (create-on-demand) migration manager of the node at
        ``ip``; its SHIP retries ride the world's timer
        (:meth:`~repro.transport.base.World.schedule_at`)."""
        return self.node(ip).ensure_mobility()

    def migrate(self, site_name: str, dest_ip: str) -> str:
        """Live-migrate the named site to the node at ``dest_ip``;
        returns the migration token.  The source node is found by
        name, the destination manager is pre-created so the cutover
        needs no lazy construction mid-protocol, and the SHIP retries
        ride the world's timer on every world."""
        return self.world.call(self._migrate, site_name, dest_ip)

    def _migrate(self, site_name: str, dest_ip: str) -> str:
        src_ip = None
        for node in self.world.nodes.values():
            if site_name in node.sites_by_name:
                src_ip = node.ip
                break
        if src_ip is None:
            raise KeyError(f"no site named {site_name!r}")
        if dest_ip in self.world.nodes:
            # In-process worlds: pre-create the destination manager so
            # the cutover needs no lazy construction mid-protocol.  In
            # a multi-process cluster the destination is another OS
            # process; its TyCOd builds the manager on first MIG_SHIP.
            self.mobility(dest_ip)
        return self.mobility(src_ip).migrate_site(site_name, dest_ip)

    # -- execution -------------------------------------------------------------------

    def run(self, max_time: float | None = None) -> float:
        """Run the whole network to quiescence; returns elapsed time."""
        return self.world.run(max_time)

    def is_quiescent(self) -> bool:
        return self.world.is_quiescent()

    @property
    def time(self) -> float:
        return self.world.time

    # -- observation ------------------------------------------------------------------

    def site(self, site_name: str) -> Site:
        """Find a site anywhere in the network by name."""
        for node in self.world.nodes.values():
            found = node.sites_by_name.get(site_name)
            if found is not None:
                return found
        raise KeyError(f"no site named {site_name!r}")

    def outputs(self) -> dict[str, list]:
        """Console output of every site, keyed by site name."""
        out = {}
        for node in self.world.nodes.values():
            for site in node.sites.values():
                out[site.site_name] = list(site.output)
        return out
