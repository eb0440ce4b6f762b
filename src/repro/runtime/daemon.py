"""The node daemons: TyCOd (communication) and TyCOi (user interface).

Section 5, NODES: "The TyCOd daemon is responsible for all the data
exchange between sites in the network.  Interactions between sites may
be local, when sites belong to the same node, or remote when the sites
belong to different nodes.  Local interactions are optimized using
shared memory.  Remote interactions involve three steps: [queue ->
TyCOd -> remote TyCOd -> queue]."

"Users submit new programs for execution in a node using a shell
program called TyCOsh.  The user requests are handled by a node
manager daemon, the TyCOi."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.compiler.assembly import Program

from .launch import LaunchCache
from .wire import (KIND_CODE_NEED, KIND_CODE_REPLY, KIND_REF_DROP,
                   KIND_REF_LEASE, KIND_REF_RENEW, Packet, decode, encode)

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

#: Same-node packets skip the wire encoding (the paper's behaviour);
#: False is ablation A3, which tests and benchmarks flip.
LOCAL_FAST_PATH = True


@dataclass(slots=True)
class DaemonStats:
    """TyCOd traffic counters (experiments E2 and ablation A3)."""

    local_deliveries: int = 0
    remote_sends: int = 0
    remote_receives: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    encode_skipped: int = 0  # local fast-path deliveries
    orphan_needs_dropped: int = 0  # CODE_NEEDs for a gone site, unanswerable
    orphan_refs_dropped: int = 0   # lease traffic for a gone site


class TyCOd:
    """The per-node communication daemon.

    ``pump`` implements steps 1-2 of the remote-interaction protocol
    (collect from site outgoing queues, route); ``receive`` implements
    step 3 (deposit into the destination site's incoming queue).

    Packets between sites of the same node skip the wire encoding
    entirely -- "code movement or message sending can be implemented
    with a single shared-memory reference exchange".  With
    :data:`LOCAL_FAST_PATH` off (ablation A3) every interaction pays
    serialisation.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.stats = DaemonStats()

    def pump(self) -> int:
        """Move every packet currently waiting in site outgoing queues."""
        moved = 0
        for site in list(self.node.sites.values()):
            outgoing = site.outgoing
            while outgoing:
                self._route(outgoing.popleft())
                moved += 1
        return moved

    def _route(self, packet: Packet) -> None:
        if packet.dest_ip == self.node.ip:
            target = self.node.sites.get(packet.dest_site_id)
            if target is None:
                self._no_such_site(packet)
                return
            if LOCAL_FAST_PATH:
                self.stats.local_deliveries += 1
                self.stats.encode_skipped += 1
                target.incoming.append(packet)
            else:
                # Ablation A3: round-trip through the wire format.
                data = encode(packet)
                self.stats.local_deliveries += 1
                self.stats.bytes_sent += len(data)
                target.incoming.append(decode(data))
            self.node.on_work_available()
            return
        data = encode(packet)
        self.stats.remote_sends += 1
        self.stats.bytes_sent += len(data)
        self.node.transport_send(packet.dest_ip, data)

    def load_digest(self) -> dict:
        """Per-site load snapshot (instructions done, run-queue depth,
        mail waiting) -- the quantities the load balancer samples,
        served over the cluster plane's ``load`` control command and
        rendered by ``repro obs top``."""
        return {site.site_name: {
                    "instructions": site.vm.stats.instructions,
                    "runqueue": len(site.vm.runqueue),
                    "mailbox": len(site.incoming) + len(site.outgoing),
                }
                for site in self.node.sites.values()}

    def receive(self, data: bytes) -> None:
        """A buffer arrived from a remote TyCOd."""
        packet = decode(data)
        self.stats.remote_receives += 1
        self.stats.bytes_received += len(data)
        if packet.dest_site_id == 0 and packet.kind.startswith("mig_"):
            # Node-level mobility control traffic (site ids start at
            # 1, so id 0 is free for the migration manager).
            self.node.ensure_mobility().enqueue_control(packet)
            return
        target = self.node.sites.get(packet.dest_site_id)
        if target is None:
            self._no_such_site(packet)
            return
        target.incoming.append(packet)
        self.node.on_work_available()

    def _no_such_site(self, packet: Packet) -> None:
        """A packet addresses a site this node does not run.  Mid-
        migration mail is buffered (frozen here) or forwarded
        (tombstoned: it left) by :mod:`repro.mobility.migrate`; a
        CODE_NEED for code a since-reaped site offered is the node's
        to answer; a lease claim, renewal or drop has nobody left to
        hold or release the lease (the site was reaped, its exports
        with it) and is counted; anything else is a routing fault."""
        mobility = self.node.mobility
        if mobility is not None and mobility.intercept(packet):
            return
        if packet.kind == KIND_CODE_NEED:
            self._answer_orphan_need(packet)
            return
        if packet.kind in (KIND_REF_LEASE, KIND_REF_RENEW, KIND_REF_DROP):
            self.stats.orphan_refs_dropped += 1
            self.node.trace("gc-late", packet.src_ip, self.node.ip,
                            note=f"site {packet.dest_site_id} is gone: "
                                 f"{packet.kind}")
            return
        raise LookupError(
            f"node {self.node.ip}: no site {packet.dest_site_id} "
            f"for {packet.kind}")

    def _answer_orphan_need(self, need: Packet) -> None:
        """The site that offered this code is gone; the slices it
        digested to make the offer are still in the node's store.
        Answer in its name, one CODE_REPLY per requested digest (the
        receiver completes its offer across replies).  A need the store
        cannot answer in full (ablation A2, an evicted digest) is
        dropped, which leaves the receiver blocked -- the state a
        crashed owner leaves -- never an exception out of the world."""
        token_kind, token_val, digests = need.payload
        store = self.node.codestore
        slices = [store.get(d) for d in digests] if store is not None else []
        if not slices or None in slices:
            self.stats.orphan_needs_dropped += 1
            self.node.trace("code-orphan", need.src_ip, self.node.ip,
                            len(digests),
                            note=f"site {need.dest_site_id} is gone: "
                                 f"{token_kind} {token_val}")
            return
        for rooted_slice, manifest in slices:
            self._route(Packet(
                kind=KIND_CODE_REPLY,
                src_ip=self.node.ip, src_site_id=need.dest_site_id,
                dest_ip=need.src_ip, dest_site_id=need.src_site_id,
                payload=(token_kind, token_val, rooted_slice, manifest),
                span=need.span))


class TyCOi:
    """The node-manager daemon: handles program submissions.

    TyCOsh (:mod:`repro.runtime.shell`) forwards user requests here;
    each submission compiles (if needed) and creates a new site --
    "new sites are created when a new program is submitted for
    execution and destroyed when the program exits".

    *If needed* is decided by ``launch``, the node's
    :class:`~repro.runtime.launch.LaunchCache`: source text that
    differs from an earlier submission only in its integer literals
    (the 1200th client ``op{seq}`` of a workload) is instantiated from
    the compiled shape instead of being parsed and compiled again.
    ``launch.stats`` counts hits and misses.
    """

    def __init__(self, node: "Node") -> None:
        self.node = node
        self.submissions = 0
        self.launch = LaunchCache()

    def submit(self, site_name: str, program) -> "object":
        """Create a site running ``program`` (a compiled Program or
        DiTyCO source text).

        When the node runs with ``typecheck`` enabled, source
        submissions pass the static check of section 7 first (lenient
        single-site inference) and the inferred export signatures are
        installed for the dynamic boundary checks.
        """
        signatures = None
        if isinstance(program, str):
            program, signatures = self.launch.compile(
                program, site_name, typecheck=self.node.typecheck)
        elif not isinstance(program, Program):
            raise TypeError(f"expected source text or Program, got {program!r}")
        self.submissions += 1
        return self.node.create_site(site_name, program,
                                     name_signatures=signatures)

    def reap(self) -> int:
        """Destroy sites whose programs have exited (idle, no queues,
        nothing parked); returns how many were reaped."""
        dead = [site for site in self.node.sites.values()
                if site.is_idle() and not site.has_parked_work()
                and site.vm.heap.live_queues() == 0]
        for site in dead:
            # Retire the site's name-service registrations first so no
            # IdTable row dangles after the site object is gone.
            site.retire_exports()
            self.node.remove_site(site)
            # Here and not in ``remove_site``, which migration's freeze
            # also uses: only a site whose program exited leaves the
            # SiteTable.
            self.node.nameservice.unregister_site(site.site_name)
        return len(dead)
