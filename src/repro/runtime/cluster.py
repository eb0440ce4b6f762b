"""Multi-process DiTyCO: one OS process per node (``repro daemon``).

This is the paper's deployment shape made real: every node runs its
TyCOd communication daemon in its own process, sites talk over
genuine TCP (:mod:`repro.transport.socket`), and the centralized
network name service (:mod:`repro.runtime.nsnet`) is the one location
everybody knows in advance.

Three pieces:

:class:`DaemonWorld`
    A one-node slice of :class:`~repro.transport.socket.SocketWorld`:
    destinations that are not local resolve through the cluster's node
    directory, so links dial straight into the peer daemon's endpoint.
    Control RPCs and name-service callbacks go through its ``call``.

:func:`daemon_main`
    The ``python -m repro daemon`` entrypoint.  Starts (or joins) the
    name service, boots the node and its transport, publishes the
    listening address, then serves a tiny control protocol (launch /
    status / outputs / shutdown) used by the launcher and by tests.
    Prints one ``READY ...`` line on stdout when open for business.

:class:`ProcessCluster`
    The launcher: spawns N daemons (the first one hosts the name
    service), phases program launches, and detects global quiescence
    by polling per-daemon activity and matching cluster-wide
    sent/delivered accounting across two stable polls.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path
from typing import Optional

from repro.transport.clock import monotime
from repro.transport.socket import SocketWorld

from .network import DiTyCONetwork
from .nsnet import (NameServiceClient, NameServiceServer, RpcServer,
                    recv_reply, send_msg)


class DaemonWorld(SocketWorld):
    """SocketWorld for exactly one process-local node; remote
    destinations resolve via the cluster node directory."""

    def __init__(self, directory, **kw) -> None:
        super().__init__(**kw)
        self._directory = directory          # ip -> (host, port)
        self._known_remote: set[str] = set()

    def _routable(self, dst_ip: str) -> bool:
        if dst_ip in self.nodes or dst_ip in self._known_remote:
            return True
        try:
            self._directory(dst_ip)
        except (KeyError, LookupError, ConnectionError, OSError):
            return False
        self._known_remote.add(dst_ip)
        return True

    def _resolve(self, src_ip: str, dst_ip: str) -> tuple[str, int]:
        if dst_ip in self._addrs:
            return self._addrs[dst_ip]
        return tuple(self._directory(dst_ip))

    def status(self) -> dict:
        """The launcher's quiescence ingredients, read on the loop."""
        return {
            "busy": bool(self._scheduled),
            "links_idle": all(e.links_idle()
                              for e in self._endpoints.values()),
            "has_work": any(n.has_work() for n in self.nodes.values()),
            "sent": self.records_sent, "delivered": self.records_delivered,
            "quiescent": all(n.is_quiescent()
                             for n in self.nodes.values()),
            "resets": self.stats.resets,
            "reconnects": self.stats.reconnects,
        }


def _marshal_value(value):
    return value if isinstance(value, (int, float, str, bool,
                                       type(None))) else repr(value)


class _DaemonControl(RpcServer):
    """The daemon's control server, on the name service's RPC loop.
    Every ``_rpc_*`` runs on the world's loop thread."""

    def __init__(self, net: DiTyCONetwork, world: DaemonWorld, ip: str,
                 host: str, port: int, collector=None, recorder=None,
                 registry=None) -> None:
        self.net, self.world, self.ip = net, world, ip
        #: Cluster-plane sinks (repro.obs), attached by ``--obs``:
        #: a TraceCollector for the ``trace`` command, a FlightRecorder
        #: for ``flight``, a MetricsRegistry (bus sink) for ``metrics``.
        #: All None on an unobserved daemon -- the commands still
        #: answer (``metrics`` pulls world_metrics, the others return
        #: empty) without perturbing the run.
        self.collector = collector
        self.recorder = recorder
        self.registry = registry
        self.shutdown_requested = threading.Event()
        super().__init__(host, port, f"dityco-ctl-{ip}")
        self.start()

    def dispatch(self, method, args):
        return self.world.call(super().dispatch, method, args)

    def _sites(self):
        return [site for node in self.world.nodes.values()
                for site in node.sites.values()]

    def _rpc_launch(self, site_name, source):
        self.net.launch(self.ip, site_name, source)

    def _rpc_migrate(self, site_name, dest_ip):
        return self.net.migrate(site_name, dest_ip)

    def _rpc_migration_stats(self):
        node = self.world.nodes[self.ip]
        if node.mobility is None:
            return None
        return node.mobility.stats.as_dict()

    def _rpc_status(self):
        return self.world.status()

    def _rpc_outputs(self):
        return {s.site_name: [_marshal_value(v) for v in s.output]
                for s in self._sites()}

    def _rpc_instructions(self):
        return {s.site_name: s.vm.stats.instructions for s in self._sites()}

    def _rpc_exports(self):
        return {s.site_name: sorted(s.exported_ids) for s in self._sites()}

    # -- the cluster observability plane (repro.obs.cluster) -----------------

    def _rpc_ident(self):
        return {"ip": self.ip, "obs": self.collector is not None}

    def _rpc_metrics(self):
        """This daemon's registry snapshot (see
        MetricsRegistry.snapshot)."""
        from repro.obs.metrics import MetricsRegistry, world_metrics

        registry = self.registry if self.registry is not None \
            else MetricsRegistry()
        world_metrics(self.world, registry)
        return registry.snapshot()

    def _rpc_trace(self, since=0):
        """Recorded events with ``seq > since`` as flat dicts.
        Non-destructive: the collector keeps everything, so repeated
        scrapes of a quiescent daemon return identical streams."""
        if self.collector is None:
            return []
        from repro.obs.cluster import event_to_dict

        return [event_to_dict(ev) for ev in list(self.collector.events)
                if ev.seq > since]

    def _rpc_flight(self, reason="scrape"):
        if self.recorder is None:
            return ""
        return self.recorder.dump(str(reason))

    def _rpc_load(self):
        """Per-site load digest for ``repro obs top``: instruction
        totals, queue depths, link backlogs and migration counters."""
        sites = {}
        for node in self.world.nodes.values():
            sites.update(node.tycod.load_digest())
        node = self.world.nodes[self.ip]
        mobility = getattr(node, "mobility", None)
        return {
            "ip": self.ip,
            "sites": sites,
            "links": self.world.link_queue_depths().get(self.ip, {}),
            "migrations_out": (mobility.stats.migrations_out
                               if mobility is not None else 0),
            "migrations_in": (mobility.stats.migrations_in
                              if mobility is not None else 0),
        }

    def _rpc_shutdown(self):
        self.shutdown_requested.set()


def control_call(addr: tuple[str, int], method: str, *args,
                 timeout: float = 10.0):
    """One request to a daemon's control port (fresh connection)."""
    with socket.create_connection(addr, timeout=timeout) as sock:
        send_msg(sock, (method, *args))
        reply = recv_reply(sock)
    if reply[0] == "ok":
        return reply[1]
    _status, err_type, message = reply
    raise RuntimeError(f"daemon error {err_type}: {message}")


def daemon_main(args: argparse.Namespace) -> int:
    """Body of ``python -m repro daemon`` (argv parsed by the CLI)."""
    ns_server = None
    if args.serve_ns:
        ns_server = NameServiceServer(host=args.host,
                                      port=args.ns_port).start()
        ns_host, ns_port = ns_server.host, ns_server.port
    else:
        if not args.ns:
            print("daemon: --ns HOST:PORT required unless --serve-ns",
                  file=sys.stderr)
            return 2
        ns_host, ns_port = args.ns

    ns = NameServiceClient(ns_host, ns_port)
    world = DaemonWorld(directory=ns.node_addr, host=args.host)
    # The poller hands its subscriber callbacks to the loop, unwaited.
    ns.handoff = lambda fn: world.io.loop.call_soon_threadsafe(world.call, fn)
    collector = recorder = registry = None
    if getattr(args, "obs", False):
        # The scrape surface's sinks.  Opt-in: tracing flips span
        # allocation on (one extra wire tag per packet), so default
        # daemon runs stay byte-identical to pre-plane daemons.
        from repro.obs import (FlightRecorder, MetricsRegistry,
                               TraceCollector)

        world.obs.tracing = True
        collector = TraceCollector()
        world.obs.subscribe(collector)
        recorder = FlightRecorder()
        world.obs.subscribe(recorder)
        registry = MetricsRegistry()
        world.obs.subscribe(registry)
    net = DiTyCONetwork(world=world, nameservice=ns)
    net.add_node(args.ip)
    world.start()
    data_port = world._addrs[args.ip][1]
    ns.register_node(args.ip, args.host, data_port)

    control = _DaemonControl(net, world, args.ip,
                             host=args.host, port=args.control_port,
                             collector=collector, recorder=recorder,
                             registry=registry)
    print(f"READY ip={args.ip} data={data_port} control={control.port} "
          f"ns={ns_host}:{ns_port}", flush=True)
    try:
        control.shutdown_requested.wait()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        control.close()
        ns.close()              # the poller stops before the loop does
        world.shutdown()
        if ns_server is not None:
            ns_server.close()
    return 0


class ProcessCluster:
    """Spawn and drive N ``repro daemon`` processes on localhost.

    The first daemon hosts the name service; the rest join it.  The
    launcher then mirrors the in-process worlds' API closely enough
    for differential tests: ``launch``, ``run`` (to global
    quiescence), ``outputs``, ``instructions``, ``exports``,
    ``ns_snapshot``, ``shutdown``.
    """

    def __init__(self, ips, host: str = "127.0.0.1",
                 obs: bool = False) -> None:
        self.ips = list(ips)
        if not self.ips:
            raise ValueError("a cluster needs at least one node")
        self.host = host
        #: Spawn daemons with ``--obs`` (scrapeable trace/flight/metrics
        #: sinks + span tracing).
        self.obs = obs
        self.procs: dict[str, subprocess.Popen] = {}
        self.control: dict[str, tuple[str, int]] = {}
        self.ns: Optional[NameServiceClient] = None
        self.ns_addr: Optional[tuple[str, int]] = None

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, ip: str, serve_ns: bool) -> subprocess.Popen:
        cmd = [sys.executable, "-m", "repro", "daemon", "--ip", ip,
               "--host", self.host]
        if self.obs:
            cmd.append("--obs")
        if serve_ns:
            cmd.append("--serve-ns")
        else:
            cmd += ["--ns", f"{self.ns_addr[0]}:{self.ns_addr[1]}"]
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    def _await_ready(self, ip: str, proc: subprocess.Popen) -> dict:
        line = proc.stdout.readline()
        if not line.startswith("READY"):
            err = proc.stderr.read() if proc.poll() is not None else ""
            raise RuntimeError(
                f"daemon {ip} failed to start: {line!r} {err}")
        fields = dict(part.split("=", 1) for part in line.split()[1:])
        self.control[ip] = (self.host, int(fields["control"]))
        return fields

    def start(self) -> "ProcessCluster":
        try:
            first = self.ips[0]
            proc = self.procs[first] = self._spawn(first, serve_ns=True)
            fields = self._await_ready(first, proc)
            ns_host, _, ns_port = fields["ns"].rpartition(":")
            self.ns_addr = (ns_host, int(ns_port))
            for ip in self.ips[1:]:
                self.procs[ip] = self._spawn(ip, serve_ns=False)
            for ip in self.ips[1:]:
                self._await_ready(ip, self.procs[ip])
            self.ns = NameServiceClient(*self.ns_addr)
            self.ns.wait_for_nodes(self.ips)
        except BaseException:
            self.shutdown()
            raise
        return self

    def shutdown(self) -> None:
        for ip, addr in list(self.control.items()):
            try:
                control_call(addr, "shutdown", timeout=2.0)
            except (OSError, RuntimeError, ConnectionError):
                pass
        for proc in self.procs.values():
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=5.0)
            finally:
                for stream in (proc.stdout, proc.stderr):
                    if stream is not None:
                        stream.close()
        self.procs.clear()
        self.control.clear()
        if self.ns is not None:
            self.ns.close()
            self.ns = None

    # -- driving -------------------------------------------------------------

    def launch(self, ip: str, site_name: str, source: str) -> None:
        control_call(self.control[ip], "launch", site_name, source)

    def migrate(self, ip: str, site_name: str, dest_ip: str) -> str:
        """Live-migrate ``site_name`` from the daemon at ``ip`` to the
        daemon at ``dest_ip``; returns the migration token."""
        return control_call(self.control[ip], "migrate", site_name, dest_ip)

    def migration_stats(self, ip: str) -> Optional[dict]:
        return control_call(self.control[ip], "migration_stats")

    def _poll(self) -> tuple[bool, tuple]:
        statuses = [control_call(self.control[ip], "status")
                    for ip in self.ips]
        sent = sum(s["sent"] for s in statuses)
        delivered = sum(s["delivered"] for s in statuses)
        quiet = (not any(s["busy"] or s["has_work"] for s in statuses)
                 and all(s["links_idle"] for s in statuses)
                 and sent == delivered)
        fingerprint = tuple((s["sent"], s["delivered"]) for s in statuses)
        return quiet, fingerprint

    def run(self, max_time: float = 60.0) -> float:
        """Wait for stable global inactivity: three quiet polls in a
        row with the same per-daemon ``(sent, delivered)`` fingerprint.

        One quiet poll is not enough: ``status`` is read one daemon at
        a time, so a pass can miss a record in flight between two
        reads -- a daemon read idle just before the record reached it,
        its peer read after the answer came back, and the sums still
        balance.  Unchanged counters over the repeats rule that out."""
        start = monotime()
        deadline = start + max_time
        stable, last = 0, None
        while True:
            quiet, fingerprint = self._poll()
            if quiet and fingerprint == last:
                stable += 1
            else:
                stable = 0
            last = fingerprint
            if quiet and stable >= 2:
                return monotime() - start
            if monotime() > deadline:
                raise TimeoutError("cluster did not reach quiescence")
            threading.Event().wait(0.01)

    def is_quiescent(self) -> bool:
        return all(control_call(self.control[ip], "status")["quiescent"]
                   for ip in self.ips)

    def _gather(self, method: str) -> dict:
        merged: dict = {}
        for ip in self.ips:
            merged.update(control_call(self.control[ip], method))
        return merged

    def outputs(self) -> dict:
        return {site: tuple(vals)
                for site, vals in self._gather("outputs").items()}

    def instructions(self) -> dict:
        return self._gather("instructions")

    def exports(self) -> dict:
        return self._gather("exports")

    def ns_snapshot(self) -> dict:
        return self.ns.snapshot()

    # -- the cluster observability plane --------------------------------------

    def scraper(self):
        """A :class:`~repro.obs.cluster.ClusterScraper` over this
        cluster's control ports."""
        from repro.obs.cluster import ClusterScraper

        return ClusterScraper(self.control)
