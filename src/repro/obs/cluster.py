"""The cluster observability plane (docs/OBSERVABILITY.md).

PR6 made the paper's deployment literal -- one OS process per node --
which trapped every PR4 sink inside its own process: each daemon's
events, metrics and flight rings describe one slice of a computation
that spans the cluster.  This module is the other half:

* a flat-dict codec for :class:`~repro.obs.events.ObsEvent` (what
  the daemon ``trace`` control command returns, inside its
  ``wire.encode`` control record);
* :func:`stitch_events` -- merge per-node event streams into one
  deterministic, totally ordered stream, so
  :func:`~repro.obs.chrome.chrome_trace_json` renders a single
  Perfetto-loadable trace with the span flows arrowing *across*
  process boundaries (span ids already ride the wire under
  ``_T_PACKET2``, so both ends of a hop carry the same id);
* :func:`merge_metrics` -- merge per-daemon registry snapshots into
  one node-labelled exposition;
* :class:`ClusterScraper` -- poll every daemon of a
  :class:`~repro.runtime.cluster.ProcessCluster` over the control
  protocol and aggregate all of the above.

Determinism: events sort by ``(time, seq, node)``.  Within one world
the bus emits in (time, seq) order with globally unique seqs, so
partitioning a simulated run by node and re-stitching reproduces the
original stream byte-for-byte (the golden-trace test pins this).
Across daemons, seqs and clocks are per-process, and the node label
breaks every remaining tie -- the same set of scraped streams always
stitches to the same bytes, which is what lets a cluster run be
scraped twice and compared.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .chrome import chrome_trace_json
from .events import ObsEvent
from .metrics import MetricsRegistry, merge_snapshots

#: The ObsEvent fields, in wire order.
EVENT_FIELDS = ("seq", "time", "kind", "node", "src", "dst",
                "size", "span", "note")


# -- event codecs -------------------------------------------------------------

def event_to_dict(event: ObsEvent) -> dict:
    """A flat literal dict (repr/JSON-safe) for one event."""
    return {name: getattr(event, name) for name in EVENT_FIELDS}


def event_from_dict(data: Mapping) -> ObsEvent:
    """Rebuild an event from :func:`event_to_dict` output."""
    return ObsEvent(**{name: data[name] for name in EVENT_FIELDS})



# -- stitching ----------------------------------------------------------------

def stitch_events(streams: Mapping[str, Iterable[ObsEvent]],
                  relabel: bool = False) -> list[ObsEvent]:
    """Merge per-node event streams into one totally ordered stream.

    ``streams`` maps a node label (daemon ip) to that node's events.
    With ``relabel`` every event whose ``node`` field is empty (world-
    level events: transport frames, crashes) is stamped with its
    stream's label -- on a daemon the world *is* the node, and without
    the stamp every daemon's world events would collapse into one
    ``world`` process row in the merged trace.  Leave it off when the
    streams are partitions of a single world (the sim differential
    path), where "" genuinely means world-level.
    """
    merged: list[ObsEvent] = []
    for label in sorted(streams):
        for ev in streams[label]:
            if relabel and not ev.node:
                ev = ObsEvent(seq=ev.seq, time=ev.time, kind=ev.kind,
                              node=label, src=ev.src, dst=ev.dst,
                              size=ev.size, span=ev.span, note=ev.note)
            merged.append(ev)
    merged.sort(key=lambda ev: (ev.time, ev.seq, ev.node))
    return merged


def stitch_trace_json(streams: Mapping[str, Iterable[ObsEvent]],
                      relabel: bool = False) -> str:
    """Stitched streams rendered as Chrome-trace-event JSON."""
    return chrome_trace_json(stitch_events(streams, relabel=relabel))


# -- metrics merging ----------------------------------------------------------

def merge_metrics(snapshots: Mapping[str, dict]) -> MetricsRegistry:
    """Per-daemon :meth:`MetricsRegistry.snapshot` dicts -> one
    node-labelled registry (see :func:`merge_snapshots`)."""
    return merge_snapshots(dict(snapshots), label="node")


# -- the scraper --------------------------------------------------------------

class ClusterScraper:
    """Poll every daemon's control port and aggregate the plane.

    ``controls`` maps node ip -> control ``(host, port)`` -- exactly
    :attr:`ProcessCluster.control`, so ``ClusterScraper(cluster.control)``
    scrapes a launcher-owned cluster, and an address list from READY
    lines scrapes a hand-started one.  Every scrape opens fresh
    connections; the daemon side is non-destructive (the trace sink
    keeps its events), so scraping twice after quiescence returns
    identical streams.
    """

    def __init__(self, controls: Mapping[str, tuple[str, int]],
                 timeout: float = 10.0) -> None:
        if not controls:
            raise ValueError("a scraper needs at least one daemon")
        self.controls = dict(controls)
        self.timeout = timeout

    def _call(self, ip: str, method: str, *args):
        from repro.runtime.cluster import control_call

        return control_call(self.controls[ip], method, *args,
                            timeout=self.timeout)

    # -- one surface per control command --

    def metrics_snapshots(self) -> dict[str, dict]:
        """ip -> registry snapshot (``metrics`` command)."""
        return {ip: self._call(ip, "metrics")
                for ip in sorted(self.controls)}

    def event_streams(self, since: int = 0) -> dict[str, list[ObsEvent]]:
        """ip -> recorded events with ``seq > since`` (``trace``)."""
        return {ip: [event_from_dict(d)
                     for d in self._call(ip, "trace", since)]
                for ip in sorted(self.controls)}

    def flight_dumps(self, reason: str = "scrape") -> dict[str, str]:
        """ip -> remote flight-recorder dump text (``flight``)."""
        return {ip: self._call(ip, "flight", reason)
                for ip in sorted(self.controls)}

    def loads(self) -> dict[str, dict]:
        """ip -> per-site load / queue / migration digest (``load``)."""
        return {ip: self._call(ip, "load") for ip in sorted(self.controls)}

    # -- aggregation --

    def scrape_metrics(self) -> str:
        """One merged, node-labelled text exposition."""
        return merge_metrics(self.metrics_snapshots()).render()

    def scrape_trace(self) -> str:
        """One stitched Perfetto-loadable Chrome trace."""
        return stitch_trace_json(self.event_streams(), relabel=True)


def top_table(loads: Mapping[str, dict]) -> str:
    """Render ``ClusterScraper.loads`` as the ``repro obs top`` table:
    one row per node -- load (instructions), queue depths, migrations
    ordered/received -- plus one indented row per site."""
    header = (f"{'node':<12} {'sites':>5} {'instr':>12} {'runq':>6} "
              f"{'mail':>6} {'mig out':>8} {'mig in':>7}")
    lines = [header]
    for ip in sorted(loads):
        info = loads[ip]
        sites = info["sites"]
        instr = sum(s["instructions"] for s in sites.values())
        runq = sum(s["runqueue"] for s in sites.values())
        mail = sum(s["mailbox"] for s in sites.values())
        lines.append(f"{ip:<12} {len(sites):>5} {instr:>12} {runq:>6} "
                     f"{mail:>6} {info['migrations_out']:>8} "
                     f"{info['migrations_in']:>7}")
        for name in sorted(sites):
            s = sites[name]
            lines.append(f"  {name:<10} {'':>5} {s['instructions']:>12} "
                         f"{s['runqueue']:>6} {s['mailbox']:>6}")
    return "\n".join(lines)
