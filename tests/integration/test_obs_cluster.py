"""Cluster observability plane over real daemon processes.

A 3-node ``repro daemon`` cluster started with ``--obs`` runs the
ping workload, then a :class:`ClusterScraper` aggregates it over the
control protocol: one node-labelled merged metrics exposition, one
stitched Perfetto-loadable trace (byte-identical when scraped twice
after quiescence), per-node flight dumps and the ``obs top`` load
digest.
"""

import json

import pytest

from repro.obs import top_table, validate_trace
from repro.runtime.cluster import ProcessCluster, control_call

pytestmark = pytest.mark.slow

IPS = ["n1", "n2", "n3"]

PHASES = [
    [("n1", "server", """
      export new svc
      def Pump(self) = self?{ call(reply, tag) = (reply![tag] | Pump[self]) }
      in Pump[svc]
      """)],
    [("n2", "ping2",
      "import svc from server in new a (svc!call[a, 2] | a?(v) = print![v])"),
     ("n3", "ping3",
      "import svc from server in new a (svc!call[a, 3] | a?(v) = print![v])")],
]


@pytest.fixture(scope="module")
def cluster():
    cluster = ProcessCluster(IPS, obs=True).start()
    try:
        for phase in PHASES:
            for ip, name, src in phase:
                cluster.launch(ip, name, src)
            cluster.run(max_time=60.0)
        assert cluster.is_quiescent()
        yield cluster
    finally:
        cluster.shutdown()


@pytest.fixture(scope="module")
def scraper(cluster):
    return cluster.scraper()


class TestScrapeSurface:
    def test_ident_reports_ip_and_obs(self, cluster):
        for ip, addr in cluster.control.items():
            ident = control_call(addr, "ident")
            assert ident == {"ip": ip, "obs": True}

    def test_merged_metrics_are_node_labelled(self, scraper):
        text = scraper.scrape_metrics()
        for ip in IPS:
            assert f'node="{ip}"' in text
        # Per-daemon world gauges and sink-derived counters both land.
        assert 'repro_vm_instructions_total{node="n1",site="server"}' in text
        assert "repro_events_total{" in text

    def test_scrape_twice_is_byte_identical(self, scraper):
        assert scraper.scrape_metrics() == scraper.scrape_metrics()
        assert scraper.scrape_trace() == scraper.scrape_trace()

    def test_stitched_trace_is_loadable_and_spans_nodes(self, scraper):
        doc = json.loads(scraper.scrape_trace())
        assert validate_trace(doc) == []
        pids = {ev["pid"] for ev in doc["traceEvents"]}
        assert len(pids) >= 3          # one process row per daemon
        names = {ev["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "i"}
        assert "deliver" in names      # cross-daemon traffic traced

    def test_trace_supports_incremental_since(self, scraper):
        streams = scraper.event_streams()
        assert any(evs for evs in streams.values())
        top = max(ev.seq for evs in streams.values() for ev in evs)
        later = scraper.event_streams(since=top)
        assert all(evs == [] for evs in later.values())

    def test_flight_dumps_come_back_per_node(self, scraper):
        dumps = scraper.flight_dumps(reason="integration test")
        assert sorted(dumps) == IPS
        for text in dumps.values():
            assert "flight recorder dump: integration test" in text

    def test_load_digest_feeds_the_top_table(self, scraper):
        loads = scraper.loads()
        assert sorted(loads) == IPS
        assert loads["n1"]["sites"]["server"]["instructions"] > 0
        table = top_table(loads)
        lines = table.splitlines()
        assert lines[0].startswith("node")
        assert any(line.startswith("n1") for line in lines)
        assert any("server" in line for line in lines)


class TestObsOffDaemonsUnchanged:
    def test_plain_daemon_serves_empty_plane(self):
        plain = ProcessCluster(["m1"]).start()
        try:
            addr = plain.control["m1"]
            assert control_call(addr, "ident") == {"ip": "m1", "obs": False}
            assert control_call(addr, "trace", 0) == []
            assert control_call(addr, "flight", "x") == ""
            # metrics still works obs-off: pull-based world sampling.
            snap = control_call(addr, "metrics")
            assert "repro_transport_packets_total" in snap
        finally:
            plain.shutdown()
