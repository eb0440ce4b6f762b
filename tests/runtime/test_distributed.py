"""End-to-end tests of the distributed runtime on the simulated world:
SHIPM / SHIPO / FETCH, marshalling, the paper's applet and SETI
programs, fast-path and cache ablations."""

import pytest

from repro.runtime import DiTyCONetwork
from repro.transport import SimWorld, fast_ethernet_cluster, myrinet_cluster
from repro.vm.values import NetRef


def two_node_net():
    net = DiTyCONetwork()
    net.add_nodes(["10.0.0.1", "10.0.0.2"])
    return net


class TestRemoteMessage:
    def test_shipm_delivery(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", "export new svc svc?(w) = print![w]")
        net.launch("10.0.0.2", "client", "import svc from server in svc![42]")
        net.run()
        assert net.site("server").output == [42]
        assert net.is_quiescent()

    def test_arguments_marshalled_as_netrefs(self):
        # The client sends a locally created channel; the server replies
        # on it, so the reply must travel back (2 packets total).
        net = two_node_net()
        net.launch("10.0.0.1", "server",
                   "export new svc svc?(r) = r![99]")
        net.launch("10.0.0.2", "client",
                   "import svc from server in new a (svc![a] | a?(w) = print![w])")
        net.run()
        assert net.site("client").output == [99]
        server = net.site("server")
        assert server.stats.packets_sent == 1
        assert server.stats.packets_received == 1

    def test_remote_rpc_round_trip_time(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", "export new svc svc?(r) = r![1]")
        net.launch("10.0.0.2", "client",
                   "import svc from server in new a (svc![a] | a?(w) = print![w])")
        elapsed = net.run()
        # Two one-way Myrinet trips: at least 18 microseconds.
        assert elapsed >= 2 * 9e-6

    def test_import_before_export_stalls_then_resumes(self):
        net = two_node_net()
        # Launch the client first: its import stalls.
        net.launch("10.0.0.2", "client", "import svc from server in svc![7]")
        net.run()
        assert net.site("client").vm.has_stalled()
        net.launch("10.0.0.1", "server", "export new svc svc?(w) = print![w]")
        net.run()
        assert net.site("server").output == [7]
        assert not net.site("client").vm.has_stalled()

    def test_messages_between_three_sites(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2", "n3"])
        net.launch("n1", "a", "export new pa pa?(w) = print![w]")
        net.launch("n2", "b",
                   "import pa from a in export new pb pb?(w) = pa![w + 1]")
        net.launch("n3", "c", "import pb from b in pb![40]")
        net.run()
        assert net.site("a").output == [41]


class TestObjectMigration:
    def test_shipo_runs_at_destination(self):
        net = two_node_net()
        # Server parks an object at a name exported by the client: the
        # object must migrate to the client's site.
        net.launch("10.0.0.1", "client_side",
                   "export new spot spot![5]")
        net.launch("10.0.0.2", "mover",
                   "import spot from client_side in spot?(w) = print![w * 2]")
        net.run()
        mover = net.site("mover")
        client_side = net.site("client_side")
        # The object migrated: the rendezvous happened at client_side.
        assert client_side.vm.stats.comm_reductions == 1
        assert mover.vm.stats.comm_reductions == 0
        # But the print! inside the object body refers to mover's
        # console (lexical scope!), so the value is printed back at mover.
        assert mover.output == [10]

    def test_shipped_object_code_is_linked(self):
        net = two_node_net()
        net.launch("10.0.0.1", "holder", "export new spot spot![1]")
        net.launch("10.0.0.2", "sender",
                   "import spot from holder in spot?(w) = (new z (z![w] | z?(u) = print![u]))")
        blocks_before = len(net.site("holder").vm.program.blocks)
        net.run()
        assert len(net.site("holder").vm.program.blocks) > blocks_before
        assert net.site("sender").output == [1]


class TestClassFetch:
    APPLET_SERVER = "export def Applet(x) = x![7 * 6] in 0"
    APPLET_CLIENT = """
    import Applet from server in
    new v (Applet[v] | v?(w) = print![w])
    """

    def test_fetch_downloads_and_instantiates_locally(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", self.APPLET_SERVER)
        net.launch("10.0.0.2", "client", self.APPLET_CLIENT)
        net.run()
        client = net.site("client")
        assert client.output == [42]
        assert client.stats.fetch_requests_sent == 1
        assert client.vm.stats.inst_reductions == 1
        assert net.site("server").vm.stats.inst_reductions == 0

    def test_second_instantiation_cached(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", self.APPLET_SERVER)
        net.launch("10.0.0.2", "client", """
        import Applet from server in
        new v (Applet[v] | Applet[v] | (v?(w) = print![w]) | v?(w) = print![w])
        """)
        net.run()
        client = net.site("client")
        assert client.output == [42, 42]
        assert client.stats.fetch_requests_sent == 1
        assert client.stats.fetch_cache_hits + 1 >= 2 or \
            client.stats.fetch_requests_sent == 1

    def test_cache_disabled_refetches(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.site.FETCH_CACHE", False)
        net = two_node_net()
        net.launch("10.0.0.1", "server", self.APPLET_SERVER)
        # Sequence the two instantiations so the second cannot piggyback
        # on the first FETCH being in flight.
        net.launch("10.0.0.2", "client", """
        import Applet from server in
        new v v2 (
          Applet[v]
        | v?(w) = (Applet[v2] | v2?(u) = print![w + u])
        )
        """)
        net.run()
        client = net.site("client")
        assert client.output == [84]
        assert client.stats.fetch_requests_sent == 2

    def test_fetched_class_keeps_lexical_scope(self):
        # The class body refers to a channel of the server: after the
        # download, invocations still reach the server (sigma trans).
        net = two_node_net()
        net.launch("10.0.0.1", "server", """
        new log (
          export def Tell(v) = log![v] in (log?(w) = print![w])
        )
        """)
        net.launch("10.0.0.2", "client", "import Tell from server in Tell[123]")
        net.run()
        assert net.site("server").output == [123]
        # Instantiation happened at the client; the log message shipped.
        assert net.site("client").vm.stats.inst_reductions == 1

    def test_mutually_recursive_group_downloaded_whole(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", """
        export def Even(n, r) = if n == 0 then r![true] else Odd[n - 1, r]
        and Odd(n, r) = if n == 0 then r![false] else Even[n - 1, r]
        in 0
        """)
        net.launch("10.0.0.2", "client", """
        import Even from server in
        new r (Even[5, r] | r?(w) = print![w])
        """)
        net.run()
        client = net.site("client")
        assert client.output == [False]
        # One FETCH brought the whole group; the Odd instantiations are
        # local, not further fetches.
        assert client.stats.fetch_requests_sent == 1
        assert client.vm.stats.inst_reductions == 6


class TestSetiExample:
    """The paper's SETI@home program (section 4) on the full runtime."""

    SETI = """
    new database (
      export def Install(sink) = Go[0, sink]
      and Go(k, sink) =
        if k < 3 then
          let data = database!newChunk[] in (sink![data] | Go[k + 1, sink])
        else 0
      in
      def Database(self, n) =
        self?{ newChunk(reply) = (reply![n] | Database[self, n + 1]) }
      in Database[database, 0]
    )
    """
    CLIENT = "import Install from seti in new out (Install[out] | " \
             "(out?(a) = print![a]) | (out?(b) = print![b]) | out?(c) = print![c])"

    def test_chunks_processed_at_client(self):
        net = two_node_net()
        net.launch("10.0.0.1", "seti", self.SETI)
        net.launch("10.0.0.2", "worker", self.CLIENT)
        net.run()
        worker = net.site("worker")
        assert sorted(worker.output) == [0, 1, 2]
        assert worker.stats.fetch_requests_sent == 1
        # The Go loop runs at the worker.
        assert worker.vm.stats.inst_reductions >= 4

    def test_chunk_requests_ship_to_seti(self):
        net = two_node_net()
        net.launch("10.0.0.1", "seti", self.SETI)
        net.launch("10.0.0.2", "worker", self.CLIENT)
        net.run()
        seti = net.site("seti")
        # 3 newChunk requests arrive; 3 replies leave (plus fetch reply).
        assert seti.vm.stats.comm_reductions >= 3


class TestFastPathAblation:
    def test_same_node_sites_skip_encoding(self):
        net = DiTyCONetwork()
        node = net.add_node("10.0.0.1")
        net.launch("10.0.0.1", "server", "export new svc svc?(w) = print![w]")
        net.launch("10.0.0.1", "client", "import svc from server in svc![5]")
        net.run()
        assert net.site("server").output == [5]
        assert node.tycod.stats.encode_skipped >= 1
        assert node.tycod.stats.remote_sends == 0

    def test_ablation_forces_encoding(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.daemon.LOCAL_FAST_PATH", False)
        net = DiTyCONetwork()
        node = net.add_node("10.0.0.1")
        net.launch("10.0.0.1", "server", "export new svc svc?(w) = print![w]")
        net.launch("10.0.0.1", "client", "import svc from server in svc![5]")
        net.run()
        assert net.site("server").output == [5]
        assert node.tycod.stats.encode_skipped == 0
        assert node.tycod.stats.bytes_sent > 0

    def test_same_site_import_fully_local(self):
        net = DiTyCONetwork()
        net.add_node("10.0.0.1")
        net.launch("10.0.0.1", "solo", """
        export new svc (
          (svc?(w) = print![w])
        | import svc2 from solo in 0
        )
        """)
        net.run()
        # Importing one's own export resolves to the local channel; no
        # packets at all. (svc2 is a distinct, never-exported lexeme, so
        # that import stalls -- use the stats of the svc path only.)
        site = net.site("solo")
        assert site.stats.packets_sent == 0


class TestLinkModels:
    def _rpc_time(self, cluster):
        net = DiTyCONetwork(cluster=cluster)
        net.add_nodes(["10.0.0.1", "10.0.0.2"])
        net.launch("10.0.0.1", "server", "export new svc svc?(r) = r![1]")
        net.launch("10.0.0.2", "client",
                   "import svc from server in new a (svc![a] | a?(w) = print![w])")
        return net.run()

    def test_myrinet_faster_than_fast_ethernet(self):
        t_myri = self._rpc_time(myrinet_cluster())
        t_fe = self._rpc_time(fast_ethernet_cluster())
        assert t_fe > t_myri * 5  # an order of magnitude in latency

    def test_simulation_deterministic(self):
        assert self._rpc_time(myrinet_cluster()) == self._rpc_time(myrinet_cluster())
