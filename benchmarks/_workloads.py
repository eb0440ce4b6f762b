"""Shared workload generators for the experiment benchmarks.

The paper (CLUSTER 2000) contains no quantitative tables -- its
evaluation is the architecture of sections 4-5.  DESIGN.md therefore
maps each figure/claim to a measurable experiment; this module builds
the DiTyCO programs those experiments run.
"""

from __future__ import annotations

from repro.runtime import DiTyCONetwork
from repro.transport import ClusterModel, SimWorld, myrinet_cluster

# ---------------------------------------------------------------------------
# Single-VM workloads (E1)
# ---------------------------------------------------------------------------

CELL_DEF = """
def Cell(self, v) =
  self ? { read(r)  = r![v] | Cell[self, v],
           write(u) = Cell[self, u] }
in
"""


def cell_churn(n_ops: int) -> str:
    """A cell plus a driver doing n alternating write/read operations."""
    return CELL_DEF + f"""
    new x (
      Cell[x, 0]
    | def Drive(k) =
        if k < {n_ops} then
          (x!write[k] | let v = x!read[] in Drive[k + 1])
        else print!["done"]
      in Drive[0]
    )
    """


def ping_pong(n_rounds: int) -> str:
    """Two parties bouncing a counter: 2 communications per round."""
    return f"""
    new a b (
      def Ping(n) = if n < {n_rounds} then (a![n] | b?(m) = Ping[m]) else print!["done"]
      and Pong() = (a?(n) = (b![n + 1] | Pong[]))
      in (Ping[0] | Pong[])
    )
    """


def counter_loop(n: int) -> str:
    """Pure instantiation recursion (INST-dominated)."""
    return (f"def Count(n) = if n > 0 then Count[n - 1] else print![0] "
            f"in Count[{n}]")


def spawn_tree(depth: int) -> str:
    """Binary fork tree: 2^depth leaves, FORK/spawn-dominated."""
    return f"""
    def Tree(d) =
      if d > 0 then (Tree[d - 1] | Tree[d - 1]) else 0
    in Tree[{depth}]
    """


# ---------------------------------------------------------------------------
# Distributed workloads (E2-E6)
# ---------------------------------------------------------------------------


def one_hop_network(placement: str, n_messages: int = 1,
                    cluster: ClusterModel | None = None) -> DiTyCONetwork:
    """A receiver and a sender placed per ``placement``:

    ``"same-site"``      one site sends to itself,
    ``"same-node"``      two sites on one node,
    ``"cross-node"``     two sites on two nodes.
    """
    net = DiTyCONetwork(cluster=cluster)
    receivers = " | ".join(
        f"(svc?(v{i}) = print![v{i}])" for i in range(n_messages))
    server_src = f"export new svc ({receivers})"
    sends = " | ".join(f"svc![{i}]" for i in range(n_messages))
    client_src = f"import svc from server in ({sends})"

    if placement == "same-site":
        net.add_node("n1")
        net.launch("n1", "server", f"new svc ({receivers} | {sends})")
        return net
    if placement == "same-node":
        net.add_node("n1")
        net.launch("n1", "server", server_src)
        net.launch("n1", "client", client_src)
        return net
    if placement == "cross-node":
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server", server_src)
        net.launch("n2", "client", client_src)
        return net
    raise ValueError(f"unknown placement {placement!r}")


def latency_hiding_network(n_threads: int, local_work: int,
                           cluster: ClusterModel | None = None,
                           requests_per_thread: int = 4) -> DiTyCONetwork:
    """E3: one server node; one client node running ``n_threads``
    concurrent workers.  Each worker performs ``requests_per_thread``
    remote calls, doing ``local_work`` loop iterations after each --
    with enough sibling threads the remote latency overlaps compute.
    """
    net = DiTyCONetwork(cluster=cluster)
    net.add_nodes(["server-node", "client-node"])
    net.launch("server-node", "server", """
    export def Serve(reply) = reply![1]
    in export new svc
    def Pump(self) = self?{ call(reply) = (reply![1] | Pump[self]) }
    in Pump[svc]
    """)
    workers = []
    for t in range(n_threads):
        workers.append(f"""
        (def Work{t}(k) =
           if k < {requests_per_thread} then
             new r (svc!call[r] | r?(v) =
               def Spin{t}(j) =
                 if j > 0 then Spin{t}[j - 1] else Work{t}[k + 1]
               in Spin{t}[{local_work}])
           else done![1]
         in Work{t}[0])
        """)
    collector = " | ".join(f"(done?(x{t}) = print![x{t}])"
                           for t in range(n_threads))
    client_src = ("import svc from server in new done (" +
                  " | ".join(workers) + f" | {collector})")
    net.launch("client-node", "client", client_src)
    return net


def applet_fetch_network(body_size: int, uses: int) -> DiTyCONetwork:
    """E4, fetch flavour: an applet class with ``body_size`` padding
    instructions, instantiated ``uses`` times (sequentially)."""
    pad = _padded_body(body_size)
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", f"""
    export def Applet(out) = ({pad} | out![1])
    in 0
    """)
    # Chain the uses so each waits for the previous (no FETCH dedup).
    chain = "print![42]"
    for _ in range(uses):
        chain = f"new v (Applet[v] | v?(w) = {chain})"
    net.launch("n2", "client", f"import Applet from server in {chain}")
    return net


def applet_ship_network(body_size: int, uses: int) -> DiTyCONetwork:
    """E4, ship flavour: the server ships a ``body_size`` applet object
    per request; the client invokes it ``uses`` times sequentially."""
    pad = _padded_body(body_size)
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", f"""
    def AppletServer(self) =
      self?{{ applet(p) = (p?(out) = ({pad} | out![1])) | AppletServer[self] }}
    in export new appletserver AppletServer[appletserver]
    """)
    chain = "print![42]"
    for _ in range(uses):
        chain = (f"new p v (appletserver!applet[p] | p![v] "
                 f"| v?(w) = {chain})")
    net.launch("n2", "client",
               f"import appletserver from server in {chain}")
    return net


def _padded_body(size: int) -> str:
    """A process whose compiled code grows linearly with ``size``."""
    if size <= 0:
        return "0"
    parts = " | ".join(f"(new pad{i} pad{i}![{i} + 1])" for i in range(size))
    return f"({parts})"


def seti_network(workers: int, chunks_per_worker: int) -> DiTyCONetwork:
    """E5: the section-4 SETI program with ``workers`` client nodes."""
    net = DiTyCONetwork()
    net.add_node("seti-node")
    net.launch("seti-node", "seti", """
    new database (
      export def Install(sink, quota) = Go[0, sink, quota]
      and Go(k, sink, quota) =
        if k < quota then
          let data = database!newChunk[] in (sink![data] | Go[k + 1, sink, quota])
        else 0
      in
      def Database(self, n) =
        self?{ newChunk(reply) = (reply![n] | Database[self, n + 1]) }
      in Database[database, 0]
    )
    """)
    for w in range(workers):
        ip = f"w{w}"
        net.add_node(ip)
        receivers = " | ".join(
            f"(out?(c{i}) = print![c{i}])" for i in range(chunks_per_worker))
        net.launch(ip, f"worker{w}",
                   f"import Install from seti in new out "
                   f"(Install[out, {chunks_per_worker}] | {receivers})")
    return net


def rpc_network(cluster: ClusterModel | None = None) -> DiTyCONetwork:
    """E6: the section-3 RPC example on the runtime."""
    net = DiTyCONetwork(cluster=cluster)
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server",
               "new u export new proc proc?(x, reply) = reply![u]")
    net.launch("n2", "client", """
    import proc from server in
    new v a (proc![v, a] | a?(y) = print!["ok"])
    """)
    return net


# ---------------------------------------------------------------------------
# Distributed-GC churn (E10-GC)
# ---------------------------------------------------------------------------


def churn_network(cycles: int, distgc: bool = True,
                  gc_config=None) -> DiTyCONetwork:
    """Import/export churn: ``cycles`` sequential RPC rounds in which
    the client allocates -- and, by shipping it, *exports* -- a fresh
    reply channel every round.  Without the distributed GC the client's
    export table and heap can only grow with the cycle count; with it
    on, each round's export is reclaimed as soon as the server's lease
    lapses, so the heap stays bounded.
    """
    kwargs = {}
    if distgc:
        from repro.runtime import GcConfig

        kwargs = dict(distgc=True,
                      gc_config=gc_config
                      or GcConfig(lease_s=2e-4, renew_s=5e-5,
                                  sweep_s=2.5e-5))
    net = DiTyCONetwork(**kwargs)
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", """
    export new svc
    def Serve(self) = self?{ call(reply) = (reply![1] | Serve[self]) }
    in Serve[svc]
    """)
    net.launch("n2", "client", f"""
    import svc from server in
    def Loop(k) =
      if k < {cycles} then new a (svc!call[a] | a?(v) = Loop[k + 1])
      else print!["done"]
    in Loop[0]
    """)
    return net
