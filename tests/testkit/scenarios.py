"""Shared distributed scenarios for the chaos-harness tests.

A scenario is a callable populating a fresh DiTyCONetwork; keeping
them here lets the corpus name them symbolically (corpus entries pin
``(scenario, seed, config)`` triples).
"""

SERVER = "export new svc svc?(r) = r![7]"
CLIENT = ("import svc from server in "
          "new a (svc![a] | a?(w) = print![w])")


def echo(net):
    """One request/reply pair across two nodes (2 packets)."""
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", SERVER)
    net.launch("n2", "client", CLIENT)


def pump(net, clients=4):
    """A replicated server answering ``clients`` remote callers --
    race-free: every client owns its reply channel."""
    net.add_node("hub")
    net.launch("hub", "server", """
    export new svc
    def Pump(self) = self?{ call(reply, tag) = (reply![tag] | Pump[self]) }
    in Pump[svc]
    """)
    for i in range(clients):
        ip = f"c{i}"
        net.add_node(ip)
        net.launch(ip, f"client{i}", f"""
        import svc from server in
        new a (svc!call[a, {i}] | a?(v) = print![v])
        """)


def applet(net):
    """Code mobility: the client FETCHes a class from the server."""
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server",
               "export def Applet(out) = out![6 * 7] in 0")
    net.launch("n2", "client",
               "import Applet from server in "
               "new v (Applet[v] | v?(w) = print![w])")


def ship(net):
    """Code mobility the other way: the client SHIPOs a two-method
    object to the server's channel, whose waiting message fires it."""
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", "export new svc svc!times[6]")
    net.launch("n2", "client",
               "import svc from server in "
               "svc?{ times(w) = print![w * 7], plus(w) = print![w + 1] }")


def lease_churn(net, rounds=4):
    """Import/export churn under the distributed GC: each round spawns
    a fresh server site exporting ``churn``, a client that imports and
    fires the round index at it, and a scheduled retirement of the
    server's registration -- so every round drives a full lease
    lifecycle.  Even-round clients park a receptor that keeps the
    imported reference alive (claim + periodic renew); odd-round
    clients release it immediately (claim + drop + reclamation)."""
    from repro.runtime import GcConfig, GcScheduler

    net.distgc = True
    net.gc_config = GcConfig(lease_s=1e-3, renew_s=2.5e-4, sweep_s=1.25e-4)
    net.add_nodes(["n1", "n2"])
    world = net.world
    GcScheduler(world).install(horizon=0.02)
    spacing = 2e-4

    def start_round(i):
        server = net.launch("n1", f"srv{i}", (
            "def Serve(c) = c?(w) = (print![w] | Serve[c]) "
            "in export new churn Serve[churn]"))
        if i % 2 == 0:
            body = (f"import churn from srv{i} in "
                    f"(churn![{i}] | export new keep keep?(w) = churn![w])")
        else:
            body = f"import churn from srv{i} in churn![{i}]"
        world.schedule_at(i * spacing + 5e-5,
                          lambda: net.launch("n2", f"cli{i}", body))
        world.schedule_at(i * spacing + 15e-5, server.retire_exports)

    start_round(0)
    for i in range(1, rounds):
        world.schedule_at(i * spacing, lambda i=i: start_round(i))


def migrate(net, messages=4):
    """Live migration mid-workload (repro.mobility): a persistent
    server migrates from n1 to n3 while clients on n2 keep firing at
    it.  Early messages hit the old home (buffered as residuals if
    mid-freeze), late ones arrive after the rebind -- importers that
    resolved before the move send to n1 and exercise the tombstone
    forwarding path."""
    net.add_nodes(["n1", "n2", "n3"])
    net.launch("n1", "server", (
        "export def Svc(ch, out) = ch?(w) = (out![w] | Svc[ch, out]) in "
        "export new svc Svc[svc, print]"))
    net.launch("n2", "client0", "import svc from server in svc![0]")
    world = net.world
    world.schedule_at(4e-5, lambda: net.migrate("server", "n3"))
    for i in range(1, messages):
        world.schedule_at(
            1e-5 + i * 3e-5,
            lambda i=i: net.launch(
                "n2", f"client{i}",
                f"import svc from server in svc![{i}]"))


SCENARIOS = {
    "echo": echo,
    "pump": pump,
    "applet": applet,
    "ship": ship,
    "lease_churn": lease_churn,
    "migrate": migrate,
}
