"""E17 -- live migration: what a cutover costs, out and back.

A pump server on ``n1`` answers a burst of client calls, then live-
migrates to ``n3`` (*cold*: a node that never ran the site) and later
back to ``n1`` (*warm*: the node it left).  Each cutover is one
MIG_SHIP carrying the checkpoint's code and state parts and one
MIG_ACK, so the two legs cost about the same: a site moves with its
code, as SHIPO moves an object with its methods, and a return trip is
not cheaper.  Everything is measured on the simulator, so wire bytes,
shipped payload splits and virtual cutover times are pure functions of
the program -- exact regression gates, no timing noise.
"""

from repro.mobility.checkpoint import write_checkpoint
from repro.runtime import DiTyCONetwork

SERVER = """
export new svc
def Pump(self) = self?{ call(reply, tag) = (reply![tag] | Pump[self]) }
in Pump[svc]
"""


def _client(name: str, tag: int) -> str:
    return (f"import svc from server in "
            f"new a (svc!call[a, {tag}] | a?(v) = print![v])")


def _burst(net: DiTyCONetwork, ip: str, base: int, n: int = 4) -> None:
    for i in range(n):
        net.launch(ip, f"c{base + i}", _client(f"c{base + i}", base + i))
    net.run()


def run() -> dict:
    """One cutover out and one back; returns the deterministic record."""
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2", "n3"])
    net.launch("n1", "server", SERVER)
    _burst(net, "n2", base=0)

    # The quiesced server's checkpoint as one durable blob (MAGIC +
    # version + digest + encoded code/state sections).
    blob = write_checkpoint(net.site("server"))

    bytes0, t0 = net.world.stats.bytes, net.world.time
    net.migrate("server", "n3")            # cold: n3 never ran it
    net.run()
    cold_bytes = net.world.stats.bytes - bytes0
    cold_us = (net.world.time - t0) * 1e6
    _burst(net, "n2", base=4)              # server keeps answering

    bytes1, t1 = net.world.stats.bytes, net.world.time
    net.migrate("server", "n1")            # warm: back to the old home
    net.run()
    warm_bytes = net.world.stats.bytes - bytes1
    warm_us = (net.world.time - t1) * 1e6
    _burst(net, "n2", base=8)

    outputs = sorted(v for ip in ("n2",)
                     for node in [net.world.nodes[ip]]
                     for s in node.sites.values() for v in s.output)
    assert outputs == list(range(12)), outputs
    assert net.nameservice.lookup_site("server").ip == "n1"
    n1, n3 = net.node("n1").mobility.stats, net.node("n3").mobility.stats
    assert n1.ships_sent == n3.ships_sent == 1    # no retry on either leg

    return {
        "ckpt_bytes": len(blob),
        "cold_bytes": cold_bytes,
        "cold_sim_us": round(cold_us, 2),
        "warm_bytes": warm_bytes,
        "warm_sim_us": round(warm_us, 2),
        # The two parts of the cold leg's one SHIP.
        "state_bytes": n1.state_bytes_shipped,
        "code_bytes": n1.code_bytes_shipped,
        "cold_over_warm": round(cold_bytes / warm_bytes, 2),
    }


def report() -> list[dict]:
    r = run()
    return [
        {"leg": "checkpoint blob", "wire_bytes": r["ckpt_bytes"],
         "sim_us": None, "note": "durable blob (write_checkpoint)"},
        {"leg": "cold migrate n1->n3", "wire_bytes": r["cold_bytes"],
         "sim_us": r["cold_sim_us"],
         "note": f"one SHIP: {r['code_bytes']}B code + "
                 f"{r['state_bytes']}B state"},
        {"leg": "warm migrate n3->n1", "wire_bytes": r["warm_bytes"],
         "sim_us": r["warm_sim_us"],
         "note": f"code + state again; cold/warm = {r['cold_over_warm']}x"},
    ]


class TestMigrationBench:
    def test_run_is_deterministic(self):
        assert run() == run()

    def test_each_leg_ships_code_and_state(self):
        r = run()
        # One SHIP with both parts plus one ACK: the wire carries the
        # parts and a few hundred bytes of framing, on either leg.
        parts = r["code_bytes"] + r["state_bytes"]
        assert parts < r["cold_bytes"] < parts + 200
        assert 0.9 < r["cold_over_warm"] < 1.1

    def test_checkpoint_blob_is_plausible(self):
        r = run()
        assert r["ckpt_bytes"] > 0
        # The cold leg carries at least the checkpoint's payload.
        assert r["cold_bytes"] > r["ckpt_bytes"] / 2


if __name__ == "__main__":
    for row in report():
        print(row)
