"""E17 -- live migration: what a cutover costs, cold vs warm.

A pump server on ``n1`` answers a burst of client calls, then live-
migrates to ``n3`` (*cold*: the destination has never seen the class
code, so the checkpoint's CodeBundle rides the MIG protocol) and later
back to ``n1`` (*warm*: the old home still holds the code in its
library keyed by digest, so only the state blob ships).  Everything is
measured on the simulator, so wire bytes, shipped payload splits and
virtual cutover times are pure functions of the program -- exact
regression gates, no timing noise.

The cold/warm byte gap *is* the code-cache effect applied to whole
sites: the second hop of any site whose class code already reached a
node pays only for its live state.
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
    """One cold + one warm cutover; returns the deterministic record."""
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2", "n3"])
    net.launch("n1", "server", SERVER)
    _burst(net, "n2", base=0)

    # The quiesced server's checkpoint as one durable blob (MAGIC +
    # version + digest + encoded code/state sections).
    blob = write_checkpoint(net.site("server"))

    bytes0, t0 = net.world.stats.bytes, net.world.time
    net.migrate("server", "n3")            # cold: code + state ship
    net.run()
    cold_bytes = net.world.stats.bytes - bytes0
    cold_us = (net.world.time - t0) * 1e6
    _burst(net, "n2", base=4)              # server keeps answering

    bytes1, t1 = net.world.stats.bytes, net.world.time
    net.migrate("server", "n1")            # warm: n1 still has the code
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
    assert n3.cold_restores == 1 and n1.warm_restores == 1

    return {
        "ckpt_bytes": len(blob),
        "cold_bytes": cold_bytes,
        "cold_sim_us": round(cold_us, 2),
        "warm_bytes": warm_bytes,
        "warm_sim_us": round(warm_us, 2),
        "state_bytes": n3.state_bytes_shipped,
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
         "note": f"code+state ship ({r['code_bytes']}B code)"},
        {"leg": "warm migrate n3->n1", "wire_bytes": r["warm_bytes"],
         "sim_us": r["warm_sim_us"],
         "note": f"state only ({r['state_bytes']}B state); "
                 f"cold/warm = {r['cold_over_warm']}x"},
    ]


class TestMigrationBench:
    def test_run_is_deterministic(self):
        assert run() == run()

    def test_warm_leg_is_cheaper(self):
        r = run()
        # The gap is the CodeBundle that did not have to ship again.
        assert r["warm_bytes"] < r["cold_bytes"]
        assert r["cold_bytes"] - r["warm_bytes"] >= r["code_bytes"]

    def test_checkpoint_blob_is_plausible(self):
        r = run()
        assert r["ckpt_bytes"] > 0
        # The cold leg carries at least the checkpoint's payload.
        assert r["cold_bytes"] > r["ckpt_bytes"] / 2


if __name__ == "__main__":
    for row in report():
        print(row)
