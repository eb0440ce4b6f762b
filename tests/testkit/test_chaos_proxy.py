"""Replay the chaos corpus through the TCP relay (proxy mode).

The simulator corpus pins exact schedules; the proxy corpus replays
the same ``(scenario, seed, config)`` triples against a real
:class:`~repro.transport.socket.SocketWorld` with a
:class:`~repro.testkit.ChaosProxy` interposed on every link.  Real
sockets make cross-link interleaving wall-clock-dependent, so these
tests pin what must hold under *any* schedule: the PR1 invariants
(message accounting, no dangling imports), the stale-code invariant,
and convergence where the protocol guarantees it (see each entry's
``converges``/``note``).

The ``applet-reset-mid-fetch`` entry has no simulator twin: it kills
the TCP connection under the FETCH reply and checks that the
reconnect handshake re-drives the pending fetch to the same answer.
"""

from types import SimpleNamespace

import pytest

from repro.runtime import DiTyCONetwork
from repro.testkit import ChaosProxy, invariants as inv
from repro.transport import SocketWorld

from .corpus import PROXY_CORPUS
from .scenarios import SCENARIOS


def _entry(name):
    return next(e for e in PROXY_CORPUS if e.name == name)


def run_proxy_entry(entry, max_time=60.0):
    """One corpus replay: SocketWorld + ChaosProxy + scenario + the
    invariant sweep the explorer runs (in the same order)."""
    world = SocketWorld()
    proxy = ChaosProxy(seed=entry.seed, config=entry.config,
                       resets=entry.resets)
    world.use_proxy(proxy)
    net = DiTyCONetwork(world=world)
    SCENARIOS[entry.scenario](net)
    try:
        net.run(max_time=max_time)
        quiescent = net.is_quiescent()
        outputs = {site.site_name: tuple(site.output)
                   for node in world.nodes.values()
                   for site in node.sites.values()}
        violations = []
        if not entry.resets:
            # An RST can kill a record inside a kernel buffer, which no
            # counter can see; accounting applies to reset-free runs.
            violations += inv.check_message_accounting(world)
        violations += inv.check_no_stale_code(net)
        # The dangling-import probe mutates the network: always last.
        violations += inv.check_no_dangling_imports(net)
        return SimpleNamespace(world=world, net=net, proxy=proxy,
                               outputs=outputs, quiescent=quiescent,
                               violations=violations)
    finally:
        world.shutdown()


@pytest.mark.parametrize("entry", PROXY_CORPUS, ids=lambda e: e.name)
def test_proxy_entry_holds_invariants(entry):
    run = run_proxy_entry(entry)
    assert run.violations == [], entry.note
    if entry.converges is not None:
        for site, expected in entry.converges.items():
            assert run.outputs[site] == expected, (
                f"{entry.name}: site {site!r} diverged "
                f"(faults: {run.proxy.faults}); {entry.note}")


def test_echo_drop_outcome_matches_relay_accounting():
    """The echo pair exchanges exactly two data records; the client
    sees the answer iff the relay dropped neither."""
    run = run_proxy_entry(_entry("proxy-echo-request-dropped"))
    expected = (7,) if run.proxy.dropped_total == 0 else ()
    assert run.outputs["client"] == expected
    assert run.quiescent        # a waiting object is passive, not stuck


def test_dup_storm_forwards_extra_copies():
    run = run_proxy_entry(_entry("proxy-pump-dup-storm"))
    assert run.proxy.duplicated_total > 0
    assert run.proxy.forwarded_total > run.proxy.duplicated_total
    assert run.quiescent


def test_reset_mid_fetch_reconnects_and_reconverges():
    entry = _entry("applet-reset-mid-fetch")
    run = run_proxy_entry(entry)
    assert run.proxy.resets_total == 1
    assert run.world.crashed_ever      # both ends observed the RST
    assert run.world.stats.reconnects >= 1
    assert run.outputs["client"] == (42,), entry.note
    assert run.quiescent
    # The client re-sent the FETCH whose offer the reset swallowed.
    client = run.net.site("client")
    assert client.stats.fetch_requests_sent >= 2
