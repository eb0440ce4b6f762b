"""The seed-pinned chaos regression corpus.

Every entry is a schedule the explorer (or a human) once found
interesting, frozen as ``(scenario, seed, config)`` plus the expected
observables.  Because the chaos world is deterministic, replaying the
triple regenerates the schedule exactly -- these are permanent
regression tests for the network layer's failure behaviour.

Promotion workflow (see docs/TESTING.md): when a chaos sweep surfaces
a schedule worth keeping, take the seed/config from its repro line,
run it once to record the expected observables, and append an entry
here with a note saying *why* the schedule matters.
"""

from dataclasses import dataclass, field

from repro.testkit import ChaosConfig, CrashEvent, LinkReset


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    scenario: str                   # key into scenarios.SCENARIOS
    seed: int
    config: ChaosConfig
    outputs: dict                   # site name -> expected printed values
    quiescent: bool
    stalled_sites: tuple = ()
    fault_kinds: tuple = ()         # exact sequence of injected fault kinds
    note: str = ""


CORPUS = [
    CorpusEntry(
        name="echo-request-dropped",
        scenario="echo", seed=1, config=ChaosConfig(drop_prob=0.5),
        outputs={"client": (), "server": ()},
        quiescent=True,
        fault_kinds=("drop",),
        note="The client's SHIPM request is dropped on the wire: the "
             "reply object waits forever, which is *quiescence* (a "
             "waiting object is passive), not a stall -- the divergence "
             "is only visible in the missing output.",
    ),
    CorpusEntry(
        name="echo-reply-dropped",
        scenario="echo", seed=9, config=ChaosConfig(drop_prob=0.4),
        outputs={"client": (), "server": ()},
        quiescent=True,
        fault_kinds=("drop",),
        note="The server processed the request but the reply vanished: "
             "server-side state advanced, client observed nothing -- "
             "the classic lost-answer asymmetry.",
    ),
    CorpusEntry(
        name="applet-fetch-dropped",
        scenario="applet", seed=42, config=ChaosConfig(drop_prob=0.4),
        outputs={"client": (), "server": ()},
        quiescent=False,
        stalled_sites=("client",),
        fault_kinds=("drop",),
        note="The FETCH reply carrying the applet's code is dropped: "
             "the client keeps its instantiation parked (pending FETCH) "
             "and the network is NOT quiescent -- code mobility loss is "
             "observably different from message loss.",
    ),
    CorpusEntry(
        name="pump-dup-storm",
        scenario="pump", seed=3, config=ChaosConfig(dup_prob=1.0),
        outputs={"client0": (0,), "client1": (1,), "client2": (2,),
                 "client3": (3,), "server": ()},
        quiescent=True,
        fault_kinds=("dup",) * 8,
        note="Every packet delivered twice: duplicated requests make "
             "the pump answer twice, but wire batching coalesces each "
             "client's two replies into one frame (4 requests + 4 "
             "frames = 8 wire packets, down from 12 unbatched), and "
             "each client's linear reply channel is consumed once -- "
             "at-least-once delivery preserves the race-free answer.",
    ),
    CorpusEntry(
        name="echo-crash-restart",
        scenario="echo", seed=5,
        config=ChaosConfig(
            crashes=(CrashEvent("n1", at=1e-5, restart_at=1e-3),)),
        outputs={"client": (7,), "server": ()},
        quiescent=True,
        fault_kinds=("crash", "restart"),
        note="The server crashes just after its reply hits the wire "
             "and later heals: the answer survives because the packet "
             "was already in flight when the node died.",
    ),
    CorpusEntry(
        name="applet-crash-mid-fetch",
        scenario="applet", seed=7,
        config=ChaosConfig(
            crashes=(CrashEvent("n2", at=3.2e-5, restart_at=1e-3),)),
        outputs={"client": (42,), "server": ()},
        quiescent=True,
        fault_kinds=("crash", "crash-drop", "restart"),
        note="The client crashes while the CODE_REPLY carrying the "
             "applet's byte-code is in flight (the reply is "
             "crash-dropped), then restarts: generation-based cache "
             "invalidation clears the stale in-flight mark, the parked "
             "offer re-sends its CODE_NEED, and the fetch re-converges "
             "to the same answer -- no stale code, no lost work.",
    ),
    CorpusEntry(
        name="applet-crash-before-offer",
        scenario="applet", seed=4,
        config=ChaosConfig(
            crashes=(CrashEvent("n2", at=1.2e-5, restart_at=1e-3),)),
        outputs={"client": (42,), "server": ()},
        quiescent=True,
        fault_kinds=("crash", "crash-drop", "restart"),
        note="The client crashes before the digest offer reaches it "
             "(the offer is crash-dropped): on restart the orphaned "
             "pending FETCH re-issues its FETCH_REQUEST from scratch "
             "and the protocol restarts cleanly.",
    ),
    CorpusEntry(
        name="object-crash-mid-need",
        scenario="ship", seed=7,
        config=ChaosConfig(
            crashes=(CrashEvent("n1", at=2.4e-5, restart_at=1e-3),)),
        outputs={"client": (42,), "server": ()},
        quiescent=True,
        fault_kinds=("crash", "crash-drop", "restart"),
        note="The server crashes while the CODE_REPLY carrying the "
             "shipped object's two method blocks is in flight (the "
             "reply is crash-dropped), then restarts: the parked offer "
             "re-sends its CODE_NEED, the client answers it again from "
             "the digests it names, and the object fires -- the SHIPO "
             "twin of applet-crash-mid-fetch.",
    ),
    CorpusEntry(
        name="lease-crash-renew-in-flight",
        scenario="lease_churn", seed=0,
        config=ChaosConfig(
            crashes=(CrashEvent("n1", at=1.005e-3, restart_at=1.4e-3),)),
        outputs={"cli0": (), "cli1": (), "cli2": (), "cli3": (),
                 "srv0": (0,), "srv1": (1,), "srv2": (2,), "srv3": (3,)},
        quiescent=True,
        fault_kinds=("crash", "crash-drop", "crash-drop", "restart"),
        note="The owner node crashes with a REF_RENEW frame in flight "
             "(crash-dropped, receiver down) and swallows the next one "
             "too; after the restart the holders' periodic renewals "
             "re-establish their leases (a renewal is semantically a "
             "claim), so no live reference is ever reclaimed -- the "
             "no-premature-reclamation invariant is checked after a "
             "settling run.",
    ),
    CorpusEntry(
        name="lease-restart-races-drop",
        scenario="lease_churn", seed=0,
        config=ChaosConfig(
            crashes=(CrashEvent("n1", at=7.45e-4, restart_at=7.7e-4),)),
        outputs={"cli0": (), "cli1": (), "cli2": (), "cli3": (),
                 "srv0": (0,), "srv1": (1,), "srv2": (2,), "srv3": (3,)},
        quiescent=True,
        fault_kinds=("crash", "crash-drop", "restart"),
        note="The owner restarts just after the crash window swallows a "
             "frame carrying a holder's REF_DROP (plus two renewals): "
             "the restarted owner still believes the dropped lease is "
             "live, and the protocol converges anyway -- the orphaned "
             "lease simply expires after lease_s and the export is "
             "reclaimed by a later sweep (liveness without the drop).",
    ),
    CorpusEntry(
        name="migrate-dup-ckpt-ship",
        scenario="migrate", seed=3, config=ChaosConfig(dup_prob=1.0),
        outputs={"client0": (), "client1": (), "client2": (),
                 "client3": (), "server": (0, 0, 2, 2, 1, 1, 1, 1, 3, 3)},
        quiescent=True,
        fault_kinds=("dup",) * 7,
        note="Every packet duplicated, including the MIG_SHIP carrying "
             "the checkpoint (n1->n3 1449B): the destination dedups by "
             "migration token (the second SHIP is re-ACKed instead of "
             "restoring a twin) and the site ends up running in "
             "exactly one place.  Data messages really are delivered "
             "at-least-once -- forwarded ones twice per hop -- which "
             "is the expected duplication, not a migration bug; the "
             "no-twin-site/no-lost-site invariants hold.",
    ),
    CorpusEntry(
        name="migrate-crash-mid-migration",
        scenario="migrate", seed=5,
        config=ChaosConfig(
            crashes=(CrashEvent("n1", at=4.2e-5, restart_at=4e-4),)),
        outputs={"client0": (), "client1": (), "client2": (),
                 "client3": (), "server": (0, 2, 3)},
        quiescent=True,
        fault_kinds=("crash", "crash-drop", "crash-drop", "restart"),
        note="The source node crashes right after its first MIG_SHIP: "
             "the destination restores the site and its MIG_ACK is "
             "crash-dropped against the dead node (n3->n1 31B), as is "
             "client1's message.  On restart the manager re-ships from "
             "the state captured at freeze -- byte-identical, so the "
             "dup-SHIP path re-ACKs and the site runs on n3 exactly "
             "once.  Clients that resolve the server after the rebind "
             "reach n3 directly; the message swallowed by the crash "
             "window stays lost (crash-drop semantics), never twinned.",
    ),
    CorpusEntry(
        name="migrate-old-home-message-after-rebind",
        scenario="migrate", seed=1,
        config=ChaosConfig(delay_prob=0.4, delay_s=1e-4),
        outputs={"client0": (), "client1": (), "client2": (),
                 "client3": (), "server": (2, 0, 3, 1)},
        quiescent=True,
        fault_kinds=("delay",) * 3,
        note="Delays push the client messages addressed to the old "
             "home there *after* the cutover completed: no residual "
             "buffering, two pure tombstone forwards redirect them "
             "to n3 and the output multiset is exactly the "
             "unmigrated answer.",
    ),
    CorpusEntry(
        name="pump-jitter-reorder",
        scenario="pump", seed=11, config=ChaosConfig(jitter_s=1e-3),
        outputs={"client0": (0,), "client1": (1,), "client2": (2,),
                 "client3": (3,), "server": ()},
        quiescent=True,
        fault_kinds=(),
        note="A jitter window 100x the link latency scrambles delivery "
             "order completely; confluence holds for the race-free pump.",
    ),
]


# -- the chaos-*proxy* corpus (docs/TRANSPORT.md, proxy mode) ---------------
#
# The same fault envelopes replayed against real TCP through the
# ChaosProxy relay.  A proxy run draws each link's fault decisions
# from ``Random(f"{seed}:{src}:{dst}")`` in per-link record order, so
# the per-link fault sequence is pinned -- but wall-clock interleaving
# across links is not, which is why these entries pin *invariants*
# (and convergence where the protocol guarantees it) rather than the
# simulator corpus's exact outputs.

@dataclass(frozen=True)
class ProxyCorpusEntry:
    name: str
    scenario: str                   # key into scenarios.SCENARIOS
    seed: int
    config: ChaosConfig
    resets: tuple = ()              # testkit.proxy.LinkReset events
    converges: dict | None = None   # site -> outputs, when guaranteed
    note: str = ""


def _sim_entry(name: str) -> CorpusEntry:
    return next(e for e in CORPUS if e.name == name)


def _replay(sim_name: str, note: str,
            converges: dict | None = None) -> ProxyCorpusEntry:
    """A proxy entry replaying a pinned simulator (scenario, seed,
    config) triple over real sockets."""
    sim = _sim_entry(sim_name)
    return ProxyCorpusEntry(
        name=f"proxy-{sim_name}", scenario=sim.scenario, seed=sim.seed,
        config=sim.config, converges=converges, note=note)


_PUMP_ANSWERS = {"client0": (0,), "client1": (1,), "client2": (2,),
                 "client3": (3,), "server": ()}

PROXY_CORPUS = [
    _replay("echo-request-dropped",
            note="Record loss on a real stream: either the request or "
                 "the reply may vanish at the relay; whatever the "
                 "schedule, no packet may vanish *unaccounted*."),
    _replay("pump-dup-storm",
            converges=_PUMP_ANSWERS,
            note="Every data record forwarded twice over TCP: "
                 "at-least-once delivery must preserve the race-free "
                 "answer, exactly as in the simulator."),
    _replay("pump-jitter-reorder",
            converges=_PUMP_ANSWERS,
            note="Relay-side jitter sleeps whole streams, preserving "
                 "per-link FIFO while real concurrency reorders "
                 "across links; confluence must hold."),
    ProxyCorpusEntry(
        name="applet-reset-mid-fetch",
        scenario="applet", seed=13, config=ChaosConfig(),
        resets=(LinkReset("n1", "n2", after=1),),
        converges={"client": (42,), "server": ()},
        note="The server->client connection is RST just as the first "
             "reply record (the FETCH offer) goes through it -- the "
             "record dies in flight.  The dialer reconnects with a "
             "bumped attempt counter, the handshake tells the client "
             "node the link was reset, the client re-drives its "
             "pending FETCH (generation bump + fresh FETCH_REQUEST), "
             "and the fetch re-converges to the same answer: the "
             "socket analogue of applet-crash-mid-fetch.",
    ),
]
