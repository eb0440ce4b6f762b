"""EventBus behaviour, the producers publishing into it, and the
chaos harness's :class:`~repro.testkit.chaos.FaultLog` sink.

``world.trace``, ``node.trace`` and ``site._trace`` each hold one
guarded :meth:`~repro.obs.bus.EventBus.emit`; the bus is the only way
an event travels.
"""

from repro.obs import EventBus
from repro.obs.events import ObsEvent, category_of
from repro.runtime.network import DiTyCONetwork
from repro.testkit import FaultLog
from repro.transport.sim import SimWorld


class _Sink:
    def __init__(self):
        self.events = []

    def on_event(self, event):
        self.events.append(event)


class TestEventBus:
    def test_inactive_without_sinks(self):
        bus = EventBus()
        assert not bus.active
        assert len(bus) == 0

    def test_emit_fans_out_with_sequence_and_clock(self):
        now = [1.5]
        bus = EventBus(clock=lambda: now[0])
        a, b = _Sink(), _Sink()
        bus.subscribe(a)
        bus.subscribe(b)
        assert bus.active
        bus.emit("send", src="n1", dst="n2", size=7)
        now[0] = 2.5
        bus.emit("deliver", src="n1", dst="n2", size=7)
        assert [e.seq for e in a.events] == [1, 2]
        assert [e.time for e in a.events] == [1.5, 2.5]
        assert a.events == b.events
        assert len(bus) == 2

    def test_subscribe_is_idempotent(self):
        bus = EventBus()
        sink = _Sink()
        bus.subscribe(sink)
        bus.subscribe(sink)
        bus.emit("send")
        assert len(sink.events) == 1
        bus.unsubscribe(sink)
        assert not bus.active

    def test_active_is_a_plain_attribute_tracking_the_sinks(self):
        bus = EventBus()
        a, b = _Sink(), _Sink()
        assert vars(bus)["active"] is False
        bus.subscribe(a)
        bus.subscribe(b)
        bus.unsubscribe(a)
        assert vars(bus)["active"] is True
        bus.unsubscribe(_Sink())          # never subscribed: no effect
        assert bus.active
        bus.unsubscribe(b)
        assert vars(bus)["active"] is False

    def test_spans_only_allocated_when_tracing(self):
        bus = EventBus()
        assert bus.new_span() == 0
        assert bus.spans_allocated == 0
        bus.tracing = True
        assert bus.new_span() == 1
        assert bus.new_span() == 2
        assert bus.spans_allocated == 2

    def test_category_taxonomy(self):
        assert category_of("heap") == "vm"
        # Per-reduction kinds left the taxonomy: what they counted
        # rides on "heap" (cumulative comm= / inst= in its note).
        assert category_of("comm") == category_of("inst") == "other"
        assert category_of("shipm") == "net"
        assert category_of("cache-hit") == "cache"
        assert category_of("lease-claim") == "gc"
        assert category_of("send") == "transport"
        assert category_of("crash") == "chaos"
        assert category_of("made-up-kind") == "other"

    def test_event_str_includes_route_node_and_span(self):
        ev = ObsEvent(seq=3, time=0.5, kind="shipm", node="n1",
                      src="client", dst="n2", size=9, span=4, note="m")
        text = str(ev)
        assert "client->n2@n1" in text
        assert "9B s4 m" in text


class TestWorldShims:
    def test_world_trace_is_noop_without_sinks(self):
        world = SimWorld()
        world.trace("send", "n1", "n2", 10)
        assert len(world.obs) == 0

    def test_world_trace_lands_on_bus(self):
        world = SimWorld()
        sink = _Sink()
        world.obs.subscribe(sink)
        world.trace("send", "n1", "n2", 10, note="x")
        assert [(e.kind, e.src, e.dst, e.size) for e in sink.events] \
            == [("send", "n1", "n2", 10)]

    def test_all_layers_publish_into_one_bus(self):
        """world.trace / node.trace / site._trace all land on the bus:
        one run, one sink, events from transport and network layers."""
        world = SimWorld()
        sink = _Sink()
        world.obs.subscribe(sink)
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server",
                   "export def Applet(out) = out![6 * 7] in 0")
        net.launch("n2", "client",
                   "import Applet from server in "
                   "new v (Applet[v] | v?(w) = print![w])")
        net.run(5.0)
        kinds = {e.kind for e in sink.events}
        assert {"send", "deliver"} <= kinds            # transport (world)
        assert {"fetch-req", "fetch-serve"} <= kinds   # network (site)
        assert {"cache-miss", "code-install"} <= kinds  # cache layer
        # Events from sites carry the emitting node's ip.
        assert {e.node for e in sink.events if e.kind == "fetch-req"} \
            == {"n2"}


def _publish(bus, kinds):
    for kind in kinds:
        bus.emit(kind, src="n1")


class TestFaultLogBounded:
    def test_keeps_fault_kinds_only_with_bus_sequence_numbers(self):
        bus = EventBus()
        log = FaultLog()
        bus.subscribe(log)
        _publish(bus, ["send", "drop", "deliver", "crash", "batch",
                       "restart"])
        assert [(e.seq, e.kind) for e in log.events] \
            == [(2, "drop"), (4, "crash"), (6, "restart")]
        assert log.format().splitlines() == [str(e) for e in log.events]

    def test_eviction_is_counted(self, monkeypatch):
        monkeypatch.setattr("repro.testkit.chaos.FAULT_LOG_CAPACITY", 3)
        bus = EventBus()
        log = FaultLog()
        bus.subscribe(log)
        _publish(bus, ["drop"] * 5)
        assert [e.seq for e in log.events] == [3, 4, 5]
        assert log.evicted == 2

    def test_format_faults_surfaces_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.testkit.chaos.FAULT_LOG_CAPACITY", 2)
        bus = EventBus()
        log = FaultLog()
        bus.subscribe(log)
        _publish(bus, ["crash", "drop", "dup"])     # evicts the crash
        text = log.format()
        assert "1 older fault(s) evicted" in text
        assert "fault list is incomplete" in text

    def test_format_faults_silent_when_nothing_evicted(self, monkeypatch):
        monkeypatch.setattr("repro.testkit.chaos.FAULT_LOG_CAPACITY", 2)
        bus = EventBus()
        log = FaultLog()
        bus.subscribe(log)
        # Ordinary traffic never counts against the bound.
        _publish(bus, ["crash", "send", "deliver", "send", "deliver"])
        assert "evicted" not in log.format()
        assert log.format().split()[2] == "crash"
