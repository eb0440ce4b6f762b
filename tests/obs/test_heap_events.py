"""``heap`` events are published where the heap changes.

``Node.step`` only steps sites that have work, so the snapshot a step
ends with cannot be how an *idle* site's heap change reaches the bus:
a distributed-GC sweep that reclaims on an idle holder publishes the
``heap`` event itself, at the sweep.
"""

from repro.obs import TraceCollector
from repro.runtime import DiTyCONetwork, GcScheduler
from repro.transport.sim import SimWorld

from tests.testkit.scenarios import applet


def test_a_sweep_on_an_idle_holder_publishes_its_heap_event():
    world = SimWorld()
    world.obs.tracing = True
    sink = TraceCollector()
    world.obs.subscribe(sink)
    net = DiTyCONetwork(world=world, distgc=True)
    GcScheduler(world).install(horizon=2e-3)
    applet(net)
    net.run()
    client = net.site("client")
    assert client.output == [42]

    sweeps = [e for e in sink.events
              if e.kind == "gc" and e.src == "client" and e.size == 1]
    assert len(sweeps) == 1, "the idle client's sweep reclaims `v` once"
    heaps = [e for e in sink.events
             if e.kind == "heap" and e.src == "client"
             and "reclaimed=1" in e.note]
    assert len(heaps) == 1
    # Published by the sweep that caused it, not by a later step.
    assert heaps[0].time == sweeps[0].time
    assert heaps[0].seq == sweeps[0].seq + 1
    # The client ran nothing after its reply: the step path never saw
    # the reclaimed heap.
    assert client.vm.is_idle()
