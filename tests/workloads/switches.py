"""Reaching the switches `run_workload` has no parameter for.

`typecheck`, `distgc`, `engine` and `world.obs.tracing` are set where
the network is built, and `run_workload` builds its own: the tests that
want a macro run with one of them on substitute `runner.DiTyCONetwork`
with a subclass that forces it, and read the network back afterwards.
"""

from repro.obs import TraceCollector
from repro.runtime.network import DiTyCONetwork
from repro.workloads import runner


def force(monkeypatch, tracing=False, **flags):
    """Make `run_workload` build its network with `flags` (keywords of
    `DiTyCONetwork`) and, with `tracing`, full tracing into a collector
    at `net.collector`.  Returns the list the network lands in."""
    made = []

    class Forced(DiTyCONetwork):
        def __init__(self, **kwargs):
            super().__init__(**kwargs, **flags)
            if tracing:
                self.world.obs.tracing = True
                self.collector = TraceCollector()
                self.world.obs.subscribe(self.collector)
            made.append(self)

    monkeypatch.setattr(runner, "DiTyCONetwork", Forced)
    return made
