"""Pieces the workload modules share."""

from __future__ import annotations

from dataclasses import dataclass


class TapList(list):
    """The collector's output list; reports each token as it lands."""

    def __init__(self, base, on_token):
        super().__init__(base)
        self._on_token = on_token

    def append(self, item):
        super().append(item)
        self._on_token(item)

    def extend(self, items):
        for item in items:
            self.append(item)


@dataclass
class SiteTotals:
    """Counters summed over every site that ever lived, reaped ones
    included (a reaped site takes its `VMStats` with it)."""

    instructions: int = 0
    context_switches: int = 0
    code_cache_hits: int = 0
    code_cache_misses: int = 0

    def add(self, site) -> None:
        self.instructions += site.vm.stats.instructions
        self.context_switches += site.vm.runqueue.context_switches
        self.code_cache_hits += site.stats.code_cache_hits
        self.code_cache_misses += site.stats.code_cache_misses

    def add_live(self, net) -> None:
        for node in net.world.nodes.values():
            for site in node.sites.values():
                self.add(site)
