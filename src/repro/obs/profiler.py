"""Sampling profiler for the VM hot path (docs/OBSERVABILITY.md).

Attribution answers the operational question the cluster plane exists
for: *where does mobile computation actually spend its instructions?*
Every sample is attributed to ``(site, program block, handler kind)``
-- the site label says which (possibly migrated) site was running, the
block which compiled definition, the handler kind which opcode was
about to execute.

Two sampling modes:

* ``instructions`` (simulator): a sample fires every ``stride``
  executed instructions.  :meth:`TycoVM.step` runs its slices in
  chunks capped at the stride remainder, so samples land at exact
  instruction boundaries -- the profile is a pure function of
  ``(program, seed, stride)`` and repeated runs are byte-identical
  (:meth:`collapsed` output is sorted).  Chunking preserves slice
  boundaries and instruction accounting (a chunk end is a budget end,
  and every tier already lands those on the exact instruction), so
  schedules with the profiler attached are bit-identical to
  unprofiled runs.
* ``wall`` (socket / daemon worlds): slices run in fixed
  ``wall_chunk`` instruction chunks and a sample is recorded when at
  least ``interval_s`` of wall clock elapsed since the last one --
  classic low-overhead wall-clock sampling, not deterministic.

Output: collapsed-stack flamegraph text (``site;block;kind count``
lines, the format ``flamegraph.pl`` and speedscope consume) and
``repro_profile_samples_total{site,block,kind}`` counters.
"""

from __future__ import annotations

from typing import Optional

MODES = ("instructions", "wall")

DEFAULT_STRIDE = 4096
DEFAULT_WALL_CHUNK = 1024
DEFAULT_INTERVAL_S = 1e-3


class VMProfiler:
    """One profiler, shared by every VM it is installed on.

    Install with :meth:`install` (one VM) or :meth:`install_network`
    (every current and future site of a :class:`DiTyCONetwork`).  The
    VM pays one attribute check per :meth:`~repro.vm.machine.TycoVM.step`
    call when no profiler is installed -- the fast dispatch loop is
    untouched.
    """

    def __init__(self, stride: int = DEFAULT_STRIDE,
                 mode: str = "instructions",
                 interval_s: float = DEFAULT_INTERVAL_S,
                 wall_chunk: int = DEFAULT_WALL_CHUNK,
                 clock=None) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown profiler mode {mode!r} "
                             f"(choose from {', '.join(MODES)})")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if wall_chunk < 1:
            raise ValueError(f"wall_chunk must be >= 1, got {wall_chunk}")
        self.stride = stride
        self.mode = mode
        self.interval_s = interval_s
        self.wall_chunk = wall_chunk
        if clock is None:
            from repro.transport.clock import monotime as clock
        self.clock = clock
        #: (site, block, kind) -> sample count.
        self.counts: dict[tuple[str, str, str], int] = {}
        self.samples = 0
        self._last_wall: Optional[float] = None

    # -- installation --------------------------------------------------------

    def install(self, vm) -> None:
        """Attach to one VM (sets ``vm.profiler`` + stride state)."""
        vm.profiler = self
        vm._profile_left = self.stride

    def install_network(self, net) -> None:
        """Attach to every site of ``net``, existing and future."""
        net.profiler = self
        for node in net.world.nodes.values():
            node.profiler = self
            for site in node.sites.values():
                self.install(site.vm)

    # -- the VM-side hooks (called from TycoVM._run_slice_profiled) ----------

    def next_chunk(self, vm) -> int:
        """Instructions the VM may run before the next sample point."""
        if self.mode == "instructions":
            return vm._profile_left
        return self.wall_chunk

    def account(self, vm, thread, ran: int) -> None:
        """Charge ``ran`` executed instructions; record a sample when
        a stride boundary (or wall interval) was reached."""
        if self.mode == "instructions":
            left = vm._profile_left - ran
            if left <= 0:
                self._record(vm, thread)
                left = self.stride
            vm._profile_left = left
        else:
            now = self.clock()
            if self._last_wall is None \
                    or now - self._last_wall >= self.interval_s:
                self._last_wall = now
                self._record(vm, thread)

    def _record(self, vm, thread) -> None:
        from repro.vm.dispatch import handler_kind

        block = vm.program.blocks[thread.block_id]
        key = (vm.name, block.name, handler_kind(block, thread.pc))
        self.counts[key] = self.counts.get(key, 0) + 1
        self.samples += 1

    # -- output --------------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph text, sorted (deterministic)."""
        return "".join(f"{site};{block};{kind} {count}\n"
                       for (site, block, kind), count
                       in sorted(self.counts.items()))

    def to_registry(self, registry) -> None:
        """Emit ``repro_profile_samples_total`` counters."""
        handle = registry.counter(
            "repro_profile_samples_total",
            "Profiler samples by site, block and handler kind.",
            ("site", "block", "kind"))
        for (site, block, kind), count in sorted(self.counts.items()):
            handle.labels(site, block, kind).inc(count)
