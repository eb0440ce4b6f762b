"""Sampling profiler for the VM hot path (docs/OBSERVABILITY.md).

Attribution answers the operational question the cluster plane exists
for: *where does mobile computation actually spend its instructions?*
Every sample is attributed to ``(site, program block, handler kind)``
-- the site label says which (possibly migrated) site was running, the
block which compiled definition, the handler kind which opcode was
about to execute.

A sample fires every ``stride`` executed instructions.
:meth:`TycoVM.step` runs its usual loop up to the instruction before
each sample point and then the sample instruction alone, so samples
land at exact instruction boundaries -- the profile is a pure function
of ``(program, seed, stride)`` and repeated runs are byte-identical
(:meth:`collapsed` output is sorted).  The loop is the one the VM runs
anyway (the production engine, or the reference loop for
``engine="slow"`` or a tracer), and a budget end is a budget end for
either, so schedules with the profiler attached are bit-identical to
unprofiled runs.

Output: collapsed-stack flamegraph text (``site;block;kind count``
lines, the format ``flamegraph.pl`` and speedscope consume) and
``repro_profile_samples_total{site,block,kind}`` counters.
"""

from __future__ import annotations

DEFAULT_STRIDE = 4096


class VMProfiler:
    """One profiler, shared by every VM it is installed on.

    Install with :meth:`install` (one VM) or :meth:`install_network`
    (every current and future site of a :class:`DiTyCONetwork`).  The
    VM pays one attribute check per :meth:`~repro.vm.machine.TycoVM.step`
    call when no profiler is installed -- the fast dispatch loop is
    untouched.
    """

    def __init__(self, stride: int = DEFAULT_STRIDE) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = stride
        #: (site, block, kind) -> sample count.
        self.counts: dict[tuple[str, str, str], int] = {}
        self.samples = 0

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

    # -- the VM-side hook (called from TycoVM._step_profiled) --------------

    def sample(self, vm, thread) -> None:
        """Charge one sample to ``thread``, which just ran the sample
        instruction: the frame is its block and the opcode at its pc
        now (END past the last instruction)."""
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
