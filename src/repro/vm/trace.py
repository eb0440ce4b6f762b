"""Per-instruction execution tracing for the TyCO VM.

A :class:`Tracer` attached to a :class:`~repro.vm.machine.TycoVM`
records one event per executed instruction (bounded ring buffer) --
the tool one reaches for when a program deadlocks.  It forces the
``slow`` reference loop (docs/PERF.md); the CLI exposes it as
``python -m repro run --trace N``.

Everything above the instruction level -- per-step VM state, packets,
cache probes, injected faults -- travels the world's event bus.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.compiler.assembly import Instr

if TYPE_CHECKING:  # pragma: no cover
    from .machine import TycoVM


@dataclass(slots=True)
class TraceEvent:
    """One traced instruction execution."""

    seq: int
    block: int
    block_name: str
    pc: int
    instr: str

    def __str__(self) -> str:
        return (f"{self.seq:6d}  b{self.block}({self.block_name})"
                f"@{self.pc:<4d} {self.instr}")


#: Instructions a :class:`Tracer` keeps (read when one is built).
CAPACITY = 4096


class Tracer:
    """Bounded instruction trace.

    Attach with :meth:`install`; the VM then calls :meth:`record`
    before executing each instruction.  :data:`CAPACITY` bounds
    memory; the most recent events win.
    """

    def __init__(self) -> None:
        self.events: deque[TraceEvent] = deque(maxlen=CAPACITY)
        self._seq = 0
        self.vm: Optional["TycoVM"] = None

    def install(self, vm: "TycoVM") -> None:
        if vm.tracer is not None:
            raise RuntimeError("VM already has a tracer")
        vm.tracer = self
        self.vm = vm

    def record(self, block_id: int, pc: int, instr: Instr) -> None:
        self._seq += 1
        name = self.vm.program.blocks[block_id].name if self.vm else "?"
        self.events.append(TraceEvent(
            seq=self._seq, block=block_id, block_name=name,
            pc=pc, instr=str(instr)))

    def tail(self, n: int = 20) -> list[TraceEvent]:
        return list(self.events)[-n:]

    def format_tail(self, n: int = 20) -> str:
        return "\n".join(str(e) for e in self.tail(n))

    def __len__(self) -> int:
        return self._seq
