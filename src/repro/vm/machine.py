"""The TyCO virtual machine (section 5).

One :class:`TycoVM` is the execution engine of one *site*: it owns a
program area (byte-code blocks), a heap (channels), a run-queue of
threads, and executes the instruction set of
:mod:`repro.compiler.assembly`.  Everything distribution-related is
delegated through a :class:`RemotePort`: shipping messages/objects to
network references, the FETCH protocol for remote classes, and the
export/import name-service instructions.  A VM with no port is the
plain (non-distributed) TyCO machine of [15].

The machine is *steppable*: :meth:`step` executes a bounded number of
instructions, so the surrounding node/transport can interleave many
sites and account simulated time per instruction (experiments E1-E3).

Which loop a step runs is decided by ``engine`` and an attached
per-instruction :class:`~repro.vm.trace.Tracer`, nothing else: this
package does not know the observability bus exists.  A site reads its
VM's state off it after ``step`` returns (docs/PERF.md).  An attached
sampling profiler (``VMProfiler``, docs/OBSERVABILITY.md) does not
pick a loop either: ``step`` cuts the chosen loop's budget at each
sample point.

Every reduction -- COMM from either side, INST, FORK -- spawns a
thread through one set of helpers (``_trmsg`` / ``_trobj`` /
``_instof`` -> ``_fire`` -> ``spawn``), which every loop calls.
Generated code (:mod:`repro.vm.compile`) inlines their common case and
hands anything unusual back to them, so check and counter order are
defined here once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Protocol

from repro.compiler.assembly import Op, Program

from .heap import Heap
from .scheduler import RunQueue, Thread
from .values import (Channel, ClassRef, NetRef, RemoteClassRef, VMValue,
                     group_classrefs)

# ``Op.X`` is a read through the enum's metaclass (~0.1 us); the
# interpreter compares one opcode per ``elif`` arm per instruction.
_PUSHL, _PUSHC, _STOREL, _POP = Op.PUSHL, Op.PUSHC, Op.STOREL, Op.POP
_TRMSG, _TROBJ, _INSTOF, _FORK = Op.TRMSG, Op.TROBJ, Op.INSTOF, Op.FORK
_NEWCH, _DEFGROUP, _PRINT, _HALT = Op.NEWCH, Op.DEFGROUP, Op.PRINT, Op.HALT
_JMP, _JMPF, _BNOT, _NEG = Op.JMP, Op.JMPF, Op.BNOT, Op.NEG
_EXPORT, _IMPORT = Op.EXPORT, Op.IMPORT
_EXPORTCLASS, _IMPORTCLASS = Op.EXPORTCLASS, Op.IMPORTCLASS
_ADD, _SUB, _MUL, _DIV, _MOD = Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD
_LT, _LE, _GT, _GE = Op.LT, Op.LE, Op.GT, Op.GE
_EQ, _NE, _BAND, _BOR = Op.EQ, Op.NE, Op.BAND, Op.BOR

#: Slice entries into a block before the production engine translates
#: it into generated Python (docs/PERF.md, "Tier-3").  A block's first
#: entry runs on the interpreter (:meth:`TycoVM._interpret`), or on the
#: closures a launch template decoded for it; ``predecode`` runs only
#: there and here, for the escapes of generated code.  Mobile code --
#: applets, FETCHed classes, one client program per operation -- mostly
#: runs once and pays for neither.
TIER_UP_ENTRIES = 2

#: The tiers' builders, bound on first use (:func:`_bind_tiers`):
#: ``repro.vm.dispatch`` and ``repro.vm.compile`` import this module.
#: Plain globals, so rebinding either name here reaches the engine.
predecode = compile_block = None


def _bind_tiers() -> None:
    global predecode, compile_block
    from .compile import compile_block
    from .dispatch import predecode


class VMRuntimeError(Exception):
    """A dynamic error: bad target type, arity clash, arithmetic fault.

    These are exactly the errors the dynamic half of the section-7
    type-checking scheme must catch at run time.
    """


class NoPortError(VMRuntimeError):
    """A distribution instruction executed on a VM without a port."""


class ImportPending(Exception):
    """The name service has no entry (yet) for an imported identifier.

    The IMPORT/IMPORTCLASS instructions are side-effect free until
    they succeed, so the machine rewinds the thread one instruction
    and parks it in ``vm.stalled`` (:meth:`TycoVM._stall`); the site
    re-queues it (``Site.on_nameservice_update``) when the name
    service announces new registrations.
    """


class RemotePort(Protocol):
    """What a site must provide for its VM to reach the network."""

    def resolve_external(self, hint: str) -> Optional[Channel]:
        """Channel for a free program name, or None for a fresh one."""

    def ship_message(self, target: NetRef, label: str, args: tuple) -> None:
        """SHIPM: marshal and enqueue a remote method invocation."""

    def ship_object(self, target: NetRef, methods: dict[str, int],
                    env: tuple) -> None:
        """SHIPO: marshal and enqueue an object migration."""

    def fetch_instance(self, cref: RemoteClassRef, args: tuple) -> None:
        """FETCH: request remote class code; instantiate upon reply."""

    def export_name(self, hint: str, channel: Channel) -> None:
        """Register a local channel with the network name service."""

    def import_name(self, hint: str, site: str) -> Channel | NetRef:
        """Resolve an imported name (may be local after optimisation)."""

    def export_class(self, hint: str, classref: ClassRef) -> None:
        """Register a class with the network name service."""

    def import_class(self, hint: str, site: str) -> ClassRef | RemoteClassRef:
        """Resolve an imported class."""


@dataclass(slots=True)
class VMStats:
    """Counters exposed to the benchmarks."""

    instructions: int = 0
    comm_reductions: int = 0      # message/object rendezvous
    inst_reductions: int = 0      # local instantiations
    forks: int = 0
    threads_spawned: int = 0
    messages_queued: int = 0
    objects_queued: int = 0
    remote_messages: int = 0
    remote_objects: int = 0
    remote_instances: int = 0
    prints: int = 0

    @property
    def reductions(self) -> int:
        return self.comm_reductions + self.inst_reductions


class TycoVM:
    """One extended TyCO virtual machine.

    :meth:`step` runs one of two shells around the one opcode loop,
    :meth:`_interpret` -- :meth:`_step_compiled`, the production
    engine, or :meth:`_step_reference` for ``engine="slow"`` or an
    attached tracer -- and with a profiler attached it runs the same
    shell, cut at the sample points (:meth:`_step_profiled`).
    """

    def __init__(self, program: Program, port: RemotePort | None = None,
                 name: str = "vm", engine: str | None = None) -> None:
        self.program = program
        self.port = port
        self.name = name
        # Execution engine (docs/PERF.md): "compiled" is the production
        # engine -- the interpreter on a block's first entry (closures
        # where a launch template decoded it), per-block generated
        # Python from its TIER_UP_ENTRIES-th; "slow" runs every
        # instruction on the interpreter, the reference the
        # differential suite compares against.  Defaults from the
        # environment so whole networks (and chaos scenarios) can be
        # flipped without plumbing.
        if engine is None:
            engine = os.environ.get("REPRO_VM_ENGINE", "compiled")
        if engine not in ("compiled", "slow"):
            raise ValueError(f"unknown VM engine {engine!r}")
        self.engine = engine
        self.heap = Heap()
        self.runqueue = RunQueue()
        self.stats = VMStats()
        self.current: Thread | None = None
        self.stalled: list[Thread] = []  # threads waiting on an import
        self.output: list = []       # the site I/O port (console lines)
        self.externals: dict[str, Channel] = {}
        self.tracer = None           # optional repro.vm.trace.Tracer
        # Sampling profiler (docs/OBSERVABILITY.md): installed via
        # VMProfiler.install.  None costs one attribute check per
        # step() call; the dispatch loops themselves are untouched.
        self.profiler = None
        self._profile_left = 0
        self._booted = False

    # -- set-up --------------------------------------------------------------

    def make_console(self, hint: str = "print") -> Channel:
        """Create a builtin console channel appending to :attr:`output`."""
        return self.heap.new_channel(hint=hint, builtin=self.console)

    def console(self, label: str, args: tuple) -> None:
        """The builtin handler of every console channel."""
        self.stats.prints += 1
        self.output.extend(args)

    def bind_external(self, hint: str, channel: Channel) -> None:
        """Pre-bind a free program name to an existing channel."""
        self.externals[hint] = channel

    def boot(self) -> None:
        """Resolve externals and enqueue the main thread."""
        if self._booted:
            raise VMRuntimeError("VM already booted")
        self._booted = True
        env: list[VMValue] = []
        for hint in self.program.externals:
            ch = self.externals.get(hint)
            if ch is None and self.port is not None:
                ch = self.port.resolve_external(hint)
            if ch is None:
                # Console convention: 'print' (and 'console') are I/O.
                if hint in ("print", "console"):
                    ch = self.make_console(hint)
                else:
                    ch = self.heap.new_channel(hint=hint)
            self.externals[hint] = ch
            env.append(ch)
        self.spawn(self.program.main, env, ())

    # -- thread management ---------------------------------------------------

    def spawn(self, block_id: int, env, args) -> Thread:
        """Create a thread for ``block_id`` with the given bindings."""
        block = self.program.blocks[block_id]
        if len(args) != block.nparams:
            raise VMRuntimeError(
                f"{self.name}: block {block.name!r} expects "
                f"{block.nparams} argument(s), got {len(args)}")
        if len(env) != block.nfree:
            raise VMRuntimeError(
                f"{self.name}: block {block.name!r} expects "
                f"{block.nfree} captured value(s), got {len(env)}")
        frame = [*env, *args]
        pad = block.frame_size - len(frame)
        if pad:
            frame.extend([None] * pad)
        thread = Thread(block_id=block_id, frame=frame)
        self.runqueue.push(thread)
        self.stats.threads_spawned += 1
        return thread

    def is_idle(self) -> bool:
        """No runnable thread (waiting channels/stalled imports may exist)."""
        return self.current is None and not self.runqueue

    def has_stalled(self) -> bool:
        """Threads parked on unresolved imports exist."""
        return bool(self.stalled)

    # -- execution -------------------------------------------------------------

    def run(self, max_instructions: int | None = None) -> int:
        """Execute until idle (or the instruction bound); return count."""
        total = 0
        while not self.is_idle():
            budget = 4096 if max_instructions is None else max_instructions - total
            if budget <= 0:
                break
            total += self.step(budget)
        return total

    def _reference(self) -> bool:
        """Whether this step must run the reference shell: the
        reference engine was asked for or a per-instruction tracer is
        attached -- and nothing else picks the engine."""
        return self.engine == "slow" or self.tracer is not None

    def step(self, budget: int = 1) -> int:
        """Execute up to ``budget`` instructions; returns the number run.

        The shell is chosen per call: the reference, every slice on
        the interpreter, for ``engine="slow"`` or an attached tracer,
        else the production engine.  Both charge instructions
        identically, so schedules never depend on the choice -- only
        wall-clock time does.  An
        attached profiler does not choose: it cuts the chosen loop's
        budget at its sample points (:meth:`_step_profiled`).
        """
        if self.profiler is not None:
            executed = self._step_profiled(budget)
        elif self._reference():
            executed = self._step_reference(budget)
        else:
            executed = self._step_compiled(budget)
        self.stats.instructions += executed
        return executed

    def _step_profiled(self, budget: int) -> int:
        """:meth:`step` with a sampling profiler attached
        (``VMProfiler``, docs/OBSERVABILITY.md): the usual loop runs up
        to the instruction before the next sample point, then the
        sample instruction alone, with a budget of 1, and the thread
        that ran it is sampled.  A budget end is a budget end for
        either loop -- they land it on the exact instruction -- so
        instruction accounting, slice ends and schedules are
        bit-identical to an unprofiled run.
        """
        run = (self._step_reference if self._reference()
               else self._step_compiled)
        queue = self.runqueue._queue
        executed = 0
        while executed < budget:
            left = self._profile_left
            if left > 1:
                want = min(left - 1, budget - executed)
                ran = run(want)
                executed += ran
                self._profile_left = left - ran
                if ran < want:          # idle
                    break
                continue
            thread = self.current
            if thread is None:
                if not queue:
                    break
                thread = queue[0]
            if not run(1):
                break
            executed += 1
            self.profiler.sample(self, thread)
            self._profile_left = self.profiler.stride
        return executed

    def _step_compiled(self, budget: int) -> int:
        """The production body of :meth:`step`: the outer
        thread loop and the slice prologue in one frame.

        TyCO threads are tiny ("a few tens of byte-code instructions"),
        so per-thread fixed costs -- queue pop, block lookup,
        slice-function call -- dominate spawn-chain workloads like E1;
        one frame removes one Python call per context switch.
        The prologue is also where a block picks its tier, from the
        state it carries (``CodeBlock.heads`` / ``entries`` /
        ``compiled``): it counts its own entries, runs them on the
        interpreter -- or on the closures a launch template decoded --
        and at the ``TIER_UP_ENTRIES``-th is predecoded and translated
        into generated Python.  Code that runs once builds nothing.
        Accounting is identical to the reference loop by construction:
        pops go through the run-queue counter, the interpreter and a
        closure charge one instruction each and generated code its
        segments' original widths, and a compiled function that yields
        early -- with ``thread.pc`` stored, when the remaining budget is
        smaller than its next straight-line segment or the thread
        resumes at an interior pc -- hands the remainder to the
        closures, landing the slice end on exactly the instruction the
        reference loop would.
        The state is the block object's, so it is shared wherever the
        object is (every VM and every program area holding it), and a
        block built anew -- a ``link_bundle`` append, a re-tupled
        literal block, a decoded or restored area -- starts at zero;
        ``program.blocks`` is indexed afresh every iteration.  Pops are
        counted in a local and flushed in a ``finally``, like generated
        code's.
        """
        executed = 0
        switches = 0
        runqueue = self.runqueue
        queue = runqueue._queue
        program = self.program
        try:
            while executed < budget:
                thread = self.current
                if thread is None:
                    if not queue:
                        break
                    switches += 1
                    thread = self.current = queue.popleft()
                bid = thread.block_id
                block = program.blocks[bid]
                fn = block.compiled
                if fn is None:
                    block.entries += 1
                    if block.entries < TIER_UP_ENTRIES:
                        if block.heads is None:
                            executed += self._interpret(thread,
                                                        budget - executed)
                        else:
                            executed += self._run_closures(
                                block.heads, thread, budget - executed)
                        continue
                    if compile_block is None:
                        _bind_tiers()
                    if block.heads is None:
                        block.heads = predecode(program, block)
                    fn = block.compiled = compile_block(program, bid, block)
                executed += fn(self, thread, thread.frame, thread.stack,
                               budget - executed)
                if self.current is thread and executed < budget:
                    executed += self._run_closures(block.heads, thread,
                                                   budget - executed)
        finally:
            runqueue.context_switches += switches
        return executed

    def _run_closures(self, heads: list, thread: Thread, budget: int) -> int:
        """Run ``thread`` on ``heads``, its block's predecoded handlers
        (repro.vm.dispatch): one handler, one instruction, so slice
        boundaries and instruction counts are exactly those of the
        interpreter.
        """
        size = len(heads)
        frame = thread.frame
        stack = thread.stack
        executed = 0
        while executed < budget:
            pc = thread.pc
            if pc >= size:
                self.current = None
                return executed
            thread.pc = pc + 1
            executed += 1
            if heads[pc](self, thread, frame, stack):
                return executed
        return executed

    def _step_reference(self, budget: int) -> int:
        """The reference body of :meth:`step`: every slice on the
        interpreter, with the tracer's hook per instruction."""
        runqueue = self.runqueue
        executed = 0
        while executed < budget:
            thread = self.current
            if thread is None:
                if not runqueue:
                    break
                thread = self.current = runqueue.pop()
            executed += self._interpret(thread, budget - executed)
        return executed

    def _interpret(self, thread: Thread, budget: int) -> int:
        """Run ``thread``, the current thread, for up to ``budget``
        instructions: one ``if``/``elif`` over the opcode per
        instruction, and an attached tracer's hook before each.
        Returns at the budget, or with ``self.current`` cleared where
        the thread ends (HALT, past its last instruction) or stalls on
        an import."""
        program = self.program
        block_id = thread.block_id
        instrs = program.blocks[block_id].instrs
        size = len(instrs)
        frame = thread.frame
        stack = thread.stack
        tracer = self.tracer
        executed = 0
        while executed < budget:
            pc = thread.pc
            if pc >= size:
                self.current = None
                return executed
            ins = instrs[pc]
            if tracer is not None:
                tracer.record(block_id, pc, ins)
            thread.pc = pc + 1
            executed += 1
            op = ins.op

            if op is _PUSHL:
                stack.append(frame[ins.args[0]])
            elif op is _PUSHC:
                stack.append(ins.args[0])
            elif op is _STOREL:
                frame[ins.args[0]] = stack.pop()
            elif op is _POP:
                stack.pop()
            elif op is _TRMSG:
                label, nargs = ins.args
                args = tuple(stack[len(stack) - nargs:])
                del stack[len(stack) - nargs:]
                target = stack.pop()
                self._trmsg(target, label, args)
            elif op is _TROBJ:
                obj_id, nfree = ins.args
                env = tuple(stack[len(stack) - nfree:])
                del stack[len(stack) - nfree:]
                target = stack.pop()
                methods = program.objects[obj_id].methods
                self._trobj(target, methods, env)
            elif op is _INSTOF:
                (nargs,) = ins.args
                args = tuple(stack[len(stack) - nargs:])
                del stack[len(stack) - nargs:]
                cref = stack.pop()
                self._instof(cref, args)
            elif op is _FORK:
                fork_id, nfree = ins.args
                env = tuple(stack[len(stack) - nfree:])
                del stack[len(stack) - nfree:]
                self.spawn(fork_id, env, ())
                self.stats.forks += 1
            elif op is _NEWCH:
                frame[ins.args[0]] = self.heap.new_channel()
            elif op is _DEFGROUP:
                group_id, nfree, first_slot = ins.args
                env = stack[len(stack) - nfree:]
                del stack[len(stack) - nfree:]
                refs = group_classrefs(
                    group_id, program.groups[group_id].clauses, env)
                frame[first_slot:first_slot + len(refs)] = refs
            elif op is _JMP:
                thread.pc = ins.args[0]
            elif op is _JMPF:
                cond = stack.pop()
                if cond is not True and cond is not False:
                    raise VMRuntimeError(
                        f"{self.name}: conditional on non-boolean {cond!r}")
                if not cond:
                    thread.pc = ins.args[0]
            elif op is _HALT:
                self.current = None
                return executed
            elif op is _PRINT:
                (nargs,) = ins.args
                args = tuple(stack[len(stack) - nargs:])
                del stack[len(stack) - nargs:]
                self.stats.prints += 1
                self.output.extend(args)
            elif op is _BNOT:
                v = stack.pop()
                if v is not True and v is not False:
                    raise VMRuntimeError(f"{self.name}: 'not' on {v!r}")
                stack.append(not v)
            elif op is _NEG:
                v = stack.pop()
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise VMRuntimeError(f"{self.name}: '-' on {v!r}")
                stack.append(-v)
            elif op is _EXPORT:
                slot, hint = ins.args
                self._require_port().export_name(hint, frame[slot])
            elif op is _IMPORT:
                hint, site, slot = ins.args
                try:
                    frame[slot] = self._require_port().import_name(hint, site)
                except ImportPending:
                    self._stall(thread)
                    return executed
            elif op is _EXPORTCLASS:
                group_id, slot, hint = ins.args
                self._require_port().export_class(hint, frame[slot])
            elif op is _IMPORTCLASS:
                hint, site, slot = ins.args
                try:
                    frame[slot] = self._require_port().import_class(hint, site)
                except ImportPending:
                    self._stall(thread)
                    return executed
            else:
                # The binary operators: every other opcode has an arm
                # above.  (A set test here would hash the Enum, a
                # Python call, on every instruction.)
                b = stack.pop()
                a = stack.pop()
                stack.append(_arith(self, op, a, b))
        return executed

    # -- communication / instantiation ---------------------------------------

    def _stall(self, thread: Thread) -> None:
        """Rewind the current instruction and park the thread in
        ``stalled`` until the name service has the entry it is waiting
        for (:meth:`resume_stalled`)."""
        thread.pc -= 1
        self.current = None
        self.stalled.append(thread)

    def resume_stalled(self) -> int:
        """Re-queue every stalled thread (after a name-service update);
        returns how many were resumed."""
        count = len(self.stalled)
        for thread in self.stalled:
            self.runqueue.push(thread)
        self.stalled.clear()
        return count

    def _require_port(self) -> RemotePort:
        if self.port is None:
            raise NoPortError(
                f"{self.name}: distribution instruction without a port")
        return self.port

    def _trmsg(self, target, label: str, args: tuple) -> None:
        if isinstance(target, NetRef):
            self.stats.remote_messages += 1
            self._require_port().ship_message(target, label, args)
            return
        if not isinstance(target, Channel):
            raise VMRuntimeError(
                f"{self.name}: message sent to non-channel {target!r}")
        if target.builtin is not None:
            target.builtin(label, args)
            return
        # Scan the object queue for the first suite offering the label.
        entry = target.match_object(label)
        if entry is not None:
            self._fire(entry[0][label], entry[1], args, label)
            return
        target.messages.append((label, args))
        self.stats.messages_queued += 1

    def _trobj(self, target, methods: dict[str, int], env: tuple) -> None:
        if isinstance(target, NetRef):
            self.stats.remote_objects += 1
            self._require_port().ship_object(target, methods, env)
            return
        if not isinstance(target, Channel):
            raise VMRuntimeError(
                f"{self.name}: object located at non-channel {target!r}")
        if target.builtin is not None:
            raise VMRuntimeError(
                f"{self.name}: object at builtin channel {target.hint!r}")
        entry = target.match_message(methods)
        if entry is not None:
            label, args = entry
            self._fire(methods[label], env, args, label)
            return
        target.objects.append((methods, env))
        self.stats.objects_queued += 1

    def _fire(self, block_id: int, env: tuple, args: tuple, label: str) -> None:
        """A message met an object: spawn the selected method body."""
        block = self.program.blocks[block_id]
        if block.nparams != len(args):
            raise VMRuntimeError(
                f"{self.name}: method {label!r} expects {block.nparams} "
                f"argument(s), got {len(args)}")
        self.stats.comm_reductions += 1
        self.spawn(block_id, env, args)

    def _instof(self, cref, args: tuple) -> None:
        if isinstance(cref, RemoteClassRef):
            self.stats.remote_instances += 1
            self._require_port().fetch_instance(cref, args)
            return
        if not isinstance(cref, ClassRef):
            raise VMRuntimeError(
                f"{self.name}: instantiation of non-class {cref!r}")
        self.stats.inst_reductions += 1
        self.spawn(cref.block_id, cref.env, args)

    def _gc_roots(self, extra_roots: list | None = None) -> list:
        """Every value a thread or external binding can still reach."""
        roots: list = list(extra_roots or ())
        for thread in self.runqueue.threads():
            roots.append(thread.frame)
            roots.append(thread.stack)
        if self.current is not None:
            roots.append(self.current.frame)
            roots.append(self.current.stack)
        for thread in self.stalled:
            roots.append(thread.frame)
            roots.append(thread.stack)
        roots.extend(self.externals.values())
        return roots

    def collect_garbage(self, pinned: set[int] | None = None,
                        extra_roots: list | None = None) -> int:
        """Reclaim channels unreachable from any runnable or parked
        thread, the externals, ``extra_roots``, or ``pinned``
        (exported) heap ids."""
        return self.heap.collect(self._gc_roots(extra_roots), pinned=pinned)

    def scan_refs(self, extra_roots: list | None = None) -> set:
        """Non-destructive sweep: the remote references (NetRef /
        RemoteClassRef) reachable from the VM's live graph.  Used by
        the distributed GC's renew scan and the testkit invariants."""
        remote_refs: set = set()
        self.heap.trace(self._gc_roots(extra_roots), remote_refs=remote_refs)
        return remote_refs

    # -- network delivery entry points (called by the site / daemons) ---------

    def deliver_message(self, heap_id: int, label: str, args: tuple) -> None:
        """An incoming SHIPM packet reaches its destination channel."""
        self._trmsg(self.heap.get(heap_id), label, args)

    def deliver_object(self, heap_id: int, methods: dict[str, int],
                       env: tuple) -> None:
        """An incoming SHIPO packet reaches its destination channel."""
        self._trobj(self.heap.get(heap_id), methods, env)

    def spawn_instance(self, classref: ClassRef, args: tuple) -> None:
        """Run a deferred instantiation (after a FETCH reply linked)."""
        self._instof(classref, args)


def _arith(vm: TycoVM, op: Op, a, b):
    """Builtin binary operators with the dynamic checks of section 7."""
    if op is _EQ:
        return _vm_equal(a, b)
    if op is _NE:
        return not _vm_equal(a, b)
    if op is _BAND or op is _BOR:
        if a is not True and a is not False or b is not True and b is not False:
            raise VMRuntimeError(f"{vm.name}: boolean op on {a!r}, {b!r}")
        return (a and b) if op is _BAND else (a or b)
    if isinstance(a, bool) or isinstance(b, bool):
        raise VMRuntimeError(f"{vm.name}: arithmetic on booleans")
    num_a = isinstance(a, (int, float))
    num_b = isinstance(b, (int, float))
    str_a = isinstance(a, str)
    str_b = isinstance(b, str)
    if op is _ADD and str_a and str_b:
        return a + b
    if op in (_LT, _LE, _GT, _GE) and str_a and str_b:
        return _compare(op, a, b)
    if not (num_a and num_b):
        raise VMRuntimeError(
            f"{vm.name}: operator {op.name} on {a!r} and {b!r}")
    if op is _ADD:
        return a + b
    if op is _SUB:
        return a - b
    if op is _MUL:
        return a * b
    if op is _DIV:
        if b == 0:
            raise VMRuntimeError(f"{vm.name}: division by zero")
        if isinstance(a, int) and isinstance(b, int):
            return a // b
        return a / b
    if op is _MOD:
        if b == 0:
            raise VMRuntimeError(f"{vm.name}: modulo by zero")
        return a % b
    return _compare(op, a, b)


def _compare(op: Op, a, b) -> bool:
    if op is _LT:
        return a < b
    if op is _LE:
        return a <= b
    if op is _GT:
        return a > b
    return a >= b


def _vm_equal(a, b) -> bool:
    """Value equality: literals by content (bools distinct from ints),
    channels and classrefs by identity, net references structurally."""
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (Channel, ClassRef)) or isinstance(b, (Channel, ClassRef)):
        return a is b
    if isinstance(a, (NetRef, RemoteClassRef)) and isinstance(b, type(a)):
        return a == b
    if isinstance(a, (int, float, str, bool)) and isinstance(b, (int, float, str, bool)):
        return a == b
    return a is b
