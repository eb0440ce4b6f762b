"""Tier-3 of the production engine: decoded blocks as generated Python
(docs/PERF.md).

The interpreter pays an opcode chain per executed instruction and the
predecoded closures (:mod:`repro.vm.dispatch`) one Python call per
handler plus the dispatch loop's list indexing.  This module removes
that last layer for blocks that are entered again
(``machine.TIER_UP_ENTRIES``, where the block is also predecoded for
the escapes below): such a block is translated
*once* into straight-line Python source -- operand stack traffic
lowered onto local variables, PUSHL/PUSHC/arith/JMPF shapes inlined,
and every reduction spawned in place: TRMSG and INSTOF of any arity,
TROBJ and FORK inline the common case of ``TycoVM._trmsg`` /
``_trobj`` / ``_instof`` -> ``_fire`` -> ``spawn``, the helpers every
loop calls, with the same checks in the same order -- then
``exec``-compiled and kept on the block itself
(``CodeBlock.compiled``), like its closures, so every program area
holding the block object shares one translation and a block built
anew starts without one.  Behind it, compiled code is memoised per
block *shape* (``_MEMO``): frame slots, literals, FORK targets, TROBJ
method tables and the block's own id are defaults of the function, not
part of its source.

Codegen shape
-------------

A block is split into *segments*: straight-line instruction runs
starting at a leader pc (block entry, any jump target, and the pcs
around non-inlinable opcodes).  The generated function is one
``while`` loop dispatching over the leaders::

    def _compiled_block(vm, t, f, st, budget, ...bindings...):
        executed = 0
        pc = t.pc
        while 1:
            if pc == 0:                     # segment [0..3], width 4
                if executed + 4 > budget:   # slice-budget yield point
                    t.pc = 0
                    return executed
                _t1 = _b_GT(vm, f[_l0], _k1)  # PUSHL 2; PUSHC 0; GT
                executed += 4
                if not _t1:                 # JMPF 10
                    pc = 10
                    continue
                pc = 4
                continue
            elif pc == 4:
                ...
            else:                           # resumed at a non-leader pc
                t.pc = pc
                return executed

Within a segment the expression stack is *symbolic*: pushes defer into
expressions (frame reads, bound constants, temporaries) that are
consumed in place by the operator and communication calls, so the
common case touches ``t.stack`` never and ``t.frame`` only for real
reads/writes.  Frame-read expressions are flushed into temporaries
before any frame write, and whatever is still symbolic is appended to
the real stack at every segment exit, so a resumed thread (or the
closures taking over) always sees the exact machine state.

The accounting invariant (docs/PERF.md) is preserved by construction:

* a segment charges the ORIGINAL instruction widths (``executed +=
  <segment width>``), never a rewritten count;
* when the remaining slice budget is smaller than a segment, or the
  entry pc is not a leader, the function stores ``t.pc`` and returns
  -- the caller (:meth:`TycoVM._step_compiled`) finishes the
  slice on the closures, one instruction per handler, so the
  slice boundary lands on exactly the same instruction as ever;
* non-inlinable opcodes (DEFGROUP and the four distribution
  instructions with their import-stall protocol) execute through the
  predecoded per-pc ``head`` handler, one instruction at a time, with
  ``t.pc`` maintained exactly as the closure loop would;
* at HALT, a next queued thread of the *same block* is picked up in
  place while budget remains -- the pop counted as a context switch,
  exactly like the step loop's.  There is one calling convention: a
  profiled step cuts the budget at its sample points and calls the
  same function;
* a per-instruction ``Tracer`` (``repro run --trace N``) still forces
  the reference shell, every slice on the interpreter; the
  observability bus and the profiler do not.

Consequently ``VMStats``, context switches, simulated schedules, wire
metrics and error messages are bit-identical between the ``slow``
reference and the production engine at every tier (the differential
wall in ``tests/integration/test_engine_differential.py`` pins this).
"""

from __future__ import annotations

from types import FunctionType

from repro.compiler.assembly import BOOL_OPS, CodeBlock, Op, Program

from .dispatch import FAST_BINOP
from .machine import TycoVM, VMRuntimeError
from .scheduler import Thread
from .values import Channel, ClassRef

#: Opcodes the code generator inlines.  Everything else (DEFGROUP and
#: the distribution instructions with their stall/rewind protocol)
#: executes through the predecoded per-pc head handler instead.
_INLINE_OPS = frozenset(FAST_BINOP) | {
    Op.PUSHL, Op.PUSHC, Op.STOREL, Op.POP,
    Op.TRMSG, Op.TROBJ, Op.INSTOF, Op.FORK, Op.NEWCH,
    Op.JMP, Op.JMPF, Op.HALT, Op.PRINT, Op.BNOT, Op.NEG,
}

#: Instructions that end a segment (control leaves the straight line).
_TERMINATORS = {Op.JMP, Op.JMPF, Op.HALT}

#: Operators whose int fast path is inlined as a native Python
#: expression (guarded by exact ``__class__ is int`` checks, mirroring
#: the FAST_BINOP helpers' type tests).  DIV/MOD carry a zero check
#: and BAND/BOR an exact-bool check, so those always call the helper.
_INT_PYOP = {
    Op.ADD: "+", Op.SUB: "-", Op.MUL: "*",
    Op.LT: "<", Op.LE: "<=", Op.GT: ">", Op.GE: ">=",
    Op.EQ: "==", Op.NE: "!=",
}


class _Codegen:
    """One code-generation pass over one block."""

    def __init__(self, program: Program, block_id: int,
                 block: CodeBlock) -> None:
        self.block = block
        self.operands = _operands(program, block_id, block)
        self.lines: list[str] = []
        self.bindings: dict[str, object] = {}
        self._tmp = 0
        self.uses_stats = False
        #: Block spawns/chains threads: hoist the run-queue into locals
        #: and accumulate the per-reduction counters (``_ir``/``_cr``/
        #: ``_ts``/``_fk``/``_cs``) in locals, flushed to ``VMStats`` /
        #: ``RunQueue`` in a ``finally`` -- nothing observes the
        #: counters mid-call and increments commute with the helper
        #: fallbacks, while the flush keeps totals exact across every
        #: return *and* raise.
        self.uses_acc = False
        #: Per-call-site inline-cache locals (``_ic<pc>_*``),
        #: initialised in the function header.  Within one invocation
        #: ``program.blocks[i]`` entries are stable (``link_bundle``
        #: only appends), so an INSTOF site that sees the same
        #: ``ClassRef`` object again can skip the block fetch, the
        #: arity checks and the frame-padding arithmetic it already
        #: did.  The cache lives in locals, so it dies with the call --
        #: it can never go stale across relinks or restarts.
        self.ic_inits: list[str] = []
        #: Symbolic operand stack: (expression, kind) with kind one of
        #: "frame" (lazy f[i] read), "const", "temp", "bool" (a temp
        #: known to hold a boolean -- result of a comparison operator).
        self.stack: list[tuple[str, str]] = []

    # -- small helpers -------------------------------------------------------

    def emit(self, ind: str, text: str) -> None:
        self.lines.append(ind + text)

    def temp(self) -> str:
        self._tmp += 1
        return f"_t{self._tmp}"

    def bind(self, name: str, value) -> str:
        self.bindings[name] = value
        return name

    def operand(self, name: str) -> str:
        """Bind one of the block's own operands (``_operands``)."""
        return self.bind(name, self.operands[name])

    def binop(self, op: Op) -> str:
        return self.bind(f"_b_{op.name}", FAST_BINOP[op])

    @staticmethod
    def tup(items: list[str]) -> str:
        if not items:
            return "()"
        return "(" + ", ".join(items) + ",)"

    # -- symbolic stack ------------------------------------------------------

    def popn_kinds(self, n: int, ind: str) -> list[tuple[str, str]]:
        """Pop ``n`` values; returns (expression, kind) bottom-to-top.
        Values below the symbolic stack come off the thread's real
        stack as temporaries."""
        take = min(n, len(self.stack))
        rest = n - take
        top = [self.stack.pop() for _ in range(take)][::-1]
        below: list[tuple[str, str]] = []
        if rest:
            for i in range(rest, 0, -1):
                tv = self.temp()
                self.emit(ind, f"{tv} = st[-{i}]")
                below.append((tv, "temp"))
            self.emit(ind, f"del st[-{rest}:]")
        return below + top

    def popn(self, n: int, ind: str) -> list[str]:
        """Pop ``n`` values; returns expressions bottom-to-top."""
        return [expr for expr, _kind in self.popn_kinds(n, ind)]

    def is_int_const(self, expr: str, kind: str) -> bool:
        """True when the expression is a bound constant of exact type
        ``int`` (the common literal operand): its ``__class__`` check
        can be elided from inlined arithmetic."""
        return kind == "const" and type(self.bindings.get(expr)) is int

    def materialize(self, expr: str, kind: str, ind: str) -> str:
        """Force a symbolic value into a temporary (multi-use sites)."""
        if kind in ("temp", "bool"):
            return expr
        tv = self.temp()
        self.emit(ind, f"{tv} = {expr}")
        return tv

    def flush_frame_reads(self, ind: str) -> None:
        """Lazy frame reads become stale across a frame write: force
        them into temporaries first."""
        for i, (expr, kind) in enumerate(self.stack):
            if kind == "frame":
                tv = self.temp()
                self.emit(ind, f"{tv} = {expr}")
                self.stack[i] = (tv, "temp")

    def flush_to_st(self, ind: str) -> None:
        """Segment exit: whatever is still symbolic belongs on the
        thread's real operand stack (usually nothing)."""
        for expr, _kind in self.stack:
            self.emit(ind, f"st.append({expr})")
        self.stack.clear()

    # -- leaders / segments --------------------------------------------------

    def leaders(self) -> list[int]:
        instrs = self.block.instrs
        n = len(instrs)
        leaders = {0, n}
        for pc, ins in enumerate(instrs):
            if ins.op in (Op.JMP, Op.JMPF):
                leaders.add(ins.args[0])
            if ins.op in _TERMINATORS or ins.op not in _INLINE_OPS:
                leaders.add(pc + 1)
            if ins.op not in _INLINE_OPS:
                leaders.add(pc)
        return sorted(x for x in leaders if 0 <= x <= n)

    def emit_spawn_push(self, ind: str, bid: str, items: list[str],
                        pad: str) -> None:
        """The thread creation every inline reduction ends in (the tail
        of :meth:`TycoVM.spawn` once its checks passed): build the frame
        from ``items`` in place, create the thread without the
        ``__init__`` call (``__new__`` plus slot stores -- thread
        creation is the hottest allocation in spawn chains), and push
        it with the run-queue's depth accounting exactly as
        :meth:`RunQueue.push` does.  ``pad`` is a local holding the
        number of ``None`` slots to add (inline-cached sites), or an
        expression computing it once ``_fr`` is built."""
        self.bind("_Thread", Thread)
        self.uses_acc = True
        self.emit(ind, f"_fr = [{', '.join(items)}]")
        if not pad.isidentifier():
            self.emit(ind, f"_pd = {pad}")
            pad = "_pd"
        self.emit(ind, f"if {pad}:")
        self.emit(ind, f"    _fr.extend([None] * {pad})")
        self.emit(ind, "_nt = _Thread.__new__(_Thread)")
        self.emit(ind, f"_nt.block_id = {bid}")
        self.emit(ind, "_nt.frame = _fr")
        self.emit(ind, "_nt.pc = 0")
        self.emit(ind, "_nt.stack = []")
        self.emit(ind, "_dq.append(_nt)")
        self.emit(ind, "if len(_dq) > _rq.max_depth:")
        self.emit(ind, "    _rq.max_depth = len(_dq)")
        self.emit(ind, "_ts += 1")

    # -- per-instruction emission --------------------------------------------

    def emit_instr(self, pc: int, ins, ind: str) -> None:
        op = ins.op
        if op is Op.PUSHL:
            self.stack.append((f"f[{self.operand(f'_l{pc}')}]", "frame"))
        elif op is Op.PUSHC:
            self.stack.append((self.operand(f"_k{pc}"), "const"))
        elif op is Op.STOREL:
            (val,) = self.popn(1, ind)
            self.flush_frame_reads(ind)
            self.emit(ind, f"f[{self.operand(f'_l{pc}')}] = {val}")
        elif op is Op.POP:
            if self.stack:
                self.stack.pop()
            else:
                self.emit(ind, "st.pop()")
        elif op in FAST_BINOP:
            (a, ka), (b, kb) = self.popn_kinds(2, ind)
            fn = self.binop(op)
            tv = self.temp()
            pyop = _INT_PYOP.get(op)
            if pyop is not None:
                # Inline the int fast path (most arithmetic in the
                # example programs): exact ``__class__ is int`` checks
                # -- bool is excluded exactly as in the FAST_BINOP
                # helpers -- with everything else (floats, strings,
                # errors) delegated to the helper for the identical
                # generic result.  Operands that are bound int
                # constants need no check at all.
                a = self.materialize(a, ka, ind) if ka == "frame" else a
                b = self.materialize(b, kb, ind) if kb == "frame" else b
                checks = [f"{e}.__class__ is int" for e, k in
                          ((a, ka), (b, kb)) if not self.is_int_const(e, k)]
                if checks:
                    self.emit(ind, f"if {' and '.join(checks)}:")
                    self.emit(ind, f"    {tv} = {a} {pyop} {b}")
                    self.emit(ind, "else:")
                    self.emit(ind, f"    {tv} = {fn}(vm, {a}, {b})")
                else:
                    self.emit(ind, f"{tv} = {a} {pyop} {b}")
            else:
                self.emit(ind, f"{tv} = {fn}(vm, {a}, {b})")
            self.stack.append((tv, "bool" if op in BOOL_OPS else "temp"))
        elif op is Op.BNOT:
            (val,) = self.popn(1, ind)
            val = self.materialize(val, "const", ind) \
                if not val.startswith("_t") else val
            self.bind("_VMErr", VMRuntimeError)
            tv = self.temp()
            self.emit(ind, f"if {val} is True:")
            self.emit(ind, f"    {tv} = False")
            self.emit(ind, f"elif {val} is False:")
            self.emit(ind, f"    {tv} = True")
            self.emit(ind, "else:")
            self.emit(ind, "    raise _VMErr("
                           f"f\"{{vm.name}}: 'not' on {{{val}!r}}\")")
            self.stack.append((tv, "bool"))
        elif op is Op.NEG:
            (val,) = self.popn(1, ind)
            val = self.materialize(val, "const", ind) \
                if not val.startswith("_t") else val
            self.bind("_VMErr", VMRuntimeError)
            self.emit(ind, f"if isinstance({val}, bool) "
                           f"or not isinstance({val}, (int, float)):")
            self.emit(ind, "    raise _VMErr("
                           f"f\"{{vm.name}}: '-' on {{{val}!r}}\")")
            tv = self.temp()
            self.emit(ind, f"{tv} = -{val}")
            self.stack.append((tv, "temp"))
        elif op is Op.TRMSG:
            # TycoVM._trmsg -> _fire -> spawn, inline: same checks, same
            # counter order; anything unusual goes to the helper.
            label, nargs = ins.args
            lb = repr(label)
            (target, kt), *rest = self.popn_kinds(nargs + 1, ind)
            target = self.materialize(target, kt, ind)
            args = [expr for expr, _kind in rest]
            self.bind("_Channel", Channel)
            self.bind("_fire", TycoVM._fire)
            self.bind("_trmsg", TycoVM._trmsg)
            self.uses_acc = True
            self.emit(ind, f"if {target}.__class__ is _Channel "
                           f"and {target}.builtin is None:")
            self.emit(ind, f"    _en = {target}.match_object({lb})")
            self.emit(ind, "    if _en is not None:")
            self.emit(ind, "        _ev = _en[1]")
            self.emit(ind, f"        _bi = _en[0][{lb}]")
            self.emit(ind, "        _bk = vm.program.blocks[_bi]")
            self.emit(ind, f"        if _bk.nparams != {nargs} "
                           "or len(_ev) != _bk.nfree:")
            self.emit(ind, f"            _fire(vm, _bi, _ev, "
                           f"{self.tup(args)}, {lb})")
            self.emit(ind, "        else:")
            self.emit(ind, "            _cr += 1")
            self.emit_spawn_push(ind + "            ", "_bi",
                                 ["*_ev", *args],
                                 "_bk.frame_size - len(_fr)")
            self.emit(ind, "    else:")
            self.emit(ind, f"        {target}.messages.append"
                           f"(({lb}, {self.tup(args)}))")
            self.emit(ind, "        stats.messages_queued += 1")
            self.emit(ind, "else:")
            self.emit(ind, f"    _trmsg(vm, {target}, {lb}, "
                           f"{self.tup(args)})")
        elif op is Op.TROBJ:
            # TycoVM._trobj -> _fire -> spawn, inline.  The method table is the
            # block's own (``_m<pc>``), so the memo keys only the width.
            nfree = ins.args[1]
            methods = self.operand(f"_m{pc}")
            (target, kt), *rest = self.popn_kinds(nfree + 1, ind)
            target = self.materialize(target, kt, ind)
            env = [expr for expr, _kind in rest]
            self.bind("_Channel", Channel)
            self.bind("_fire", TycoVM._fire)
            self.bind("_trobj", TycoVM._trobj)
            self.uses_acc = True
            self.emit(ind, f"if {target}.__class__ is _Channel "
                           f"and {target}.builtin is None:")
            self.emit(ind, f"    _en = {target}.match_message({methods})")
            self.emit(ind, "    if _en is not None:")
            self.emit(ind, "        _lb, _ag = _en")
            self.emit(ind, f"        _bi = {methods}[_lb]")
            self.emit(ind, "        _bk = vm.program.blocks[_bi]")
            self.emit(ind, "        if _bk.nparams != len(_ag) "
                           f"or _bk.nfree != {nfree}:")
            self.emit(ind, f"            _fire(vm, _bi, {self.tup(env)}, "
                           "_ag, _lb)")
            self.emit(ind, "        else:")
            self.emit(ind, "            _cr += 1")
            self.emit_spawn_push(ind + "            ", "_bi",
                                 [*env, "*_ag"],
                                 "_bk.frame_size - len(_fr)")
            self.emit(ind, "    else:")
            self.emit(ind, f"        {target}.objects.append"
                           f"(({methods}, {self.tup(env)}))")
            self.emit(ind, "        stats.objects_queued += 1")
            self.emit(ind, "else:")
            self.emit(ind, f"    _trobj(vm, {target}, {methods}, "
                           f"{self.tup(env)})")
        elif op is Op.INSTOF:
            # TycoVM._instof -> spawn, inline.  The site caches the last
            # ClassRef it spawned (identity key): a recursive chain
            # re-instantiating the same class skips the block fetch,
            # the arity checks and the pad arithmetic after the first
            # time through.
            (nargs,) = ins.args
            (cref, kc), *rest = self.popn_kinds(nargs + 1, ind)
            cref = self.materialize(cref, kc, ind)
            args = [expr for expr, _kind in rest]
            self.bind("_ClassRef", ClassRef)
            self.bind("_spawn", TycoVM.spawn)
            self.bind("_instof", TycoVM._instof)
            self.uses_acc = True
            ic = f"_ic{pc}"
            self.ic_inits.append(f"{ic}_ref = None")
            self.emit(ind, f"if {cref}.__class__ is _ClassRef:")
            self.emit(ind, "    _ir += 1")
            self.emit(ind, f"    if {cref} is {ic}_ref:")
            self.emit_spawn_push(ind + "        ", f"{ic}_bi",
                                 [f"*{ic}_env", *args], f"{ic}_pd")
            self.emit(ind, "    else:")
            self.emit(ind, f"        _bi = {cref}.block_id")
            self.emit(ind, "        _bk = vm.program.blocks[_bi]")
            self.emit(ind, f"        _ev = {cref}.env")
            self.emit(ind, f"        if _bk.nparams != {nargs} "
                           "or len(_ev) != _bk.nfree:")
            self.emit(ind, f"            _spawn(vm, _bi, _ev, "
                           f"{self.tup(args)})")
            self.emit(ind, "        else:")
            self.emit(ind, f"            {ic}_ref = {cref}")
            self.emit(ind, f"            {ic}_env = _ev")
            self.emit(ind, f"            {ic}_bi = _bi")
            self.emit(ind, f"            {ic}_pd = "
                           f"_bk.frame_size - len(_ev) - {nargs}")
            self.emit_spawn_push(ind + "            ", "_bi",
                                 ["*_ev", *args], f"{ic}_pd")
            self.emit(ind, "else:")
            self.emit(ind, f"    _instof(vm, {cref}, {self.tup(args)})")
        elif op is Op.FORK:
            # TycoVM.spawn for FORK, inline.  The target block id is the
            # block's own (``_fb<pc>``), so the memo keys only the width.
            nfree = ins.args[1]
            fb = self.operand(f"_fb{pc}")
            env = self.popn(nfree, ind)
            self.bind("_spawn", TycoVM.spawn)
            self.uses_acc = True
            self.emit(ind, f"_bk = vm.program.blocks[{fb}]")
            self.emit(ind, f"if _bk.nparams or _bk.nfree != {nfree}:")
            self.emit(ind, f"    _spawn(vm, {fb}, {self.tup(env)}, ())")
            self.emit(ind, "else:")
            self.emit_spawn_push(ind + "    ", fb, env,
                                 f"_bk.frame_size - {nfree}")
            self.emit(ind, "_fk += 1")
        elif op is Op.NEWCH:
            self.flush_frame_reads(ind)
            self.emit(ind, f"f[{self.operand(f'_l{pc}')}] = "
                           "vm.heap.new_channel()")
        elif op is Op.PRINT:
            (nargs,) = ins.args
            vals = self.popn(nargs, ind)
            self.emit(ind, "stats.prints += 1")
            self.emit(ind, f"vm.output.extend({self.tup(vals)})")
            self.uses_stats = True
        else:  # pragma: no cover - segmentation routes these elsewhere
            raise AssertionError(f"non-inlinable opcode {op} reached codegen")

    # -- per-segment emission --------------------------------------------------

    def emit_segment(self, leader: int, leaders: list[int], ind: str) -> None:
        instrs = self.block.instrs
        leader_set = set(leaders)
        # Collect the straight-line run: leader up to (and including) a
        # terminator, or up to the next leader.
        pcs = [leader]
        pc = leader
        while instrs[pc].op not in _TERMINATORS:
            nxt = pc + 1
            if nxt >= len(instrs) or nxt in leader_set:
                break
            pcs.append(nxt)
            pc = nxt
        width = len(pcs)
        last = instrs[pcs[-1]]
        self.emit(ind, f"if executed + {width} > budget:")
        self.emit(ind, f"    t.pc = {leader}")
        self.emit(ind, "    return executed")
        self.stack = []
        for p in pcs:
            if instrs[p].op in _TERMINATORS:
                break
            self.emit_instr(p, instrs[p], ind)
        if last.op is Op.JMP:
            self.flush_to_st(ind)
            self.emit(ind, f"executed += {width}")
            self.emit_goto(last.args[0], leader, ind)
        elif last.op is Op.JMPF:
            (cond, kind) = (self.stack.pop() if self.stack
                            else (None, "real"))
            if cond is None:
                cond = self.temp()
                self.emit(ind, f"{cond} = st.pop()")
                kind = "temp"
            elif kind not in ("temp", "bool"):
                cond = self.materialize(cond, kind, ind)
            self.flush_to_st(ind)
            self.emit(ind, f"executed += {width}")
            target = last.args[0]
            fall = pcs[-1] + 1
            if kind == "bool":
                self.emit(ind, f"if not {cond}:")
                self.emit_goto(target, leader, ind + "    ")
                self.emit(ind, "else:")
                self.emit(ind, f"    pc = {fall}")
            else:
                self.bind("_VMErr", VMRuntimeError)
                self.emit(ind, f"if {cond} is False:")
                self.emit_goto(target, leader, ind + "    ")
                self.emit(ind, f"elif {cond} is not True:")
                self.emit(ind, "    raise _VMErr(f\"{vm.name}: conditional "
                               f"on non-boolean {{{cond}!r}}\")")
                self.emit(ind, "else:")
                self.emit(ind, f"    pc = {fall}")
        elif last.op is Op.HALT:
            self.emit(ind, f"executed += {width}")
            self.emit(ind, f"t.pc = {pcs[-1] + 1}")
            self.emit_thread_end(ind)
        else:
            # Fall through into the next leader's segment (the next
            # ``if pc ==`` arm matches immediately: one comparison).
            self.flush_to_st(ind)
            self.emit(ind, f"executed += {width}")
            self.emit(ind, f"pc = {pcs[-1] + 1}")

    def emit_goto(self, target: int, leader: int, ind: str) -> None:
        """Transfer control to ``target``.  Arms are emitted as an
        ``if pc ==`` chain in ascending pc order, so a *forward* jump
        just sets ``pc`` and lets the scan fall through to the target's
        arm; only backward jumps re-enter the dispatch loop."""
        self.emit(ind, f"pc = {target}")
        if target <= leader:
            self.emit(ind, "continue")

    def emit_thread_end(self, ind: str) -> None:
        """End of thread (HALT).  Peek the run queue: a next thread on
        the *same block* is picked up in place -- the pop goes through
        the context-switch counter exactly like :meth:`RunQueue.pop`,
        so accounting matches the step loop switching threads."""
        self.uses_acc = True
        self.emit(ind, "if _dq and executed < budget "
                       f"and _dq[0].block_id == {self.operand('_bid')}:")
        self.emit(ind, "    _cs += 1")
        self.emit(ind, "    t = _dq.popleft()")
        self.emit(ind, "    vm.current = t")
        self.emit(ind, "    f = t.frame")
        self.emit(ind, "    st = t.stack")
        self.emit(ind, "    pc = t.pc")
        self.emit(ind, "    continue")
        self.emit(ind, "vm.current = None")
        self.emit(ind, "return executed")

    def emit_escape(self, pc: int, ind: str) -> None:
        """A non-inlinable opcode runs through its predecoded head
        handler, one instruction at a time -- exactly the closure
        loop's protocol (``t.pc`` pre-advanced; truthy return ends the
        slice; stalls rewind ``t.pc`` themselves).

        The handler is fetched through the running program's block at
        run time rather than bound into the function: handlers close
        over their *program*, and the indirection is what keeps
        compiled code program-independent (so blocks of one shape
        share one code object via the memo).  The slice prologue
        decoded the block before it first called this function, so
        ``heads`` is always there.
        """
        self.emit(ind, "if executed >= budget:")
        self.emit(ind, f"    t.pc = {pc}")
        self.emit(ind, "    return executed")
        self.emit(ind, f"t.pc = {pc + 1}")
        self.emit(ind, "executed += 1")
        self.emit(ind, f"if vm.program.blocks[{self.operand('_bid')}]"
                       f".heads[{pc}](vm, t, f, st):")
        self.emit(ind, "    return executed")
        self.emit(ind, "pc = t.pc")
        self.emit(ind, "continue")

    # -- whole-function emission ----------------------------------------------

    def generate(self) -> str:
        instrs = self.block.instrs
        n = len(instrs)
        leaders = self.leaders()
        # Arms form an ``if pc ==`` chain (not elif) in ascending pc
        # order: a fall-through or forward jump sets ``pc`` and the
        # scan reaches the target arm without re-entering the loop;
        # backward jumps ``continue``.  Every arm ends in a return, a
        # continue, or a forward ``pc`` assignment, so control can
        # never leak past an arm into the trailing non-leader exit.
        arms: list[str] = []
        for leader in leaders:
            self.lines = []
            ind = "            "
            if leader == n:
                self.emit(ind, f"t.pc = {n}")
                self.emit(ind, "vm.current = None")
                self.emit(ind, "return executed")
            elif instrs[leader].op not in _INLINE_OPS:
                self.emit_escape(leader, ind)
            else:
                self.emit_segment(leader, leaders, ind)
            arms.append(f"        if pc == {leader}:")
            arms.extend(self.lines)
        # Entry at a non-leader pc (a slice ended mid-segment on the
        # interpreter or the closures): yield back so the closures
        # finish.
        arms.append("        t.pc = pc")
        arms.append("        return executed")
        params = "".join(f", {name}={name}" for name in self.bindings)
        header = [f"def _compiled_block(vm, t, f, st, budget{params}):",
                  "    executed = 0",
                  "    pc = t.pc"]
        if self.uses_stats or self.uses_acc:
            header.append("    stats = vm.stats")
        if self.uses_acc:
            header.append("    _rq = vm.runqueue")
            header.append("    _dq = _rq._queue")
        body = ["    while 1:"] + arms
        if self.uses_acc:
            # Local counter accumulators (see __init__): the finally
            # block flushes them on every exit path, raises included,
            # so externally-visible VMStats / context-switch totals are
            # bit-identical to per-reduction increments.
            header.append("    _ir = _cr = _ts = _fk = _cs = 0")
            header.extend("    " + init for init in self.ic_inits)
            body = (["    try:"]
                    + ["    " + ln for ln in body]
                    + ["    finally:",
                       "        if _ir:",
                       "            stats.inst_reductions += _ir",
                       "        if _cr:",
                       "            stats.comm_reductions += _cr",
                       "        if _ts:",
                       "            stats.threads_spawned += _ts",
                       "        if _fk:",
                       "            stats.forks += _fk",
                       "        if _cs:",
                       "            _rq.context_switches += _cs"])
        return "\n".join(header + body) + "\n"


#: Compiled code per block *shape*.  Nothing block-specific is in the
#: generated source: each frame slot is the default ``_l<pc>``, a PUSHC
#: literal ``_k<pc>``, a FORK target ``_fb<pc>``, a TROBJ method table
#: ``_m<pc>`` and the block's own id ``_bid`` (:func:`_operands`);
#: everything else the function binds is the same for every block.  So
#: two blocks whose instructions differ only in those operands -- one
#: launch template's instantiations, the same class linked at two
#: positions, a generated program's look-alike classes placed at
#: different slots of one def group -- share one code object, and a hit
#: costs a ``FunctionType`` with this block's defaults: no codegen, no
#: ``compile``.  Keys are pure shape, so the memo can never go stale: a
#: re-tupled literal block or a relinked bundle changes the key or the
#: defaults.  Bounded like the node's other two tables
#: (``launch.MAX_SHAPES``, ``codecache.MAX_SLICES``): emptied when full,
#: so a shape still in use costs one more ``compile`` -- a table that
#: merely stopped storing would compile every shape first seen after
#: the 1024th, for the life of the process.
_MEMO: dict = {}
_MEMO_CAP = 1024


#: Opcodes whose one operand is a frame slot.  The slot is the default
#: ``_l<pc>`` (:func:`_operands`) and the opcode alone is its key
#: (:func:`_memo_key`): codegen never compares two slots -- a frame
#: write flushes every pending frame read -- so a slot shapes nothing
#: in the source.
_SLOT_OPS = (Op.PUSHL, Op.STOREL, Op.NEWCH)


def _operands(program: Program, block_id: int, block: CodeBlock) -> dict:
    """The defaults a block binds that its memo key abstracts."""
    operands = {"_bid": block_id}
    for pc, ins in enumerate(block.instrs):
        op = ins.op
        if op in _SLOT_OPS:
            operands[f"_l{pc}"] = ins.args[0]
        elif op is Op.PUSHC:
            operands[f"_k{pc}"] = ins.args[0]
        elif op is Op.FORK:
            operands[f"_fb{pc}"] = ins.args[0]
        elif op is Op.TROBJ:
            operands[f"_m{pc}"] = program.objects[ins.args[0]].methods
    return operands


def _memo_key(block: CodeBlock) -> tuple:
    """The block's shape: its instructions with a frame-slot operand
    (:data:`_SLOT_OPS`) dropped, a PUSHC literal reduced to its type --
    the inlined arithmetic checks a literal's type, and ``7 == 7.0 ==
    True`` must not alias -- and a FORK / TROBJ to its width.  Those
    are the operands :func:`_operands` binds; every other operand is in
    the source and keyed as is."""
    return tuple(
        (ins.op,) if ins.op in _SLOT_OPS
        else (Op.PUSHC, type(ins.args[0])) if ins.op is Op.PUSHC
        else (ins.op, ins.args[1]) if ins.op in (Op.FORK, Op.TROBJ)
        else (ins.op, ins.args)
        for ins in block.instrs)


def compile_block(program: Program, block_id: int, block: CodeBlock):
    """Translate one block into one exec-compiled Python function.

    Signature of the result: ``fn(vm, thread, frame, stack, budget)
    -> executed``; the function charges original instruction widths,
    stores ``thread.pc`` at every exit, and sets ``vm.current = None``
    exactly where the closures would.
    """
    key = _memo_key(block)
    seen = _MEMO.get(key)
    if seen is not None:
        # The parameters after (vm, t, f, st, budget) are the
        # bindings, in the order of ``seen.__defaults__``.
        operands = _operands(program, block_id, block)
        return FunctionType(seen.__code__, seen.__globals__, seen.__name__,
                            tuple(operands.get(name, value) for name, value
                                  in zip(seen.__code__.co_varnames[5:],
                                         seen.__defaults__)))
    gen = _Codegen(program, block_id, block)
    code = compile(gen.generate(), "<compiled block>", "exec")
    namespace = dict(gen.bindings)
    exec(code, namespace)
    fn = namespace["_compiled_block"]
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = fn
    return fn
