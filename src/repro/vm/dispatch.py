"""Predecoded threaded dispatch for the TyCO VM (docs/PERF.md).

The interpreter in :mod:`repro.vm.machine` walks a 30-arm
``if/elif`` chain per instruction and re-reads every operand tuple on
every execution.  This module translates a
:class:`~repro.compiler.assembly.CodeBlock` *once* into per-pc handler
closures with the operands unpacked at decode time -- the standard
predecoding cure for interpreter dispatch cost (cf. py-evm's opcode
binding).  Decoding costs more than running a block once, so it is
paid once per shape that repeats: a launch template's blocks, and a
block that tiers up (``machine.TIER_UP_ENTRIES``), whose generated
code (:mod:`repro.vm.compile`) escapes to these handlers and yields to
them.  They are kept as ``CodeBlock.heads``, one decode for every
area holding the block (docs/TESTING.md, "Block sharing").
The production engine runs them in a bare loop (``_run_closures``);
code that runs once runs on the interpreter and builds none.

One handler per instruction: a handler charges one instruction, so
executed-instruction counts, slice boundaries and context switches --
and therefore every simulated schedule -- are those of the
interpreter by construction; and the instruction tuple is only read,
so wire images and jump targets never change.

Handler protocol: ``handler(vm, thread, frame, stack)`` with
``thread.pc`` already advanced past the instruction; a truthy return
ends the slice (HALT, import stall).
"""

from __future__ import annotations

from repro.compiler.assembly import CodeBlock, Op, Program

from .machine import ImportPending, VMRuntimeError, _arith, _vm_equal
from .values import group_classrefs


# -- fast binary operators ---------------------------------------------------
#
# Exact ``type() is`` checks: ``bool`` is excluded (type(True) is bool,
# not int), so boolean operands fall through to ``_arith`` which raises
# the section-7 dynamic error -- the fast path inherits the machine's
# arithmetic-on-booleans rejection by construction.  Strings and error
# cases take the same fallback, producing identical errors and results.

def _fast_add(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a + b
    return _arith(vm, Op.ADD, a, b)


def _fast_sub(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a - b
    return _arith(vm, Op.SUB, a, b)


def _fast_mul(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a * b
    return _arith(vm, Op.MUL, a, b)


def _fast_div(vm, a, b):
    if type(a) is int and type(b) is int and b != 0:
        return a // b
    return _arith(vm, Op.DIV, a, b)


def _fast_mod(vm, a, b):
    if type(a) is int and type(b) is int and b != 0:
        return a % b
    return _arith(vm, Op.MOD, a, b)


def _fast_lt(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a < b
    return _arith(vm, Op.LT, a, b)


def _fast_le(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a <= b
    return _arith(vm, Op.LE, a, b)


def _fast_gt(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a > b
    return _arith(vm, Op.GT, a, b)


def _fast_ge(vm, a, b):
    ta = type(a)
    tb = type(b)
    if (ta is int or ta is float) and (tb is int or tb is float):
        return a >= b
    return _arith(vm, Op.GE, a, b)


def _fast_eq(vm, a, b):
    if type(a) is int and type(b) is int:
        return a == b
    return _vm_equal(a, b)


def _fast_ne(vm, a, b):
    if type(a) is int and type(b) is int:
        return a != b
    return not _vm_equal(a, b)


def _fast_band(vm, a, b):
    if (a is True or a is False) and (b is True or b is False):
        return a and b
    return _arith(vm, Op.BAND, a, b)


def _fast_bor(vm, a, b):
    if (a is True or a is False) and (b is True or b is False):
        return a or b
    return _arith(vm, Op.BOR, a, b)


FAST_BINOP = {
    Op.ADD: _fast_add, Op.SUB: _fast_sub, Op.MUL: _fast_mul,
    Op.DIV: _fast_div, Op.MOD: _fast_mod,
    Op.LT: _fast_lt, Op.LE: _fast_le, Op.GT: _fast_gt, Op.GE: _fast_ge,
    Op.EQ: _fast_eq, Op.NE: _fast_ne,
    Op.BAND: _fast_band, Op.BOR: _fast_bor,
}


# -- decoded blocks ----------------------------------------------------------

def handler_kind(block: CodeBlock, pc: int) -> str:
    """The handler-kind label the sampling profiler attributes a
    sample at ``(block, pc)`` to: the opcode about to execute, or
    ``"END"`` past the last instruction (the thread is about to
    retire).  Labels come from the instruction tuple, not from the
    tier that runs it, which is the profiler's determinism contract.
    """
    if 0 <= pc < len(block.instrs):
        return block.instrs[pc].op.name
    return "END"


def predecode(program: Program, block: CodeBlock) -> list:
    """Translate ``block`` into pre-bound handlers, one per instruction."""
    return [_decode_one(program, ins) for ins in block.instrs]


def patch_constants(program: Program, heads: list, block: CodeBlock,
                    pcs: list[int]) -> list:
    """What :func:`predecode` would build for ``block``, made from
    ``heads`` -- the handlers of a block that differs from it only in
    the operands of the ``PUSHC`` s at ``pcs`` (a launch template and
    one instantiation of it, repro.runtime.launch).

    A ``PUSHC`` operand is bound in that instruction's handler and
    nowhere else, so only those are built again.
    """
    instrs = block.instrs
    heads = list(heads)
    for pc in pcs:
        heads[pc] = _decode_one(program, instrs[pc])
    return heads


# -- handlers ----------------------------------------------------------------

def _halt(vm, t, f, st):
    vm.current = None
    return True


def _decode_one(program: Program, ins):
    """One handler closure for one instruction, operands pre-bound."""
    op = ins.op

    if op is Op.PUSHL:
        slot = ins.args[0]

        def h(vm, t, f, st, _s=slot):
            st.append(f[_s])
        return h

    if op is Op.PUSHC:
        const = ins.args[0]

        def h(vm, t, f, st, _c=const):
            st.append(_c)
        return h

    if op is Op.STOREL:
        slot = ins.args[0]

        def h(vm, t, f, st, _s=slot):
            f[_s] = st.pop()
        return h

    if op is Op.POP:
        def h(vm, t, f, st):
            st.pop()
        return h

    if op is Op.TRMSG:
        label, nargs = ins.args

        def h(vm, t, f, st, _l=label, _n=nargs):
            args = tuple(st[len(st) - _n:])
            del st[len(st) - _n:]
            vm._trmsg(st.pop(), _l, args)
        return h

    if op is Op.TROBJ:
        obj_id, nfree = ins.args
        methods = program.objects[obj_id].methods

        def h(vm, t, f, st, _m=methods, _n=nfree):
            env = tuple(st[len(st) - _n:])
            del st[len(st) - _n:]
            vm._trobj(st.pop(), _m, env)
        return h

    if op is Op.INSTOF:
        (nargs,) = ins.args

        def h(vm, t, f, st, _n=nargs):
            args = tuple(st[len(st) - _n:])
            del st[len(st) - _n:]
            vm._instof(st.pop(), args)
        return h

    if op is Op.FORK:
        block_id, nfree = ins.args

        def h(vm, t, f, st, _b=block_id, _n=nfree):
            env = tuple(st[len(st) - _n:])
            del st[len(st) - _n:]
            vm.spawn(_b, env, ())
            vm.stats.forks += 1
        return h

    if op is Op.NEWCH:
        slot = ins.args[0]

        def h(vm, t, f, st, _s=slot):
            f[_s] = vm.heap.new_channel()
        return h

    if op is Op.DEFGROUP:
        group_id, nfree, first_slot = ins.args
        clauses = program.groups[group_id].clauses

        def h(vm, t, f, st, _c=clauses, _n=nfree, _g=group_id,
              _f=first_slot, _e=first_slot + len(clauses)):
            env = st[len(st) - _n:]
            del st[len(st) - _n:]
            f[_f:_e] = group_classrefs(_g, _c, env)
        return h

    if op is Op.JMP:
        target = ins.args[0]

        def h(vm, t, f, st, _t=target):
            t.pc = _t
        return h

    if op is Op.JMPF:
        target = ins.args[0]

        def h(vm, t, f, st, _t=target):
            cond = st.pop()
            if cond is False:
                t.pc = _t
            elif cond is not True:
                raise VMRuntimeError(
                    f"{vm.name}: conditional on non-boolean {cond!r}")
        return h

    if op is Op.HALT:
        return _halt

    if op is Op.PRINT:
        (nargs,) = ins.args

        def h(vm, t, f, st, _n=nargs):
            args = tuple(st[len(st) - _n:])
            del st[len(st) - _n:]
            vm.stats.prints += 1
            vm.output.extend(args)
        return h

    fn = FAST_BINOP.get(op)
    if fn is not None:
        def h(vm, t, f, st, _fn=fn):
            b = st.pop()
            a = st.pop()
            st.append(_fn(vm, a, b))
        return h

    if op is Op.BNOT:
        def h(vm, t, f, st):
            v = st.pop()
            if v is True:
                st.append(False)
            elif v is False:
                st.append(True)
            else:
                raise VMRuntimeError(f"{vm.name}: 'not' on {v!r}")
        return h

    if op is Op.NEG:
        def h(vm, t, f, st):
            v = st.pop()
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise VMRuntimeError(f"{vm.name}: '-' on {v!r}")
            st.append(-v)
        return h

    if op is Op.EXPORT:
        slot, hint = ins.args

        def h(vm, t, f, st, _s=slot, _h=hint):
            vm._require_port().export_name(_h, f[_s])
        return h

    if op is Op.IMPORT:
        hint, site, slot = ins.args

        def h(vm, t, f, st, _h=hint, _site=site, _s=slot):
            try:
                f[_s] = vm._require_port().import_name(_h, _site)
            except ImportPending:
                vm._stall(t)
                return True
        return h

    if op is Op.EXPORTCLASS:
        group_id, slot, hint = ins.args

        def h(vm, t, f, st, _s=slot, _h=hint):
            vm._require_port().export_class(_h, f[_s])
        return h

    if op is Op.IMPORTCLASS:
        hint, site, slot = ins.args

        def h(vm, t, f, st, _h=hint, _site=site, _s=slot):
            try:
                f[_s] = vm._require_port().import_class(_h, _site)
            except ImportPending:
                vm._stall(t)
                return True
        return h

    def h(vm, t, f, st, _op=op):  # pragma: no cover - exhaustive enum
        raise VMRuntimeError(f"{vm.name}: unknown opcode {_op}")
    return h

