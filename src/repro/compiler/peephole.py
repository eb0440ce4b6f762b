"""Peephole optimisation of VM assembly.

The paper notes that TyCO's type information can be used "to collect
important information for code optimization"; this module implements
the classic machine-level passes that the original compiler applied to
its assembly before emitting byte-code:

* **constant folding** -- ``PUSHC a; PUSHC b; ADD`` becomes ``PUSHC
  (a+b)`` (and likewise for every builtin operator whose operands are
  literals, including comparisons feeding conditionals);
* **branch simplification** -- ``PUSHC true; JMPF t`` disappears and
  ``PUSHC false; JMPF t`` becomes ``JMP t``;
* **dead-code elimination** -- instructions that can never be reached
  (between an unconditional ``JMP``/``HALT`` and the next jump target)
  are dropped.

Folding is *semantics-preserving with respect to errors*: an operation
that would fault at run time (division by zero, arithmetic on
booleans) is left unfolded so the dynamic error still happens at the
same program point.
"""

from __future__ import annotations

from .assembly import CodeBlock, Instr, Op, Program

_FOLDABLE = {
    Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD,
    Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE, Op.BAND, Op.BOR,
}

#: Binary operators whose result is always a boolean (a ``JMPF`` fed by
#: one can never see a non-boolean conditional; repro.vm.compile).
_BOOL_OPS = {Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE, Op.BAND, Op.BOR}


def _try_fold(op: Op, a, b):
    """Return (folded_value,) or None if folding is unsafe."""
    a_bool, b_bool = isinstance(a, bool), isinstance(b, bool)
    if op is Op.EQ:
        if a_bool != b_bool:
            return (False,)
        return (a == b,)
    if op is Op.NE:
        if a_bool != b_bool:
            return (True,)
        return (a != b,)
    if op in (Op.BAND, Op.BOR):
        if not (a_bool and b_bool):
            return None
        return ((a and b),) if op is Op.BAND else ((a or b),)
    if a_bool or b_bool:
        return None
    num = isinstance(a, (int, float)) and isinstance(b, (int, float))
    strs = isinstance(a, str) and isinstance(b, str)
    if op is Op.ADD and strs:
        return (a + b,)
    if op in (Op.LT, Op.LE, Op.GT, Op.GE) and strs:
        return ({Op.LT: a < b, Op.LE: a <= b, Op.GT: a > b, Op.GE: a >= b}[op],)
    if not num:
        return None
    if op is Op.ADD:
        return (a + b,)
    if op is Op.SUB:
        return (a - b,)
    if op is Op.MUL:
        return (a * b,)
    if op is Op.DIV:
        if b == 0:
            return None
        return (a // b,) if isinstance(a, int) and isinstance(b, int) else (a / b,)
    if op is Op.MOD:
        if b == 0:
            return None
        return (a % b,)
    return ({Op.LT: a < b, Op.LE: a <= b, Op.GT: a > b, Op.GE: a >= b}[op],)


def fold_constants(block: CodeBlock) -> CodeBlock:
    """Iteratively fold literal operands (single forward pass per round)."""
    instrs = list(block.instrs)
    changed = True
    while changed:
        changed = False
        out: list[Instr] = []
        # Positions shift when we fuse; jumps must be remapped.
        mapping: dict[int, int] = {}
        i = 0
        while i < len(instrs):
            mapping[i] = len(out)
            ins = instrs[i]
            if (
                ins.op in _FOLDABLE
                and len(out) >= 2
                and out[-1].op is Op.PUSHC
                and out[-2].op is Op.PUSHC
                and not _is_jump_target(instrs, i)
                and not _is_jump_target(instrs, i - 1)
            ):
                folded = _try_fold(ins.op, out[-2].args[0], out[-1].args[0])
                if folded is not None:
                    out.pop()
                    out.pop()
                    out.append(Instr(Op.PUSHC, (folded[0],)))
                    changed = True
                    i += 1
                    continue
            if (
                ins.op is Op.BNOT
                and out
                and out[-1].op is Op.PUSHC
                and isinstance(out[-1].args[0], bool)
                and not _is_jump_target(instrs, i)
            ):
                v = out.pop().args[0]
                out.append(Instr(Op.PUSHC, (not v,)))
                changed = True
                i += 1
                continue
            if (
                ins.op is Op.NEG
                and out
                and out[-1].op is Op.PUSHC
                and isinstance(out[-1].args[0], (int, float))
                and not isinstance(out[-1].args[0], bool)
                and not _is_jump_target(instrs, i)
            ):
                v = out.pop().args[0]
                out.append(Instr(Op.PUSHC, (-v,)))
                changed = True
                i += 1
                continue
            out.append(ins)
            i += 1
        mapping[len(instrs)] = len(out)
        if changed:
            instrs = [_remap_jump(ins, mapping) for ins in out]
        else:
            instrs = out
    return CodeBlock(
        instrs=tuple(instrs),
        nfree=block.nfree,
        nparams=block.nparams,
        frame_size=block.frame_size,
        name=block.name,
    )


def simplify_branches(block: CodeBlock) -> CodeBlock:
    """Resolve JMPF on literal booleans."""
    instrs = list(block.instrs)
    out: list[Instr] = []
    mapping: dict[int, int] = {}
    i = 0
    changed = False
    while i < len(instrs):
        mapping[i] = len(out)
        ins = instrs[i]
        if (
            ins.op is Op.JMPF
            and out
            and out[-1].op is Op.PUSHC
            and isinstance(out[-1].args[0], bool)
            and not _is_jump_target(instrs, i)
        ):
            cond = out.pop().args[0]
            changed = True
            if cond:
                pass  # fall through: drop both instructions
            else:
                out.append(Instr(Op.JMP, ins.args))
            i += 1
            continue
        out.append(ins)
        i += 1
    mapping[len(instrs)] = len(out)
    if not changed:
        return block
    return CodeBlock(
        instrs=tuple(_remap_jump(ins, mapping) for ins in out),
        nfree=block.nfree,
        nparams=block.nparams,
        frame_size=block.frame_size,
        name=block.name,
    )


def eliminate_dead_code(block: CodeBlock) -> CodeBlock:
    """Drop instructions that no control path reaches."""
    instrs = block.instrs
    reachable = [False] * len(instrs)
    work = [0] if instrs else []
    while work:
        pc = work.pop()
        if pc >= len(instrs) or reachable[pc]:
            continue
        reachable[pc] = True
        ins = instrs[pc]
        if ins.op is Op.JMP:
            work.append(ins.args[0])
        elif ins.op is Op.JMPF:
            work.append(ins.args[0])
            work.append(pc + 1)
        elif ins.op is Op.HALT:
            pass
        else:
            work.append(pc + 1)
    if all(reachable):
        return block
    mapping: dict[int, int] = {}
    out: list[Instr] = []
    for pc, ins in enumerate(instrs):
        mapping[pc] = len(out)
        if reachable[pc]:
            out.append(ins)
    mapping[len(instrs)] = len(out)
    return CodeBlock(
        instrs=tuple(_remap_jump(ins, mapping) for ins in out),
        nfree=block.nfree,
        nparams=block.nparams,
        frame_size=block.frame_size,
        name=block.name,
    )


def _is_jump_target(instrs: list[Instr], pc: int) -> bool:
    return any(
        ins.op in (Op.JMP, Op.JMPF) and ins.args[0] == pc for ins in instrs
    )


def _remap_jump(ins: Instr, mapping: dict[int, int]) -> Instr:
    if ins.op in (Op.JMP, Op.JMPF):
        return Instr(ins.op, (mapping[ins.args[0]],))
    return ins


def optimize_block(block: CodeBlock) -> CodeBlock:
    """All passes, to a fixed point (bounded)."""
    for _ in range(4):
        before = block.instrs
        block = fold_constants(block)
        block = simplify_branches(block)
        block = eliminate_dead_code(block)
        if block.instrs == before:
            break
    return block


def optimize_program(program: Program) -> Program:
    """Optimise every block of a program area in place; returns it."""
    program.blocks = [optimize_block(b) for b in program.blocks]
    # Replaced blocks invalidate any predecoded handlers (the VM also
    # self-heals via instruction-tuple identity, but clearing here keeps
    # the cache from holding dead entries).
    program.decoded_cache.clear()
    return program

