"""Virtual-machine assembly and byte-code for the TyCO VM (section 5).

"Programs are compiled into an intermediate virtual machine assembly.
This in turn is compiled into hardware independent byte-code.  The
mapping between the assembly and the final byte-code is almost
one-to-one.  The nested structure of the source program is preserved
in the final byte-code.  This allows the efficient dynamic selection
of byte-code blocks that have to be moved between sites."

Accordingly, a compiled :class:`Program` is a *program area*: a table
of :class:`CodeBlock` s (one per method body, parallel branch and class
clause), a table of :class:`ObjectCode` method suites, and a table of
:class:`ClassGroup` definition groups.  Blocks reference each other by
index, so the transitive code needed by a migrating object or a fetched
class is a computable slice of the table (see
:mod:`repro.compiler.linker`).

Frame layout convention (documented once here, relied on everywhere):
a thread's local slots are ``[captured env | parameters | locals]``;
the compiler resolves every variable to one absolute slot index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Iterable


class Op(Enum):
    """Byte-code operation codes.

    ``TRMSG`` / ``TROBJ`` / ``INSTOF`` are the communication and
    instantiation instructions re-implemented for DiTyCO (section 5);
    ``EXPORT`` / ``IMPORT`` (and their class counterparts) are the two
    instructions added for the network name service.
    """

    # Expression stack.
    PUSHC = auto()      # (const,)            push literal
    PUSHL = auto()      # (slot,)             push local slot
    STOREL = auto()     # (slot,)             pop into local slot
    POP = auto()        # ()                  discard top of stack
    # Builtin operators (operate on the expression stack).
    ADD = auto(); SUB = auto(); MUL = auto(); DIV = auto(); MOD = auto()
    LT = auto(); LE = auto(); GT = auto(); GE = auto(); EQ = auto(); NE = auto()
    BAND = auto(); BOR = auto(); BNOT = auto(); NEG = auto()
    # Control flow within a block.
    JMP = auto()        # (target_pc,)
    JMPF = auto()       # (target_pc,)        jump if popped value is false
    HALT = auto()       # ()                  thread ends
    # Heap and processes.
    NEWCH = auto()      # (slot,)             allocate channel into slot
    TRMSG = auto()      # (label, nargs)      pop args then target; try-reduce message
    TROBJ = auto()      # (objcode_id, nfree) pop env then target; try-reduce object
    INSTOF = auto()     # (nargs,)            pop args then classref; instantiate
    FORK = auto()       # (block_id, nfree)   pop env; spawn parallel branch
    DEFGROUP = auto()   # (group_id, nfree, first_slot) pop env; make classrefs
    PRINT = auto()      # (nargs,)            pop args; write to the site I/O port
    # Distribution (section 5's new instructions).
    EXPORT = auto()     # (slot, hint)        register local channel w/ name service
    IMPORT = auto()     # (hint, site, slot)  resolve remote name into slot
    EXPORTCLASS = auto()  # (group_id, slot, hint)  register classref w/ name service
    IMPORTCLASS = auto()  # (hint, site, slot)      resolve remote class into slot


#: Binary operators whose result is always a boolean (a ``JMPF`` fed by
#: one can never see a non-boolean conditional; repro.vm.compile).
BOOL_OPS = {Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ, Op.NE, Op.BAND, Op.BOR}


@dataclass(frozen=True, slots=True)
class Instr:
    """One assembly/byte-code instruction (opcode + immediate operands)."""

    op: Op
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.op.name.lower()
        return f"{self.op.name.lower()} {', '.join(map(repr, self.args))}"


#: Interned zero-operand instructions (HALT, the operators, POP): every
#: block ends in HALT and expression code is operator-dense, so sharing
#: one frozen instance per opcode trims compile-time allocation.
NOARG_INSTRS: dict[Op, Instr] = {op: Instr(op) for op in Op}


@dataclass(slots=True)
class CodeBlock:
    """One byte-code block: a method body, fork branch, or class clause.

    ``nfree``/``nparams`` fix the frame prefix; ``frame_size`` is the
    total number of local slots the block needs.

    The last three fields are the engine's tier state, not code
    (repro.vm.machine): not constructor arguments, not compared, not
    encoded.  Every program area holding the object shares them.
    """

    instrs: tuple[Instr, ...]
    nfree: int
    nparams: int
    frame_size: int
    name: str = "block"
    heads: list | None = field(default=None, init=False, compare=False,
                               repr=False)
    entries: int = field(default=0, init=False, compare=False, repr=False)
    compiled: object = field(default=None, init=False, compare=False,
                             repr=False)

    def __post_init__(self) -> None:
        if self.frame_size < self.nfree + self.nparams:
            raise ValueError("frame smaller than env + params")


@dataclass(slots=True)
class ObjectCode:
    """The method suite of one object literal: label -> (block, arity)."""

    methods: dict[str, int]  # label text -> block id
    name: str = "object"


@dataclass(slots=True)
class ClassGroup:
    """One ``def`` group: clause hints and their blocks.

    Clause blocks share one environment: ``[captured env | group
    classrefs]`` -- the classrefs of the whole group are appended after
    the captured free variables so mutually recursive instantiation is
    a local env read.
    """

    clauses: tuple[tuple[str, int], ...]  # (class hint, block id)
    nfree: int
    name: str = "group"


@dataclass(slots=True)
class Program:
    """A compiled program area.

    ``externals`` lists the lexemes of the program's free names in the
    order the main block's environment expects them; the running site
    resolves each lexeme to a channel (console channels like ``print``
    are builtin, the rest are ambient channels of the site).
    """

    blocks: list[CodeBlock] = field(default_factory=list)
    objects: list[ObjectCode] = field(default_factory=list)
    groups: list[ClassGroup] = field(default_factory=list)
    externals: list[str] = field(default_factory=list)
    main: int = 0
    source_name: str = "<program>"

    # -- construction helpers (used by codegen and the linker) -----------

    def add_block(self, block: CodeBlock) -> int:
        self.blocks.append(block)
        return len(self.blocks) - 1

    def add_object(self, obj: ObjectCode) -> int:
        self.objects.append(obj)
        return len(self.objects) - 1

    def add_group(self, group: ClassGroup) -> int:
        self.groups.append(group)
        return len(self.groups) - 1

    # -- introspection ------------------------------------------------------

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for b in self.blocks)

    def disassemble(self) -> str:
        """Human-readable listing of the whole program area."""
        out: list[str] = [f"; program {self.source_name}"]
        if self.externals:
            out.append(f"; externals: {', '.join(self.externals)}")
        out.append(f"; main: block {self.main}")
        for i, block in enumerate(self.blocks):
            out.append(
                f"block {i} ({block.name}) "
                f"[free={block.nfree} params={block.nparams} "
                f"frame={block.frame_size}]")
            for pc, ins in enumerate(block.instrs):
                out.append(f"  {pc:4d}  {ins}")
        for i, obj in enumerate(self.objects):
            methods = ", ".join(f"{l}->b{b}" for l, b in obj.methods.items())
            out.append(f"object {i} ({obj.name}): {methods}")
        for i, grp in enumerate(self.groups):
            clauses = ", ".join(f"{h}->b{b}" for h, b in grp.clauses)
            out.append(f"group {i} ({grp.name}) [free={grp.nfree}]: {clauses}")
        return "\n".join(out)


def validate_program(program: Program) -> None:
    """Structural sanity checks: every cross-reference must resolve and
    every jump target must be inside its block.  Raises ``ValueError``."""
    nblocks = len(program.blocks)
    nobjects = len(program.objects)
    ngroups = len(program.groups)
    if not (0 <= program.main < nblocks):
        raise ValueError(f"main block {program.main} out of range")
    for bi, block in enumerate(program.blocks):
        for pc, ins in enumerate(block.instrs):
            where = f"block {bi} pc {pc}"
            if ins.op in (Op.JMP, Op.JMPF):
                (target,) = ins.args
                if not (0 <= target <= len(block.instrs)):
                    raise ValueError(f"{where}: jump target {target} out of block")
            elif ins.op is Op.TROBJ:
                obj_id = ins.args[0]
                if not (0 <= obj_id < nobjects):
                    raise ValueError(f"{where}: object id {obj_id} out of range")
            elif ins.op is Op.FORK:
                target = ins.args[0]
                if not (0 <= target < nblocks):
                    raise ValueError(f"{where}: fork target {target} out of range")
            elif ins.op is Op.DEFGROUP:
                group_id = ins.args[0]
                if not (0 <= group_id < ngroups):
                    raise ValueError(f"{where}: group id {group_id} out of range")
            elif ins.op is Op.EXPORTCLASS:
                group_id = ins.args[0]
                if not (0 <= group_id < ngroups):
                    raise ValueError(f"{where}: group id {group_id} out of range")
            for slot_op in _slot_operands(ins):
                if not (0 <= slot_op < block.frame_size):
                    raise ValueError(
                        f"{where}: slot {slot_op} outside frame "
                        f"of size {block.frame_size}")
    for obj in program.objects:
        for label, blk in obj.methods.items():
            if not (0 <= blk < nblocks):
                raise ValueError(f"object {obj.name}: method {label} "
                                 f"references missing block {blk}")
    for grp in program.groups:
        for hint, blk in grp.clauses:
            if not (0 <= blk < nblocks):
                raise ValueError(f"group {grp.name}: clause {hint} "
                                 f"references missing block {blk}")


def _slot_operands(ins: Instr) -> Iterable[int]:
    """Yield the frame-slot operands of an instruction."""
    if ins.op in (Op.PUSHL, Op.STOREL, Op.NEWCH):
        yield ins.args[0]
    elif ins.op is Op.EXPORT:
        yield ins.args[0]
    elif ins.op in (Op.IMPORT, Op.IMPORTCLASS):
        yield ins.args[2]
    elif ins.op is Op.DEFGROUP:
        yield ins.args[2]
    elif ins.op is Op.EXPORTCLASS:
        yield ins.args[1]
