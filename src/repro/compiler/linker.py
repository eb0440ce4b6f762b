"""Dynamic selection and linking of byte-code (section 5).

"The nested structure of the source program is preserved in the final
byte-code.  This allows the efficient dynamic selection of byte-code
blocks that have to be moved between sites." -- when an object migrates
(SHIPO) or a class is fetched (FETCH), the sender extracts the
*transitive slice* of its program area reachable from the moved code:
the method/clause blocks themselves plus every block, object suite and
class group they mention.  The receiver links the bundle by appending
to its own program area and renumbering every cross-reference.

A :class:`CodeBundle` is self-contained and built from plain data, so
the wire format (:mod:`repro.runtime.wire`) can serialise it without
knowing anything about byte-code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .assembly import ClassGroup, CodeBlock, Instr, ObjectCode, Op, Program


class LinkError(Exception):
    """A bundle references code that cannot be resolved."""


@dataclass(slots=True)
class CodeBundle:
    """A self-contained slice of a program area.

    Ids inside the bundle are bundle-local (0-based); ``entry_blocks``
    / ``entry_objects`` / ``entry_groups`` give the bundle-local ids of
    the roots the caller asked for, in request order.
    """

    blocks: list[CodeBlock] = field(default_factory=list)
    objects: list[ObjectCode] = field(default_factory=list)
    groups: list[ClassGroup] = field(default_factory=list)
    entry_blocks: list[int] = field(default_factory=list)
    entry_objects: list[int] = field(default_factory=list)
    entry_groups: list[int] = field(default_factory=list)

    def instruction_count(self) -> int:
        return sum(len(b.instrs) for b in self.blocks)

    def code_size(self) -> int:
        """Rough wire size proxy: instructions + tables (benchmark E9)."""
        return (self.instruction_count()
                + sum(len(o.methods) for o in self.objects)
                + sum(len(g.clauses) for g in self.groups))


@dataclass(slots=True)
class LinkResult:
    """Mapping from bundle-local ids to the destination program area."""

    block_map: dict[int, int]
    object_map: dict[int, int]
    group_map: dict[int, int]
    #: Bundle-local ids that were NOT appended because the destination
    #: already held identical code (see repro.runtime.codecache).
    reused_blocks: frozenset[int] = frozenset()
    reused_objects: frozenset[int] = frozenset()
    reused_groups: frozenset[int] = frozenset()

    def installed_count(self) -> int:
        """How many items this link actually appended."""
        return (len(self.block_map) - len(self.reused_blocks)
                + len(self.object_map) - len(self.reused_objects)
                + len(self.group_map) - len(self.reused_groups))


@dataclass(slots=True)
class BundleManifest:
    """Content digests parallel to a :class:`CodeBundle`.

    ``block_digests[i]`` is the digest of the transitive slice rooted
    at ``bundle.blocks[i]`` (likewise objects/groups) -- see
    :mod:`repro.runtime.codecache` for the digest definition.  The
    manifest travels on the wire next to (or instead of) the bundle so
    the receiver can answer with the subset of code it is missing.
    """

    block_digests: tuple[bytes, ...] = ()
    object_digests: tuple[bytes, ...] = ()
    group_digests: tuple[bytes, ...] = ()

    def __len__(self) -> int:
        return (len(self.block_digests) + len(self.object_digests)
                + len(self.group_digests))

    def matches(self, bundle: CodeBundle) -> bool:
        """Does this manifest have one digest per bundle item?"""
        return (len(self.block_digests) == len(bundle.blocks)
                and len(self.object_digests) == len(bundle.objects)
                and len(self.group_digests) == len(bundle.groups))


# ---------------------------------------------------------------------------
# Extraction (sender side)
# ---------------------------------------------------------------------------


def extract_bundle(
    program: Program,
    block_roots: tuple[int, ...] = (),
    object_roots: tuple[int, ...] = (),
    group_roots: tuple[int, ...] = (),
) -> CodeBundle:
    """Extract the transitive code slice reachable from the given roots."""
    blocks: dict[int, int] = {}
    objects: dict[int, int] = {}
    groups: dict[int, int] = {}
    order_blocks: list[int] = []
    order_objects: list[int] = []
    order_groups: list[int] = []

    def visit_block(bid: int) -> None:
        if bid in blocks:
            return
        if not (0 <= bid < len(program.blocks)):
            raise LinkError(f"block {bid} not in program area")
        blocks[bid] = len(order_blocks)
        order_blocks.append(bid)
        for ins in program.blocks[bid].instrs:
            if ins.op is Op.FORK:
                visit_block(ins.args[0])
            elif ins.op is Op.TROBJ:
                visit_object(ins.args[0])
            elif ins.op in (Op.DEFGROUP, Op.EXPORTCLASS):
                visit_group(ins.args[0])

    def visit_object(oid: int) -> None:
        if oid in objects:
            return
        if not (0 <= oid < len(program.objects)):
            raise LinkError(f"object {oid} not in program area")
        objects[oid] = len(order_objects)
        order_objects.append(oid)
        for bid in program.objects[oid].methods.values():
            visit_block(bid)

    def visit_group(gid: int) -> None:
        if gid in groups:
            return
        if not (0 <= gid < len(program.groups)):
            raise LinkError(f"group {gid} not in program area")
        groups[gid] = len(order_groups)
        order_groups.append(gid)
        for _hint, bid in program.groups[gid].clauses:
            visit_block(bid)

    for oid in object_roots:
        visit_object(oid)
    for gid in group_roots:
        visit_group(gid)
    for bid in block_roots:
        visit_block(bid)

    bundle = CodeBundle()
    for bid in order_blocks:
        src = program.blocks[bid]
        bundle.blocks.append(CodeBlock(
            instrs=tuple(_remap_instr(i, blocks, objects, groups)
                         for i in src.instrs),
            nfree=src.nfree,
            nparams=src.nparams,
            frame_size=src.frame_size,
            name=src.name,
        ))
    for oid in order_objects:
        src_o = program.objects[oid]
        bundle.objects.append(ObjectCode(
            methods={l: blocks[b] for l, b in src_o.methods.items()},
            name=src_o.name,
        ))
    for gid in order_groups:
        src_g = program.groups[gid]
        bundle.groups.append(ClassGroup(
            clauses=tuple((h, blocks[b]) for h, b in src_g.clauses),
            nfree=src_g.nfree,
            name=src_g.name,
        ))
    bundle.entry_blocks = [blocks[b] for b in block_roots]
    bundle.entry_objects = [objects[o] for o in object_roots]
    bundle.entry_groups = [groups[g] for g in group_roots]
    return bundle


def _remap_instr(ins: Instr, blocks: dict[int, int],
                 objects: dict[int, int], groups: dict[int, int]) -> Instr:
    if ins.op is Op.FORK:
        return Instr(Op.FORK, (blocks[ins.args[0]], ins.args[1]))
    if ins.op is Op.TROBJ:
        return Instr(Op.TROBJ, (objects[ins.args[0]], ins.args[1]))
    if ins.op is Op.DEFGROUP:
        return Instr(Op.DEFGROUP, (groups[ins.args[0]],) + ins.args[1:])
    if ins.op is Op.EXPORTCLASS:
        return Instr(Op.EXPORTCLASS, (groups[ins.args[0]],) + ins.args[1:])
    return ins


# ---------------------------------------------------------------------------
# Linking (receiver side)
# ---------------------------------------------------------------------------


def link_bundle(program: Program, bundle: CodeBundle,
                reuse_blocks: dict[int, int] | None = None,
                reuse_objects: dict[int, int] | None = None,
                reuse_groups: dict[int, int] | None = None) -> LinkResult:
    """Append a bundle to ``program``, renumbering all references.

    This is the "dynamically linked to the local program" step of the
    FETCH protocol (and of object migration).

    The ``reuse_*`` maps (bundle-local id -> existing program id) come
    from the per-site code cache: items listed there are *not*
    appended; every cross-reference to them is renumbered onto the
    existing copy instead.  Linking a fully cached bundle is therefore
    a pure renumbering: the program area does not change at all.
    """
    reuse_blocks = reuse_blocks or {}
    reuse_objects = reuse_objects or {}
    reuse_groups = reuse_groups or {}

    def build_map(count: int, reuse: dict[int, int],
                  base: int, what: str) -> dict[int, int]:
        for i, target in reuse.items():
            if not (0 <= i < count):
                raise LinkError(
                    f"reuse map names {what} {i} not in bundle (0..{count - 1})")
            if not (0 <= target < base):
                raise LinkError(
                    f"reuse map targets {what} {target} outside program area")
        mapping = {}
        nxt = base
        for i in range(count):
            if i in reuse:
                mapping[i] = reuse[i]
            else:
                mapping[i] = nxt
                nxt += 1
        return mapping

    block_map = build_map(len(bundle.blocks), reuse_blocks,
                          len(program.blocks), "block")
    object_map = build_map(len(bundle.objects), reuse_objects,
                           len(program.objects), "object")
    group_map = build_map(len(bundle.groups), reuse_groups,
                          len(program.groups), "group")

    # Linked code goes through the Program helpers: ids stay append-only
    # (never renumbered in place), so a block already in the area keeps
    # its id and the tier state it carries (CodeBlock.heads / entries /
    # compiled) across a relink, and every appended block is a new
    # object that starts at zero.
    for i, blk in enumerate(bundle.blocks):
        if i in reuse_blocks:
            continue
        program.add_block(CodeBlock(
            instrs=tuple(_remap_instr(ins, block_map, object_map, group_map)
                         for ins in blk.instrs),
            nfree=blk.nfree,
            nparams=blk.nparams,
            frame_size=blk.frame_size,
            name=blk.name,
        ))
    for i, obj in enumerate(bundle.objects):
        if i in reuse_objects:
            continue
        program.add_object(ObjectCode(
            methods={l: block_map[b] for l, b in obj.methods.items()},
            name=obj.name,
        ))
    for i, grp in enumerate(bundle.groups):
        if i in reuse_groups:
            continue
        program.add_group(ClassGroup(
            clauses=tuple((h, block_map[b]) for h, b in grp.clauses),
            nfree=grp.nfree,
            name=grp.name,
        ))
    return LinkResult(block_map=block_map, object_map=object_map,
                      group_map=group_map,
                      reused_blocks=frozenset(reuse_blocks),
                      reused_objects=frozenset(reuse_objects),
                      reused_groups=frozenset(reuse_groups))
