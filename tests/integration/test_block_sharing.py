"""Block sharing is sound.

A block's tier state -- its predecoded handlers, its entry count, its
generated function -- lives on the ``CodeBlock`` object, so every
program area that holds one block object shares one decode and one
translation.  Both bind things of the area that made them: a TROBJ
handler binds the method table of the object it names, a DEFGROUP
handler the clause list of the group it names, and generated code its
block's own id (its escapes read ``vm.program.blocks[id]``).  So a
block object may be shared only by areas that hold it at one id and
hold equal tables for every object and group its instructions name.

Here the macro workloads run through ``run_workload`` and every area
-- every site's, reaped sites included, and every launch template's
-- is checked for exactly that; and every way of building a block
anew is checked to start it at zero.
"""

import pytest

from repro.compiler import compile_source
from repro.compiler.assembly import Op
from repro.compiler.linker import extract_bundle, link_bundle
from repro.mobility.checkpoint import capture_code, restore_code
from repro.runtime import DiTyCONetwork, launch
from repro.runtime.launch import LaunchCache
from repro.runtime.node import Node
from repro.runtime.wire import decode, encode
from repro.vm import TycoVM
from repro.workloads import WorkloadSpec, run_workload
from repro.workloads import runner

pytestmark = pytest.mark.slow


def areas_of(monkeypatch, workload):
    """Every program area a 300-op run made, by ``id``."""
    nets, areas = [], {}

    class Net(DiTyCONetwork):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            nets.append(self)

    real_remove = Node.remove_site

    def remove_site(node, site):
        areas[id(site.vm.program)] = site.vm.program
        real_remove(node, site)

    with monkeypatch.context() as patch:
        patch.setattr(runner, "DiTyCONetwork", Net)
        patch.setattr(Node, "remove_site", remove_site)
        report = run_workload(WorkloadSpec(workload, seed=7, ops=300))
    assert report.violations == []
    (net,) = nets
    for node in net.world.nodes.values():
        for site in node.sites.values():
            areas[id(site.vm.program)] = site.vm.program
        for entry in node.tycoi.launch._shapes.values():
            if type(entry) is launch._Template:
                areas[id(entry.program)] = entry.program
    return list(areas.values())


def named(block):
    """The object ids and group ids ``block``'s instructions name."""
    objects, groups = set(), set()
    for ins in block.instrs:
        if ins.op is Op.TROBJ:
            objects.add(ins.args[0])
        elif ins.op in (Op.DEFGROUP, Op.EXPORTCLASS):
            groups.add(ins.args[0])
    return objects, groups


@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
def test_a_shared_block_means_one_thing_everywhere(workload, monkeypatch):
    holders = {}        # id(block) -> (block, [(area, block id)])
    for area in areas_of(monkeypatch, workload):
        for block_id, block in enumerate(area.blocks):
            holders.setdefault(id(block), (block, []))[1].append(
                (area, block_id))
    shared = 0
    for block, where in holders.values():
        if len(where) < 2:
            continue
        shared += 1
        objects, groups = named(block)
        (first, first_id), *rest = where
        for area, block_id in rest:
            assert area is not first
            assert block_id == first_id, block.name
            for obj in objects:
                assert area.objects[obj].methods == \
                    first.objects[obj].methods, block.name
            for group in groups:
                assert area.groups[group].clauses == \
                    first.groups[group].clauses, block.name
    assert shared > 0
    # The run tiered shared code up: sharing is not a dead path.
    assert any(block.compiled is not None and len(where) > 2
               for block, where in holders.values())


COUNTER = ("def Count(n) = if n > 0 then Count[n - 1] else print![0] "
           "in Count[3]")


def blank(block):
    return (block.heads, block.entries, block.compiled) == (None, 0, None)


def hot_program():
    """A program run twice, so its blocks carry tier state."""
    program = compile_source(COUNTER)
    for _ in range(2):
        vm = TycoVM(program, engine="compiled")
        vm.boot()
        vm.run()
        assert vm.output == [0]
    assert all(block.compiled is not None for block in program.blocks)
    return program


def test_a_block_built_anew_starts_at_zero():
    donor = hot_program()
    # link_bundle appends new objects.
    area = compile_source("print![7]")
    result = link_bundle(area, extract_bundle(donor, block_roots=(
        donor.main,)))
    appended = sorted(result.block_map.values())
    assert appended and all(blank(area.blocks[i]) for i in appended)
    # So does the wire decoder, for a block and for a bundle.
    assert blank(decode(encode(donor.blocks[donor.main])))
    bundle = decode(encode(extract_bundle(donor, block_roots=(donor.main,))))
    assert bundle.blocks and all(blank(block) for block in bundle.blocks)
    # And a checkpoint's code part, captured and restored.
    restored = restore_code(capture_code(donor))
    assert restored.blocks == donor.blocks
    assert all(blank(block) for block in restored.blocks)


def test_a_re_tupled_literal_block_starts_at_zero():
    shape = "def K(n) = if n < {} then K[n + 1] else print![n] in K[{}]"
    cache = LaunchCache()
    made = [cache.compile(shape.format(n + 2, n), f"s{n}")[0]
            for n in range(4)]
    hit = made[-1]
    for program in made[2:]:
        for _ in range(2):
            vm = TycoVM(program, engine="compiled")
            vm.boot()
            vm.run()
    (template,) = [entry for entry in cache._shapes.values()
                   if type(entry) is launch._Template]
    patched = [block_id for block_id, _pcs, _idx in template.patches]
    assert patched
    late = cache.compile(shape.format(9, 5), "late")[0]
    for block_id in patched:
        assert hit.blocks[block_id].compiled is not None
        block = late.blocks[block_id]
        assert block is not hit.blocks[block_id]
        # Decoded (its handlers patched from the template's), untried.
        assert block.heads is not None
        assert (block.entries, block.compiled) == (0, None)
