"""Tests for content-addressed code (repro.runtime.codecache): the
per-site digest table, the per-node code store, and the
offer/need/reply fetch protocol built on top of them."""

import copy

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compiler import LinkError, compile_source, extract_bundle
from repro.compiler.assembly import CodeBlock, Instr, Op
from repro.compiler.linker import BundleManifest, CodeBundle
from repro.runtime import DiTyCONetwork
from repro.runtime.codecache import (
    BLOCK,
    DIGEST_SIZE,
    GROUP,
    OBJECT,
    CodeCache,
    CodeStore,
    digest_item,
    link_bundle_cached,
    manifest_for_bundle,
    verified_roots,
    verify_cache_integrity,
    verify_store_integrity,
)
from repro.runtime.site import DeliveryError
from repro.runtime.wire import KIND_CODE_REPLY, Packet, encode
from repro.testkit import ChaosWorld
from repro.testkit.invariants import check_no_stale_code
from repro.vm.dispatch import predecode


NESTED = """
def Outer(x) =
  x?{ go(p) = (p?(q) = (def Inner(y) = q![y] in Inner[1])) }
in new a Outer[a]
"""


def _program_bytes(prog):
    """Canonical byte image of a program's code areas."""
    return encode(extract_bundle(
        prog,
        block_roots=tuple(range(len(prog.blocks))),
        object_roots=tuple(range(len(prog.objects))),
        group_roots=tuple(range(len(prog.groups))),
    ))


class TestDigests:
    def test_digest_width(self):
        prog = compile_source(NESTED)
        assert len(digest_item(prog, GROUP, 0)) == DIGEST_SIZE

    def test_digest_stable_for_one_program(self):
        # Digests only need to be stable per program area: the protocol
        # compares sender digests against digests of the *shipped
        # bytes*, never across independent compiles (whose object names
        # embed compile-time serials).
        prog = compile_source(NESTED)
        for kind, table in ((BLOCK, prog.blocks), (OBJECT, prog.objects),
                            (GROUP, prog.groups)):
            for i in range(len(table)):
                assert digest_item(prog, kind, i) == \
                    digest_item(prog, kind, i)

    def test_different_code_different_digest(self):
        p1 = compile_source("def C(x) = x![1] in 0")
        p2 = compile_source("def C(x) = x![2] in 0")
        assert digest_item(p1, GROUP, 0) != digest_item(p2, GROUP, 0)

    def test_memo_is_used(self):
        prog = compile_source(NESTED)
        memo = {}
        d1 = digest_item(prog, GROUP, 0, memo)
        assert (GROUP, 0) in memo
        memo[(GROUP, 0)] = b"sentinel"
        assert digest_item(prog, GROUP, 0, memo) == b"sentinel"
        assert digest_item(prog, GROUP, 0) == d1

    def test_manifest_matches_source_program_digests(self):
        """The load-bearing property of the whole protocol: digests of
        bundle items equal digests of the source items they were
        extracted from, so sender and receiver agree with no shared
        state."""
        prog = compile_source(NESTED)
        bundle = extract_bundle(prog, group_roots=(0,))
        manifest = manifest_for_bundle(bundle)
        assert manifest.matches(bundle)
        root = bundle.entry_groups[0]
        assert manifest.group_digests[root] == digest_item(prog, GROUP, 0)

    def test_manifest_digest_survives_wire_round_trip(self):
        from repro.runtime.wire import decode

        prog = compile_source(NESTED)
        bundle = extract_bundle(prog, group_roots=(0,))
        shipped = decode(encode(bundle))
        assert manifest_for_bundle(shipped) == manifest_for_bundle(bundle)


class TestCodeCache:
    def _cache(self, source="0"):
        return CodeCache(compile_source(source))

    def test_register_and_lookup(self):
        cache = self._cache()
        cache.register(b"d1", BLOCK, 3)
        assert cache.lookup(b"d1") == (BLOCK, 3)
        assert cache.has(b"d1")
        assert not cache.has(b"d2")
        assert len(cache) == 1

    def test_register_first_wins(self):
        # Two items may digest equal (identical code); the cache must
        # keep a stable mapping, not flap between copies.
        cache = self._cache()
        cache.register(b"d1", BLOCK, 3)
        cache.register(b"d1", BLOCK, 9)
        assert cache.lookup(b"d1") == (BLOCK, 3)

    def test_register_own(self):
        prog = compile_source(NESTED)
        cache = CodeCache(prog)
        digest = cache.register_own(GROUP, 0)
        assert cache.lookup(digest) == (GROUP, 0)
        assert digest == digest_item(prog, GROUP, 0)

    def test_in_flight_marks(self):
        cache = self._cache()
        assert not cache.is_in_flight(b"d1")
        cache.mark_in_flight(b"d1")
        assert cache.is_in_flight(b"d1")
        cache.clear_in_flight(b"d1")
        assert not cache.is_in_flight(b"d1")

    def test_installed_digest_is_never_in_flight(self):
        cache = self._cache()
        cache.mark_in_flight(b"d1")
        cache.register(b"d1", BLOCK, 0)
        assert not cache.is_in_flight(b"d1")

    def test_generation_bump_invalidates_in_flight(self):
        # The restart rule: a crash may have eaten the reply, so marks
        # from the old generation must not suppress a re-request.
        cache = self._cache()
        cache.mark_in_flight(b"d1")
        cache.bump_generation()
        assert cache.generation == 1
        assert not cache.is_in_flight(b"d1")
        # A fresh mark in the new generation works normally.
        cache.mark_in_flight(b"d2")
        assert cache.is_in_flight(b"d2")


class TestLinkBundleCached:
    def test_cold_link_installs_and_registers(self):
        src = compile_source(NESTED)
        bundle = extract_bundle(src, group_roots=(0,))
        manifest = manifest_for_bundle(bundle)
        dst = compile_source("0")
        cache = CodeCache(dst)
        result = link_bundle_cached(dst, bundle, manifest, cache)
        assert result.installed_count() == len(manifest)
        assert cache.installs == len(manifest)
        for digest in manifest.group_digests:
            assert cache.has(digest)
        assert verify_cache_integrity(cache) == []

    def test_warm_link_is_pure_renumbering(self):
        src = compile_source(NESTED)
        bundle = extract_bundle(src, group_roots=(0,))
        manifest = manifest_for_bundle(bundle)
        dst = compile_source("0")
        cache = CodeCache(dst)
        r1 = link_bundle_cached(dst, bundle, manifest, cache)
        image = _program_bytes(dst)
        r2 = link_bundle_cached(dst, bundle, manifest, cache)
        # Idempotent: nothing appended, byte-identical program area,
        # and the second link resolves to the same installed ids.
        assert r2.installed_count() == 0
        assert _program_bytes(dst) == image
        assert r2.block_map == r1.block_map
        assert r2.object_map == r1.object_map
        assert r2.group_map == r1.group_map
        assert r2.reused_blocks == frozenset(r2.block_map)

    def test_no_cache_degenerates_to_plain_link(self):
        src = compile_source(NESTED)
        bundle = extract_bundle(src, group_roots=(0,))
        manifest = manifest_for_bundle(bundle)
        dst = compile_source("0")
        blocks_before = len(dst.blocks)
        r1 = link_bundle_cached(dst, bundle, manifest, None)
        r2 = link_bundle_cached(dst, bundle, manifest, None)
        assert len(dst.blocks) == blocks_before + 2 * len(bundle.blocks)
        assert set(r1.block_map.values()).isdisjoint(r2.block_map.values())

    def test_manifest_shape_mismatch_rejected(self):
        src = compile_source(NESTED)
        bundle = extract_bundle(src, group_roots=(0,))
        manifest = manifest_for_bundle(bundle)
        other = extract_bundle(compile_source("new a x?(w) = a![w]"),
                               block_roots=(0,))
        dst = compile_source("0")
        with pytest.raises(LinkError):
            link_bundle_cached(dst, other, manifest, CodeCache(dst))

    def test_integrity_detects_wrong_mapping(self):
        prog = compile_source(NESTED)
        cache = CodeCache(prog)
        cache.register(digest_item(prog, BLOCK, 0), BLOCK, 1)  # lie
        problems = verify_cache_integrity(cache)
        assert len(problems) == 1
        assert "stale code" in problems[0]

    def test_integrity_detects_dangling_mapping(self):
        prog = compile_source(NESTED)
        cache = CodeCache(prog)
        cache.register(b"x" * DIGEST_SIZE, GROUP, 999)
        problems = verify_cache_integrity(cache)
        assert len(problems) == 1
        assert "missing" in problems[0]


# -- protocol level ----------------------------------------------------------

APPLET_SERVER = "export def Applet(x) = x![7 * 6] in 0"


def two_node_net(**kwargs):
    net = DiTyCONetwork(**kwargs)
    net.add_nodes(["10.0.0.1", "10.0.0.2"])
    return net


class TestFetchProtocol:
    def test_cold_fetch_needs_code_once(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", APPLET_SERVER)
        net.launch("10.0.0.2", "client",
                   "import Applet from server in "
                   "new v (Applet[v] | v?(w) = print![w])")
        net.run()
        client = net.site("client")
        assert client.output == [42]
        assert client.stats.code_cache_misses == 1
        assert client.stats.code_needs_sent == 1
        assert client.stats.code_items_installed > 0
        assert net.site("server").stats.code_replies_served == 1

    def test_warm_refetch_moves_no_code(self):
        """With the instantiation-level fetch cache ablated, a second
        FETCH of the same class still crosses the wire -- but the offer
        digest hits the code cache, so zero code bytes move."""
        net = two_node_net(fetch_cache=False)
        net.launch("10.0.0.1", "server", APPLET_SERVER)
        # Sequenced instantiations: the second FETCH starts only after
        # the first completed, so it cannot coalesce -- it must be a
        # genuine cache hit.
        net.launch("10.0.0.2", "client", """
        import Applet from server in
        new v v2 (
          Applet[v]
        | v?(w) = (Applet[v2] | v2?(u) = print![w + u])
        )
        """)
        net.run()
        client = net.site("client")
        assert client.output == [84]
        assert client.stats.fetch_requests_sent == 2
        assert client.stats.code_cache_hits == 1
        assert client.stats.code_needs_sent == 1          # only the first
        assert net.site("server").stats.code_replies_served == 1

    def test_concurrent_fetches_coalesce_upstream(self):
        """Two concurrent FETCHes of the *same class* coalesce before
        the wire: the second instantiation parks on the pending FETCH,
        so only one request (and one code download) happens."""
        net = two_node_net(fetch_cache=False)
        net.launch("10.0.0.1", "server", APPLET_SERVER)
        net.launch("10.0.0.2", "client", """
        import Applet from server in
        new v v2 (
          Applet[v] | Applet[v2]
        | (v?(w) = print![w]) | v2?(u) = print![u]
        )
        """)
        net.run()
        client = net.site("client")
        assert sorted(client.output) == [42, 42]
        assert client.stats.fetch_requests_sent == 1
        assert client.stats.code_needs_sent == 1
        assert net.site("server").stats.code_replies_served == 1
        assert net.is_quiescent()

    def test_concurrent_offers_coalesce_on_digests(self):
        """Digest-level request coalescing: two objects with identical
        code ship concurrently to one site.  Both offers miss the cache
        (2 misses), but the second offer finds its digests already in
        flight and parks WITHOUT sending a second CODE_NEED -- one
        reply completes both migrations."""
        net = two_node_net()
        net.launch("10.0.0.1", "holder",
                   "export new spot (spot![5] | spot![6])")
        net.launch("10.0.0.2", "mover",
                   "import spot from holder in "
                   "((spot?(w) = print![w]) | spot?(w) = print![w])")
        net.run()
        holder, mover = net.site("holder"), net.site("mover")
        assert sorted(mover.output) == [5, 6]
        assert holder.stats.code_cache_misses == 2
        assert holder.stats.code_needs_sent == 1
        assert mover.stats.code_replies_served == 1
        assert net.is_quiescent()

    def test_cache_disabled_ablation_refetches_code(self):
        net = two_node_net(fetch_cache=False, code_cache=False)
        net.launch("10.0.0.1", "server", APPLET_SERVER)
        net.launch("10.0.0.2", "client", """
        import Applet from server in
        new v v2 (
          Applet[v]
        | v?(w) = (Applet[v2] | v2?(u) = print![w + u])
        )
        """)
        net.run()
        client = net.site("client")
        assert client.output == [84]
        assert client.codecache is None
        assert client.stats.code_needs_sent == 2
        assert net.site("server").stats.code_replies_served == 2

    def test_shipped_object_registers_digests(self):
        net = two_node_net()
        net.launch("10.0.0.1", "holder", "export new spot spot![5]")
        net.launch("10.0.0.2", "mover",
                   "import spot from holder in spot?(w) = print![w * 2]")
        net.run()
        holder = net.site("holder")
        assert net.site("mover").output == [10]
        # The receiver installed the method code under its digests and
        # the cache is consistent with the program area.
        assert holder.stats.code_items_installed > 0
        assert len(holder.codecache) > 0
        assert verify_cache_integrity(holder.codecache) == []

    def test_caches_stay_consistent_after_mixed_traffic(self):
        net = two_node_net()
        net.launch("10.0.0.1", "server", APPLET_SERVER)
        net.launch("10.0.0.2", "client",
                   "import Applet from server in "
                   "new v (Applet[v] | v?(w) = print![w])")
        net.launch("10.0.0.1", "holder", "export new spot spot![5]")
        net.launch("10.0.0.2", "sender",
                   "import spot from holder in spot?(w) = print![w]")
        net.run()
        for name in ("server", "client", "holder", "sender"):
            site = net.site(name)
            assert verify_cache_integrity(site.codecache) == []
            assert not site._pending_code


# -- the node's code store ---------------------------------------------------

N1, N2, N3 = "10.0.0.1", "10.0.0.2", "10.0.0.3"

FETCH_CLIENT = ("import Applet from server in "
                "new v (Applet[v] | v?(w) = print![w])")


def three_node_net(**kwargs):
    net = DiTyCONetwork(**kwargs)
    net.add_nodes([N1, N2, N3])
    return net


def run_until(net, condition, step_s=2e-6, limit=2000):
    """Advance the virtual clock in thin slices until ``condition()``."""
    for _ in range(limit):
        if condition():
            return
        net.world.run(max_time=net.world.time + step_s)
    raise AssertionError("condition never held")


class TestCodeStore:
    def _slice(self, source=NESTED):
        prog = compile_source(source)
        return digest_item(prog, GROUP, 0), extract_bundle(prog,
                                                           group_roots=(0,))

    def test_digest_item_deposits_the_slice_it_extracted(self):
        prog = compile_source(NESTED)
        store, memo = CodeStore(), {}
        digest = digest_item(prog, GROUP, 0, memo, store)
        bundle, manifest = store.get(digest)
        assert encode(bundle) == encode(extract_bundle(prog,
                                                       group_roots=(0,)))
        assert manifest == manifest_for_bundle(bundle)
        # A memo hit extracts nothing, so it deposits nothing.
        other = CodeStore()
        assert digest_item(prog, GROUP, 0, memo, other) == digest
        assert len(other) == 0

    def test_first_deposit_wins(self):
        digest, bundle = self._slice()
        store = CodeStore()
        entry = store.deposit(digest, bundle)
        assert store.deposit(digest, CodeBundle()) is entry
        assert len(store) == 1

    def test_full_store_is_emptied_not_grown(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.codecache.MAX_SLICES", 2)
        digest, bundle = self._slice()
        store = CodeStore()
        for i in range(2):
            store.deposit(bytes([i]) * DIGEST_SIZE, bundle)
        store.deposit(digest, bundle)
        assert len(store) == 1 and store.get(digest) is not None
        assert store.evictions == 2

    def test_integrity_catches_a_slice_under_the_wrong_key(self):
        digest, bundle = self._slice()
        store = CodeStore()
        store.deposit(digest, bundle)
        assert verify_store_integrity(store) == []
        store.deposit(b"k" * DIGEST_SIZE, bundle)
        problems = verify_store_integrity(store)
        assert len(problems) == 1 and "stale code" in problems[0]


class TestLinkedSlot:
    """`CodeStore.link`: a store entry remembers what its last full
    link appended, and hands the same objects to the next area of that
    shape.  Whichever way a site got the code, its program area, its
    digest table and its counts are those of `link_bundle_cached`."""

    SMALL = "print![1]"
    LARGER = "new c (c![1] | c?(v) = print![v])"

    def _store(self):
        store = CodeStore()
        # Group 1 is `Outer`: four blocks, two objects, two groups.
        digest = digest_item(compile_source(NESTED), GROUP, 1, None, store)
        return store, digest

    def _link(self, store, digest, source):
        program = compile_source(source)
        ref_program = copy.deepcopy(program)
        cache = CodeCache(program)
        base = len(program.blocks)
        result = store.link(digest, program, cache)
        # What the plain linker makes of an equal area.
        ref_cache = CodeCache(ref_program)
        ref = link_bundle_cached(ref_program, *store.get(digest), ref_cache)
        assert program.blocks[base:] == ref_program.blocks[base:]
        assert len(program.blocks) == len(ref_program.blocks)
        assert (program.objects, program.groups) == (ref_program.objects,
                                                     ref_program.groups)
        assert cache.snapshot() == ref_cache.snapshot()
        assert cache.installs == ref_cache.installs == len(store.get(digest)[1])
        assert (result.block_map, result.object_map, result.group_map,
                result.installed_count()) == (
            ref.block_map, ref.object_map, ref.group_map,
            ref.installed_count())
        assert verify_cache_integrity(cache) == []
        for block_id, dec in program.decoded_cache.items():
            assert dec.instrs is program.blocks[block_id].instrs
        return program, cache, base

    def test_unknown_digest_links_nothing(self):
        program = compile_source(self.SMALL)
        assert CodeStore().link(b"?" * DIGEST_SIZE, program,
                                CodeCache(program)) is None

    def test_areas_of_one_shape_share_blocks_and_plans(self):
        store, digest = self._store()
        first, _c1, base = self._link(store, digest, self.SMALL)
        slot = store._linked[digest]
        assert slot.plans is None and first.decoded_cache == {}
        second, _c2, _ = self._link(store, digest, self.SMALL)
        third, _c3, _ = self._link(store, digest, self.SMALL)
        assert store._linked[digest] is slot       # one slot, reused
        linked = range(base, len(first.blocks))
        assert len(linked) >= 3
        for program in (second, third):
            assert program.blocks is not first.blocks
            assert program.decoded_cache is not slot.plans
            for i in linked:
                assert program.blocks[i] is first.blocks[i]
                assert program.decoded_cache[i] is slot.plans[i]
            assert program.objects[0] is first.objects[0]
            assert program.groups[-1] is first.groups[-1]
            assert set(program.decoded_cache) == set(linked)
        # The shared plan is the plan predecode builds here.
        for i in linked:
            fresh = predecode(third, third.blocks[i])
            assert [h.__code__ for h in fresh.heads] == \
                [h.__code__ for h in slot.plans[i].heads]
        assert verify_store_integrity(store) == []

    def test_another_area_shape_links_in_full_with_its_own_ids(self):
        store, digest = self._store()
        first, _c, _b = self._link(store, digest, self.SMALL)
        self._link(store, digest, self.SMALL)
        assert store._linked[digest].plans is not None
        other, _c, base = self._link(store, digest, self.LARGER)
        assert base > len(compile_source(self.SMALL).blocks)
        assert not any(block is mine for block in other.blocks
                       for mine in first.blocks)
        # It is the last shape now; the small one links in full again.
        slot = store._linked[digest]
        assert slot.area[0] == base and slot.plans is None
        again, _c, _b = self._link(store, digest, self.SMALL)
        assert store._linked[digest] is not slot
        assert again.decoded_cache == {}

    def test_a_table_that_knows_an_item_links_item_by_item(self):
        store, digest = self._store()
        self._link(store, digest, self.SMALL)
        slot = store._linked[digest]
        # A site that already holds the slice: pure renumbering, and
        # nothing for the slot to remember.
        program = compile_source(self.SMALL)
        cache = CodeCache(program)
        store.link(digest, program, cache)
        size = len(program.blocks)
        result = store.link(digest, program, cache)
        assert result.installed_count() == 0 and len(program.blocks) == size
        assert store._linked[digest] is slot

    def test_eviction_drops_the_slot(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.codecache.MAX_SLICES", 2)
        store, digest = self._store()
        self._link(store, digest, self.SMALL)
        assert digest in store._linked
        bundle = store.get(digest)[0]
        store.deposit(b"a" * DIGEST_SIZE, bundle)
        assert digest in store._linked
        store.deposit(b"b" * DIGEST_SIZE, bundle)
        assert len(store) == 1 and store._linked == {}

    def test_sites_of_one_node_share_the_class_they_fetched(self):
        net = two_node_net()
        net.launch(N1, "server", APPLET_SERVER)
        sites = []
        for name in ("c1", "c2", "c3", "c4"):
            sites.append(net.launch(N2, name, FETCH_CLIENT))
            net.run()
        wide = net.launch(N2, "wide", "import Applet from server in new v ("
                          "Applet[v] | v?(w) = new k (k![w] | k?(z) = print![z]))")
        net.run()
        assert [s.output for s in sites + [wide]] == [[42]] * 5
        c1, c2, c3, c4 = sites
        assert c1.stats.code_cache_misses == 1     # the node's one download
        for site in (c2, c3, c4, wide):
            assert site.stats.code_cache_hits == 1
            assert site.stats.code_items_installed == \
                c1.stats.code_items_installed > 0
            assert site.codecache.installs == c1.codecache.installs
            assert verify_cache_integrity(site.codecache) == []
        last = len(c2.vm.program.blocks) - 1
        for site in (c3, c4):                      # c2's area shape again
            assert site.codecache.snapshot() == c2.codecache.snapshot()
            assert site.vm.program.blocks[last] is c2.vm.program.blocks[last]
            assert site.vm.program.groups[-1] is c2.vm.program.groups[-1]
        assert c4.vm.program.decoded_cache[last] is \
            c3.vm.program.decoded_cache[last]
        assert len(wide.vm.program.blocks) > last + 1
        assert wide.vm.program.blocks[-1] is not c2.vm.program.blocks[last]
        assert check_no_stale_code(net) == []
        assert verify_store_integrity(net.node(N2).codestore) == []


class TestNodeStore:
    """Code belongs to the node: once per node, exactly."""

    def _two_clients(self, reap_between: bool, **kwargs):
        net = two_node_net(**kwargs)
        net.launch(N1, "server", APPLET_SERVER)
        first = net.launch(N2, "c1", FETCH_CLIENT)
        net.run()
        assert first.output == [42]
        if reap_between:
            assert net.node(N2).tycoi.reap() == 1
        second = net.launch(N2, "c2", FETCH_CLIENT)
        net.run()
        assert second.output == [42]
        assert net.is_quiescent()
        return net, first, second

    @pytest.mark.parametrize("reap_between", [False, True])
    def test_second_fetching_site_links_from_the_node(self, reap_between):
        """The macro case: the op that downloaded the class is gone 32
        arrivals later; what it downloaded is not."""
        net, first, second = self._two_clients(reap_between)
        assert first.stats.code_cache_misses == 1
        assert first.stats.code_needs_sent == 1
        assert second.stats.code_cache_hits == 1
        assert second.stats.code_cache_misses == 0
        assert second.stats.code_needs_sent == 0
        assert second.stats.code_items_installed > 0
        assert net.site("server").stats.code_replies_served == 1
        assert verify_cache_integrity(second.codecache) == []
        assert check_no_stale_code(net) == []

    def test_second_shipo_receiver_links_from_the_node(self):
        net = two_node_net()
        net.launch(N1, "h1", "export new spot spot![5]")
        net.launch(N1, "h2", "export new spot spot![6]")
        net.run()
        mover = "import spot from {} in spot?(w) = print![w * 2]"
        m1 = net.launch(N2, "m1", mover.format("h1"))
        net.run()
        m2 = net.launch(N2, "m2", mover.format("h2"))
        net.run()
        h1, h2 = net.site("h1"), net.site("h2")
        assert (m1.output, m2.output) == ([10], [12])
        assert (h1.stats.code_cache_misses, h1.stats.code_needs_sent) == (1, 1)
        assert (h2.stats.code_cache_hits, h2.stats.code_needs_sent) == (1, 0)
        assert m1.stats.code_replies_served == 1
        assert m2.stats.code_replies_served == 0
        assert net.is_quiescent()

    def test_second_node_downloads_and_the_owner_serves_from_its_store(
            self, monkeypatch):
        import repro.runtime.codecache as codecache_mod
        import repro.runtime.site as site_mod

        net = three_node_net()
        server = net.launch(N1, "server", APPLET_SERVER)
        near = net.launch(N2, "near", FETCH_CLIENT)
        net.run()
        extracted_from = []

        def spy(program, **roots):
            extracted_from.append(program)
            return extract_bundle(program, **roots)

        monkeypatch.setattr(site_mod, "extract_bundle", spy)
        monkeypatch.setattr(codecache_mod, "extract_bundle", spy)
        far = net.launch(N3, "far", FETCH_CLIENT)
        net.run()
        assert (near.output, far.output) == ([42], [42])
        assert far.stats.code_needs_sent == 1         # a node of its own
        assert server.stats.code_replies_served == 2
        # ... and the second reply was neither extracted nor digested
        # again: the server's program area was not walked once.
        assert extracted_from                         # far verified it
        assert not any(p is server.vm.program for p in extracted_from)
        assert len(net.node(N2).codestore) == len(net.node(N3).codestore) == 1

    def test_ablated_cache_ships_every_time(self):
        net, first, second = self._two_clients(False, code_cache=False)
        assert net.node(N2).codestore is None
        assert first.codestore is None and second.codestore is None
        assert second.stats.code_cache_hits == 0
        assert second.stats.code_needs_sent == 1
        assert net.site("server").stats.code_replies_served == 2

    def test_bare_site_has_a_private_store(self):
        from repro.runtime.nameservice import NameService
        from repro.runtime.site import Site

        site = Site("s", 1, N1, compile_source("0"), NameService())
        assert isinstance(site.codestore, CodeStore)
        lone = Site("t", 2, N1, compile_source("0"), NameService(),
                    code_cache=False)
        assert lone.codestore is None

    def test_migrated_site_links_from_its_new_node(self):
        """The offer reaches the site at its new home (it was frozen
        when the owner answered); the new home already holds the
        slice, so no CODE_NEED is ever sent."""
        net = three_node_net()
        server = net.launch(N1, "server", APPLET_SERVER)
        net.launch(N3, "resident", FETCH_CLIENT)
        net.run()
        mover = net.launch(N2, "mover", FETCH_CLIENT)
        run_until(net, lambda: mover.stats.fetch_requests_sent == 1
                  and not mover.outgoing)
        net.migrate("mover", N3)
        net.run()
        moved = net.site("mover")
        assert moved.ip == N3 and moved.output == [42]
        assert moved.codestore is net.node(N3).codestore
        assert moved.stats.code_cache_hits == 1
        assert moved.stats.code_needs_sent == 0
        assert server.stats.code_replies_served == 1
        assert len(net.node(N2).codestore) == 0
        assert net.is_quiescent()

    def test_redriven_offer_completes_from_the_store(self):
        """A parked offer whose reply was lost finds, when the node
        re-drives it, that a neighbour downloaded the slice since."""

        class LosesFirstReply(ChaosWorld):
            lost = 0

            def _admit_packet(self, src_ip, dst_ip, data):
                if not self.lost and b"code_reply" in data:
                    self.lost = 1
                    self.chaos_dropped += 1
                    return 0
                return 1

        net = DiTyCONetwork(world=LosesFirstReply(seed=1))
        net.add_nodes([N1, N2])
        net.launch(N1, "server", APPLET_SERVER)
        unlucky = net.launch(N2, "unlucky", FETCH_CLIENT)
        net.run()
        assert unlucky.is_blocked() and unlucky.stats.code_needs_sent == 1
        net.launch(N2, "lucky", FETCH_CLIENT)
        net.run()
        assert unlucky.is_blocked()
        net.node(N2).on_link_reset(N1)
        net.run()
        assert unlucky.output == [42]
        assert unlucky.stats.code_needs_sent == 1     # never asked again
        assert net.is_quiescent()

    def test_crash_between_offer_and_reply_redrives_to_one_copy(self):
        net = two_node_net()
        server = net.launch(N1, "server", APPLET_SERVER)
        client = net.launch(N2, "client", FETCH_CLIENT)
        run_until(net, lambda: client.stats.code_needs_sent == 1
                  and not client.outgoing)
        world = net.world
        world.fail_node(N2)
        net.run()                      # the reply dies at the dead node
        assert world.dropped_packets >= 1 and client.output == []
        world.restart_node(N2)
        net.run()
        assert client.output == [42]
        assert client.stats.code_needs_sent == 2
        assert server.stats.code_replies_served == 2
        assert len(net.node(N2).codestore) == 1
        assert net.is_quiescent()
        assert check_no_stale_code(net) == []

    def test_duplicated_reply_is_idempotent(self):
        class Doubles(ChaosWorld):
            def _admit_packet(self, src_ip, dst_ip, data):
                return 2

        areas = []
        for world in (ChaosWorld(seed=1), Doubles(seed=1)):
            net = DiTyCONetwork(world=world)
            net.add_nodes([N1, N2])
            server = net.launch(N1, "server", APPLET_SERVER)
            client = net.launch(N2, "client", FETCH_CLIENT)
            net.run()
            assert client.output == [42]
            assert len(net.node(N2).codestore) == 1
            assert check_no_stale_code(net) == []
            assert net.is_quiescent()
            prog = client.vm.program
            areas.append((len(prog.blocks), len(prog.objects),
                          len(prog.groups)))
        # The second copy of the reply was a pure renumbering.
        assert server.stats.code_replies_served == 2
        assert areas[0] == areas[1]


class TestOrphanNeed:
    """A reaped site takes neither its offered code nor the world
    with it: its node answers from the store."""

    def _ship_and_reap(self, **kwargs):
        net = three_node_net(**kwargs)
        net.launch(N1, "holder", "export new spot spot![5]")
        net.launch(N3, "sink", "export new done done?(v) = print![v]")
        net.run()
        mover = net.launch(
            N2, "mover",
            "import spot from holder in import done from sink in "
            "spot?(w) = done![w * 2]")
        run_until(net, lambda: mover._ship_offers and mover.is_idle())
        return net

    def test_node_answers_for_a_reaped_site(self):
        net = self._ship_and_reap()
        assert net.node(N2).tycoi.reap() == 1
        net.run()
        assert net.site("sink").output == [10]
        assert net.is_quiescent()
        assert net.node(N2).tycod.stats.orphan_needs_dropped == 0
        assert check_no_stale_code(net) == []

    @pytest.mark.parametrize("how", ["ablated", "evicted"])
    def test_unanswerable_need_blocks_and_does_not_raise(self, how):
        from repro.obs import TraceCollector

        net = self._ship_and_reap(code_cache=how != "ablated")
        events = TraceCollector()
        net.world.obs.subscribe(events)
        node = net.node(N2)
        assert node.tycoi.reap() == 1
        if how == "evicted":
            node.codestore._slices.clear()
        net.run()                      # must not raise LookupError
        assert net.site("sink").output == []
        assert net.site("holder").is_blocked()
        assert node.tycod.stats.orphan_needs_dropped == 1
        assert [e.kind for e in events.events].count("code-orphan") == 1

    def test_other_mail_for_a_reaped_site_is_still_a_fault(self):
        net = self._ship_and_reap()
        node = net.node(N2)
        mover_id = net.site("mover").site_id
        node.tycoi.reap()
        stray = Packet(kind="message", src_ip=N1, src_site_id=1,
                       dest_ip=N2, dest_site_id=mover_id,
                       payload=(1, "val", ()))
        with pytest.raises(LookupError, match="no site"):
            node.receive(encode(stray))


# -- nothing unverified is linked or stored ----------------------------------

TWO_CLASSES = """
export def Applet(x) = (x![7 * 6] | new t (t![1] | t?(u) = 0)) in
export def Other(x) = x![99] in 0
"""


def _tamper(bundle, manifest, kind, pick, other):
    """One dishonest CODE_REPLY body per mutation class."""
    blocks = list(bundle.blocks)
    if kind == "operand":
        sites = [(b, i) for b, blk in enumerate(blocks)
                 for i, ins in enumerate(blk.instrs)
                 if ins.op is Op.PUSHC and isinstance(ins.args[0], int)]
        b, i = sites[pick % len(sites)]
        blk = blocks[b]
        instrs = list(blk.instrs)
        instrs[i] = Instr(Op.PUSHC, (instrs[i].args[0] + 1,))
        blocks[b] = CodeBlock(tuple(instrs), blk.nfree, blk.nparams,
                              blk.frame_size, blk.name)
    elif kind == "swap":
        digests = list(manifest.block_digests)
        i = pick % (len(digests) - 1)
        digests[i], digests[i + 1] = digests[i + 1], digests[i]
        manifest = BundleManifest(tuple(digests), manifest.object_digests,
                                  manifest.group_digests)
    elif kind == "drop":
        del blocks[-1 - pick % (len(blocks) - 1)]
        if pick % 2:        # with and without a manifest cut to fit
            manifest = BundleManifest(manifest.block_digests[:len(blocks)],
                                      manifest.object_digests,
                                      manifest.group_digests)
    elif kind == "other-class":
        return other
    return CodeBundle(blocks, bundle.objects, bundle.groups,
                      bundle.entry_blocks, bundle.entry_objects,
                      bundle.entry_groups), manifest


class TestReplyVerification:
    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["operand", "swap", "drop", "other-class"]),
           pick=st.integers(0, 50))
    def test_dishonest_reply_changes_nothing_and_honest_one_installs(
            self, kind, pick):
        net = two_node_net()
        server = net.launch(N1, "server", TWO_CLASSES)
        client = net.launch(N2, "client", FETCH_CLIENT)
        run_until(net, lambda: bool(client._pending_code))
        (pkey, (needed, _payload)), = client._pending_code.items()
        slices = {}
        for hint, class_id in server._class_export_names.items():
            bundle = extract_bundle(
                server.vm.program,
                group_roots=(server._class_exports[class_id].group_id,))
            slices[hint] = (bundle, manifest_for_bundle(bundle))
        honest = slices["Applet"]
        assert [d for _k, _i, d in verified_roots(*honest)] == list(needed)
        store = net.node(N2).codestore
        image = _program_bytes(client.vm.program)
        table = client.codecache.snapshot()

        def reply(body):
            return Packet(kind=KIND_CODE_REPLY, src_ip=pkey[0],
                          src_site_id=pkey[1], dest_ip=N2,
                          dest_site_id=client.site_id,
                          payload=(pkey[2], pkey[3], *body))

        client.incoming.append(reply(_tamper(*honest, kind, pick,
                                             slices["Other"])))
        with pytest.raises(DeliveryError):
            client.pump_incoming()
        assert _program_bytes(client.vm.program) == image
        assert client.codecache.snapshot() == table
        assert len(store) == 0
        assert pkey in client._pending_code
        # The honest reply that follows installs.
        client.incoming.append(reply(honest))
        client.pump_incoming()
        assert not client._pending_code
        assert store.get(needed[0]) is not None
        net.run()
        assert client.output == [42]
        assert check_no_stale_code(net) == []

    def test_unsolicited_honest_reply_is_linked_but_not_stored(self):
        """A duplicate that arrives after its offer completed is the
        parent's idempotent relink; nothing was asked for, so nothing
        is deposited."""
        net = two_node_net()
        server = net.launch(N1, "server", TWO_CLASSES)
        client = net.launch(N2, "client", FETCH_CLIENT)
        net.run()
        other = extract_bundle(
            server.vm.program,
            group_roots=(server._class_exports[
                server._class_export_names["Other"]].group_id,))
        client.incoming.append(Packet(
            kind=KIND_CODE_REPLY, src_ip=N1, src_site_id=server.site_id,
            dest_ip=N2, dest_site_id=client.site_id,
            payload=("fetch", 99, other, manifest_for_bundle(other))))
        client.pump_incoming()
        assert len(net.node(N2).codestore) == 1
        assert verify_cache_integrity(client.codecache) == []


class TestCodeHooksStayCold:
    """The store is fed where a digest already happened, nowhere else:
    workloads that move no code never extract, link or digest."""

    @pytest.mark.parametrize("workload", ["pubsub", "coldstart"])
    def test_no_code_hook_fires(self, workload, monkeypatch):
        import repro.compiler.linker as linker_mod
        import repro.runtime.codecache as codecache_mod
        import repro.runtime.site as site_mod

        fired = []
        for mod, names in ((linker_mod, ("extract_bundle", "link_bundle")),
                           (codecache_mod, ("extract_bundle", "link_bundle",
                                            "link_bundle_cached",
                                            "digest_item")),
                           (site_mod, ("extract_bundle", "digest_item",
                                       "link_bundle_cached"))):
            for name in names:
                def hook(*a, _name=name, _real=getattr(mod, name), **kw):
                    fired.append(_name)
                    return _real(*a, **kw)
                monkeypatch.setattr(mod, name, hook)
        if workload == "pubsub":
            from repro.workloads import WorkloadSpec, run_workload

            report = run_workload(WorkloadSpec(workload="pubsub", seed=7,
                                               ops=60))
            assert report.ops_completed == 60
        else:
            # Launches only: big programs whose every block runs once.
            net = two_node_net()
            for i in range(3):
                site = net.launch(
                    N1, f"cold{i}",
                    "def A(x) = x![1] and B(y) = A[y] in "
                    "new c (B[c] | c?(v) = print![v])")
            net.run()
            assert site.output == [1]
        assert fired == []
