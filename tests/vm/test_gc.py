"""Tests for heap garbage collection (the run-time image of GcN)."""

import pytest

from repro.compiler import compile_source
from repro.vm import TycoVM
from repro.vm.values import ClassRef


def run_vm(source):
    vm = TycoVM(compile_source(source))
    vm.boot()
    vm.run()
    return vm


class TestVMCollect:
    def test_dead_channels_reclaimed(self):
        # Each loop iteration allocates a channel, uses it once, and
        # drops it: after the run they are all garbage.
        vm = run_vm("""
        def Churn(n) =
          if n > 0 then new t (t![n] | t?(v) = Churn[v - 1]) else 0
        in Churn[50]
        """)
        before = len(vm.heap)
        assert before >= 50
        reclaimed = vm.collect_garbage()
        assert reclaimed >= 49
        assert len(vm.heap) <= before - reclaimed + 1

    def test_waiting_channels_survive_via_roots(self):
        # A channel with a queued message but no live reference is
        # garbage (nothing can ever receive on it) -- unless a live
        # thread still holds it.
        vm = run_vm("new x (x![1] | x?(w) = (new dead dead![w]))")
        # x was consumed; `dead` holds a message but nothing references it.
        reclaimed = vm.collect_garbage()
        assert reclaimed >= 1

    def test_channels_in_queued_envs_survive(self):
        # An object waiting at a live channel captures another channel
        # in its environment: both must survive.
        vm = TycoVM(compile_source(
            "new keep other ((keep?(w) = other![w]) | 0)"))
        vm.boot()
        vm.run()
        # keep is referenced by... nothing! Root it via an external.
        keep = [ch for ch in vm.heap if ch.objects]
        vm.externals["hook"] = keep[0]
        reclaimed = vm.collect_garbage()
        assert keep[0].heap_id in vm.heap._channels
        # `other` is captured by the queued object's env: alive too.
        assert len(vm.heap) == 2
        assert reclaimed == 0

    def test_externals_always_rooted(self):
        vm = run_vm("amb![1]")
        assert vm.collect_garbage() == 0
        assert "amb" in vm.externals

    def test_pinned_ids_survive(self):
        vm = run_vm("0")
        ch = vm.heap.new_channel()
        assert vm.collect_garbage(pinned={ch.heap_id}) == 0
        assert vm.collect_garbage() == 1


class TestCollectEdgeCases:
    def test_cycle_through_wait_queues_collected(self):
        # Two channels referencing each other only through queued
        # messages: a cycle no root reaches is garbage, both go.
        vm = run_vm("0")
        a = vm.heap.new_channel()
        b = vm.heap.new_channel()
        a.messages.append(("put", (b,)))
        b.messages.append(("put", (a,)))
        assert vm.collect_garbage() == 2
        assert a.heap_id not in vm.heap
        assert b.heap_id not in vm.heap

    def test_channel_reachable_only_via_classref_env(self):
        # A channel captured by a ClassRef environment queued at a live
        # channel must survive: the class can be instantiated later and
        # its body may use the capture.
        vm = run_vm("0")
        keep = vm.heap.new_channel()
        hidden = vm.heap.new_channel()
        cref = ClassRef(block_id=0, env=[hidden], group_id=0, index=0)
        keep.messages.append(("make", (cref,)))
        vm.externals["hook"] = keep
        assert vm.collect_garbage() == 0
        assert hidden.heap_id in vm.heap

    def test_pinned_channel_is_transitive_root(self):
        # An exported (pinned) channel's wait queues are live state: a
        # channel referenced only from them must survive too.
        vm = run_vm("0")
        exported = vm.heap.new_channel()
        dep = vm.heap.new_channel()
        exported.messages.append(("m", (dep,)))
        assert vm.collect_garbage(pinned={exported.heap_id}) == 0
        assert dep.heap_id in vm.heap
        # Unpinned, the pair is garbage again.
        assert vm.collect_garbage() == 2

    def test_heap_stats_track_allocation_and_reclaim(self):
        vm = run_vm("0")
        base = vm.heap.stats()
        vm.heap.new_channel()
        vm.heap.new_channel()
        grown = vm.heap.stats()
        assert grown.allocated == base.allocated + 2
        vm.collect_garbage()
        after = vm.heap.stats()
        assert after.reclaimed >= base.reclaimed + 2
        assert after.collections == base.collections + 1
        assert after.live == len(vm.heap)
        assert set(after.as_dict()) == {
            "allocated", "reclaimed", "collections", "live"}
