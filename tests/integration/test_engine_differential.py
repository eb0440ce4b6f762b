"""Differential harness: the production engine vs the reference engine.

The production engine (docs/PERF.md) promises *observational
identity*: for any program and any schedule, running a block on its
predecoded closures, on generated Python (src/repro/vm/compile.py), or
on the original instrumented loop produces the same outputs, the same
VMStats -- ``instructions`` exactly, so every simulated schedule is
untouched -- and the same final heap.  Which of the first two a block
gets is the engine's own choice (``machine.TIER_UP_ENTRIES``), so the
arms (tests/vm/arms.py) pin that constant: as shipped, at 1 (every
block on generated code from its first entry) and out of reach
(closures only).  This file checks the promise end to end:

* every example ``.dityco`` program, single-VM;
* every frozen chaos-corpus schedule, whole-network, by flipping the
  ``REPRO_VM_ENGINE`` environment default and comparing the full
  :class:`~repro.testkit.explore.ChaosRun` record (including
  ``elapsed``, which is virtual time -- a pure function of instruction
  counts);
* the same schedules and the three macro workloads *watched*
  (``world.obs.tracing``): turning tracing on does not pick the
  engine, so the differential holds with it on, event for event --
  what a site publishes about its VM is read off counters both
  engines keep identically.
"""

from pathlib import Path

import pytest

from repro.compiler import compile_source
from repro.testkit import run_scenario
from repro.vm import TycoVM
from repro.workloads import WorkloadSpec, run_workload

from tests.testkit.corpus import CORPUS
from tests.testkit.scenarios import SCENARIOS
from tests.vm.arms import each_arm
from tests.workloads.switches import force

pytestmark = pytest.mark.slow

PROGRAMS = Path(__file__).resolve().parents[2] / "examples" / "programs"
DITYCO = sorted(PROGRAMS.glob("*.dityco"))


def _run_vm(source, name, engine):
    vm = TycoVM(compile_source(source, source_name=name), name="diff",
                engine=engine)
    vm.boot()
    vm.run(10_000_000)
    assert vm.is_idle(), f"{name} did not quiesce under {engine}"
    s = vm.stats
    return {
        "output": list(vm.output),
        "instructions": s.instructions,
        "reductions": s.reductions,
        "comm_reductions": s.comm_reductions,
        "inst_reductions": s.inst_reductions,
        "threads_spawned": s.threads_spawned,
        "messages_queued": s.messages_queued,
        "objects_queued": s.objects_queued,
        "final_heap": len(vm.heap),
    }


@pytest.mark.parametrize("path", DITYCO, ids=lambda p: p.stem)
def test_example_programs_identical_across_engines(path, monkeypatch):
    source = path.read_text()
    ref = _run_vm(source, path.name, "slow")
    for arm in each_arm(monkeypatch):
        assert _run_vm(source, path.name, "compiled") == ref, arm


def _chaos_record(run):
    """Everything a ChaosRun observes, minus the free-form dumps."""
    return {
        "outputs": run.outputs,
        "quiescent": run.quiescent,
        "elapsed": run.elapsed,
        "packets": run.packets,
        "deliveries": run.deliveries,
        "chaos_dropped": run.chaos_dropped,
        "chaos_duplicated": run.chaos_duplicated,
        "chaos_delayed": run.chaos_delayed,
        "crash_dropped": run.crash_dropped,
        "fault_log": run.fault_log,
        "stalled_sites": run.stalled_sites,
        "violations": run.violations,
    }


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_schedules_identical_across_engines(entry, monkeypatch):
    def record(engine):
        monkeypatch.setenv("REPRO_VM_ENGINE", engine)
        return _chaos_record(run_scenario(
            SCENARIOS[entry.scenario], entry.seed, entry.config))

    ref = record("slow")
    for arm in each_arm(monkeypatch):
        assert record("compiled") == ref, (
            f"{entry.name}: the {arm} arm diverged from the reference "
            f"engine")


# -- the traced leg: the observer does not pick the engine -------------------

@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_traced_corpus_schedules_identical_across_engines(entry, monkeypatch):
    def record(engine):
        monkeypatch.setenv("REPRO_VM_ENGINE", engine)
        run = run_scenario(SCENARIOS[entry.scenario], entry.seed,
                           entry.config, tracing=True)
        assert '"name":"heap"' in run.trace_json
        return _chaos_record(run), run.trace_json

    ref = record("slow")
    for arm in each_arm(monkeypatch):
        assert record("compiled") == ref, (
            f"{entry.name}: the {arm} arm, traced, diverged from the "
            f"traced reference engine")


def _workload_record(monkeypatch, workload, **switches):
    """One 200-op macro run, in two parts: what tracing leaves alone
    (outputs, per-site VMStats, packets), and what span ids on the
    wire move (virtual time, bytes) with the event stream."""
    made = force(monkeypatch, **switches)
    report = run_workload(WorkloadSpec(workload=workload, ops=200, seed=7))
    (net,) = made
    assert report.violations == [] and report.ops_completed == 200
    stats = {site.site_name: site.vm.stats
             for node in net.world.nodes.values()
             for site in node.sites.values()}
    events = [(e.kind, e.src, e.dst, e.size, e.note, e.node, e.span, e.time)
              for e in net.collector.events] if switches.get("tracing") else []
    return ((net.outputs(), stats, net.world.stats.packets),
            (net.world.time, net.world.stats.bytes, events))


@pytest.mark.parametrize("workload", ["pubsub", "mapreduce", "agents"])
def test_traced_workloads_identical_across_engines(workload, monkeypatch):
    unwatched, _ = _workload_record(monkeypatch, workload)
    monkeypatch.setenv("REPRO_VM_ENGINE", "slow")
    ref = _workload_record(monkeypatch, workload, tracing=True)
    left_alone, (_time, _bytes, events) = ref
    assert left_alone == unwatched and len(events) > 1000
    monkeypatch.setenv("REPRO_VM_ENGINE", "compiled")
    for arm in each_arm(monkeypatch):
        assert _workload_record(monkeypatch, workload,
                                tracing=True) == ref, (
            f"{workload}: the {arm} arm, traced, diverged from the traced "
            f"reference engine")
