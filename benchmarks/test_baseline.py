"""Tier-2 regression wall over the benchmark baseline.

Two layers:

* **live ratios** -- re-measure the headline effects on this checkout
  (E4 repeated-fetch byte reduction from the code cache, the
  production engine against the reference loop on E1, E9 burst packet
  reduction from wire batching);
* **the record** -- every key ``run_all.py --json`` writes is a pure
  function of the code, so one live run must reproduce the committed
  ``BENCH_pr16.json`` exactly.
"""

import json
import time
from pathlib import Path

from repro.compiler import compile_source
from repro.vm import TycoVM

from _workloads import counter_loop
from baseline import _burst, collect_metrics, refetch_network

REPO_ROOT = Path(__file__).resolve().parent.parent


def _e1_counter_wall_us(engine=None) -> float:
    """Wall time of a 2000-step instantiation recursion on one VM."""
    program = compile_source(counter_loop(2000))
    start = time.perf_counter()
    vm = TycoVM(program, engine=engine)
    vm.boot()
    vm.run(50_000_000)
    assert vm.is_idle()
    return (time.perf_counter() - start) * 1e6


def _timed_runs(fn, repeats: int, warmup: int = 1) -> list[float]:
    """``warmup`` untimed runs (caches, allocator, branch predictors),
    then ``repeats`` timed runs."""
    for _ in range(warmup):
        fn()
    return [fn() for _ in range(repeats)]


class TestLiveRatios:
    def test_code_cache_cuts_refetch_bytes_5x(self):
        """12 sequential FETCHes of a 40-pad class with the ClassRef
        cache off: the code cache must cut total wire bytes at least
        5x (one download + 11 digest-offer round trips)."""

        def run(code_cache: bool) -> int:
            net = refetch_network(code_cache=code_cache)
            net.run()
            assert net.site("client").output == [42]
            return net.world.stats.bytes

        with_cache = run(True)
        without_cache = run(False)
        assert without_cache >= 5 * with_cache, (
            f"code cache saved only {without_cache / with_cache:.1f}x "
            f"({without_cache} -> {with_cache} bytes)")

    def test_production_engine_beats_reference_engine(self):
        """The production engine must out-run the instrumented
        reference loop on the E1 recursion.  Min-of-3 per arm; a live
        run shows ~20x (closures ~9x, generated code ~2.5x on top),
        the 1.4x bar -- the product of the two bars the closure and
        compiled engines were held to separately -- only guards
        against the production path silently falling back to the slow
        loop."""
        production = min(_timed_runs(_e1_counter_wall_us, repeats=3))
        slow = min(_timed_runs(
            lambda: _e1_counter_wall_us(engine="slow"), repeats=3))
        assert production * 1.4 <= slow, (
            f"production engine {production:.0f}us vs reference "
            f"{slow:.0f}us")

    def test_batching_reduces_burst_packets(self):
        packets_batched, bytes_batched = _burst(batching=True)
        packets_raw, bytes_raw = _burst(batching=False)
        assert packets_batched < packets_raw
        # Frames add only header bytes.
        assert bytes_batched < bytes_raw * 1.1


class TestCommittedBaselines:
    def test_pr16_non_wall_keys_reproduce_live(self):
        """Live determinism wall over the whole record: every key of
        BENCH_pr16.json that is not host wall time -- simulated times,
        wire bytes and packets, heap sizes, op counts -- is a pure
        function of the code, and the collector writes exactly those,
        so one live run must match them all.  A PR that moves one owns
        it with a new record."""
        golden = json.loads((REPO_ROOT / "BENCH_pr16.json").read_text())
        live = collect_metrics()
        assert sorted(live) == sorted(
            k for k in golden if "_wall_" not in k)
        assert len(live) == 39
        assert live == {key: golden[key] for key in live}
