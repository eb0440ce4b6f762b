"""The launch path's miss runs with the cyclic collector paused.

``LaunchCache.compile`` disables ``gc`` for an untyped miss: the
tokens, terms and instructions a miss allocates hold no reference
cycle, so a collection during it would only rescan the heap.  These
tests hold that premise and that the collector is always switched back.
"""

import gc

import pytest

from repro.lang import LexError
from repro.runtime.launch import LaunchCache

SOURCES = [
    "new c (c![1] | c?(v) = print![v + 2])",
    "def A(n) = if n > 0 then A[n - 1] | out![n] else B[n] "
    "and B(m) = m?(w) = A[w] in A[3]",
    "export new svc svc?(r) = r![7] | log![svc]",
    "import K from s in new c (K[c] | c?(v) = print![v])",
    'new s ((s?{ get(k, r) = r![k + 1] }) | let w = s!get[4] in print!["x\\0"])',
]


@pytest.fixture
def collector():
    """Collect, then hand the test an enabled collector."""
    enabled = gc.isenabled()
    gc.collect()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


@pytest.mark.parametrize("source", SOURCES)
def test_an_untyped_launch_leaves_no_cycle(collector, source):
    cache = LaunchCache()
    # First sighting, second (the marked compile and template), hit.
    for sighting in range(3):
        gc.disable()
        try:
            cache.compile(source, f"s{sighting}")
            assert gc.collect() == 0, sighting
        finally:
            gc.enable()


def test_the_collector_is_back_after_a_miss(collector):
    cache = LaunchCache()
    cache.compile(SOURCES[0], "s")
    assert gc.isenabled()
    with pytest.raises(LexError):
        cache.compile("print![1 @ 2]", "t")
    assert gc.isenabled()
    gc.disable()
    cache.compile(SOURCES[1], "u")
    assert not gc.isenabled()         # a caller's choice stands
