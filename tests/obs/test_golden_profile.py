"""Golden collapsed profiles: sample attribution is pinned to bytes.

``test_profiler.py`` holds the profile deterministic within one build
(same program, seed and stride -> same bytes; every tier -> the
reference loop's bytes).  These files hold it stable *across* changes
to the VM's loops: which instruction a sample lands on and which
``(site, block, kind)`` frame it is charged to.  Two runs:

* ``pump-stride7``: ``scenarios.pump(clients=4)`` at stride 7 -- a
  stride small enough that samples land on HALT and charge END frames;
* ``pubsub-200-stride97``: the pubsub workload at 200 operations,
  stride 97 -- generated code, chained threads and reaped sites.

Regenerate after an *intentional* attribution change with::

    PYTHONPATH=src python tests/obs/regen_golden.py
"""

from pathlib import Path

import pytest

from repro.obs import VMProfiler
from repro.runtime import DiTyCONetwork

from tests.testkit import scenarios

GOLDEN_DIR = Path(__file__).parent / "golden"


def pump_profile() -> str:
    profiler = VMProfiler(stride=7)
    net = DiTyCONetwork()
    profiler.install_network(net)
    scenarios.pump(net, clients=4)
    net.run(1.0)
    return profiler.collapsed()


def pubsub_profile() -> str:
    from repro.workloads import WorkloadSpec, run_workload, runner

    profiler = VMProfiler(stride=97)

    class Profiled(DiTyCONetwork):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            profiler.install_network(self)

    built = runner.DiTyCONetwork
    runner.DiTyCONetwork = Profiled
    try:
        report = run_workload(WorkloadSpec("pubsub", ops=200))
    finally:
        runner.DiTyCONetwork = built
    assert not report.violations
    return profiler.collapsed()


#: golden file stem -> the run that produces it.
PROFILES = {
    "pump-stride7": pump_profile,
    "pubsub-200-stride97": pubsub_profile,
}


def golden(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.collapsed"


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_profile_matches_golden(name):
    assert PROFILES[name]() == golden(name).read_text()
