"""repro.testkit -- deterministic chaos testing for the DiTyCO runtime.

The paper's section-7 future work (failure detection, topology
reconfiguration, clean termination) is only as trustworthy as the
schedules it has been exercised under.  This package provides a
FoundationDB-style simulation-testing layer on top of the
deterministic :class:`~repro.transport.sim.SimWorld`:

:class:`~repro.testkit.chaos.ChaosWorld`
    A simulated cluster whose only source of nondeterminism is one
    explicit ``random.Random(seed)``: delivery jitter (schedule
    exploration), message delay, duplication, drop, and scheduled node
    crash/restart.  Every run is fully reproducible from
    ``(program, seed, config)`` and logs its fault schedule.

:mod:`~repro.testkit.explore`
    A schedule explorer that runs one scenario across many seeds and
    checks the cross-run invariants (answer confluence, message
    accounting, termination safety, no dangling imports).

:mod:`~repro.testkit.invariants`
    The individual invariant checkers, usable directly from tests.

The CLI front end is ``python -m repro chaos``; found schedules are
pinned as regression tests in ``tests/testkit/corpus.py`` (see
docs/TESTING.md for the promotion workflow).
"""

from .chaos import ChaosConfig, ChaosWorld, CrashEvent, FaultLog
from .explore import ChaosRun, ExplorationReport, explore, run_scenario
from .proxy import ChaosProxy, LinkReset
from .invariants import (
    check_export_liveness,
    check_message_accounting,
    check_nameservice_integrity,
    check_no_dangling_imports,
    check_no_premature_reclaim,
    check_termination_not_early,
    settle_distgc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
