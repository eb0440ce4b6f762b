"""The production-engine arms every engine-parity test compares with
the ``slow`` reference.

Which tier a block runs on is the engine's own choice
(``machine.TIER_UP_ENTRIES``), so the arms pin that constant: as
shipped, at 1 (every block on generated code from its first entry) and
out of reach (predecoded closures only).
"""

import sys

from repro.vm import machine

ARMS = {"shipped": machine.TIER_UP_ENTRIES, "generated": 1,
        "closures": sys.maxsize}


def each_arm(monkeypatch):
    """Yield each arm's name with its constant patched in."""
    for arm, entries in ARMS.items():
        monkeypatch.setattr(machine, "TIER_UP_ENTRIES", entries)
        yield arm
