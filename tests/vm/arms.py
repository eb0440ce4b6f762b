"""The production-engine arms every engine-parity test compares with
the ``slow`` reference.

Which tier a block runs on is the engine's own choice: its first entry
runs on the interpreter -- or on the closures a launch template
decoded -- and its ``machine.TIER_UP_ENTRIES``-th and later on
generated code.  The arms pin that choice:

* ``shipped`` -- as shipped;
* ``generated`` -- every block on generated code from its first entry;
* ``closures`` -- every block decoded before it runs, as a launch
  template's are, and never tiered up: predecoded closures only;
* ``interpreter`` -- never tiered up and nothing decoded beyond what
  templates decode: the production engine's interpreter-first path
  held at every entry.
"""

import sys

from repro.vm import dispatch, machine

ARMS = {"shipped": machine.TIER_UP_ENTRIES, "generated": 1,
        "closures": sys.maxsize, "interpreter": sys.maxsize}

_STEP = machine.TycoVM._step_compiled


def _step_on_plans(vm, budget):
    """``_step_compiled`` once every block of the VM's program has its
    predecoded handlers (a block linked in since the last step gets
    them here, before it runs)."""
    program = vm.program
    for block in program.blocks:
        if block.heads is None:
            block.heads = dispatch.predecode(program, block)
    return _STEP(vm, budget)


def use_arm(monkeypatch, arm):
    """Patch the engine into ``arm``."""
    monkeypatch.setattr(machine, "TIER_UP_ENTRIES", ARMS[arm])
    monkeypatch.setattr(machine.TycoVM, "_step_compiled",
                        _step_on_plans if arm == "closures" else _STEP)


def each_arm(monkeypatch):
    """Yield each arm's name with the engine patched into it."""
    for arm in ARMS:
        use_arm(monkeypatch, arm)
        yield arm
