"""Package exports that import their submodule on first use (PEP 562).

A package ``__init__`` names what it re-exports and from where; nothing
is imported until a name is read, so a process loads the submodules it
runs and no others.  A resolved name is bound on the package, as an
eager ``from .sub import name`` would have bound it.

A name equal to its own submodule's name (``repro.lang.pretty``) must
still be imported eagerly by its package: importing the submodule binds
the module object to that attribute, and ``__getattr__`` is only asked
for attributes that are missing.
"""

from __future__ import annotations

import importlib
import sys


def exports(package: str, table: dict[str, str]):
    """``__getattr__``, ``__dir__`` and ``__all__`` for `package`, which
    re-exports ``table[submodule]`` (space-separated names) from each of
    its submodules."""
    home = {name: sub for sub, names in table.items() for name in names.split()}

    def __getattr__(name: str):
        sub = home.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(vars(sys.modules[package]).keys() | home.keys())

    return __getattr__, __dir__, sorted(home)
