"""Identifiers of the TyCO / DiTyCO calculus (paper section 2 and 3).

The calculus has three basic syntactic categories:

* *names* (``a, b, x, y, u, v`` in the paper) -- places where processes
  synchronise and exchange data;
* *labels* (``l, k``) -- method selectors carried by messages and
  declared by objects;
* *class variables* (``X, Y``) -- identifiers bound by ``def`` and used
  by instantiations.

The distributed layer (section 3) adds *sites* (``r, s``) and *located
identifiers*: site-name pairs ``s.x`` and site-class-variable pairs
``s.X``.

Names and class variables are represented as interned-by-identity
objects: two :class:`Name` instances are the same name iff they are the
same Python object.  Binders in terms always introduce *fresh* objects,
so capture-avoiding substitution reduces to dictionary lookup and
structural congruence can compare scopes by alpha-renaming.  Each
identifier keeps a human-readable ``hint`` (the lexeme from the source
program) plus a unique serial number used by printers and by the wire
format.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass


class _Serial:
    """Process-wide monotonically increasing serial-number supply.

    A single global counter keeps printed names unambiguous across all
    engines in a test run.  The counter is thread-safe because each
    socket world (``repro.transport.socket``) steps its nodes on its
    own loop thread, and one process may run several.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            return next(self._counter)


_SERIAL = _Serial()


def _next_serial() -> int:
    return _SERIAL.next()


class Name:
    """A channel name of the base calculus.

    Identity is object identity.  ``hint`` is the surface-syntax lexeme
    and only matters for printing and error messages.
    """

    __slots__ = ("hint", "serial")

    def __init__(self, hint: str = "x") -> None:
        self.hint = hint
        self.serial = _next_serial()

    def fresh(self) -> "Name":
        """Return a brand-new name carrying the same hint.

        Used by alpha-conversion: a binder ``new x P`` is opened by
        replacing ``x`` with ``x.fresh()`` throughout ``P``.
        """
        return Name(self.hint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.hint}#{self.serial}"

    def __str__(self) -> str:
        return f"{self.hint}#{self.serial}"


class ClassVar:
    """A class variable (``X, Y``) bound by ``def D in P``."""

    __slots__ = ("hint", "serial")

    def __init__(self, hint: str = "X") -> None:
        self.hint = hint
        self.serial = _next_serial()

    def fresh(self) -> "ClassVar":
        """Return a new class variable with the same hint (alpha-conversion)."""
        return ClassVar(self.hint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.hint}#{self.serial}"

    def __str__(self) -> str:
        return f"{self.hint}#{self.serial}"


@dataclass(frozen=True, slots=True)
class Label:
    """A method label.  Labels are compared by their lexeme.

    The paper singles out the label ``val`` for the abbreviations
    ``x![v] == x!val[v]`` and ``x?(y)=P == x?{val(y)=P}``.
    """

    text: str

    def __str__(self) -> str:
        return self.text


#: The distinguished label used by the paper's ``x![v]`` abbreviation.
VAL = Label("val")


@dataclass(frozen=True, slots=True)
class Site:
    """A site identifier (section 3): the place where computation runs.

    Sites are compared by their lexeme: the source-level site name is
    the key of the network name service's SiteTable, so two occurrences
    of ``seti`` in different programs denote the same site.
    """

    text: str

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True, slots=True)
class LocatedName:
    """A located name ``s.x`` (section 3).

    Located names occur only in *non-binding* positions; the calculus
    has no construct binding a located identifier (binders always
    introduce simple names, implicitly located at the enclosing site).
    """

    site: Site
    name: Name

    def __str__(self) -> str:
        return f"{self.site}.{self.name}"


@dataclass(frozen=True, slots=True)
class LocatedClassVar:
    """A located class variable ``s.X`` (section 3)."""

    site: Site
    var: ClassVar

    def __str__(self) -> str:
        return f"{self.site}.{self.var}"


#: Anything that may appear where the base calculus expects a name.
Identifier = Name | LocatedName
#: Anything that may appear where the base calculus expects a class variable.
ClassIdentifier = ClassVar | LocatedClassVar


def located(site: Site, ident: Name | ClassVar) -> LocatedName | LocatedClassVar:
    """Attach ``site`` to a simple identifier, producing ``site.ident``."""
    if isinstance(ident, Name):
        return LocatedName(site, ident)
    if isinstance(ident, ClassVar):
        return LocatedClassVar(site, ident)
    raise TypeError(f"cannot locate {ident!r}")
