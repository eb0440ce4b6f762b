"""Run-time values of the TyCO virtual machine.

Variables may hold, besides literals:

* :class:`Channel` -- a *local reference*: a pointer into the heap of
  the local site;
* :class:`NetRef` -- a *network reference*: "'a pointer' to a data
  structure allocated in the heap of some remote site", with the
  hardware-independent representation ``(HeapId, SiteId, IpAddress)``
  of section 5;
* :class:`ClassRef` -- a locally defined (or locally linked) class:
  clause byte-code plus its captured environment;
* :class:`RemoteClassRef` -- a class whose byte-code lies in some
  remote site's program area; instantiating it triggers the FETCH
  protocol.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class NetRef:
    """A network reference: (HeapId, SiteId, IpAddress)."""

    heap_id: int
    site_id: int
    ip: str

    def __str__(self) -> str:
        return f"<net {self.ip}/s{self.site_id}/h{self.heap_id}>"


@dataclass(frozen=True, slots=True)
class RemoteClassRef:
    """A reference to class byte-code in a remote site's program area.

    ``class_id`` keys the owner's class-export table; ``site_id`` and
    ``ip`` locate the owner exactly like a :class:`NetRef`.
    """

    class_id: int
    site_id: int
    ip: str

    def __str__(self) -> str:
        return f"<class {self.ip}/s{self.site_id}/c{self.class_id}>"


class Channel:
    """A heap-allocated channel: two wait queues plus an optional
    builtin handler (console channels / the site I/O port)."""

    __slots__ = ("heap_id", "messages", "objects", "builtin", "hint")

    def __init__(self, heap_id: int, hint: str = "chan",
                 builtin=None) -> None:
        self.heap_id = heap_id
        self.hint = hint
        # messages: list of (label, args tuple)
        self.messages: list[tuple[str, tuple]] = []
        # objects: list of (methods dict label->block_id, env tuple)
        self.objects: list[tuple[dict[str, int], tuple]] = []
        self.builtin = builtin

    def is_idle(self) -> bool:
        return not self.messages and not self.objects

    def match_object(self, label: str):
        """Remove and return the first waiting ``(methods, env)`` suite
        offering ``label``, or None.  The one COMM scan, shared by the
        generic ``_trmsg`` and the fast path so matching order is
        defined in exactly one place."""
        objects = self.objects
        for i, entry in enumerate(objects):
            if label in entry[0]:
                del objects[i]
                return entry
        return None

    def match_message(self, methods: dict):
        """Remove and return the first waiting ``(label, args)`` message
        one of ``methods`` accepts, or None (the TROBJ-side scan)."""
        messages = self.messages
        for i, entry in enumerate(messages):
            if entry[0] in methods:
                del messages[i]
                return entry
        return None

    def recycle(self, heap_id: int, hint: str) -> None:
        """Reset for reuse from the heap free-list under a fresh id."""
        self.heap_id = heap_id
        self.hint = hint
        self.messages.clear()
        self.objects.clear()
        self.builtin = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<chan {self.hint}#{self.heap_id}>"


class ClassRef:
    """A class value: clause block + shared group environment.

    ``env`` is the group's shared environment list
    ``[captures... , group classrefs...]`` -- deliberately a mutable
    list because the group's own classrefs are backpatched into it
    (mutual recursion).
    """

    __slots__ = ("block_id", "env", "group_id", "index", "hint")

    def __init__(self, block_id: int, env: list, group_id: int,
                 index: int, hint: str = "Class") -> None:
        self.block_id = block_id
        self.env = env
        self.group_id = group_id
        self.index = index
        self.hint = hint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<classref {self.hint} b{self.block_id}>"


def group_classrefs(group_id: int, clauses, env: list) -> list[ClassRef]:
    """Instantiate class group ``group_id``: one :class:`ClassRef` per
    ``(hint, block id)`` clause, all sharing ``env`` -- the group's
    captures, extended here by the classrefs themselves so the clauses
    can name each other.  Returns the classrefs in clause order."""
    refs = [ClassRef(block_id, env, group_id, index, hint=hint)
            for index, (hint, block_id) in enumerate(clauses)]
    env.extend(refs)
    return refs


#: Everything a VM slot or stack cell can hold.
VMValue = object


def remote_ref_key(v: NetRef | RemoteClassRef) -> tuple[str, int]:
    """The lease key a remote reference renews: ``("n", heap_id)`` for
    channel references, ``("c", class_id)`` for class references.
    Keys are scoped per owning ``(ip, site_id)`` by the distributed GC.
    """
    if isinstance(v, NetRef):
        return ("n", v.heap_id)
    if isinstance(v, RemoteClassRef):
        return ("c", v.class_id)
    raise TypeError(f"not a remote reference: {v!r}")


def is_channel_value(v: VMValue) -> bool:
    """Can ``v`` be the target of a message/object?"""
    return isinstance(v, (Channel, NetRef))


def value_repr(v: VMValue) -> str:
    """Short printable form of a VM value (used by the I/O port)."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (Channel, NetRef, ClassRef, RemoteClassRef)):
        return str(v) if not isinstance(v, Channel) else repr(v)
    return repr(v)
