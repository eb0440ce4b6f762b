"""The heap of a TyCO virtual machine.

"a heap area for dynamic data-structures such as names, messages and
objects" (section 5).  Names are :class:`~repro.vm.values.Channel`
objects; pending messages and objects live in their channels' wait
queues, so the heap proper is the channel table plus the id supply
that export tables and network references key on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .values import Channel


@dataclass(slots=True)
class HeapStats:
    """Lifetime allocation/reclamation counters of one heap."""

    allocated: int = 0
    reclaimed: int = 0
    collections: int = 0
    live: int = 0

    def as_dict(self) -> dict:
        return {"allocated": self.allocated, "reclaimed": self.reclaimed,
                "collections": self.collections, "live": self.live}


class Heap:
    """Channel allocator and table for one site."""

    #: Bound on the channel free-list: enough to absorb RPC-style churn
    #: (allocate reply channel, use once, collect) without pinning an
    #: unbounded object pool after a burst.
    MAX_FREE = 64

    def __init__(self) -> None:
        self._next_id = 1
        self._channels: dict[int, Channel] = {}
        self._stats = HeapStats()
        self._free: list[Channel] = []

    def new_channel(self, hint: str = "chan",
                    builtin: Optional[Callable] = None) -> Channel:
        """Allocate a fresh channel (optionally with a builtin handler).

        Churned channels reclaimed by :meth:`collect` are recycled from
        a bounded free-list, but *accounting is unchanged*: a recycled
        channel gets a fresh monotonic heap id and counts as an
        allocation, so export tables, network references and the
        observability "heap" gauges are byte-identical with or without
        recycling.
        """
        heap_id = self._next_id
        if builtin is None and self._free:
            ch = self._free.pop()
            ch.recycle(heap_id, hint)
        else:
            ch = Channel(heap_id, hint=hint, builtin=builtin)
        self._channels[heap_id] = ch
        self._next_id += 1
        self._stats.allocated += 1
        return ch

    def adopt(self, channel: Channel) -> Channel:
        """Install an existing channel under its own heap id.

        The restore half of site checkpointing (repro.mobility): a
        rebuilt channel keeps the id the checkpoint recorded, so every
        export-table entry and network reference that named it keeps
        resolving.  Refuses id collisions -- restore happens into a
        fresh heap."""
        if channel.heap_id in self._channels:
            raise ValueError(f"heap id {channel.heap_id} already in use")
        self._channels[channel.heap_id] = channel
        return channel

    def restore_counters(self, next_id: int, allocated: int,
                         reclaimed: int, collections: int) -> None:
        """Restore the id supply and lifetime counters from a
        checkpoint, so ids allocated after a restore continue the
        original monotonic sequence and the heap gauges carry on
        exactly where the checkpointed site left off."""
        self._next_id = next_id
        self._stats.allocated = allocated
        self._stats.reclaimed = reclaimed
        self._stats.collections = collections

    def get(self, heap_id: int) -> Channel:
        """Resolve a heap id (e.g. from an incoming network reference)."""
        try:
            return self._channels[heap_id]
        except KeyError:
            raise KeyError(f"no channel with heap id {heap_id}") from None

    def __len__(self) -> int:
        return len(self._channels)

    def __contains__(self, heap_id: int) -> bool:
        return heap_id in self._channels

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels.values())

    def live_queues(self) -> int:
        """Number of channels with non-empty wait queues (diagnostics)."""
        return sum(1 for ch in self._channels.values() if not ch.is_idle())

    def stats(self) -> HeapStats:
        """Snapshot of the allocation/reclamation counters (``live`` is
        recomputed at call time)."""
        s = self._stats
        return HeapStats(allocated=s.allocated, reclaimed=s.reclaimed,
                         collections=s.collections,
                         live=len(self._channels))

    def trace(self, roots: Iterable,
              remote_refs: Optional[set] = None) -> set[int]:
        """Mark phase: the heap ids reachable from ``roots`` through
        channel wait queues, class environments and containers.

        Non-destructive.  If ``remote_refs`` is given, every
        :class:`~repro.vm.values.NetRef` / ``RemoteClassRef``
        encountered on the walk is added to it -- the distributed GC
        uses this to learn which remote-site references this site still
        holds (and which it has silently dropped).
        """
        from .values import ClassRef, NetRef, RemoteClassRef

        reachable: set[int] = set()
        seen: set[int] = set()
        stack = list(roots)
        while stack:
            v = stack.pop()
            vid = id(v)
            if vid in seen:
                continue
            seen.add(vid)
            if isinstance(v, Channel):
                if v.heap_id in reachable:
                    continue
                reachable.add(v.heap_id)
                for _label, args in v.messages:
                    stack.extend(args)
                for _methods, env in v.objects:
                    stack.extend(env)
            elif isinstance(v, ClassRef):
                stack.extend(v.env)
            elif isinstance(v, (NetRef, RemoteClassRef)):
                if remote_refs is not None:
                    remote_refs.add(v)
            elif isinstance(v, (tuple, list)):
                stack.extend(v)
        return reachable

    def collect(self, roots, pinned: Optional[Iterable[int]] = None) -> int:
        """Garbage-collect unreachable channels (the heap-level image
        of the calculus rule GcN: unused restrictions disappear).

        ``roots`` is an iterable of VM values -- thread frames, stacks,
        captured environments -- from which reachability is traced
        through channel queues and class environments.  ``pinned``
        heap ids (exported identifiers a remote site may still
        reference) always survive, *and are traced as roots*: the
        queued contents of a pinned channel are live data, so anything
        they reference must survive too.  Returns how many channels
        were reclaimed.
        """
        pinned_ids = set(pinned) if pinned is not None else set()
        all_roots = list(roots)
        for hid in pinned_ids:
            ch = self._channels.get(hid)
            if ch is not None:
                all_roots.append(ch)
        reachable = self.trace(all_roots)
        keep = reachable | pinned_ids
        dead = [hid for hid in self._channels if hid not in keep]
        free = self._free
        for hid in dead:
            ch = self._channels.pop(hid)
            if ch.builtin is None and len(free) < self.MAX_FREE:
                free.append(ch)
        self._stats.reclaimed += len(dead)
        self._stats.collections += 1
        return len(dead)
