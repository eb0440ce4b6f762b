"""Site checkpointing: serialize a frozen site, byte-for-byte.

The paper ships objects (SHIPO) and fetches class code on demand
(FETCH); this module moves the whole *site* -- the unit the paper
calls "the basic unit of the implementation".  A checkpoint captures
everything a :class:`~repro.runtime.site.Site` is: heap channels with
their wait queues, run-queue and stalled thread frames, the program
area, export tables, pending FETCH/code continuations, queued packets
and (when enabled) the distributed-GC lease state -- all through the
existing wire encoding (:mod:`repro.runtime.wire`), so the checkpoint
rides the same tags every packet does.

Two byte strings come out of a capture:

* the **code part** -- the program area as an identity-layout
  :class:`~repro.compiler.linker.CodeBundle` plus externals/main.  A
  migration ships it beside the state part in one packet, so a site
  moves with its code.
* the **state part** -- everything else, with heap ids, class ids and
  program-area ids preserved verbatim.  Restoring links the bundle
  into an *empty* program area, which yields identity id maps, so a
  restored site is indistinguishable from the original: capturing it
  again produces the *same bytes* (the round-trip property the test
  suite pins).

:func:`write_checkpoint` wraps both parts into one self-describing
blob: ``b"DTCK" + version + blake2b-16(body) + body``.

Restrictions: run-time type-checking state (``wire_signatures``) holds
live signature objects with no wire form; checkpointing a typechecked
site raises :class:`CheckpointError`.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, replace

from repro.compiler.assembly import Program
from repro.compiler.linker import CodeBundle, link_bundle
from repro.runtime.codecache import DIGEST_SIZE, digest_bytes
from repro.runtime.distgc import checkpoint_leases, restore_leases
from repro.runtime.nameservice import NameService
from repro.runtime.site import Site
from repro.runtime.wire import WireError, decode, encode
from repro.vm.scheduler import Thread
from repro.vm.values import (Channel, ClassRef, NetRef, RemoteClassRef,
                              group_classrefs)

#: Magic + format version of the checkpoint blob.
MAGIC = b"DTCK"
VERSION = 2


class CheckpointError(Exception):
    """A site could not be captured or a checkpoint could not be read."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an unknown format version."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint bytes fail their digest or structure checks."""


@dataclass(slots=True)
class SiteCheckpoint:
    """One captured site: the two byte parts plus routing identity."""

    site_name: str
    site_id: int
    state: bytes        # everything but the program area
    code: bytes         # the program area

    def total_bytes(self) -> int:
        return len(self.state) + len(self.code)


# ---------------------------------------------------------------------------
# Code part
# ---------------------------------------------------------------------------
#
# extract_bundle cannot be used here: its root-first traversal
# renumbers items, and the state part names program ids verbatim.  An
# identity-layout bundle (every item an entry, in table order) linked
# into an empty program area restores the exact same ids.
#
# Debug names built from ``str(Name)`` embed the process-wide name
# serial (``object@self#2``) -- meaningless across processes and a
# determinism leak for the content digest, so they are canonicalized
# to the bare hint on the way out.

_SERIAL_SUFFIX = re.compile(r"#\d+")


def _canonical_name(name: str) -> str:
    return _SERIAL_SUFFIX.sub("", name)


def capture_code(program: Program) -> bytes:
    bundle = CodeBundle(
        blocks=tuple(replace(b, name=_canonical_name(b.name))
                     for b in program.blocks),
        objects=tuple(replace(o, name=_canonical_name(o.name))
                      for o in program.objects),
        groups=tuple(replace(g, name=_canonical_name(g.name))
                     for g in program.groups),
        entry_blocks=tuple(range(len(program.blocks))),
        entry_objects=tuple(range(len(program.objects))),
        entry_groups=tuple(range(len(program.groups))),
    )
    return encode({
        "bundle": bundle,
        "externals": list(program.externals),
        "main": program.main,
        "source_name": program.source_name,
    })


def restore_code(code_bytes: bytes) -> Program:
    """Rebuild a program area with the exact ids the capture had."""
    code = _decode_part(code_bytes, "code")
    program = Program(externals=list(code["externals"]),
                      main=code["main"],
                      source_name=code["source_name"])
    bundle = code["bundle"]
    result = link_bundle(program, bundle)
    identity = (
        all(result.block_map[i] == i for i in range(len(bundle.blocks)))
        and all(result.object_map[i] == i
                for i in range(len(bundle.objects)))
        and all(result.group_map[i] == i for i in range(len(bundle.groups))))
    if not identity:  # pragma: no cover - empty-program linking is identity
        raise CheckpointCorruptError(
            "restored program area renumbered its items")
    return program


def _decode_part(data: bytes, what: str):
    try:
        return decode(data)
    except WireError as exc:
        raise CheckpointCorruptError(
            f"checkpoint {what} part does not decode: {exc}") from exc


# ---------------------------------------------------------------------------
# Value flattening
# ---------------------------------------------------------------------------
#
# VM values are scalars, NetRef/RemoteClassRef (wire-native), Channels
# (heap pointers) and ClassRefs (shared mutable group environments).
# Channels flatten to ("c", heap_id).  ClassRefs flatten to
# ("k", instance, clause): one *instance* per distinct group
# environment, recorded as (group_id, flattened captures) -- the
# clause classrefs in env[nfree:] are structural and rebuilt on
# restore.  Raw tuples never occur as VM values, so the tags are
# unambiguous.


class _Capture:
    def __init__(self, site: Site) -> None:
        self.site = site
        self.instances: list[list] = []   # [group_id, flat captures]
        self._index: dict[int, int] = {}  # id(env) -> instance index

    def flatten(self, v):
        if isinstance(v, Channel):
            return ("c", v.heap_id)
        if isinstance(v, ClassRef):
            return ("k", self._instance(v), v.index)
        if v is None or isinstance(v, (bool, int, float, str,
                                       NetRef, RemoteClassRef)):
            return v
        raise CheckpointError(
            f"{self.site.site_name}: value {v!r} cannot be checkpointed")

    def flatten_all(self, values) -> tuple:
        return tuple(self.flatten(v) for v in values)

    def _instance(self, cr: ClassRef) -> int:
        key = id(cr.env)
        idx = self._index.get(key)
        if idx is not None:
            return idx
        idx = len(self.instances)
        self._index[key] = idx
        # Pre-register before flattening the captures: environments
        # form a DAG by construction (captures predate the group), but
        # channels in them may lead back through queued values.
        entry = [cr.group_id, ()]
        self.instances.append(entry)
        group = self.site.vm.program.groups[cr.group_id]
        entry[1] = self.flatten_all(cr.env[:group.nfree])
        return idx


class _Restore:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.channels: dict[int, Channel] = {}
        self.classrefs: list[list[ClassRef]] = []
        self._envs: list[list] = []

    def build_instances(self, instances) -> None:
        """Pass 1: every group environment with its clause classrefs
        backpatched; captures still hold flat values."""
        for group_id, captures in instances:
            env: list = list(captures)
            self.classrefs.append(group_classrefs(
                group_id, self.program.groups[group_id].clauses, env))
            self._envs.append(env)

    def resolve_instances(self, instances) -> None:
        """Pass 2: captures become real channels/classrefs."""
        for (group_id, captures), env in zip(instances, self._envs):
            for i, flat in enumerate(captures):
                env[i] = self.unflatten(flat)

    def unflatten(self, v):
        if isinstance(v, tuple):
            if len(v) == 2 and v[0] == "c":
                ch = self.channels.get(v[1])
                if ch is None:
                    raise CheckpointCorruptError(
                        f"checkpoint references unknown heap id {v[1]}")
                return ch
            if len(v) == 3 and v[0] == "k":
                try:
                    return self.classrefs[v[1]][v[2]]
                except IndexError:
                    raise CheckpointCorruptError(
                        f"checkpoint references unknown class "
                        f"instance {v[1]}/{v[2]}") from None
            raise CheckpointCorruptError(
                f"unknown flattened value tag {v!r}")
        return v

    def unflatten_all(self, values) -> tuple:
        return tuple(self.unflatten(v) for v in values)


# ---------------------------------------------------------------------------
# State part
# ---------------------------------------------------------------------------


def _thread_record(cap: _Capture, thread: Thread) -> tuple:
    return (thread.block_id, thread.pc,
            cap.flatten_all(thread.frame), cap.flatten_all(thread.stack))


def _restore_thread(res: _Restore, record) -> Thread:
    block_id, pc, frame, stack = record
    return Thread(block_id=block_id, frame=[res.unflatten(v) for v in frame],
                  pc=pc, stack=[res.unflatten(v) for v in stack])


def _capture_vm(vm, cap: _Capture) -> dict:
    """The VM's heap, threads, externals, output and counters."""
    channels = []
    for ch in sorted(vm.heap, key=lambda c: c.heap_id):
        channels.append((
            ch.heap_id, ch.hint, ch.builtin is not None,
            tuple((label, cap.flatten_all(args))
                  for label, args in ch.messages),
            tuple((dict(methods), cap.flatten_all(env))
                  for methods, env in ch.objects),
        ))
    heap_stats = vm.heap.stats()
    return {
        "heap": {
            "next_id": vm.heap._next_id,
            "stats": (heap_stats.allocated, heap_stats.reclaimed,
                      heap_stats.collections),
            "channels": channels,
        },
        "current": (None if vm.current is None
                    else _thread_record(cap, vm.current)),
        "runqueue": {
            "threads": tuple(_thread_record(cap, t)
                             for t in vm.runqueue.threads()),
            "context_switches": vm.runqueue.context_switches,
            "max_depth": vm.runqueue.max_depth,
        },
        "stalled": tuple(_thread_record(cap, t) for t in vm.stalled),
        "externals": [(hint, ch.heap_id)
                      for hint, ch in vm.externals.items()],
        "output": cap.flatten_all(vm.output),
        "vm_stats": asdict(vm.stats),
    }


def capture_state(site: Site) -> bytes:
    """The state part of one site checkpoint (wire-encoded).

    The VM is captured here; the site's tables, the code protocol and
    the lease protocol each capture their own keys.  Deterministic by
    construction: sets are sorted, dicts captured in insertion order,
    channels sorted by heap id, class instances in discovery order of a
    fixed traversal -- so restoring a checkpoint and capturing again
    yields the same bytes.
    """
    if site.name_signatures or site.wire_signatures:
        raise CheckpointError(
            f"{site.site_name}: typechecked sites (live wire signatures) "
            f"cannot be checkpointed")
    cap = _Capture(site)
    # Flattening order fixes the instance table: VM first, then the
    # site's exported classes, then the fetched ones.
    parts = _capture_vm(site.vm, cap)
    parts.update(site.checkpoint_state(cap))
    parts.update(site.code.checkpoint_state(cap))
    parts.update(checkpoint_leases(site))
    state = {key: parts[key] for key in (
        "site_name", "site_id", "ip", "alias_ips", "fetch_cache", "heap",
        "current", "runqueue", "stalled", "externals", "output",
        "vm_stats", "site_stats", "exported_ids", "name_exports",
        "class_export_names", "class_exports", "next_class_id", "fetched",
        "pending_fetch", "pending_code", "next_ship_token",
        "gc_tombstones", "gc_class_tombstones", "incoming", "outgoing",
        "codecache", "distgc")}
    # Captured last: the instance table fills while everything above
    # flattens (order is part of the format).
    state["instances"] = [tuple(entry) for entry in cap.instances]
    try:
        return encode(state)
    except WireError as exc:  # a payload slipped past the guards
        raise CheckpointError(
            f"{site.site_name}: state does not wire-encode: {exc}") from exc


def capture_site(site: Site) -> SiteCheckpoint:
    """Capture one (frozen) site into its two checkpoint parts."""
    code = capture_code(site.vm.program)
    state = capture_state(site)
    return SiteCheckpoint(site_name=site.site_name, site_id=site.site_id,
                          state=state, code=code)


def build_site(code_bytes: bytes, state_bytes: bytes, *,
               ip: str, nameservice: NameService,
               clock=None) -> Site:
    """Rebuild a site at ``ip`` from its checkpoint parts.

    The returned site is *not* adopted into any node, registered with
    the name service, or booted -- the caller (the mobility manager)
    wires it in.  Restoring onto the checkpointed ip reproduces the
    original exactly; restoring onto a new ip records the old home in
    :attr:`Site.alias_ips` so references minted before the move keep
    resolving locally.  The cache ablations and the lease protocol a
    site was built with travel with it.
    """
    try:
        program = restore_code(code_bytes)
        state = _decode_part(state_bytes, "state")
        site = Site(state["site_name"], state["site_id"], ip, program,
                    nameservice, clock=clock)
        res = _Restore(program)
        _restore_vm(site.vm, state, res)
        site.restore_state(state, res)
        site.code.restore_state(state, res)
        restore_leases(site, state)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError,
            WireError) as exc:
        # WireError: a queued packet off its kind's layout;
        # AttributeError: a code part whose bundle is no CodeBundle.
        raise CheckpointCorruptError(
            f"malformed checkpoint: {exc!r}") from exc
    return site


def _restore_vm(vm, state: dict, res: _Restore) -> None:
    # Heap channels first (empty), then group instances, then values.
    heap_state = state["heap"]
    for heap_id, hint, is_console, _msgs, _objs in heap_state["channels"]:
        res.channels[heap_id] = vm.heap.adopt(Channel(
            heap_id, hint=hint, builtin=vm.console if is_console else None))
    res.build_instances(state["instances"])
    res.resolve_instances(state["instances"])
    for heap_id, _hint, _is_console, msgs, objs in heap_state["channels"]:
        ch = res.channels[heap_id]
        ch.messages = [(label, res.unflatten_all(args))
                       for label, args in msgs]
        ch.objects = [(dict(methods), res.unflatten_all(env))
                      for methods, env in objs]
    allocated, reclaimed, collections = heap_state["stats"]
    vm.heap.restore_counters(heap_state["next_id"], allocated,
                             reclaimed, collections)

    # Threads.
    rq = state["runqueue"]
    for record in rq["threads"]:
        vm.runqueue.push(_restore_thread(res, record))
    vm.runqueue.context_switches = rq["context_switches"]
    vm.runqueue.max_depth = rq["max_depth"]
    vm.current = (None if state["current"] is None
                  else _restore_thread(res, state["current"]))
    vm.stalled = [_restore_thread(res, record) for record in state["stalled"]]

    vm.externals = {hint: res.channels[hid]
                    for hint, hid in state["externals"]}
    vm.output = [res.unflatten(v) for v in state["output"]]
    for name, value in state["vm_stats"].items():
        setattr(vm.stats, name, value)
    # The program is in flight again: boot() must never re-run main.
    vm._booted = True


# ---------------------------------------------------------------------------
# Checkpoint blob
# ---------------------------------------------------------------------------


def write_checkpoint(site: Site) -> bytes:
    """One self-describing durable blob: MAGIC, version, digest, body."""
    ckpt = capture_site(site)
    return pack_checkpoint(ckpt)


def pack_checkpoint(ckpt: SiteCheckpoint) -> bytes:
    body = encode((ckpt.code, ckpt.state))
    return MAGIC + bytes([VERSION]) + digest_bytes(body) + body


def read_checkpoint(data: bytes) -> tuple[bytes, bytes]:
    """Validate a blob and return ``(code_bytes, state_bytes)``.

    Raises :class:`CheckpointError` (truncated header),
    :class:`CheckpointVersionError` (unknown version) or
    :class:`CheckpointCorruptError` (digest/structure mismatch).
    """
    header = len(MAGIC) + 1 + DIGEST_SIZE
    if len(data) < header:
        raise CheckpointError(
            f"checkpoint truncated: {len(data)} byte(s), "
            f"header needs {header}")
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint (bad magic)")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise CheckpointVersionError(
            f"unknown checkpoint version {version} (expected {VERSION})")
    digest = data[len(MAGIC) + 1:header]
    body = data[header:]
    if digest_bytes(body) != digest:
        raise CheckpointCorruptError("checkpoint body fails its digest")
    parts = _decode_part(body, "body")
    if not (isinstance(parts, tuple) and len(parts) == 2
            and isinstance(parts[0], bytes) and isinstance(parts[1], bytes)):
        raise CheckpointCorruptError("checkpoint body is not (code, state)")
    return parts


def restore_site(node, code_bytes: bytes, state_bytes: bytes) -> Site:
    """Rebuild a site onto ``node`` (not yet adopted or registered)."""
    return build_site(code_bytes, state_bytes, ip=node.ip,
                      nameservice=node.nameservice, clock=node.now)
