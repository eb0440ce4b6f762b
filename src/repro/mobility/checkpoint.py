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
  :class:`~repro.compiler.linker.CodeBundle` plus externals/main.  It
  is content-digested separately so the migration protocol can skip
  shipping it to a node that already holds it (the CodeCache idea,
  lifted to whole program areas).
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

import hashlib
import re
from collections import deque
from dataclasses import dataclass, fields, replace

from repro.compiler.assembly import Program
from repro.compiler.linker import CodeBundle, link_bundle
from repro.runtime.codecache import CodeCache, CodeStore
from repro.runtime.distgc import DistGC, GcConfig
from repro.runtime.nameservice import NameService
from repro.runtime.site import Site
from repro.runtime.wire import WireError, decode, encode
from repro.vm.scheduler import Thread
from repro.vm.values import Channel, ClassRef, NetRef, RemoteClassRef

#: Magic + format version of the checkpoint blob.
MAGIC = b"DTCK"
VERSION = 1

#: Digest width: matches the code cache (blake2b-16).
DIGEST_SIZE = 16


class CheckpointError(Exception):
    """A site could not be captured or a checkpoint could not be read."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint was written by an unknown format version."""


class CheckpointCorruptError(CheckpointError):
    """The checkpoint bytes fail their digest or structure checks."""


def digest_bytes(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


@dataclass(slots=True)
class SiteCheckpoint:
    """One captured site: the two byte parts plus routing identity."""

    site_name: str
    site_id: int
    state: bytes        # everything but the program area
    code: bytes         # the program area (separately shippable)
    code_digest: bytes  # blake2b-16 of ``code``

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
            group = self.program.groups[group_id]
            env: list = list(captures)
            env.extend([None] * len(group.clauses))
            refs = []
            for i, (clause_hint, block_id) in enumerate(group.clauses):
                cr = ClassRef(block_id, env, group_id, i, hint=clause_hint)
                env[group.nfree + i] = cr
                refs.append(cr)
            self.classrefs.append(refs)
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


def _stats_dict(stats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _restore_stats(stats, data: dict) -> None:
    for name, value in data.items():
        setattr(stats, name, value)


def _thread_record(cap: _Capture, thread: Thread) -> tuple:
    return (thread.block_id, thread.pc,
            cap.flatten_all(thread.frame), cap.flatten_all(thread.stack))


def _restore_thread(res: _Restore, record) -> Thread:
    block_id, pc, frame, stack = record
    return Thread(block_id=block_id, frame=[res.unflatten(v) for v in frame],
                  pc=pc, stack=[res.unflatten(v) for v in stack])


def capture_state(site: Site) -> bytes:
    """The state part of one site checkpoint (wire-encoded).

    Deterministic by construction: sets are sorted, dicts captured in
    insertion order, channels sorted by heap id, class instances in
    discovery order of a fixed traversal -- so restoring a checkpoint
    and capturing again yields the same bytes.
    """
    if site.name_signatures or site.wire_signatures:
        raise CheckpointError(
            f"{site.site_name}: typechecked sites (live wire signatures) "
            f"cannot be checkpointed")
    vm = site.vm
    cap = _Capture(site)

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

    current = None if vm.current is None else _thread_record(cap, vm.current)
    runqueue = tuple(_thread_record(cap, t)
                     for t in vm.runqueue.threads())
    stalled = tuple(_thread_record(cap, t) for t in vm.stalled)
    externals = [(hint, ch.heap_id) for hint, ch in vm.externals.items()]
    output = cap.flatten_all(vm.output)

    class_exports = [(cid, cap.flatten(cr))
                     for cid, cr in sorted(site._class_exports.items())]
    fetched = [(key, cap.flatten(cr)) for key, cr in site._fetched.items()]
    pending_fetch = [(key, tuple(cap.flatten_all(args) for args in waiting))
                     for key, waiting in site._pending_fetch.items()]
    pending_code = [(pkey, needed, payload)
                    for pkey, (needed, payload)
                    in site._pending_code.items()]

    codecache = None
    if site.codecache is not None:
        cc = site.codecache
        codecache = {
            "entries": [(digest, kind, item_id) for digest, (kind, item_id)
                        in sorted(cc.snapshot().items())],
            "in_flight": sorted(cc.in_flight_snapshot().items()),
            "generation": cc.generation,
            "hits": cc.hits, "misses": cc.misses, "installs": cc.installs,
        }

    distgc = None
    if site.distgc is not None:
        gc = site.distgc
        cfg = gc.config
        distgc = {
            "config": (cfg.lease_s, cfg.renew_s, cfg.sweep_s, cfg.grace_s),
            "stats": gc.stats.as_dict(),
            "leases": [(key, list(holders.items()))
                       for key, holders in gc.leases.items()],
            "held": [(ep, list(keys.items()))
                     for ep, keys in gc.held.items()],
            "pending": [(ep, list(keys))
                        for ep, keys in gc._pending_claims.items()],
        }

    state = {
        "site_name": site.site_name,
        "site_id": site.site_id,
        "ip": site.ip,
        "alias_ips": sorted(site.alias_ips),
        "fetch_cache": site.fetch_cache,
        "heap": {
            "next_id": vm.heap._next_id,
            "stats": (heap_stats.allocated, heap_stats.reclaimed,
                      heap_stats.collections),
            "channels": channels,
        },
        "current": current,
        "runqueue": {
            "threads": runqueue,
            "context_switches": vm.runqueue.context_switches,
            "max_depth": vm.runqueue.max_depth,
        },
        "stalled": stalled,
        "externals": externals,
        "output": output,
        "vm_stats": _stats_dict(vm.stats),
        "site_stats": _stats_dict(site.stats),
        "exported_ids": sorted(site.exported_ids),
        "name_exports": list(site._name_exports.items()),
        "class_export_names": list(site._class_export_names.items()),
        "class_exports": class_exports,
        "next_class_id": site._next_class_id,
        "fetched": fetched,
        "pending_fetch": pending_fetch,
        "pending_code": pending_code,
        "ship_offers": list(site._ship_offers.items()),
        "next_ship_token": site._next_ship_token,
        "gc_tombstones": sorted(site._gc_tombstones),
        "gc_class_tombstones": sorted(site._gc_class_tombstones),
        "incoming": list(site.incoming),
        "outgoing": list(site.outgoing),
        "codecache": codecache,
        "distgc": distgc,
        # Captured last: the instance table fills while everything
        # above flattens (order is part of the format).
        "instances": [tuple(entry) for entry in cap.instances],
    }
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
                          state=state, code=code,
                          code_digest=digest_bytes(code))


def build_site(code_bytes: bytes, state_bytes: bytes, *,
               ip: str, nameservice: NameService,
               clock=None) -> Site:
    """Rebuild a site at ``ip`` from its checkpoint parts.

    The returned site is *not* adopted into any node, registered with
    the name service, or booted -- the caller (the mobility manager)
    wires it in.  Restoring onto the checkpointed ip reproduces the
    original exactly; restoring onto a new ip records the old home in
    :attr:`Site.alias_ips` so references minted before the move keep
    resolving locally.
    """
    program = restore_code(code_bytes)
    state = _decode_part(state_bytes, "state")
    try:
        gc_state = state["distgc"]
        gc_config = (GcConfig(lease_s=gc_state["config"][0],
                              renew_s=gc_state["config"][1],
                              sweep_s=gc_state["config"][2],
                              grace_s=gc_state["config"][3])
                     if gc_state is not None else None)
        site = Site(state["site_name"], state["site_id"], ip, program,
                    nameservice,
                    distgc=gc_state is not None, gc_config=gc_config,
                    clock=clock)
        # The ablations a site was built under travel with it.
        site.fetch_cache = state["fetch_cache"]
        if state["codecache"] is None:
            site.codecache = site.codestore = None
        elif site.codecache is None:
            site.codecache, site.codestore = CodeCache(program), CodeStore()
        _fill_site(site, state, old_ip=state["ip"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(
            f"malformed checkpoint state: {exc!r}") from exc
    return site


def _fill_site(site: Site, state: dict, old_ip: str) -> None:
    vm = site.vm
    res = _Restore(vm.program)

    site.alias_ips = set(state["alias_ips"])
    if old_ip != site.ip:
        site.alias_ips.add(old_ip)
    site.alias_ips.discard(site.ip)

    # Heap channels first (empty), then group instances, then values.
    heap_state = state["heap"]
    for heap_id, hint, is_console, _msgs, _objs in heap_state["channels"]:
        builtin = _console_handler(vm) if is_console else None
        res.channels[heap_id] = vm.heap.adopt(
            Channel(heap_id, hint=hint, builtin=builtin))
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
    _restore_stats(vm.stats, state["vm_stats"])
    _restore_stats(site.stats, state["site_stats"])
    # The program is in flight again: boot() must never re-run main.
    vm._booted = True

    site.exported_ids = set(state["exported_ids"])
    site._name_exports = dict(state["name_exports"])
    site._class_export_names = dict(state["class_export_names"])
    site._class_exports = {cid: res.unflatten(flat)
                           for cid, flat in state["class_exports"]}
    site._class_ids = {id(cr): cid
                       for cid, cr in site._class_exports.items()}
    site._next_class_id = state["next_class_id"]
    site._fetched = {tuple(key): res.unflatten(flat)
                     for key, flat in state["fetched"]}
    site._pending_fetch = {
        tuple(key): [res.unflatten_all(args) for args in waiting]
        for key, waiting in state["pending_fetch"]}
    site._pending_code = {tuple(pkey): (tuple(needed), payload)
                          for pkey, needed, payload
                          in state["pending_code"]}
    site._ship_offers = {token: tuple(blocks)
                         for token, blocks in state["ship_offers"]}
    site._next_ship_token = state["next_ship_token"]
    site._gc_tombstones = set(state["gc_tombstones"])
    site._gc_class_tombstones = set(state["gc_class_tombstones"])
    site.incoming = deque(state["incoming"])
    site.outgoing = deque(state["outgoing"])

    cc_state = state["codecache"]
    if cc_state is not None:
        site.codecache.restore_state(
            [(digest, kind, item_id)
             for digest, kind, item_id in cc_state["entries"]],
            dict(cc_state["in_flight"]), cc_state["generation"])
        site.codecache.hits = cc_state["hits"]
        site.codecache.misses = cc_state["misses"]
        site.codecache.installs = cc_state["installs"]

    gc_state = state["distgc"]
    if gc_state is not None:
        gc: DistGC = site.distgc
        _restore_stats(gc.stats, gc_state["stats"])
        gc.leases = {tuple(key): {tuple(ep): t for ep, t in holders}
                     for key, holders in gc_state["leases"]}
        gc.held = {tuple(ep): {tuple(key): t for key, t in keys}
                   for ep, keys in gc_state["held"]}
        gc._pending_claims = {tuple(ep): [tuple(key) for key in keys]
                              for ep, keys in gc_state["pending"]}


def _console_handler(vm):
    """Rebuild the builtin console handler
    (:meth:`~repro.vm.machine.TycoVM.make_console` semantics, bound to
    the restored VM)."""

    def handler(label: str, args: tuple) -> None:
        vm.stats.prints += 1
        vm.output.extend(args)

    return handler


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
