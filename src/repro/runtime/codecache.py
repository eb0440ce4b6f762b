"""Content-addressed code: the "download once" of FETCH.

The paper's FETCH rule says class byte-code is "downloaded and linked
locally" -- the whole point of code-fetching semantics is that the
download happens *once*, and once per *node*: sites are "threads
sharing the address space of the node", so the unit that holds code is
the machine.  This module gives each site's program area a content
digest per block/object/group so the runtime can recognise code it
already holds:

* :func:`digest_item` -- the digest of one program item is the hash of
  the wire encoding of the *transitive slice* rooted at it.  Two items
  digest equal iff the whole sub-graph of code reachable from them is
  identical, which is exactly the condition for one installed copy to
  stand in for the other.  Rooted-slice hashing also side-steps the
  cycles in the code graph (a recursive class's clause block references
  its own group), which defeat naive per-item Merkle hashing.
* :func:`manifest_for_bundle` -- per-item digests parallel to an
  extracted :class:`~repro.compiler.linker.CodeBundle`.  Because
  extraction renumbers deterministically from the roots, the digest of
  a bundle item equals the digest of the program item it was extracted
  from -- sender-side and receiver-side digests agree with no shared
  state.
* :class:`CodeCache` -- digest -> installed program id, plus the
  transient protocol state: in-flight digest requests (so concurrent
  fetches of the same code share one download), all cleared when the
  owning node restarts or suspects a peer, since a crash may have made
  them unanswerable (the cached code itself is content-addressed and
  can never go stale).
* :class:`CodeStore` -- one per node: digest -> the rooted slice that
  digests to it.  What a site downloads, serves or offers is kept here,
  so the next site of the node links the slice out of the store
  instead of asking the owner again, and the node can answer for code
  a site it no longer runs once offered.  An entry also keeps what
  :func:`link_bundle` made of it last time (:meth:`CodeStore.link`):
  the task sites of a workload have one area shape, so they share the
  linked block objects -- and with them the tier state each block
  carries -- instead of each linking anew.
* :func:`link_bundle_cached` -- the receiving half: link a bundle into
  a program area installing **only** the items whose digests are
  missing, renumbering every cross-reference onto the cached copies.
  Block ids are area-relative, so a slice out of the node's store is
  linked into each site's own area through here too.
* :class:`SiteCode` -- the protocol that moves code (``site.code``):
  FETCH, the SHIPO offer, offer / need / reply, and the node's answer
  for a site it no longer runs (:func:`answer_orphan_need`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.compiler.assembly import ClassGroup, CodeBlock, ObjectCode, Program
from repro.compiler.linker import (
    BundleManifest,
    CodeBundle,
    LinkError,
    LinkResult,
    extract_bundle,
    link_bundle,
)
from repro.vm.machine import VMRuntimeError
from repro.vm.values import ClassRef, RemoteClassRef, group_classrefs

from .wire import (
    KIND_CODE_NEED,
    KIND_CODE_REPLY,
    KIND_FETCH_REPLY,
    KIND_FETCH_REQUEST,
    Packet,
    encode,
)

#: Digest width in bytes.  16 bytes of blake2b keeps manifests compact
#: while making accidental collisions astronomically unlikely.
DIGEST_SIZE = 16

BLOCK = "block"
OBJECT = "object"
GROUP = "group"

#: kind -> the :func:`extract_bundle` keyword that roots a slice there.
ROOTS_ARG = {BLOCK: "block_roots", OBJECT: "object_roots",
             GROUP: "group_roots"}

#: Rooted slices one node's :class:`CodeStore` holds before it is
#: emptied.  A node holds one slice per distinct class or method body
#: that ever crossed it (1 after 1200 `mapreduce` ops); emptying is the
#: whole eviction policy because an evicted digest costs one more
#: download, nothing else.
MAX_SLICES = 1024

#: Nodes keep a :class:`CodeStore` and sites a :class:`CodeCache`
#: (read when each is built).  False is ablation A2, which tests and
#: benchmarks flip: no digest tables or stores, every code offer is
#: answered with a CODE_NEED and every bundle is linked from scratch.
CODE_CACHE = True


class DeliveryError(VMRuntimeError):
    """An incoming packet referenced an unknown or unexported entity,
    or carried code that does not verify."""


def _bundle_as_program(bundle: CodeBundle) -> Program:
    """View a bundle as a program area so it can be re-extracted."""
    return Program(blocks=list(bundle.blocks), objects=list(bundle.objects),
                   groups=list(bundle.groups))


def digest_bytes(data: bytes) -> bytes:
    """The one content digest: code slices and checkpoint blobs."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).digest()


def digest_item(program: Program, kind: str, item_id: int,
                memo: Optional[dict] = None,
                store: Optional["CodeStore"] = None) -> bytes:
    """Digest of the transitive code slice rooted at one program item.

    ``memo`` (keyed by ``(kind, id)``) is safe to keep for the lifetime
    of the program area: areas are append-only and items immutable.
    ``store`` keeps the slice that had to be extracted to digest it --
    the deposit costs nothing the digest did not already pay for, and
    a memo hit deposits nothing.
    """
    if memo is not None:
        key = (kind, item_id)
        cached = memo.get(key)
        if cached is not None:
            return cached
    rooted_slice = extract_bundle(program, **{ROOTS_ARG[kind]: (item_id,)})
    digest = digest_bytes(encode(rooted_slice))
    if memo is not None:
        memo[key] = digest
    if store is not None:
        store.deposit(digest, rooted_slice)
    return digest


def manifest_for_bundle(bundle: CodeBundle) -> BundleManifest:
    """Per-item digests for an extracted bundle.

    Each digest is computed on the rooted slice *within* the bundle;
    extraction is canonical, so this equals the digest of the source
    program item the bundle entry came from.
    """
    view = _bundle_as_program(bundle)
    memo: dict = {}
    return BundleManifest(
        block_digests=tuple(digest_item(view, BLOCK, i, memo)
                            for i in range(len(bundle.blocks))),
        object_digests=tuple(digest_item(view, OBJECT, i, memo)
                             for i in range(len(bundle.objects))),
        group_digests=tuple(digest_item(view, GROUP, i, memo)
                            for i in range(len(bundle.groups))),
    )


def verified_roots(bundle: CodeBundle,
                   manifest: BundleManifest) -> list[tuple[str, int, bytes]]:
    """``(kind, bundle-local id, digest)`` of every root of ``bundle``,
    once every digest of ``manifest`` was recomputed from the bundle
    itself -- :class:`LinkError` if one differs or the bundle does not
    hang together (a dangling reference, a root it lacks)."""
    if manifest_for_bundle(bundle) != manifest:
        raise LinkError("manifest does not match its bundle")
    roots = []
    for kind, entries, digests in (
            (BLOCK, bundle.entry_blocks, manifest.block_digests),
            (OBJECT, bundle.entry_objects, manifest.object_digests),
            (GROUP, bundle.entry_groups, manifest.group_digests)):
        for i in entries:
            if not (0 <= i < len(digests)):
                raise LinkError(f"bundle roots {kind} {i}, which it lacks")
            roots.append((kind, i, digests[i]))
    return roots


class CodeStore:
    """Digest -> the rooted slice that digests to it, for one node.

    Sites come and go (a client operation is a site); the code they
    downloaded stays with the node.  An entry is a single-root
    :class:`~repro.compiler.linker.CodeBundle` plus its manifest, kept
    under the digest of its root -- bundle-local ids, so any site links
    it into its own program area with :func:`link_bundle_cached`.

    Everything here was either extracted on this node from a program
    area (:func:`digest_item` with ``store=``) or re-extracted from a
    download whose every digest was recomputed first
    (:meth:`SiteCode.on_code_reply`); the key is the hash of what is stored,
    by construction.  Entries are immutable and only the node's own
    thread writes the table (a wall-clock world's delivery thread may
    read it, to answer an orphan CODE_NEED).
    """

    def __init__(self) -> None:
        self._slices: dict[bytes, tuple[CodeBundle, BundleManifest]] = {}
        #: digest -> what the last full link of that slice appended
        #: (one slot per slice; dies with the entry).
        self._linked: dict[bytes, _LinkedSlice] = {}
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._slices)

    def get(self, digest: bytes
            ) -> Optional[tuple[CodeBundle, BundleManifest]]:
        return self._slices.get(digest)

    def deposit(self, digest: bytes, rooted_slice: CodeBundle
                ) -> tuple[CodeBundle, BundleManifest]:
        """Keep ``rooted_slice`` under ``digest`` (first deposit wins;
        the manifest is computed once, here) and return the entry."""
        found = self._slices.get(digest)
        if found is None:
            if len(self._slices) >= MAX_SLICES:
                self.evictions += len(self._slices)
                self._slices.clear()
                self._linked.clear()
            found = self._slices[digest] = (
                rooted_slice, manifest_for_bundle(rooted_slice))
        return found

    def deposit_roots(self, bundle: CodeBundle,
                      roots: list[tuple[str, int, bytes]]) -> None:
        """Keep each root of a verified download.  Re-extracted per
        root, so what is stored is the rooted slice its key is the hash
        of, whatever else the download carried."""
        view = _bundle_as_program(bundle)
        for kind, item_id, _digest in roots:
            digest_item(view, kind, item_id, store=self)

    def link(self, digest: bytes, program: Program,
             cache: "CodeCache") -> Optional[LinkResult]:
        """Link the slice kept under ``digest`` into ``program`` and
        register its items in ``cache``; None when there is no such
        slice.

        What :func:`link_bundle` appends is a function of the slice
        and of the receiving area's shape alone when nothing is reused
        (every reference lands in the appended range), so the last such
        link is remembered: the next site whose area has that shape and
        whose table knows none of the slice's digests -- every task
        site of a workload -- ``extend`` s its area with the same
        objects, so the blocks' tier state is shared from the first
        site on.  The bookkeeping is :func:`link_bundle_cached`'s in
        both cases.
        """
        entry = self._slices.get(digest)
        if entry is None:
            return None
        bundle, manifest = entry
        nblocks, nobjects, ngroups = area = (
            len(program.blocks), len(program.objects), len(program.groups))
        linked = self._linked.get(digest)
        if (linked is None or linked.area != area
                or any(map(cache.has, manifest.block_digests
                           + manifest.object_digests
                           + manifest.group_digests))):
            result = link_bundle_cached(program, bundle, manifest, cache)
            if result.installed_count() == len(manifest):
                self._linked[digest] = _LinkedSlice(
                    area, program.blocks[nblocks:],
                    program.objects[nobjects:], program.groups[ngroups:],
                    result)
            return result
        program.blocks.extend(linked.blocks)
        program.objects.extend(linked.objects)
        program.groups.extend(linked.groups)
        _register_linked(cache, manifest, linked.result)
        return linked.result

    def snapshot(self) -> dict[bytes, tuple[CodeBundle, BundleManifest]]:
        """Copy of the table (for the integrity invariant)."""
        return dict(self._slices)


@dataclass(slots=True)
class _LinkedSlice:
    """What one full :func:`link_bundle` of a stored slice appended to
    an area of shape ``area`` = (blocks, objects, groups) before it."""

    area: tuple[int, int, int]
    blocks: list[CodeBlock]
    objects: list[ObjectCode]
    groups: list[ClassGroup]
    result: LinkResult


class CodeCache:
    """Digest -> installed location for one site's program area.

    Also owns the transient fetch-protocol state, ``in_flight``: the
    digests this site has asked a remote sender for and not yet
    received.  A second fetch needing an in-flight digest parks instead
    of re-downloading (request coalescing).  :meth:`forget_in_flight`
    drops every mark when a crash may have eaten the replies; installed
    entries survive because they are content-addressed and verified
    against the program area itself.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._by_digest: dict[bytes, tuple[str, int]] = {}
        self._in_flight: set[bytes] = set()
        self.installs = 0

    def __len__(self) -> int:
        return len(self._by_digest)

    # -- digest bookkeeping ---------------------------------------------------

    def register(self, digest: bytes, kind: str, item_id: int) -> None:
        """Record that ``digest`` lives at ``(kind, item_id)`` locally."""
        self._by_digest.setdefault(digest, (kind, item_id))

    def lookup(self, digest: bytes) -> Optional[tuple[str, int]]:
        return self._by_digest.get(digest)

    def has(self, digest: bytes) -> bool:
        return digest in self._by_digest

    def snapshot(self) -> dict[bytes, tuple[str, int]]:
        """Copy of the digest table (for the integrity invariant)."""
        return dict(self._by_digest)

    def checkpoint_state(self) -> dict:
        """Digest rows, in-flight marks and the install count (for site
        checkpointing, repro.mobility)."""
        return {
            "entries": [(digest, kind, item_id) for digest, (kind, item_id)
                        in sorted(self._by_digest.items())],
            "in_flight": sorted(self._in_flight),
            "installs": self.installs,
        }

    def restore_state(self, state: dict) -> None:
        """Refill from :meth:`checkpoint_state`.  Item ids are valid
        verbatim because a checkpoint restore rebuilds the program area
        identically."""
        for digest, kind, item_id in state["entries"]:
            self.register(digest, kind, item_id)
        self._in_flight.update(state["in_flight"])
        self.installs = state["installs"]

    # -- in-flight request coalescing ----------------------------------------

    def mark_in_flight(self, digest: bytes) -> None:
        self._in_flight.add(digest)

    def is_in_flight(self, digest: bytes) -> bool:
        """Asked for and not yet installed."""
        return digest in self._in_flight and digest not in self._by_digest

    def clear_in_flight(self, digest: bytes) -> None:
        self._in_flight.discard(digest)

    def forget_in_flight(self) -> None:
        """Drop every in-flight mark: the request (or its reply) may
        have died, so no mark may suppress a re-request.

        Two callers: a node *restart* (our own in-flight requests may
        have died with the crash) and the distributed GC's
        *peer-suspected* path (requests toward the dead peer will never
        be answered; see
        :meth:`~repro.runtime.distgc.LeaseProtocol.on_peer_suspected`).
        Installed code is content-addressed and therefore never stale --
        only the transient request-coalescing state is discarded."""
        self._in_flight.clear()


def link_bundle_cached(program: Program, bundle: CodeBundle,
                       manifest: BundleManifest,
                       cache: Optional[CodeCache]) -> LinkResult:
    """Link ``bundle``, installing only the items ``cache`` is missing.

    Items whose digest is already installed are renumbered onto the
    existing copy; everything else is appended and registered under its
    manifest digest.  With a fully warm cache this is a pure
    renumbering (idempotent: the program area does not grow).  Without
    a cache it degenerates to plain :func:`link_bundle`.
    """
    if cache is None:
        return link_bundle(program, bundle)
    if not manifest.matches(bundle):
        raise LinkError(
            f"manifest shape {len(manifest.block_digests)}/"
            f"{len(manifest.object_digests)}/{len(manifest.group_digests)} "
            f"does not match bundle {len(bundle.blocks)}/"
            f"{len(bundle.objects)}/{len(bundle.groups)}")

    def reuse_map(digests: tuple[bytes, ...], kind: str) -> dict[int, int]:
        reuse = {}
        for i, digest in enumerate(digests):
            found = cache.lookup(digest)
            if found is not None and found[0] == kind:
                reuse[i] = found[1]
        return reuse

    reuse_b = reuse_map(manifest.block_digests, BLOCK)
    reuse_o = reuse_map(manifest.object_digests, OBJECT)
    reuse_g = reuse_map(manifest.group_digests, GROUP)
    result = link_bundle(program, bundle, reuse_blocks=reuse_b,
                         reuse_objects=reuse_o, reuse_groups=reuse_g)
    _register_linked(cache, manifest, result)
    return result


def _register_linked(cache: CodeCache, manifest: BundleManifest,
                     result: LinkResult) -> None:
    """Register what one link installed under its manifest digests."""
    for kind, digests, ids, reused in (
            (BLOCK, manifest.block_digests, result.block_map,
             result.reused_blocks),
            (OBJECT, manifest.object_digests, result.object_map,
             result.reused_objects),
            (GROUP, manifest.group_digests, result.group_map,
             result.reused_groups)):
        for i, digest in enumerate(digests):
            if i not in reused:
                cache.register(digest, kind, ids[i])
                cache.installs += 1
            cache.clear_in_flight(digest)


def verify_cache_integrity(cache: CodeCache) -> list[str]:
    """Recompute the digest of every cached item from the program area.

    Any mismatch means the cache would serve code that is not what its
    digest promises -- the "stale code" failure the chaos invariant
    guards against.  Returns violation strings (empty = consistent).
    """
    violations = []
    for digest, (kind, item_id) in cache.snapshot().items():
        table = {BLOCK: cache.program.blocks, OBJECT: cache.program.objects,
                 GROUP: cache.program.groups}[kind]
        if not (0 <= item_id < len(table)):
            violations.append(
                f"code cache maps digest {digest.hex()[:12]} to missing "
                f"{kind} {item_id}")
            continue
        actual = digest_item(cache.program, kind, item_id)
        if actual != digest:
            violations.append(
                f"stale code: cached {kind} {item_id} digests "
                f"{actual.hex()[:12]}, cache promised {digest.hex()[:12]}")
    return violations


def verify_store_integrity(store: CodeStore) -> list[str]:
    """Re-digest every slice a node's store holds: each must have one
    root that digests to its key, and a manifest that is the slice's
    own.  Returns violation strings (empty = consistent)."""
    violations = []
    for digest, (rooted_slice, manifest) in store.snapshot().items():
        tag = digest.hex()[:12]
        try:
            roots = verified_roots(rooted_slice, manifest)
        except LinkError as exc:
            violations.append(f"stale code: store slice {tag}: {exc}")
            continue
        if [d for _kind, _i, d in roots] != [digest]:
            violations.append(
                f"stale code: store slice {tag} is rooted at "
                f"{[d.hex()[:12] for _kind, _i, d in roots]}")
    return violations


class SiteCode:
    """The code-movement protocol of one site (docs/WIRE.md): FETCH
    request and serve, the SHIPO offer, offer / need / reply with its
    verification and install, and the restart re-drive.  Owns the
    protocol's state; the site marshals values and hands over the
    packets of these kinds."""

    def __init__(self, site, fetch_cache: bool) -> None:
        self.site = site
        #: The site's ``FETCH_CACHE`` setting; a checkpoint carries it,
        #: so an ablated site restores ablated.
        self.fetch_cache = fetch_cache
        #: Digest -> id in *this* program area, plus the in-flight
        #: state; None is ablation A2 (:data:`CODE_CACHE` off: every
        #: bundle is linked from scratch, every offer needs its code).
        self.cache: Optional[CodeCache] = (
            CodeCache(site.vm.program) if CODE_CACHE else None)
        #: Where the code itself is kept: the node's store once the
        #: node admits the site (a bare site has its own); None under A2.
        self.store: Optional[CodeStore] = CodeStore() if CODE_CACHE else None
        # The one digest memo over this program area (serving and
        # shipping; kept even with the cache ablated).
        self._digest_memo: dict = {}
        # FETCH cache: (owner ip, owner site, class id) -> local ClassRef.
        self._fetched: dict[tuple[str, int, int], ClassRef] = {}
        # Instantiations waiting for an in-flight FETCH.
        self._pending_fetch: dict[tuple[str, int, int], list[tuple]] = {}
        # Offers whose code has not arrived yet:
        # (src ip, src site, token kind, token value) ->
        #     (needed digests, offer payload).
        self._pending_code: dict[tuple, tuple[tuple[bytes, ...], tuple]] = {}
        # Names each SHIPO for the receiver's parked offer.  A CODE_NEED
        # is answered from the digests it names, so no offer is kept.
        self._next_ship_token = 1

    def has_pending(self) -> bool:
        """A FETCH or a code offer is waiting for an answer."""
        return bool(self._pending_fetch) or bool(self._pending_code)

    def parked_offers(self) -> int:
        """Code offers still waiting for their byte-code."""
        return len(self._pending_code)

    def gc_roots(self) -> list:
        """Values only this protocol holds: FETCH arguments, parked
        offers, cached classes."""
        roots: list = [args for waiting in self._pending_fetch.values()
                       for args in waiting]
        roots.extend(entry[1] for entry in self._pending_code.values())
        roots.extend(self._fetched.values())
        return roots

    def fetched_classes(self) -> list[tuple[str, int, int]]:
        """(owner ip, owner site, class id) of every cached FETCH."""
        return list(self._fetched)

    def held_classes(self) -> list[tuple[str, int, int]]:
        """(owner ip, owner site, class id) of every cached or
        in-flight FETCH: each holds its owner's class alive."""
        return [*self._fetched, *self._pending_fetch]

    def forget_peer(self, ip: str) -> None:
        """The node at ``ip`` is suspected dead: evict its class
        bindings (a restarted peer may rebind class ids; the code stays
        installed) and the in-flight marks it will never answer."""
        for key in [k for k in self._fetched if k[0] == ip]:
            del self._fetched[key]
        if self.cache is not None:
            self.cache.forget_in_flight()

    def cached_class(self, cref: RemoteClassRef):
        """The local ClassRef a FETCH of ``cref`` left, else ``cref``."""
        if self.fetch_cache:
            cached = self._fetched.get((cref.ip, cref.site_id, cref.class_id))
            if cached is not None:
                return cached
        return cref

    def debug_lines(self) -> list[str]:
        lines = []
        for (ip, sid, cid), args_list in self._pending_fetch.items():
            lines.append(f"FETCH pending from {ip}/s{sid}/c{cid} "
                         f"({len(args_list)} instantiation(s) parked)")
        for (ip, sid, token_kind, token_val), (needed, _payload) \
                in self._pending_code.items():
            lines.append(f"code pending from {ip}/s{sid} "
                         f"({token_kind} {token_val}, "
                         f"{len(needed)} digest(s) awaited)")
        return lines

    def _digest_of(self, kind: str, item_id: int) -> bytes:
        """Content digest of one of our own program items, registered
        in our table so code that bounces back is not re-downloaded.
        The slice extracted to compute it stays in the node's store:
        the next need for it is answered without extracting again, by
        this site or -- once this site was reaped -- by the node."""
        digest = digest_item(self.site.vm.program, kind, item_id,
                             self._digest_memo, self.store)
        if self.cache is not None:
            self.cache.register(digest, kind, item_id)
        return digest

    def _method_block(self, digest: bytes) -> int:
        """The method block of our own object code that digests to
        ``digest``: one we offered (the memo holds it), else -- the memo
        is not checkpointed -- the first method block that digests so.
        :class:`DeliveryError` when none does."""
        for (kind, item_id), known in self._digest_memo.items():
            if kind == BLOCK and known == digest:
                return item_id
        for obj in self.site.vm.program.objects:
            for block_id in obj.methods.values():
                if self._digest_of(BLOCK, block_id) == digest:
                    return block_id
        raise DeliveryError(
            f"{self.site.site_name}: CODE_NEED for digest "
            f"{digest.hex()[:12]}, which no method block here has")

    # -- sender side ------------------------------------------------------

    def offer(self, methods: dict[str, int]
              ) -> tuple[int, dict[str, int], tuple[bytes, ...]]:
        """SHIPO: *offer* the method blocks by content digest; returns
        (ship token, label -> position, digests) for the object packet."""
        block_ids = tuple(methods.values())
        digests = tuple(self._digest_of(BLOCK, bid) for bid in block_ids)
        token = self._next_ship_token
        self._next_ship_token += 1
        positions = {label: i for i, label in enumerate(methods.keys())}
        return token, positions, digests

    def fetch_instance(self, cref: RemoteClassRef, args: tuple) -> None:
        """INSTOF on a remote class: FETCH protocol with caching."""
        key = (cref.ip, cref.site_id, cref.class_id)
        site = self.site
        if self.fetch_cache:
            cached = self._fetched.get(key)
            if cached is not None:
                site.stats.fetch_cache_hits += 1
                site.vm.spawn_instance(cached, args)
                return
        pending = self._pending_fetch.get(key)
        if pending is not None:
            pending.append(args)
            return
        self._pending_fetch[key] = [args]
        site.stats.fetch_requests_sent += 1
        site.send(KIND_FETCH_REQUEST, cref.ip, cref.site_id,
                  (cref.class_id,))
        site.trace("fetch-req", cref.ip, note=f"class {cref.class_id}")

    def serve_fetch(self, packet: Packet) -> None:
        """Owner side of FETCH: *offer* the class group by content
        digest plus its captured environment.  The byte-code itself
        travels only if the requester answers with a CODE_NEED."""
        (class_id,) = packet.payload
        site = self.site
        classref = site.exported_class(class_id, "FETCH of ")
        requester = (packet.src_ip, packet.src_site_id)
        # The requester becomes a holder of the class the moment we
        # serve it (its own claim may still be in flight).
        if site.distgc is not None:
            site.distgc.grant_out(("c", class_id), requester)
        root_digest = self._digest_of(GROUP, classref.group_id)
        group = site.vm.program.groups[classref.group_id]
        captured = tuple(site.marshal_value(v, requester)
                         for v in classref.env[:group.nfree])
        site.stats.fetch_replies_served += 1
        site.send(KIND_FETCH_REPLY, packet.src_ip, packet.src_site_id,
                  (class_id, root_digest, classref.index, captured,
                   classref.hint))
        site.trace("fetch-serve", packet.src_ip, note=f"class {class_id}")

    def serve_code_need(self, packet: Packet) -> None:
        """Owner side, step 2: send the requested slice with its
        manifest, so the receiver installs item-by-item.  A FETCH need
        names its class, a SHIPO need the method digests it lacks (the
        ship token only keys the receiver's parked offer).  A single
        root -- every FETCH, every one-method object -- is the slice
        the node's store already keeps under the digest we offered."""
        token_kind, token_val, digests = packet.payload
        site = self.site
        if token_kind == "fetch":
            classref = site.exported_class(token_val, "CODE_NEED for ")
            kind, root_ids = GROUP, (classref.group_id,)
        elif token_kind == "ship":
            if not digests or any(type(d) is not bytes for d in digests):
                raise DeliveryError(
                    f"{site.site_name}: CODE_NEED for ship token "
                    f"{token_val} names no digests")
            # Only the blocks the receiver asked for; the rest it holds.
            kind, root_ids = BLOCK, tuple(map(self._method_block, digests))
        else:
            raise DeliveryError(
                f"{site.site_name}: unknown CODE_NEED token kind "
                f"{token_kind!r}")
        store = self.store if len(root_ids) == 1 else None
        root_digest = self._digest_of(kind, root_ids[0])  # memoised
        reply = _stored_reply(store, packet, root_digest)
        if reply is None:  # several roots, evicted since offered, or A2
            bundle = extract_bundle(site.vm.program,
                                    **{ROOTS_ARG[kind]: root_ids})
            reply = (token_kind, token_val,
                     *(store.deposit(root_digest, bundle) if store is not None
                       else (bundle, manifest_for_bundle(bundle))))
        site.stats.code_replies_served += 1
        site.send(KIND_CODE_REPLY, packet.src_ip, packet.src_site_id, reply)

    # -- receiver side ------------------------------------------------------

    def _send_code_need(self, pkey, needed: tuple[bytes, ...]) -> None:
        """Ask the owner for the digests of ``needed`` this site neither
        holds nor has asked for already; send nothing if none is left."""
        src_ip, src_site_id, token_kind, token_val = pkey
        digests = needed if self.cache is None else tuple(
            d for d in needed
            if not self.cache.has(d) and not self.cache.is_in_flight(d))
        if not digests:
            return
        if self.cache is not None:
            for digest in digests:
                self.cache.mark_in_flight(digest)
        self.site.stats.code_needs_sent += 1
        self.site.send(KIND_CODE_NEED, src_ip, src_site_id,
                       (token_kind, token_val, digests))
        self.site.trace("code-need", src_ip, size=len(digests))

    def _local_code(self, digest: bytes, kind: str,
                    installed: dict[bytes, tuple[str, int]]
                    ) -> Optional[int]:
        """The one lookup order of the code protocol: what a reply just
        linked (``installed``; all an ablated site has to go by), this
        site's own table, then the node's store -- a hit there links
        the stored slice into *our* program area (block ids are
        area-relative) and registers it in the table.  None means only
        the owner can help."""
        found = installed.get(digest)
        cache = self.cache
        if found is None and cache is not None:
            found = cache.lookup(digest)
            if found is None and self.store is not None:
                result = self.store.link(digest, self.site.vm.program, cache)
                if result is not None:
                    self.site.stats.code_items_installed += \
                        result.installed_count()
                    found = cache.lookup(digest)
        if found is not None and found[0] == kind:
            return found[1]
        return None

    def _local_ids(self, token_kind: str, payload,
                   installed: dict[bytes, tuple[str, int]]):
        """Where an offer's code is here: the local group id of a FETCH
        offer, label -> local block id of a SHIPO; None while some of
        it is missing."""
        if token_kind == "fetch":
            return self._local_code(payload[1], GROUP, installed)
        _token, _heap_id, positions, entry_digests, _env = payload
        block_ids = {}
        for label, pos in positions.items():
            block_id = self._local_code(entry_digests[pos], BLOCK, installed)
            if block_id is None:
                return None
            block_ids[label] = block_id
        return block_ids

    def on_offer(self, packet: Packet) -> None:
        """Receiver side, step 1: the owner offered a class group
        (FETCH_REPLY) or method blocks (SHIPO) by digest.  Held by this
        site or its node -> install with zero code bytes on the wire;
        missing -> park the offer and ask for the missing digests,
        unless an earlier request covers them all (in-flight
        coalescing: concurrent fetches of the same code share one
        download)."""
        site = self.site
        if packet.kind == KIND_FETCH_REPLY:
            token_val, root_digest, _index, _captured, _hint = packet.payload
            token_kind, note, needed = "fetch", f"class {token_val}", \
                (root_digest,)
        else:
            token_val, heap_id, positions, entry_digests, _env = \
                packet.payload
            site.check_target(heap_id)
            if any(type(d) is not bytes for d in entry_digests) or any(
                    type(p) is not int or not 0 <= p < len(entry_digests)
                    for p in positions.values()):
                raise DeliveryError(
                    f"{site.site_name}: object offer {token_val} does not "
                    f"map its labels to its digests")
            # De-dup: an object may expose one block under two labels.
            token_kind, note, needed = "ship", f"obj {heap_id}", \
                tuple(dict.fromkeys(entry_digests))
        pkey = (packet.src_ip, packet.src_site_id, token_kind, token_val)
        local = self._local_ids(token_kind, packet.payload, {})
        if local is not None:
            site.stats.code_cache_hits += 1
            site.trace("cache-hit", packet.src_ip, note=note)
            self._install(pkey, packet.payload, local)
            return
        site.stats.code_cache_misses += 1
        site.trace("cache-miss", packet.src_ip, note=note)
        if pkey in self._pending_code:
            return  # duplicate offer; a request is already out
        self._pending_code[pkey] = (needed, packet.payload)
        self._send_code_need(pkey, needed)

    def _verify_code_reply(self, pkey, bundle, manifest) -> list:
        """Nothing unverified is linked or stored: every digest of the
        manifest is recomputed from the shipped bundle, and while the
        offer is parked the bundle must be rooted at digests it asked
        for.  Returns the bundle's roots."""
        try:
            roots = verified_roots(bundle, manifest)
        except LinkError as exc:
            raise DeliveryError(
                f"{self.site.site_name}: CODE_REPLY does not verify: "
                f"{exc}") from exc
        entry = self._pending_code.get(pkey)
        if entry is not None:
            asked = set(entry[0])
            if not roots or any(d not in asked for _k, _i, d in roots):
                raise DeliveryError(
                    f"{self.site.site_name}: CODE_REPLY is not the code "
                    f"{pkey[2]} {pkey[3]} asked for")
        return roots

    def on_code_reply(self, packet: Packet) -> None:
        """Receiver side, step 3: verify the slice, link it (installing
        only the missing items), leave each root with the node for the
        sites that come after us, then complete every offer it
        satisfies."""
        token_kind, token_val, bundle, manifest = packet.payload
        pkey = (packet.src_ip, packet.src_site_id, token_kind, token_val)
        roots = self._verify_code_reply(pkey, bundle, manifest)
        result = link_bundle_cached(self.site.vm.program, bundle, manifest,
                                    self.cache)
        if self.store is not None and pkey in self._pending_code:
            self.store.deposit_roots(bundle, roots)
        installed = {digest: (BLOCK, result.block_map[i])
                     for i, digest in enumerate(manifest.block_digests)}
        installed.update((digest, (GROUP, result.group_map[i]))
                         for i, digest in enumerate(manifest.group_digests))
        new_items = result.installed_count()
        self.site.stats.code_items_installed += new_items
        self.site.trace("code-install", packet.src_ip, size=new_items,
                        note=f"{token_kind} {token_val}")
        self._try_complete_code(pkey, installed)
        if self.cache is not None:
            # Coalesced offers parked on the same digests complete now.
            for other in list(self._pending_code):
                self._try_complete_code(other, installed)

    def _try_complete_code(
            self, pkey, installed: dict[bytes, tuple[str, int]]) -> bool:
        """Complete one parked offer if all its code is now local."""
        entry = self._pending_code.get(pkey)
        if entry is None:
            return False
        local = self._local_ids(pkey[2], entry[1], installed)
        if local is None:
            return False
        del self._pending_code[pkey]
        self._install(pkey, entry[1], local)
        return True

    def _install(self, pkey, payload, local) -> None:
        """Final step, once an offer's code is local: deliver the
        shipped object, or build the ClassRefs on the fetched class
        group and spawn every parked instantiation."""
        vm, unmarshal = self.site.vm, self.site.unmarshal_value
        if pkey[2] == "ship":
            _token, heap_id, _positions, _entry_digests, env = payload
            if any(vm.program.blocks[block_id].nfree != len(env)
                   for block_id in local.values()):
                raise DeliveryError(
                    f"{self.site.site_name}: object offer {pkey[3]} does "
                    f"not fit its methods ({len(env)} captures)")
            vm.deliver_object(heap_id, local,
                              tuple(unmarshal(v) for v in env))
            return
        src_ip, src_site_id, _kind, class_id = pkey
        _class_id, _root_digest, index, captured, hint = payload
        group = vm.program.groups[local]
        if len(captured) != group.nfree or not (
                0 <= index < len(group.clauses)):
            raise DeliveryError(
                f"{self.site.site_name}: class {class_id} offer does not "
                f"fit its group (clause {index}, {len(captured)} captures)")
        target = group_classrefs(
            local, group.clauses, [unmarshal(v) for v in captured])[index]
        key = (src_ip, src_site_id, class_id)
        if self.fetch_cache:
            self._fetched[key] = target
        waiting = self._pending_fetch.pop(key, [])
        # The reply can come back from a different ip than the request
        # went to: the owning site was live-migrated while our
        # fetch_req was in flight and the old home forwarded it
        # (docs/MIGRATION.md).  Site ids are allocated by the name
        # service and survive rebinds, so (site_id, class_id) still
        # identifies the fetch; adopt instantiations parked under the
        # stale ip and alias the cache so heap refs minted before the
        # move keep hitting it.
        for stale in [k for k in self._pending_fetch
                      if k[1] == src_site_id and k[2] == class_id]:
            waiting.extend(self._pending_fetch.pop(stale))
            if self.fetch_cache:
                self._fetched[stale] = target
        for args in waiting:
            vm.spawn_instance(target, args)

    # -- restart recovery -----------------------------------------------------

    def on_restart(self) -> None:
        """The owning node restarted after a crash (or lost a link).

        A crash makes every in-flight code request unanswerable (its
        CODE_NEED or CODE_REPLY may have been dropped while we were
        down).  Forget the in-flight marks, then re-drive the protocol:
        complete offers the cache can already satisfy, re-request the
        rest, and re-issue FETCH requests whose offer never arrived.
        Installed code survives -- it is content-addressed, never
        stale."""
        if self.cache is not None:
            self.cache.forget_in_flight()
        for pkey in list(self._pending_code):
            if self._try_complete_code(pkey, {}):
                continue
            self._send_code_need(pkey, self._pending_code[pkey][0])
        for key in list(self._pending_fetch):
            ip, sid, class_id = key
            if (ip, sid, "fetch", class_id) in self._pending_code:
                continue  # offer arrived; the re-sent NEED covers it
            self.site.stats.fetch_requests_sent += 1
            self.site.send(KIND_FETCH_REQUEST, ip, sid, (class_id,))

    # -- checkpoint (repro.mobility.checkpoint) -------------------------------

    def checkpoint_state(self, cap) -> dict:
        """This protocol's part of a site checkpoint; ``cap.flatten``
        gives a VM value its checkpoint form."""
        return {
            "fetch_cache": self.fetch_cache,
            "fetched": [(key, cap.flatten(cr))
                        for key, cr in self._fetched.items()],
            "pending_fetch": [(key, tuple(cap.flatten_all(args)
                                          for args in waiting))
                              for key, waiting in self._pending_fetch.items()],
            "pending_code": [(pkey, needed, payload) for pkey, (needed, payload)
                             in self._pending_code.items()],
            "next_ship_token": self._next_ship_token,
            "codecache": (None if self.cache is None
                          else self.cache.checkpoint_state()),
        }

    def restore_state(self, state: dict, res) -> None:
        """Refill from :meth:`checkpoint_state`, the ablations included
        (``res.unflatten`` turns a checkpoint form back into a value)."""
        self.fetch_cache = state["fetch_cache"]
        if state["codecache"] is None:
            self.cache = self.store = None
        else:
            if self.cache is None:
                self.cache, self.store = CodeCache(self.site.vm.program), \
                    CodeStore()
            self.cache.restore_state(state["codecache"])
        self._fetched = {tuple(key): res.unflatten(flat)
                         for key, flat in state["fetched"]}
        self._pending_fetch = {
            tuple(key): [res.unflatten_all(args) for args in waiting]
            for key, waiting in state["pending_fetch"]}
        self._pending_code = {tuple(pkey): (tuple(needed), payload)
                              for pkey, needed, payload
                              in state["pending_code"]}
        self._next_ship_token = state["next_ship_token"]


def _stored_reply(store: Optional[CodeStore], need: Packet,
                  digest: bytes) -> Optional[tuple]:
    """The CODE_REPLY payload answering ``need`` with the slice
    ``store`` keeps under ``digest``; None when it keeps none."""
    entry = store.get(digest) if store is not None else None
    if entry is None:
        return None
    token_kind, token_val, _digests = need.payload
    return (token_kind, token_val, *entry)


def answer_orphan_need(tycod, need: Packet) -> None:
    """A CODE_NEED for a site the node no longer runs: the slices it
    digested to make the offer are still in the node's store.  Answer
    in its name, one CODE_REPLY per requested digest (the receiver
    completes its offer across replies).  A need the store cannot
    answer in full (ablation A2, an evicted digest) is dropped, which
    leaves the receiver blocked -- the state a crashed owner leaves --
    never an exception out of the world."""
    node = tycod.node
    token_kind, token_val, digests = need.payload
    replies = [_stored_reply(node.codestore, need, d)
               if type(d) is bytes else None for d in digests]
    if not replies or None in replies:
        tycod.stats.orphan_needs_dropped += 1
        node.trace("code-orphan", need.src_ip, node.ip, len(digests),
                   note=f"site {need.dest_site_id} is gone: "
                        f"{token_kind} {token_val}")
        return
    for reply in replies:
        tycod.route(Packet(
            kind=KIND_CODE_REPLY,
            src_ip=node.ip, src_site_id=need.dest_site_id,
            dest_ip=need.src_ip, dest_site_id=need.src_site_id,
            payload=reply, span=need.span))
