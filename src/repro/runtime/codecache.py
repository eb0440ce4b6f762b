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
  fetches of the same code share one download) and a *generation*
  counter bumped when the owning node restarts, which invalidates
  in-flight state that a crash made unanswerable (the cached code
  itself is content-addressed and can never go stale).
* :class:`CodeStore` -- one per node: digest -> the rooted slice that
  digests to it.  What a site downloads, serves or offers is kept here,
  so the next site of the node links the slice out of the store
  instead of asking the owner again, and the node can answer for code
  a site it no longer runs once offered.  An entry also keeps what
  :func:`link_bundle` made of it last time (:meth:`CodeStore.link`):
  the task sites of a workload have one area shape, so they share the
  linked blocks and their decoded plans instead of each linking anew.
* :func:`link_bundle_cached` -- the receiving half: link a bundle into
  a program area installing **only** the items whose digests are
  missing, renumbering every cross-reference onto the cached copies.
  Block ids are area-relative, so a slice out of the node's store is
  linked into each site's own area through here too.
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
from repro.vm.dispatch import DecodedBlock, predecode

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


def _bundle_as_program(bundle: CodeBundle) -> Program:
    """View a bundle as a program area so it can be re-extracted."""
    return Program(blocks=list(bundle.blocks), objects=list(bundle.objects),
                   groups=list(bundle.groups))


def _digest_bytes(data: bytes) -> bytes:
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
    # Imported lazily: wire imports the linker, which this module extends.
    from .wire import encode

    rooted_slice = extract_bundle(program, **{ROOTS_ARG[kind]: (item_id,)})
    digest = _digest_bytes(encode(rooted_slice))
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
    (``Site._on_code_reply``); the key is the hash of what is stored,
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
        objects.  The first site to do so proves the shape repeats and
        pays for decoding the blocks; from then on the plans (and the
        tier state on them) are shared too.  The bookkeeping is
        :func:`link_bundle_cached`'s in both cases.
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
        if linked.plans is None:
            linked.plans = {
                block_id: predecode(program, block)
                for block_id, block in enumerate(linked.blocks, nblocks)}
        program.decoded_cache.update(linked.plans)
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
    #: block id -> decoded plan, once a second site had that shape.
    plans: Optional[dict[int, DecodedBlock]] = None


class CodeCache:
    """Digest -> installed location for one site's program area.

    Also owns the transient fetch-protocol state:

    * ``in_flight`` -- digests this site has asked a remote sender for
      and not yet received, tagged with the generation that asked.  A
      second fetch needing an in-flight digest parks instead of
      re-downloading (request coalescing).
    * ``generation`` -- bumped by :meth:`bump_generation` when the
      owning node restarts after a crash.  In-flight marks from older
      generations are dead (their replies may have been crash-dropped)
      and are discarded; installed entries survive because they are
      content-addressed and verified against the program area itself.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.generation = 0
        self._by_digest: dict[bytes, tuple[str, int]] = {}
        self._in_flight: dict[bytes, int] = {}
        self.hits = 0
        self.misses = 0
        self.installs = 0

    def __len__(self) -> int:
        return len(self._by_digest)

    # -- digest bookkeeping ---------------------------------------------------

    def register(self, digest: bytes, kind: str, item_id: int) -> None:
        """Record that ``digest`` lives at ``(kind, item_id)`` locally."""
        self._by_digest.setdefault(digest, (kind, item_id))

    def register_own(self, kind: str, item_id: int) -> bytes:
        """Digest and register one of our own items (the serving side
        does this so code we exported once is also recognised when it
        bounces back to us)."""
        digest = digest_item(self.program, kind, item_id)
        self.register(digest, kind, item_id)
        return digest

    def lookup(self, digest: bytes) -> Optional[tuple[str, int]]:
        return self._by_digest.get(digest)

    def has(self, digest: bytes) -> bool:
        return digest in self._by_digest

    def snapshot(self) -> dict[bytes, tuple[str, int]]:
        """Copy of the digest table (for the integrity invariant)."""
        return dict(self._by_digest)

    def in_flight_snapshot(self) -> dict[bytes, int]:
        """Copy of the in-flight marks with their generations (for
        site checkpointing, repro.mobility)."""
        return dict(self._in_flight)

    def restore_state(self, entries, in_flight: dict[bytes, int],
                      generation: int) -> None:
        """Refill from a checkpoint: digest rows, in-flight marks and
        the generation counter.  Item ids are valid verbatim because a
        checkpoint restore rebuilds the program area identically."""
        for digest, kind, item_id in entries:
            self.register(digest, kind, item_id)
        self._in_flight.update(in_flight)
        self.generation = generation

    # -- in-flight request coalescing ----------------------------------------

    def mark_in_flight(self, digest: bytes) -> None:
        self._in_flight[digest] = self.generation

    def is_in_flight(self, digest: bytes) -> bool:
        """In flight *in the current generation* and not yet installed.

        Marks from older generations are stale by definition: the
        request (or its reply) may have died with the crash, so they
        must never suppress a re-request."""
        if digest in self._by_digest:
            return False
        return self._in_flight.get(digest) == self.generation

    def clear_in_flight(self, digest: bytes) -> None:
        self._in_flight.pop(digest, None)

    def bump_generation(self) -> None:
        """Invalidate every in-flight mark.

        Two callers: a node *restart* (our own in-flight requests may
        have died with the crash) and the distributed GC's
        *peer-suspected* path (requests toward the dead peer will never
        be answered; see :meth:`~repro.runtime.site.Site.on_peer_suspected`).
        Installed code is content-addressed and therefore never stale --
        only the transient request-coalescing state is discarded."""
        self.generation += 1
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
