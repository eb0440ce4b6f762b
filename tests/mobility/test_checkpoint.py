"""Checkpoint format tests: round-trip byte-identity, rejection of
damaged blobs, and the pinned golden digest.

The core contract is *bit-identical idempotence*: capture a site,
rebuild it from the blob, capture the rebuilt site -- the two blobs
must be equal byte for byte.  Everything else (resume correctness,
migration) builds on that.
"""

import functools
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import given, seed, settings

from repro.mobility.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    capture_site,
    digest_bytes,
    read_checkpoint,
    restore_site,
    write_checkpoint,
)
from repro.runtime import DiTyCONetwork

CKPT_SEED = 0xC4B7


PUMP_SERVER = (
    "export def Svc(ch, out) = ch?(w) = (out![w] | Svc[ch, out]) in "
    "export new svc Svc[svc, print]")


def pump_net(values=(1, 2, 3)):
    net = DiTyCONetwork()
    net.add_nodes(["n1", "n2"])
    net.launch("n1", "server", PUMP_SERVER)
    sends = " | ".join(f"svc![{v}]" for v in values) or "0"
    net.launch("n2", "client", f"import svc from server in ({sends})")
    net.run()
    return net


def roundtrip(net, site_name):
    """checkpoint -> restore -> re-checkpoint; returns both blobs."""
    site = net.site(site_name)
    node = net.node(site.ip)
    blob = write_checkpoint(site)
    code, state = read_checkpoint(blob)
    rebuilt = restore_site(node, code, state)
    return blob, write_checkpoint(rebuilt)


class TestRoundTrip:
    def test_pump_server_round_trips_byte_identical(self):
        net = pump_net()
        blob, again = roundtrip(net, "server")
        assert blob == again

    def test_client_round_trips_byte_identical(self):
        net = pump_net()
        blob, again = roundtrip(net, "client")
        assert blob == again

    def test_stalled_import_round_trips(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1"])
        net.launch("n1", "waiter", "import svc from nowhere in svc![1]")
        net.run()
        assert net.site("waiter").vm.has_stalled()
        blob, again = roundtrip(net, "waiter")
        assert blob == again

    def test_restored_site_resumes_and_answers(self):
        net = pump_net(values=(5,))
        node = net.node("n1")
        site = net.site("server")
        blob = write_checkpoint(site)
        # Tear the original down, rebuild from bytes, re-adopt.
        node.remove_site(site)
        code, state = read_checkpoint(blob)
        rebuilt = restore_site(node, code, state)
        node.adopt_site(rebuilt)
        net.launch("n2", "client2", "import svc from server in svc![6]")
        net.run()
        assert net.site("server").output == [5, 6]
        assert net.is_quiescent()

    def test_restore_preserves_counters_and_ids(self):
        net = pump_net()
        site = net.site("server")
        code, state = read_checkpoint(write_checkpoint(site))
        rebuilt = restore_site(net.node("n1"), code, state)
        assert rebuilt.site_id == site.site_id
        assert rebuilt.site_name == site.site_name
        assert rebuilt.vm.stats.instructions == site.vm.stats.instructions
        assert rebuilt.vm.heap.stats().allocated == \
            site.vm.heap.stats().allocated
        assert sorted(ch.heap_id for ch in rebuilt.vm.heap) == \
            sorted(ch.heap_id for ch in site.vm.heap)
        assert rebuilt.output == list(site.output)

    @pytest.mark.parametrize("built_ablated", [True, False])
    def test_cache_ablations_travel_with_the_site(self, monkeypatch,
                                                  built_ablated):
        """A site keeps the cache settings it was built under: restored
        where the module switches read the other way, it comes back as
        it was, and re-checkpoints to the same bytes."""
        def switches(on):
            monkeypatch.setattr("repro.runtime.site.FETCH_CACHE", on)
            monkeypatch.setattr("repro.runtime.codecache.CODE_CACHE", on)

        switches(not built_ablated)
        net = pump_net()
        switches(built_ablated)
        site = net.site("client")
        blob = write_checkpoint(site)
        rebuilt = restore_site(net.node("n2"), *read_checkpoint(blob))
        assert rebuilt.fetch_cache is site.fetch_cache is not built_ablated
        assert (rebuilt.codecache is None) is built_ablated
        assert (rebuilt.codestore is None) is built_ablated
        assert write_checkpoint(rebuilt) == blob

    def test_typecheck_signatures_refuse_checkpoint(self):
        net = DiTyCONetwork(typecheck=True)
        net.add_nodes(["n1"])
        net.launch("n1", "typed", "export new svc svc?(w) = print![w]")
        net.run()
        with pytest.raises(CheckpointError, match="signature"):
            capture_site(net.site("typed"))


def pinned(test):
    test = seed(CKPT_SEED)(test)

    @functools.wraps(test)
    def wrapper(self, *args, **kwargs):
        try:
            return test(self, *args, **kwargs)
        except BaseException:
            nodeid = (f"tests/mobility/test_checkpoint.py::"
                      f"{type(self).__name__}::{test.__name__}")
            print(f"\nproperty failure under pinned seed {CKPT_SEED}; "
                  f"repro:\n  PYTHONPATH=src python -m pytest -x -q "
                  f"'{nodeid}'", file=sys.stderr)
            raise

    return wrapper


class TestRoundTripProperty:
    @pinned
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=-99, max_value=99), max_size=6))
    def test_any_message_history_round_trips(self, values):
        net = pump_net(values=tuple(values))
        for site_name in ("server", "client"):
            blob, again = roundtrip(net, site_name)
            assert blob == again

    @pinned
    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=7))
    def test_corruption_never_restores_silently(self, delta, pos_mod):
        """Flipping any byte either fails loudly or (for the rare
        no-op flip) still round-trips -- never a silently wrong
        restore."""
        net = pump_net(values=(1,))
        blob = write_checkpoint(net.site("server"))
        pos = (pos_mod * 131) % len(blob)
        mutated = bytearray(blob)
        mutated[pos] = (mutated[pos] + delta) % 256
        mutated = bytes(mutated)
        if mutated == blob:
            return
        try:
            code, state = read_checkpoint(mutated)
            rebuilt = restore_site(net.node("n1"), code, state)
        except CheckpointError:
            return
        # Digest collision is the only way here; astronomically
        # unlikely -- but if decode somehow succeeded the result must
        # still be the original state.
        assert write_checkpoint(rebuilt) == blob  # pragma: no cover


class TestRejection:
    def blob(self):
        return write_checkpoint(pump_net().site("server"))

    def test_unknown_version_rejected(self):
        blob = self.blob()
        bad = MAGIC + bytes([VERSION + 1]) + blob[len(MAGIC) + 1:]
        with pytest.raises(CheckpointVersionError, match="version"):
            read_checkpoint(bad)

    def test_bad_magic_rejected(self):
        blob = self.blob()
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(b"NOPE" + blob[4:])

    def test_truncation_rejected_at_every_length(self):
        blob = self.blob()
        for cut in range(len(blob)):
            with pytest.raises(CheckpointError):
                read_checkpoint(blob[:cut])

    def test_digest_mismatch_rejected(self):
        blob = bytearray(self.blob())
        blob[-1] ^= 0xFF    # damage the body, not the header
        with pytest.raises(CheckpointCorruptError, match="digest"):
            read_checkpoint(bytes(blob))

    def test_empty_rejected(self):
        with pytest.raises(CheckpointError):
            read_checkpoint(b"")

    def test_nesting_bomb_is_corruption_in_the_body_and_in_a_part(self):
        # 5000 nested one-tuples under a valid digest: the wire codec's
        # rejection is a WireError whatever the bytes, so this is the
        # checkpoint's own "does not decode", not a RecursionError.
        bomb = b"\x07\x01" * 5000 + b"\x00"
        blob = MAGIC + bytes([VERSION]) + digest_bytes(bomb) + bomb
        with pytest.raises(CheckpointCorruptError, match="body part does not"):
            read_checkpoint(blob)
        node = pump_net().node("n1")
        with pytest.raises(CheckpointCorruptError, match="code part does not"):
            restore_site(node, bomb, bomb)


GOLDEN_PROGRAM = (
    "export def Cell(self, v) = self?{ get(r) = (r![v] | Cell[self, v]), "
    "put(w, r) = (r![w] | Cell[self, w]) } in "
    "export new cell Cell[cell, 10]")

#: blake2b-16 of the golden corpus checkpoint.  This pins the whole
#: format: wire encoding, state layout, field order, digesting.  An
#: intentional format change must bump VERSION and re-pin.
GOLDEN_DIGEST = "ea5c2ede0bc64d3cc19702efd520cfe3"


class TestGoldenCheckpoint:
    def golden_blob(self):
        net = DiTyCONetwork()
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "cellsite", GOLDEN_PROGRAM)
        net.launch("n2", "user", """
        import cell from cellsite in
        new r (cell!get[r] | r?(v) = (print![v] | new s cell!put[v + 1, s]))
        """)
        net.run()
        return write_checkpoint(net.site("cellsite"))

    def test_golden_checkpoint_digest_pinned(self):
        blob = self.golden_blob()
        assert digest_bytes(blob).hex() == GOLDEN_DIGEST

    def test_golden_checkpoint_is_deterministic(self):
        assert self.golden_blob() == self.golden_blob()
