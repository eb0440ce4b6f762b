"""E9 -- wire format: marshalled sizes and encode/decode throughput.

Section 5 requires "a hardware independent representation" for
everything that leaves a site; the compactness of the byte-code is one
of the implementation's selling points ("this design has proved to be
quite compact").  We measure the wire size of the packet species of
the offer/need/reply code protocol (digest offers vs byte-code-carrying
replies), the encode/decode cost per byte, and the framing overhead of
transport-layer wire batching.
"""

import pytest

from repro.compiler import compile_source, extract_bundle
from repro.runtime.codecache import manifest_for_bundle
from repro.runtime.wire import (
    KIND_CODE_NEED,
    KIND_CODE_REPLY,
    KIND_FETCH_REPLY,
    KIND_MESSAGE,
    KIND_OBJECT,
    Packet,
    decode,
    decode_frame,
    encode,
    encode_frame,
)
from repro.vm.values import NetRef


def message_packet(nargs: int = 2) -> Packet:
    return Packet(kind=KIND_MESSAGE, src_ip="10.0.0.1", src_site_id=1,
                  dest_ip="10.0.0.2", dest_site_id=2,
                  payload=(7, "val", tuple(range(nargs))))


def _object_bundle(body_size: int):
    pads = " | ".join(f"(new p{i} p{i}![{i}])" for i in range(body_size))
    prog = compile_source(f"new a x?(w) = ({pads} | a![w])")
    return extract_bundle(
        prog, block_roots=tuple(prog.objects[0].methods.values()))


def _class_bundle(body_size: int):
    pads = " | ".join(f"(new p{i} p{i}![{i}])" for i in range(body_size))
    prog = compile_source(
        f"def Applet(out) = ({pads} | out![1]) in new v Applet[v]")
    return extract_bundle(prog, group_roots=(0,))


def object_packet(body_size: int = 5) -> Packet:
    """A SHIPO *offer*: entry digests + marshalled env, zero code."""
    bundle = _object_bundle(body_size)
    digests = manifest_for_bundle(bundle).block_digests
    return Packet(kind=KIND_OBJECT, src_ip="10.0.0.1", src_site_id=1,
                  dest_ip="10.0.0.2", dest_site_id=2,
                  payload=(1, 7, {"val": 0},
                           tuple(digests[i] for i in bundle.entry_blocks),
                           (NetRef(3, 1, "10.0.0.1"),)))


def fetch_offer_packet(body_size: int = 5) -> Packet:
    """A FETCH reply *offer*: one root digest, no byte-code."""
    bundle = _class_bundle(body_size)
    manifest = manifest_for_bundle(bundle)
    root = manifest.group_digests[bundle.entry_groups[0]]
    return Packet(kind=KIND_FETCH_REPLY, src_ip="10.0.0.1", src_site_id=1,
                  dest_ip="10.0.0.2", dest_site_id=2,
                  payload=(1, root, 0, (), "Applet"))


def need_packet(body_size: int = 5) -> Packet:
    bundle = _class_bundle(body_size)
    manifest = manifest_for_bundle(bundle)
    root = manifest.group_digests[bundle.entry_groups[0]]
    return Packet(kind=KIND_CODE_NEED, src_ip="10.0.0.2", src_site_id=2,
                  dest_ip="10.0.0.1", dest_site_id=1,
                  payload=("fetch", 1, (root,)))


def class_packet(body_size: int = 5) -> Packet:
    """The byte-code-carrying CODE_REPLY (bundle + manifest)."""
    bundle = _class_bundle(body_size)
    return Packet(kind=KIND_CODE_REPLY, src_ip="10.0.0.1", src_site_id=1,
                  dest_ip="10.0.0.2", dest_site_id=2,
                  payload=("fetch", 1, bundle, manifest_for_bundle(bundle)))


class TestShape:
    def test_message_is_small(self):
        # A fine-grained invocation must cost tens of bytes, not KB.
        assert message_packet().wire_size() < 100

    def test_object_bigger_than_message(self):
        assert object_packet().wire_size() > message_packet().wire_size()

    def test_code_size_scales_linearly(self):
        s1 = class_packet(4).wire_size()
        s2 = class_packet(8).wire_size()
        s4 = class_packet(16).wire_size()
        # Doubling the body roughly doubles the increment.
        assert 1.5 < (s4 - s2) / max(1, s2 - s1) < 2.5

    def test_round_trip_identity(self):
        for pkt in (message_packet(), object_packet(),
                    fetch_offer_packet(), need_packet(), class_packet()):
            out = decode(encode(pkt))
            assert out.kind == pkt.kind
            assert out.dest_site_id == pkt.dest_site_id

    def test_offers_are_code_free(self):
        """The warm path's selling point: an offer costs a few digests,
        not the byte-code it stands for -- and its size does NOT grow
        with the code body."""
        reply = class_packet(16).wire_size()
        offer = fetch_offer_packet(16).wire_size()
        assert offer < reply / 5
        assert fetch_offer_packet(64).wire_size() == \
            fetch_offer_packet(4).wire_size()

    def test_args_dominate_large_messages(self):
        small = message_packet(1).wire_size()
        big = Packet(kind=KIND_MESSAGE, src_ip="10.0.0.1", src_site_id=1,
                     dest_ip="10.0.0.2", dest_site_id=2,
                     payload=(7, "val", ("x" * 1000,))).wire_size()
        assert big > small + 990


class TestBatchFrames:
    def test_frame_overhead_is_bytes_not_packets(self):
        # Framing n chunks costs ~1 tag + varints, not a per-chunk
        # packet: well under 3 bytes of overhead per coalesced packet.
        chunks = [encode(message_packet(i % 3)) for i in range(10)]
        frame = encode_frame(chunks)
        payload = sum(len(c) for c in chunks)
        assert len(frame) - payload <= 2 + 3 * len(chunks)
        assert decode_frame(frame) == chunks

    def test_burst_sends_fewer_packets_batched(self, monkeypatch):
        from repro.runtime import DiTyCONetwork

        def burst(batching: bool):
            monkeypatch.setattr("repro.runtime.node.BATCHING", batching)
            net = DiTyCONetwork()
            net.add_nodes(["n1", "n2"])
            receivers = " | ".join(f"(svc?(v{i}) = print![v{i}])"
                                   for i in range(16))
            net.launch("n1", "server", f"export new svc ({receivers})")
            sends = " | ".join(f"svc![{i}]" for i in range(16))
            net.launch("n2", "client",
                       f"import svc from server in ({sends})")
            net.run()
            assert sorted(net.site("server").output) == list(range(16))
            return net.world.stats.packets, net.world.stats.bytes

        packets_b, bytes_b = burst(True)
        packets_n, bytes_n = burst(False)
        assert packets_b < packets_n
        # Frames add header bytes, never payload: within 10%.
        assert bytes_b < bytes_n * 1.1


@pytest.mark.parametrize("species,factory", [
    ("message", message_packet),
    ("object", object_packet),
    ("class", class_packet),
])
def test_encode_wall_time(benchmark, species, factory):
    pkt = factory()
    data = encode(pkt)

    def kernel():
        return encode(pkt)

    benchmark(kernel)
    benchmark.extra_info["wire_bytes"] = len(data)


@pytest.mark.parametrize("species,factory", [
    ("message", message_packet),
    ("object", object_packet),
    ("class", class_packet),
])
def test_decode_wall_time(benchmark, species, factory):
    data = encode(factory())

    def kernel():
        return decode(data)

    benchmark(kernel)


def report() -> list[dict]:
    rows = []
    for species, factory in (
            ("message (2 args)", message_packet),
            ("object offer (5-pad body)", object_packet),
            ("fetch offer (5-pad body)", fetch_offer_packet),
            ("code need (1 digest)", need_packet),
            ("code reply (5-pad body)", class_packet)):
        pkt = factory()
        rows.append({"species": species, "wire_bytes": pkt.wire_size()})
    for size in (4, 16, 64):
        rows.append({"species": f"code reply, body={size}",
                     "wire_bytes": class_packet(size).wire_size()})
    chunks = [encode(message_packet(i % 3)) for i in range(10)]
    rows.append({"species": "batch frame overhead (10 messages)",
                 "wire_bytes": len(encode_frame(chunks))
                 - sum(len(c) for c in chunks)})
    return rows


if __name__ == "__main__":
    for row in report():
        print(row)
