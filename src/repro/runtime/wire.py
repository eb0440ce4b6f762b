"""Hardware-independent wire format for DiTyCO packets (section 5).

Everything that crosses a node boundary -- remote method invocations,
migrating objects, class byte-code -- is packaged into a buffer with a
"hardware independent representation".  This module implements a
compact, self-describing binary encoding for the value trees the
runtime exchanges:

* primitives: bool, int (zig-zag varint), float (IEEE-754), str, bytes;
* containers: tuple, list, dict (string keys);
* runtime records: :class:`~repro.vm.values.NetRef`,
  :class:`~repro.vm.values.RemoteClassRef`;
* code: :class:`~repro.compiler.assembly.Instr` (opcode byte +
  operands), :class:`CodeBlock`, :class:`ObjectCode`,
  :class:`ClassGroup`, :class:`~repro.compiler.linker.CodeBundle`.

The same tagged-tree layer is used *without* byte-encoding on the
same-node fast path ("local interactions are optimized using shared
memory"): :func:`encode`/:func:`decode` are only applied when a packet
actually leaves the node, so the wire cost measured by experiment E9
is exactly the cost remote interactions pay and local ones avoid.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.compiler.assembly import ClassGroup, CodeBlock, Instr, ObjectCode, Op
from repro.compiler.linker import BundleManifest, CodeBundle
from repro.vm.values import NetRef, RemoteClassRef


class WireError(Exception):
    """Malformed wire data or an unencodable value."""


# Type tags.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_NETREF = 0x0A
_T_RCLASSREF = 0x0B
_T_INSTR = 0x0C
_T_BLOCK = 0x0D
_T_OBJCODE = 0x0E
_T_GROUP = 0x0F
_T_BUNDLE = 0x10
_T_PACKET = 0x11
_T_MANIFEST = 0x12
#: Transport-layer batch frame.  Never produced by :func:`encode` for a
#: value, so the first byte of a buffer tells the receiver whether it
#: holds one packet or a batch (see :func:`is_frame`).
_T_FRAME = 0x13
#: A packet carrying a causal span id (repro.obs, docs/OBSERVABILITY.md).
#: Only emitted when tracing allocated a span (span != 0): span-less
#: packets keep the ``_T_PACKET`` layout, so untraced wire traffic is
#: byte-identical to the pre-observability system.
_T_PACKET2 = 0x14

_OP_TO_CODE = {op: i for i, op in enumerate(Op)}
_CODE_TO_OP = {i: op for i, op in enumerate(Op)}


def _write_varint(out: bytearray, n: int) -> None:
    """Unsigned LEB128."""
    if n < 0:
        raise WireError("varint must be non-negative")
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        if pos >= len(buf):
            raise WireError("truncated varint")
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not (b & 0x80):
            return result, pos
        shift += 7


def _unzigzag(n: int) -> int:
    return (n >> 1) ^ -(n & 1)


def encode(value: Any) -> bytes:
    """Encode one value tree to bytes."""
    out = bytearray()
    _encode_into(out, value)
    return bytes(out)


def _encode_into(out: bytearray, v: Any) -> None:
    if v is None:
        out.append(_T_NONE)
    elif v is False:
        out.append(_T_FALSE)
    elif v is True:
        out.append(_T_TRUE)
    elif isinstance(v, int):
        out.append(_T_INT)
        # zig-zag: positive -> 2n, negative -> 2|n|-1
        zz = (v << 1) if v >= 0 else (((-v) << 1) - 1)
        _write_varint(out, zz)
    elif isinstance(v, float):
        out.append(_T_FLOAT)
        out.extend(struct.pack(">d", v))
    elif isinstance(v, str):
        data = v.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(data))
        out.extend(data)
    elif isinstance(v, bytes):
        out.append(_T_BYTES)
        _write_varint(out, len(v))
        out.extend(v)
    elif isinstance(v, tuple):
        out.append(_T_TUPLE)
        _write_varint(out, len(v))
        for item in v:
            _encode_into(out, item)
    elif isinstance(v, list):
        out.append(_T_LIST)
        _write_varint(out, len(v))
        for item in v:
            _encode_into(out, item)
    elif isinstance(v, dict):
        out.append(_T_DICT)
        _write_varint(out, len(v))
        for k, item in v.items():
            if not isinstance(k, str):
                raise WireError(f"dict keys must be str, got {k!r}")
            data = k.encode("utf-8")
            _write_varint(out, len(data))
            out.extend(data)
            _encode_into(out, item)
    elif isinstance(v, NetRef):
        out.append(_T_NETREF)
        _write_varint(out, v.heap_id)
        _write_varint(out, v.site_id)
        _encode_into(out, v.ip)
    elif isinstance(v, RemoteClassRef):
        out.append(_T_RCLASSREF)
        _write_varint(out, v.class_id)
        _write_varint(out, v.site_id)
        _encode_into(out, v.ip)
    elif isinstance(v, Instr):
        out.append(_T_INSTR)
        out.append(_OP_TO_CODE[v.op])
        _encode_into(out, v.args)
    elif isinstance(v, CodeBlock):
        out.append(_T_BLOCK)
        _encode_into(out, v.instrs)
        _write_varint(out, v.nfree)
        _write_varint(out, v.nparams)
        _write_varint(out, v.frame_size)
        _encode_into(out, v.name)
    elif isinstance(v, ObjectCode):
        out.append(_T_OBJCODE)
        _encode_into(out, v.methods)
        _encode_into(out, v.name)
    elif isinstance(v, ClassGroup):
        out.append(_T_GROUP)
        _encode_into(out, tuple(v.clauses))
        _write_varint(out, v.nfree)
        _encode_into(out, v.name)
    elif isinstance(v, CodeBundle):
        out.append(_T_BUNDLE)
        _encode_into(out, list(v.blocks))
        _encode_into(out, list(v.objects))
        _encode_into(out, list(v.groups))
        _encode_into(out, list(v.entry_blocks))
        _encode_into(out, list(v.entry_objects))
        _encode_into(out, list(v.entry_groups))
    elif isinstance(v, BundleManifest):
        out.append(_T_MANIFEST)
        _encode_into(out, v.block_digests)
        _encode_into(out, v.object_digests)
        _encode_into(out, v.group_digests)
    elif isinstance(v, Packet):
        out.append(_T_PACKET2 if v.span else _T_PACKET)
        _encode_into(out, v.kind)
        _encode_into(out, v.src_ip)
        _write_varint(out, v.src_site_id)
        _encode_into(out, v.dest_ip)
        _write_varint(out, v.dest_site_id)
        _encode_into(out, v.payload)
        if v.span:
            _write_varint(out, v.span)
    else:
        raise WireError(f"cannot encode {type(v).__name__}: {v!r}")


def decode(buf: bytes) -> Any:
    """Decode one value tree; the whole buffer must be consumed.  Any
    rejection is a :class:`WireError`: callers catch nothing else."""
    try:
        value, pos = _decode_at(buf, 0)
    except RecursionError:      # a peer nested deeper than we recurse
        raise WireError("value nested too deeply") from None
    if pos != len(buf):
        raise WireError(f"{len(buf) - pos} trailing byte(s)")
    return value


def _decode_at(buf: bytes, pos: int) -> tuple[Any, int]:
    if pos >= len(buf):
        raise WireError("truncated value")
    tag = buf[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        zz, pos = _read_varint(buf, pos)
        return _unzigzag(zz), pos
    if tag == _T_FLOAT:
        if pos + 8 > len(buf):
            raise WireError("truncated float")
        return struct.unpack(">d", buf[pos:pos + 8])[0], pos + 8
    if tag == _T_STR:
        n, pos = _read_varint(buf, pos)
        if pos + n > len(buf):
            raise WireError("truncated string")
        try:
            return buf[pos:pos + n].decode("utf-8"), pos + n
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid utf-8 in string: {exc}") from exc
    if tag == _T_BYTES:
        n, pos = _read_varint(buf, pos)
        if pos + n > len(buf):
            raise WireError("truncated bytes")
        return bytes(buf[pos:pos + n]), pos + n
    if tag == _T_TUPLE:
        n, pos = _read_varint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _decode_at(buf, pos)
            items.append(item)
        return tuple(items), pos
    if tag == _T_LIST:
        n, pos = _read_varint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _decode_at(buf, pos)
            items.append(item)
        return items, pos
    if tag == _T_DICT:
        n, pos = _read_varint(buf, pos)
        d = {}
        for _ in range(n):
            klen, pos = _read_varint(buf, pos)
            if pos + klen > len(buf):
                raise WireError("truncated dict key")
            try:
                key = buf[pos:pos + klen].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireError(f"invalid utf-8 in dict key: {exc}") from exc
            pos += klen
            val, pos = _decode_at(buf, pos)
            d[key] = val
        return d, pos
    if tag == _T_NETREF:
        heap_id, pos = _read_varint(buf, pos)
        site_id, pos = _read_varint(buf, pos)
        ip, pos = _decode_at(buf, pos)
        return NetRef(heap_id, site_id, ip), pos
    if tag == _T_RCLASSREF:
        class_id, pos = _read_varint(buf, pos)
        site_id, pos = _read_varint(buf, pos)
        ip, pos = _decode_at(buf, pos)
        return RemoteClassRef(class_id, site_id, ip), pos
    if tag == _T_INSTR:
        if pos >= len(buf):
            raise WireError("truncated instruction")
        op = _CODE_TO_OP.get(buf[pos])
        if op is None:
            raise WireError(f"unknown opcode byte {buf[pos]}")
        pos += 1
        args, pos = _decode_at(buf, pos)
        return Instr(op, args), pos
    if tag == _T_BLOCK:
        instrs, pos = _decode_at(buf, pos)
        nfree, pos = _read_varint(buf, pos)
        nparams, pos = _read_varint(buf, pos)
        frame_size, pos = _read_varint(buf, pos)
        name, pos = _decode_at(buf, pos)
        try:
            block = CodeBlock(instrs=instrs, nfree=nfree, nparams=nparams,
                              frame_size=frame_size, name=name)
        except ValueError as exc:
            # CodeBlock validates frame_size >= nfree + nparams; a
            # corrupted header must surface as WireError, not leak the
            # dataclass's own exception.
            raise WireError(f"invalid code block: {exc}") from exc
        return block, pos
    if tag == _T_OBJCODE:
        methods, pos = _decode_at(buf, pos)
        name, pos = _decode_at(buf, pos)
        return ObjectCode(methods=methods, name=name), pos
    if tag == _T_GROUP:
        clauses, pos = _decode_at(buf, pos)
        nfree, pos = _read_varint(buf, pos)
        name, pos = _decode_at(buf, pos)
        return ClassGroup(clauses=clauses, nfree=nfree, name=name), pos
    if tag == _T_BUNDLE:
        blocks, pos = _decode_at(buf, pos)
        objects, pos = _decode_at(buf, pos)
        groups, pos = _decode_at(buf, pos)
        eb, pos = _decode_at(buf, pos)
        eo, pos = _decode_at(buf, pos)
        eg, pos = _decode_at(buf, pos)
        return CodeBundle(blocks=blocks, objects=objects, groups=groups,
                          entry_blocks=eb, entry_objects=eo,
                          entry_groups=eg), pos
    if tag == _T_MANIFEST:
        bd, pos = _decode_at(buf, pos)
        od, pos = _decode_at(buf, pos)
        gd, pos = _decode_at(buf, pos)
        for digests in (bd, od, gd):
            if not isinstance(digests, tuple) or any(
                    not isinstance(d, bytes) for d in digests):
                raise WireError("manifest digests must be byte strings")
        return BundleManifest(block_digests=bd, object_digests=od,
                              group_digests=gd), pos
    if tag in (_T_PACKET, _T_PACKET2):
        kind, pos = _decode_at(buf, pos)
        src_ip, pos = _decode_at(buf, pos)
        src_site_id, pos = _read_varint(buf, pos)
        dest_ip, pos = _decode_at(buf, pos)
        dest_site_id, pos = _read_varint(buf, pos)
        payload, pos = _decode_at(buf, pos)
        span = 0
        if tag == _T_PACKET2:
            span, pos = _read_varint(buf, pos)
            if span == 0:
                raise WireError("spanned packet with span 0")
        return Packet(kind=kind, src_ip=src_ip, src_site_id=src_site_id,
                      dest_ip=dest_ip, dest_site_id=dest_site_id,
                      payload=payload, span=span), pos
    raise WireError(f"unknown tag byte 0x{tag:02x}")


# ---------------------------------------------------------------------------
# Packets
# ---------------------------------------------------------------------------

#: Packet kinds exchanged by the TyCOd daemons.  Code-carrying kinds
#: follow the offer / need / reply protocol of the code cache
#: (docs/WIRE.md): the sender first *offers* content digests, the
#: receiver answers with the subset of code it is missing.
KIND_MESSAGE = "msg"          # payload: (heap_id, label, args tuple)
KIND_OBJECT = "obj"           # offer: (token, heap_id,
                              #         method positions dict, entry
                              #         digests tuple, env tuple)
KIND_FETCH_REQUEST = "fetch_req"    # payload: (class_id,)
KIND_FETCH_REPLY = "fetch_reply"    # offer: (class_id, root digest,
                                    #         index, env tuple, hint)
KIND_CODE_NEED = "code_need"        # payload: (token kind, token value,
                                    #           missing digests tuple)
KIND_CODE_REPLY = "code_reply"      # payload: (token kind, token value,
                                    #           bundle, manifest)

#: Distributed-GC lease traffic (repro.runtime.distgc, docs/GC.md).
#: Each carries ``(entries,)`` where entries is a tuple of lease keys
#: ``("n", heap_id)`` / ``("c", class_id)`` naming exported channels or
#: classes of the *destination* site.  Existing str/int/tuple wire tags
#: encode them; no new byte tags are needed.
KIND_REF_LEASE = "ref_lease"    # holder claims leases on the keys
KIND_REF_RENEW = "ref_renew"    # holder extends its leases on the keys
KIND_REF_DROP = "ref_drop"      # holder relinquishes the keys

#: Live-migration control traffic (repro.mobility, docs/MIGRATION.md).
#: These are *node-level* packets: ``dest_site_id`` is 0 (site ids
#: start at 1), so they address the node's mobility manager rather
#: than any site.  Like the REF_* kinds they ride the existing
#: str/int/bytes/tuple wire tags; no new byte tags are needed.  The
#: checkpoint itself travels as opaque ``bytes`` (its own format and
#: digest are described in docs/MIGRATION.md), while the code part is
#: shipped separately and content-addressed so a destination that
#: already holds the program area (an earlier migration, or a
#: migrate-back) receives zero code bytes.
KIND_MIG_SHIP = "mig_ship"    # payload: (token, site_name, site_id,
                              #           state bytes, code digest)
KIND_MIG_NEED = "mig_need"    # payload: (token, code digest)
KIND_MIG_CODE = "mig_code"    # payload: (token, code digest, code bytes)
KIND_MIG_ACK = "mig_ack"      # payload: (token, ok flag)


@dataclass(slots=True)
class Packet:
    """One inter-site interaction routed by the TyCOd daemons."""

    kind: str
    src_ip: str
    src_site_id: int
    dest_ip: str
    dest_site_id: int
    payload: Any
    #: Causal span id (repro.obs).  0 = untraced; a non-zero span rides
    #: the wire under the ``_T_PACKET2`` tag so the receiving site can
    #: continue the cross-site trace chain.
    span: int = 0

    def wire_size(self) -> int:
        """Byte size this packet has on the wire."""
        return len(encode(self))


def packet_size_estimate(packet: Packet) -> int:
    """Size used by the transports for bandwidth accounting."""
    return packet.wire_size()


# ---------------------------------------------------------------------------
# Batch frames (transport layer)
# ---------------------------------------------------------------------------
#
# A node coalesces the packets it queued for one destination during a
# scheduling quantum into a single *frame*: the ``_T_FRAME`` byte, a
# varint chunk count, then each encoded packet length-prefixed.  Chunk
# order is send order, so per-(src, dst) FIFO delivery is preserved by
# construction.  A frame is an envelope, not a value: ``decode`` rejects
# it, ``decode_frame`` rejects everything else.


def is_frame(buf: bytes) -> bool:
    """Does this transport buffer hold a batch frame (vs one packet)?"""
    return len(buf) > 0 and buf[0] == _T_FRAME


def encode_frame(chunks: list[bytes]) -> bytes:
    """Frame already-encoded packets into one transport buffer."""
    if not chunks:
        raise WireError("cannot frame zero chunks")
    out = bytearray([_T_FRAME])
    _write_varint(out, len(chunks))
    for chunk in chunks:
        _write_varint(out, len(chunk))
        out.extend(chunk)
    return bytes(out)


def decode_frame(buf: bytes) -> list[bytes]:
    """Split a batch frame back into its encoded packets (send order)."""
    if not is_frame(buf):
        raise WireError("not a batch frame")
    count, pos = _read_varint(buf, 1)
    if count == 0:
        raise WireError("empty batch frame")
    chunks = []
    for _ in range(count):
        n, pos = _read_varint(buf, pos)
        if pos + n > len(buf):
            raise WireError("truncated frame chunk")
        chunks.append(bytes(buf[pos:pos + n]))
        pos += n
    if pos != len(buf):
        raise WireError(f"{len(buf) - pos} trailing byte(s) in frame")
    return chunks
