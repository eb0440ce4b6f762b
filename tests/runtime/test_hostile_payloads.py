"""A peer's packet ends a run in nothing but ``DeliveryError``.

Every packet a remote TyCOd delivers is held to its kind's entry in
``repro.runtime.wire.KINDS`` at the node's door (``check_payload``);
what a field holds inside -- a marshalled value, a digest list, a
clause index, a lease key -- is checked where its owner reads it.

The property test at the end sends generated payloads of every kind to
a live node.  It leaves out, by name:

* code-bundle internals: a CODE_REPLY carries an empty bundle here,
  and what a bundle whose digests verify makes the VM do is the
  peer's code running as sent;
* checkpoint bytes that verify: a MIG_SHIP whose code and state parts
  restore is a site the peer built -- a restored thread naming a block
  the area lacks among them (ROADMAP item 1a);
* what the receiving program does with well-formed values: a message
  for the live method carries one argument (an arity clash is the
  program's ``VMRuntimeError``, as between two sites of one node),
  and the live method and class capture nothing, so no shipped
  environment value reaches their code;
* addresses: headers and references name live sites of the two nodes
  (mail for a site a node does not run is item 1a's routing half).
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compiler.assembly import CodeBlock, Instr, Op
from repro.compiler.linker import BundleManifest, CodeBundle
from repro.mobility.checkpoint import capture_code, capture_state
from repro.runtime import DeliveryError, DiTyCONetwork
from repro.runtime.codecache import BLOCK, GROUP, digest_item
from repro.runtime.wire import (
    KIND_CODE_NEED,
    KIND_FETCH_REPLY,
    KIND_MESSAGE,
    KIND_MIG_SHIP,
    KIND_OBJECT,
    KIND_REF_LEASE,
    KINDS,
    Packet,
    decode,
    encode,
)
from repro.vm.values import NetRef, RemoteClassRef

PEER, HOME = "n1", "n2"

#: The live site: an exported channel with one waiting object and an
#: exported class, neither capturing anything.
SERVER = "export new svc export def K(r) = 0 in svc?{ val(v) = 0 }"


def _live_net(distgc: bool = False):
    """A two-node sim network: ``server`` on HOME, ``peer`` on PEER."""
    net = DiTyCONetwork(distgc=distgc)
    net.add_nodes([PEER, HOME])
    net.launch(PEER, "peer", "new z z?(w) = 0")
    net.launch(HOME, "server", SERVER)
    net.run()
    return net


def _send(net, kind, payload, dest_site_id=None, src_site_id=None):
    """Put one packet from the peer site on the wire to HOME."""
    if dest_site_id is None:
        dest_site_id = net.site("server").site_id
    if src_site_id is None:
        src_site_id = net.site("peer").site_id
    packet = Packet(kind=kind, src_ip=PEER, src_site_id=src_site_id,
                    dest_ip=HOME, dest_site_id=dest_site_id, payload=payload)
    net.world._send(PEER, HOME, encode(packet))


class TestDoor:
    @pytest.mark.parametrize("kind, payload", [
        ("msg", (1, 2)),
        ("obj", (1,)),
        ("fetch_req", ()),
        ("fetch_reply", (1, 2)),
        ("code_need", ("fetch",)),
        ("code_reply", (1,)),
        ("msg", [1, "val", ()]),
        ("msg", (1, "val", [])),
        ("no_such_kind", ()),
    ])
    def test_off_layout_packet_is_a_delivery_error(self, kind, payload):
        net = _live_net()
        _send(net, kind, payload)
        with pytest.raises(DeliveryError, match=f"node {HOME}.*{kind}"):
            net.run()

    def test_migration_kind_for_a_site_is_refused(self):
        # Table dispatch would hand it to the site's missing "mobility".
        net = _live_net()
        _send(net, "mig_ack", ("tok", True))
        with pytest.raises(DeliveryError, match="mig_ack addressed to site"):
            net.run()

    def test_site_kind_for_site_zero_is_refused(self):
        net = _live_net()
        _send(net, KIND_MESSAGE, (1, "val", ()), dest_site_id=0)
        with pytest.raises(DeliveryError, match="msg addressed to site 0"):
            net.run()

    def test_reference_with_a_non_string_ip_does_not_decode(self):
        net = _live_net()
        svc = net.site("server").name_exports["svc"]
        _send(net, KIND_MESSAGE, (svc, "val", (NetRef(1, 1, 7),)))
        with pytest.raises(DeliveryError, match="non-string ip"):
            net.run()


class TestInsidePayloads:
    def test_unmarshallable_argument_is_a_delivery_error(self):
        net = _live_net()
        net.launch(HOME, "adder", "export new x x?{ m(v) = print![v + 1] }")
        net.run()
        x = net.site("adder").name_exports["x"]
        _send(net, KIND_MESSAGE, (x, "m", (b"zz",)),
              dest_site_id=net.site("adder").site_id)
        with pytest.raises(DeliveryError, match="adder: received value"):
            net.run()
        assert net.site("adder").output == []

    def test_object_position_past_its_digests(self):
        net = _live_net()
        svc = net.site("server").name_exports["svc"]
        _send(net, KIND_OBJECT, (1, svc, {"val": 1}, (b"d" * 16,), ()))
        with pytest.raises(DeliveryError, match="server: object offer 1"):
            net.run()

    def test_object_env_that_does_not_fit_its_methods(self):
        # The server offered nothing, so the method digest is held only
        # once it digested its own object (a CODE_NEED for it).
        net = _live_net()
        server = net.site("server")
        block = server.vm.program.objects[0].methods["val"]
        digest = digest_item(server.vm.program, BLOCK, block)
        _send(net, KIND_CODE_NEED, ("ship", 1, (digest,)))
        net.run()
        svc = server.name_exports["svc"]
        _send(net, KIND_OBJECT, (2, svc, {"val": 0}, (digest,), (1, 2)))
        with pytest.raises(DeliveryError,
                           match="server: object offer 2 does not fit"):
            net.run()

    def test_ship_need_with_non_byte_digests(self):
        net = _live_net()
        _send(net, KIND_CODE_NEED, ("ship", 1, (5,)))
        with pytest.raises(DeliveryError, match="server: CODE_NEED"):
            net.run()

    def test_lease_key_off_its_shape(self):
        net = _live_net(distgc=True)
        _send(net, KIND_REF_LEASE, ((("n",),),))
        with pytest.raises(DeliveryError, match="server: ref_lease"):
            net.run()

    @pytest.mark.parametrize("index, captured", [(1, ()), (-1, ()),
                                                 (0, (5,))])
    def test_fetch_offer_that_does_not_fit_its_group(self, index, captured):
        # The client fetched K already, so the forged offer of K's
        # group installs at once and reaches the clause index.
        net = _live_net()
        lib = net.launch(PEER, "lib", "export def K(r) = 0 in 0")
        client = net.launch(HOME, "client", "import K from lib in new r K[r]")
        net.run()
        root = digest_item(lib.vm.program, GROUP, 0)
        _send(net, KIND_FETCH_REPLY, (1, root, index, captured, "K"),
              dest_site_id=client.site_id, src_site_id=lib.site_id)
        with pytest.raises(DeliveryError, match="client: class 1 offer"):
            net.run()

    def test_ship_of_garbage_state_with_known_code(self):
        net = _live_net()
        code = capture_code(net.site("server").vm.program)
        _send(net, KIND_MIG_SHIP, ("tok", "ghost", 9, b"junk", code),
              dest_site_id=0, src_site_id=0)
        with pytest.raises(DeliveryError,
                           match=f"node {HOME}: ghost does not restore"):
            net.run()

    @pytest.mark.parametrize("part", ["int", "empty", "bundle", "fork"])
    def test_ship_of_real_state_with_hostile_code(self, part):
        net = _live_net()
        server = net.site("server")
        code = decode(capture_code(server.vm.program))
        stray_fork = CodeBlock(instrs=(Instr(Op.FORK, (7, 0)),), nfree=0,
                               nparams=0, frame_size=0, name="stray")
        hostile = {
            "int": 5,
            "empty": {},
            "bundle": {**code, "bundle": 5},
            "fork": {**code, "bundle": CodeBundle(
                blocks=(stray_fork,), objects=(), groups=(),
                entry_blocks=(0,), entry_objects=(), entry_groups=())},
        }[part]
        _send(net, KIND_MIG_SHIP,
              ("tok", "ghost", 9, capture_state(server), encode(hostile)),
              dest_site_id=0, src_site_id=0)
        with pytest.raises(DeliveryError,
                           match=f"node {HOME}: ghost does not restore"):
            net.run()


# -- the property: generated payloads of every kind -------------------------

_refs = st.builds(NetRef, st.integers(0, 4), st.integers(0, 4),
                  st.sampled_from([PEER, HOME])) | st.builds(
    RemoteClassRef, st.integers(0, 4), st.integers(0, 4),
    st.sampled_from([PEER, HOME]))
_any = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2 ** 66) | st.floats()
    | st.text(max_size=4) | st.binary(max_size=17) | _refs,
    lambda inner: st.tuples(inner) | st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=5)


def _field(data, typ, live):
    """One payload field: nine times in ten of its layout type (half of
    those a live id, digest or token kind), else anything at all."""
    typed = {
        int: st.sampled_from(live["ints"]) | st.integers(-2, 2 ** 66),
        str: st.sampled_from(["fetch", "ship", "val", "tok"])
        | st.text(max_size=4),
        bytes: st.sampled_from(live["digests"]) | st.binary(max_size=17),
        bool: st.booleans(),
        tuple: st.lists(st.sampled_from(live["digests"]) | _any,
                        max_size=3).map(tuple)
        | st.lists(st.tuples(st.sampled_from(["n", "c", "x"]),
                             st.sampled_from(live["ints"])),
                   max_size=3).map(tuple),
        dict: st.dictionaries(st.sampled_from(["val", "x"]),
                              st.integers(-1, 3), max_size=2),
        CodeBundle: st.just(CodeBundle(blocks=[], objects=[], groups=[],
                                       entry_blocks=[], entry_objects=[],
                                       entry_groups=[])),
        BundleManifest: st.just(BundleManifest(
            block_digests=(), object_digests=(), group_digests=())),
    }[typ]
    return data.draw(_any if data.draw(st.integers(0, 9)) == 0 else typed)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(KINDS)), st.data())
def test_generated_payloads_end_in_nothing_but_delivery_errors(kind, data):
    net = _live_net(distgc=data.draw(st.booleans(), label="distgc"))
    server = net.site("server")
    program = server.vm.program
    code = capture_code(program)
    method = digest_item(program, BLOCK, program.objects[0].methods["val"])
    # Asked for its method block once, the server holds its digest, so
    # an object offer naming it installs at once.
    _send(net, KIND_CODE_NEED, ("ship", 1, (method,)))
    net.run()
    live = {
        "ints": [0, 1, server.name_exports["svc"],
                 *server.class_export_names.values()],
        "digests": [digest_item(program, GROUP, 0), method, code],
    }
    owner, _handler, layout = KINDS[kind]
    payload = tuple(_field(data, typ, live) for typ in layout)
    if kind == KIND_MESSAGE and payload[1] == "val":
        payload = payload[:2] + ((data.draw(_any),),)
    if data.draw(st.integers(0, 9), label="off-layout") == 0:
        payload = data.draw(_any, label="payload")
    mobility = owner == "mobility"
    _send(net, kind, payload, dest_site_id=0 if mobility else None,
          src_site_id=0 if mobility else None)
    try:
        net.run()
    except DeliveryError:
        pass
