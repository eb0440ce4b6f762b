"""Tests for the hybrid static/dynamic type-checking (section 7)."""

import pytest

from repro.core import Name
from repro.lang import parse_program
from repro.runtime import (
    DiTyCONetwork,
    ProtocolError,
    WireSignature,
    check_site_program,
)
from repro.types import TycoTypeError
from repro.vm.values import Channel, NetRef


class TestWireSignature:
    def sig(self):
        return WireSignature(methods={"put": ("int",), "get": ("chan",)})

    def test_accepts_matching(self):
        self.sig().check("put", (3,))

    def test_rejects_unknown_label(self):
        with pytest.raises(ProtocolError):
            self.sig().check("nope", ())

    def test_rejects_wrong_arity(self):
        with pytest.raises(ProtocolError):
            self.sig().check("put", (1, 2))

    def test_rejects_wrong_type(self):
        with pytest.raises(ProtocolError):
            self.sig().check("put", (True,))

    def test_bool_is_not_int(self):
        with pytest.raises(ProtocolError):
            self.sig().check("put", (False,))

    def test_chan_accepts_netref_and_channel(self):
        self.sig().check("get", (NetRef(1, 1, "ip"),))
        self.sig().check("get", (Channel(1),))

    def test_chan_rejects_literal(self):
        with pytest.raises(ProtocolError):
            self.sig().check("get", ("not a channel",))

    def test_open_row_tolerates_unknown_labels(self):
        ws = WireSignature(methods={"put": ("int",)}, open_row=True)
        ws.check("anything", (1, 2, 3))
        with pytest.raises(ProtocolError):
            ws.check("put", ("str",))

    def test_dyn_tag_accepts_anything(self):
        ws = WireSignature(methods={"m": ("dyn",)})
        ws.check("m", (1,))
        ws.check("m", (True,))
        ws.check("m", (NetRef(1, 1, "x"),))


class TestStaticPass:
    def test_signature_derived_from_source(self):
        parsed = parse_program("export new svc svc?{ put(n) = print![n + 1] }")
        sigs = check_site_program("server", parsed.program)
        assert "svc" in sigs.names
        assert sigs.names["svc"].methods == {"put": ("int",)}

    def test_static_error_rejected_at_submission(self):
        parsed = parse_program(
            "export new svc (svc?(n) = print![n + 1] | svc![true])")
        with pytest.raises(TycoTypeError):
            check_site_program("server", parsed.program)

    def test_remote_imports_tolerated(self):
        parsed = parse_program(
            "import Whatever from elsewhere in Whatever[1, 2, 3]")
        sigs = check_site_program("client", parsed.program)
        assert sigs.names == {}

    def test_polymorphic_export_tagged_dyn(self):
        parsed = parse_program("export new svc svc?(x) = svc![x]")
        sigs = check_site_program("server", parsed.program)
        (ws,) = sigs.names.values()
        assert ws.methods["val"] == ("dyn",)

    def test_network_submission_rejects_ill_typed(self):
        net = DiTyCONetwork(typecheck=True)
        net.add_node("n1")
        with pytest.raises(TycoTypeError):
            net.launch("n1", "bad",
                       "new x (x![true] | x?(n) = print![n + 1])")


class TestDynamicBoundary:
    def _net(self):
        net = DiTyCONetwork(typecheck=True)
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server",
                   "export new svc svc?{ put(n) = print![n + 1] }")
        return net

    def test_well_typed_remote_message_passes(self):
        net = self._net()
        net.launch("n2", "client", "import svc from server in svc!put[41]")
        net.run()
        assert net.site("server").output == [42]

    def test_ill_typed_remote_message_rejected(self):
        net = self._net()
        net.launch("n2", "client", "import svc from server in svc!put[true]")
        with pytest.raises(ProtocolError):
            net.run()

    def test_unknown_method_rejected(self):
        net = self._net()
        net.launch("n2", "client", "import svc from server in svc!smash[1]")
        with pytest.raises(ProtocolError):
            net.run()

    def test_wrong_arity_rejected(self):
        net = self._net()
        net.launch("n2", "client", "import svc from server in svc!put[1, 2]")
        with pytest.raises(ProtocolError):
            net.run()

    @pytest.mark.parametrize("message", [
        'svc!smash[1]', 'svc!put[1, 2]', 'svc!put["one"]'],
        ids=["wrong-label", "wrong-arity", "str-for-int"])
    def test_a_site_launched_from_a_template_guards_its_boundary(
            self, message):
        # A typed submission is a launch like any other: the fourth
        # server of one shape is instantiated, not compiled, and owns
        # the signatures the shape's one static check inferred.
        net = DiTyCONetwork(typecheck=True)
        net.add_nodes(["n1", "n2"])
        for n in range(4):
            net.launch("n1", f"server{n}",
                       f"export new svc svc?{{ put(n) = print![n + {n}] }}")
        stats = net.node("n1").tycoi.launch.stats
        assert (stats.hits, stats.misses) == (2, 2)
        net.launch("n2", "fine", "import svc from server3 in svc!put[39]")
        net.run()
        assert net.site("server3").output == [42]
        net.launch("n2", "hostile", f"import svc from server3 in {message}")
        with pytest.raises(ProtocolError):
            net.run()
        assert net.site("server3").output == [42]

    def test_checks_off_by_default(self):
        net = DiTyCONetwork()  # typecheck=False
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server",
                   "export new svc svc?{ put(n) = print![n] }")
        net.launch("n2", "client", "import svc from server in svc!put[true]")
        net.run()  # no boundary rejection; the bad value just flows
        assert net.site("server").output == [True]

    def test_channel_argument_accepted(self):
        net = DiTyCONetwork(typecheck=True)
        net.add_nodes(["n1", "n2"])
        net.launch("n1", "server",
                   "export new svc svc?{ call(r) = r![7] }")
        net.launch("n2", "client",
                   "import svc from server in new a (svc!call[a] | a?(w) = print![w])")
        net.run()
        assert net.site("client").output == [7]
