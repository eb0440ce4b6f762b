"""Differential testing: the formal engine and the VM must agree.

The calculus engine (:mod:`repro.core.reduction`) and the compiled VM
(:mod:`repro.vm.machine`) implement the same semantics by two entirely
different routes (term rewriting vs byte-code over a heap).  For
randomly generated confluent programs both must produce

* the same multiset of printed values, and
* exactly the same number of COMM and INST reductions.

A third leg checks the distributed stack: the same two-site program
run on the simulated world and on the socket world produces the same
outputs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.compiler import compile_term, optimize_program
from repro.core import (
    BinOp,
    ClassVar,
    If,
    Instance,
    Lit,
    LocalEngine,
    Method,
    Name,
    New,
    Nil,
    Par,
    Process,
    msg,
    par,
    single_def,
    val_msg,
    val_obj,
)
from repro.vm import TycoVM

pytestmark = pytest.mark.slow

# ---------------------------------------------------------------------------
# A generator of confluent, terminating, printing programs.
#
# Every generated unit owns its own channels, so units cannot interfere
# and the program's output multiset is schedule-independent.
# ---------------------------------------------------------------------------

_PRINT = Name("print")


@st.composite
def _literal(draw):
    return Lit(draw(st.one_of(st.integers(-20, 20), st.booleans(),
                              st.text("ab", max_size=3))))


@st.composite
def _rendezvous_unit(draw):
    """new x (x![lit] | x?(w) = print![w])  -- 1 comm, 1 print."""
    x, w = Name("x"), Name("w")
    lit = draw(_literal())
    return New((x,), par(val_msg(x, lit), val_obj(x, (w,), val_msg(_PRINT, w)))), 1, 0, 1


@st.composite
def _chained_unit(draw):
    """A chain of d forwarders ending at the console: d comms."""
    depth = draw(st.integers(1, 4))
    lit = draw(_literal())
    names = [Name(f"c{i}") for i in range(depth)]
    procs = [val_msg(names[0], lit)]
    for i in range(depth):
        w = Name("w")
        target = names[i + 1] if i + 1 < depth else _PRINT
        procs.append(val_obj(names[i], (w,), val_msg(target, w)))
    return New(tuple(names), par(*procs)), depth, 0, 1


@st.composite
def _countdown_unit(draw):
    """def C(n) = if n>0 then (print![n] | C[n-1]) else 0 in C[k]."""
    k = draw(st.integers(0, 5))
    C = ClassVar("C")
    n = Name("n")
    body = If(
        BinOp(">", n, Lit(0)),
        par(val_msg(_PRINT, n), Instance(C, (BinOp("-", n, Lit(1)),))),
        Nil(),
    )
    return single_def(C, (n,), body, Instance(C, (Lit(k),))), 0, k + 1, k


@st.composite
def _selector_unit(draw):
    """An object with two labelled methods; one is selected."""
    x = Name("x")
    a, b = Name("a"), Name("b")
    pick_first = draw(st.booleans())
    lit = draw(_literal())
    from repro.core import Label, Object

    obj = Object(x, {
        Label("left"): Method((a,), val_msg(_PRINT, a)),
        Label("right"): Method((b,), val_msg(_PRINT, b)),
    })
    label = "left" if pick_first else "right"
    return New((x,), par(obj, msg(x, label, lit))), 1, 0, 1


@st.composite
def programs(draw):
    n_units = draw(st.integers(1, 5))
    units = []
    comms = insts = prints = 0
    for _ in range(n_units):
        unit, c, i, p = draw(st.one_of(
            _rendezvous_unit(), _chained_unit(),
            _countdown_unit(), _selector_unit()))
        units.append(unit)
        comms += c
        insts += i
        prints += p
    return par(*units), comms, insts, prints


def run_engine(term: Process):
    engine = LocalEngine()
    engine.register_builtin(_PRINT,
                            lambda label, args: engine.output.extend(args))
    engine.add(term)
    engine.run(200_000)
    assert engine.is_quiescent()
    return engine


def run_vm(term: Process, optimize: bool = False):
    program = compile_term(term)
    if optimize:
        optimize_program(program)
    vm = TycoVM(program)
    vm.boot()
    vm.run(2_000_000)
    assert vm.is_idle()
    return vm


def canon(values) -> list[str]:
    out = []
    for v in values:
        if isinstance(v, Lit):
            v = v.value
        if isinstance(v, bool):
            out.append(f"bool:{v}")
        elif isinstance(v, int):
            out.append(f"int:{v}")
        else:
            out.append(f"{type(v).__name__}:{v}")
    return sorted(out)


@settings(max_examples=60, deadline=None)
@given(programs())
def test_engine_and_vm_agree_on_output(p):
    term, _, _, n_prints = p
    engine = run_engine(term)
    vm = run_vm(term)
    assert canon(engine.output) == canon(vm.output)
    assert len(vm.output) == n_prints


@settings(max_examples=60, deadline=None)
@given(programs())
def test_engine_and_vm_agree_on_reductions(p):
    term, comms, insts, _ = p
    engine = run_engine(term)
    vm = run_vm(term)
    assert engine.comm_count == vm.stats.comm_reductions == comms
    assert engine.inst_count == vm.stats.inst_reductions == insts


@settings(max_examples=40, deadline=None)
@given(programs())
def test_optimizer_preserves_semantics(p):
    term, _, _, _ = p
    plain = run_vm(term, optimize=False)
    optimized = run_vm(term, optimize=True)
    assert canon(plain.output) == canon(optimized.output)
    assert (plain.stats.comm_reductions
            == optimized.stats.comm_reductions)


@st.composite
def int_only_programs(draw):
    """Programs whose printed values are all ints: these are well typed
    (the shared console channel stays monomorphic at int)."""
    n_units = draw(st.integers(1, 4))
    units = []
    for _ in range(n_units):
        kind = draw(st.integers(0, 1))
        if kind == 0:
            x, w = Name("x"), Name("w")
            lit = Lit(draw(st.integers(-9, 9)))
            units.append(New((x,), par(
                val_msg(x, lit), val_obj(x, (w,), val_msg(_PRINT, w)))))
        else:
            k = draw(st.integers(0, 4))
            C = ClassVar("C")
            n = Name("n")
            body = If(BinOp(">", n, Lit(0)),
                      par(val_msg(_PRINT, n),
                          Instance(C, (BinOp("-", n, Lit(1)),))),
                      Nil())
            units.append(single_def(C, (n,), body, Instance(C, (Lit(k),))))
    return par(*units)


@settings(max_examples=50, deadline=None)
@given(int_only_programs())
def test_well_typed_programs_run_clean(p):
    """Type-soundness smoke: a program accepted by the static checker
    never trips the VM's dynamic checks."""
    from repro.types import infer_program
    from repro.vm import VMRuntimeError

    infer_program(p)  # must not raise
    try:
        vm = run_vm(p)
    except VMRuntimeError as exc:  # pragma: no cover
        raise AssertionError(f"well-typed program faulted: {exc}")
    assert all(isinstance(v, int) for v in vm.output)


class TestSimVsSocket:
    PROGRAMS = [
        ("export new svc svc?(w) = print![w]",
         "import svc from server in svc![5]",
         "server", [5]),
        ("export def Applet(out) = out![7 * 3] in 0",
         "import Applet from server in new v (Applet[v] | v?(w) = print![w])",
         "client", [21]),
        ("new u export new proc proc?(x, reply) = reply![x]",
         "import proc from server in new v a (proc![9, a] | a?(y) = print![y])",
         "client", [9]),
    ]

    @pytest.mark.parametrize("server_src,client_src,who,expected", PROGRAMS)
    def test_both_worlds_agree(self, server_src, client_src, who, expected):
        from repro.runtime import DiTyCONetwork
        from repro.transport import SimWorld, SocketWorld

        def run(world):
            net = DiTyCONetwork(world=world)
            net.add_nodes(["n1", "n2"])
            net.launch("n1", "server", server_src)
            net.launch("n2", "client", client_src)
            try:
                net.run(20.0 if world.wall_clock else None)
                return net.site(who).output
            finally:
                if world.wall_clock:
                    world.shutdown()

        assert run(SimWorld()) == expected
        assert run(SocketWorld()) == expected
