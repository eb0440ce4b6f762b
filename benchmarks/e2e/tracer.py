"""The traced run: timing wrappers around repro's public functions.

`Tracer.install` replaces each function of `HOOKS` with a wrapper that
records a span (hook, start, end, depth) and adds the call to the
hook's count and self time -- the span's duration minus the part
covered by wrapped calls beneath it.  A span is written when it ends,
so the span that caused it is the next one of its thread that is one
level shallower.  Nothing inside
`src/` changes: a module function is rebound at every name it is
looked up through (`site.py` binds `encode` with `from .wire import`,
so patching `repro.runtime.wire.encode` alone would record nothing),
a method is replaced on its class.

Each thread keeps its own span stack and totals (the socket world
steps every node on a thread of its own); `Tracer.end` adds them up.
Time is attributed when some thread is inside a wrapped call, a
record is on its way through the socket transport, or a delivered
record waits for its node's next quantum; the rest of the timed
window is `bench.unattributed_s`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, deque

#: Spans kept per thread; calls beyond it are still counted and timed.
SPAN_CAP = 200_000

#: (hook, module, qualified name).  Hooks that share a name add up.
HOOKS = (
    ("lang.parse", "repro.lang.parser", "parse_program"),
    ("types.check", "repro.runtime.typecheck", "check_site_program"),
    ("compiler.codegen", "repro.compiler.codegen", "compile_term"),
    ("compiler.link", "repro.compiler.linker", "extract_bundle"),
    ("compiler.link", "repro.compiler.linker", "link_bundle"),
    ("vm.compile", "repro.vm.compile", "compile_block"),
    ("vm.predecode", "repro.vm.dispatch", "predecode"),
    ("vm.step", "repro.vm.machine", "TycoVM.step"),
    ("runtime.daemon.submit", "repro.runtime.daemon", "TyCOi.submit"),
    ("runtime.daemon.reap", "repro.runtime.daemon", "TyCOi.reap"),
    ("runtime.node.create_site", "repro.runtime.node", "Node.create_site"),
    ("runtime.node.step", "repro.runtime.node", "Node.step"),
    ("runtime.node.send", "repro.runtime.node", "Node.transport_send"),
    ("runtime.node.receive", "repro.runtime.node", "Node.receive"),
    ("runtime.node.frame", "repro.runtime.wire", "encode_frame"),
    ("runtime.site.step", "repro.runtime.site", "Site.step"),
    ("runtime.site.pump", "repro.runtime.site", "Site.pump_incoming"),
    ("runtime.site.marshal", "repro.runtime.site", "Site.marshal_value"),
    ("runtime.site.marshal", "repro.runtime.site", "Site.unmarshal_value"),
    # Not Site.on_nameservice_update: every registration calls it on
    # every site once per subscription, millions of times in a macro
    # run, and a wrapper there (or on the callbacks) doubles the wall.
    # Subscriptions are counted instead, so each registration knows
    # how many sites it woke; its span covers the whole fan-out.
    ("runtime.nameservice.subscribe", "repro.runtime.nameservice",
     "NameService.subscribe"),
    ("runtime.nameservice.register", "repro.runtime.nameservice",
     "NameService.register_site"),
    ("runtime.nameservice.register", "repro.runtime.nameservice",
     "NameService.export_name"),
    ("runtime.nameservice.register", "repro.runtime.nameservice",
     "NameService.export_class"),
    ("runtime.nameservice.lookup", "repro.runtime.nameservice",
     "NameService.lookup_site"),
    ("runtime.nameservice.lookup", "repro.runtime.nameservice",
     "NameService.lookup_name"),
    ("runtime.nameservice.lookup", "repro.runtime.nameservice",
     "NameService.lookup_class"),
    ("runtime.wire.encode", "repro.runtime.wire", "encode"),
    ("runtime.wire.decode", "repro.runtime.wire", "decode"),
    ("runtime.codecache.link", "repro.runtime.codecache",
     "link_bundle_cached"),
    ("runtime.codecache.digest", "repro.runtime.codecache", "digest_item"),
    ("transport.sim.run", "repro.transport.sim", "SimWorld.run"),
    ("transport.socket.send", "repro.transport.socket",
     "SocketEndpoint.send"),
    ("workloads.op_entry", "repro.workloads.pubsub", "op_entry"),
    ("workloads.op_entry", "repro.workloads.mapreduce", "op_entry"),
    ("workloads.trace_gen", "repro.workloads.spec", "generate_trace"),
)

#: hook -> what to add to its `amount` per call, from (args, result).
AMOUNTS = {
    "lang.parse": lambda args, result: len(args[0]),           # source bytes
    "compiler.codegen": lambda args, result: result.instruction_count(),
    "runtime.daemon.reap": lambda args, result: result,        # sites reaped
}


NAMES = tuple(dict.fromkeys(hook for hook, _module, _name in HOOKS))


class TracerError(RuntimeError):
    """A hook names a function that does not exist (any more)."""


class _ThreadState:
    __slots__ = ("stack", "calls", "self_ns", "amount", "spans", "tops")

    def __init__(self) -> None:
        self.stack: list = []            # per open span, ns in its children
        self.calls = [0] * len(NAMES)
        self.self_ns = [0] * len(NAMES)
        self.amount = [0] * len(NAMES)
        self.spans: list = []            # (hook, start_ns, end_ns, depth)
        self.tops: list = []             # (start_ns, end_ns) of root spans

    def reset(self) -> None:
        if self.stack:
            raise TracerError("the timed window opens inside a span")
        for column in (self.calls, self.self_ns, self.amount):
            column[:] = [0] * len(NAMES)
        self.spans.clear()
        self.tops.clear()


class Tracer:
    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: node ip -> send times of records the socket transport has
        #: not handed to the node yet (one TCP stream per direction
        #: between two nodes, so arrival order is send order).
        self._in_flight: dict[str, deque] = {}
        self._flights: list = []         # (sent_ns, received_ns)
        #: node ip -> when the oldest record not yet stepped on arrived.
        self._delivered: dict[str, int] = {}
        self._waits: list = []           # (received_ns, next step's start_ns)
        #: subscriber (a node) -> times it subscribed to the name service.
        self._subscriptions: Counter = Counter()
        self._window_start = 0
        self._amount_of = {**AMOUNTS,
                           "runtime.nameservice.register": self._sites_woken}
        self._before = {"transport.socket.send": self._on_socket_send,
                        "runtime.node.receive": self._on_node_receive,
                        "runtime.node.step": self._on_node_step,
                        "runtime.nameservice.subscribe": self._on_subscribe}
        #: What set-up recorded, and what the timed window recorded.
        self.setup_totals: dict | None = None
        self.totals: dict | None = None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook; a hook that resolves to no attribute is an
        error naming its layer, so a rename cannot blank a row."""
        for hook, module_name, qualname in HOOKS:
            try:
                module = importlib.import_module(module_name)
                *path, name = qualname.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                original = vars(owner)[name]
                if not callable(original):
                    raise AttributeError(f"{name} is not a function")
            except (ImportError, AttributeError, KeyError) as exc:
                raise TracerError(
                    f"layer {hook}: {module_name}.{qualname} does not "
                    f"resolve ({exc!r}); update HOOKS in "
                    f"benchmarks/e2e/tracer.py") from exc
            wrapper = self._wrap(hook, original)
            if path:
                setattr(owner, name, wrapper)
                continue
            for other in list(sys.modules.values()):
                namespace = getattr(other, "__dict__", None)
                if namespace is None:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper

    def _state(self) -> _ThreadState:
        state = self._tls.state = _ThreadState()
        with self._lock:
            self._threads.append(state)
        return state

    def _wrap(self, hook: str, fn):
        idx = NAMES.index(hook)
        tls = self._tls
        new_state = self._state
        now = time.perf_counter_ns
        amount_of = self._amount_of.get(hook)
        before = self._before.get(hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            stack.append(0)              # time in wrapped calls beneath
            start = now()
            if before is not None:
                before(args, start)
            try:
                result = fn(*args, **kwargs)
                if amount_of is not None:
                    state.amount[idx] += amount_of(args, result)
                return result
            finally:
                end = now()
                took = end - start
                state.calls[idx] += 1
                state.self_ns[idx] += took - stack.pop()
                if stack:
                    stack[-1] += took
                else:
                    state.tops.append((start, end))
                spans = state.spans
                if len(spans) < SPAN_CAP:
                    spans.append((idx, start, end, len(stack)))

        return wrapper

    # -- name-service notifications --------------------------------------------

    def _on_subscribe(self, args, start: int) -> None:
        _nameservice, callback = args
        self._subscriptions[getattr(callback, "__self__", None)] += 1

    def _sites_woken(self, args, result) -> int:
        """`Site.on_nameservice_update` calls one registration makes:
        every subscription of a node (`Node._on_ns_update`, once per
        site it ever created) walks that node's whole site pool."""
        woken = 0
        for node, count in self._subscriptions.items():
            sites = getattr(node, "sites", None)
            woken += count * (1 if sites is None else len(sites))
        return woken

    # -- records in flight on the socket transport ---------------------------

    def _on_socket_send(self, args, start: int) -> None:
        _endpoint, dst_ip = args[0], args[1]
        self._in_flight.setdefault(dst_ip, deque()).append(start)

    def _on_node_receive(self, args, start: int) -> None:
        ip = args[0].ip
        queue = self._in_flight.get(ip)
        if queue:
            self._flights.append((queue.popleft(), start))
        self._delivered.setdefault(ip, start)

    def _on_node_step(self, args, start: int) -> None:
        """A delivered record waits until its node's next quantum: on
        a wall-clock world, for the node's thread to wake."""
        delivered = self._delivered.pop(args[0].ip, None)
        if delivered is not None:
            self._waits.append((delivered, start))

    # -- the timed window ----------------------------------------------------

    def begin(self) -> None:
        """Set what set-up recorded aside; the timed window starts now."""
        self.setup_totals = self._sum()
        with self._lock:
            for state in self._threads:
                state.reset()
        for pending in (self._in_flight, self._flights, self._delivered,
                        self._waits):
            pending.clear()
        self._window_start = time.perf_counter_ns()

    def _sum(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        out = {}
        for column in ("calls", "self_ns", "amount"):
            out[column] = {
                name: sum(getattr(t, column)[i] for t in threads)
                for i, name in enumerate(NAMES)}
        out["self_s"] = {n: v / 1e9 for n, v in out.pop("self_ns").items()}
        return out

    def end(self) -> None:
        """Close the timed window and add the threads up."""
        start = self._window_start
        end = time.perf_counter_ns()
        with self._lock:
            intervals = [iv for t in self._threads for iv in list(t.tops)]
        flights, waits = list(self._flights), list(self._waits)
        self.totals = self._sum()
        self.totals.update(
            wall_s=(end - start) / 1e9,
            attributed_s=_union_ns(intervals + flights + waits,
                                   start, end) / 1e9,
            in_flight_s=sum(b - a for a, b in flights) / 1e9,
            step_wait_s=sum(b - a for a, b in waits) / 1e9)

    def write_spans(self, path: str) -> None:
        with self._lock:
            threads = list(self._threads)
        doc = {"hooks": list(NAMES),
               "columns": ["hook", "start_ns", "end_ns", "depth"],
               "threads": [list(t.spans) for t in threads]}
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out)


def _union_ns(intervals: list, lo: int, hi: int) -> int:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered
