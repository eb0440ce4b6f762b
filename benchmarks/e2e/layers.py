"""The per-layer ledger: what the traced run reports, and what must
and must not have happened on each workload.

Layer = module name.  `_s` is self time inside the timed window,
`_calls` a count of wrapped calls; the other counts come from the
public stats objects (`VMStats`, `NameServiceStats`, `TransportStats`,
`SiteStats`).
"""

from __future__ import annotations

from tracer import NAMES

#: Hooks that must have fired at least once on a workload (its "should
#: move" rows in the README's layer -> end-to-end table) ...
MUST_FIRE = {
    "pubsub": {
        "lang.parse", "compiler.codegen", "runtime.daemon.submit",
        "runtime.node.create_site", "vm.compile", "vm.predecode", "vm.step",
        "runtime.nameservice.subscribe", "runtime.nameservice.register",
        "runtime.nameservice.lookup", "runtime.daemon.reap",
        "runtime.node.step", "runtime.site.step", "runtime.site.pump",
        "runtime.site.marshal", "runtime.wire.encode", "runtime.wire.decode",
        "runtime.node.send", "runtime.node.receive", "transport.sim.run",
        "workloads.op_entry"},
    "vmloop": {"lang.parse", "compiler.codegen", "vm.compile",
               "vm.predecode", "vm.step"},
    "coldstart": {
        "lang.parse", "compiler.codegen", "runtime.daemon.submit",
        "runtime.node.create_site", "vm.compile", "vm.predecode", "vm.step",
        "runtime.node.step", "runtime.site.step", "transport.sim.run"},
    "rpc-socket": {
        "vm.step", "runtime.node.step", "runtime.site.step",
        "runtime.site.pump", "runtime.site.marshal", "runtime.wire.encode",
        "runtime.wire.decode", "runtime.node.send", "runtime.node.receive",
        "transport.socket.send"},
}
MUST_FIRE["mapreduce"] = MUST_FIRE["pubsub"] | {
    "compiler.link", "runtime.codecache.link", "runtime.codecache.digest"}

#: ... and hooks whose count must read 0 there (its "must not move"
#: rows: the layer does nothing on this workload).
_CODE = {"compiler.link", "runtime.codecache.link", "runtime.codecache.digest"}
_WIRE = {"runtime.wire.encode", "runtime.wire.decode", "runtime.node.send",
         "runtime.node.receive", "runtime.node.frame", "runtime.site.marshal",
         "transport.socket.send"}
MUST_BE_ZERO = {
    "pubsub": _CODE | {"transport.socket.send", "types.check"},
    "mapreduce": {"transport.socket.send", "types.check"},
    "vmloop": set(NAMES) - MUST_FIRE["vmloop"],
    "coldstart": _CODE | _WIRE | {"runtime.daemon.reap", "workloads.op_entry",
                                  "workloads.trace_gen", "types.check"},
    "rpc-socket": _CODE | {"transport.sim.run", "runtime.daemon.reap",
                           "runtime.daemon.submit", "lang.parse",
                           "workloads.op_entry", "workloads.trace_gen",
                           "types.check"},
}


def self_check(workload: str, calls: dict[str, int]) -> list[str]:
    errors = [f"tracer: {hook} never fired on {workload}"
              for hook in sorted(MUST_FIRE[workload]) if calls[hook] == 0]
    errors += [f"tracer: {hook} fired {calls[hook]} time(s) on {workload}, "
               f"where the layer must do nothing"
               for hook in sorted(MUST_BE_ZERO[workload]) if calls[hook]]
    return errors


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traced: dict, setup: dict, totals,
                  net) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every traced metric of one run:
    `traced` is what the tracer recorded inside the timed window,
    `setup` what it recorded before (the trace is generated there)."""
    calls, self_s, amount = traced["calls"], traced["self_s"], traced["amount"]
    ns = net.nameservice.stats if net is not None else None
    world = net.world if net is not None else None
    stats = world.stats if world is not None else None
    socket = world is not None and world.wall_clock
    registrations = (ns.site_registrations + ns.name_registrations
                     + ns.class_registrations) if ns else 0
    packets = stats.packets if stats else 0
    wire_bytes = stats.bytes if stats else 0
    probes = totals.code_cache_hits + totals.code_cache_misses
    out = {
        "lang.parse_s": (self_s["lang.parse"], "s"),
        "lang.parse_calls": (calls["lang.parse"], "count"),
        "lang.src_kb_per_s": (_ratio(amount["lang.parse"] / 1024,
                                     self_s["lang.parse"]), "KB/s"),
        "types.check_s": (self_s["types.check"], "s"),
        "types.check_calls": (calls["types.check"], "count"),
        "compiler.codegen_s": (self_s["compiler.codegen"], "s"),
        "compiler.codegen_calls": (calls["compiler.codegen"], "count"),
        "compiler.instrs_emitted": (amount["compiler.codegen"], "count"),
        "compiler.link_s": (self_s["compiler.link"], "s"),
        "compiler.link_calls": (calls["compiler.link"], "count"),
        "vm.compile_s": (self_s["vm.compile"], "s"),
        "vm.compile_calls": (calls["vm.compile"], "count"),
        "vm.predecode_s": (self_s["vm.predecode"], "s"),
        "vm.predecode_calls": (calls["vm.predecode"], "count"),
        "vm.step_s": (self_s["vm.step"], "s"),
        "vm.step_calls": (calls["vm.step"], "count"),
        "vm.instructions": (totals.instructions, "count"),
        "vm.context_switches": (totals.context_switches, "count"),
        "vm.minstr_per_step_s": (_ratio(totals.instructions / 1e6,
                                        self_s["vm.step"]), "Minstr/s"),
        "vm.instrs_per_compiled_block": (
            _ratio(totals.instructions, calls["vm.compile"]), "ratio"),
        "runtime.daemon.submit_s": (self_s["runtime.daemon.submit"], "s"),
        "runtime.daemon.submit_calls": (calls["runtime.daemon.submit"],
                                        "count"),
        "runtime.daemon.reap_s": (self_s["runtime.daemon.reap"], "s"),
        "runtime.daemon.reaped": (amount["runtime.daemon.reap"], "count"),
        "runtime.node.create_site_s": (self_s["runtime.node.create_site"],
                                       "s"),
        "runtime.node.step_s": (self_s["runtime.node.step"], "s"),
        "runtime.node.step_calls": (calls["runtime.node.step"], "count"),
        "runtime.node.send_s": (self_s["runtime.node.send"], "s"),
        "runtime.node.receive_s": (self_s["runtime.node.receive"], "s"),
        "runtime.node.frames_sent": (calls["runtime.node.frame"], "count"),
        "runtime.node.step_wait_s": (traced["step_wait_s"], "s"),
        "runtime.site.step_s": (self_s["runtime.site.step"], "s"),
        "runtime.site.pump_s": (self_s["runtime.site.pump"], "s"),
        "runtime.site.marshal_s": (self_s["runtime.site.marshal"], "s"),
        "runtime.site.ns_update_calls": (
            amount["runtime.nameservice.register"], "count"),
        "runtime.nameservice.register_s": (
            self_s["runtime.nameservice.register"], "s"),
        "runtime.nameservice.registrations": (registrations, "count"),
        "runtime.nameservice.lookup_s": (
            self_s["runtime.nameservice.lookup"], "s"),
        "runtime.nameservice.lookup_calls": (ns.lookups if ns else 0,
                                             "count"),
        "runtime.nameservice.lookup_misses": (ns.misses if ns else 0,
                                              "count"),
        "runtime.nameservice.wakeups_per_register": (
            _ratio(amount["runtime.nameservice.register"], registrations),
            "ratio"),
        "runtime.wire.encode_s": (self_s["runtime.wire.encode"], "s"),
        "runtime.wire.encode_calls": (calls["runtime.wire.encode"], "count"),
        "runtime.wire.decode_s": (self_s["runtime.wire.decode"], "s"),
        "runtime.wire.decode_calls": (calls["runtime.wire.decode"], "count"),
        "runtime.wire.packets": (packets, "count"),
        "runtime.wire.bytes": (wire_bytes, "B"),
        "runtime.wire.bytes_per_packet": (_ratio(wire_bytes, packets), "B"),
        "runtime.codecache.link_s": (self_s["runtime.codecache.link"], "s"),
        "runtime.codecache.digest_s": (self_s["runtime.codecache.digest"],
                                       "s"),
        "runtime.codecache.hits": (totals.code_cache_hits, "count"),
        "runtime.codecache.misses": (totals.code_cache_misses, "count"),
        "runtime.codecache.hit_ratio": (
            _ratio(totals.code_cache_hits, probes), "ratio"),
        "transport.sim.run_s": (self_s["transport.sim.run"], "s"),
        "transport.socket.send_s": (self_s["transport.socket.send"], "s"),
        "transport.socket.in_flight_s": (traced["in_flight_s"], "s"),
        "transport.socket.records": (
            world.records_sent if socket else 0, "count"),
        "transport.socket.bytes": (wire_bytes if socket else 0, "B"),
        "transport.socket.queue_peak": (stats.queue_peak if stats else 0,
                                        "count"),
        "transport.socket.reconnects": (stats.reconnects if stats else 0,
                                        "count"),
        "transport.socket.backpressure_waits": (
            stats.backpressure_waits if stats else 0, "count"),
        "workloads.op_entry_s": (self_s["workloads.op_entry"], "s"),
        "workloads.trace_gen_s": (setup["self_s"]["workloads.trace_gen"],
                                  "s"),
        "bench.unattributed_s": (traced["wall_s"] - traced["attributed_s"],
                                 "s"),
    }
    return out
