"""Command-line interface: compile, check and run DiTyCO programs.

::

    python -m repro run PROGRAM.dityco            one site on one VM
    python -m repro run --steps 100000 PROG       bound the execution
    python -m repro compile PROGRAM.dityco        show the byte-code
    python -m repro check PROGRAM.dityco          static type check
    python -m repro net SESSION.tycosh            scripted TyCOsh session
    python -m repro shell --nodes n1,n2           interactive TyCOsh
    python -m repro chaos --seed 42 SESSION       one seeded chaos run
    python -m repro chaos --explore 20 SESSION    sweep seeds, check invariants
    python -m repro trace-check t.json            validate a trace file
    python -m repro workload pubsub --ops 100     macro workload latency run
    python -m repro obs scrape --controls ...     aggregate a daemon cluster
    python -m repro obs profile PROGRAM           sampling profiler (sim)
    python -m repro obs top --controls ...        per-node load table

The single-program form plays the role of launching one site through
TyCOsh on a fresh node; the ``net`` form drives a whole simulated
network from a session script (see :mod:`repro.runtime.shell` for the
command set).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path


class _Fail(Exception):
    """Bad input a command reports as one stderr line and an exit
    status instead of a traceback; :func:`main` prints it."""

    def __init__(self, line: str, status: int) -> None:
        super().__init__(line)
        self.status = status


def _read(path: str) -> str:
    """The text of the program or session file named on the command
    line; a file that cannot be read exits 2."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise _Fail(f"error: cannot read {path}: {reason}", 2) from None


@contextmanager
def _front_end(path: str):
    """A program that does not lex or parse -- or a session line
    launching one -- exits 1 with one ``PATH:line:col: message`` line,
    like ``check``'s type errors."""
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError

    try:
        yield
    except (LexError, ParseError) as exc:
        raise _Fail(f"{path}:{exc}", 1) from None


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.compiler import compile_source
    from repro.vm import TycoVM, value_repr
    from repro.vm.trace import Tracer

    source = _read(args.program)
    with _front_end(args.program):
        program = compile_source(source, source_name=args.program)
    if args.check:
        from repro.lang import parse_program
        from repro.runtime.typecheck import check_site_program

        check_site_program("main", parse_program(source).program)
    vm = TycoVM(program, name=Path(args.program).stem)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(vm)
    vm.boot()
    vm.run(args.steps)
    if tracer is not None:
        print(tracer.format_tail(args.trace), file=sys.stderr)
    for value in vm.output:
        print(value_repr(value))
    if not vm.is_idle():
        print(f"-- stopped after {args.steps} instructions "
              f"(still runnable)", file=sys.stderr)
        return 2
    if args.stats:
        s = vm.stats
        print(f"-- {s.instructions} instructions, "
              f"{s.comm_reductions} communications, "
              f"{s.inst_reductions} instantiations, "
              f"{vm.runqueue.context_switches} context switches",
              file=sys.stderr)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.compiler import compile_source, validate_program

    source = _read(args.program)
    with _front_end(args.program):
        program = compile_source(source, source_name=args.program)
    validate_program(program)
    print(program.disassemble())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.lang import parse_program
    from repro.runtime.typecheck import check_site_program
    from repro.types import TycoTypeError

    source = _read(args.program)
    with _front_end(args.program):
        parsed = parse_program(source)
    try:
        sigs = check_site_program(Path(args.program).stem, parsed.program)
    except TycoTypeError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return 1
    print("ok")
    for hint, ws in sorted(sigs.names.items()):
        methods = ", ".join(
            f"{l}({', '.join(tags)})" for l, tags in sorted(ws.methods.items()))
        suffix = ", ..." if ws.open_row else ""
        print(f"  export {hint}: {{{methods}{suffix}}}")
    return 0


def _cmd_net(args: argparse.Namespace) -> int:
    from repro.runtime import DiTyCONetwork, TycoShell

    net = DiTyCONetwork(typecheck=args.check)
    for ip in args.nodes.split(","):
        net.add_node(ip.strip())
    shell = TycoShell(net, write=print)
    script = _read(args.session)
    with _front_end(args.session):
        shell.execute_script(script)
    return 0


def _parse_crash(spec: str):
    """``ip@t`` or ``ip@t:restart_t`` -> CrashEvent."""
    from repro.testkit import CrashEvent

    try:
        ip, _, times = spec.partition("@")
        if not ip or not times:
            raise ValueError(spec)
        crash_t, _, restart_t = times.partition(":")
        return CrashEvent(ip=ip, at=float(crash_t),
                          restart_at=float(restart_t) if restart_t else None)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad crash spec {spec!r}: expected ip@time[:restart_time]")


def _chaos_scenario(args: argparse.Namespace):
    """Build the scenario callable from the program file."""
    from repro.runtime import TycoShell

    path = Path(args.program)
    text = _read(args.program)
    nodes = [ip.strip() for ip in args.nodes.split(",")]
    distgc = getattr(args, "distgc", False)   # chaos only

    def prepare(net):
        if distgc:
            from repro.runtime import GcScheduler

            net.distgc = True
            GcScheduler(net.world).install(horizon=min(args.max_time, 0.05))
        for ip in nodes:
            net.add_node(ip)

    if path.suffix == ".tycosh":
        def scenario(net):
            prepare(net)
            shell = TycoShell(net, write=lambda line: None)
            with _front_end(args.program):
                shell.execute_script(text)
    else:
        def scenario(net):
            prepare(net)
            with _front_end(args.program):
                net.launch(nodes[0], "main", text)
    return scenario


def _write_or_print(path: str, text: str) -> None:
    """``-`` means stdout; anything else is a file path."""
    if path == "-":
        print(text, end="")
    else:
        Path(path).write_text(text)


def _cmd_trace_check(args: argparse.Namespace) -> int:
    """Validate a trace file against docs/trace_schema.json."""
    import json

    from repro.obs import validate_trace

    try:
        doc = json.loads(Path(args.trace).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"{args.trace}: unreadable: {exc}", file=sys.stderr)
        return 1
    errors = validate_trace(doc)
    if errors:
        for message in errors:
            print(f"  {message}", file=sys.stderr)
        print(f"{args.trace}: {len(errors)} schema violation(s)",
              file=sys.stderr)
        return 1
    instants = sum(1 for ev in doc["traceEvents"] if ev.get("ph") == "i")
    print(f"{args.trace}: ok ({instants} event(s))")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.testkit import ChaosConfig, explore, run_scenario

    config = ChaosConfig(
        jitter_s=args.jitter,
        drop_prob=args.drop,
        dup_prob=args.dup,
        delay_prob=args.delay_prob,
        delay_s=args.delay,
        crashes=tuple(args.crash),
    )
    scenario = _chaos_scenario(args)
    program = args.program
    if args.explore:
        if args.trace is not None or args.metrics is not None:
            print("--trace/--metrics apply to single runs, not --explore",
                  file=sys.stderr)
            return 2
        report = explore(scenario,
                         range(args.seed, args.seed + args.explore),
                         config, max_time=args.max_time,
                         monitor=args.monitor)
        print(report.summary(program))
        return 0 if report.ok() else 3
    registry = None
    if args.metrics is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    run = run_scenario(scenario, args.seed, config,
                       max_time=args.max_time,
                       monitor=args.monitor,
                       tracing=args.trace is not None,
                       metrics=registry)
    print(f"chaos seed={run.seed} {config.describe()}")
    print(f"quiescent: {'yes' if run.quiescent else 'no'}  "
          f"elapsed: {run.elapsed:.9f}s")
    print(f"packets: sent={run.packets} delivered={run.deliveries} "
          f"dropped={run.chaos_dropped} dup-extra={run.chaos_duplicated} "
          f"delayed={run.chaos_delayed} crash-dropped={run.crash_dropped}")
    print("outputs:")
    from repro.vm.values import value_repr

    for site, values in run.outputs.items():
        rendered = ", ".join(value_repr(v) for v in values)
        print(f"  {site}: {rendered}")
    if run.stalled_sites:
        print(f"stalled: {', '.join(run.stalled_sites)}")
    if run.fault_log:
        print("faults:")
        for line in run.fault_log.splitlines():
            print(f"  {line}")
    if run.violations:
        print("invariants:")
        for message in run.violations:
            print(f"  VIOLATION: {message}")
    else:
        print("invariants: ok")
    if run.flight_dump:
        print(run.flight_dump, file=sys.stderr)
    if args.trace is not None:
        _write_or_print(args.trace, run.trace_json)
        if args.trace != "-":
            print(f"trace: {args.trace}")
    if registry is not None:
        _write_or_print(args.metrics, registry.render())
    print(f"repro: {run.repro(program, trace=args.trace)}")
    return 3 if run.violations else 0


def _cmd_workload(args: argparse.Namespace) -> int:
    """Run one macro workload (docs/WORKLOADS.md) and print latency."""
    import dataclasses
    import json
    import time

    from repro.workloads import WorkloadError, WorkloadSpec, run_workload

    try:
        if args.spec is not None:
            if args.workload is not None:
                print("pass a workload name or --spec, not both",
                      file=sys.stderr)
                return 2
            spec = WorkloadSpec.from_json(Path(args.spec).read_text())
        elif args.workload is not None:
            spec = WorkloadSpec(args.workload)
        else:
            print("workload name or --spec required", file=sys.stderr)
            return 2
        overrides = {name: getattr(args, name)
                     for name in ("seed", "ops", "rate_per_s", "nodes",
                                  "topics", "subscribers", "workers",
                                  "stages")
                     if getattr(args, name) is not None}
        if overrides:
            spec = dataclasses.replace(spec, **overrides)
    except (WorkloadError, OSError, json.JSONDecodeError) as exc:
        print(f"bad workload spec: {exc}", file=sys.stderr)
        return 2

    slo = None
    if args.slo is not None:
        from repro.obs.slo import SLOError, SLOSpec

        try:
            slo = SLOSpec.from_json(Path(args.slo).read_text())
        except (SLOError, OSError) as exc:
            print(f"bad SLO spec: {exc}", file=sys.stderr)
            return 2

    start = time.perf_counter()
    try:
        report = run_workload(spec, world=args.world,
                              max_time=args.max_time,
                              balance=args.balance,
                              balance_interval=args.balance_interval,
                              slo=slo)
    except (WorkloadError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    host_ms = (time.perf_counter() - start) * 1e3
    summary = report.summary()

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"workload {spec.workload} world={report.world} "
              f"seed={spec.seed} ops={spec.ops}")
        print(f"completed: {summary['completed']}/{summary['ops']}  "
              f"makespan: {summary['makespan_us']}us  "
              f"throughput: {summary['throughput_ops_per_s']} ops/s")
        header = f"{'op':<10} {'count':>6} {'p50_us':>10} " \
                 f"{'p90_us':>10} {'p99_us':>10} {'max_us':>10}"
        print(header)
        for op in sorted(summary["per_op"]):
            row = summary["per_op"][op]
            print(f"{op:<10} {row['count']:>6} {row['p50_us']:>10} "
                  f"{row['p90_us']:>10} {row['p99_us']:>10} "
                  f"{row['max_us']:>10}")
    if args.balance and not args.json:
        moves = report.balance_decisions or []
        print(f"balance: {len(moves)} migration(s)")
        for d in moves:
            print(f"  tick {d.tick}: {d.site_name} "
                  f"{d.src_ip} -> {d.dest_ip} "
                  f"(load {d.src_load:.0f} vs {d.dest_load:.0f})")
    if slo is not None and not args.json:
        if report.slo_breaches:
            print(f"slo: {len(report.slo_breaches)} breach(es)")
        else:
            print("slo: ok")
    if args.metrics is not None:
        _write_or_print(args.metrics, report.registry.render())
    print(f"-- host time: {host_ms:.0f}ms", file=sys.stderr)
    if report.violations:
        for message in report.violations:
            print(f"VIOLATION: {message}", file=sys.stderr)
        if report.flight_dump:
            print(report.flight_dump, file=sys.stderr)
        return 3
    if report.slo_breaches:
        for message in report.slo_breaches:
            print(f"SLO BREACH: {message}", file=sys.stderr)
        if report.flight_dump:
            print(report.flight_dump, file=sys.stderr)
        return 4
    return 0


def _host_port(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` -> (host, port): the argparse type of every
    address option, so a malformed one is a usage error (exit 2)."""
    host, _, port = spec.strip().rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            f"bad address {spec!r}: expected HOST:PORT")
    return host, int(port)


def _parse_controls(spec: str) -> list[tuple[str, int]]:
    """Comma-separated ``HOST:PORT`` list -> [(host, port), ...]."""
    addrs = [_host_port(part) for part in spec.split(",") if part.strip()]
    if not addrs:
        raise argparse.ArgumentTypeError(
            "at least one HOST:PORT control address required")
    return addrs


def _discover_controls(addrs, timeout: float) -> dict:
    """``ident`` each control address -> {node ip: (host, port)}."""
    from repro.runtime.cluster import control_call

    controls = {}
    for addr in addrs:
        ident = control_call(addr, "ident", timeout=timeout)
        controls[ident["ip"]] = addr
    return controls


def _cmd_obs_scrape(args: argparse.Namespace) -> int:
    """Aggregate a daemon cluster: merged metrics + stitched trace."""
    from repro.obs import ClusterScraper

    try:
        scraper = ClusterScraper(
            _discover_controls(args.controls, args.timeout),
            timeout=args.timeout)
        _write_or_print(args.metrics, scraper.scrape_metrics())
        if args.trace is not None:
            _write_or_print(args.trace, scraper.scrape_trace())
            if args.trace != "-":
                print(f"trace: {args.trace}", file=sys.stderr)
        if args.flight is not None:
            dumps = scraper.flight_dumps()
            text = "\n".join(dumps[ip] for ip in sorted(dumps) if dumps[ip])
            _write_or_print(args.flight, text + "\n" if text else "")
    except (OSError, RuntimeError) as exc:
        print(f"scrape failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs_profile(args: argparse.Namespace) -> int:
    """Deterministic sampling profile of a simulated run."""
    from repro.obs import MetricsRegistry, VMProfiler
    from repro.runtime import DiTyCONetwork

    profiler = VMProfiler(stride=args.stride)
    net = DiTyCONetwork()
    profiler.install_network(net)
    scenario = _chaos_scenario(args)
    scenario(net)
    net.run(args.max_time)
    _write_or_print(args.out, profiler.collapsed())
    if args.out != "-":
        print(f"{profiler.samples} sample(s), {len(profiler.counts)} "
              f"frame(s) to {args.out}")
    if args.metrics is not None:
        registry = MetricsRegistry()
        profiler.to_registry(registry)
        _write_or_print(args.metrics, registry.render())
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    """Periodic per-node load / queue / migration table."""
    import time as _t

    from repro.obs import ClusterScraper, top_table

    try:
        scraper = ClusterScraper(
            _discover_controls(args.controls, args.timeout),
            timeout=args.timeout)
        for i in range(args.count):
            if i:
                _t.sleep(args.interval)
                print()
            print(top_table(scraper.loads()))
    except (OSError, RuntimeError) as exc:
        print(f"top failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_daemon(args: argparse.Namespace) -> int:
    from repro.runtime.cluster import daemon_main

    return daemon_main(args)


def _cmd_migrate(args: argparse.Namespace) -> int:
    """Order a live daemon (``repro daemon``) to migrate one site."""
    from repro.runtime.cluster import control_call

    try:
        token = control_call(args.control, "migrate", args.site, args.dest)
    except (OSError, RuntimeError) as exc:
        print(f"migrate failed: {exc}", file=sys.stderr)
        return 1
    print(f"migrating {args.site} -> {args.dest}: {token}")
    return 0


def _cmd_balance(args: argparse.Namespace) -> int:
    """Run a session on the simulator with the load balancer on: the
    default :class:`~repro.mobility.balancer.ThresholdPolicy`, sampling
    every 1e-4 virtual seconds until 0.05."""
    from repro.mobility.balancer import LoadBalancer
    from repro.runtime import DiTyCONetwork, TycoShell

    path = Path(args.program)
    text = _read(args.program)
    nodes = [ip.strip() for ip in args.nodes.split(",")]
    net = DiTyCONetwork()
    for ip in nodes:
        net.add_node(ip)
    balancer = LoadBalancer(net)
    balancer.install(1e-4, 0.05)
    with _front_end(args.program):
        if path.suffix == ".tycosh":
            TycoShell(net, write=print).execute_script(text)
        else:
            net.launch(nodes[0], "main", text)
    net.run(args.max_time)
    print(f"balance: {balancer.ticks} tick(s), "
          f"{len(balancer.decisions)} migration(s)")
    for d in balancer.decisions:
        print(f"  tick {d.tick}: {d.site_name} {d.src_ip} -> {d.dest_ip} "
              f"(load {d.src_load:.0f} vs {d.dest_load:.0f})")
    print("placement:")
    for ip in sorted(net.world.nodes):
        names = sorted(s.site_name
                       for s in net.world.nodes[ip].sites.values())
        print(f"  {ip}: {', '.join(names) if names else '-'}")
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:  # pragma: no cover
    from repro.runtime import DiTyCONetwork
    from repro.runtime.shell import repl

    net = DiTyCONetwork(typecheck=args.check)
    for ip in args.nodes.split(","):
        net.add_node(ip.strip())
    repl(net)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiTyCO: distributed TyCO with code mobility "
                    "(reproduction of Lopes et al., CLUSTER 2000)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one program on a TyCO VM")
    p_run.add_argument("program", help="a .dityco source file")
    p_run.add_argument("--steps", type=int, default=10_000_000,
                       help="instruction bound (default: 10M)")
    p_run.add_argument("--check", action="store_true",
                       help="static type check before running")
    p_run.add_argument("--stats", action="store_true",
                       help="print VM statistics to stderr")
    p_run.add_argument("--trace", type=int, metavar="N", default=0,
                       help="print the last N executed instructions")
    p_run.set_defaults(func=_cmd_run)

    p_compile = sub.add_parser("compile", help="compile and disassemble")
    p_compile.add_argument("program")
    p_compile.set_defaults(func=_cmd_compile)

    p_check = sub.add_parser("check", help="static type check")
    p_check.add_argument("program")
    p_check.set_defaults(func=_cmd_check)

    p_net = sub.add_parser("net", help="run a scripted TyCOsh session")
    p_net.add_argument("session", help="a .tycosh script")
    p_net.add_argument("--nodes", default="n1,n2",
                       help="comma-separated node IPs (default: n1,n2)")
    p_net.add_argument("--check", action="store_true",
                       help="enable submission-time type checking")
    p_net.set_defaults(func=_cmd_net)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded chaos run / seed exploration over a simulated network")
    p_chaos.add_argument("program",
                         help="a .tycosh session script or a .dityco program")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="chaos RNG seed (default: 0)")
    p_chaos.add_argument("--explore", type=int, metavar="N", default=0,
                         help="sweep N seeds starting at --seed and check "
                              "cross-run invariants")
    p_chaos.add_argument("--nodes", default="n1,n2",
                         help="comma-separated node IPs (default: n1,n2)")
    p_chaos.add_argument("--jitter", type=float, default=0.0, metavar="S",
                         help="delivery jitter window in seconds")
    p_chaos.add_argument("--drop", type=float, default=0.0, metavar="P",
                         help="per-packet drop probability")
    p_chaos.add_argument("--dup", type=float, default=0.0, metavar="P",
                         help="per-packet duplication probability")
    p_chaos.add_argument("--delay-prob", type=float, default=0.0, metavar="P",
                         help="probability of an extra delivery delay")
    p_chaos.add_argument("--delay", type=float, default=0.0, metavar="S",
                         help="extra delay upper bound in seconds")
    p_chaos.add_argument("--crash", type=_parse_crash, action="append",
                         default=[], metavar="IP@T[:RESTART_T]",
                         help="crash a node at virtual time T "
                              "(optionally restart later); repeatable")
    p_chaos.add_argument("--max-time", type=float, default=5.0,
                         help="virtual-time bound per run (default: 5.0)")
    p_chaos.add_argument("--monitor", action="store_true",
                         help="install a heartbeat failure detector "
                              "and check reconfiguration integrity")
    p_chaos.add_argument("--distgc", action="store_true",
                         help="enable lease-based distributed GC on every "
                              "node and check the reclamation invariants")
    p_chaos.add_argument("--trace", metavar="PATH", default=None,
                         help="enable full causal tracing and write the "
                              "Chrome-trace-event JSON (- for stdout)")
    p_chaos.add_argument("--metrics", metavar="PATH", default=None,
                         help="write the Prometheus-style metrics "
                              "exposition (- for stdout)")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_tcheck = sub.add_parser(
        "trace-check",
        help="validate a trace file against docs/trace_schema.json")
    p_tcheck.add_argument("trace", help="a trace JSON file")
    p_tcheck.set_defaults(func=_cmd_trace_check)

    p_wl = sub.add_parser(
        "workload",
        help="run a macro workload (pub/sub, map-reduce, agents) under "
             "seeded open-loop traffic; see docs/WORKLOADS.md")
    p_wl.add_argument("workload", nargs="?", default=None,
                      choices=("pubsub", "mapreduce", "agents"),
                      help="workload name (or use --spec)")
    p_wl.add_argument("--spec", default=None, metavar="PATH",
                      help="WorkloadSpec JSON file (canonical form, as "
                           "written by WorkloadSpec.to_json)")
    p_wl.add_argument("--world", default="sim",
                      choices=("sim", "socket"),
                      help="substrate: deterministic simulator or the "
                           "wall-clock TCP transport (default: sim)")
    p_wl.add_argument("--seed", type=int, default=None,
                      help="traffic RNG seed (default: spec's)")
    p_wl.add_argument("--ops", type=int, default=None,
                      help="number of operations")
    p_wl.add_argument("--rate", type=float, default=None, dest="rate_per_s",
                      help="mean open-loop arrival rate, ops/s")
    p_wl.add_argument("--nodes", type=int, default=None,
                      help="node count")
    p_wl.add_argument("--topics", type=int, default=None,
                      help="pub/sub: topic hub count")
    p_wl.add_argument("--subscribers", type=int, default=None,
                      help="pub/sub: subscribers per topic")
    p_wl.add_argument("--workers", type=int, default=None,
                      help="map-reduce: worker pool size")
    p_wl.add_argument("--stages", type=int, default=None,
                      help="agents: pipeline length")
    p_wl.add_argument("--max-time", type=float, default=None,
                      help="wall-clock drain bound in seconds "
                           "(default: 30; ignored on sim)")
    p_wl.add_argument("--balance", action="store_true",
                      help="run the metrics-driven load balancer over "
                           "the traffic window (docs/MIGRATION.md)")
    p_wl.add_argument("--balance-interval", type=float, default=None,
                      metavar="S",
                      help="balancer sampling period in seconds of the "
                           "world's clock (default: traffic span / 8)")
    p_wl.add_argument("--json", action="store_true",
                      help="print the latency summary as JSON "
                           "(deterministic on sim)")
    p_wl.add_argument("--metrics", metavar="PATH", default=None,
                      help="write the Prometheus-style metrics "
                           "exposition (- for stdout)")
    p_wl.add_argument("--slo", metavar="PATH", default=None,
                      help="SLO spec JSON (docs/OBSERVABILITY.md); the "
                           "watchdog checks it during the run and exit "
                           "code 4 flags breaches")
    p_wl.set_defaults(func=_cmd_workload)

    p_daemon = sub.add_parser(
        "daemon",
        help="run one DiTyCO node as an OS process (the paper's TyCOd); "
             "see docs/TRANSPORT.md")
    p_daemon.add_argument("--ip", required=True,
                          help="this node's logical IP (its name in the "
                               "static topology)")
    p_daemon.add_argument("--host", default="127.0.0.1",
                          help="interface to bind (default: 127.0.0.1)")
    p_daemon.add_argument("--ns", type=_host_port, default=None,
                          metavar="HOST:PORT",
                          help="name service location (required unless "
                               "--serve-ns)")
    p_daemon.add_argument("--serve-ns", action="store_true",
                          help="host the cluster's name service in this "
                               "daemon")
    p_daemon.add_argument("--ns-port", type=int, default=0,
                          help="name service port when --serve-ns "
                               "(default: ephemeral)")
    p_daemon.add_argument("--control-port", type=int, default=0,
                          help="control protocol port (default: ephemeral; "
                               "printed on the READY line)")
    p_daemon.add_argument("--obs", action="store_true",
                          help="turn on the observability plane: causal "
                               "tracing plus trace/flight sinks served "
                               "over the control protocol")
    p_daemon.set_defaults(func=_cmd_daemon)

    p_migrate = sub.add_parser(
        "migrate",
        help="live-migrate one site between the nodes of a running "
             "daemon cluster (docs/MIGRATION.md)")
    p_migrate.add_argument("site", help="site name at the source daemon")
    p_migrate.add_argument("dest", help="destination node's logical IP")
    p_migrate.add_argument("--control", type=_host_port, required=True,
                           metavar="HOST:PORT",
                           help="the *source* daemon's control port "
                                "(from its READY line)")
    p_migrate.set_defaults(func=_cmd_migrate)

    p_balance = sub.add_parser(
        "balance",
        help="run a session on the simulator with the load balancer "
             "migrating hot sites (docs/MIGRATION.md)")
    p_balance.add_argument("program",
                           help="a .tycosh session script or a .dityco "
                                "program")
    p_balance.add_argument("--nodes", default="n1,n2",
                           help="comma-separated node IPs (default: n1,n2)")
    p_balance.add_argument("--max-time", type=float, default=5.0,
                           help="virtual-time bound (default: 5.0)")
    p_balance.set_defaults(func=_cmd_balance)

    p_obs = sub.add_parser(
        "obs",
        help="cluster observability plane: scrape, profile, top "
             "(docs/OBSERVABILITY.md)")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_scrape = obs_sub.add_parser(
        "scrape",
        help="aggregate a live daemon cluster: merged node-labelled "
             "metrics, stitched Perfetto trace, flight dumps")
    p_scrape.add_argument("--controls", type=_parse_controls, required=True,
                          metavar="HOST:PORT,...",
                          help="daemon control addresses (READY lines)")
    p_scrape.add_argument("--metrics", default="-", metavar="PATH",
                          help="merged metrics exposition output "
                               "(default: stdout)")
    p_scrape.add_argument("--trace", default=None, metavar="PATH",
                          help="stitched Chrome-trace JSON output "
                               "(- for stdout)")
    p_scrape.add_argument("--flight", default=None, metavar="PATH",
                          help="remote flight-recorder dumps output "
                               "(- for stdout)")
    p_scrape.add_argument("--timeout", type=float, default=10.0,
                          help="per-call control timeout in seconds "
                               "(default: 10)")
    p_scrape.set_defaults(func=_cmd_obs_scrape)

    p_profile = obs_sub.add_parser(
        "profile",
        help="instruction-strided sampling profile of a simulated run "
             "(deterministic; collapsed-stack flamegraph output)")
    p_profile.add_argument("program",
                           help="a .tycosh session script or a .dityco "
                                "program")
    p_profile.add_argument("--nodes", default="n1,n2",
                           help="comma-separated node IPs (default: n1,n2)")
    p_profile.add_argument("--stride", type=int, default=4096,
                           help="instructions per sample (default: 4096)")
    p_profile.add_argument("--max-time", type=float, default=5.0,
                           help="virtual-time bound (default: 5.0)")
    p_profile.add_argument("--out", default="-", metavar="PATH",
                           help="collapsed-stack output (default: stdout)")
    p_profile.add_argument("--metrics", metavar="PATH", default=None,
                           help="also write repro_profile_samples_total "
                                "as a metrics exposition (- for stdout)")
    p_profile.set_defaults(func=_cmd_obs_profile)

    p_top = obs_sub.add_parser(
        "top",
        help="per-node load / queue-depth / migration table from a live "
             "daemon cluster")
    p_top.add_argument("--controls", type=_parse_controls, required=True,
                       metavar="HOST:PORT,...",
                       help="daemon control addresses (READY lines)")
    p_top.add_argument("--interval", type=float, default=1.0, metavar="S",
                       help="seconds between refreshes (default: 1.0)")
    p_top.add_argument("--count", type=int, default=1, metavar="N",
                       help="number of tables to print (default: 1)")
    p_top.add_argument("--timeout", type=float, default=10.0,
                       help="per-call control timeout in seconds "
                            "(default: 10)")
    p_top.set_defaults(func=_cmd_obs_top)

    p_shell = sub.add_parser("shell", help="interactive TyCOsh")
    p_shell.add_argument("--nodes", default="n1,n2")
    p_shell.add_argument("--check", action="store_true")
    p_shell.set_defaults(func=_cmd_shell)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Fail as exc:
        print(exc, file=sys.stderr)
        return exc.status
    except Exception as exc:
        # A session named a node --nodes did not create: one line,
        # exit 2 like any other bad argument.  (Imported here, on the
        # error path: the shell loads the whole runtime.)
        from repro.runtime.shell import UnknownNodeError

        if not isinstance(exc, UnknownNodeError):
            raise
        print(f"error: {exc} — pass --nodes", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
