"""TyCOsh: the user shell of a DiTyCO network (section 5).

"Users submit new programs for execution in a node using a shell
program called TyCOsh.  The user requests are handled by a node
manager daemon, the TyCOi."

The shell is a small command interpreter over a
:class:`~repro.runtime.network.DiTyCONetwork`; it is used
programmatically by the examples and can be driven interactively::

    nodes                          list nodes
    sites                          list sites and their states
    run <ip> <site-name> <file>    compile a source file, create a site
    eval <ip> <site-name> <src>    run inline source text
    step [max-time]                run the network to quiescence
    out <site-name>                print a site's console output
    debug <site-name>              dump what a site is waiting on
    ns                             show the name-service tables
    migrate <site-name> <ip> [at]  live-migrate a site (docs/MIGRATION.md);
                                   with [at], scheduled at that virtual time
"""

from __future__ import annotations

import shlex
from pathlib import Path
from typing import Callable, Optional

from repro.lang.lexer import LexError
from repro.lang.parser import ParseError

from .network import DiTyCONetwork


class ShellError(Exception):
    """Bad command or argument in the shell."""


class UnknownNodeError(ShellError):
    """A command named a node the network does not have."""


class TycoShell:
    """Command interpreter bound to one network."""

    def __init__(self, network: DiTyCONetwork,
                 write: Optional[Callable[[str], None]] = None) -> None:
        self.network = network
        self.lines: list[str] = []
        self._write = write or self.lines.append

    # -- programmatic API --------------------------------------------------

    def run_program(self, ip: str, site_name: str, source: str):
        """Submit inline source text (the ``eval`` command)."""
        return self.network.launch(ip, site_name, source)

    def run_file(self, ip: str, site_name: str, path: str | Path):
        source = Path(path).read_text()
        return self.network.launch(ip, site_name, source)

    # -- command interpreter -----------------------------------------------

    def execute(self, line: str) -> None:
        """Execute one shell command line."""
        parts = shlex.split(line, comments=True)
        if not parts:
            return
        cmd, *args = parts
        handler = getattr(self, f"_cmd_{cmd}", None)
        if handler is None:
            raise ShellError(f"unknown command {cmd!r}")
        handler(args)

    def execute_script(self, script: str) -> None:
        """Execute ``script`` line by line.  A launch whose program does
        not lex or parse raises :class:`ParseError` prefixed with its
        script line: ``"3: 1:8: expected ..."``."""
        for number, line in enumerate(script.splitlines(), 1):
            line = line.strip()
            if line and not line.startswith("#"):
                try:
                    self.execute(line)
                except (LexError, ParseError) as exc:
                    raise ParseError(f"{number}: {exc}") from None

    def _node(self, ip: str) -> str:
        nodes = self.network.world.nodes
        if ip not in nodes:
            raise UnknownNodeError(f"unknown node {ip!r} "
                                   f"(known: {', '.join(sorted(nodes))})")
        return ip

    # -- commands ------------------------------------------------------------

    def _cmd_nodes(self, args: list[str]) -> None:
        for ip, node in sorted(self.network.world.nodes.items()):
            self._write(f"{ip}: {len(node.sites)} site(s)")

    def _cmd_sites(self, args: list[str]) -> None:
        for ip, node in sorted(self.network.world.nodes.items()):
            for site in node.sites.values():
                state = "idle" if site.is_idle() else "running"
                if site.vm.has_stalled():
                    state = "stalled"
                self._write(
                    f"{site.site_name}@{ip} (id {site.site_id}): {state}, "
                    f"{site.vm.stats.reductions} reduction(s)")

    def _cmd_run(self, args: list[str]) -> None:
        if len(args) != 3:
            raise ShellError("usage: run <ip> <site-name> <file>")
        ip, site_name, path = args
        self.run_file(self._node(ip), site_name, path)
        self._write(f"launched {site_name} at {ip}")

    def _cmd_eval(self, args: list[str]) -> None:
        if len(args) < 3:
            raise ShellError("usage: eval <ip> <site-name> <source>")
        ip, site_name = self._node(args[0]), args[1]
        source = " ".join(args[2:])
        self.run_program(ip, site_name, source)
        self._write(f"launched {site_name} at {ip}")

    def _cmd_step(self, args: list[str]) -> None:
        max_time = float(args[0]) if args else None
        elapsed = self.network.run(max_time)
        self._write(f"ran for {elapsed:.6f}s "
                    f"({'quiescent' if self.network.is_quiescent() else 'bounded'})")

    def _cmd_out(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: out <site-name>")
        site = self.network.site(args[0])
        from repro.vm.values import value_repr

        for v in site.output:
            self._write(value_repr(v))

    def _cmd_debug(self, args: list[str]) -> None:
        if len(args) != 1:
            raise ShellError("usage: debug <site-name>")
        for line in self.network.site(args[0]).debug_report().splitlines():
            self._write(line)

    def _cmd_migrate(self, args: list[str]) -> None:
        if len(args) not in (2, 3):
            raise ShellError("usage: migrate <site-name> <dest-ip> [at-time]")
        site_name, dest_ip = args[0], self._node(args[1])
        if len(args) == 3:
            # Plant the cutover on the timer wheel so chaos sessions
            # can migrate mid-traffic at a reproducible virtual time.
            at = float(args[2])
            self.network.world.schedule_at(
                at, lambda: self.network.migrate(site_name, dest_ip))
            self._write(f"migrate {site_name} -> {dest_ip} scheduled at {at}")
        else:
            token = self.network.migrate(site_name, dest_ip)
            self._write(f"migrating {site_name} -> {dest_ip} ({token})")

    def _cmd_ns(self, args: list[str]) -> None:
        ns = self.network.nameservice
        self._write(f"sites: {ns.site_count()}, "
                    f"exported ids: {ns.exported_count()}, "
                    f"lookups: {ns.stats.lookups}")


def repl(network: DiTyCONetwork) -> None:  # pragma: no cover - interactive
    """A tiny interactive loop (used by ``examples``)."""
    import sys

    shell = TycoShell(network, write=lambda s: print(s))
    print("TyCOsh -- type 'help' for commands, 'quit' to exit")
    for line in sys.stdin:
        line = line.strip()
        if line in ("quit", "exit"):
            return
        if line == "help":
            print(__doc__)
            continue
        try:
            shell.execute(line)
        except ShellError as exc:
            print(f"error: {exc}")
