"""Tests for the command-line interface (python -m repro ...)."""

import shlex
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture()
def cell_file(tmp_path):
    path = tmp_path / "cell.dityco"
    path.write_text("""
    def Cell(self, v) =
      self ? { read(r)  = r![v] | Cell[self, v],
               write(u) = Cell[self, u] }
    in new x (Cell[x, 9] | new z (x!read[z] | z?(w) = print![w]))
    """)
    return path


class TestRun:
    def test_run_prints_output(self, cell_file, capsys):
        assert main(["run", str(cell_file)]) == 0
        assert capsys.readouterr().out.strip() == "9"

    def test_run_with_stats(self, cell_file, capsys):
        assert main(["run", "--stats", str(cell_file)]) == 0
        err = capsys.readouterr().err
        assert "communications" in err

    def test_run_divergent_bounded(self, tmp_path, capsys):
        p = tmp_path / "loop.dityco"
        p.write_text("def Loop(n) = Loop[n + 1] in Loop[0]")
        assert main(["run", "--steps", "1000", str(p)]) == 2
        assert "stopped" in capsys.readouterr().err

    def test_run_with_check(self, cell_file, capsys):
        assert main(["run", "--check", str(cell_file)]) == 0


class TestCompile:
    def test_disassembly(self, cell_file, capsys):
        assert main(["compile", str(cell_file)]) == 0
        out = capsys.readouterr().out
        assert "block" in out and "defgroup" in out


class TestCheck:
    def test_well_typed(self, cell_file, capsys):
        assert main(["check", str(cell_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_ill_typed(self, tmp_path, capsys):
        p = tmp_path / "bad.dityco"
        p.write_text("new x (x![true] | x?(n) = print![n + 1])")
        assert main(["check", str(p)]) == 1
        assert "type error" in capsys.readouterr().err

    def test_export_signature_printed(self, tmp_path, capsys):
        p = tmp_path / "svc.dityco"
        p.write_text("export new svc svc?{ put(n) = print![n + 1] }")
        assert main(["check", str(p)]) == 0
        out = capsys.readouterr().out
        assert "export svc" in out
        assert "put(int)" in out


class TestNet:
    def test_scripted_session(self, tmp_path, capsys):
        session = tmp_path / "session.tycosh"
        session.write_text("""
        eval n1 server export new svc svc?(w) = print![w]
        eval n2 client import svc from server in svc![77]
        step
        out server
        """)
        assert main(["net", str(session)]) == 0
        assert "77" in capsys.readouterr().out

    def test_custom_nodes(self, tmp_path, capsys):
        session = tmp_path / "s.tycosh"
        session.write_text("nodes")
        assert main(["net", "--nodes", "alpha,beta,gamma", str(session)]) == 0
        out = capsys.readouterr().out
        assert "alpha" in out and "gamma" in out


MIGRATE_SESSION = (Path(__file__).parents[2]
                   / "examples" / "programs" / "migrate_network.tycosh")
APPLET_SESSION = MIGRATE_SESSION.with_name("applet_network.tycosh")


@pytest.mark.parametrize("argv", [
    ["--nodes", "n1,n2,n3", "--crash", "n1@4.2e-5:4e-4", MIGRATE_SESSION],
    ["--monitor", "--crash", "n1@0.002:0.01", "--max-time", "0.05",
     APPLET_SESSION],
    ["--max-time", "1e-6", APPLET_SESSION.with_name("factorial.dityco")],
    ["--jitter", "0.12345678", APPLET_SESSION],
    ["--drop", "0.4", "--trace", "TRACE", APPLET_SESSION],
])
def test_chaos_repro_line_replays_the_run(argv, tmp_path, capsys):
    # The printed line carries every flag that shaped the run, so
    # running it prints the same report (and writes the same trace).
    trace = tmp_path / "t.json"
    argv = [str(trace) if a == "TRACE" else str(a) for a in argv]
    assert main(["chaos", "--seed", "0", *argv]) == 0
    first = capsys.readouterr().out
    first_trace = trace.read_bytes() if trace.exists() else None
    prefix = "repro: PYTHONPATH=src python -m repro "
    line = first.splitlines()[-1]
    assert line.startswith(prefix)
    assert main(shlex.split(line[len(prefix):])) == 0
    assert capsys.readouterr().out == first
    assert (trace.read_bytes() if trace.exists() else None) == first_trace


@pytest.mark.parametrize("argv", [
    ["net"], ["chaos"], ["chaos", "--explore", "2"], ["obs", "profile"],
    ["balance"]])
def test_unknown_node_is_one_error_line(argv, capsys):
    # The session names n3; the default --nodes is n1,n2.
    assert main([*argv, str(MIGRATE_SESSION)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: unknown node 'n3' (known: n1, n2)"
                   " — pass --nodes\n")


@pytest.mark.parametrize("argv", [
    ["daemon", "--ip", "n2", "--ns", "localhost"],
    ["daemon", "--ip", "n2", "--ns", "host:notaport"],
    ["migrate", "server", "n2", "--control", "localhost"],
    ["obs", "scrape", "--controls", "127.0.0.1:1,localhost"],
    ["obs", "top", "--controls", "127.0.0.1:99999"],
])
def test_bad_host_port_is_a_usage_error(argv, capsys):
    # Checked by argparse before any socket is opened or daemon started.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "expected HOST:PORT" in err


#: The seven commands that read a program (or session) named on the
#: command line.
PROGRAM_COMMANDS = {
    "run": ["run"], "compile": ["compile"], "check": ["check"],
    "obs profile": ["obs", "profile"], "chaos": ["chaos"],
    "balance": ["balance"], "net": ["net"]}


@pytest.mark.parametrize("command", sorted(PROGRAM_COMMANDS))
def test_unreadable_program_is_one_error_line(command, tmp_path, capsys):
    missing = tmp_path / "missing.dityco"
    assert main([*PROGRAM_COMMANDS[command], str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: No such file or directory\n")


@pytest.mark.parametrize("command", sorted(PROGRAM_COMMANDS))
@pytest.mark.parametrize("source, message", [
    ("print![", "2:1: expected an expression, found ''"),
    ("print![1 $ 2]", "1:10: unexpected character '$'")])
def test_front_end_error_is_one_line(command, source, message, tmp_path,
                                     capsys):
    # A program file carries the error's own position; a session names
    # the script line whose launch failed, then the position within it.
    if command == "net":
        path = tmp_path / "bad.tycosh"
        path.write_text(f"# comment\neval n1 main {source}\n")
        line = f"{path}:2: {message.replace('2:1', '1:8')}\n"
    else:
        path = tmp_path / "bad.dityco"
        path.write_text(source + "\n")
        line = f"{path}:{message}\n"
    assert main([*PROGRAM_COMMANDS[command], str(path)]) == 1
    assert capsys.readouterr().err == line
