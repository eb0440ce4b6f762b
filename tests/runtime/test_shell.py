"""Tests for TyCOsh, the user shell (section 5)."""

import pytest

from repro.runtime import DiTyCONetwork, ShellError, TycoShell


@pytest.fixture()
def net():
    network = DiTyCONetwork()
    network.add_nodes(["n1", "n2"])
    return network


@pytest.fixture()
def shell(net):
    return TycoShell(net)


class TestProgrammatic:
    def test_run_program(self, net, shell):
        shell.run_program("n1", "solo", "print![7]")
        net.run()
        assert net.site("solo").output == [7]

    def test_run_file(self, net, shell, tmp_path):
        path = tmp_path / "prog.dityco"
        path.write_text("print![11]")
        shell.run_file("n1", "filesite", path)
        net.run()
        assert net.site("filesite").output == [11]


class TestCommands:
    def test_eval_and_step_and_out(self, net, shell):
        shell.execute("eval n1 solo print![42]")
        shell.execute("step")
        shell.execute("out solo")
        assert "42" in shell.lines[-1]

    def test_nodes_lists_all(self, net, shell):
        shell.execute("nodes")
        assert any("n1" in l for l in shell.lines)
        assert any("n2" in l for l in shell.lines)

    def test_sites_shows_state(self, net, shell):
        shell.execute("eval n1 svc export new svc svc?(w) = print![w]")
        shell.execute("step")
        shell.execute("sites")
        assert any("svc@n1" in l for l in shell.lines)

    def test_run_command(self, net, shell, tmp_path):
        path = tmp_path / "p.dityco"
        path.write_text("print![1]")
        shell.execute(f"run n1 fromfile {path}")
        shell.execute("step")
        assert net.site("fromfile").output == [1]

    def test_ns_command(self, net, shell):
        shell.execute("eval n1 server export new svc svc?(w) = 0")
        shell.execute("step")
        shell.execute("ns")
        assert any("exported ids: 1" in l for l in shell.lines)

    def test_distributed_session(self, net, shell):
        shell.execute_script("""
        # a two-site session
        eval n1 server export new svc svc?(w) = print![w]
        eval n2 client import svc from server in svc![99]
        step
        out server
        """)
        assert "99" in shell.lines[-1]

    def test_stalled_site_reported(self, net, shell):
        shell.execute("eval n2 waiting import ghost from nowhere in ghost![1]")
        shell.execute("step")
        shell.execute("sites")
        assert any("stalled" in l for l in shell.lines)


class TestErrors:
    def test_migrate_command(self, net, shell):
        shell.execute("eval n1 server export def Pump(r) = r![9] in 0")
        shell.execute("step")
        shell.execute("migrate server n2")
        shell.execute("step")
        assert any("migrating server -> n2" in l for l in shell.lines)
        assert net.nameservice.lookup_site("server").ip == "n2"
        shell.execute("eval n1 c1 import Pump from server in "
                      "new v (Pump[v] | v?(w) = print![w])")
        shell.execute("step")
        assert net.site("c1").output == [9]

    def test_migrate_scheduled_at_virtual_time(self, net, shell):
        shell.execute("eval n1 server export def Pump(r) = r![9] in 0")
        shell.execute("eval n2 c1 import Pump from server in "
                      "new v (Pump[v] | v?(w) = print![w])")
        shell.execute("migrate server n2 4e-5")
        assert any("scheduled at" in l for l in shell.lines)
        shell.execute("step")
        assert net.nameservice.lookup_site("server").ip == "n2"
        assert net.site("c1").output == [9]

    def test_migrate_scheduled_on_a_socket_world(self):
        """A wall-clock world has the same timer: a planned migration
        is pending work, and a time already past fires at once."""
        from repro.transport import SocketWorld

        world = SocketWorld()
        net = DiTyCONetwork(world=world)
        net.add_nodes(["n1", "n2"])
        shell = TycoShell(net)
        try:
            shell.execute("eval n1 s export def Pump(r) = r![9] in 0")
            shell.execute("step 30")
            shell.execute("migrate s n2 0.5")
            assert any("scheduled at 0.5" in l for l in shell.lines)
            shell.execute("step 30")
            assert net.nameservice.lookup_site("s").ip == "n2"
            assert net.node("n1").mobility.stats.migrations_out == 1
        finally:
            world.shutdown()

    def test_bad_migrate_usage(self, shell):
        with pytest.raises(ShellError):
            shell.execute("migrate onlysite")

    def test_unknown_command(self, shell):
        with pytest.raises(ShellError):
            shell.execute("frobnicate")

    def test_bad_run_usage(self, shell):
        with pytest.raises(ShellError):
            shell.execute("run n1 onlytwo")

    def test_bad_out_usage(self, shell):
        with pytest.raises(ShellError):
            shell.execute("out")

    def test_bad_eval_usage(self, shell):
        with pytest.raises(ShellError):
            shell.execute("eval n1 onlyname")

    @pytest.mark.parametrize("line", [
        "eval n3 s print![1]", "run n3 s prog.dityco", "migrate s n3",
        "migrate s n3 1e-5"])
    def test_unknown_node(self, shell, line):
        with pytest.raises(ShellError,
                           match=r"^unknown node 'n3' \(known: n1, n2\)$"):
            shell.execute(line)

    def test_empty_and_comment_lines_ignored(self, shell):
        shell.execute("")
        shell.execute("   ")
        shell.execute_script("# just a comment\n\n")
