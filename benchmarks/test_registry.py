"""The experiment registry must be complete and closed.

Every ``bench_e*.py`` module in this directory must be reachable from
``run_all.py`` (a benchmark nobody can run from the driver silently
rots), every registry entry must point at a real module with a
``report()``, and unknown experiment names must die with a clear
message instead of a bare ``KeyError`` -- in table mode and in
``--json --only`` mode alike.
"""

import importlib
import json
from pathlib import Path

import pytest

import baseline
import run_all

BENCH_DIR = Path(__file__).parent


def bench_modules_on_disk() -> set[str]:
    return {p.stem for p in BENCH_DIR.glob("bench_e*.py")}


class TestRegistryComplete:
    def test_every_bench_module_is_registered(self):
        registered = {module for module, _title in run_all.EXPERIMENTS.values()}
        missing = bench_modules_on_disk() - registered
        assert not missing, (
            f"bench modules not in run_all.EXPERIMENTS: {sorted(missing)}")

    def test_every_registry_entry_exists_with_report(self):
        for key, (module_name, title) in run_all.EXPERIMENTS.items():
            module = importlib.import_module(module_name)
            assert callable(getattr(module, "report", None)), (
                f"{key} -> {module_name} has no report()")
            assert title

    def test_registry_keys_are_unique_modules(self):
        modules = [m for m, _t in run_all.EXPERIMENTS.values()]
        assert len(modules) == len(set(modules))


class TestUnknownNamesRejected:
    def test_table_mode_rejects_unknown_name(self):
        with pytest.raises(SystemExit, match="unknown experiment.*e99"):
            run_all.main(["e99"])

    def test_table_mode_error_lists_choices(self):
        with pytest.raises(SystemExit, match="choose from .*e14"):
            run_all.main(["nonsense"])

    def test_json_only_rejects_unknown_group(self, tmp_path):
        out = tmp_path / "bench.json"
        with pytest.raises(SystemExit, match="unknown benchmark groups"):
            run_all.main(["--json", str(out), "--only", "e9,e77"])
        assert not out.exists()

    def test_collect_metrics_rejects_unknown_group(self):
        with pytest.raises(ValueError, match="e77"):
            baseline.collect_metrics(only={"e77"})


def test_json_only_happy_path_writes_requested_groups(tmp_path):
    out = tmp_path / "bench.json"
    run_all.main(["--json", str(out), "--only", "e9"])
    data = json.loads(out.read_text())
    assert data and all(k.startswith("e9_") for k in data)
