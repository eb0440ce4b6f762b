"""Smoke test of the e2e benchmark: `python -m pytest benchmarks/e2e -q`.

Not collected by tier-1, whose `testpaths` is `tests`.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = ["pubsub", "mapreduce", "vmloop", "coldstart", "rpc-socket"]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("seed", [11, 12])
def test_smoke_emits_every_metric_once(seed, tmp_path):
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = run("--smoke", "--seed", str(seed), "--out", str(out))
    took = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    assert took < 30, f"--smoke took {took:.1f} s"

    seen = Counter()
    for line in done.stdout.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        workload, name, value, unit = line.split()[:4]
        assert math.isfinite(float(value)), line
        assert unit == UNITS.get(name, unit), line
        seen[workload, name] += 1
    assert set(seen.values()) == {1}
    assert {(w, n) for w in WORKLOADS for n in UNITS} <= set(seen)

    report = json.loads(out.read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        got = report["workloads"][workload]
        assert got["fail_ratio"] == 0 and got["errors"] == []
        assert got["engine"] == "compiled"   # the default, as shipped
    # The driver's list is this command's, less the one workload whose
    # wall clock this host cannot hold within a bound.
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS[:-1]

    # A set of runs is never worse than itself; with one run per size a
    # metric may come out `unresolved` (spread wider than its bound).
    same = run("--compare", str(out), str(out))
    verdicts = Counter(line.split()[-1] for line in same.stdout.splitlines())
    assert verdicts["worse"] == 0 and same.returncode in (0, 1), same.stdout
    assert sum(verdicts.values()) == len(WORKLOADS) * len(SPEC["end_to_end"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_driver_contract_line(trace, section):
    done = run("--workload", "mapreduce", "--seed", "11", "--seconds", "0.6",
               "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name]
        assert math.isfinite(metric["value"])


def test_a_wrong_answer_fails_the_run(monkeypatch):
    """The correctness gate is in the command: a kernel whose pinned
    instruction count is off must turn the run incorrect."""
    for path in (ROOT / "benchmarks", ROOT / "src", HERE):
        monkeypatch.syspath_prepend(str(path))
    import vmloop

    gen, kind, output, per_unit, fixed = vmloop.PINNED["counter_loop"]
    monkeypatch.setitem(vmloop.PINNED, "counter_loop",
                        (gen, kind, output, per_unit, fixed + 1))
    run_ = vmloop.prepare(0, {"counter_loop": 100})
    vmloop.execute(run_)
    outcome = vmloop.verify(run_)
    assert outcome["failed"] == 1
    assert "pinned" in outcome["errors"][0]
