"""Regenerate the committed golden trace and profiles (tests/obs/golden/).

Run after an *intentional* change to the event stream, the Chrome
exporter or sample attribution, then review the diff like any other
golden-file update::

    PYTHONPATH=src python tests/obs/regen_golden.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from repro.testkit import run_scenario  # noqa: E402

from tests.obs.test_golden_profile import PROFILES, golden  # noqa: E402
from tests.obs.test_golden_trace import CONFIG, GOLDEN, SEED  # noqa: E402
from tests.testkit.scenarios import applet  # noqa: E402


def main() -> None:
    run = run_scenario(applet, seed=SEED, config=CONFIG, tracing=True)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(run.trace_json)
    print(f"wrote {GOLDEN} ({len(run.trace_json)} bytes)")
    for name, profile in PROFILES.items():
        text = profile()
        golden(name).write_text(text)
        print(f"wrote {golden(name)} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
