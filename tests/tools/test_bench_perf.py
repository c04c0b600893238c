"""Smoke-test the perf benchmark tool end to end.

Runs ``tools/bench_perf.py --smoke`` as a subprocess (the way CI and
users invoke it) and checks the JSON contract: the run succeeds, the
serial and batched paths agree bit for bit, and the batched path
actually beats the serial loop.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_smoke_run_writes_valid_report(tmp_path):
    out = tmp_path / "bench.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_perf.py"),
         "--smoke", "--trials", "1500", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr

    payload = json.loads(out.read_text())
    assert payload["schema"] == "bench_trials/v1"
    assert payload["smoke"] is True
    assert payload["workload"]["trials"] == 1500
    assert all(payload["bit_identical"].values()), payload["bit_identical"]
    # The vectorised kernel must beat the per-trial Python loop.
    assert payload["speedup_batched"] > 1.0
    assert payload["serial_seconds"] > 0
    assert payload["has_collision_us"]["sizes"]
