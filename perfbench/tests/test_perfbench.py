"""Smoke tests of the benchmark itself.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

They run every workload for about a second, so they check the plumbing
(metric names, units, the oracle, the failure accounting), not speed.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    """``BENCHMARK.json``'s command, run from ``cwd``."""
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_what_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for spec in expected:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
    details = json.loads(done.stdout.splitlines()[-2])
    assert details["seed"] == 3 and details["why"]
    assert set(details["host"]) == {"cpu_model", "nproc", "python", "numpy"}
    assert details["failed_frac"] == {"value": 0.0, "unit": "frac"}


def _flip_engine_cold(result):
    accepted, *rest = result
    return (not accepted, *rest)


def _flip_sweep(points):
    first = points[0]
    return (dataclasses.replace(first, error_far=1.0 - first.error_far),) + points[1:]


@pytest.mark.parametrize("workload, flip", [
    ("engine_cold", _flip_engine_cold),
    ("trial_planes", np.logical_not),
    ("fault_sweep", _flip_sweep),
])
def test_a_wrong_result_is_counted_as_failed(workload, flip, monkeypatch, capsys):
    original = workloads.State.call

    def tampered(self, index):
        call = original(self, index)
        if index == 0:
            return dataclasses.replace(call, run=lambda: flip(call.run()))
        return call

    monkeypatch.setattr(workloads.State, "call", tampered)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", workload, "--seed", "5", "--seconds", "0.1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    assert result["correct"] is False and result["failed"] == 1
    assert details["failed_frac"]["value"] == 1 / result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "engine_cold", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_self_time_excludes_child_spans():
    table = layers.SpanTable()
    table.add([
        {"event": "span", "id": 2, "parent": 1, "name": "child",
         "seconds": 0.4, "counters": {"n": 3}},
        {"event": "span", "id": 1, "parent": None, "name": "parent",
         "seconds": 1.0, "counters": {}},
    ])
    assert table.self_seconds("parent") == pytest.approx(0.6)
    assert table.seconds("parent") == 1.0
    assert table.counter("n", "child") == 3
    assert table.layer_self_seconds()["unattributed"] == pytest.approx(1.0)


def test_tail_leaves_ten_calls_beyond():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0, 10)
    assert run.tail([float(i) for i in range(40)]) == (75.0, 29.0, 10)
    assert run.tail([1.0, 2.0]) == (100.0, 2.0, 0)
