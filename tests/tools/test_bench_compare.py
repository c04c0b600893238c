"""Tests for the benchmark regression gate.

The compare functions are exercised directly on synthetic payloads (the
interesting logic: recursive ``*_seconds`` collection, per-trial
normalisation, tolerance maths), and the CLI end to end via ``--fresh-*``
payload files so no benchmark actually reruns.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "bench_compare", ROOT / "tools" / "bench_compare.py"
)
bench_compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_compare)


class TestCollectSeconds:
    def test_flattens_nested_seconds_fields(self):
        payload = {
            "schema": "x/v1",
            "warm_seconds": 2.0,
            "section": {"cold_seconds": 4.0, "other": 1},
            "points": [{"t_seconds": 1.0}, {"t_seconds": 3.0}],
        }
        fields = bench_compare.collect_seconds(payload)
        assert fields["warm_seconds"] == (2.0, 1.0)
        assert fields["section.cold_seconds"] == (4.0, 1.0)
        assert fields["points[0].t_seconds"] == (1.0, 1.0)
        assert fields["points[1].t_seconds"] == (3.0, 1.0)

    def test_trials_scale_from_sibling_and_workload(self):
        payload = {
            "workload": {"trials": 100},
            "serial_seconds": 50.0,
            "e6": {"trials": 10, "warm_seconds": 5.0},
            "e5": {"repeats": 4, "cold_seconds": 2.0},
        }
        fields = bench_compare.collect_seconds(payload)
        # Top-level timing scales by workload.trials; sections by their
        # own trials/repeats (overriding the inherited scale).
        assert fields["serial_seconds"] == (50.0, 100.0)
        assert fields["e6.warm_seconds"] == (5.0, 10.0)
        assert fields["e5.cold_seconds"] == (2.0, 4.0)

    def test_non_seconds_fields_ignored(self):
        fields = bench_compare.collect_seconds(
            {"speedup": 3.0, "rounds": 7, "name": "x"}
        )
        assert fields == {}


class TestComparePayloads:
    def test_per_trial_normalisation_masks_trial_count_change(self):
        # Full run committed, smoke run fresh: same per-trial speed.
        committed = {"trials": 1000, "warm_seconds": 10.0}
        fresh = {"trials": 10, "warm_seconds": 0.1}
        rows, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.30
        )
        assert len(rows) == 1 and not regressions
        assert rows[0]["ratio"] == pytest.approx(1.0)

    def test_regression_beyond_tolerance_flagged(self):
        committed = {"trials": 10, "warm_seconds": 1.0}
        fresh = {"trials": 10, "warm_seconds": 1.5}
        rows, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.30
        )
        assert len(regressions) == 1
        assert regressions[0]["path"] == "warm_seconds"
        assert regressions[0]["ratio"] == pytest.approx(1.5)

    def test_slowdown_within_tolerance_passes(self):
        committed = {"warm_seconds": 1.0}
        fresh = {"warm_seconds": 1.25}
        _, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.30
        )
        assert not regressions

    def test_speedups_and_new_fields_never_fail(self):
        committed = {"warm_seconds": 1.0}
        fresh = {"warm_seconds": 0.2, "new_section": {"fast_seconds": 99.0}}
        rows, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.0
        )
        assert [r["path"] for r in rows] == ["warm_seconds"]
        assert not regressions

    def test_noise_floor_skips_sub_millisecond_timings(self):
        committed = {"tiny_seconds": 0.0002}
        fresh = {"tiny_seconds": 0.0009}  # 4.5x "slower" — pure noise
        rows, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.30
        )
        assert not rows and not regressions

    def test_trace_phases_use_higher_noise_floor(self):
        # 20 ms is above the 1 ms headline floor but below the
        # trace-phase floor: skipped only inside a trace_phases block.
        committed = {
            "trace_phases": {"trials": 1, "engine_run_seconds": 0.02},
            "engine_run_seconds": 0.02,
        }
        fresh = {
            "trace_phases": {"trials": 1, "engine_run_seconds": 0.04},
            "engine_run_seconds": 0.04,
        }
        rows, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.30
        )
        assert [r["path"] for r in rows] == ["engine_run_seconds"]
        assert [r["path"] for r in regressions] == ["engine_run_seconds"]

    def test_trace_phases_get_tolerance_slack(self):
        committed = {"trace_phases": {"trials": 1, "draw_seconds": 1.0}}
        # 50% slower: beyond the base 30% tolerance but inside the
        # doubled (60%) trace-phase tolerance.
        fresh_ok = {"trace_phases": {"trials": 1, "draw_seconds": 1.5}}
        _, regressions = bench_compare.compare_payloads(
            committed, fresh_ok, tolerance=0.30
        )
        assert not regressions
        fresh_bad = {"trace_phases": {"trials": 1, "draw_seconds": 1.7}}
        _, regressions = bench_compare.compare_payloads(
            committed, fresh_bad, tolerance=0.30
        )
        assert [r["path"] for r in regressions] == [
            "trace_phases.draw_seconds"
        ]


class TestCli:
    #: The one pair the CLI tests compare; every other registered pair
    #: points at a missing committed file, so its bench script never runs.
    SYNTHETIC = "trials"
    SCHEMA = "bench_trials/v1"

    def _run(self, tmp_path, committed, fresh, extra=()):
        committed_path = tmp_path / "committed.json"
        fresh_path = tmp_path / "fresh.json"
        for path, payload in ((committed_path, committed),
                              (fresh_path, fresh)):
            path.write_text(json.dumps({"schema": self.SCHEMA, **payload}))
        missing = tmp_path / "missing.json"
        argv = []
        for label, *_ in bench_compare.BENCHES:
            if label == self.SYNTHETIC:
                argv += [f"--committed-{label}", str(committed_path),
                         f"--fresh-{label}", str(fresh_path)]
            else:
                argv += [f"--committed-{label}", str(missing),
                         f"--fresh-{label}", str(missing)]
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench_compare.py"),
             *argv, *extra],
            capture_output=True,
            text=True,
            timeout=60,
        )
        # No bench script started: every other pair was skipped, and only
        # the synthetic pair was compared.
        for label, *_ in bench_compare.BENCHES:
            if label != self.SYNTHETIC:
                assert f"[{label}] no committed payload" in result.stdout
        assert result.stdout.count("shared *_seconds fields") == 1
        return result

    def test_passes_within_tolerance(self, tmp_path):
        result = self._run(
            tmp_path,
            {"trials": 10, "warm_seconds": 1.0},
            {"trials": 10, "warm_seconds": 1.1},
        )
        assert result.returncode == 0, result.stderr
        assert "0 regression(s)" in result.stdout

    def test_fails_on_regression(self, tmp_path):
        result = self._run(
            tmp_path,
            {"trials": 10, "warm_seconds": 1.0},
            {"trials": 10, "warm_seconds": 2.0},
        )
        assert result.returncode == 1
        assert "REGRESSED" in result.stdout
        assert "regression beyond tolerance" in result.stderr

    def test_tolerance_flag(self, tmp_path):
        result = self._run(
            tmp_path,
            {"trials": 10, "warm_seconds": 1.0},
            {"trials": 10, "warm_seconds": 2.0},
            extra=("--tolerance", "1.5"),
        )
        assert result.returncode == 0, result.stdout

    def test_registry_schemas_match_committed_payloads(self):
        for label, _, committed, schema in bench_compare.BENCHES:
            payload = json.loads((ROOT / committed).read_text())
            assert payload["schema"] == schema, label

    def test_fails_on_schema_mismatch(self, tmp_path):
        """A trials payload passed as the fresh SMP run shares no
        ``*_seconds`` field with BENCH_smp.json; it must fail on its
        schema instead of passing with nothing compared."""
        missing = tmp_path / "missing.json"
        argv = []
        for label, *_ in bench_compare.BENCHES:
            if label != "smp":
                argv += [f"--committed-{label}", str(missing),
                         f"--fresh-{label}", str(missing)]
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "bench_compare.py"),
             *argv, "--committed-smp", str(ROOT / "BENCH_smp.json"),
             "--fresh-smp", str(ROOT / "BENCH_trials.json")],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1, result.stdout
        assert "[smp]" in result.stderr
        assert "'bench_trials/v1'" in result.stderr
        assert "'bench_smp/v1'" in result.stderr


class TestRobustnessIngestion:
    """The gate understands the ``bench_robustness/v2`` point layout."""

    @staticmethod
    def _point(trials, fast_seconds, engine_trials, engine_seconds):
        return {
            "trials": trials,
            "fast": {
                "trials": trials,
                "replay_seconds": fast_seconds,
                "ms_per_trial": 1000.0 * fast_seconds / trials,
            },
            "engine": {
                "trials": engine_trials,
                "runs_seconds": engine_seconds,
                "ms_per_trial": 1000.0 * engine_seconds / engine_trials,
            },
        }

    def test_route_timings_scale_by_their_own_trials(self):
        payload = {
            "schema": "bench_robustness/v2",
            "points": {"star": {"d0.05_c0.00": self._point(25, 0.05, 5, 1.0)}},
        }
        fields = bench_compare.collect_seconds(payload)
        # The replay amortises over all 25 trials, the engine route over
        # its 5-trial cross-check subset.
        assert fields[
            "points.star.d0.05_c0.00.fast.replay_seconds"
        ] == (0.05, 25.0)
        assert fields[
            "points.star.d0.05_c0.00.engine.runs_seconds"
        ] == (1.0, 5.0)

    def test_full_vs_smoke_trial_counts_compare_clean(self):
        committed = {
            "points": {"star": {"d0.05_c0.00": self._point(25, 0.05, 5, 1.0)}}
        }
        fresh = {  # smoke: 2 trials, 1 engine-checked — same per-trial cost
            "points": {"star": {"d0.05_c0.00": self._point(2, 0.004, 1, 0.2)}}
        }
        rows, regressions = bench_compare.compare_payloads(
            committed, fresh, tolerance=0.30
        )
        assert len(rows) == 2 and not regressions
        assert all(r["ratio"] == pytest.approx(1.0) for r in rows)

    def test_committed_robustness_payload_ingests(self):
        committed = ROOT / "BENCH_robustness.json"
        fields = bench_compare.collect_seconds(
            json.loads(committed.read_text())
        )
        # Dot-anchored: the trace_phases block has its own flattened
        # *_replay_seconds field that is not a per-point timing.
        replay_fields = [p for p in fields if p.endswith(".replay_seconds")]
        engine_fields = [p for p in fields if p.endswith(".runs_seconds")]
        assert len(replay_fields) == 24  # 3 topologies x 8 grid points
        assert len(engine_fields) == 24
        assert any(p.startswith("trace_phases.") for p in fields)
