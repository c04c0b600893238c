"""Regression gate: diff a fresh benchmark run against committed numbers.

Collects every ``*_seconds`` field from the committed payload of each
benchmark in :data:`BENCHES` (``BENCH_trials.json``,
``BENCH_protocol.json``, ``BENCH_robustness.json``, ``BENCH_smp.json``)
and from a freshly generated run of the same benchmarks, normalises each
timing by the trial/repeat count in scope (so a ``--smoke`` run is
comparable to the committed full run), and fails when any shared field
got slower by more than the tolerance.  A committed or fresh payload
whose ``schema`` is not the one :data:`BENCHES` declares for its label
fails the gate outright, so a mislabelled file cannot pass by sharing
no fields.

Speedups and *new* fields never fail the gate — only a recorded timing
regressing does.  Timings whose committed and fresh totals are both under
a millisecond are skipped as pure noise.  The telemetry-derived
``trace_phases`` blocks (single traced runs, see ``docs/observability.md``)
compare under a higher noise floor and doubled tolerance.

Usage::

    PYTHONPATH=src python tools/bench_compare.py             # full rerun
    PYTHONPATH=src python tools/bench_compare.py --smoke     # CI gate
    PYTHONPATH=src python tools/bench_compare.py --smoke \\
        --fresh-trials /tmp/bench_trials.json \\
        --fresh-protocol /tmp/bench_protocol.json            # reuse runs

Exits 1 with a per-field report if any regression exceeds the tolerance
(default 0.30 = 30% slower; ``--smoke`` defaults to 3.0, since smoke
runs on shared CI hardware are an order-of-magnitude noisier).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Every gated benchmark: ``(label, script under tools/, committed payload
#: under the repo root, payload schema)``.  ``main`` builds the
#: ``--committed-<label>`` and ``--fresh-<label>`` flags from it, refuses a
#: payload whose ``schema`` differs, and compares the pairs in this order.
BENCHES = (
    ("trials", "bench_perf.py", "BENCH_trials.json", "bench_trials/v1"),
    ("protocol", "bench_protocol.py", "BENCH_protocol.json",
     "bench_protocol/v1"),
    ("robustness", "bench_robustness.py", "BENCH_robustness.json",
     "bench_robustness/v2"),
    ("smp", "bench_smp.py", "BENCH_smp.json", "bench_smp/v1"),
)

#: Paths where both runs spent less than this many seconds are skipped —
#: sub-millisecond timer noise, not a measurable regression.
NOISE_FLOOR_SECONDS = 1e-3

#: ``trace_phases`` blocks hold per-phase wall times from a *single*
#: traced run (see the ``trace_phase_breakdown`` helpers in the bench
#: scripts), so they are an order of magnitude noisier than the
#: best-of-N headline timings: a higher floor and extra tolerance slack
#: keep the gate on real phase-level regressions only.  The headline
#: (untraced) ``*_seconds`` fields keep the tight gate — which is what
#: pins the tracing-off overhead of the instrumentation to the noise
#: floor.
TRACE_PHASES_KEY = "trace_phases"
TRACE_NOISE_FLOOR_SECONDS = 5e-2
TRACE_TOLERANCE_SLACK = 2.0


def collect_seconds(
    payload: object, scale: Optional[float] = None, prefix: str = ""
) -> Dict[str, Tuple[float, float]]:
    """Flatten a bench payload to ``{dotted.path: (seconds, scale)}``.

    ``scale`` is the trial/repeat count the timing amortises over: the
    nearest enclosing dict's ``trials``/``repeats`` field (looking
    through a ``workload`` sub-dict, where ``bench_perf`` keeps it),
    inherited downward.  Timings with no count in scope get scale 1 —
    they time a single run and compare raw.
    """
    out: Dict[str, Tuple[float, float]] = {}
    if isinstance(payload, dict):
        own = payload.get("trials") or payload.get("repeats")
        if own is None and isinstance(payload.get("workload"), dict):
            workload = payload["workload"]
            own = workload.get("trials") or workload.get("repeats")
        if isinstance(own, (int, float)) and own > 0:
            scale = float(own)
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, (dict, list)):
                out.update(collect_seconds(value, scale, path))
            elif key.endswith("_seconds") and isinstance(value, (int, float)):
                out[path] = (float(value), scale if scale else 1.0)
    elif isinstance(payload, list):
        for index, value in enumerate(payload):
            out.update(collect_seconds(value, scale, f"{prefix}[{index}]"))
    return out


def compare_payloads(
    committed: object, fresh: object, tolerance: float
) -> Tuple[List[dict], List[dict]]:
    """Diff two bench payloads; returns ``(rows, regressions)``.

    Each row describes one ``*_seconds`` field present in both payloads:
    per-unit committed/fresh timings, the slowdown ratio, and whether it
    breaches the tolerance (``regressions`` is the breaching subset).
    """
    committed_fields = collect_seconds(committed)
    fresh_fields = collect_seconds(fresh)
    rows: List[dict] = []
    regressions: List[dict] = []
    for path in sorted(set(committed_fields) & set(fresh_fields)):
        committed_total, committed_scale = committed_fields[path]
        fresh_total, fresh_scale = fresh_fields[path]
        is_trace = TRACE_PHASES_KEY in path.split(".")
        floor = TRACE_NOISE_FLOOR_SECONDS if is_trace else NOISE_FLOOR_SECONDS
        path_tolerance = (
            tolerance * TRACE_TOLERANCE_SLACK if is_trace else tolerance
        )
        if committed_total < floor and fresh_total < floor:
            continue
        committed_unit = committed_total / committed_scale
        fresh_unit = fresh_total / fresh_scale
        ratio = (
            fresh_unit / committed_unit
            if committed_unit > 0
            else float("inf")
        )
        row = {
            "path": path,
            "committed_unit_seconds": committed_unit,
            "fresh_unit_seconds": fresh_unit,
            "ratio": ratio,
            "regressed": ratio > 1.0 + path_tolerance,
        }
        rows.append(row)
        if row["regressed"]:
            regressions.append(row)
    return rows, regressions


def _run_bench(script: str, smoke: bool, out: pathlib.Path) -> None:
    cmd = [sys.executable, str(ROOT / "tools" / script), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    env_path = str(ROOT / "src")
    subprocess.run(
        cmd,
        check=True,
        env={**__import__("os").environ, "PYTHONPATH": env_path},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmarks in smoke mode and loosen "
                             "the default tolerance for CI noise")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="fail on any *_seconds field slower by more "
                             "than this fraction (default 0.30; 3.0 with "
                             "--smoke)")
    for label, script, committed, _ in BENCHES:
        parser.add_argument(f"--fresh-{label}", type=pathlib.Path,
                            default=None,
                            help=f"fresh {script} payload; reused if it "
                                 f"exists, generated there otherwise")
        parser.add_argument(f"--committed-{label}", type=pathlib.Path,
                            default=ROOT / committed)
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = 3.0 if args.smoke else 0.30
    if tolerance < 0:
        parser.error(f"--tolerance must be >= 0, got {tolerance}")

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        for label, script, _, schema in BENCHES:
            committed_path = getattr(args, f"committed_{label}")
            fresh_path = getattr(args, f"fresh_{label}")
            if not committed_path.exists():
                print(f"[{label}] no committed payload at {committed_path}; "
                      f"skipping")
                continue
            if fresh_path is None:
                fresh_path = pathlib.Path(tmp) / f"fresh_{label}.json"
            if not fresh_path.exists():
                _run_bench(script, args.smoke, fresh_path)
            committed = json.loads(committed_path.read_text())
            fresh = json.loads(fresh_path.read_text())
            for kind, payload in (("committed", committed),
                                  ("fresh", fresh)):
                found = (payload.get("schema")
                         if isinstance(payload, dict) else None)
                if found != schema:
                    print(f"ERROR: [{label}] {kind} payload has schema "
                          f"{found!r}, expected {schema!r}",
                          file=sys.stderr)
                    return 1
            pairs.append((label, committed, fresh))

    failed = False
    for label, committed, fresh in pairs:
        rows, regressions = compare_payloads(committed, fresh, tolerance)
        print(f"[{label}] {len(rows)} shared *_seconds fields, "
              f"{len(regressions)} regression(s) at tolerance "
              f"{tolerance:.0%}")
        for row in rows:
            marker = "REGRESSED" if row["regressed"] else "ok"
            print(f"  {row['path']:<45} "
                  f"{row['committed_unit_seconds'] * 1000:10.3f} ms -> "
                  f"{row['fresh_unit_seconds'] * 1000:10.3f} ms/unit  "
                  f"[{row['ratio']:.2f}x] {marker}")
        if regressions:
            failed = True
    if failed:
        print("ERROR: benchmark regression beyond tolerance", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
