"""Time the trial engine's serial and batched paths.

Runs an E1-style collision workload (the paper's single-collision gap
tester at n=20 000, delta=0.05) through two bit-identical routes:

- **serial**    — ``TrialRunner.run_flags`` with the scalar per-trial
  experiment (one ``distribution.sample(s)`` call per trial);
- **batched**   — ``TrialRunner.run_flags_batched`` with the vectorised
  kernel (one ``(m, s)`` sample matrix per call).

Because every chunk of ``TRIAL_CHUNK`` trials re-derives its generator
from ``(base_seed, *labels, chunk_index)``, both must produce the same
flag array bit for bit — the script verifies this (and invariance to the
``batch`` knob) before reporting timings, and records the verdict in the
output JSON.

Also micro-benchmarks ``has_collision``'s small-batch set fast path
against the sort-based path it replaced.

Usage::

    PYTHONPATH=src python tools/bench_perf.py            # full run, 20k+ trials
    PYTHONPATH=src python tools/bench_perf.py --smoke    # <30 s sanity run
    PYTHONPATH=src python tools/bench_perf.py --trials 50000

Writes ``BENCH_trials.json`` (override with ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core import CollisionGapTester  # noqa: E402
from repro.core.collision import _SET_SCAN_CUTOFF  # noqa: E402
from repro.distributions import uniform  # noqa: E402
from repro.experiments import TRIAL_CHUNK, TrialRunner  # noqa: E402
from repro.telemetry import Tracer, span_seconds_fields, tracing  # noqa: E402
from repro.zeroround import CollisionTrialKernel, ScalarCollisionTrial  # noqa: E402

N = 20_000
DELTA = 0.05
BASE_SEED = 2018  # PODC year; any fixed value works

#: Fixed traced workload for the ``trace_phases`` payload block — the
#: same size in smoke and full runs so the raw timings stay comparable
#: across the two (bench_compare diffs them without a trial scale), and
#: large enough (~100 ms batched) to clear the gate's trace noise floor.
TRACE_TRIALS = 16_384


def trace_phase_breakdown(runner, kernel, labels, batch) -> dict:
    """One traced batched run, aggregated to ``*_seconds`` phase fields.

    The main timings above run untraced (so the committed numbers keep
    gating the tracing-off overhead); this single extra run is where the
    per-phase wall-time split in the payload comes from.
    """
    with tracing(Tracer()) as tracer:
        runner.run_flags_batched(kernel, TRACE_TRIALS, *labels, batch=batch)
    return {"trials": 1, **span_seconds_fields(tracer.events)}


def _time(fn, repeats: int = 1):
    """Best-of-``repeats`` wall time and the (last) return value."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def bench_has_collision(s: int, reps: int) -> dict:
    """Micro-benchmark ``has_collision`` against the old ``np.unique`` path.

    The current implementation picks a hash-set scan (early exit) below
    ``_SET_SCAN_CUTOFF`` and a sort+diff scan above; both replace the
    previous ``np.unique(arr).size != arr.size``, which pays for
    unique-value extraction the predicate never needed.
    """
    from repro.core.collision import has_collision

    rng = np.random.default_rng(0)
    sizes = sorted({8, _SET_SCAN_CUTOFF, s})
    rows = []
    for size in sizes:
        batches = [rng.integers(0, N, size=size) for _ in range(256)]

        def current():
            for arr in batches:
                has_collision(arr)

        def unique_path():
            for arr in batches:
                bool(np.unique(arr).size != arr.size)

        current(), unique_path()  # warm caches before timing
        t_cur, _ = _time(current, repeats=reps)
        t_old, _ = _time(unique_path, repeats=reps)
        per = 1e6 / len(batches)
        rows.append({
            "s": size,
            "current_us": round(t_cur * per, 3),
            "unique_path_us": round(t_old * per, 3),
            "speedup": round(t_old / t_cur, 2) if t_cur > 0 else None,
        })
    return {"set_scan_cutoff": _SET_SCAN_CUTOFF, "sizes": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trials", type=int, default=None,
                        help="Monte-Carlo trials (default 24000, smoke 2000)")
    parser.add_argument("--batch", type=int, default=TRIAL_CHUNK,
                        help=f"trials per vectorised call (default {TRIAL_CHUNK})")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (<30 s) for CI sanity checks")
    parser.add_argument("--out", type=pathlib.Path,
                        default=ROOT / "BENCH_trials.json",
                        help="output JSON path (default repo-root BENCH_trials.json)")
    args = parser.parse_args(argv)

    if args.trials is not None and args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if args.batch < 1:
        parser.error(f"--batch must be >= 1, got {args.batch}")

    trials = args.trials
    if trials is None:
        trials = 2_000 if args.smoke else 24_000

    tester = CollisionGapTester.from_delta(N, DELTA)
    dist = uniform(N)
    scalar = ScalarCollisionTrial(dist, tester.s)
    kernel = CollisionTrialKernel(dist, tester.s)
    runner = TrialRunner(base_seed=BASE_SEED)
    labels = ("bench", "e1", tester.s)

    print(f"workload: n={N} delta={DELTA} s={tester.s} trials={trials} "
          f"batch={args.batch} cpu_count={os.cpu_count()}")

    t_serial, flags_serial = _time(
        lambda: runner.run_flags(scalar, trials, *labels))
    print(f"serial   (scalar per-trial loop): {t_serial:8.3f} s")

    t_batched, flags_batched = _time(
        lambda: runner.run_flags_batched(kernel, trials, *labels,
                                         batch=args.batch))
    print(f"batched  (vectorised kernel)    : {t_batched:8.3f} s  "
          f"[{t_serial / t_batched:.1f}x]")

    # Reproducibility: both paths and any batch size give the same bits.
    odd_batch = max(1, args.batch // 3 + 1)
    flags_oddbatch = runner.run_flags_batched(kernel, trials, *labels,
                                              batch=odd_batch)
    bit_identical = {
        "serial_vs_batched": bool(np.array_equal(flags_serial, flags_batched)),
        "batch_invariance": bool(np.array_equal(flags_batched, flags_oddbatch)),
    }
    print(f"bit-identical: {bit_identical}")
    if not all(bit_identical.values()):
        print("ERROR: engine paths disagree — reproducibility contract broken",
              file=sys.stderr)
        return 1

    collision = bench_has_collision(tester.s, reps=1 if args.smoke else 3)
    for row in collision["sizes"]:
        print(f"has_collision s={row['s']:3d}: current {row['current_us']} us "
              f"vs np.unique {row['unique_path_us']} us [{row['speedup']}x]")

    rate = float(flags_serial.mean())
    payload = {
        "schema": "bench_trials/v1",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "workload": {
            "kind": "e1_collision_gap",
            "n": N,
            "delta": DELTA,
            "s": tester.s,
            "trials": trials,
            "rejection_rate": round(rate, 6),
        },
        "engine": {
            "base_seed": BASE_SEED,
            "trial_chunk": TRIAL_CHUNK,
            "batch": args.batch,
        },
        "serial_seconds": round(t_serial, 4),
        "batched_seconds": round(t_batched, 4),
        "speedup_batched": round(t_serial / t_batched, 2),
        "bit_identical": bit_identical,
        "has_collision_us": collision,
        "trace_phases": trace_phase_breakdown(
            runner, kernel, labels, args.batch
        ),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
