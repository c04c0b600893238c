"""Run one workload of the repo benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload's public calls with tracing off for
``--seconds`` seconds (whole cycles of calls), then checks every result
with the workload's oracle outside the timed region.  It prints the
end-to-end metrics: ``trials_per_s``, ``call_s_p50``, ``call_s_tail``,
``setup_s`` and ``peak_rss_mb``.

``--trace 1`` is the separate traced run.  It sets up under tracing,
runs about ``--seconds / 2`` of calls untraced, replays the same calls
with ``repro.telemetry`` tracing on and the benchmark's own layer spans
installed, checks that both passes give bit-identical results, and
prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the host fingerprint, the workload's seed and reason, the tail
percentile with its call count, and ``failed_frac``.  The program comes
from ``src/`` of the same checkout; without it the script exits with
status 2 and prints no result.
"""

import time

import hostspeed

_PROBES = {name: p.measure(repeats=3) for name, p in hostspeed.PROBES.items()}
_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Cold set-ups per timed run: this process's own plus fresh interpreters
#: running ``setup_once.py``; ``setup_s`` is their median.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120
#: ``call_s_tail`` leaves this many calls above it.
TAIL_BEYOND = 10

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("call_s_p50", "s"),
    ("call_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0, got {args.seconds}")
    return args


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def cold_setup_seconds(workload, seed: int):
    """``(seconds, probe seconds)`` of one cold set-up in a fresh
    interpreter, waited for."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload.name, str(seed),
         workload.probe.name],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    seconds, probe = done.stdout.split()[-2:]
    return float(seconds), float(probe)


class Record:
    """One executed call: its result (or error), wall time and the host
    speed probe taken just before it."""

    __slots__ = ("call", "result", "error", "seconds", "probe")

    def __init__(self, call, result, error, seconds, probe=None):
        self.call = call
        self.result = result
        self.error = error
        self.seconds = seconds
        self.probe = probe


def execute(call, wrap=None, probe=None) -> Record:
    start = time.perf_counter()
    try:
        if wrap is None:
            result = call.run()
        else:
            with wrap(call):
                result = call.run()
    except Exception as exc:  # a failed call is counted, not fatal
        return Record(call, None, exc, time.perf_counter() - start, probe)
    return Record(call, result, None, time.perf_counter() - start, probe)


def run_for(state, probe, seconds: float):
    """Whole cycles of calls, each after a host speed probe, until
    ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    index = 0
    while not records or time.perf_counter() - start < seconds:
        for _ in range(len(state.cycle)):
            call = state.call(index)
            records.append(execute(call, probe=probe.measure()))
            index += 1
    return records


def passes(record) -> bool:
    """The oracle's verdict on one record; errors count as failures."""
    if record.error is not None:
        print(f"call {record.call.label} raised {record.error!r}", file=sys.stderr)
        return False
    try:
        ok = bool(record.call.check(record.result))
    except Exception as exc:
        print(f"oracle for {record.call.label} raised {exc!r}", file=sys.stderr)
        return False
    if not ok:
        print(f"oracle rejected call {record.call.label}", file=sys.stderr)
    return ok


def tail(durations):
    """``(percentile, seconds, calls beyond)`` of the highest percentile
    that leaves ``TAIL_BEYOND`` calls above it: the 11th-slowest call.

    With ``TAIL_BEYOND`` calls or fewer, the slowest call is reported as
    the 100th percentile.
    """
    ordered = sorted(durations)
    if len(ordered) <= TAIL_BEYOND:
        return 100.0, ordered[-1], 0
    rank = len(ordered) - TAIL_BEYOND
    return 100.0 * rank / len(ordered), ordered[rank - 1], TAIL_BEYOND


def timed_run(args, workload, state, setup_s):
    probe = workload.probe
    setups = [(setup_s, _PROBES[probe.name])] + [
        cold_setup_seconds(workload, args.seed) for _ in range(SETUP_RUNS - 1)
    ]
    records = run_for(state, probe, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not passes(r) for r in records)
    trials = sum(r.call.trials for r in records)
    raw = [r.seconds for r in records]
    probes = [r.probe for r in records]
    scaled = probe.scale(raw, probes)
    q, tail_s, beyond = tail(scaled)
    setup_raw, setup_probes = zip(*setups)
    by_label = {}
    for record, seconds in zip(records, scaled):
        by_label.setdefault(record.call.label, []).append(seconds)
    metrics = {
        "trials_per_s": trials / sum(scaled),
        "call_s_p50": statistics.median(scaled),
        "call_s_tail": tail_s,
        "setup_s": statistics.median(probe.scale(setup_raw, setup_probes)),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "calls": len(records),
        "cycles": len(records) // len(state.cycle),
        "tail_percentile": q,
        "tail_calls_beyond": beyond,
        "probe": probe.name,
        "probe_s_median": statistics.median(probes),
        "unscaled": {
            "trials_per_s": trials / sum(raw),
            "call_s_p50": statistics.median(raw),
            "call_s_tail": tail(raw)[1],
            "setup_s": statistics.median(setup_raw),
        },
        "call_s_p50_by_label": {
            label: statistics.median(times) for label, times in by_label.items()
        },
        "setup_runs_s": setup_raw,
        "setup_probes_s": setup_probes,
    }
    return metrics, dict(END_TO_END), len(records), failed, details


def traced_run(args, workload):
    import layers
    from repro import telemetry

    tracer = telemetry.Tracer()
    setup_table = layers.SpanTable()
    # The process's only set-up, so the solver caches start cold.
    with layers.instrumented(), telemetry.tracing(tracer):
        state = workload.build(args.seed)
    setup_table.drain(tracer)

    def call_span(call):
        return telemetry.span("bench.call", label=call.label)

    def traced_call(index):
        with layers.instrumented(), telemetry.tracing(tracer):
            record = execute(state.call(index), wrap=call_span)
        calls_table.drain(tracer)
        return record

    # Every call runs untraced and traced, alternating which runs first,
    # so both passes see the same warm-up and the same host noise.
    calls_table = layers.SpanTable()
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while not traced or time.perf_counter() - start < args.seconds:
        for _ in range(len(state.cycle)):
            if index % 2:
                traced.append(traced_call(index))
            untraced.append(execute(state.call(index)))
            if not index % 2:
                traced.append(traced_call(index))
            index += 1

    failed = 0
    for plain, spanned in zip(untraced, traced):
        ok = passes(plain)
        if spanned.error is not None or (
            ok and not plain.call.same(plain.result, spanned.result)
        ):
            print(f"traced call {plain.call.label} differs from the untraced run",
                  file=sys.stderr)
            ok = False
        failed += not ok

    untraced_wall = sum(r.seconds for r in untraced)
    traced_wall = sum(r.seconds for r in traced)
    metrics = layers.per_layer_metrics(
        setup_table, calls_table, len(traced), traced_wall, untraced_wall
    )
    details = {
        "calls": len(traced),
        "cycles": len(traced) // len(state.cycle),
        "untraced_calls_s": untraced_wall,
        "traced_calls_s": traced_wall,
        "span_table": {"setup": setup_table.rows, "calls": calls_table.rows},
    }
    return metrics, dict(layers.PER_LAYER), len(traced), failed, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro
    import workloads

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if args.trace:
        metrics, units, attempted, failed, details = traced_run(args, workload)
    else:
        state = workload.build(args.seed)
        setup_s = time.perf_counter() - _START
        metrics, units, attempted, failed, details = timed_run(
            args, workload, state, setup_s
        )

    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_fingerprint(),
        "failed_frac": {"value": failed / attempted, "unit": "frac"},
        **details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
