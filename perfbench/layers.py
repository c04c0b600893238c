"""The traced run: layer spans, the span table and per-layer metrics.

The program already records spans for the engine (``engine.run`` and one
``engine.phase.<name>`` per protocol phase), the trial, fault, LOCAL and
SMP planes, the trial runner and the robustness sweep.  :func:`instrumented`
adds ``bench.<layer>.*`` spans, from this directory, around the public
entry points of the layers that have none: sampling, the fault RNG, the
collision kernels, the parameter solvers, the runner builds and seed
derivation.  Nothing under ``src/`` changes.

:class:`SpanTable` folds span events into per-name totals as they arrive:
count, inclusive seconds, self seconds (the span's time minus the time
its child spans cover) and summed counters.  :func:`per_layer_metrics`
turns the tables of the traced set-up and the traced calls into the
metrics listed in :data:`PER_LAYER`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import telemetry


def _count_size(span, args, kwargs) -> None:
    span.count("samples", int(kwargs["size"] if "size" in kwargs else args[1]))


def _count_elements(span, args, kwargs) -> None:
    span.count("elements", int(args[0].size))


#: ``(module, attribute path, span name, counter)``.  The counter, if any,
#: reads the call's arguments.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.distributions.base", "DiscreteDistribution.sample",
     "bench.distributions.sample", _count_size),
    ("repro.distributions.base", "DiscreteDistribution.sample_uniform",
     "bench.distributions.sample_uniform", _count_size),
    ("repro.simulator.faults", "mix64_array", "bench.simulator.fault_rng", None),
    ("repro.simulator.faults", "uniform_array", "bench.simulator.fault_rng", None),
    ("repro.zeroround.network", "_last_axis_has_collision",
     "bench.zeroround.collision", _count_elements),
    ("repro.zeroround.network", "grouped_collision_flags",
     "bench.zeroround.grouped_collision", None),
    ("repro.zeroround.network", "threshold_verdicts", "bench.zeroround.verdicts", None),
    ("repro.zeroround.network", "and_rule_verdicts", "bench.zeroround.verdicts", None),
    ("repro.zeroround.network", "ZeroRoundNetwork.run_many",
     "bench.zeroround.verdicts", None),
    ("repro.core.params", "threshold_parameters", "bench.core.solve", None),
    ("repro.core.params", "and_rule_parameters", "bench.core.solve", None),
    ("repro.congest.tester", "congest_parameters", "bench.core.solve", None),
    ("repro.congest.tester", "CongestUniformityTester.run", "bench.congest.run", None),
    ("repro.congest.trial_plane", "CongestTrialRunner.build",
     "bench.congest.layout", None),
    ("repro.congest.trial_plane", "CongestTrialRunner.run_flags",
     "bench.congest.trial_plane", None),
    ("repro.localmodel.local_plane", "LocalTrialRunner.build",
     "bench.localmodel.layout", None),
    ("repro.localmodel.local_plane", "LocalTrialRunner.run_flags",
     "bench.localmodel.plane", None),
    ("repro.rng", "derive", "bench.rng.derive", None),
    ("repro.rng", "derive_many", "bench.rng.derive", None),
)

#: Span-name prefix -> layer (module of ``src/repro``).  Spans matching no
#: prefix (the benchmark's own ``bench.call``) are ``unattributed``: code
#: of the call that runs inside no instrumented entry point.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("engine.", "simulator"),
    ("bench.simulator.", "simulator"),
    ("trial_plane.", "congest"),
    ("fault_plane.", "congest"),
    ("bench.congest.", "congest"),
    ("bench.distributions.", "distributions"),
    ("bench.zeroround.", "zeroround"),
    ("bench.core.", "core"),
    ("local_plane.", "localmodel"),
    ("bench.localmodel.", "localmodel"),
    ("smp_plane.", "smp"),
    ("trials.", "experiments"),
    ("robustness.", "experiments"),
    ("bench.rng.", "rng"),
)
LAYERS = (
    "simulator", "congest", "distributions", "zeroround", "core",
    "localmodel", "smp", "experiments", "rng", "unattributed",
)


def layer_of(span_name: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return "unattributed"


def _spanned(fn: Callable, name: str, counter: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with telemetry.span(name) as span:
            if counter is not None:
                counter(span, args, kwargs)
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def instrumented() -> Iterator[None]:
    """Wrap every :data:`ENTRY_POINTS` entry in a span; undo on exit.

    A module-level function is replaced in every loaded ``repro`` module
    that bound it with ``from … import``; a method is replaced on its
    class, keeping ``staticmethod`` wrappers.
    """
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, path, span_name, counter in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(_spanned(raw.__func__, span_name, counter))
                else:
                    new = _spanned(raw, span_name, counter)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(owner, path)
            new = _spanned(original, span_name, counter)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", {})
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and namespace.get(path) is original
                ):
                    undo.append((module, path, original))
                    setattr(module, path, new)
        yield
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)


class SpanTable:
    """Per-name span totals, folded in as events arrive.

    A span's event is emitted when it closes, after those of its
    children, so each span's self time is known when its event arrives.
    """

    def __init__(self) -> None:
        self.rows: Dict[str, Dict[str, Any]] = {}
        self._children: Dict[int, float] = {}

    def add(self, events: Iterable[Dict[str, Any]]) -> None:
        for event in events:
            if event.get("event") != "span":
                continue
            seconds = event["seconds"]
            row = self.rows.setdefault(
                event["name"],
                {"count": 0, "seconds": 0.0, "self_seconds": 0.0, "counters": {}},
            )
            row["count"] += 1
            row["seconds"] += seconds
            row["self_seconds"] += seconds - self._children.pop(event["id"], 0.0)
            for key, value in event["counters"].items():
                row["counters"][key] = row["counters"].get(key, 0) + value
            parent = event["parent"]
            if parent is not None:
                self._children[parent] = self._children.get(parent, 0.0) + seconds

    def drain(self, tracer: telemetry.Tracer) -> None:
        """Fold in and drop the tracer's events, keeping memory flat."""
        self.add(tracer.events)
        tracer.events.clear()

    def seconds(self, *names: str) -> float:
        return sum(self.rows[n]["seconds"] for n in names if n in self.rows)

    def self_seconds(self, *names: str) -> float:
        return sum(self.rows[n]["self_seconds"] for n in names if n in self.rows)

    def count(self, name: str) -> int:
        return self.rows[name]["count"] if name in self.rows else 0

    def counter(self, key: str, *names: str) -> float:
        return sum(
            self.rows[n]["counters"].get(key, 0) for n in names if n in self.rows
        )

    def layer_self_seconds(self) -> Dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, row in self.rows.items():
            out[layer_of(name)] += row["self_seconds"]
        return out


#: Every per-layer metric the traced run prints, with its unit.  Times and
#: counts are per timed call, except the three set-up metrics, which are
#: per set-up.  ``share.<layer>`` is the layer's self time over the traced
#: calls' wall time.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("simulator.run_s", "s"),
    ("simulator.messages", "count"),
    ("simulator.rounds", "count"),
    ("simulator.us_per_message", "us"),
    ("simulator.phase.flood_s", "s"),
    ("simulator.phase.claim_count_s", "s"),
    ("simulator.phase.tokens_s", "s"),
    ("simulator.phase.vote_decide_s", "s"),
    ("simulator.fault_rng_s", "s"),
    ("congest.trial_plane.draw_s", "s"),
    ("congest.trial_plane.verdict_s", "s"),
    ("congest.layout_s", "s"),
    ("congest.fault_plane.build_s", "s"),
    ("congest.fault_plane.flood_s", "s"),
    ("congest.fault_plane.score_s", "s"),
    ("distributions.sample_s", "s"),
    ("distributions.samples", "count"),
    ("distributions.ns_per_sample", "ns"),
    ("zeroround.collision_s", "s"),
    ("zeroround.collision_elements", "count"),
    ("zeroround.verdicts_s", "s"),
    ("core.solve_s", "s"),
    ("localmodel.layout_s", "s"),
    ("localmodel.plane_s", "s"),
    ("smp.encode_s", "s"),
    ("smp.draw_s", "s"),
    ("smp.verdict_s", "s"),
    ("experiments.runner.chunks", "count"),
    ("experiments.runner.self_s", "s"),
    ("experiments.robustness.points", "count"),
    ("rng.derive_s", "s"),
    ("telemetry.overhead_frac", "frac"),
) + tuple((f"share.{layer}", "frac") for layer in LAYERS)


def per_layer_metrics(
    setup: SpanTable,
    calls: SpanTable,
    n_calls: int,
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` value, from the two span tables.

    Phase metrics (``*.draw_s``, ``*.verdict_s``, ``simulator.phase.*``,
    ``congest.fault_plane.*``, ``smp.*``, ``simulator.run_s``) are
    inclusive span times.  Layer totals (``distributions.sample_s``,
    ``zeroround.*_s``, ``localmodel.*_s``, ``experiments.runner.self_s``,
    ``rng.derive_s``, ``simulator.fault_rng_s``, ``core.solve_s``) are
    self times, so no second counts twice.
    """
    per = 1.0 / n_calls
    run_s = calls.seconds("engine.run")
    messages = calls.counter("messages", "engine.run")
    sample_s = calls.self_seconds(
        "bench.distributions.sample", "bench.distributions.sample_uniform"
    )
    samples = calls.counter(
        "samples", "bench.distributions.sample", "bench.distributions.sample_uniform"
    )
    values = {
        "simulator.run_s": run_s * per,
        "simulator.messages": messages * per,
        "simulator.rounds": calls.counter("rounds", "engine.run") * per,
        "simulator.us_per_message": 1e6 * run_s / messages if messages else 0.0,
        "simulator.fault_rng_s": calls.self_seconds("bench.simulator.fault_rng") * per,
        "congest.trial_plane.draw_s": calls.seconds("trial_plane.draw") * per,
        "congest.trial_plane.verdict_s": calls.seconds("trial_plane.verdict") * per,
        "congest.layout_s": setup.seconds("bench.congest.layout"),
        "congest.fault_plane.build_s": calls.seconds("fault_plane.build") * per,
        "congest.fault_plane.flood_s": calls.seconds("fault_plane.flood") * per,
        "congest.fault_plane.score_s": calls.seconds("fault_plane.score") * per,
        "distributions.sample_s": sample_s * per,
        "distributions.samples": samples * per,
        "distributions.ns_per_sample": 1e9 * sample_s / samples if samples else 0.0,
        "zeroround.collision_s": calls.self_seconds(
            "bench.zeroround.collision", "bench.zeroround.grouped_collision"
        ) * per,
        "zeroround.collision_elements": calls.counter(
            "elements", "bench.zeroround.collision"
        ) * per,
        "zeroround.verdicts_s": calls.self_seconds("bench.zeroround.verdicts") * per,
        "core.solve_s": setup.self_seconds("bench.core.solve"),
        "localmodel.layout_s": setup.self_seconds(
            "bench.localmodel.layout", "local_plane.layout"
        ),
        "localmodel.plane_s": calls.self_seconds(
            "bench.localmodel.plane", "local_plane.draw", "local_plane.verdict"
        ) * per,
        "smp.encode_s": calls.seconds("smp_plane.encode") * per,
        "smp.draw_s": calls.seconds("smp_plane.draw") * per,
        "smp.verdict_s": calls.seconds("smp_plane.verdict") * per,
        "experiments.runner.chunks": calls.count("trials.chunk") * per,
        "experiments.runner.self_s": calls.self_seconds("trials.run", "trials.chunk") * per,
        "experiments.robustness.points": calls.count("robustness.point") * per,
        "rng.derive_s": calls.self_seconds("bench.rng.derive") * per,
        "telemetry.overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for phase in ("flood", "claim_count", "tokens", "vote_decide"):
        values[f"simulator.phase.{phase}_s"] = calls.seconds(f"engine.phase.{phase}") * per
    layer_seconds = calls.layer_self_seconds()
    # The call loop outside the ``bench.call`` spans is the benchmark's.
    layer_seconds["unattributed"] += traced_wall - calls.seconds("bench.call")
    for layer, seconds in layer_seconds.items():
        values[f"share.{layer}"] = seconds / traced_wall
    return {name: float(values[name]) for name, _ in PER_LAYER}
