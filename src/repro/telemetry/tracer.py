"""The tracer: nested spans, counters, and JSONL trace emission.

A :class:`Tracer` turns one process-level run into a stream of *events*:

- one ``manifest`` event (:class:`RunManifest`) identifying the run —
  seed, solved parameters, topology, execution route, library versions —
  so a benchmark number can always be traced back to what produced it;
- ``manifest_update`` events merging late-bound facts (e.g. the solved
  ``τ`` only known after the parameter solver ran) into the manifest;
- one ``span`` event per completed :class:`Span` — name, wall-clock
  seconds, free-form attributes, and integer counters — with parent
  links forming the span tree that ``repro report`` renders.

Zero overhead when disabled
---------------------------
Instrumented code never checks a flag: it calls :func:`span` (or
:func:`record_span` / :func:`annotate`) unconditionally.  When no tracer
is active those return a shared :data:`NULL_SPAN` whose every method is
a no-op — the cost is one function call per *phase* (not per round or
per trial), which the bench regression gate pins to the noise floor.
Tracing never draws randomness and never branches the traced code, so
enabling it cannot change any computed result (the bit-identity tests
in ``tests/telemetry`` pin this for the engine, trial-plane and
fault-plane routes).

Worker processes spawned by the trial engine inherit no tracer — their
chunks simply do not appear in the trace; the parent's enclosing span
still accounts the wall time.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Optional, Union

from repro.exceptions import ParameterError

#: Trace stream schema identifier, bumped on breaking format changes.
TRACE_SCHEMA = "repro-trace/v1"
#: Manifest schema identifier.
MANIFEST_SCHEMA = "repro-manifest/v1"

#: Execution routes a manifest may declare.  ``engine-cold`` is the full
#: protocol (the measurement of record), ``engine-warm`` the cached
#: tree-schedule start, ``trial-plane`` / ``fault-plane`` / ``smp-plane``
#: the vectorised replays, ``zero-round`` the simulator-free testers,
#: ``solve`` a parameter-only run with no execution, ``mixed`` a run
#: touching several routes.
ROUTES = (
    "engine-cold",
    "engine-warm",
    "trial-plane",
    "fault-plane",
    "smp-plane",
    "zero-round",
    "solve",
    "mixed",
)


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / tuples into plain JSON-serialisable types."""
    if isinstance(value, (str, bool, type(None))):
        return value
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        return item()
    return str(value)


class Span:
    """One live span: a named, timed scope with attributes and counters.

    Use as a context manager (via :func:`span`); mutate through
    :meth:`set` (attributes) and :meth:`count` (additive integer/float
    counters).  The span event is emitted when the scope exits.
    """

    __slots__ = ("tracer", "span_id", "parent_id", "name", "attrs",
                 "counters", "_start")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, Union[int, float]] = {}
        self._start = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) free-form attributes."""
        self.attrs.update(attrs)
        return self

    def count(self, name: str, value: Union[int, float] = 1) -> "Span":
        """Add *value* to the counter *name* (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        seconds = time.perf_counter() - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self, seconds)


class _NullSpan:
    """Shared no-op span returned whenever tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def count(self, name: str, value: Union[int, float] = 1) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


#: The singleton no-op span.
NULL_SPAN = _NullSpan()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to tie a run's outputs back to its inputs.

    ``parameters`` holds the problem parameters as given (``n``, ``k``,
    ``eps``, ``p``, …); solver outputs arrive later through
    :func:`annotate` as ``manifest_update`` events, so a crash mid-run
    still leaves a valid manifest at the head of the trace.
    """

    command: str
    route: str
    seed: Optional[int] = None
    argv: tuple = ()
    parameters: Dict[str, Any] = field(default_factory=dict)
    topology: Optional[Dict[str, Any]] = None

    def as_event(self) -> Dict[str, Any]:
        return {
            "event": "manifest",
            "schema": MANIFEST_SCHEMA,
            "trace_schema": TRACE_SCHEMA,
            "command": self.command,
            "route": self.route,
            "seed": self.seed,
            "argv": list(self.argv),
            "parameters": _jsonable(self.parameters),
            "topology": _jsonable(self.topology),
            "versions": library_versions(),
            "created_unix": time.time(),
        }


def library_versions() -> Dict[str, str]:
    """Versions of the libraries that determine a run's bit stream."""
    import numpy

    from repro import __version__ as repro_version

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro_version,
    }


_MANIFEST_REQUIRED = {
    "schema": str,
    "trace_schema": str,
    "command": str,
    "route": str,
    "argv": list,
    "parameters": dict,
    "versions": dict,
    "created_unix": (int, float),
}


def validate_manifest(data: Dict[str, Any]) -> None:
    """Check a manifest event against the schema; raise on any defect.

    Used by ``repro report`` and the telemetry tests; raises
    :class:`~repro.exceptions.ParameterError` naming every violation at
    once so a malformed trace is diagnosable in one pass.
    """
    problems: List[str] = []
    for key, types in _MANIFEST_REQUIRED.items():
        if key not in data:
            problems.append(f"missing field {key!r}")
        elif not isinstance(data[key], types):
            problems.append(
                f"field {key!r} has type {type(data[key]).__name__}, "
                f"expected {types}"
            )
    if data.get("schema") not in (None, MANIFEST_SCHEMA):
        problems.append(
            f"unknown manifest schema {data.get('schema')!r} "
            f"(expected {MANIFEST_SCHEMA!r})"
        )
    if "route" in data and data["route"] not in ROUTES:
        problems.append(
            f"route {data['route']!r} not one of {ROUTES}"
        )
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        problems.append(f"seed must be an int or null, got {seed!r}")
    versions = data.get("versions")
    if isinstance(versions, dict):
        for lib in ("python", "numpy", "repro"):
            if lib not in versions:
                problems.append(f"versions missing {lib!r}")
    if problems:
        raise ParameterError(
            "invalid run manifest: " + "; ".join(problems)
        )


class Tracer:
    """Collects span/manifest events and writes them as JSONL.

    Parameters
    ----------
    sink:
        A path (string or ``os.PathLike``) opened for writing, an open
        text file object, or ``None`` to keep events in memory only
        (:attr:`events`) — the form the tests use.
    """

    def __init__(self, sink: Union[None, str, "Any", IO[str]] = None) -> None:
        self.events: List[Dict[str, Any]] = []
        self._stack: List[Span] = []
        self._next_id = 1
        self._owns_file = False
        self._file: Optional[IO[str]] = None
        if sink is None:
            pass
        elif hasattr(sink, "write"):
            self._file = sink
        else:
            self._file = open(sink, "w", encoding="utf-8")
            self._owns_file = True

    # -- event plumbing -------------------------------------------------

    def _emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)
        if self._file is not None:
            self._file.write(json.dumps(event, sort_keys=True) + "\n")
            self._file.flush()

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span, seconds: float) -> None:
        # Tolerate exception-unwound stacks: pop through to this span.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._emit({
            "event": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "seconds": seconds,
            "attrs": _jsonable(span.attrs),
            "counters": _jsonable(span.counters),
        })

    # -- public API -----------------------------------------------------

    @property
    def current_id(self) -> Optional[int]:
        return self._stack[-1].span_id if self._stack else None

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new child span of the innermost live span."""
        span_id = self._next_id
        self._next_id += 1
        return Span(self, span_id, self.current_id, name, dict(attrs))

    def record_span(
        self,
        name: str,
        seconds: float,
        attrs: Optional[Dict[str, Any]] = None,
        counters: Optional[Dict[str, Union[int, float]]] = None,
    ) -> None:
        """Emit a pre-timed span (no live scope) under the current span.

        Used for spans whose duration was measured externally — e.g. the
        engine's per-phase segments, timed inside one loop and emitted
        after the fact.
        """
        span_id = self._next_id
        self._next_id += 1
        self._emit({
            "event": "span",
            "id": span_id,
            "parent": self.current_id,
            "name": name,
            "seconds": seconds,
            "attrs": _jsonable(attrs or {}),
            "counters": _jsonable(counters or {}),
        })

    def set_manifest(self, manifest: RunManifest) -> None:
        """Write the run manifest event (once, at trace start)."""
        self._emit(manifest.as_event())

    def annotate(self, **fields: Any) -> None:
        """Merge late-bound facts (solver outputs, …) into the manifest."""
        self._emit({
            "event": "manifest_update",
            "fields": _jsonable(fields),
        })

    def close(self) -> None:
        """Flush and close an owned file sink (idempotent)."""
        if self._file is not None and self._owns_file:
            self._file.close()
            self._file = None


# ---------------------------------------------------------------------------
# Module-level activation — the zero-overhead dispatch point
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def activate(tracer: Tracer) -> Tracer:
    """Install *tracer* as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def deactivate() -> None:
    """Disable tracing (instrumented code reverts to no-ops)."""
    global _ACTIVE
    _ACTIVE = None


def get_tracer() -> Optional[Tracer]:
    """The active tracer, or ``None`` when tracing is disabled."""
    return _ACTIVE


def enabled() -> bool:
    """Whether a tracer is active (cheap guard for non-trivial capture)."""
    return _ACTIVE is not None


def span(name: str, **attrs: Any) -> Union[Span, _NullSpan]:
    """Open a span on the active tracer, or return the shared no-op."""
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.span(name, **attrs)


def record_span(
    name: str,
    seconds: float,
    attrs: Optional[Dict[str, Any]] = None,
    counters: Optional[Dict[str, Union[int, float]]] = None,
) -> None:
    """Emit a pre-timed span on the active tracer (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.record_span(name, seconds, attrs, counters)


def annotate(**fields: Any) -> None:
    """Merge fields into the active trace's manifest (no-op when disabled)."""
    if _ACTIVE is not None:
        _ACTIVE.annotate(**fields)


class tracing:
    """Context manager: activate a tracer for a scope, then restore.

    >>> with tracing(Tracer()) as tracer:   # doctest: +SKIP
    ...     run_workload()
    ... # tracer.events now holds the trace
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Tracer:
        self._previous = get_tracer()
        activate(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ACTIVE
        _ACTIVE = self._previous
