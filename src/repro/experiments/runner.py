"""The batched Monte-Carlo trial engine.

Every benchmark measurement reduces to "run this boolean experiment T
times and count failures".  :class:`TrialRunner` executes those trials
either as a scalar per-trial loop or in vectorised batches — both paths
producing **bit-identical** results for a fixed ``base_seed`` — and
audits every vectorised trial plane against its scalar reference in one
place (:meth:`TrialRunner.run_audited`).

Reproducibility model
---------------------
Trials are partitioned into fixed *chunks* of :data:`TRIAL_CHUNK` trials.
Chunk ``c`` of a configuration draws all of its randomness from one
generator keyed by ``(base_seed, *labels, c)`` via :func:`repro.rng.derive`;
trials inside a chunk consume that stream sequentially.  Because the chunk
quantum is an engine constant — *not* the user-facing ``batch`` knob —
the stream each trial sees is independent of how the work is batched:

- ``batch`` only caps how many trials a vectorised experiment handles per
  call, and calls never straddle a chunk boundary.  numpy ``Generator``
  streams are consumed strictly sequentially, so splitting a chunk into
  smaller calls yields the same draws (a property the test suite pins).
- any single chunk (and hence any sweep point) can be re-run in isolation
  and reproduce exactly, independent of sweep order.

A *scalar* experiment maps ``rng -> bool`` (True = failure); a *batched*
experiment maps ``(rng, count) -> bool[count]``.  A scalar/batched pair
that consumes the generator identically (e.g. one network trial vs. the
matrix kernel over many — see :mod:`repro.zeroround.network`) produces
bit-identical failure flags through either API.

:func:`error_rate` is the one rate entry behind every ``estimate_error``
route that is not a trial plane: it runs a seed-like ``rng`` on these
chunk streams and a live ``Generator`` in sequence on its one stream.

Audited fast paths
------------------
The vectorised trial planes (CONGEST, hardened, LOCAL, SMP) replay a
protocol's verdicts from a fixed layout.  :meth:`TrialRunner.run_audited`
runs such a kernel and, for ``engine_check`` ∈ (0, 1], re-runs the first
:func:`audit_prefix` trials — a prefix of the same chunk-keyed streams —
through the plane's scalar reference, raising
:class:`~repro.exceptions.SimulationError` on any flag mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Union

import numpy as np

from repro import telemetry
from repro.exceptions import ParameterError, SimulationError
from repro.experiments.stats import ErrorEstimate, estimate
from repro.rng import SeedLike, derive, ensure_rng, seed_of

#: Trials per randomness chunk.  This is the engine's reproducibility
#: quantum: changing it re-keys every stream, so it is a constant, not a
#: parameter.  ``batch`` never affects results; this would.
TRIAL_CHUNK = 1024

Label = Union[str, int]
ScalarExperiment = Callable[[np.random.Generator], bool]
BatchedExperiment = Callable[[np.random.Generator, int], np.ndarray]


def check_trials(trials) -> int:
    """Validate a Monte-Carlo trial count: a positive integer, returned as
    a plain ``int``.  A float, bool or non-positive value raises
    :class:`~repro.exceptions.ParameterError`."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ParameterError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    return int(trials)


def check_engine_check(engine_check: float) -> float:
    """Validate an ``engine_check`` audit fraction: a number in [0, 1]
    (not NaN), returned unchanged; else :class:`ParameterError`."""
    if not 0.0 <= engine_check <= 1.0:
        raise ParameterError(
            f"engine_check must be in [0, 1], got {engine_check}"
        )
    return engine_check


def audit_prefix(engine_check: float, trials: int) -> int:
    """How many leading trials an ``engine_check`` audit re-runs: 0 for
    0, else ``max(1, round(engine_check · trials))`` capped at *trials*."""
    if check_engine_check(engine_check) == 0.0:
        return 0
    return min(trials, max(1, int(round(engine_check * trials))))


def _chunk_lengths(trials: int) -> List[int]:
    """Lengths of the fixed-quantum chunks covering ``trials`` trials."""
    full, rest = divmod(trials, TRIAL_CHUNK)
    return [TRIAL_CHUNK] * full + ([rest] if rest else [])


def _scalar_chunk(
    experiment: ScalarExperiment, rng: np.random.Generator, length: int
) -> np.ndarray:
    """Failure flags for one chunk, one scalar call per trial."""
    flags = np.empty(length, dtype=bool)
    for t in range(length):
        flags[t] = bool(experiment(rng))
    return flags


def _batched_chunk(
    experiment: BatchedExperiment,
    rng: np.random.Generator,
    length: int,
    batch: int,
) -> np.ndarray:
    """Failure flags for one chunk, vectorised experiment, batch-capped calls."""
    flags = np.empty(length, dtype=bool)
    pos = 0
    while pos < length:
        m = min(batch, length - pos)
        out = np.asarray(experiment(rng, m), dtype=bool)
        if out.shape != (m,):
            raise ParameterError(
                f"batched experiment returned shape {out.shape} for count={m}"
            )
        flags[pos : pos + m] = out
        pos += m
    return flags


@dataclass(frozen=True)
class TrialRunner:
    """Runs seeded boolean trials for one experiment.

    Parameters
    ----------
    base_seed:
        Root seed of the whole experiment.  Together with the configuration
        labels it fully determines every trial's randomness (see the module
        docstring for the chunk keying scheme).
    """

    base_seed: int

    def _run(
        self,
        mode: str,
        run_chunk: Callable[[np.random.Generator, int], np.ndarray],
        trials: int,
        labels: tuple,
        **attrs: Any,
    ) -> np.ndarray:
        """Run each chunk on its keyed stream, under a ``trials.chunk`` span."""
        trials = check_trials(trials)
        with telemetry.span(
            "trials.run", mode=mode, labels=list(labels), **attrs
        ) as sp:
            parts = []
            for c, length in enumerate(_chunk_lengths(trials)):
                rng = derive(self.base_seed, *labels, c)
                if sp is telemetry.NULL_SPAN:
                    # Untraced: no per-chunk span or failure count, whose
                    # cost adds up over the ~1000 chunks of a 1M-trial run.
                    parts.append(run_chunk(rng, length))
                    continue
                with telemetry.span("trials.chunk", chunk=c, trials=length) as cs:
                    parts.append(run_chunk(rng, length))
                    cs.count("failures", int(parts[-1].sum()))
            flags = np.concatenate(parts)
            sp.count("trials", trials)
            sp.count("failures", int(flags.sum()))
        return flags

    # -- flag-level API (bit-for-bit comparable) -----------------------

    def run_flags(
        self, experiment: ScalarExperiment, trials: int, *labels: Label
    ) -> np.ndarray:
        """Per-trial failure flags for a scalar experiment.

        Trial ``t`` draws from the stream of its chunk ``t // TRIAL_CHUNK``,
        keyed by ``(base_seed, *labels, chunk)``.
        """
        return self._run(
            "scalar",
            lambda rng, length: _scalar_chunk(experiment, rng, length),
            trials,
            labels,
        )

    def run_flags_batched(
        self,
        experiment: BatchedExperiment,
        trials: int,
        *labels: Label,
        batch: int = TRIAL_CHUNK,
    ) -> np.ndarray:
        """Per-trial failure flags for a vectorised ``(rng, count)`` experiment.

        Bit-identical to :meth:`run_flags` of the matching scalar experiment,
        and invariant to ``batch`` (see module docstring).
        """
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        return self._run(
            "batched",
            lambda rng, length: _batched_chunk(experiment, rng, length, batch),
            trials,
            labels,
            batch=batch,
        )

    def run_audited(
        self,
        kernel: BatchedExperiment,
        reference: Callable[[], ScalarExperiment],
        trials: int,
        *labels: Label,
        batch: int,
        engine_check: float,
        span: str,
        **attrs: Any,
    ) -> np.ndarray:
        """Fast-path flags from *kernel*, audited against a scalar reference.

        ``engine_check`` ∈ [0, 1] re-runs that fraction of the trials (at
        least one; a prefix of the same streams, so no extra bookkeeping)
        through the experiment ``reference()`` returns, under a span named
        *span* (with ``attrs``) that counts the ``checked`` trials, and
        raises :class:`SimulationError` on any flag mismatch.  The
        reference is built only when the check runs.
        """
        checked = audit_prefix(engine_check, check_trials(trials))
        flags = self.run_flags_batched(kernel, trials, *labels, batch=batch)
        if checked:
            with telemetry.span(span, trials=checked, **attrs) as sp:
                expected = self.run_flags(reference(), checked, *labels)
                sp.count("checked", checked)
                bad = np.flatnonzero(expected != flags[:checked])
                if bad.size:
                    raise SimulationError(
                        f"{span}: fast-path verdicts diverge from the "
                        f"reference on trials {bad[:8].tolist()} of "
                        f"{checked} checked — bit-identity contract broken"
                    )
        return flags


def live_stream(rng: SeedLike) -> Optional[np.random.Generator]:
    """The one stream a ``Generator`` (or ``SeedSequence``) *rng* runs its
    trials on, or ``None`` for a seed-like *rng* (``None`` or an int)."""
    if isinstance(rng, (np.random.Generator, np.random.SeedSequence)):
        return ensure_rng(rng)
    return None


def error_rate(
    experiment: Union[ScalarExperiment, BatchedExperiment],
    trials: int,
    rng: SeedLike,
    *labels: Label,
    batch: Optional[int] = None,
) -> ErrorEstimate:
    """Monte-Carlo error rate of a scalar experiment (``batch=None``) or
    of a batched one (calls of at most ``batch`` trials).

    A seed-like ``rng`` (``None`` → 0, or an int) runs the trials on
    :class:`TrialRunner`'s chunk-keyed streams under *labels*; a live
    ``Generator`` runs them in sequence on its one stream, as one chunk.
    """
    trials = check_trials(trials)
    if batch is not None and batch < 1:
        raise ParameterError(f"batch must be >= 1, got {batch}")
    gen = live_stream(rng)
    if gen is not None:
        if batch is None:
            flags = _scalar_chunk(experiment, gen, trials)
        else:
            flags = _batched_chunk(experiment, gen, trials, batch)
    else:
        runner = TrialRunner(base_seed=seed_of(rng))
        if batch is None:
            flags = runner.run_flags(experiment, trials, *labels)
        else:
            flags = runner.run_flags_batched(
                experiment, trials, *labels, batch=batch
            )
    return estimate(int(flags.sum()), trials)
