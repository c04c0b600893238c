"""The vectorised SMP lower-bound plane: batched Equality/BCG trial replay.

A Monte-Carlo sweep of the Section 7 SMP protocols runs the same protocol
thousands of times on one fixed input pair, varying only the private
coins.  But the expensive parts of a trial never look at the coins: the
concatenated encoding (Reed–Solomon over GF(2^q) composed with a verified
inner code) is a pure function of the inputs, and the torus layout is a
pure function of the codeword.  So the whole coding phase is hoisted out
— one :meth:`~repro.smp.codes.ConcatenatedCode.encode_many` call encodes
both inputs as a single power-table matrix product — and a trial's
verdict reduces to a handful of array ops:

- **Torus Equality (Lemma 7.3)**: the scalar ``run()`` consumes exactly
  four bounded-integer draws per trial (Alice's and Bob's start cells).
  Numpy integer streams are prefix-stable under call splitting, so one
  ``integers(0, side, size=4·count)`` call reproduces every trial's
  draws; the referee compare is then two modular offsets, a chunk-window
  test and one gather per table at the crossing cells.
- **BCG reduction (Theorem 7.1)**: the scalar ``run()`` consumes exactly
  ``3q`` ``U[0, 1)`` doubles per trial — ``q`` driver values behind each
  player's :func:`~repro.smp.reduction.support_driver` draw plus ``q``
  referee coins.  One batched
  :meth:`~repro.distributions.base.DiscreteDistribution.sample_uniform`
  draw covers the whole batch; the support gathers go through exact
  :meth:`~repro.distributions.base.DiscreteDistribution.index_quantiles`
  lookups and the centralized tester verdicts through the vectorised
  :func:`~repro.core.gap.decide_many`.

Bit-identity contract: both kernels consume the trial engine's
chunk-keyed streams exactly like the scalar ``run()`` experiments (same
labels, same per-trial stream consumption), so fast-path and scalar
trial ``t`` see the *same coins* and must produce the same verdict.
``engine_check`` re-runs a prefix of the trials through the scalar
protocol and raises :class:`~repro.exceptions.SimulationError` on any
divergence.  The scalar route remains the measurement of record for
communication cost; the plane only accelerates verdict statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro import telemetry
from repro.core.gap import decide_many
from repro.experiments.runner import TrialRunner
from repro.rng import ensure_rng
from repro.smp.equality import EqualityProtocol
from repro.smp.reduction import TesterBasedEqualityProtocol, support_driver
from repro.zeroround.network import auto_batch


# ---------------------------------------------------------------------------
# Scalar twins: the honest per-trial experiments the plane must reproduce
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _TorusTrialExperiment:
    """Scalar trial: one full torus ``run()`` (re-encoding and all)."""

    protocol: EqualityProtocol
    x: np.ndarray
    y: np.ndarray
    equal: bool

    def __call__(self, rng: np.random.Generator) -> bool:
        accepted, _ = self.protocol.run(self.x, self.y, rng)
        return accepted != self.equal


@dataclass(frozen=True, eq=False)
class _ReductionTrialExperiment:
    """Scalar trial: one full BCG ``run()`` (re-encoding and all)."""

    protocol: TesterBasedEqualityProtocol
    x: np.ndarray
    y: np.ndarray
    equal: bool

    def __call__(self, rng: np.random.Generator) -> bool:
        return self.protocol.run(self.x, self.y, rng) != self.equal


# ---------------------------------------------------------------------------
# Batched verdict kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TorusVerdictKernel:
    """Batched experiment: Lemma 7.3 referee error flags.

    ``(rng, count) -> flags`` where ``True`` means the verdict disagrees
    with the ground truth ``equal``.  Consumes exactly ``count`` trials'
    worth of start-cell draws (four bounded integers per trial, in the
    scalar order Alice-row, Alice-col, Bob-row, Bob-col), so it is
    bit-identical to :class:`_TorusTrialExperiment` on the same chunk
    stream.  The chunks cross iff both modular offsets fall inside the
    chunk window; the crossing cell is ``(bob_row, alice_col)`` and the
    referee rejects only on a bit mismatch there.
    """

    table_a: np.ndarray
    table_b: np.ndarray
    side: int
    chunk_length: int
    equal: bool

    def accepts(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Referee verdicts (``True`` = accept) for *count* trials."""
        with telemetry.span("smp_plane.draw", trials=count) as sp:
            draws = rng.integers(0, self.side, size=4 * count).reshape(count, 4)
            sp.count("draws", 4 * count)
        with telemetry.span("smp_plane.verdict", trials=count):
            a_rows, a_cols, b_rows, b_cols = draws.T
            row_off = (b_rows - a_rows) % self.side
            col_off = (a_cols - b_cols) % self.side
            crossing = (row_off < self.chunk_length) & (
                col_off < self.chunk_length
            )
            mismatch = crossing & (
                self.table_a[b_rows, a_cols] != self.table_b[b_rows, a_cols]
            )
            return ~mismatch

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.accepts(rng, count) != self.equal


@dataclass(frozen=True, eq=False)
class ReductionVerdictKernel:
    """Batched experiment: Theorem 7.1 referee error flags.

    ``(rng, count) -> flags``.  One
    :meth:`~repro.distributions.base.DiscreteDistribution.sample_uniform`
    call draws every trial's ``3q`` driver doubles (``q`` Alice, ``q``
    Bob, ``q`` referee coins — the exact scalar ``run()`` stream), the
    support gathers go through exact ``index_quantiles`` lookups, and
    the centralized tester decides all trials at once via
    :func:`~repro.core.gap.decide_many`.
    """

    support_alice: np.ndarray
    support_bob: np.ndarray
    tester: object
    q: int
    equal: bool

    def accepts(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Referee verdicts (``True`` = accept) for *count* trials."""
        driver = support_driver(self.support_alice.size)
        with telemetry.span("smp_plane.draw", trials=count) as sp:
            u = driver.sample_uniform(count * 3 * self.q, rng).reshape(
                count, 3, self.q
            )
            sp.count("doubles", count * 3 * self.q)
        with telemetry.span("smp_plane.verdict", trials=count):
            alice = self.support_alice[driver.index_quantiles(u[:, 0, :])]
            bob = self.support_bob[driver.index_quantiles(u[:, 1, :])]
            take_alice = u[:, 2, :] < 0.5
            merged = np.where(take_alice, alice, bob)
            return decide_many(self.tester, merged)

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.accepts(rng, count) != self.equal


# ---------------------------------------------------------------------------
# The trial runner shared by both protocols
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EqualityTrialRunner:
    """Vectorised Monte-Carlo trials for one SMP protocol on one input pair.

    Encodes the inputs once (one batched
    :meth:`~repro.smp.codes.ConcatenatedCode.encode_many` call under the
    ``smp_plane.encode`` span), then replays whole trial batches through
    the chunk-keyed trial engine.  Build with :meth:`for_torus` or
    :meth:`for_reduction`; the scalar twin rides along so
    ``engine_check`` and :meth:`scalar_flags` replay the *same* labelled
    streams through the full protocol.
    """

    kernel: object
    scalar: object
    labels: Tuple
    elements_per_trial: int
    base_seed: int

    @staticmethod
    def for_torus(
        protocol: EqualityProtocol,
        x: np.ndarray,
        y: np.ndarray,
        base_seed: int = 0,
    ) -> "EqualityTrialRunner":
        """Plane runner for the Lemma 7.3 torus protocol on ``(x, y)``."""
        x = np.asarray(x)
        y = np.asarray(y)
        side = protocol.side
        with telemetry.span(
            "smp_plane.encode", codeword_bits=protocol.code.codeword_bits
        ) as sp:
            words = protocol.code.encode_many(np.stack([x, y]))
            sp.count("codewords", 2)
            padded = np.zeros((2, side * side), dtype=np.int64)
            padded[:, : words.shape[1]] = words
            tables = padded.reshape(2, side, side)
        equal = bool(np.array_equal(x, y))
        kernel = TorusVerdictKernel(
            table_a=tables[0],
            table_b=tables[1],
            side=side,
            chunk_length=protocol.chunk_length,
            equal=equal,
        )
        scalar = _TorusTrialExperiment(protocol=protocol, x=x, y=y, equal=equal)
        return EqualityTrialRunner(
            kernel=kernel,
            scalar=scalar,
            labels=("smp", "torus", side),
            elements_per_trial=4,
            base_seed=int(base_seed),
        )

    @staticmethod
    def for_reduction(
        protocol: TesterBasedEqualityProtocol,
        x: np.ndarray,
        y: np.ndarray,
        base_seed: int = 0,
    ) -> "EqualityTrialRunner":
        """Plane runner for the Theorem 7.1 reduction on ``(x, y)``."""
        x = np.asarray(x)
        y = np.asarray(y)
        mapping = protocol.mapping
        with telemetry.span(
            "smp_plane.encode", codeword_bits=mapping.code.codeword_bits
        ) as sp:
            # Both supports come from one batched encode: the support of
            # μ_X is 2i + X'_i, of μ_Y is 2i + (1 − Y'_i).
            words = mapping.code.encode_many(np.stack([x, y]))
            sp.count("codewords", 2)
            positions = 2 * np.arange(words.shape[1], dtype=np.int64)
            support_alice = positions + words[0]
            support_bob = positions + (1 - words[1])
        equal = bool(np.array_equal(x, y))
        q = int(protocol.tester.samples_required)
        kernel = ReductionVerdictKernel(
            support_alice=support_alice,
            support_bob=support_bob,
            tester=protocol.tester,
            q=q,
            equal=equal,
        )
        scalar = _ReductionTrialExperiment(
            protocol=protocol, x=x, y=y, equal=equal
        )
        return EqualityTrialRunner(
            kernel=kernel,
            scalar=scalar,
            labels=("smp", "bcg", mapping.domain_size),
            elements_per_trial=3 * q,
            base_seed=int(base_seed),
        )

    # -- per-seed API ---------------------------------------------------

    def verdicts_for_seeds(self, seeds) -> List[bool]:
        """Per-seed referee verdicts matching ``protocol.run(x, y, rng=seed)``.

        Each seed's draws consume a fresh ``ensure_rng(seed)`` exactly as
        the scalar path would, so verdict ``i`` is bit-identical to the
        scalar referee decision at ``seeds[i]``.
        """
        return [
            bool(self.kernel.accepts(ensure_rng(seed), 1)[0]) for seed in seeds
        ]

    # -- trial-engine APIs ---------------------------------------------

    def run_flags(self, trials: int, engine_check: float = 0.0) -> np.ndarray:
        """Per-trial error flags via the chunk-keyed trial engine.

        Bit-identical to :meth:`scalar_flags` — same labels, same stream
        consumption.  ``engine_check`` ∈ [0, 1] re-runs that fraction of
        the trials through the full scalar ``run()``
        (:meth:`~repro.experiments.runner.TrialRunner.run_audited`).
        """
        return TrialRunner(base_seed=self.base_seed).run_audited(
            self.kernel,
            lambda: self.scalar,
            trials,
            *self.labels,
            batch=auto_batch(self.elements_per_trial),
            engine_check=engine_check,
            span="smp_plane.engine_check",
        )

    def scalar_flags(self, trials: int) -> np.ndarray:
        """The scalar route on the same chunk-keyed streams (full
        ``run()`` per trial, re-encoding and all)."""
        return TrialRunner(base_seed=self.base_seed).run_flags(
            self.scalar, trials, *self.labels
        )
