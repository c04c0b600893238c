"""The Blais–Canonne–Gur reduction (Theorem 7.1): testers ⇒ EQ protocols.

The lower bound of Section 7 rests on this bridge: a ``q``-sample
uniformity tester with error ``(δ₀, δ₁)`` yields a private-coin SMP
Equality protocol of cost ``q·log n`` and the same error.  Contrapositive:
the Equality lower bound of Theorem 7.2 forces every ``(δ, α)``-gap
uniformity tester to use ``Ω(√(f(α)δn)/log n)`` samples (Corollary 7.4).

This module implements the bridge *forward* so it can be run:

1. :class:`BCGMapping` — encode the inputs with a certified-distance code,
   then map to sampling distributions: Alice's ``μ_X`` is uniform on
   ``{(i, X'_i)}``, Bob's ``μ_Y`` on ``{(i, 1 − Y'_i)}`` (pairs flattened
   into ``[2m']``).  The half-half mixture ``μ = ½μ_X + ½μ_Y`` is exactly
   uniform on ``[2m']`` when ``X = Y`` and ``Δ``-far in L1 when ``X ≠ Y``
   (``Δ`` = the code's relative distance) — verified in closed form by
   :meth:`BCGMapping.mixture_distribution`.
2. :class:`TesterBasedEqualityProtocol` — each player sends ``q`` samples
   from their half (``q·⌈log₂ 2m'⌉`` bits); the referee interleaves them
   with fair coins (giving ``q`` i.i.d. samples from ``μ``) and feeds any
   :class:`~repro.core.gap.CentralizedTester`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.gap import CentralizedTester
from repro.distributions.base import DiscreteDistribution
from repro.experiments.runner import check_engine_check, check_trials, error_rate
from repro.rng import SeedLike, ensure_rng, seed_of
from repro.smp.codes import ConcatenatedCode


@lru_cache(maxsize=8)
def support_driver(size: int) -> DiscreteDistribution:
    """The uniform inverse-CDF driver over ``size`` support points (cached).

    Both players sample their support *through this distribution* rather
    than via ``Generator.integers``: one invocation consumes exactly
    ``count`` ``U[0, 1)`` doubles (``Generator.choice`` with a probability
    vector is inverse-CDF sampling), so the whole protocol stream is
    reproducible from
    :meth:`~repro.distributions.base.DiscreteDistribution.sample_uniform`
    draws plus
    :meth:`~repro.distributions.base.DiscreteDistribution.index_quantiles`
    lookups — the split the SMP trial plane batches.
    """
    return DiscreteDistribution(
        np.full(size, 1.0 / size), name=f"bcg-driver({size})"
    )


@dataclass(frozen=True)
class BCGMapping:
    """Input-to-distribution mapping over a fixed code.

    The image domain is ``[2m']`` where ``m'`` is the codeword length:
    element ``2i + b`` encodes the pair ``(position i, bit b)``.
    """

    code: ConcatenatedCode

    @property
    def domain_size(self) -> int:
        """Size of the sampling domain: twice the codeword length."""
        return 2 * self.code.codeword_bits

    @property
    def far_distance(self) -> float:
        """Guaranteed L1 distance of the mixture from uniform when
        ``X ≠ Y``: the code's certified relative distance."""
        return self.code.relative_distance

    def _support(self, bits: np.ndarray, flip: bool) -> np.ndarray:
        word = self.code.encode(bits)
        values = 1 - word if flip else word
        return 2 * np.arange(word.size, dtype=np.int64) + values

    def alice_support(self, x: np.ndarray) -> np.ndarray:
        """Support of ``μ_X``: the points ``(i, X'_i)``."""
        return self._support(np.asarray(x), flip=False)

    def bob_support(self, y: np.ndarray) -> np.ndarray:
        """Support of ``μ_Y``: the points ``(i, 1 − Y'_i)``."""
        return self._support(np.asarray(y), flip=True)

    def sample_alice(self, x: np.ndarray, count: int, rng: SeedLike = None) -> np.ndarray:
        """``count`` i.i.d. samples from ``μ_X`` (uniform over its support).

        Drawn through :func:`support_driver` — ``count`` driver doubles,
        inverse-CDF mapped — so the stream is replayable in batch.
        """
        gen = ensure_rng(rng)
        support = self.alice_support(x)
        return support[support_driver(support.size).sample(count, gen)]

    def sample_bob(self, y: np.ndarray, count: int, rng: SeedLike = None) -> np.ndarray:
        """``count`` i.i.d. samples from ``μ_Y`` (same driver split)."""
        gen = ensure_rng(rng)
        support = self.bob_support(y)
        return support[support_driver(support.size).sample(count, gen)]

    def mixture_distribution(
        self, x: np.ndarray, y: np.ndarray
    ) -> DiscreteDistribution:
        """The exact mixture ``½μ_X + ½μ_Y`` (for analysis/tests)."""
        m = self.code.codeword_bits
        probs = np.zeros(2 * m, dtype=np.float64)
        np.add.at(probs, self.alice_support(x), 0.5 / m)
        np.add.at(probs, self.bob_support(y), 0.5 / m)
        return DiscreteDistribution(probs, name="bcg-mixture")


@dataclass(frozen=True)
class TesterBasedEqualityProtocol:
    """Theorem 7.1 forward: wrap a uniformity tester as an SMP EQ protocol.

    Attributes
    ----------
    mapping:
        The input-to-distribution mapping (fixes the domain size).
    tester:
        Any single-node uniformity tester calibrated for
        ``mapping.domain_size``.
    """

    mapping: BCGMapping
    tester: CentralizedTester

    #: Not a test class, despite the name (silences pytest collection).
    __test__ = False

    @property
    def communication_bits(self) -> int:
        """Per-player cost: ``q · ⌈log₂(domain)⌉`` — Theorem 7.1's bound."""
        q = self.tester.samples_required
        return q * max(1, math.ceil(math.log2(self.mapping.domain_size)))

    def run(self, x: np.ndarray, y: np.ndarray, rng: SeedLike = None) -> bool:
        """One execution; ``True`` = referee says Equal.

        Alice and Bob use private coins to sample their halves; the
        referee's own coins interleave them into i.i.d. mixture samples.
        """
        gen = ensure_rng(rng)
        q = self.tester.samples_required
        alice_samples = self.mapping.sample_alice(x, q, gen)
        bob_samples = self.mapping.sample_bob(y, q, gen)
        # Fair coins drawn as doubles: the per-trial stream is then 3q
        # U[0, 1) values (q Alice, q Bob, q referee), which the SMP trial
        # plane reproduces with a single batched sample_uniform call.
        take_alice = gen.random(q) < 0.5
        merged = np.where(take_alice, alice_samples, bob_samples)
        return self.tester.decide(merged)

    def estimate_acceptance(
        self, x: np.ndarray, y: np.ndarray, trials: int, rng: SeedLike = None
    ) -> float:
        """Monte-Carlo acceptance rate on the input pair."""
        trials = check_trials(trials)
        gen = ensure_rng(rng)
        accepted = 0
        for _ in range(trials):
            if self.run(x, y, gen):
                accepted += 1
        return accepted / trials

    def estimate_error(
        self,
        x: np.ndarray,
        y: np.ndarray,
        trials: int,
        rng: SeedLike = None,
        fast_path: bool = True,
        engine_check: float = 0.0,
    ) -> float:
        """Monte-Carlo error rate on ``(x, y)``: fraction of trials whose
        referee verdict disagrees with the ground truth ``x == y``.

        The trials' stream follows ``rng``
        (:func:`~repro.experiments.runner.error_rate`).
        ``fast_path=True`` (the default; seed-like rng only) routes them
        through the vectorised
        :class:`~repro.smp.smp_plane.EqualityTrialRunner` — one batched
        driver draw plus vectorised tester verdicts —
        bit-identical flags per seed, with ``engine_check`` re-running
        that fraction of the trials through the scalar :meth:`run` and
        raising :class:`~repro.exceptions.SimulationError` on divergence.
        """
        from repro.smp.smp_plane import EqualityTrialRunner

        check_engine_check(engine_check)
        if fast_path:
            runner = EqualityTrialRunner.for_reduction(
                self, x, y, base_seed=seed_of(rng)
            )
            return float(runner.run_flags(trials, engine_check).mean())
        runner = EqualityTrialRunner.for_reduction(self, x, y)
        return error_rate(runner.scalar, trials, rng, *runner.labels).rate
