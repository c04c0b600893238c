"""Theorem 1.2 — the 0-round tester under the threshold decision rule.

Every node runs a single collision tester ``A_δ`` with
``δ = Θ(1/(ε⁴k))``; the network counts alarms and rejects iff at least
``T = Θ(1/ε⁴)`` nodes reject.  Because the per-node signals are independent
Bernoulli bits, Chernoff concentration separates the uniform expectation
``η(U) ≤ kδ`` from the far expectation ``η(μ) ≥ (1+γε²)kδ`` (Eq. 5), giving
constant network error with only ``s = Θ(√(n/k)/ε²)`` samples per node —
a *full* ``√k`` saving over the single-node cost, versus the AND rule's
``k^{Θ(ε²)}`` dent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.params import ThresholdParameters, threshold_parameters
from repro.distributions.base import DiscreteDistribution
from repro.rng import SeedLike
from repro.zeroround.decision import ThresholdRule, threshold_accepts
from repro.zeroround.network import (
    ThresholdNetworkErrorKernel,
    ZeroRoundNetwork,
    auto_batch,
    collision_reject_flags,
)


@dataclass(frozen=True)
class ThresholdNetworkTester:
    """End-to-end Theorem 1.2 tester for a k-node network.

    Examples
    --------
    >>> tester = ThresholdNetworkTester.solve(n=50_000, k=3000, eps=0.9)
    >>> tester.params.threshold >= 1
    True
    """

    params: ThresholdParameters

    @staticmethod
    def solve(
        n: int, k: int, eps: float, p: float = 1.0 / 3.0, slack: float = 1.05
    ) -> "ThresholdNetworkTester":
        """Choose Theorem 1.2 parameters for ``(n, k, ε, p)`` and build."""
        return ThresholdNetworkTester(params=threshold_parameters(n, k, eps, p, slack))

    @property
    def samples_per_node(self) -> int:
        """Per-node sample cost (the theorem's headline quantity)."""
        return self.params.s

    def as_network(self) -> ZeroRoundNetwork:
        """The object-model network (one ``A_δ`` per node + threshold rule)."""
        node = self.params.build_node_tester()
        return ZeroRoundNetwork(
            testers=[node] * self.params.k,
            rule=ThresholdRule(self.params.threshold),
        )

    def alarms(self, distribution: DiscreteDistribution, rng: SeedLike = None) -> np.ndarray:
        """Per-node alarm flags of one network execution (True = reject)."""
        distribution.require_domain(self.params.n)
        return collision_reject_flags(distribution, self.params.k, self.params.s, rng)

    def rejection_count(self, distribution: DiscreteDistribution, rng: SeedLike = None) -> int:
        """Number of alarms ``R`` in one network execution."""
        return int(self.alarms(distribution, rng).sum())

    def test(self, distribution: DiscreteDistribution, rng: SeedLike = None) -> bool:
        """One network execution; ``True`` = network says uniform."""
        flags = self.alarms(distribution, rng)
        return bool(threshold_accepts(flags, self.params.threshold))

    def test_many(
        self,
        distribution: DiscreteDistribution,
        trials: int,
        rng: SeedLike = None,
        batch: Optional[int] = None,
    ) -> np.ndarray:
        """Accept verdicts of *trials* network executions, trial-batched.

        Bit-identical to *trials* sequential :meth:`test` calls on the same
        generator (:meth:`ZeroRoundNetwork.run_many`); the batch size is
        auto-capped so one sample matrix stays within the kernel budget.
        """
        distribution.require_domain(self.params.n)
        if batch is None:
            batch = auto_batch(self.params.k * self.params.s)
        return self.as_network().run_many(distribution, trials, rng, batch=batch)

    def estimate_error(
        self,
        distribution: DiscreteDistribution,
        is_uniform: bool,
        trials: int,
        rng: SeedLike = None,
        batch: Optional[int] = None,
    ) -> float:
        """Monte-Carlo error rate over *trials* network executions.

        The trials' stream follows ``rng``
        (:func:`~repro.experiments.runner.error_rate`); the rate does not
        depend on ``batch``.
        """
        from repro.experiments.runner import error_rate

        p = self.params
        distribution.require_domain(p.n)
        kernel = ThresholdNetworkErrorKernel(
            distribution, p.k, p.s, p.threshold, is_uniform
        )
        if batch is None:
            batch = auto_batch(p.k * p.s)
        return error_rate(
            kernel, trials, rng, "threshold_rule", p.k, batch=batch
        ).rate
