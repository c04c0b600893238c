"""Theorem 1.1 — the 0-round tester under the AND decision rule.

Construction recap: each node runs ``m`` independent copies of the
single-collision tester ``A_δ'`` and rejects iff all ``m`` reject; the
network rejects iff any node rejects.  The parameters come from
:func:`repro.core.params.and_rule_parameters`, which solves the exact
finite-``k`` inequalities (Eq. 4 of the paper).

The headline cost is ``s = Θ((C_p/ε²)·√(n / k^{Θ(ε²/C_p)}))`` samples per
node: the network size ``k`` only helps through a tiny exponent — the price
of the amplification-unfriendly AND rule, and the reason Theorem 1.2's
threshold rule is the better deal (benchmark E3 measures the difference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.params import AndRuleParameters, and_rule_parameters
from repro.distributions.base import DiscreteDistribution
from repro.rng import SeedLike
from repro.zeroround.decision import AndRule
from repro.zeroround.network import (
    AndNetworkErrorKernel,
    ZeroRoundNetwork,
    auto_batch,
    repeated_collision_reject_flags,
)


@dataclass(frozen=True)
class AndRuleNetworkTester:
    """End-to-end Theorem 1.1 tester for a k-node network.

    Build with :meth:`solve` (which chooses all parameters) or directly from
    an :class:`~repro.core.params.AndRuleParameters`.

    Examples
    --------
    >>> tester = AndRuleNetworkTester.solve(n=20_000, k=16, eps=0.9)
    >>> tester.params.samples_per_node <= 20_000
    True
    """

    params: AndRuleParameters

    @staticmethod
    def solve(n: int, k: int, eps: float, p: float = 1.0 / 3.0) -> "AndRuleNetworkTester":
        """Choose Theorem 1.1 parameters for ``(n, k, ε, p)`` and build."""
        return AndRuleNetworkTester(params=and_rule_parameters(n, k, eps, p))

    @property
    def samples_per_node(self) -> int:
        """Per-node sample cost (the theorem's headline quantity)."""
        return self.params.samples_per_node

    def as_network(self) -> ZeroRoundNetwork:
        """The object-model network (one RepeatedAndTester per node)."""
        node = self.params.build_node_tester()
        return ZeroRoundNetwork(testers=[node] * self.params.k, rule=AndRule())

    def test(self, distribution: DiscreteDistribution, rng: SeedLike = None) -> bool:
        """One network execution; ``True`` = network says uniform.

        Uses the vectorised kernel — decisions are distributed identically
        to :meth:`as_network`'s object model.
        """
        distribution.require_domain(self.params.n)
        rejects = repeated_collision_reject_flags(
            distribution,
            k=self.params.k,
            m=self.params.m,
            s=self.params.s_per_repetition,
            rng=rng,
        )
        return AndRule().decide(~rejects)

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
        p = self.params
        distribution.require_domain(p.n)
        if batch is None:
            batch = auto_batch(p.k * p.m * p.s_per_repetition)
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

        ``is_uniform`` selects which verdict counts as an error (rejecting
        uniform vs accepting a far distribution).  The trials' stream
        follows ``rng`` (:func:`~repro.experiments.runner.error_rate`);
        the rate does not depend on ``batch``.
        """
        from repro.experiments.runner import error_rate

        p = self.params
        distribution.require_domain(p.n)
        kernel = AndNetworkErrorKernel(
            distribution, p.k, p.m, p.s_per_repetition, is_uniform
        )
        if batch is None:
            batch = auto_batch(p.k * p.m * p.s_per_repetition)
        return error_rate(kernel, trials, rng, "and_rule", p.k, batch=batch).rate
