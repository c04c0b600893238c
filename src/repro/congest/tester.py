"""Theorem 1.4 — the end-to-end CONGEST uniformity tester.

Pipeline (Section 5): every node starts with **one sample** of the unknown
``μ``.  The network

1. runs :mod:`τ-token packaging <repro.congest.token_packaging>` to
   concentrate the ``k`` samples into ``ℓ = Θ(k/τ)`` *virtual nodes*
   (packages) of exactly ``τ`` samples each,
2. each package runs the single-collision tester ``A_δ`` (a package with a
   repeated sample is an alarm),
3. the alarm count and the package count are convergecast to the BFS root,
4. the root places the Theorem 1.2 threshold for the *actual* number of
   virtual nodes ``ℓ`` and broadcasts the verdict down the tree.

Round complexity: ``O(D)`` for flooding/convergecast/broadcast plus ``τ``
for token forwarding — with ``τ = Θ(n/(kε⁴))`` this is the theorem's
``O(D + n/(kε⁴))``.  Every message respects the CONGEST budget of
``max(⌈log₂ n⌉, 2⌈log₂ k⌉)`` bits (engine-enforced).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.binomial import find_separating_threshold
from repro.core.collision import (
    collision_free_probability_uniform,
    effective_delta,
    far_accept_upper_bound,
    gamma_slack,
)
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import InfeasibleParametersError, ParameterError
from repro.rng import SeedLike, ensure_rng, seed_of
from repro.simulator.engine import EngineReport, SynchronousEngine
from repro.simulator.faults import FaultPlan
from repro.simulator.graph import Topology
from repro.simulator.message import Message, bits_for_domain, bits_for_int
from repro.simulator.node import Context
from repro.congest.token_packaging import (
    TokenPackagingProgram,
    WarmStart,
    warm_start_views,
)

_VOTE = "vote"
_DECIDE = "decide"


@dataclass(frozen=True)
class CongestParameters:
    """Solved Theorem 1.4 instance.

    Attributes
    ----------
    n, k, eps, p:
        Problem parameters; each node holds one sample (``s = 1``).
    tau:
        Package size — samples per virtual node.
    expected_virtual_nodes:
        ``⌊k/τ⌋``, the upper bound on packages (at most ``τ−1`` samples
        are dropped so at least ``⌊(k−τ+1)/τ⌋`` are formed).
    delta:
        Per-package collision probability budget ``binom(τ,2)/n``.
    gamma:
        γ slack at ``(n, τ, ε)`` (reported for comparison with the
        asymptotic analysis; threshold placement uses exact tails).
    alarm_prob_uniform:
        Exact upper bound on ``Pr[package alarms | uniform]``.
    alarm_prob_far:
        Lemma 3.3 lower bound on ``Pr[package alarms | ε-far]``.
    """

    n: int
    k: int
    eps: float
    p: float
    tau: int
    expected_virtual_nodes: int
    delta: float
    gamma: float
    alarm_prob_uniform: float
    alarm_prob_far: float
    samples_per_node: int = 1

    def predicted_rounds(self, diameter: int) -> float:
        """The paper's ``O(D + τ)`` with constant ≈ 5 for our phase count
        (flood + child + count + tokens + vote + decide)."""
        return 5.0 * diameter + self.tau + 10.0

    def threshold_for(self, virtual_nodes: int) -> int:
        """Exact-tail threshold for the realised package count.

        The alarm count under uniform is dominated by
        ``Bin(ℓ, alarm_prob_uniform)`` and under any ε-far distribution
        dominates ``Bin(ℓ, alarm_prob_far)``; the threshold separates the
        two at error ``p`` per side.

        Memoised per realised ``ℓ``: :func:`find_separating_threshold` is
        ``lru_cache``d, so across Monte-Carlo trials the threshold is
        solved once per distinct package count instead of once per trial.
        """
        threshold = find_separating_threshold(
            virtual_nodes, self.alarm_prob_uniform, self.alarm_prob_far, self.p
        )
        if threshold is None:
            raise InfeasibleParametersError(
                f"no threshold separates the alarm distributions for "
                f"l={virtual_nodes} packages of tau={self.tau} samples at "
                f"n={self.n}, eps={self.eps}"
            )
        return threshold


@lru_cache(maxsize=4096)
def _alarm_probabilities(n: int, tau: int, eps: float) -> "tuple[float, float]":
    """Exact per-package alarm probabilities ``(uniform, far lower bound)``.

    Uniform side: ``1 − ∏(1 − i/n)`` exactly.  Far side: Lemma 3.2 gives
    ``χ ≥ (1+ε²)/n`` and Lemma 3.3 turns it into the acceptance bound
    ``e^{−t}(1+t)``; the alarm probability is its complement.

    Memoised: the τ solver and every Monte-Carlo trial's threshold
    placement revisit the same ``(n, τ, ε)`` points.
    """
    p_uniform = 1.0 - collision_free_probability_uniform(n, tau)
    chi_far = (1.0 + eps * eps) / n
    p_far = 1.0 - far_accept_upper_bound(chi_far, tau)
    return p_uniform, p_far


def congest_parameters(
    n: int, k: int, eps: float, p: float = 1.0 / 3.0, samples_per_node: int = 1
) -> CongestParameters:
    """Choose the package size ``τ`` for Theorem 1.4 at ``(n, k, ε, p)``.

    Returns the smallest ``τ`` for which the exact binomial alarm-count
    tails are separable at error ``p`` for the worst-case realised package
    count ``ℓ = ⌊(k·s − τ + 1)/τ⌋`` — minimising ``τ`` minimises the
    protocol's ``O(D + τ)`` round complexity, which is the theorem's
    objective.  The asymptotic shape ``τ = Θ(n/(kε⁴))`` is reproduced by
    benchmark E6.  ``samples_per_node`` is the paper's "generalises to
    larger s": every node contributes ``s`` tokens.

    Instead of the naive linear scan, the search probes ``τ = 2, 4, 8, …``
    until it crosses the feasibility frontier and then bisects down to the
    smallest feasible value (``O(log τ)`` tail evaluations; separability
    is monotone at the lower frontier — more samples per package means
    more separation per package, faster than the package count shrinks).
    If no probe is feasible the exact linear scan runs as a fallback
    before declaring the instance infeasible, so the result matches the
    naive scan on every input.
    """
    if k < 2:
        raise ParameterError(f"CONGEST tester needs k >= 2 nodes, got {k}")
    if samples_per_node < 1:
        raise ParameterError(
            f"samples_per_node must be >= 1, got {samples_per_node}"
        )
    total = k * samples_per_node

    def feasible(tau: int) -> bool:
        virtual = (total - tau + 1) // tau
        if virtual < 1:
            return False
        p_uniform, p_far = _alarm_probabilities(n, tau, eps)
        if p_far <= p_uniform:
            return False
        return find_separating_threshold(virtual, p_uniform, p_far, p) is not None

    # Largest tau that still yields at least one package.
    tau_cap = (total + 1) // 2
    lo, hi = 1, None  # lo: known infeasible, hi: known feasible
    probe = 2
    while probe <= tau_cap:
        if feasible(probe):
            hi = probe
            break
        lo = probe
        probe *= 2
    if hi is None and lo < tau_cap and feasible(tau_cap):
        hi = tau_cap
    if hi is None:
        # Feasibility can be non-monotone near tau_cap (the per-package
        # alarm probabilities both approach 1); re-check exhaustively with
        # the legacy scan before declaring the instance infeasible.
        for tau in range(2, tau_cap + 1):
            if feasible(tau):
                lo, hi = tau - 1, tau
                break
        else:
            raise InfeasibleParametersError(
                f"no package size tau makes Theorem 1.4 feasible at n={n}, "
                f"k={k}, eps={eps}, p={p}: the network does not hold enough "
                f"samples (total k samples must be Omega(sqrt(n)/eps^2))"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    tau = hi
    p_uniform, p_far = _alarm_probabilities(n, tau, eps)
    return CongestParameters(
        n=n,
        k=k,
        eps=eps,
        p=p,
        samples_per_node=samples_per_node,
        tau=tau,
        expected_virtual_nodes=total // tau,
        delta=effective_delta(n, tau),
        gamma=gamma_slack(n, tau, eps),
        alarm_prob_uniform=p_uniform,
        alarm_prob_far=p_far,
    )


class CongestTesterProgram(TokenPackagingProgram):
    """Token packaging extended with testing, voting, and the verdict.

    After packaging, each node tests its packages locally (one alarm per
    package containing a collision), convergecasts ``(alarms, packages)``
    pairs up the tree, and the root broadcasts accept/reject.  Every node
    halts with the network verdict (``True`` = uniform).
    """

    def __init__(
        self,
        node_id: int,
        k: int,
        params: CongestParameters,
        token: int,
        token_bits: int,
        warm_start: Optional[WarmStart] = None,
    ) -> None:
        super().__init__(
            node_id=node_id,
            k=k,
            tau=params.tau,
            token=token,
            token_bits=token_bits,
            warm_start=warm_start,
        )
        self.params = params
        self.my_alarms = 0
        self.my_packages = 0
        self.vote_pending: set = set()
        self.vote_alarms = 0
        self.vote_packages = 0
        self.vote_sent = False
        self.decision: Optional[bool] = None

    # -- phase 5: local testing + vote convergecast -------------------------

    def _on_packaged(self, ctx: Context, packages) -> None:
        self.my_packages = len(packages)
        for package in packages:
            if len(set(package)) < len(package):
                self.my_alarms += 1
        self.phase = _VOTE
        self.vote_pending = set(self.children)
        self.vote_alarms = self.my_alarms
        self.vote_packages = self.my_packages
        if not self.vote_pending:
            self._send_vote(ctx)

    def _vote_bits(self) -> int:
        return 2 * bits_for_int(self.k)

    def _send_vote(self, ctx: Context) -> None:
        self.vote_sent = True
        if self.parent is not None:
            ctx.send(
                self.parent,
                (self.vote_alarms, self.vote_packages),
                bits=self._vote_bits(),
                tag=_VOTE,
            )
        else:
            # Root: place the threshold for the realised package count and
            # decide.  A degenerate run with zero packages accepts (it can
            # also only happen when k < 2 tau, outside the solver's regime).
            if self.vote_packages == 0:
                self.decision = True
            else:
                threshold = self.params.threshold_for(self.vote_packages)
                self.decision = self.vote_alarms < threshold
            self.phase = _DECIDE
            for child in self.children:
                ctx.send(child, self.decision, bits=1, tag=_DECIDE)
            ctx.halt(bool(self.decision))

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if self.phase == _VOTE:
            for msg in inbox:
                if msg.tag == _VOTE and msg.src in self.vote_pending:
                    self.vote_pending.discard(msg.src)
                    alarms, packages = msg.payload
                    self.vote_alarms += int(alarms)
                    self.vote_packages += int(packages)
            if not self.vote_pending and not self.vote_sent:
                self._send_vote(ctx)
            elif self.vote_sent and self.parent is not None:
                for msg in inbox:
                    if msg.tag == _DECIDE:
                        self._relay_decision(ctx, bool(msg.payload))
            return
        super().on_round(ctx, inbox)

    def _relay_decision(self, ctx: Context, decision: bool) -> None:
        self.decision = decision
        for child in self.children:
            ctx.send(child, decision, bits=1, tag=_DECIDE)
        ctx.halt(decision)


@dataclass(frozen=True)
class CongestUniformityTester:
    """Runner for the Theorem 1.4 protocol.

    Examples
    --------
    >>> params = congest_parameters(n=2_000, k=4_000, eps=0.8)
    >>> params.tau >= 2
    True
    """

    params: CongestParameters

    @staticmethod
    def solve(
        n: int,
        k: int,
        eps: float,
        p: float = 1.0 / 3.0,
        samples_per_node: int = 1,
    ) -> "CongestUniformityTester":
        """Choose parameters and build the tester."""
        return CongestUniformityTester(
            params=congest_parameters(n, k, eps, p, samples_per_node)
        )

    def run(
        self,
        topology: Topology,
        distribution: DiscreteDistribution,
        rng: SeedLike = None,
        warm_start: bool = False,
        faults: Optional[FaultPlan] = None,
    ) -> Tuple[bool, EngineReport]:
        """Execute the protocol once; returns ``(accepted, report)``.

        Draws one fresh sample per node, simulates the full protocol, and
        returns the network verdict plus measured round/message counts.
        ``warm_start=True`` skips the tree-building phases using the
        topology's cached schedule — same verdict (tested), but the
        report's round count then excludes the ``O(D)`` prefix; keep it
        off when measuring the Theorem 1.4 round bound.

        ``faults`` forwards a fault plan to the engine; this protocol
        assumes reliable delivery (see
        :class:`repro.congest.hardened.HardenedCongestTester` for the
        fault-tolerant variant), so only ``FaultPlan.none()`` is useful
        here — it asserts the bit-identity contract end to end.
        """
        if topology.k != self.params.k:
            raise ParameterError(
                f"tester solved for k={self.params.k}, topology has {topology.k}"
            )
        distribution.require_domain(self.params.n)
        gen = ensure_rng(rng)
        s = self.params.samples_per_node
        samples = distribution.sample_matrix(topology.k, s, gen)
        return self.run_from_samples(
            topology, samples, warm_start=warm_start, faults=faults, rng=gen
        )

    def run_from_samples(
        self,
        topology: Topology,
        samples: np.ndarray,
        warm_start: bool = False,
        faults: Optional[FaultPlan] = None,
        rng: SeedLike = None,
    ) -> Tuple[bool, EngineReport]:
        """Execute the protocol on a fixed ``(k, s)`` sample matrix.

        The deterministic tail of :meth:`run` — everything after the
        sampling step.  Exposed so the trial plane
        (:mod:`repro.congest.trial_plane`) can re-run the engine on the
        exact samples a vectorised trial consumed and compare verdicts
        bit for bit.  The protocol draws no node randomness, so for a
        fixed sample matrix the run is fully deterministic; ``rng`` only
        seeds the engine's (never-materialised) per-node generators.
        """
        samples = np.asarray(samples)
        s = self.params.samples_per_node
        if samples.shape != (topology.k, s):
            raise ParameterError(
                f"expected a ({topology.k}, {s}) sample matrix, got "
                f"{samples.shape}"
            )
        tokens = samples.tolist()  # native ints, one list per node
        token_bits = bits_for_domain(self.params.n)
        bandwidth = max(token_bits, 2 * bits_for_int(topology.k))
        engine = SynchronousEngine(
            topology,
            bandwidth_bits=bandwidth,
            max_rounds=50 * (topology.diameter_upper_bound() + self.params.tau + 10),
            deadlock_quiet_rounds=self.params.tau + 6,
            faults=faults,
            # Telemetry phase labels, one per quiet-separated segment:
            # the CLAIM/COUNT convergecasts share a segment, as do
            # VOTE/DECIDE (no globally-quiet round between them).
            phase_names=(
                ("tokens", "vote_decide")
                if warm_start
                else ("flood", "claim_count", "tokens", "vote_decide")
            ),
        )
        views = (
            warm_start_views(topology, self.params.tau, s) if warm_start else None
        )
        report = engine.run(
            lambda v: CongestTesterProgram(
                node_id=v,
                k=topology.k,
                params=self.params,
                token=tokens[v],
                token_bits=token_bits,
                warm_start=None if views is None else views[v],
            ),
            rng,
        )
        verdicts = set(report.outputs)
        if len(verdicts) != 1:
            raise ParameterError(f"nodes disagree on the verdict: {verdicts}")
        return bool(report.outputs[0]), report

    def estimate_error(
        self,
        topology: Topology,
        distribution: DiscreteDistribution,
        is_uniform: bool,
        trials: int,
        rng: SeedLike = None,
        warm_start: bool = True,
        fast_path: bool = False,
        engine_check: float = 0.0,
    ) -> float:
        """Monte-Carlo error rate over full protocol executions.

        The trials' stream follows ``rng``
        (:func:`~repro.experiments.runner.error_rate`).

        ``warm_start`` (default on) runs each trial from the topology's
        cached tree schedule — the error rate is bit-identical to cold
        trials (the protocols draw no node randomness after sampling, and
        the verdict equivalence is tested) at a fraction of the cost.
        Pass ``False`` to measure the full protocol.

        ``fast_path=True`` (seed-like ``rng`` only) skips the engine
        entirely: trial verdicts are computed in numpy from the
        :class:`~repro.congest.trial_plane.PackagingLayout` of the
        topology's tree schedule, bit-identical per trial to the engine
        route because both consume the same chunk-keyed sample streams.
        ``engine_check`` re-runs that fraction of the trials (at least
        one, a prefix of the same stream) through the real engine and
        raises if any verdict disagrees.  The engine remains the
        measurement of record for rounds/bandwidth; the fast path exists
        for error-rate sweeps, where only the verdict matters.
        """
        from repro.experiments.runner import check_engine_check, error_rate

        check_engine_check(engine_check)
        if fast_path:
            from repro.congest.trial_plane import CongestTrialRunner

            flags = CongestTrialRunner.build(self, topology).run_flags(
                distribution,
                is_uniform,
                trials,
                base_seed=seed_of(rng),
                engine_check=engine_check,
            )
            return float(flags.mean())
        experiment = _CongestTrialExperiment(
            tester=self,
            topology=topology,
            distribution=distribution,
            is_uniform=is_uniform,
            warm_start=warm_start,
        )
        return error_rate(experiment, trials, rng, "congest", topology.k).rate


@dataclass(frozen=True)
class _CongestTrialExperiment:
    """Scalar experiment: one full protocol run, ``True`` = error."""

    tester: CongestUniformityTester
    topology: Topology
    distribution: DiscreteDistribution
    is_uniform: bool
    warm_start: bool = False

    def __call__(self, rng: np.random.Generator) -> bool:
        accepted, _ = self.tester.run(
            self.topology, self.distribution, rng, warm_start=self.warm_start
        )
        return accepted != self.is_uniform
