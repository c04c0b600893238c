"""The Section 6 LOCAL-model uniformity tester.

Each node holds one sample.  For a radius ``r``:

1. Luby's MIS runs on the power graph ``G^r`` (each ``G^r`` round costs
   ``r`` rounds of ``G``).
2. Every node routes its sample to the closest MIS node within ``r`` hops
   (``≤ r`` rounds; LOCAL messages are unbounded).
3. The MIS nodes act as the virtual nodes of the 0-round AND-rule tester
   (Theorem 1.1); the network decision is the AND of all outputs, with
   non-MIS nodes always accepting.

Radius economics: at most ``⌊2k/r⌋`` MIS nodes, each holding at least
``r/2`` samples — growing ``r`` trades rounds for per-virtual-node sample
mass until Theorem 1.1's construction turns feasible.
:meth:`LocalUniformityTester.choose_radius` finds that point by doubling,
mirroring the paper's closed-form radius (reported side by side by
benchmark E7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import AndRuleParameters, and_rule_parameters
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import InfeasibleParametersError, ParameterError
from repro.experiments.runner import check_engine_check, error_rate, live_stream
from repro.localmodel.gather import GatherResult, assign_catchments
from repro.localmodel.mis import luby_mis, verify_mis
from repro.rng import SeedLike, ensure_rng, seed_of
from repro.simulator.graph import Topology


@dataclass(frozen=True)
class LocalTestReport:
    """Outcome and accounting of one LOCAL tester execution.

    Attributes
    ----------
    accepted:
        The network verdict (AND of all node outputs).
    radius:
        The gathering radius ``r`` used.
    mis_size:
        Number of virtual nodes (MIS of ``G^r``).
    min_catchment:
        Smallest sample pile at any MIS node (≥ r/2 by Section 6).
    rounds:
        Total LOCAL rounds charged:
        ``(MIS rounds on G^r) · r + routing rounds``.
    mis_rounds_on_power_graph:
        Rounds Luby's algorithm took on ``G^r`` (before the ×r charge).
    params:
        The Theorem 1.1 parameters run at the MIS nodes.
    """

    accepted: bool
    radius: int
    mis_size: int
    min_catchment: int
    rounds: int
    mis_rounds_on_power_graph: int
    params: AndRuleParameters


@dataclass(frozen=True)
class LocalPlan:
    """A prepared MIS + gathering structure, reusable across trials.

    The structural phases (power graph, Luby MIS, catchment routing) do
    not depend on the sample values, so experiments amortise them across
    Monte-Carlo trials; only the sampling and the 0-round decisions rerun.
    """

    radius: int
    mis_size: int
    min_catchment: int
    mis_rounds_on_power_graph: int
    routing_rounds: int
    gather: GatherResult
    params: AndRuleParameters

    @property
    def rounds(self) -> int:
        """Total LOCAL rounds: ``(MIS rounds on G^r) · r + routing``."""
        return self.mis_rounds_on_power_graph * self.radius + self.routing_rounds


@dataclass(frozen=True)
class LocalUniformityTester:
    """End-to-end Section 6 tester.

    Parameters
    ----------
    n:
        Domain size.
    eps:
        Distance parameter.
    p:
        Error budget (both sides).
    """

    n: int
    eps: float
    p: float = 1.0 / 3.0

    def solve_for_layout(
        self, virtual: int, min_catchment: int, r: int
    ) -> AndRuleParameters:
        """Place the Theorem 1.1 parameters on a realised MIS structure.

        The one feasibility rule every route shares — the engine-backed
        :meth:`plan`, the doubling :meth:`choose_radius` search, and the
        trial plane's :meth:`~repro.localmodel.local_plane.LocalTrialRunner.build`
        — so they cannot drift apart.

        Raises
        ------
        InfeasibleParametersError
            If the virtual nodes do not hold enough samples for the
            Theorem 1.1 construction at this radius (increase ``r``).
        """
        params = and_rule_parameters(self.n, virtual, self.eps, self.p)
        if params.samples_per_node > min_catchment:
            raise InfeasibleParametersError(
                f"radius r={r} gives {virtual} virtual nodes holding as few "
                f"as {min_catchment} samples, but Theorem 1.1 needs "
                f"{params.samples_per_node} per virtual node — increase r"
            )
        return params

    def plan(self, topology: Topology, r: int, rng: SeedLike = None) -> LocalPlan:
        """Run the structural phases (MIS + gather) at radius *r*.

        Raises
        ------
        InfeasibleParametersError
            If the MIS virtual nodes do not hold enough samples for the
            Theorem 1.1 construction at this radius (increase ``r``).
        """
        if r < 1:
            raise ParameterError(f"radius must be >= 1, got {r}")
        gen = ensure_rng(rng)
        radius = min(r, topology.k - 1) if topology.k > 1 else 1
        power = topology.power_graph(radius) if topology.k > 1 else topology
        mis, mis_rounds = luby_mis(power, gen)
        verify_mis(power, mis)
        gather = assign_catchments(topology, mis, radius)
        virtual = len(gather.samples_at)
        min_catchment = min(len(v) for v in gather.samples_at.values())
        params = self.solve_for_layout(virtual, min_catchment, r)
        return LocalPlan(
            radius=radius,
            mis_size=virtual,
            min_catchment=min_catchment,
            mis_rounds_on_power_graph=mis_rounds,
            routing_rounds=gather.routing_rounds,
            gather=gather,
            params=params,
        )

    def test_with_plan(
        self,
        plan: LocalPlan,
        distribution: DiscreteDistribution,
        rng: SeedLike = None,
    ) -> bool:
        """One fresh-sample decision over a prepared plan (True = accept)."""
        distribution.require_domain(self.n)
        gen = ensure_rng(rng)
        samples = distribution.sample(len(plan.gather.owner), gen)
        node_tester = plan.params.build_node_tester()
        accepted = True
        for owner in sorted(plan.gather.samples_at):
            pile = plan.gather.samples_at[owner]
            batch = samples[np.asarray(pile[: plan.params.samples_per_node])]
            if not node_tester.decide(batch):
                accepted = False
        return accepted

    def run(
        self,
        topology: Topology,
        distribution: DiscreteDistribution,
        r: int,
        rng: SeedLike = None,
    ) -> LocalTestReport:
        """Execute the full protocol once at radius *r* (plan + decide)."""
        gen = ensure_rng(rng)
        plan = self.plan(topology, r, gen)
        accepted = self.test_with_plan(plan, distribution, gen)
        return LocalTestReport(
            accepted=accepted,
            radius=plan.radius,
            mis_size=plan.mis_size,
            min_catchment=plan.min_catchment,
            rounds=plan.rounds,
            mis_rounds_on_power_graph=plan.mis_rounds_on_power_graph,
            params=plan.params,
        )

    def choose_radius(
        self,
        topology: Topology,
        rng: SeedLike = None,
        start: int = 2,
        fast_path: bool = False,
    ) -> int:
        """Smallest power-of-two-ish radius at which the tester is feasible.

        Doubles ``r`` until a trial MIS/gather supports Theorem 1.1;
        raises if even ``r = k − 1`` (full gathering at one node) fails —
        which means the whole network lacks ``Θ(√n/ε²)`` samples.

        Each probe is one full :meth:`plan` call (same structural code,
        same ``verify_mis`` cross-check, same rng consumption), so the
        search cannot diverge from the plan it recommends.  With
        ``fast_path=True`` (seed-like rng only) the probes instead replay
        the MIS structurally via
        :class:`~repro.localmodel.local_plane.LocalLayout`, sharing the
        per-``(radius, seed)`` layout cache with any subsequent
        fast-path error sweep — the returned radius is feasible by the
        same :meth:`solve_for_layout` rule, though the probe MIS coins
        are keyed per radius rather than drawn sequentially.
        """
        if fast_path:
            from repro.localmodel.local_plane import LocalLayout

            base_seed = seed_of(rng)
        else:
            gen = ensure_rng(rng)
        r = max(1, start)
        while r < 2 * topology.k:
            radius = min(r, topology.k - 1) if topology.k > 1 else 1
            try:
                if fast_path:
                    layout = LocalLayout.build(topology, r, base_seed=base_seed)
                    self.solve_for_layout(
                        layout.mis_size, layout.min_catchment, r
                    )
                else:
                    self.plan(topology, r, gen)
                return radius
            except InfeasibleParametersError:
                pass
            if radius >= topology.k - 1:
                break
            r *= 2
        raise InfeasibleParametersError(
            f"no radius makes the LOCAL tester feasible on k={topology.k} "
            f"nodes at n={self.n}, eps={self.eps}, p={self.p}: the network "
            "holds too few samples in total"
        )

    def estimate_error(
        self,
        topology: Topology,
        distribution: DiscreteDistribution,
        is_uniform: bool,
        r: int,
        trials: int,
        rng: SeedLike = None,
        fast_path: bool = False,
        engine_check: float = 0.0,
    ) -> float:
        """Monte-Carlo error rate, amortising one plan across all trials.

        A fresh MIS per trial would only add independent randomness the
        0-round guarantee does not rely on; the structural plan is fixed
        and each trial draws fresh samples, matching the model.

        The trials' stream follows ``rng``
        (:func:`~repro.experiments.runner.error_rate`); a seed-like rng
        also keys the MIS coins
        (:func:`~repro.localmodel.local_plane.mis_generator`), a
        ``Generator`` draws them first from its one stream.
        ``fast_path=True`` (seed-like rng only) routes the trials through
        the vectorised
        :class:`~repro.localmodel.local_plane.LocalTrialRunner`
        (bit-identical flags; ``engine_check`` re-runs a prefix through
        the scalar tester and cross-checks the layout against a real
        engine MIS, raising ``SimulationError`` on divergence).
        """
        from repro.localmodel.local_plane import (
            LocalTrialRunner,
            effective_radius,
            mis_generator,
        )

        check_engine_check(engine_check)
        if fast_path:
            runner = LocalTrialRunner.build(
                self, topology, r, base_seed=seed_of(rng)
            )
            flags = runner.run_flags(
                distribution, is_uniform, trials, engine_check=engine_check
            )
            return float(flags.mean())
        stream = live_stream(rng)
        if stream is None:
            plan_rng = mis_generator(seed_of(rng), effective_radius(topology, r))
        else:
            rng = plan_rng = stream  # the trials follow the plan's draws
        experiment = _LocalTrialExperiment(
            tester=self,
            plan=self.plan(topology, r, plan_rng),
            distribution=distribution,
            is_uniform=is_uniform,
        )
        return error_rate(experiment, trials, rng, "local", topology.k).rate


@dataclass(frozen=True)
class _LocalTrialExperiment:
    """Scalar trial: one fresh-sample decision over a fixed plan."""

    tester: LocalUniformityTester
    plan: LocalPlan
    distribution: DiscreteDistribution
    is_uniform: bool

    def __call__(self, rng: np.random.Generator) -> bool:
        accepted = self.tester.test_with_plan(self.plan, self.distribution, rng)
        return accepted != self.is_uniform
