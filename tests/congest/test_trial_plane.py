"""Tests for the vectorised trial plane: layout replay + batched verdicts.

The load-bearing property throughout: the fast path must be
**bit-identical per seed** to the engine path — same samples, same
verdict — because the protocol's control flow never reads a token's
value.  Every test here pins some face of that contract against real
engine runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import (
    CongestTrialRunner,
    CongestUniformityTester,
    HardenedCongestTester,
    PackagingLayout,
)
from repro.distributions import far_family, uniform
from repro.exceptions import ParameterError, SimulationError
from repro.experiments import make_topology
from repro.simulator import FaultPlan, Topology

# Same instance the hardened tests pin: smallest Theorem 1.4 solve
# feasible at p = 1/3 with a benchmark-sized network (tau=6, 640
# packages from 60 nodes x 64 samples).
N, K, EPS, P, S = 200, 60, 0.9, 1.0 / 3.0, 64
TOPOLOGIES = ["star", "ring", "grid"]
SEEDS = [11, 22, 33, 44]


@pytest.fixture(scope="module")
def tester():
    return CongestUniformityTester.solve(N, K, EPS, P, S)


@pytest.fixture(scope="module")
def hardened_tester():
    return HardenedCongestTester.solve(N, K, EPS, P, S)


@pytest.fixture(scope="module")
def far():
    return far_family("paninski", N, EPS, rng=0)


class TestPackagingLayout:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    @pytest.mark.parametrize("tau,s", [(3, 1), (6, 64), (5, 7)])
    def test_matches_engine_packaging(self, name, tau, s):
        """Property: simulated membership == the engine's realised
        packages, per node and in order, on every benchmark topology."""
        topo = make_topology(name, K)
        layout = PackagingLayout.from_schedule(topo, tau, s)
        check = layout.verify_layout(topo)
        assert check.equivalent, check.mismatched_nodes

    @pytest.mark.parametrize("tau,s", [(2, 1), (4, 5), (7, 3)])
    def test_partition_invariants(self, tau, s):
        """Packages + drops partition the k*s slots; |drops| < tau."""
        topo = Topology.line(23)
        layout = PackagingLayout.from_schedule(topo, tau, s)
        total = topo.k * s
        assert layout.virtual_nodes == total // tau
        assert len(layout.dropped) == total % tau
        slots = np.concatenate(
            [layout.members.ravel(), np.asarray(layout.dropped, dtype=int)]
        )
        assert sorted(slots.tolist()) == list(range(total))
        assert layout.members.shape == (layout.virtual_nodes, tau)
        assert layout.package_owner.shape == (layout.virtual_nodes,)

    def test_cached_on_schedule(self):
        topo = Topology.star(17)
        first = PackagingLayout.from_schedule(topo, 3)
        assert PackagingLayout.from_schedule(topo, 3) is first
        assert PackagingLayout.from_schedule(topo, 4) is not first

    def test_rejects_bad_parameters(self):
        topo = Topology.star(5)
        with pytest.raises(ParameterError, match="tau"):
            PackagingLayout.from_schedule(topo, 0)
        with pytest.raises(ParameterError, match="tokens_per_node"):
            PackagingLayout.from_schedule(topo, 2, 0)
        layout = PackagingLayout.from_schedule(topo, 2)
        with pytest.raises(ParameterError, match="k=5"):
            layout.verify_layout(Topology.star(6))


class TestCongestTrialRunner:
    @pytest.mark.parametrize("name", TOPOLOGIES)
    def test_per_seed_verdicts_match_engine(self, tester, far, name):
        """Fast-path verdict i == tester.run(..., rng=seeds[i])."""
        topo = make_topology(name, K)
        runner = CongestTrialRunner.build(tester, topo)
        for dist in (uniform(N), far):
            fast = runner.verdicts_for_seeds(dist, SEEDS)
            engine = [
                tester.run(topo, dist, rng=seed, warm_start=True)[0]
                for seed in SEEDS
            ]
            assert fast == engine

    def test_estimate_error_routes_agree(self, tester, far):
        """estimate_error(fast_path=True) == the engine route, trial by
        trial — engine_check=1.0 re-runs every trial and would raise."""
        topo = make_topology("star", K)
        fast = tester.estimate_error(
            topo, far, False, 6, rng=9, fast_path=True, engine_check=1.0
        )
        engine = tester.estimate_error(topo, far, False, 6, rng=9)
        assert fast == engine

    def test_engine_check_detects_divergence(self, tester, far):
        """A runner with a corrupted threshold must fail the check."""
        topo = make_topology("star", K)
        good = CongestTrialRunner.build(tester, topo)
        bad = CongestTrialRunner(
            tester=tester,
            topology=topo,
            layout=good.layout,
            threshold=0,  # reject everything: diverges on accepting trials
        )
        with pytest.raises(SimulationError, match="diverge"):
            bad.run_flags(uniform(N), True, 6, base_seed=9, engine_check=1.0)

    def test_engine_check_validation(self, tester, far):
        topo = make_topology("star", K)
        runner = CongestTrialRunner.build(tester, topo)
        with pytest.raises(ParameterError, match="engine_check"):
            runner.run_flags(far, False, 4, engine_check=1.5)

    def test_topology_mismatch_rejected(self, tester):
        with pytest.raises(ParameterError, match="solved for k"):
            CongestTrialRunner.build(tester, Topology.star(K + 1))


class TestHardenedTrialRunner:
    """The hardened tester's fast trial route under a fixed fault plan."""

    def test_estimate_error_routes_agree(self, hardened_tester, far):
        topo = make_topology("star", K)
        plan = FaultPlan(seed=7, drop_prob=0.02)
        fast = hardened_tester.estimate_error(
            topo, far, False, 5, rng=3, faults=plan, fast_path=True,
            engine_check=1.0,
        )
        engine = hardened_tester.estimate_error(
            topo, far, False, 5, rng=3, faults=plan, fast_path=False
        )
        assert fast == engine


class TestRobustnessSweepFastPath:
    def test_fault_free_points_replayed(self):
        """fast_path sweeps reproduce the engine sweep's error columns,
        with the engine_check subset supplying the degradation stats."""
        from repro.experiments import robustness_sweep

        kwargs = dict(
            n=N, k=K, eps=EPS, p=P, samples_per_node=S, topology="star",
            drop_probs=(0.0, 0.02), crash_fractions=(0.0,), trials=3,
            base_seed=5,
        )
        engine = robustness_sweep(**kwargs)
        fast = robustness_sweep(**kwargs, fast_path=True, engine_check=1.0)
        for a, b in zip(engine, fast):
            assert (a.error_uniform, a.error_far, a.no_verdict) == (
                b.error_uniform,
                b.error_far,
                b.no_verdict,
            )
            assert a.mean_rounds == b.mean_rounds
