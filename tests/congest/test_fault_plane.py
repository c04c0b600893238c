"""Fault-plane replay vs the engine: bit-identity per seed.

The contract under test (see ``repro/congest/fault_plane.py``): for any
replayable batch of per-trial-keyed :class:`FaultPlan`\\ s, the
vectorized replay reproduces ``tester.run(topology, dist, rng=seed,
faults=plan)`` exactly — verdict, agreement, and the give-up counters
(``shortfall`` / ``missing_subtrees`` / ``unheard``) — with no engine
runs at build time.  A fixed plan under
``HardenedCongestTester.estimate_error`` is a one-plan batch of the same
replay (:class:`TestFixedPlan`).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.fault_plane import HardenedFaultPlane, replay_hardened_trials
from repro.congest.hardened import (
    HardenedCongestTester,
    PhaseSchedule,
    _HardenedTrialExperiment,
)
from repro.distributions import far_family, uniform
from repro.exceptions import ParameterError, SimulationError
from repro.experiments.robustness import _crash_plan, make_topology
from repro.experiments.runner import error_rate
from repro.simulator.faults import DelayDistribution, FaultPlan

N, K, EPS, P, S = 200, 60, 0.9, 1.0 / 3.0, 64
BASE = 2018


@pytest.fixture(scope="module")
def tester():
    return HardenedCongestTester.solve(N, K, EPS, p=P, samples_per_node=S)


@pytest.fixture(scope="module")
def dist_u():
    return uniform(N)


@pytest.fixture(scope="module")
def dist_far():
    return far_family("paninski", N, EPS, rng=BASE)


def _keyed_plans(trials: int) -> list:
    """A per-trial-keyed batch mixing fault-free, drops, crashes, both
    — the E14 sweep's plan shape."""
    plans = []
    for t in range(trials):
        drop = (0.0, 0.05, 0.1, 0.0)[t % 4]
        crashes = _crash_plan(K, 0.1, 30, BASE, t) if t % 2 else {}
        plans.append(
            FaultPlan(seed=BASE * 1_000_003 + t, drop_prob=drop,
                      crashes=crashes)
        )
    return plans


class TestEngineParity:
    @pytest.mark.parametrize("topo_name", ["star", "ring", "grid"])
    def test_verdicts_and_counters_match_engine(
        self, tester, dist_u, dist_far, topo_name
    ):
        topo = make_topology(topo_name, K)
        plans = _keyed_plans(4)
        # The last plan reuses the first seed: score_seeds draws it once.
        seeds = [BASE + t % 3 for t in range(len(plans))]
        plane = HardenedFaultPlane.build(tester, topo, plans)
        for dist in (dist_u, dist_far):
            score = plane.score_seeds(dist, seeds)
            for i, (plan, seed) in enumerate(zip(plans, seeds)):
                res = tester.run(topo, dist, rng=seed, faults=plan)
                assert score.verdicts[i] is res.verdict
                assert score.agreement[i] == res.agreement
                assert int(plane.trials.shortfall[i]) == res.shortfall
                assert (
                    int(plane.trials.missing_subtrees[i])
                    == res.missing_subtrees
                )
                assert int(plane.trials.unheard[i]) == res.unheard
                # check_against_engine packages the same comparison.
                plane.trials.check_against_engine(
                    i, res, score.verdicts[i], float(score.agreement[i])
                )

    def test_edge_overrides_and_heavy_loss(self, tester, dist_far):
        """Per-edge drop overrides and loss heavy enough to force
        give-ups still replay exactly."""
        topo = make_topology("ring", K)
        plans = [
            FaultPlan(seed=5, drop_prob=0.2, edge_drop={(0, 1): 1.0}),
            FaultPlan(seed=6, drop_prob=0.3,
                      crashes=_crash_plan(K, 0.2, 30, 7, 1)),
        ]
        plane = HardenedFaultPlane.build(tester, topo, plans)
        score = plane.score_seeds(dist_far, [41, 42])
        for i, (plan, seed) in enumerate(zip(plans, [41, 42])):
            res = tester.run(topo, dist_far, rng=seed, faults=plan)
            plane.trials.check_against_engine(
                i, res, score.verdicts[i], float(score.agreement[i])
            )

    def test_divergence_raises_simulation_error(self, tester, dist_u):
        topo = make_topology("star", K)
        plan = FaultPlan(seed=9, drop_prob=0.05)
        plane = HardenedFaultPlane.build(tester, topo, [plan])
        score = plane.score_seeds(dist_u, [BASE])
        res = tester.run(topo, dist_u, rng=BASE, faults=plan)
        with pytest.raises(SimulationError, match="bit-identity"):
            plane.trials.check_against_engine(
                0, res, score.verdicts[0], float(score.agreement[0]) + 0.5
            )


class TestSweepFastPath:
    def test_faulty_grid_matches_engine_sweep(self):
        """robustness_sweep(fast_path=True) reproduces the engine sweep
        column for column on a grid with drops AND crashes."""
        from repro.experiments import robustness_sweep

        kwargs = dict(
            n=N, k=K, eps=EPS, p=P, samples_per_node=S, topology="star",
            drop_probs=(0.0, 0.05), crash_fractions=(0.0, 0.1), trials=2,
            base_seed=BASE,
        )
        engine = robustness_sweep(**kwargs)
        fast = robustness_sweep(**kwargs, fast_path=True, engine_check=1.0)
        for a, b in zip(engine, fast):
            assert (a.error_uniform, a.error_far, a.no_verdict) == (
                b.error_uniform, b.error_far, b.no_verdict
            )
            assert a.mean_rounds == b.mean_rounds
            assert a.mean_drops == b.mean_drops
            assert a.mean_missing_subtrees == b.mean_missing_subtrees
            assert a.mean_shortfall == b.mean_shortfall
            assert a.mean_unheard == b.mean_unheard
            assert a.mean_agreement == b.mean_agreement
        assert all(pt.engine_trials == pt.trials for pt in fast)
        assert all(pt.fast_path_seconds > 0.0 for pt in fast)

    def test_engine_check_zero_skips_engine(self):
        from repro.experiments import robustness_sweep

        points = robustness_sweep(
            n=N, k=K, eps=EPS, p=P, samples_per_node=S, topology="star",
            drop_probs=(0.05,), crash_fractions=(0.0,), trials=2,
            base_seed=BASE, fast_path=True, engine_check=0.0,
        )
        (pt,) = points
        assert pt.engine_trials == 0
        assert pt.mean_rounds == 0.0 and pt.mean_drops == 0.0
        assert pt.engine_seconds < pt.fast_path_seconds


class TestFixedPlan:
    """``estimate_error`` under one fixed plan: a one-plan replay whose
    root fragment feeds the trial plane's kernel, bit-identical per
    trial to the engine route."""

    @staticmethod
    def _routes(tester, topo, dist, is_uniform, plan, trials=4):
        """(fast rate audited on every trial, engine-route rate)."""
        fast = tester.estimate_error(
            topo, dist, is_uniform, trials, rng=3, faults=plan,
            engine_check=1.0,
        )
        engine = tester.estimate_error(
            topo, dist, is_uniform, trials, rng=3, faults=plan,
            fast_path=False,
        )
        return fast, engine

    @pytest.mark.parametrize("topo_name", ["star", "ring", "grid"])
    @pytest.mark.parametrize("drop", [0.0, 0.02])
    def test_fast_route_matches_engine(
        self, tester, dist_u, dist_far, topo_name, drop
    ):
        topo = make_topology(topo_name, K)
        plan = FaultPlan(seed=42, drop_prob=drop)
        for dist, is_uniform in ((dist_u, True), (dist_far, False)):
            fast, engine = self._routes(tester, topo, dist, is_uniform, plan)
            assert fast == engine

    def test_crashed_root_errs_on_every_trial(self, tester, dist_far):
        """A plan that kills the elected root: no verdict, so every trial
        errs on both routes regardless of the distribution."""
        topo = make_topology("star", K)
        plan = FaultPlan(seed=5, crashes={K - 1: 2})
        assert not replay_hardened_trials(tester, topo, [plan]).root_alive[0]
        assert tester.run(topo, dist_far, rng=BASE, faults=plan).verdict is None
        assert self._routes(tester, topo, dist_far, False, plan) == (1.0, 1.0)

    def test_crashed_leaf_shrinks_counted_packages(self, tester, dist_far):
        """Crashing a leaf removes its tokens from the packages the root
        counts (the root thresholds against the smaller ell), and the
        fast route still matches the engine."""
        topo = make_topology("star", K)
        plan = FaultPlan(seed=3, crashes={5: 1})

        def counted(p: FaultPlan) -> np.ndarray:
            replayed = replay_hardened_trials(tester, topo, [p])
            assert replayed.root_alive[0]
            return replayed.members[replayed.pkg_root == K - 1]

        full, crashed = counted(FaultPlan.none()), counted(plan)
        assert (full // S == 5).any()
        assert not (crashed // S == 5).any()
        assert len(crashed) < len(full)
        fast, engine = self._routes(tester, topo, dist_far, False, plan)
        assert fast == engine

    def test_unreplayable_plan_needs_engine_route(self, tester, dist_far):
        """A delay plan or a vote-window crash is outside the replay's
        validity contract: the default fast path raises, and
        ``fast_path=False`` returns the engine rate."""
        topo = make_topology("star", K)
        sch = PhaseSchedule.build(
            topo.diameter_upper_bound(), tester.params.tau, tester.policy
        )
        plans = [
            FaultPlan(seed=1, delay=DelayDistribution(outcomes=((2, 0.5),))),
            FaultPlan(seed=1, crashes={5: sch.tokens_end + 1}),
        ]
        for plan in plans:
            with pytest.raises(ParameterError):
                tester.estimate_error(
                    topo, dist_far, False, 3, rng=3, faults=plan
                )
            expected = error_rate(
                _HardenedTrialExperiment(
                    tester=tester, topology=topo, distribution=dist_far,
                    is_uniform=False, faults=plan,
                ),
                3,  # trials
                3,  # rng
                "hardened",
                K,
            )
            assert tester.estimate_error(
                topo, dist_far, False, 3, rng=3, faults=plan,
                fast_path=False,
            ) == expected.rate


class TestReplayabilityContract:
    def test_delay_plans_rejected(self, tester):
        topo = make_topology("star", K)
        plan = FaultPlan(
            seed=1, delay=DelayDistribution(outcomes=((2, 0.5),))
        )
        with pytest.raises(ParameterError, match="delay"):
            HardenedFaultPlane.build(tester, topo, [plan])

    def test_crash_inside_decide_window_rejected(self, tester):
        """Crashes after packaging but before the final halt are outside
        the replay's validity window."""
        topo = make_topology("star", K)
        sch = PhaseSchedule.build(
            topo.diameter_upper_bound(), tester.params.tau, tester.policy
        )
        plan = FaultPlan(seed=1, crashes={0: sch.tokens_end + 1})
        with pytest.raises(ParameterError, match="crash"):
            HardenedFaultPlane.build(tester, topo, [plan])
        # ... but crashing after every node has halted is fine.
        late = FaultPlan(seed=1, crashes={0: sch.decide_end + 1})
        HardenedFaultPlane.build(tester, topo, [late])

    def test_seed_count_mismatch_rejected(self, tester, dist_u):
        topo = make_topology("star", K)
        plane = HardenedFaultPlane.build(
            tester, topo, [FaultPlan(seed=1), FaultPlan(seed=2)]
        )
        with pytest.raises(ParameterError, match="seed"):
            plane.score_seeds(dist_u, [1, 2, 3])


class TestDriverDrawScoring:
    def test_driver_batch_shape_rejected(self, tester, dist_u):
        topo = make_topology("star", K)
        plane = HardenedFaultPlane.build(tester, topo, [FaultPlan(seed=1)])
        with pytest.raises(ParameterError, match="sample batch"):
            plane.trials.score_uniform(np.zeros((2, 4)), dist_u)
