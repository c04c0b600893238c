"""The benchmark's three workloads: set-up, timed calls and oracles.

Each workload is a :class:`Workload` whose ``build(seed)`` does the set-up
(solving parameters, building topologies and layouts) and returns a
:class:`State`.  ``State.call(index)`` gives the ``index``-th timed call.
Calls repeat in a fixed *cycle* of call kinds, and every call draws its
inputs from a seed derived from ``(workload seed, call index)``, so the
same seed always gives the same calls.

A call is one public entry point of ``repro``: one cold protocol ``run``,
one trial-plane ``run_flags`` (the flags whose mean ``error_rate`` and
``estimate_error`` return) or one ``robustness_sweep``.  Its ``check``
is the correctness oracle.  It runs outside the timed region and
compares the fast route with that route's scalar or engine reference,
never with committed numbers.  Its ``same`` compares two results bit for
bit, which the traced run uses to check that tracing changes nothing.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import hostspeed
from repro.congest import CongestTrialRunner, CongestUniformityTester
from repro.distributions import DiscreteDistribution, far_family, uniform
from repro.experiments import TrialRunner
from repro.experiments.robustness import robustness_sweep
from repro.localmodel import LocalTrialRunner, LocalUniformityTester
from repro.simulator import Topology
from repro.smp import (
    BCGMapping,
    EqualityProtocol,
    EqualityTrialRunner,
    TesterBasedEqualityProtocol,
)
from repro.core.collision import CollisionGapTester
from repro.zeroround import AndRuleNetworkTester, ThresholdNetworkTester
from repro.zeroround.network import (
    AndNetworkErrorKernel,
    ThresholdNetworkErrorKernel,
    ZeroRoundNetwork,
    auto_batch,
)


def call_seed(seed: int, index: int) -> int:
    """The input seed of call ``index`` in a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass(frozen=True)
class Call:
    """One timed public call and how to check its result."""

    label: str
    #: Monte-Carlo trials the call completes (protocol runs for a sweep).
    trials: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    same: Callable[[Any, Any], bool]


@dataclass
class State:
    """What ``Workload.build`` returns: the cycle of call makers."""

    cycle: Tuple[Callable[[int, int], Call], ...]
    seed: int

    def call(self, index: int) -> Call:
        make = self.cycle[index % len(self.cycle)]
        return make(index, call_seed(self.seed, index))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], State]
    #: The host speed probe whose work resembles the workload's.
    probe: hostspeed.Probe


def _flags_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(a, b))


def _prefix_matches(flags: np.ndarray, reference: np.ndarray) -> bool:
    return bool(np.array_equal(flags[: len(reference)], reference))


# ---------------------------------------------------------------------------
# engine_cold — full cold Theorem 1.4 runs on the synchronous engine
# ---------------------------------------------------------------------------

COLD_N, COLD_K, COLD_EPS, COLD_S = 500, 1000, 0.9, 3
COLD_GRID = (25, 40)


@functools.lru_cache(maxsize=None)
def _grid_diameter(rows: int, cols: int) -> int:
    """Exact diameter, on a topology of its own: once a topology knows its
    exact diameter it stops using the 2-approximation for round budgets,
    which would change the runs being measured."""
    return Topology.grid(rows, cols).diameter()


def build_engine_cold(seed: int) -> State:
    tester = CongestUniformityTester.solve(
        COLD_N, COLD_K, COLD_EPS, samples_per_node=COLD_S
    )
    topology = Topology.grid(*COLD_GRID)
    # The oracle's reference: the trial plane's per-seed verdicts.
    reference = CongestTrialRunner.build(tester, topology)
    dists = (uniform(COLD_N), far_family("paninski", COLD_N, COLD_EPS, rng=seed))

    def make(index: int, cseed: int) -> Call:
        dist = dists[index % 2]

        def run():
            accepted, report = tester.run(topology, dist, rng=cseed, warm_start=False)
            return accepted, report.rounds, report.messages, report.halted

        def check(result) -> bool:
            accepted, rounds, _, halted = result
            return (
                halted
                and rounds <= tester.params.predicted_rounds(_grid_diameter(*COLD_GRID))
                and accepted == reference.verdicts_for_seeds(dist, [cseed])[0]
            )

        return Call(
            label=("uniform", "far")[index % 2],
            trials=1,
            run=run,
            check=check,
            same=lambda a, b: a == b,
        )

    return State(cycle=(make, make), seed=seed)


# ---------------------------------------------------------------------------
# trial_planes — error-rate calls through every vectorised fast path
# ---------------------------------------------------------------------------

#: Trials per call, sized so that every call kind takes a similar time
#: (about 0.15 s on a 2-core Xeon), which keeps ``call_s_p50`` inside one
#: cluster of call durations instead of on a boundary between kinds.
PLANE_TRIALS = {
    "congest": 450,
    "threshold": 3,
    "and_rule": 90,
    "local": 3500,
    "torus": 1_100_000,
    "bcg": 130_000,
}
#: Leading trials of each call that the oracle replays through the
#: route's scalar or engine reference.
PLANE_PREFIX = {
    "congest": 2,
    "threshold": 1,
    "and_rule": 4,
    "local": 32,
    "torus": 32,
    "bcg": 32,
}


@dataclass(frozen=True)
class _EngineTrial:
    """Reference for the CONGEST plane: one warm engine run per trial."""

    tester: CongestUniformityTester
    topology: Topology
    distribution: DiscreteDistribution
    is_uniform: bool

    def __call__(self, rng: np.random.Generator) -> bool:
        accepted, _ = self.tester.run(
            self.topology, self.distribution, rng, warm_start=True
        )
        return accepted != self.is_uniform


@dataclass(frozen=True)
class _ObjectModelTrial:
    """Reference for the zero-round kernels: the object-model network.

    Draws one trial's samples in one call (the stream ``ZeroRoundNetwork.run``
    consumes node by node, since numpy streams are prefix-stable) and lets
    every node's centralized tester and the network's decision rule decide.
    No sort-based collision kernel is involved.
    """

    network: ZeroRoundNetwork
    distribution: DiscreteDistribution
    is_uniform: bool

    def __call__(self, rng: np.random.Generator) -> bool:
        samples = self.distribution.sample(self.network.total_samples_per_trial, rng)
        accepts = np.ones(self.network.k, dtype=bool)
        offset = 0
        for i, node in enumerate(self.network.testers):
            width = node.samples_required
            accepts[i] = node.decide(samples[offset : offset + width])
            offset += width
        return self.network.rule.decide(accepts) != self.is_uniform


@dataclass(frozen=True)
class _LocalTrial:
    """Reference for the LOCAL plane: the scalar ``test_with_plan``."""

    runner: LocalTrialRunner
    distribution: DiscreteDistribution
    is_uniform: bool

    def __call__(self, rng: np.random.Generator) -> bool:
        accepted = self.runner.tester.test_with_plan(
            self.runner.plan, self.distribution, rng
        )
        return accepted != self.is_uniform


def _input_pair(seed: int, n_bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """A seeded input and its one-bit-flip neighbour (the hardest pair)."""
    x = np.random.default_rng([seed, 17]).integers(0, 2, size=n_bits)
    y = x.copy()
    y[0] ^= 1
    return x, y


def build_trial_planes(seed: int) -> State:
    # E6 shape: the CONGEST trial plane on star(3000).
    congest = CongestUniformityTester.solve(500, 3000, 0.9)
    star = Topology.star(3000)
    congest_runner = CongestTrialRunner.build(congest, star)
    congest_dists = (uniform(500), far_family("paninski", 500, 0.9, rng=seed))

    # E3 and E2 shapes: the zero-round threshold and AND-rule networks.
    threshold = ThresholdNetworkTester.solve(50_000, 10_000, 0.9).params
    and_rule = AndRuleNetworkTester.solve(50_000, 1024, 1.0, 0.45).params
    zr_uniform = uniform(50_000)
    threshold_dists = (zr_uniform, far_family("paninski", 50_000, 0.9, rng=seed))
    and_dists = (zr_uniform, far_family("paninski", 50_000, 1.0, rng=seed))
    threshold_net = ThresholdNetworkTester(threshold).as_network()
    and_net = AndRuleNetworkTester(and_rule).as_network()

    # E7 shape: the LOCAL plane on ring(4096) at r=64.
    local_tester = LocalUniformityTester(n=20_000, eps=1.0, p=0.45)
    local_runner = LocalTrialRunner.build(
        local_tester, Topology.ring(4096), 64, base_seed=seed
    )
    local_dists = (uniform(20_000), far_family("paninski", 20_000, 1.0, rng=seed))

    # E17 shape: the SMP torus and BCG planes.
    torus = EqualityProtocol.build(256, delta=0.05, tau=2.0)
    mapping = BCGMapping(code=torus.code)
    bcg = TesterBasedEqualityProtocol(
        mapping=mapping,
        tester=CollisionGapTester.from_delta(mapping.domain_size, 0.05),
    )
    x, y = _input_pair(seed, 256)
    smp_inputs = ((x, x), (x, y))

    def congest_call(side: int) -> Callable[[int, int], Call]:
        dist, is_uniform = congest_dists[side], side == 0

        def make(index: int, cseed: int) -> Call:
            trials = PLANE_TRIALS["congest"]

            def check(flags) -> bool:
                reference = TrialRunner(base_seed=cseed).run_flags(
                    _EngineTrial(congest, star, dist, is_uniform),
                    PLANE_PREFIX["congest"], "congest", star.k,
                )
                return _prefix_matches(flags, reference)

            return Call(
                label=f"congest/{('uniform', 'far')[side]}",
                trials=trials,
                run=lambda: congest_runner.run_flags(
                    dist, is_uniform, trials, base_seed=cseed
                ),
                check=check,
                same=_flags_equal,
            )

        return make

    def zero_round_call(kind: str, side: int) -> Callable[[int, int], Call]:
        if kind == "threshold":
            p, dist, network = threshold, threshold_dists[side], threshold_net
            kernel = ThresholdNetworkErrorKernel(
                dist, p.k, p.s, p.threshold, side == 0
            )
            labels, width = ("threshold_rule", p.k), p.k * p.s
        else:
            p, dist, network = and_rule, and_dists[side], and_net
            kernel = AndNetworkErrorKernel(
                dist, p.k, p.m, p.s_per_repetition, side == 0
            )
            labels, width = ("and_rule", p.k), p.k * p.m * p.s_per_repetition

        def make(index: int, cseed: int) -> Call:
            trials = PLANE_TRIALS[kind]

            def check(flags) -> bool:
                reference = TrialRunner(base_seed=cseed).run_flags(
                    _ObjectModelTrial(network, dist, side == 0),
                    PLANE_PREFIX[kind], *labels,
                )
                return _prefix_matches(flags, reference)

            # The body of ``estimate_error`` with a seed-like rng, keeping
            # the per-trial flags instead of only their mean.
            return Call(
                label=f"{kind}/{('uniform', 'far')[side]}",
                trials=trials,
                run=lambda: TrialRunner(base_seed=cseed).run_flags_batched(
                    kernel, trials, *labels, batch=auto_batch(width)
                ),
                check=check,
                same=_flags_equal,
            )

        return make

    def local_call(side: int) -> Callable[[int, int], Call]:
        dist, is_uniform = local_dists[side], side == 0

        def make(index: int, cseed: int) -> Call:
            trials = PLANE_TRIALS["local"]
            # Same MIS layout (keyed by the workload seed), fresh trial
            # streams per call.
            runner = dataclasses.replace(local_runner, base_seed=cseed)

            def check(flags) -> bool:
                reference = TrialRunner(base_seed=cseed).run_flags(
                    _LocalTrial(runner, dist, is_uniform),
                    PLANE_PREFIX["local"], "local", runner.topology.k,
                )
                return _prefix_matches(flags, reference)

            return Call(
                label=f"local/{('uniform', 'far')[side]}",
                trials=trials,
                run=lambda: runner.run_flags(dist, is_uniform, trials),
                check=check,
                same=_flags_equal,
            )

        return make

    def smp_call(kind: str, side: int) -> Callable[[int, int], Call]:
        a, b = smp_inputs[side]

        def make(index: int, cseed: int) -> Call:
            trials = PLANE_TRIALS[kind]

            def build() -> EqualityTrialRunner:
                if kind == "torus":
                    return EqualityTrialRunner.for_torus(torus, a, b, base_seed=cseed)
                return EqualityTrialRunner.for_reduction(bcg, a, b, base_seed=cseed)

            def check(flags) -> bool:
                reference = build().scalar_flags(PLANE_PREFIX[kind])
                return _prefix_matches(flags, reference)

            return Call(
                label=f"{kind}/{('equal', 'unequal')[side]}",
                trials=trials,
                run=lambda: build().run_flags(trials),
                check=check,
                same=_flags_equal,
            )

        return make

    cycle = []
    for side in (0, 1):
        cycle += [
            congest_call(side),
            zero_round_call("threshold", side),
            zero_round_call("and_rule", side),
            local_call(side),
            smp_call("torus", side),
            smp_call("bcg", side),
        ]
    return State(cycle=tuple(cycle), seed=seed)


# ---------------------------------------------------------------------------
# fault_sweep — fault-plane replay of the hardened tester
# ---------------------------------------------------------------------------

SWEEP = dict(
    n=200,
    k=60,
    eps=0.9,
    samples_per_node=64,
    drop_probs=(0.0, 0.02, 0.05, 0.1),
    crash_fractions=(0.0, 0.1),
    trials=25,
    fast_path=True,
)
#: Share of each point's trials that the oracle re-runs on the engine
#: (rounded, at least one trial per point).
SWEEP_ENGINE_CHECK = 0.04
#: A star sweep takes about a third of a ring sweep, so a cycle runs two
#: star sweeps per ring sweep.  The ring sweeps are then the slowest
#: third of the calls, so ``call_s_p50`` falls among the star sweeps and
#: the 75th-percentile tail among the ring sweeps, not between them.
SWEEP_CYCLE = ("star", "star", "ring")
#: ``RobustnessPoint`` fields that only the engine or the clock supplies.
_ENGINE_FIELDS = (
    "mean_rounds", "mean_drops", "engine_trials",
    "fast_path_seconds", "engine_seconds",
)


def _replayed_fields(points) -> List[Dict[str, Any]]:
    """The fields the fault plane computes, per grid point."""
    out = []
    for point in points:
        row = point.as_dict()
        for name in _ENGINE_FIELDS:
            row.pop(name)
        out.append(row)
    return out


def _sweep_sane(points) -> bool:
    grid = len(SWEEP["drop_probs"]) * len(SWEEP["crash_fractions"])
    return len(points) == grid and all(
        p.trials == SWEEP["trials"]
        and 0.0 <= p.error_uniform <= 1.0
        and 0.0 <= p.error_far <= 1.0
        and p.no_verdict == 0  # the elected root is never crashed
        for p in points
    )


def build_fault_sweep(seed: int) -> State:
    def make_for(topology: str) -> Callable[[int, int], Call]:
        def make(index: int, cseed: int) -> Call:
            # The first sweep of each topology in a run is cross-checked
            # on the engine; every sweep gets the sanity checks.
            engine_checked = index == SWEEP_CYCLE.index(topology)

            def sweep(engine_check: float):
                return robustness_sweep(
                    topology=topology, base_seed=cseed,
                    engine_check=engine_check, **SWEEP,
                )

            def check(points) -> bool:
                if not _sweep_sane(points):
                    return False
                if not engine_checked:
                    return True
                # Raises SimulationError if a replayed verdict, agreement
                # or counter differs from the engine's.
                checked = sweep(SWEEP_ENGINE_CHECK)
                return _replayed_fields(checked) == _replayed_fields(points)

            return Call(
                label=topology,
                trials=2 * SWEEP["trials"] * len(SWEEP["drop_probs"])
                * len(SWEEP["crash_fractions"]),
                run=lambda: sweep(0.0),
                check=check,
                same=lambda a, b: _replayed_fields(a) == _replayed_fields(b),
            )

        return make

    return State(cycle=tuple(make_for(t) for t in SWEEP_CYCLE), seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "engine_cold",
            "cold Theorem 1.4 runs: the engine and the CONGEST protocol "
            "programs do almost all the work; sampling is one 1000x3 draw",
            build_engine_cold,
            hostspeed.INTERPRETER,
        ),
        Workload(
            "trial_planes",
            "error-rate calls through the CONGEST, zero-round, LOCAL and SMP "
            "fast paths: sampling and collision kernels work, the engine idles",
            build_trial_planes,
            hostspeed.MIXED,
        ),
        Workload(
            "fault_sweep",
            "hardened-tester robustness sweeps replayed on the fault plane: "
            "keyed fault RNG and retry ladders, one draw feeding 8 verdicts",
            build_fault_sweep,
            hostspeed.MIXED,
        ),
    )
}
