"""Tests for the seeded trial runner, its batched engine and its audit."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro import telemetry
from repro.distributions import uniform
from repro.exceptions import ParameterError, SimulationError
from repro.experiments import TRIAL_CHUNK, TrialRunner, error_rate
from repro.zeroround import (
    AndNetworkErrorKernel,
    CollisionTrialKernel,
    ScalarCollisionTrial,
    ThresholdNetworkErrorKernel,
    estimate_rejection_probability,
)


class TestTrialRunner:
    def test_reproducible_across_instances(self):
        def coin(rng: np.random.Generator) -> bool:
            return bool(rng.random() < 0.3)

        a = error_rate(coin, 200, 5, "cfg", 1)
        b = error_rate(coin, 200, 5, "cfg", 1)
        assert a.failures == b.failures

    def test_labels_isolate_configurations(self):
        def coin(rng):
            return bool(rng.random() < 0.5)

        a = error_rate(coin, 100, 5, "cfg", 1)
        b = error_rate(coin, 100, 5, "cfg", 2)
        assert a.failures != b.failures  # overwhelming probability

    def test_rate_converges(self):
        def coin(rng):
            return bool(rng.random() < 0.25)

        est = error_rate(coin, 3000, 0, "p25")
        assert est.rate == pytest.approx(0.25, abs=0.03)

    def test_trial_count_validated(self):
        with pytest.raises(ParameterError):
            error_rate(lambda rng: True, 0, 0)


class TestEstimateProbability:
    def test_convenience_wrapper(self):
        est = error_rate(lambda rng: bool(rng.random() < 0.1), 1000, 1, "adhoc")
        assert est.rate == pytest.approx(0.1, abs=0.04)


_DIST = uniform(400)
_SCALAR = ScalarCollisionTrial(_DIST, 9)
_KERNEL = CollisionTrialKernel(_DIST, 9)


def _batched_coin(rng, count):
    return rng.random(count) < 0.3


def _scalar_coin(rng):
    return bool(rng.random() < 0.3)


class TestBatchedEngine:
    """The reproducibility contract: scalar and batched paths must agree
    bit for bit, for any batch size, because every TRIAL_CHUNK-sized
    chunk re-derives its generator from ``(base_seed, *labels,
    chunk_index)``."""

    TRIALS = 2 * TRIAL_CHUNK + 257  # exercises a partial final chunk

    def test_scalar_vs_batched_bit_identical(self):
        runner = TrialRunner(base_seed=5)
        serial = runner.run_flags(_SCALAR, self.TRIALS, "cfg", 1)
        batched = runner.run_flags_batched(_KERNEL, self.TRIALS, "cfg", 1)
        assert np.array_equal(serial, batched)

    def test_batch_size_invariance(self):
        runner = TrialRunner(base_seed=5)
        reference = runner.run_flags_batched(_KERNEL, self.TRIALS, "cfg", 1)
        for batch in (1, 7, 64, TRIAL_CHUNK, 5 * TRIAL_CHUNK):
            flags = runner.run_flags_batched(
                _KERNEL, self.TRIALS, "cfg", 1, batch=batch
            )
            assert np.array_equal(reference, flags), f"batch={batch}"

    def test_error_rate_batched_matches_scalar_rate(self):
        scalar = error_rate(_scalar_coin, 600, 3, "coin")
        batched = error_rate(_batched_coin, 600, 3, "coin", batch=TRIAL_CHUNK)
        assert scalar.failures == batched.failures
        assert scalar.rate == batched.rate

    def test_flags_dtype_and_shape(self):
        flags = TrialRunner(base_seed=0).run_flags_batched(
            _batched_coin, 130, "shape", batch=32
        )
        assert flags.shape == (130,) and flags.dtype == bool

    def test_bad_experiment_output_rejected(self):
        def wrong_shape(rng, count):
            return rng.random(count + 1) < 0.5

        with pytest.raises(ParameterError):
            TrialRunner(base_seed=0).run_flags_batched(wrong_shape, 10, "bad")

    def test_validation(self):
        runner = TrialRunner(base_seed=0)
        with pytest.raises(ParameterError):
            runner.run_flags_batched(_batched_coin, 0, "x")
        with pytest.raises(ParameterError):
            runner.run_flags_batched(_batched_coin, 10, "x", batch=0)

    def test_estimate_probability_batched_wrapper(self):
        scalar = error_rate(_scalar_coin, 800, 2, "adhoc")
        batched = error_rate(_batched_coin, 800, 2, "adhoc", batch=64)
        assert scalar.failures == batched.failures


class TestErrorRate:
    """The one rate entry: the stream follows ``rng``."""

    @pytest.mark.parametrize("rng", [np.random.default_rng(4), None, 4])
    def test_batch_validated_on_every_route(self, rng):
        with pytest.raises(ParameterError, match="batch"):
            error_rate(_batched_coin, 10, rng, "x", batch=0)

    def test_rng_that_is_neither_seed_nor_stream_rejected(self):
        with pytest.raises(ParameterError, match="seed-like"):
            error_rate(_scalar_coin, 10, "4", "x")


class _FlipOne:
    """``_batched_coin`` with the flag of one global trial index flipped."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.seen = 0

    def __call__(self, rng, count):
        flags = _batched_coin(rng, count)
        local = self.index - self.seen
        if 0 <= local < count:
            flags[local] = not flags[local]
        self.seen += count
        return flags


def _audit(kernel, trials, engine_check, reference=lambda: _scalar_coin):
    return TrialRunner(base_seed=4).run_audited(
        kernel,
        reference,
        trials,
        "audit",
        batch=16,
        engine_check=engine_check,
        span="test.engine_check",
    )


class TestRunAudited:
    """The one engine_check audit every trial plane delegates to."""

    def test_matching_kernel_returns_batched_flags(self):
        flags = _audit(_batched_coin, 100, 1.0)
        expected = TrialRunner(4).run_flags(_scalar_coin, 100, "audit")
        assert np.array_equal(flags, expected)

    def test_flip_inside_prefix_raises(self):
        # engine_check=0.1 of 100 trials checks trials 0..9.
        with pytest.raises(SimulationError, match=r"diverge.*\[9\] of 10"):
            _audit(_FlipOne(9), 100, 0.1)

    def test_flip_outside_prefix_passes(self):
        flags = _audit(_FlipOne(10), 100, 0.1)
        expected = _audit(_batched_coin, 100, 0.0)
        assert np.flatnonzero(flags != expected).tolist() == [10]

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_engine_check_range_validated(self, bad):
        with pytest.raises(ParameterError, match="engine_check"):
            _audit(_batched_coin, 10, bad)

    @pytest.mark.parametrize(
        "trials,fraction",
        [(100, 0.1), (100, 0.001), (7, 1.0), (10, 0.25), (3, 0.5)],
    )
    def test_span_reports_checked_prefix(self, trials, fraction):
        with telemetry.tracing(telemetry.Tracer()) as tracer:
            _audit(_batched_coin, trials, fraction)
        (span,) = [
            e for e in tracer.events
            if e.get("name") == "test.engine_check"
        ]
        expected = min(trials, max(1, round(fraction * trials)))
        assert span["counters"]["checked"] == expected
        assert span["attrs"]["trials"] == expected

    def test_reference_not_built_without_check(self):
        def reference():
            raise AssertionError("reference built with engine_check=0")

        flags = _audit(_batched_coin, 50, 0.0, reference=reference)
        assert flags.shape == (50,)


@pytest.fixture(scope="module")
def fx() -> SimpleNamespace:
    """Small solved instances of every tester with a Monte-Carlo API."""
    from repro.congest import (
        CongestTrialRunner,
        CongestUniformityTester,
        HardenedCongestTester,
    )
    from repro.core import CollisionGapTester
    from repro.distributions import far_family
    from repro.localmodel import LocalTrialRunner, LocalUniformityTester
    from repro.simulator import Topology
    from repro.smp import (
        BCGMapping,
        ConcatenatedCode,
        EqualityProtocol,
        EqualityTrialRunner,
        TesterBasedEqualityProtocol,
    )
    from repro.zeroround import (
        AndRuleNetworkTester,
        CostVector,
        ThresholdNetworkTester,
        asymmetric_threshold_parameters,
    )

    star, ring = Topology.star(60), Topology.ring(512)
    congest = CongestUniformityTester.solve(200, 60, 0.9, 1.0 / 3.0, 64)
    hardened = HardenedCongestTester.solve(200, 60, 0.9, 1.0 / 3.0, 64)
    local = LocalUniformityTester(n=2_000, eps=1.5, p=0.45)
    code = ConcatenatedCode.for_message_bits(16, q=4)
    torus = EqualityProtocol.build(16, delta=0.05, tau=2.0, code=code)
    mapping = BCGMapping(code=code)
    bcg = TesterBasedEqualityProtocol(
        mapping=mapping,
        tester=CollisionGapTester.from_delta(mapping.domain_size, 0.25),
    )
    x = np.zeros(16, dtype=np.int64)
    y = x.copy()
    y[3] = 1

    def sides(n: int, eps: float) -> list:
        """``(distribution, is_uniform)`` for the uniform and far sides."""
        return [(uniform(n), True), (far_family("paninski", n, eps, rng=1), False)]

    return SimpleNamespace(
        star=star,
        ring=ring,
        congest=congest,
        congest_plane=CongestTrialRunner.build(congest, star),
        hardened=hardened,
        local=local,
        local_plane=LocalTrialRunner.build(local, ring, 16),
        threshold=ThresholdNetworkTester.solve(50_000, 20_000, 0.9),
        and_rule=AndRuleNetworkTester.solve(50_000, 1024, 1.0, 0.45),
        asym=asymmetric_threshold_parameters(
            50_000, CostVector.of([1.0] * 10_000 + [4.0] * 10_000), 0.9
        ),
        uniform=uniform,
        x=x,
        torus=torus,
        torus_plane=EqualityTrialRunner.for_torus(torus, x, x),
        bcg=bcg,
        bcg_plane=EqualityTrialRunner.for_reduction(bcg, x, x),
        congest_sides=sides(200, 0.9),
        local_sides=sides(2_000, 1.0),
        zero_round_sides=sides(50_000, 0.9),
        rejection_sides=sides(400, 0.9),
        smp_sides=[(x, x.copy()), (x, y)],
    )


_RUNNER = TrialRunner(base_seed=0)

#: ``(fx, trials, **options) -> result`` for every public Monte-Carlo
#: entry point; ``options`` (``engine_check``, ``fast_path``) reach the call.
#: Entries that test a distribution draw it as ``fx.uniform(n)``, so a
#: fixture whose ``uniform`` is off by one feeds every such route a
#: distribution of the wrong domain size.
_ENTRY_POINTS = {
    "TrialRunner.run_flags": lambda fx, t: _RUNNER.run_flags(
        _scalar_coin, t, "x"
    ),
    "TrialRunner.run_flags_batched": lambda fx, t: _RUNNER.run_flags_batched(
        _batched_coin, t, "x"
    ),
    "TrialRunner.run_audited": lambda fx, t, engine_check=0.5: (
        _RUNNER.run_audited(
            _batched_coin, lambda: _scalar_coin, t, "x",
            batch=16, engine_check=engine_check, span="x",
        )
    ),
    "error_rate": lambda fx, t: error_rate(_scalar_coin, t, 0),
    "error_rate/adhoc": lambda fx, t: error_rate(_scalar_coin, t, 0, "adhoc"),
    "error_rate/b16": lambda fx, t: error_rate(
        _batched_coin, t, 0, batch=16
    ),
    "error_rate/gen": lambda fx, t: error_rate(
        _scalar_coin, t, np.random.default_rng(0)
    ),
    "estimate_rejection_probability": lambda fx, t: (
        estimate_rejection_probability(_DIST, 9, t, rng=0)
    ),
    "ThresholdNetworkTester.estimate_error": lambda fx, t: (
        fx.threshold.estimate_error(fx.uniform(50_000), True, t, rng=0)
    ),
    "ThresholdNetworkTester.test_many": lambda fx, t: (
        fx.threshold.test_many(fx.uniform(50_000), t, rng=0)
    ),
    "ThresholdNetworkTester.test": lambda fx, t: (
        fx.threshold.test(fx.uniform(50_000), rng=0)
    ),
    "AndRuleNetworkTester.estimate_error": lambda fx, t: (
        fx.and_rule.estimate_error(fx.uniform(50_000), True, t, rng=0)
    ),
    "AndRuleNetworkTester.test_many": lambda fx, t: (
        fx.and_rule.test_many(fx.uniform(50_000), t, rng=0)
    ),
    "AndRuleNetworkTester.test": lambda fx, t: (
        fx.and_rule.test(fx.uniform(50_000), rng=0)
    ),
    "AsymmetricThresholdParameters.test_many": lambda fx, t: (
        fx.asym.test_many(fx.uniform(50_000), t, rng=0)
    ),
    "AsymmetricThresholdParameters.test": lambda fx, t: (
        fx.asym.test(fx.uniform(50_000), rng=0)
    ),
    "CongestUniformityTester.estimate_error": lambda fx, t, fast_path=True, **kw: (
        fx.congest.estimate_error(
            fx.star, fx.uniform(200), True, t, rng=0, fast_path=fast_path, **kw
        )
    ),
    "CongestTrialRunner.run_flags": lambda fx, t, **kw: (
        fx.congest_plane.run_flags(fx.uniform(200), True, t, **kw)
    ),
    "HardenedCongestTester.estimate_error": lambda fx, t, **kw: (
        fx.hardened.estimate_error(fx.star, fx.uniform(200), True, t, rng=0, **kw)
    ),
    "LocalUniformityTester.estimate_error": lambda fx, t, **kw: (
        fx.local.estimate_error(
            fx.ring, fx.uniform(2_000), True, 16, t, rng=0, **kw
        )
    ),
    "LocalTrialRunner.run_flags": lambda fx, t, **kw: (
        fx.local_plane.run_flags(fx.uniform(2_000), True, t, **kw)
    ),
    "EqualityProtocol.estimate_error": lambda fx, t, **kw: (
        fx.torus.estimate_error(fx.x, fx.x, t, rng=0, **kw)
    ),
    "TesterBasedEqualityProtocol.estimate_error": lambda fx, t, **kw: (
        fx.bcg.estimate_error(fx.x, fx.x, t, rng=0, **kw)
    ),
    "EqualityTrialRunner.run_flags": lambda fx, t, **kw: (
        fx.torus_plane.run_flags(t, **kw)
    ),
    "EqualityTrialRunner.scalar_flags": lambda fx, t: (
        fx.bcg_plane.scalar_flags(t)
    ),
}


#: Entries that run one trial per call, so take no trial count.
_ONE_TRIAL = {
    "ThresholdNetworkTester.test",
    "AndRuleNetworkTester.test",
    "AsymmetricThresholdParameters.test",
}


@pytest.mark.parametrize("bad", [10.5, True, 0, np.float64(3.0)])
@pytest.mark.parametrize("entry", sorted(set(_ENTRY_POINTS) - _ONE_TRIAL))
def test_trial_count_validated_at_every_entry_point(fx, entry, bad):
    """A non-integer, boolean or non-positive count is a ParameterError
    at every public entry point — never a TypeError or a silent run."""
    with pytest.raises(ParameterError, match="trials must be"):
        _ENTRY_POINTS[entry](fx, bad)


#: Every route of every entry point that takes ``engine_check``: both
#: ``fast_path`` settings of each ``estimate_error``.
_ENGINE_CHECK_ROUTES = [
    pytest.param(entry, {}, id=entry)
    for entry in (
        "TrialRunner.run_audited",
        "CongestTrialRunner.run_flags",
        "LocalTrialRunner.run_flags",
        "EqualityTrialRunner.run_flags",
    )
] + [
    pytest.param(entry, {"fast_path": fast}, id=f"{entry}(fast_path={fast})")
    for entry in (
        "CongestUniformityTester.estimate_error",
        "HardenedCongestTester.estimate_error",
        "LocalUniformityTester.estimate_error",
        "EqualityProtocol.estimate_error",
        "TesterBasedEqualityProtocol.estimate_error",
    )
    for fast in (True, False)
]


@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
@pytest.mark.parametrize("entry,route", _ENGINE_CHECK_ROUTES)
def test_engine_check_validated_at_every_entry_point(fx, entry, route, bad):
    """An ``engine_check`` outside [0, 1] is a ParameterError on every
    route, including the scalar ones that run no audit."""
    with pytest.raises(ParameterError, match="engine_check"):
        _ENTRY_POINTS[entry](fx, 4, engine_check=bad, **route)


#: Every route of every entry point that tests a distribution against the
#: domain size its tester was calibrated for: both ``fast_path`` settings
#: where the entry has them.
_DOMAIN_ROUTES = [
    pytest.param(entry, {}, id=entry)
    for entry in (
        "ThresholdNetworkTester.estimate_error",
        "ThresholdNetworkTester.test_many",
        "ThresholdNetworkTester.test",
        "AndRuleNetworkTester.estimate_error",
        "AndRuleNetworkTester.test_many",
        "AndRuleNetworkTester.test",
        "AsymmetricThresholdParameters.test_many",
        "AsymmetricThresholdParameters.test",
        "CongestTrialRunner.run_flags",
        "LocalTrialRunner.run_flags",
    )
] + [
    pytest.param(entry, {"fast_path": fast}, id=f"{entry}(fast_path={fast})")
    for entry in (
        "CongestUniformityTester.estimate_error",
        "HardenedCongestTester.estimate_error",
        "LocalUniformityTester.estimate_error",
    )
    for fast in (True, False)
]


@pytest.mark.parametrize("entry,route", _DOMAIN_ROUTES)
def test_domain_validated_at_every_entry_point(fx, entry, route):
    """A distribution whose domain size differs from the tester's ``n``
    is a ParameterError on every route — never a silent error rate."""
    off_by_one = SimpleNamespace(**{**vars(fx), "uniform": lambda n: uniform(n - 1)})
    with pytest.raises(ParameterError, match="calibrated for n="):
        _ENTRY_POINTS[entry](off_by_one, 4, **route)


def _in_sequence(experiment, trials, gen, batch=None) -> float:
    """Mean failure of *experiment* over *trials* trials run one after
    another on the single stream *gen* (batched calls of at most
    *batch* when *experiment* is batched)."""
    if batch is None:
        flags = [bool(experiment(gen)) for _ in range(trials)]
    else:
        flags = []
        while len(flags) < trials:
            flags.extend(experiment(gen, min(batch, trials - len(flags))))
    return sum(flags) / trials


def _local_reference(fx, dist, is_uniform, gen):
    from repro.localmodel.tester import _LocalTrialExperiment

    plan = fx.local.plan(fx.ring, 16, gen)  # the plan draws first
    return _in_sequence(
        _LocalTrialExperiment(fx.local, plan, dist, is_uniform), 20, gen
    )


def _congest_reference(fx, dist, is_uniform, gen):
    from repro.congest.tester import _CongestTrialExperiment

    experiment = _CongestTrialExperiment(
        fx.congest, fx.star, dist, is_uniform, warm_start=True
    )
    return _in_sequence(experiment, 6, gen)


def _smp_reference(experiment_cls, proto, x, y, gen):
    equal = bool(np.array_equal(x, y))
    return _in_sequence(experiment_cls(proto, x, y, equal), 30, gen)


def _torus_reference(fx, x, y, gen):
    from repro.smp.smp_plane import _TorusTrialExperiment

    return _smp_reference(_TorusTrialExperiment, fx.torus, x, y, gen)


def _bcg_reference(fx, x, y, gen):
    from repro.smp.smp_plane import _ReductionTrialExperiment

    return _smp_reference(_ReductionTrialExperiment, fx.bcg, x, y, gen)


def _threshold_reference(fx, dist, is_uniform, gen):
    p = fx.threshold.params
    kernel = ThresholdNetworkErrorKernel(dist, p.k, p.s, p.threshold, is_uniform)
    return _in_sequence(kernel, 5, gen, batch=2)


def _and_reference(fx, dist, is_uniform, gen):
    p = fx.and_rule.params
    kernel = AndNetworkErrorKernel(
        dist, p.k, p.m, p.s_per_repetition, is_uniform
    )
    return _in_sequence(kernel, 5, gen, batch=2)


#: ``name -> (sides, estimate, reference)`` for every entry point with a
#: live-``Generator`` route.  ``estimate(fx, *side, gen)`` is the entry's
#: rate on ``gen``; ``reference(fx, *side, gen)`` loops the entry's scalar
#: or batched experiment in sequence on ``gen``.
_GENERATOR_ROUTES = {
    "CongestUniformityTester.estimate_error": (
        "congest_sides",
        lambda fx, d, u, gen: fx.congest.estimate_error(fx.star, d, u, 6, rng=gen),
        _congest_reference,
    ),
    "LocalUniformityTester.estimate_error": (
        "local_sides",
        lambda fx, d, u, gen: fx.local.estimate_error(fx.ring, d, u, 16, 20, rng=gen),
        _local_reference,
    ),
    "EqualityProtocol.estimate_error": (
        "smp_sides",
        lambda fx, x, y, gen: fx.torus.estimate_error(
            x, y, 30, rng=gen, fast_path=False
        ),
        _torus_reference,
    ),
    "TesterBasedEqualityProtocol.estimate_error": (
        "smp_sides",
        lambda fx, x, y, gen: fx.bcg.estimate_error(
            x, y, 30, rng=gen, fast_path=False
        ),
        _bcg_reference,
    ),
    "ThresholdNetworkTester.estimate_error": (
        "zero_round_sides",
        lambda fx, d, u, gen: fx.threshold.estimate_error(d, u, 5, rng=gen, batch=2),
        _threshold_reference,
    ),
    "AndRuleNetworkTester.estimate_error": (
        "zero_round_sides",
        lambda fx, d, u, gen: fx.and_rule.estimate_error(d, u, 5, rng=gen, batch=2),
        _and_reference,
    ),
    "estimate_rejection_probability": (
        "rejection_sides",
        lambda fx, d, u, gen: estimate_rejection_probability(
            d, 9, 500, rng=gen, batch=64
        ),
        lambda fx, d, u, gen: _in_sequence(
            CollisionTrialKernel(d, 9), 500, gen, batch=64
        ),
    ),
}


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("side", [0, 1], ids=["uniform", "far"])
@pytest.mark.parametrize("entry", sorted(_GENERATOR_ROUTES))
def test_generator_route_runs_experiment_in_sequence(fx, entry, side, seed):
    """A live ``Generator`` runs the entry's own experiment trial after
    trial on its one stream: the rate equals that loop's, exactly."""
    sides, estimate, reference = _GENERATOR_ROUTES[entry]
    args = getattr(fx, sides)[side]
    rate = estimate(fx, *args, np.random.default_rng(seed))
    assert rate == reference(fx, *args, np.random.default_rng(seed))
