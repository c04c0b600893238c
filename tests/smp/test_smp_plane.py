"""Tests for the vectorised SMP trial plane (the bit-identity contract).

Every test here pins the plane to the scalar Section 7 protocols: same
chunk-keyed streams, same verdicts, bit for bit — across field sizes,
seeds, and both protocols (the Lemma 7.3 torus and the Theorem 7.1
BCG reduction).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import CollisionGapTester
from repro.core.baselines import CollisionCountTester
from repro.core.gap import decide_many
from repro.exceptions import ParameterError, SimulationError
from repro.smp import (
    BCGMapping,
    ConcatenatedCode,
    EqualityProtocol,
    EqualityTrialRunner,
    TesterBasedEqualityProtocol,
)
from repro.telemetry import Tracer, tracing

SEEDS = [11, 22, 33, 44]

#: Three field sizes (GF(2^3), GF(2^4), GF(2^8)) with message lengths
#: that keep the outer Reed-Solomon code inside each field.
CONFIGS = [(3, 12), (4, 32), (8, 256)]


def _pair(n_bits: int):
    rng = np.random.default_rng(7)
    x = rng.integers(0, 2, n_bits)
    y = x.copy()
    y[0] ^= 1
    return x, y


def _torus(q: int, n_bits: int) -> EqualityProtocol:
    code = ConcatenatedCode.for_message_bits(n_bits, q=q)
    return EqualityProtocol.build(n_bits, delta=0.05, tau=2.0, code=code)


def _bcg(q: int, n_bits: int) -> TesterBasedEqualityProtocol:
    mapping = BCGMapping(code=ConcatenatedCode.for_message_bits(n_bits, q=q))
    tester = CollisionGapTester.from_delta(mapping.domain_size, 0.25)
    return TesterBasedEqualityProtocol(mapping=mapping, tester=tester)


class TestPerSeedBitIdentity:
    """Verdict ``i`` must equal the scalar ``run(x, y, rng=seeds[i])``."""

    @pytest.mark.parametrize("q,n_bits", CONFIGS)
    @pytest.mark.parametrize("equal", [True, False])
    def test_torus_matches_scalar_run(self, q, n_bits, equal):
        proto = _torus(q, n_bits)
        x, y = _pair(n_bits)
        b = x if equal else y
        runner = EqualityTrialRunner.for_torus(proto, x, b)
        scalar = [proto.run(x, b, rng=seed)[0] for seed in SEEDS]
        assert runner.verdicts_for_seeds(SEEDS) == scalar

    @pytest.mark.parametrize("q,n_bits", CONFIGS)
    @pytest.mark.parametrize("equal", [True, False])
    def test_bcg_matches_scalar_run(self, q, n_bits, equal):
        proto = _bcg(q, n_bits)
        x, y = _pair(n_bits)
        b = x if equal else y
        runner = EqualityTrialRunner.for_reduction(proto, x, b)
        scalar = [proto.run(x, b, rng=seed) for seed in SEEDS]
        assert runner.verdicts_for_seeds(SEEDS) == scalar


class TestTrialEngineBitIdentity:
    """Batched flags must equal the scalar experiment on the same
    chunk-keyed streams, at any batch split."""

    @pytest.mark.parametrize("q,n_bits", CONFIGS[:2])
    def test_torus_flags(self, q, n_bits):
        proto = _torus(q, n_bits)
        x, y = _pair(n_bits)
        runner = EqualityTrialRunner.for_torus(proto, x, y, base_seed=3)
        assert np.array_equal(runner.run_flags(200), runner.scalar_flags(200))

    @pytest.mark.parametrize("q,n_bits", CONFIGS[:2])
    def test_bcg_flags(self, q, n_bits):
        proto = _bcg(q, n_bits)
        x, y = _pair(n_bits)
        runner = EqualityTrialRunner.for_reduction(proto, x, y, base_seed=3)
        assert np.array_equal(runner.run_flags(200), runner.scalar_flags(200))

    def test_engine_check_full_prefix_passes(self):
        proto = _torus(4, 32)
        x, y = _pair(32)
        runner = EqualityTrialRunner.for_torus(proto, x, y, base_seed=1)
        flags = runner.run_flags(100, engine_check=1.0)
        assert flags.shape == (100,)

    def test_error_rate_matches_scalar(self):
        proto = _bcg(4, 32)
        x, y = _pair(32)
        assert proto.estimate_error(x, y, 150, rng=2) == proto.estimate_error(
            x, y, 150, rng=2, fast_path=False
        )

    def test_tracing_does_not_change_flags(self):
        proto = _torus(4, 32)
        x, y = _pair(32)
        runner = EqualityTrialRunner.for_torus(proto, x, y, base_seed=5)
        untraced = runner.run_flags(120)
        with tracing(Tracer()):
            traced = runner.run_flags(120, engine_check=0.1)
        assert np.array_equal(traced, untraced)


class TestEngineCheck:
    def test_torus_divergence_raises(self):
        """A tampered codeword table must trip the scalar cross-check."""
        proto = _torus(4, 32)
        x, _ = _pair(32)
        runner = EqualityTrialRunner.for_torus(proto, x, x, base_seed=0)
        bad_kernel = dataclasses.replace(
            runner.kernel, table_b=1 - runner.kernel.table_b
        )
        tampered = dataclasses.replace(runner, kernel=bad_kernel)
        with pytest.raises(SimulationError, match="diverge"):
            tampered.run_flags(64, engine_check=1.0)

    def test_bcg_divergence_raises(self):
        """A tampered support must trip the scalar cross-check."""
        proto = _bcg(4, 32)
        x, y = _pair(32)
        runner = EqualityTrialRunner.for_reduction(proto, x, y, base_seed=0)
        bad_kernel = dataclasses.replace(
            runner.kernel, support_bob=runner.kernel.support_alice
        )
        tampered = dataclasses.replace(runner, kernel=bad_kernel)
        with pytest.raises(SimulationError, match="diverge"):
            tampered.run_flags(64, engine_check=1.0)

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_fraction_range_validated(self, bad):
        proto = _torus(4, 32)
        x, y = _pair(32)
        runner = EqualityTrialRunner.for_torus(proto, x, y)
        with pytest.raises(ParameterError, match="engine_check"):
            runner.run_flags(10, engine_check=bad)


class _SumTester:
    """A centralized tester `decide_many` has no kernel for."""

    samples_required = 5

    def decide(self, samples):
        return int(np.sum(samples)) % 2 == 0


def _adversarial_rows(s: int) -> np.ndarray:
    """Rows that stress the sort-and-tie step: all equal, one run of
    three or more, several runs in one row, runs at both ends, and no
    tie at all."""
    rows = [np.full(s, 7), np.arange(s)]
    if s >= 3:
        rows.append(np.r_[np.full(3, 5), np.arange(10, 10 + s - 3)])
        rows.append(np.r_[np.arange(20, 20 + s - 3), np.full(3, 1)][::-1])
    if s >= 6:
        runs = np.r_[np.full(3, 2), np.full(2, 9), np.arange(30, 30 + s - 5)]
        rows.append(runs)
        rows.append(np.r_[np.full(s - 2, 4), np.full(2, 3)])
    if s >= 8:
        rows.append(np.repeat(np.arange(s // 2), 2)[:s])
    return np.stack(rows)


class TestDecideMany:
    @pytest.mark.parametrize(
        "tester",
        [
            CollisionGapTester.from_delta(64, 0.25),
            CollisionCountTester(n=64, s=12, eps=0.5),
            CollisionGapTester(n=64, s=2),
            CollisionCountTester(n=64, s=2, eps=0.5),
            CollisionCountTester(n=4, s=8, eps=1.5),
        ],
        ids=["gap", "count", "gap-s2", "count-s2", "count-small-n"],
    )
    def test_matches_scalar_decide(self, tester):
        rng = np.random.default_rng(0)
        s = tester.samples_required
        samples = np.concatenate(
            [rng.integers(0, 64, size=(50, s)), rng.integers(0, 3, size=(50, s)),
             _adversarial_rows(s)]
        )
        want = [bool(tester.decide(row)) for row in samples]
        assert decide_many(tester, samples).tolist() == want
        assert any(want) and not all(want)

    def test_generic_fallback(self):
        tester = _SumTester()
        rng = np.random.default_rng(1)
        samples = rng.integers(0, 10, size=(20, 5))
        want = [tester.decide(row) for row in samples]
        assert decide_many(tester, samples).tolist() == want

    def test_shape_validated(self):
        tester = CollisionGapTester.from_delta(64, 0.25)
        wrong = np.zeros((4, tester.samples_required + 1), dtype=np.int64)
        with pytest.raises(ParameterError):
            decide_many(tester, wrong)

    def test_empty_batch(self):
        tester = CollisionGapTester.from_delta(64, 0.25)
        empty = np.zeros((0, tester.samples_required), dtype=np.int64)
        out = decide_many(tester, empty)
        assert out.shape == (0,) and out.dtype == bool
