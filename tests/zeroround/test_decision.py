"""Tests for network decision rules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.zeroround import AndRule, DecisionRule, MajorityRule, ThresholdRule
from repro.zeroround.decision import repetition_rejects


def votes(*bits):
    return np.array(bits, dtype=bool)


class TestAndRule:
    def test_all_accept(self):
        assert AndRule().decide(votes(1, 1, 1))

    def test_single_alarm_rejects(self):
        assert not AndRule().decide(votes(1, 0, 1))

    def test_empty_vector_rejected(self):
        with pytest.raises(ParameterError):
            AndRule().decide(np.array([], dtype=bool))


class TestThresholdRule:
    def test_below_threshold_accepts(self):
        assert ThresholdRule(3).decide(votes(0, 0, 1, 1, 1))

    def test_at_threshold_rejects(self):
        assert not ThresholdRule(3).decide(votes(0, 0, 0, 1, 1))

    def test_threshold_one_equals_and_rule(self):
        for pattern in [(1, 1, 1), (1, 0, 1), (0, 0, 0)]:
            assert ThresholdRule(1).decide(votes(*pattern)) == AndRule().decide(
                votes(*pattern)
            )

    def test_threshold_must_be_positive(self):
        with pytest.raises(ParameterError):
            ThresholdRule(0)

    def test_threshold_exceeding_network_size(self):
        with pytest.raises(ParameterError):
            ThresholdRule(5).decide(votes(1, 1))


class TestMajorityRule:
    def test_strict_majority_accepts(self):
        assert MajorityRule().decide(votes(1, 1, 0))

    def test_tie_rejects(self):
        assert not MajorityRule().decide(votes(1, 1, 0, 0))

    def test_minority_rejects(self):
        assert not MajorityRule().decide(votes(1, 0, 0))


def _per_row(rule, rejects: np.ndarray) -> list:
    """The scalar reference: ``decide`` on each row's accept vector."""
    return [rule.decide(~row) for row in rejects]


_RULES = [AndRule(), ThresholdRule(1), ThresholdRule(3), ThresholdRule(7), MajorityRule()]


class TestDecideMany:
    """Each rule's vectorised verdict equals a per-row ``decide``."""

    @pytest.mark.parametrize("rule", _RULES, ids=repr)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_matrices(self, rule, seed):
        gen = np.random.default_rng(seed)
        for nodes in (7, 8, 13):
            rejects = gen.random((200, nodes)) < gen.random()
            got = rule.decide_many(rejects)
            assert got.dtype == bool and got.shape == (200,)
            assert got.tolist() == _per_row(rule, rejects)

    @pytest.mark.parametrize("rule", _RULES, ids=repr)
    @pytest.mark.parametrize("fill", [True, False], ids=["all-reject", "none-reject"])
    def test_unanimous_rows(self, rule, fill):
        rejects = np.full((4, 8), fill)
        assert rule.decide_many(rejects).tolist() == _per_row(rule, rejects)

    def test_threshold_equal_to_network_size(self):
        rule = ThresholdRule(6)
        rejects = np.array([[1] * 6, [1] * 5 + [0], [0] * 6], dtype=bool)
        assert rule.decide_many(rejects).tolist() == [False, True, True]
        assert rule.decide_many(rejects).tolist() == _per_row(rule, rejects)

    def test_threshold_above_network_size_raises_on_both_routes(self):
        rule = ThresholdRule(7)
        rejects = np.zeros((3, 6), dtype=bool)
        with pytest.raises(ParameterError, match="exceeds network size"):
            rule.decide_many(rejects)
        with pytest.raises(ParameterError, match="exceeds network size"):
            _per_row(rule, rejects)

    def test_majority_ties_reject(self):
        rejects = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=bool)
        assert MajorityRule().decide_many(rejects).tolist() == [False, True, False]
        assert MajorityRule().decide_many(rejects).tolist() == _per_row(
            MajorityRule(), rejects
        )

    def test_default_is_the_per_row_loop(self):
        """A rule with only a scalar ``decide`` gets the per-row default."""

        class Parity(DecisionRule):
            def decide(self, accepts):
                return bool(self._validate(accepts).sum() % 2)

        rejects = np.random.default_rng(4).random((50, 5)) < 0.5
        assert Parity().decide_many(rejects).tolist() == _per_row(Parity(), rejects)


class TestRepetitionRejects:
    def test_node_rejects_iff_every_repetition_collided(self):
        collided = np.array(
            [[1, 1, 1, 0, 0, 0], [1, 1, 1, 1, 1, 1]], dtype=bool
        )
        assert repetition_rejects(collided, 3).tolist() == [
            [True, False],
            [True, True],
        ]
        assert repetition_rejects(collided, 1).tolist() == collided.tolist()

    def test_matches_the_repeated_and_tester(self):
        """The vectorised node rule agrees with the scalar
        ``RepeatedAndTester`` on the collision flags of its repetitions."""
        from repro.core.collision import CollisionGapTester, has_collision
        from repro.core.amplify import RepeatedAndTester

        node = RepeatedAndTester(base=CollisionGapTester(n=5, s=3), m=4)
        samples = np.random.default_rng(5).integers(0, 5, size=(100, 12))
        collided = np.array(
            [[has_collision(rep) for rep in row.reshape(4, 3)] for row in samples]
        )
        want = [not node.decide(row) for row in samples]
        assert any(want) and not all(want)
        assert repetition_rejects(collided, 4)[:, 0].tolist() == want
