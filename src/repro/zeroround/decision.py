"""Network decision rules for the 0-round model.

A decision rule maps the vector of per-node accept bits to the network's
verdict.  The paper studies two:

- the **AND rule** (the standard distributed-decision convention): the
  network accepts iff *every* node accepts — "some node raised an alarm"
  rejects.  Not amplification-friendly (Section 3.2.1).
- the **threshold rule**: fix ``T``; the network rejects iff at least ``T``
  nodes reject.  Amenable to Chernoff-style amplification (Section 3.2.2).

A majority rule (threshold at ``k/2``) is included for comparison sweeps.

Every rule lives here, in two forms: the scalar :meth:`~DecisionRule.decide`
(the parity reference) and :meth:`~DecisionRule.decide_many` over the
``(trials, nodes)`` rejection flags the collision kernels return, which
every fast path reduces.  :func:`repetition_rejects` is the Theorem 1.1
node rule (reject iff all ``m`` repetitions collided).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ParameterError


class DecisionRule(ABC):
    """Maps per-node accept votes to the network verdict."""

    @abstractmethod
    def decide(self, accepts: np.ndarray) -> bool:
        """Network verdict from a boolean accept vector (True = accept)."""

    def decide_many(self, rejects: np.ndarray) -> np.ndarray:
        """Verdicts (True = accept) of a ``(trials, nodes)`` matrix of
        node rejections; row-identical to ``decide(~row)``, which this
        default loops over."""
        return np.fromiter(
            (self.decide(~row) for row in rejects),
            dtype=bool,
            count=rejects.shape[0],
        )

    @staticmethod
    def _validate(accepts: np.ndarray) -> np.ndarray:
        arr = np.asarray(accepts, dtype=bool)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("accept vector must be 1-D and non-empty")
        return arr


@dataclass(frozen=True)
class AndRule(DecisionRule):
    """Accept iff all nodes accept (reject if anyone raises an alarm)."""

    def decide(self, accepts: np.ndarray) -> bool:
        return bool(self._validate(accepts).all())

    def decide_many(self, rejects: np.ndarray) -> np.ndarray:
        return ~rejects.any(axis=1)


@dataclass(frozen=True)
class ThresholdRule(DecisionRule):
    """Reject iff at least ``threshold`` nodes reject.

    ``threshold = 1`` recovers the AND rule; ``threshold > k`` accepts
    everything (flagged as an error at decision time).
    """

    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ParameterError(f"threshold must be >= 1, got {self.threshold}")

    def decide(self, accepts: np.ndarray) -> bool:
        arr = self._validate(accepts)
        if self.threshold > arr.size:
            raise ParameterError(
                f"threshold {self.threshold} exceeds network size {arr.size}"
            )
        rejections = int((~arr).sum())
        return rejections < self.threshold

    def decide_many(self, rejects: np.ndarray) -> np.ndarray:
        if self.threshold > rejects.shape[1]:
            raise ParameterError(
                f"threshold {self.threshold} exceeds network size "
                f"{rejects.shape[1]}"
            )
        return threshold_accepts(rejects, self.threshold)


@dataclass(frozen=True)
class MajorityRule(DecisionRule):
    """Accept iff a strict majority of nodes accept (ties reject)."""

    def decide(self, accepts: np.ndarray) -> bool:
        arr = self._validate(accepts)
        return int(arr.sum()) * 2 > arr.size

    def decide_many(self, rejects: np.ndarray) -> np.ndarray:
        nodes = rejects.shape[1]
        return (nodes - rejects.sum(axis=1)) * 2 > nodes


def threshold_accepts(rejects: np.ndarray, threshold: int) -> np.ndarray:
    """Accept where fewer than ``threshold`` of the last axis's nodes
    reject.  Unchecked (any integer threshold applies as is, as at the
    engine's CONGEST root); :meth:`ThresholdRule.decide_many` checks."""
    return rejects.sum(axis=-1) < threshold


def repetition_rejects(collided: np.ndarray, m: int) -> np.ndarray:
    """``(..., nodes)`` node rejections from ``(..., nodes·m)`` repetition
    collision flags: a node rejects iff **all** its ``m`` adjacent
    repetitions collided (:class:`~repro.core.amplify.RepeatedAndTester`)."""
    return collided.reshape(collided.shape[:-1] + (-1, m)).all(axis=-1)
