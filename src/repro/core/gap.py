"""The ``(δ, α)``-gap tester abstraction (Definition 1 of the paper).

A gap tester is a single-node algorithm with a deliberately *asymmetric*
error profile: it accepts the uniform distribution with probability at least
``1 − δ``, and accepts any ε-far distribution with probability at most
``1 − α·δ`` — a rejection gap of only ``(α − 1)·δ``, with ``α`` barely above
1.  The paper's distributed testers are built by handing every node such a
weak signal and combining the one-bit outputs with a decision rule.

This module defines:

- :class:`GapSpec` — the ``(δ, α)`` pair plus ``ε``, with the derived
  quantities both analyses use.
- :class:`GapGuarantee` — a *proved* guarantee attached to a concrete tester:
  bounds on rejection probabilities under uniform / far inputs.
- :class:`CentralizedTester` — the minimal protocol all single-node testers
  implement (collision tester, baselines, amplified testers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ParameterError


@dataclass(frozen=True)
class GapSpec:
    """Target parameters for a ``(δ, α)``-gap ε-uniformity tester.

    Attributes
    ----------
    delta:
        Completeness error budget: ``Pr[reject | uniform] <= delta``.
    alpha:
        Soundness multiplier: ``Pr[reject | ε-far] >= alpha * delta``.
        Must exceed 1.
    eps:
        The L1 distance parameter of the testing problem, in ``(0, 2)``.
    """

    delta: float
    alpha: float
    eps: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta < 1.0:
            raise ParameterError(f"delta must be in (0, 1), got {self.delta}")
        if self.alpha <= 1.0:
            raise ParameterError(f"alpha must exceed 1, got {self.alpha}")
        if not 0.0 < self.eps < 2.0:
            raise ParameterError(f"eps must be in (0, 2), got {self.eps}")
        if self.alpha * self.delta > 1.0:
            raise ParameterError(
                f"alpha*delta = {self.alpha * self.delta} > 1 is unsatisfiable"
            )

    @property
    def uniform_reject_bound(self) -> float:
        """Upper bound on ``Pr[reject | uniform]``."""
        return self.delta

    @property
    def far_reject_bound(self) -> float:
        """Lower bound on ``Pr[reject | ε-far]``."""
        return self.alpha * self.delta

    @property
    def rejection_gap(self) -> float:
        """The absolute gap ``(α − 1)·δ`` the decision rule must exploit."""
        return (self.alpha - 1.0) * self.delta


@dataclass(frozen=True)
class GapGuarantee:
    """A proved ``(δ, α)`` guarantee for a concrete tester instance.

    Unlike :class:`GapSpec` (a *request*), this records what a constructed
    tester actually achieves given its integer sample count: the effective
    ``δ`` after rounding ``s``, the provable ``α`` from the γ slack, and the
    validity flags of the regime checks (Section 3.1: ``δ < ε⁴/64`` and
    ``n > 64/(ε⁴δ)``).
    """

    delta: float
    alpha: float
    eps: float
    samples: int
    gamma: float
    in_paper_regime: bool

    @property
    def spec(self) -> GapSpec:
        """The guarantee viewed as a :class:`GapSpec`."""
        return GapSpec(delta=self.delta, alpha=self.alpha, eps=self.eps)


@runtime_checkable
class CentralizedTester(Protocol):
    """Protocol for single-node testers.

    Implementations expose how many samples one invocation consumes and a
    ``decide`` method mapping a sample batch to accept (``True``) / reject
    (``False``).  Implementations must be deterministic given the samples
    *and* any RNG passed in; collision-style testers are deterministic in
    the samples alone.
    """

    @property
    def samples_required(self) -> int:
        """Number of samples one invocation of the tester consumes."""
        ...

    def decide(self, samples: np.ndarray) -> bool:
        """Return ``True`` to accept (looks uniform), ``False`` to reject."""
        ...


def decide_many(tester: CentralizedTester, samples: np.ndarray) -> np.ndarray:
    """Batched tester verdicts: one bool per row of a ``(trials, s)`` matrix.

    Row-identical to calling ``tester.decide`` on each row.  The two
    collision testers share one vectorised step,
    :func:`~repro.core.collision.sorted_ties`: the gap tester accepts
    rows without a tie, and the count tester turns the tie runs into
    collision-*pair* counts.  Any other :class:`CentralizedTester` falls
    back to a per-row ``decide`` loop, so the function is always safe to
    call.
    """
    arr = np.asarray(samples)
    if arr.ndim != 2 or arr.shape[1] != tester.samples_required:
        raise ParameterError(
            f"tester consumes {tester.samples_required} samples per trial, "
            f"got batch of shape {arr.shape}"
        )
    if arr.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    from repro.core.baselines import CollisionCountTester
    from repro.core.collision import CollisionGapTester, sorted_ties

    if isinstance(tester, CollisionGapTester):
        return ~sorted_ties(arr).any(axis=1)
    if isinstance(tester, CollisionCountTester):
        eq = sorted_ties(arr)
        # Collision pairs per row: a run of L equal samples contributes
        # C(L, 2) pairs = the sum over the run of each element's distance
        # to the run start, computed via the last not-equal position.
        idx = np.arange(eq.shape[1])
        last_neq = np.maximum.accumulate(np.where(~eq, idx, -1), axis=1)
        pairs = np.where(eq, idx - last_neq, 0).sum(axis=1)
        return pairs <= tester.collision_threshold
    return np.fromiter(
        (bool(tester.decide(row)) for row in arr), dtype=bool, count=arr.shape[0]
    )
