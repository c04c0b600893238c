"""The single-collision gap tester ``A_δ`` (Section 3.1 of the paper).

The tester draws ``s`` samples with ``s(s−1) = 2δn`` and accepts iff **all
samples are distinct**.  In this regime the expected number of collisions is
``δ ≪ 1``, so counting collisions (as the optimal centralized tester [21]
does) is pointless — the paper's insight is that the *mere presence* of one
collision is already a usable, if faint, signal:

- **Completeness** (Lemma 3.4(1)): under ``U_n``, Markov gives
  ``Pr[collision] ≤ binom(s,2)/n = δ``.
- **Soundness** (Lemma 3.4(2)): for ``μ`` ε-far from uniform, Lemma 3.2 gives
  ``χ(μ) ≥ (1+ε²)/n`` and the birthday bound of Lemma 3.3 (Wiener) yields
  ``Pr[no collision] ≤ e^{−t}(1+t)`` with ``t = (s−1)√χ``; expanding,
  ``Pr[collision] ≥ (1 + γ·ε²)·δ`` with the explicit slack ``γ`` of Eq. (1).

This module implements the tester, the integer sample-size solver, the γ
slack, the paper's validity region (``δ < ε⁴/64``, ``n > 64/(ε⁴δ)``), and
the exact probability formulas used by tests and benchmarks to cross-check
the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.gap import GapGuarantee
from repro.exceptions import ParameterError


def sample_size_for_delta(n: int, delta: float) -> int:
    """Largest integer ``s ≥ 2`` with ``s(s−1) ≤ 2δn``.

    The paper assumes ``s(s−1) = 2δn`` exactly; with integer ``s`` we round
    *down*, so the effective δ (:func:`effective_delta`) never exceeds the
    requested one.  That direction matters: in the distributed
    constructions completeness (all ``k`` nodes accepting the uniform
    distribution) is the global constraint, and it is governed by the
    effective δ.  Soundness callers should use the effective δ too.

    Parameters
    ----------
    n:
        Domain size, ``n ≥ 1``.
    delta:
        Requested completeness error, in ``(0, 1)``.
    """
    if n < 1:
        raise ParameterError(f"domain size must be >= 1, got {n}")
    if not 0.0 < delta < 1.0:
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    target = 2.0 * delta * n
    s = int(math.floor((1.0 + math.sqrt(1.0 + 4.0 * target)) / 2.0))
    # The closed form can overshoot by one when sqrt rounds up across an
    # integer boundary; step down so s(s-1) <= 2*delta*n really holds.
    while s > 2 and s * (s - 1) > target:
        s -= 1
    return max(s, 2)


def effective_delta(n: int, s: int) -> float:
    """The δ actually achieved by ``s`` samples: ``binom(s,2)/n``."""
    if s < 2:
        raise ParameterError(f"s must be >= 2, got {s}")
    return s * (s - 1) / (2.0 * n)


def gamma_slack(n: int, s: int, eps: float) -> float:
    """The slack term γ of Eq. (1) of the paper.

    ``γ = 1 − 1/s − √(2δ(1+ε²)) − (1/s + √(2δ(1+ε²)))/ε²`` with
    ``δ = s(s−1)/(2n)``.  The proved soundness gap is ``α = 1 + γ·ε²``; γ
    approaches 1 as ``n/s² → ∞`` and can be negative when the tester is run
    outside its regime (in which case no gap is guaranteed).
    """
    if not 0.0 < eps < 2.0:
        raise ParameterError(f"eps must be in (0, 2), got {eps}")
    delta = effective_delta(n, s)
    root = math.sqrt(2.0 * delta * (1.0 + eps * eps))
    return 1.0 - 1.0 / s - root - (1.0 / s + root) / (eps * eps)


def validity_region(n: int, delta: float, eps: float) -> Tuple[bool, str]:
    """Check the paper's strict parameter regime for the ``(δ, 1+ε²/2)`` gap.

    Section 3.1: the distributed instantiation uses ``δ < ε⁴/64`` and
    ``n > 64/(ε⁴·δ)``, under which ``γ ≥ 1/2``.  Returns ``(ok, reason)``;
    ``reason`` is empty when ``ok``.
    """
    if not 0.0 < eps < 2.0:
        raise ParameterError(f"eps must be in (0, 2), got {eps}")
    e4 = eps**4
    if delta >= e4 / 64.0:
        return False, f"delta={delta:.3g} >= eps^4/64 = {e4 / 64.0:.3g}"
    if n <= 64.0 / (e4 * delta):
        return False, f"n={n} <= 64/(eps^4 delta) = {64.0 / (e4 * delta):.3g}"
    return True, ""


def collision_free_log_probability_uniform(n: int, s: int) -> float:
    """``ln Pr[no collision]`` for ``s`` uniform samples on ``[n]``.

    The log of the birthday product, ``Σ_{i=0}^{s−1} ln(1 − i/n)``, and
    ``−inf`` for ``s > n`` (a collision is then certain).  This is the
    numerically safe form: for ``s² ≫ n`` (large-τ packages on a small
    domain) the product itself underflows ``float64`` to ``0.0`` around
    ``ln P < −745``, while the log stays finite and matches the lgamma
    identity ``lgamma(n+1) − lgamma(n−s+1) − s·ln n`` to machine
    precision — callers that need ratios or complements of tiny
    survival probabilities should work from this value.
    """
    if n < 1:
        raise ParameterError(f"domain size must be >= 1, got {n}")
    if s < 0:
        raise ParameterError(f"s must be >= 0, got {s}")
    if s > n:
        return float("-inf")
    i = np.arange(s, dtype=np.float64)
    return float(np.log1p(-i / n).sum())


def collision_free_probability_uniform(n: int, s: int) -> float:
    """Exact ``Pr[no collision]`` for ``s`` uniform samples on ``[n]``.

    ``exp`` of :func:`collision_free_log_probability_uniform`; the
    product ``∏_{i=0}^{s−1} (1 − i/n)`` is always computed in log space
    for numerical stability.  Always at least ``1 − binom(s,2)/n`` (the
    Markov/union bound the paper uses), a fact the tests verify.  In the
    deep-underflow corner (``s² ≫ n``) this linear-scale value rounds to
    ``0.0``; use the log variant when that distinction matters.
    """
    return float(np.exp(collision_free_log_probability_uniform(n, s)))


def far_accept_upper_bound(chi: float, s: int) -> float:
    """Wiener's birthday bound (Lemma 3.3): ``Pr[no collision] ≤ e^{−t}(1+t)``
    with ``t = (s−1)√χ``, for *any* distribution with collision probability
    ``χ``."""
    if not 0.0 < chi <= 1.0:
        raise ParameterError(f"chi must be in (0, 1], got {chi}")
    if s < 1:
        raise ParameterError(f"s must be >= 1, got {s}")
    t = (s - 1) * math.sqrt(chi)
    return math.exp(-t) * (1.0 + t)


#: Below this size a hash set with early exit beats even a plain
#: ``np.sort`` (measured crossover ≈ 28 on CPython 3.11) — the common
#: regime, since the paper's testers use s = O(√(δn)) samples per node.
_SET_SCAN_CUTOFF = 24


def has_collision(samples: np.ndarray) -> bool:
    """Whether the sample batch contains two equal values.

    Small batches use a hash set with an early exit on the first repeat —
    ``O(s)`` expected, allocation-light, and up to ~3× faster than any
    vectorised route at tiny ``s``.  Larger batches use a sort+diff scan,
    which beats the previous ``np.unique`` implementation ~2× by skipping
    the unique-value extraction it never needed.  ``tools/bench_perf.py``
    micro-benchmarks both paths.
    """
    arr = np.asarray(samples)
    size = arr.size
    if size < 2:
        return False
    if size <= _SET_SCAN_CUTOFF:
        seen = set()
        for value in arr.ravel().tolist():
            if value in seen:
                return True
            seen.add(value)
        return False
    ordered = np.sort(arr, axis=None)
    return bool((ordered[1:] == ordered[:-1]).any())


def sorted_ties(samples: np.ndarray) -> np.ndarray:
    """``(..., s − 1)`` flags of equal sorted neighbours along the last
    axis — the one sort-and-tie step of the vectorised integer collision
    rules (a run of ``L`` equal samples shows as ``L − 1`` flags)."""
    ordered = np.sort(samples, axis=-1)
    return ordered[..., 1:] == ordered[..., :-1]


@dataclass(frozen=True)
class CollisionGapTester:
    """The paper's single-collision tester ``A_δ``.

    Accepts iff all ``s`` samples are distinct.  Construct directly from a
    sample count, or from a requested δ via :meth:`from_delta`.

    Attributes
    ----------
    n:
        Domain size the tester is calibrated for.
    s:
        Samples per invocation (``s ≥ 2``; with ``s < 2`` no collision is
        possible and the tester is vacuous).

    Examples
    --------
    >>> tester = CollisionGapTester.from_delta(n=10_000, delta=0.05)
    >>> tester.s
    32
    >>> round(tester.delta, 4)  # effective delta after integer rounding
    0.0496
    """

    n: int
    s: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ParameterError(f"n must be >= 1, got {self.n}")
        if self.s < 2:
            raise ParameterError(f"s must be >= 2, got {self.s}")

    @staticmethod
    def from_delta(n: int, delta: float) -> "CollisionGapTester":
        """Build the tester with the smallest ``s`` achieving error ≤ ~δ."""
        return CollisionGapTester(n=n, s=sample_size_for_delta(n, delta))

    # -- CentralizedTester protocol ------------------------------------

    @property
    def samples_required(self) -> int:
        """Samples consumed per invocation (= ``s``)."""
        return self.s

    def decide(self, samples: np.ndarray) -> bool:
        """Accept iff the batch has no repeated value.

        Raises if the batch size differs from ``s`` — a size mismatch is
        always a harness bug, and silently accepting it would invalidate
        the guarantee.
        """
        arr = np.asarray(samples)
        if arr.size != self.s:
            raise ParameterError(
                f"tester calibrated for s={self.s} samples, got {arr.size}"
            )
        return not has_collision(arr)

    # -- analysis ------------------------------------------------------

    @property
    def delta(self) -> float:
        """Effective completeness error ``binom(s,2)/n``."""
        return effective_delta(self.n, self.s)

    def gamma(self, eps: float) -> float:
        """γ slack of Eq. (1) at distance *eps*."""
        return gamma_slack(self.n, self.s, eps)

    def guarantee(self, eps: float) -> GapGuarantee:
        """The proved ``(δ, α)`` guarantee at distance *eps*.

        ``α = 1 + γ·ε²`` when γ > 0; if γ ≤ 0 the construction proves no
        gap and the guarantee carries ``alpha`` barely above 1 with
        ``in_paper_regime = False`` so callers can tell.
        """
        g = self.gamma(eps)
        delta = self.delta
        ok, _ = validity_region(self.n, delta, eps)
        alpha = 1.0 + max(g, 1e-12) * eps * eps
        return GapGuarantee(
            delta=delta,
            alpha=alpha,
            eps=eps,
            samples=self.s,
            gamma=g,
            in_paper_regime=ok and g >= 0.5,
        )

    def uniform_accept_probability(self) -> float:
        """Exact acceptance probability under the uniform distribution."""
        return collision_free_probability_uniform(self.n, self.s)

    def far_accept_probability_bound(self, eps: float) -> float:
        """Upper bound on acceptance probability for any ε-far distribution.

        Combines Lemma 3.2 (``χ ≥ (1+ε²)/n``) with Lemma 3.3.
        """
        chi = (1.0 + eps * eps) / self.n
        return far_accept_upper_bound(chi, self.s)

    def accept_probability(self, chi: float) -> float:
        """Upper bound on acceptance for a distribution of known ``χ``."""
        return far_accept_upper_bound(chi, self.s)
