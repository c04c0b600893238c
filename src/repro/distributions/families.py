"""Certified families of distributions for uniformity-testing experiments.

Every "far" builder in this module returns a distribution whose ``L1``
distance to uniform is *exactly* the requested ``eps`` (up to floating-point
round-off), so experiments can assert their workloads really are ε-far
rather than hoping.  The families cover the qualitatively different ways a
distribution can deviate from uniform:

- :func:`paninski_pair` -- the classical hard instance for collision-based
  testers: pair up the domain and shift mass ``ε/(2n)`` within each pair.
  This family minimises the collision-probability excess at a given ``L1``
  distance (it meets Lemma 3.2 with near-equality), so it is the *worst case*
  for the paper's tester.
- :func:`two_bump` -- half the domain heavy, half light; a smooth bulk
  deviation.
- :func:`heavy_element` -- all the deviation concentrated on a single
  outcome; the *easiest* case for collision testers.
- :func:`restricted_support` -- uniform over a fraction of the domain
  (support size ``n·(1 − ε/2)`` gives ``L1`` distance exactly ``ε``).
- :func:`zipf` -- a power law, the classic "natural skew" model for the
  paper's motivating DoS-detection scenario (not ε-calibrated; its distance
  is whatever the law gives and is reported by the helper).
- :func:`mixture` / :func:`far_family` -- combinators and a registry used by
  the benchmark sweeps.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

import numpy as np

from repro.distributions.base import DiscreteDistribution
from repro.distributions.distances import l1_distance_to_uniform
from repro.exceptions import InvalidDistributionError, ParameterError
from repro.rng import SeedLike, ensure_rng


def uniform(n: int) -> DiscreteDistribution:
    """The uniform distribution ``U_n`` on ``{0, ..., n-1}``."""
    if n <= 0:
        raise ParameterError(f"domain size must be positive, got {n}")
    return DiscreteDistribution(np.full(n, 1.0 / n), name=f"uniform(n={n})")


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 2.0:
        raise ParameterError(f"eps must be in (0, 2) for L1 distance, got {eps}")


def paninski_pair(n: int, eps: float, rng: SeedLike = None) -> DiscreteDistribution:
    """Paninski's paired perturbation: exactly ε-far, minimal collision excess.

    The domain is split into ``n/2`` pairs; within each pair one element gets
    mass ``(1 + ε)/n`` and the other ``(1 − ε)/n``, with the heavy side of
    each pair chosen at random (a random member of the classical hard
    family).  Requires even ``n`` and ``ε ≤ 1``.

    Per element ``|μ(x) − 1/n| = ε/n``, so ``‖μ − U‖₁ = ε`` exactly, and the
    collision probability is ``χ(μ) = (1 + ε²)/n`` — meeting the Lemma 3.2
    bound with equality, which is what makes this the worst case for
    collision-based testers.
    """
    _check_eps(eps)
    if eps > 1.0:
        raise ParameterError(f"paninski_pair requires eps <= 1, got {eps}")
    if n < 2 or n % 2 != 0:
        raise ParameterError(f"paninski_pair requires even n >= 2, got {n}")
    gen = ensure_rng(rng)
    signs = gen.choice([-1.0, 1.0], size=n // 2)
    probs = np.empty(n, dtype=np.float64)
    probs[0::2] = (1.0 + signs * eps) / n
    probs[1::2] = (1.0 - signs * eps) / n
    return DiscreteDistribution(probs, name=f"paninski(n={n},eps={eps})")


def two_bump(n: int, eps: float) -> DiscreteDistribution:
    """Half the domain heavy, half light; exactly ε-far from uniform.

    Elements ``0 .. n/2-1`` receive mass ``(1 + ε/2)/n`` and the rest
    ``(1 − ε/2)/n`` (odd ``n`` leaves the middle element untouched and
    rescales, preserving the exact distance).
    """
    _check_eps(eps)
    if n < 2:
        raise ParameterError(f"two_bump requires n >= 2, got {n}")
    half = n // 2
    # Put +eps/2 total excess on the first half, -eps/2 total deficit on the
    # last `rest` elements; the middle element (odd n) keeps mass 1/n.
    probs = np.full(n, 1.0 / n)
    rest = n - half if n % 2 == 0 else n - half - 1
    probs[:half] += (eps / 2.0) / half
    probs[n - rest:] -= (eps / 2.0) / rest
    if np.any(probs < 0):
        raise ParameterError(
            f"two_bump(n={n}, eps={eps}) drives probabilities negative; "
            "decrease eps or increase n"
        )
    return DiscreteDistribution(probs, name=f"two_bump(n={n},eps={eps})")


def heavy_element(n: int, eps: float, element: int = 0) -> DiscreteDistribution:
    """All deviation on one outcome: ``μ(element) = 1/n + ε/2``.

    The remaining mass deficit ``ε/2`` is spread evenly over the other
    elements, giving ``‖μ − U‖₁ = ε`` exactly.  This is the *easiest* far
    instance for collision-based testers because it maximises χ at a given
    distance.
    """
    _check_eps(eps)
    if n < 2:
        raise ParameterError(f"heavy_element requires n >= 2, got {n}")
    if not 0 <= element < n:
        raise ParameterError(f"element must be in [0, {n}), got {element}")
    if eps / 2.0 > 1.0 - 1.0 / n:
        raise ParameterError(f"eps={eps} too large for heavy_element on n={n}")
    deficit = (eps / 2.0) / (n - 1)
    if deficit > 1.0 / n:
        raise ParameterError(
            f"heavy_element(n={n}, eps={eps}) drives probabilities negative"
        )
    probs = np.full(n, 1.0 / n - deficit)
    probs[element] = 1.0 / n + eps / 2.0
    return DiscreteDistribution(probs, name=f"heavy(n={n},eps={eps})")


def restricted_support(n: int, eps: float) -> DiscreteDistribution:
    """Uniform over a prefix of the domain, exactly ε-far from ``U_n``.

    Uniform over a support of size ``m`` has ``L1`` distance
    ``2(1 − m/n)`` to ``U_n``; we solve ``m = n(1 − ε/2)`` and, because ``m``
    must be an integer, mix the two straddling support sizes to land on
    ``eps`` exactly.
    """
    _check_eps(eps)
    if n < 2:
        raise ParameterError(f"restricted_support requires n >= 2, got {n}")
    m_real = n * (1.0 - eps / 2.0)
    m_lo = int(np.floor(m_real + 1e-9))
    if m_lo < 1:
        raise ParameterError(f"eps={eps} too large for restricted_support on n={n}")
    if abs(m_lo - m_real) < 1e-9:
        probs = np.zeros(n)
        probs[:m_lo] = 1.0 / m_lo
        return DiscreteDistribution(probs, name=f"support(n={n},eps={eps})")
    # Mix uniform-over-(m_lo) and uniform-over-(m_lo+1) to hit eps exactly:
    # both deviate in the same direction, distance is linear in the support
    # mass allocation, so we can solve a 1-D equation on the first m_lo+1
    # cells.  Simpler exact construction: support = first m_lo+1 elements,
    # with the last support element at reduced mass.
    # Let the first m_lo elements carry mass a each and element m_lo carry b,
    # with m_lo*a + b = 1, a >= 1/n >= b. Distance = m_lo*(a-1/n) + (1/n - b)
    # + (n-m_lo-1)/n = eps.
    tail = (n - m_lo - 1) / n
    # Using total mass: m_lo*a + b = 1 -> m_lo*(a - 1/n) = 1 - b - m_lo/n.
    # distance = (1 - b - m_lo/n) + (1/n - b) + tail = eps -> solve for b.
    b = (1.0 - m_lo / n + 1.0 / n + tail - eps) / 2.0
    if -1e-12 < b < 0.0:  # pure float round-off
        b = 0.0
    a = (1.0 - b) / m_lo
    if b < 0 or b > 1.0 / n or a < 1.0 / n:
        raise ParameterError(
            f"restricted_support(n={n}, eps={eps}) has no valid construction"
        )
    probs = np.zeros(n)
    probs[:m_lo] = a
    probs[m_lo] = b
    return DiscreteDistribution(probs, name=f"support(n={n},eps={eps})")


def zipf(n: int, exponent: float = 1.0) -> DiscreteDistribution:
    """Zipf/power-law distribution: ``μ(i) ∝ (i+1)^{-exponent}``.

    Not ε-calibrated -- use :func:`l1_distance_to_uniform` to read off its
    actual distance.  Models the "natural skew" of the paper's DoS-detection
    motivation (a few flows dominating traffic).
    """
    if n <= 0:
        raise ParameterError(f"domain size must be positive, got {n}")
    if exponent < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent}")
    weights = (np.arange(1, n + 1, dtype=np.float64)) ** (-exponent)
    return DiscreteDistribution(weights / weights.sum(), name=f"zipf(n={n},a={exponent})")


def mixture(
    components: Sequence[DiscreteDistribution],
    weights: Sequence[float],
    name: str = "",
) -> DiscreteDistribution:
    """Convex combination of *components* with *weights*."""
    if len(components) != len(weights) or not components:
        raise ParameterError("components and weights must be equal-length and non-empty")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-9:
        raise ParameterError("weights must be non-negative and sum to 1")
    n = components[0].n
    acc = np.zeros(n)
    for comp, wi in zip(components, w):
        if comp.n != n:
            raise InvalidDistributionError("mixture components must share a domain")
        acc += wi * comp.probs
    return DiscreteDistribution(acc, name=name or "mixture")


#: Registry of calibrated far-family builders, keyed by name.  Each builder
#: has signature ``(n, eps, rng) -> DiscreteDistribution`` and returns a
#: distribution with ``L1`` distance to uniform exactly ``eps``.
FAR_FAMILY_BUILDERS: Dict[str, Callable[..., DiscreteDistribution]] = {
    "paninski": paninski_pair,
    "two_bump": lambda n, eps, rng=None: two_bump(n, eps),
    "heavy": lambda n, eps, rng=None: heavy_element(n, eps),
    "support": lambda n, eps, rng=None: restricted_support(n, eps),
}


def far_family(
    family: str, n: int, eps: float, rng: SeedLike = None
) -> DiscreteDistribution:
    """Build a certified ε-far distribution from the named *family*.

    The returned distribution's distance to uniform is asserted to equal
    *eps* within ``1e-9``; a failed assertion indicates a construction bug,
    never bad luck.
    """
    try:
        builder = FAR_FAMILY_BUILDERS[family]
    except KeyError:
        known = ", ".join(sorted(FAR_FAMILY_BUILDERS))
        raise ParameterError(f"unknown far family {family!r}; known: {known}") from None
    dist = builder(n, eps, rng)
    actual = l1_distance_to_uniform(dist)
    if abs(actual - eps) > 1e-9:
        raise AssertionError(
            f"far family {family!r} produced distance {actual}, expected {eps}"
        )
    return dist
