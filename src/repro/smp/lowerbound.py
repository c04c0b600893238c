"""Quantitative lower-bound machinery (Section 7 / Lemma 2.1).

The chain of the paper's Theorem 1.3:

1. An anonymous 0-round tester with network error ≤ 1/3 forces every node
   to be a ``(δ, α)``-gap tester with
   ``δ ≤ 1 − (2/3)^{1/k}`` and ``αδ ≥ 1 − (1/3)^{1/k}``
   (:func:`anonymous_tester_requirements` — in particular ``α > 5/4``).
2. Corollary 7.4: such a tester needs ``Ω(√(f(α)δn)/log n)`` samples,
   via the Theorem 7.1 reduction and the Theorem 7.2 Equality bound.
3. Lemma 2.1 is the information backbone: distinguishing acceptance rates
   ``1−δ`` vs ``1−τδ`` costs KL divergence at least ``(δ/4)·f(τ)``
   (:func:`verify_kl_separation` checks the inequality numerically).

The closed-form curves live in :mod:`repro.core.bounds`; this module adds
the pieces tied to the SMP argument.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.bounds import f_tau
from repro.distributions.distances import bernoulli_kl
from repro.exceptions import ParameterError


def anonymous_tester_requirements(k: int, p: float = 1.0 / 3.0) -> Tuple[float, float]:
    """Per-node ``(δ_max, α_min)`` forced by a network error ≤ *p*.

    From the proof of Theorem 1.3: an anonymous AND-rule network of ``k``
    nodes accepting uniform w.p. ≥ 1−p needs per-node rejection
    ``δ ≤ 1 − (1−p)^{1/k}``, and rejecting far inputs w.p. ≥ 1−p needs
    ``αδ ≥ 1 − p^{1/k}``; the ratio bound is ``α_min``.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if not 0.0 < p < 0.5:
        raise ParameterError(f"p must be in (0, 1/2), got {p}")
    delta_max = 1.0 - (1.0 - p) ** (1.0 / k)
    alpha_min = (1.0 - p ** (1.0 / k)) / delta_max
    return delta_max, alpha_min


def verify_kl_separation(delta: float, tau: float) -> Tuple[float, float]:
    """Both sides of Lemma 2.1: returns ``(exact_KL, lower_bound)``.

    ``exact_KL = D(B_{1−δ} ‖ B_{1−τδ})`` and
    ``lower_bound = (δ/4)·(τ − 1 − ln τ)``; the lemma asserts
    ``exact_KL ≥ lower_bound`` for ``δ ∈ (0, 1/4)``, ``τ ∈ (1, 1/δ)``.
    """
    if not 0.0 < delta < 0.25:
        raise ParameterError(f"delta must be in (0, 1/4), got {delta}")
    if not 1.0 < tau < 1.0 / delta:
        raise ParameterError(f"tau must be in (1, 1/delta), got {tau}")
    exact = bernoulli_kl(1.0 - delta, 1.0 - tau * delta)
    bound = delta / 4.0 * f_tau(tau)
    return exact, bound
