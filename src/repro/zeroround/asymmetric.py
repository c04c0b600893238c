"""Section 4 — 0-round testing with asymmetric per-sample costs.

Each node ``i`` pays ``c_i`` per sample; the objective is to minimise the
**maximum individual cost** ``C = max_i s_i·c_i``.  Writing ``T_i = 1/c_i``
for the inverse costs, the paper shows:

- **Threshold rule** (Section 4.2): give node ``i`` responsibility
  ``δ_i = C²T_i²/(2n)`` (i.e. ``s_i = C·T_i`` samples); the Chernoff window
  analysis goes through with ``Σ_i δ_i`` in place of ``kδ``, yielding
  ``C = Θ(√n/ε²)/‖T‖₂``.  The symmetric case has ``‖T‖₂ = √k``, recovering
  Theorem 1.2.
- **AND rule** (Section 4.1): node ``i`` runs AND-of-``m`` with
  ``δ_i = (C·T_i)^{2m}/((2n)^m·m^{2m})``; the completeness constraint
  ``Π(1−δ_i) = 1−p`` pins ``C = (ln 1/(1−p))^{1/(2m)}·√(2n)·m/‖T‖_{2m}``,
  and **Lemma 4.1** (proved by Lagrange multipliers + bordered Hessians)
  shows soundness is inherited from the symmetric case for free: under the
  completeness constraint, the acceptance probability of a far distribution
  is *maximised* at the symmetric point.

:func:`lemma41_products` exposes the two sides of Lemma 4.1 numerically so
the test suite can verify the extremality claim on random cost vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.amplify import RepeatedAndTester
from repro.core.collision import CollisionGapTester, gamma_slack
from repro.core.gap import CentralizedTester
from repro.exceptions import InfeasibleParametersError, ParameterError
from repro.zeroround.decision import AndRule, ThresholdRule, threshold_accepts
from repro.zeroround.network import ZeroRoundNetwork, collision_reject_flags

#: How many multiplicative bumps of the budget C we try before declaring the
#: integer-rounded constraint system infeasible.
_MAX_BUDGET_BUMPS = 200
_BUDGET_BUMP = 1.05


@dataclass(frozen=True)
class CostVector:
    """Per-sample costs ``c_i > 0`` for the k nodes, with norm helpers.

    Examples
    --------
    >>> costs = CostVector.of([1.0, 1.0, 4.0])
    >>> round(costs.inverse_norm(2), 3)  # ||T||_2 with T = (1, 1, 0.25)
    1.436
    """

    costs: Tuple[float, ...]

    @staticmethod
    def of(costs: Sequence[float]) -> "CostVector":
        arr = tuple(float(c) for c in costs)
        if not arr:
            raise ParameterError("cost vector must be non-empty")
        if any(c <= 0 or not math.isfinite(c) for c in arr):
            raise ParameterError("all per-sample costs must be positive and finite")
        return CostVector(costs=arr)

    @staticmethod
    def symmetric(k: int, cost: float = 1.0) -> "CostVector":
        """All-equal costs — the degenerate case recovering Section 3."""
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        return CostVector.of([cost] * k)

    @property
    def k(self) -> int:
        """Number of nodes."""
        return len(self.costs)

    @property
    def inverse(self) -> np.ndarray:
        """The inverse-cost vector ``T`` with ``T_i = 1/c_i``."""
        return 1.0 / np.asarray(self.costs, dtype=np.float64)

    def inverse_norm(self, order: float) -> float:
        """``‖T‖_order`` — the quantity the paper's costs depend on."""
        if order <= 0:
            raise ParameterError(f"norm order must be positive, got {order}")
        t = self.inverse
        return float((t**order).sum() ** (1.0 / order))


# ---------------------------------------------------------------------------
# Threshold rule (Section 4.2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymmetricThresholdParameters:
    """Solved Section 4.2 instance.

    Attributes
    ----------
    n, eps, p:
        Problem parameters.
    costs:
        The cost vector.
    samples:
        Integer per-node sample counts ``s_i`` (0 = node abstains).
    deltas:
        Effective per-node ``δ_i`` after rounding.
    threshold:
        Alarm-count threshold ``T``.
    max_cost:
        ``max_i s_i·c_i`` — the objective value achieved.
    budget:
        The continuous budget ``C`` the solver converged to.
    gamma:
        Worst-case γ slack over participating nodes.
    """

    n: int
    eps: float
    p: float
    costs: CostVector
    samples: Tuple[int, ...]
    deltas: Tuple[float, ...]
    threshold: int
    max_cost: float
    budget: float
    gamma: float

    @property
    def total_delta(self) -> float:
        """``Σ_i δ_i`` — plays the role of ``kδ`` in Theorem 1.2."""
        return float(sum(self.deltas))

    def build_network(self) -> ZeroRoundNetwork:
        """One collision tester per participating node + threshold rule."""
        testers: List[Optional[CentralizedTester]] = []
        for s in self.samples:
            testers.append(CollisionGapTester(n=self.n, s=s) if s >= 2 else None)
        return ZeroRoundNetwork(testers=testers, rule=ThresholdRule(self.threshold))

    def alarms(self, distribution, rng=None) -> np.ndarray:
        """Per-node alarm flags for one epoch, vectorised by sample count.

        Identical in distribution to :meth:`build_network`'s object model
        (each node draws its own i.i.d. batch), but grouping nodes with the
        same ``s_i`` into one matrix makes 20k-node fleets instant.
        """
        distribution.require_domain(self.n)
        samples = np.asarray(self.samples)
        flags = np.zeros(samples.size, dtype=bool)
        for s in np.unique(samples[samples >= 2]):
            nodes = samples == s
            flags[nodes] = collision_reject_flags(
                distribution, int(nodes.sum()), int(s), rng
            )
        return flags

    def rejection_count(self, distribution, rng=None) -> int:
        """Alarm count for one epoch (see :meth:`alarms`)."""
        return int(self.alarms(distribution, rng).sum())

    def test(self, distribution, rng=None) -> bool:
        """One epoch's network verdict (True = accept), vectorised."""
        flags = self.alarms(distribution, rng)
        return bool(threshold_accepts(flags, self.threshold))

    def test_many(self, distribution, trials: int, rng=None, batch: int = 4096):
        """Accept verdicts for *trials* epochs, trial-batched.

        Routes through :meth:`~repro.zeroround.network.ZeroRoundNetwork.run_many`,
        whose grouped-by-``s`` kernel keeps heterogeneous fleets with many
        distinct sample counts to a handful of numpy passes per batch.
        """
        distribution.require_domain(self.n)
        return self.build_network().run_many(distribution, trials, rng, batch=batch)


def asymmetric_threshold_parameters(
    n: int,
    costs: CostVector,
    eps: float,
    p: float = 1.0 / 3.0,
    slack: float = 1.05,
) -> AsymmetricThresholdParameters:
    """Solve the Section 4.2 threshold construction for a cost vector.

    Starts from the paper's continuous optimum
    ``C = √(2n·Δ)/‖T‖₂`` (where ``Δ = Σδ_i`` is the same total-rejection
    budget as the symmetric solver's ``kδ``), rounds ``s_i = ⌊C·T_i⌋``, and
    bumps ``C`` up geometrically until the integer solution still satisfies
    the Chernoff window of Eq. (5).

    Raises
    ------
    InfeasibleParametersError
        If no bounded budget satisfies the window (``n`` too small, or all
        nodes priced out).
    """
    if not 0.0 < eps < 2.0:
        raise ParameterError(f"eps must be in (0, 2), got {eps}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    big_l = math.log(1.0 / p)
    t_norm2 = costs.inverse_norm(2)
    inverse = costs.inverse

    # Required Σδ_i at a given γ (same window as the symmetric solver).
    def needed_total_delta(gamma: float) -> float:
        g = gamma * eps * eps
        return slack * ((math.sqrt(3.0 * big_l) + math.sqrt(2.0 * big_l * (1.0 + g))) / g) ** 2

    # Cap per-node samples at the last s whose gamma slack stays healthy:
    # past that point extra samples at one node *hurt* the provable gap
    # (Eq. 1 degrades), so a cheap node's surplus budget is simply unused.
    s_cap = 2
    while gamma_slack(n, s_cap + 1, eps) >= 0.3 or s_cap + 1 <= 4:
        s_cap += 1
        if s_cap * (s_cap - 1) >= n:  # delta ~ 1/2: never useful beyond
            break

    budget = math.sqrt(2.0 * n * needed_total_delta(0.5)) / t_norm2
    for _ in range(_MAX_BUDGET_BUMPS):
        raw = budget * inverse
        samples = np.minimum(np.floor(raw).astype(np.int64), s_cap)
        samples[samples < 2] = 0  # a node needs >= 2 samples to ever collide
        deltas = np.where(
            samples >= 2, samples * (samples - 1) / (2.0 * n), 0.0
        )
        total = float(deltas.sum())
        participating = samples[samples >= 2]
        if total > 0 and participating.size > 0:
            # Per-node gamma: eta_far sums each node's own proved gap.
            gamma_by_s = {
                int(s): gamma_slack(n, int(s), eps)
                for s in np.unique(participating)
            }
            gamma = min(gamma_by_s.values())
            eta_u = total
            gamma_vec = np.zeros(samples.size)
            for s_value, g in gamma_by_s.items():
                gamma_vec[samples == s_value] = g
            eta_far = float((deltas * (1.0 + gamma_vec * eps * eps)).sum())
            t_lo = eta_u + math.sqrt(3.0 * big_l * eta_u)
            t_hi = eta_far - math.sqrt(2.0 * big_l * eta_far)
            threshold = int(math.ceil((t_lo + t_hi) / 2.0))
            if gamma > 0 and t_lo <= threshold <= t_hi:
                cost_arr = np.asarray(costs.costs)
                return AsymmetricThresholdParameters(
                    n=n,
                    eps=eps,
                    p=p,
                    costs=costs,
                    samples=tuple(int(s) for s in samples),
                    deltas=tuple(float(d) for d in deltas),
                    threshold=threshold,
                    max_cost=float((samples * cost_arr).max()),
                    budget=budget,
                    gamma=gamma,
                )
        budget *= _BUDGET_BUMP
    raise InfeasibleParametersError(
        f"no feasible asymmetric threshold solution at n={n}, eps={eps}, "
        f"p={p} for the given cost vector (try larger n or more nodes)"
    )


# ---------------------------------------------------------------------------
# AND rule (Section 4.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymmetricAndParameters:
    """Solved Section 4.1 instance.

    Node ``i`` runs AND-of-``m`` repetitions of a collision tester with
    ``samples_per_repetition[i]`` samples each (0 = abstain).
    """

    n: int
    eps: float
    p: float
    costs: CostVector
    m: int
    samples_per_repetition: Tuple[int, ...]
    node_deltas: Tuple[float, ...]
    max_cost: float
    budget: float
    gamma: float

    @property
    def samples(self) -> Tuple[int, ...]:
        """Total per-node samples ``m·s_i``."""
        return tuple(self.m * s for s in self.samples_per_repetition)

    def build_network(self) -> ZeroRoundNetwork:
        """One AND-of-m tester per participating node + AND rule."""
        testers: List[Optional[CentralizedTester]] = []
        for s in self.samples_per_repetition:
            if s >= 2:
                base = CollisionGapTester(n=self.n, s=s)
                testers.append(RepeatedAndTester(base=base, m=self.m))
            else:
                testers.append(None)
        return ZeroRoundNetwork(testers=testers, rule=AndRule())


def asymmetric_and_parameters(
    n: int,
    costs: CostVector,
    eps: float,
    p: float = 1.0 / 3.0,
) -> AsymmetricAndParameters:
    """Solve the Section 4.1 AND-rule construction for a cost vector.

    Follows the paper: all nodes share the repetition count ``m`` and the
    per-repetition gap ``α = 1+γε²``; the budget starts at the closed form
    ``C = (ln 1/(1−p))^{1/(2m)}·√(2n)·m/‖T‖_{2m}`` and is bumped until the
    integer-rounded solution satisfies both the completeness product
    ``Π(1−δ_i) ≥ 1−p`` (automatic after rounding down) and the soundness
    product ``Π(1−α^m·δ_i) ≤ p`` (checked directly — this is the quantity
    Lemma 4.1 bounds by the symmetric case).
    """
    if not 0.0 < eps < 2.0:
        raise ParameterError(f"eps must be in (0, 2), got {eps}")
    if not 0.0 < p < 1.0:
        raise ParameterError(f"p must be in (0, 1), got {p}")
    inverse = costs.inverse
    ln_complete = math.log(1.0 / (1.0 - p))

    for m in range(1, 61):
        norm_2m = costs.inverse_norm(2 * m)
        budget = (ln_complete ** (1.0 / (2 * m))) * math.sqrt(2.0 * n) * m / norm_2m
        for _ in range(_MAX_BUDGET_BUMPS):
            per_rep = np.floor(budget * inverse / m).astype(np.int64)
            per_rep[per_rep < 2] = 0
            rep_deltas = np.where(
                per_rep >= 2, per_rep * (per_rep - 1) / (2.0 * n), 0.0
            )
            node_deltas = rep_deltas**m
            complete = float(np.prod(1.0 - node_deltas))
            active = per_rep[per_rep >= 2]
            if active.size == 0:
                budget *= _BUDGET_BUMP
                continue
            gamma = min(gamma_slack(n, int(s), eps) for s in np.unique(active))
            if gamma <= 0:
                budget *= _BUDGET_BUMP
                continue
            alpha = 1.0 + gamma * eps * eps
            far_rejects = np.minimum((alpha * rep_deltas) ** m, 1.0)
            sound = float(np.prod(1.0 - far_rejects))
            if complete >= 1.0 - p and sound <= p:
                cost_arr = np.asarray(costs.costs)
                return AsymmetricAndParameters(
                    n=n,
                    eps=eps,
                    p=p,
                    costs=costs,
                    m=m,
                    samples_per_repetition=tuple(int(s) for s in per_rep),
                    node_deltas=tuple(float(d) for d in node_deltas),
                    max_cost=float((m * per_rep * cost_arr).max()),
                    budget=budget,
                    gamma=gamma,
                )
            if complete < 1.0 - p:
                # Rounding cannot cause this (floors only shrink deltas), so
                # the budget overshot so far that completeness broke: no
                # larger budget will help at this m.
                break
            budget *= _BUDGET_BUMP
    raise InfeasibleParametersError(
        f"no feasible asymmetric AND solution at n={n}, eps={eps}, p={p} "
        "for the given cost vector (try larger n)"
    )


# ---------------------------------------------------------------------------
# Lemma 4.1 — numeric verification helper
# ---------------------------------------------------------------------------


def lemma41_products(x: Sequence[float], a: float) -> Tuple[float, float]:
    """Both sides of Lemma 4.1 for a concrete vector.

    Given ``X ∈ [0, 1)ᵏ`` and a gap ``a > 1``, returns
    ``(g(X), g(Y))`` where ``g(Z) = Π(1 − a·z_i)``, ``Y`` is the symmetric
    vector with the same completeness product ``c = Π(1 − x_i)``
    (``y_i = 1 − c^{1/k}``).  Lemma 4.1 asserts ``g(X) ≤ g(Y)`` whenever
    ``a < 1/(1−c)`` — the soundness of the asymmetric construction is at
    least as good as the symmetric one's.
    """
    arr = np.asarray(list(x), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("x must be a non-empty vector")
    if np.any(arr < 0) or np.any(arr >= 1):
        raise ParameterError("x entries must lie in [0, 1)")
    if a <= 1.0:
        raise ParameterError(f"a must exceed 1, got {a}")
    c = float(np.prod(1.0 - arr))
    if a >= 1.0 / (1.0 - c):
        raise ParameterError(
            f"Lemma 4.1 requires a < 1/(1-c) = {1.0 / (1.0 - c):.4g}, got {a}"
        )
    d = 1.0 - c ** (1.0 / arr.size)
    g_x = float(np.prod(1.0 - a * arr))
    g_y = float((1.0 - a * d) ** arr.size)
    return g_x, g_y
