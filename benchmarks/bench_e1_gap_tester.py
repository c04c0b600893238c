"""E1 — The single-collision gap tester (Theorem 3.1 / Lemma 3.4).

Reproduces: ``Pr[reject | uniform] <= delta`` and
``Pr[reject | eps-far] >= (1 + gamma*eps^2) * delta`` with gamma the
explicit Eq. (1) slack, measured over vectorised Monte-Carlo batches on
the worst-case (Paninski) and bulk (two-bump) far families.
"""

from __future__ import annotations

import pytest

from repro.core import CollisionGapTester
from repro.distributions import far_family, uniform
from repro.experiments import Table, wilson_interval
from repro.zeroround.network import estimate_rejection_probability

from _common import save_table

N = 20_000
TRIALS = 30_000
BATCH = 8192  # trials per vectorised sample matrix in the batched engine
CASES = [
    (0.05, 0.6, "paninski"),
    (0.05, 0.9, "paninski"),
    (0.10, 0.9, "paninski"),
    (0.05, 0.9, "two_bump"),
    (0.10, 0.6, "two_bump"),
]


@pytest.mark.benchmark(group="e1")
def test_e1_gap_tester_table(benchmark):
    table = Table(
        [
            "delta",
            "eps",
            "family",
            "s",
            "rej(uniform)",
            "delta bound",
            "rej(far)",
            "(1+g*e^2)*delta floor",
        ],
        title="E1 - (delta, 1+gamma*eps^2)-gap of the single-collision tester",
    )
    u = uniform(N)
    for delta, eps, family in CASES:
        tester = CollisionGapTester.from_delta(N, delta)
        far = far_family(family, N, eps, rng=1)
        # Seed-like rng routes through the trial engine's error_rate, so
        # the estimates are chunk-keyed and invariant to batch.
        rate_u = estimate_rejection_probability(
            u, tester.s, TRIALS, rng=2, batch=BATCH
        )
        rate_f = estimate_rejection_probability(
            far, tester.s, TRIALS, rng=3, batch=BATCH
        )
        floor = (1.0 + tester.gamma(eps) * eps * eps) * tester.delta
        # Reproduction criteria (4-sigma Monte-Carlo margins).
        sigma = (tester.delta / TRIALS) ** 0.5
        assert rate_u <= tester.delta + 4 * sigma
        assert rate_f >= floor - 4 * sigma
        table.add_row(
            [delta, eps, family, tester.s, round(rate_u, 4),
             round(tester.delta, 4), round(rate_f, 4), round(floor, 4)]
        )
    print("\n" + save_table("e1_gap_tester", table))

    tester = CollisionGapTester.from_delta(N, 0.05)
    benchmark(
        lambda: estimate_rejection_probability(
            u, tester.s, 4096, rng=9, batch=4096
        )
    )
