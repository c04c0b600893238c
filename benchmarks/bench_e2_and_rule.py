"""E2 — 0-round testing under the AND rule (Theorem 1.1).

Reproduces: network error <= p at
``s = Theta((C_p/eps^2) * sqrt(n / k^{Theta(eps^2/C_p)}))`` samples per
node, and the *weak* k-dependence that is the AND rule's signature — a
16x larger network buys far less than the threshold rule's 4x saving
(compared in E3's table).
"""

from __future__ import annotations

import pytest

from repro.core.bounds import and_rule_samples
from repro.distributions import far_family, uniform
from repro.experiments import Table
from repro.zeroround import AndRuleNetworkTester

from _common import save_table

N, EPS, P = 50_000, 1.0, 0.45
K_SWEEP = [256, 1024, 4096]
TRIALS = 60


@pytest.mark.benchmark(group="e2")
def test_e2_and_rule_table(benchmark):
    table = Table(
        [
            "k",
            "m",
            "s/node",
            "paper curve",
            "err(uniform)",
            "err(far)",
            "budget p",
        ],
        title="E2 - Theorem 1.1 (AND rule) at n=%d, eps=%.1f" % (N, EPS),
    )
    u = uniform(N)
    far = far_family("paninski", N, EPS, rng=0)
    samples_seen = []
    for k in K_SWEEP:
        tester = AndRuleNetworkTester.solve(N, k, EPS, P)
        # Seed-like rng routes through the batched trial engine; batch=None
        # lets auto_batch pick a memory-capped trials-per-matrix.
        err_u = tester.estimate_error(u, True, TRIALS, rng=k, batch=None)
        err_f = tester.estimate_error(far, False, TRIALS, rng=k + 1, batch=None)
        # Reproduction criteria: both error sides within budget (+MC slack).
        assert err_u <= P + 0.15
        assert err_f <= P + 0.15
        samples_seen.append(tester.samples_per_node)
        table.add_row(
            [
                k,
                tester.params.m,
                tester.samples_per_node,
                round(and_rule_samples(N, k, EPS, P), 1),
                round(err_u, 3),
                round(err_f, 3),
                P,
            ]
        )
    # Weak k-dependence: 16x nodes saves less than 3x samples.
    assert samples_seen[0] / samples_seen[-1] < 3.0
    print("\n" + save_table("e2_and_rule", table))

    tester = AndRuleNetworkTester.solve(N, K_SWEEP[0], EPS, P)
    # Benchmark the trial-batched network (ZeroRoundNetwork.run_many): 16
    # network trials per call, one driver-draw matrix each.
    benchmark(lambda: tester.test_many(u, 16, rng=1))
