"""E3 — 0-round testing under the threshold rule (Theorem 1.2).

Reproduces the theorem's headline shape: per-node samples
``s = Theta(sqrt(n/k)/eps^2)`` — a log-log slope of −1/2 in k — with
measured network error <= 1/3 on both sides, plus the head-to-head
against the AND rule at a common configuration (the threshold rule must
win decisively).
"""

from __future__ import annotations

import pytest

from repro.core.bounds import threshold_rule_samples
from repro.core.params import and_rule_parameters
from repro.distributions import far_family, uniform
from repro.experiments import Table, loglog_slope
from repro.zeroround import ThresholdNetworkTester

from _common import save_table

N, EPS = 50_000, 0.9
K_SWEEP = [10_000, 20_000, 40_000, 80_000, 160_000]
TRIALS = 40


@pytest.mark.benchmark(group="e3")
def test_e3_threshold_scaling_table(benchmark):
    table = Table(
        ["k", "s/node", "paper curve", "T", "err(uniform)", "err(far)"],
        title="E3 - Theorem 1.2 (threshold rule) at n=%d, eps=%.1f" % (N, EPS),
    )
    u = uniform(N)
    far = far_family("paninski", N, EPS, rng=0)
    ks, ss = [], []
    for k in K_SWEEP:
        tester = ThresholdNetworkTester.solve(N, k, EPS)
        # Seed-like rng routes through the batched trial engine; batch=None
        # lets auto_batch pick a memory-capped trials-per-matrix.
        err_u = tester.estimate_error(u, True, TRIALS, rng=k, batch=None)
        err_f = tester.estimate_error(far, False, TRIALS, rng=k + 1, batch=None)
        assert err_u <= 1 / 3 + 0.1
        assert err_f <= 1 / 3 + 0.1
        ks.append(k)
        ss.append(tester.samples_per_node)
        table.add_row(
            [
                k,
                tester.samples_per_node,
                round(threshold_rule_samples(N, k, EPS), 1),
                tester.params.threshold,
                round(err_u, 3),
                round(err_f, 3),
            ]
        )
    slope, _ = loglog_slope(ks, ss)
    table.add_row(["log-log slope", round(slope, 3), "-0.5 (theory)", "", "", ""])
    # Reproduction criterion: s ~ k^{-1/2}.
    assert -0.65 <= slope <= -0.35
    print("\n" + save_table("e3_threshold_scaling", table))

    tester = ThresholdNetworkTester.solve(N, 20_000, EPS)
    # Benchmark the trial-batched network (ZeroRoundNetwork.run_many): 16
    # network trials per call, one driver-draw matrix each.
    benchmark(lambda: tester.test_many(u, 16, rng=1))


@pytest.mark.benchmark(group="e3")
def test_e3_threshold_vs_and_rule(benchmark):
    """Who wins: threshold vs AND at the same (n, k, eps, p)."""
    n, k, eps, p = 1_000_000, 16_384, 1.0, 1 / 3
    thr = ThresholdNetworkTester.solve(n, k, eps, p)
    anr = and_rule_parameters(n, k, eps, p)
    table = Table(
        ["rule", "samples/node", "network error budget"],
        title="E3b - decision-rule head-to-head at n=%d, k=%d" % (n, k),
    )
    table.add_row(["threshold (Thm 1.2)", thr.samples_per_node, p])
    table.add_row(["AND (Thm 1.1)", anr.samples_per_node, p])
    # Reproduction criterion: the threshold rule wins by a wide margin.
    assert thr.samples_per_node * 2 <= anr.samples_per_node
    print("\n" + save_table("e3b_rule_head_to_head", table))

    benchmark(lambda: ThresholdNetworkTester.solve(n, k, eps, p))
