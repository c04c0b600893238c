"""Integration of the experiment harness with real testers.

The harness exists to run the benchmarks; these tests run a miniature
version of that pipeline end to end — sweep, estimate with intervals,
fit the scaling shape — so harness regressions surface in the unit suite
rather than mid-benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import threshold_parameters
from repro.experiments import (
    Table,
    error_rate,
    geometric_int_grid,
    loglog_slope,
)


class TestMiniSweep:
    def test_threshold_scaling_mini(self):
        """A 3-point k-sweep reproduces the -1/2 slope, harness-driven."""
        n, eps = 50_000, 0.9
        ks = geometric_int_grid(10_000, 160_000, 3)
        ss = [threshold_parameters(n, k, eps).s for k in ks]
        slope, _ = loglog_slope(ks, ss)
        assert -0.7 <= slope <= -0.3

    def test_trial_runner_with_real_tester(self):
        """The trial engine drives a real tester deterministically."""
        from repro.distributions import uniform
        from repro.zeroround.network import collision_reject_flags

        params = threshold_parameters(50_000, 20_000, 0.9)
        u = uniform(50_000)

        def experiment(rng: np.random.Generator) -> bool:
            alarms = int(
                collision_reject_flags(u, params.k, params.s, rng).sum()
            )
            return alarms >= params.threshold  # error on uniform

        first = error_rate(experiment, 6, 42, "mini", params.k)
        second = error_rate(experiment, 6, 42, "mini", params.k)
        assert first.failures == second.failures
        assert first.rate <= 1 / 3 + 0.35  # 6 trials, generous

    def test_table_renders_sweep(self):
        table = Table(["k", "s"], title="mini sweep")
        for k in (10, 20):
            table.add_row([k, k * 2])
        text = table.render()
        assert "mini sweep" in text and "20" in text
