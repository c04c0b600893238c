"""E7 — The LOCAL-model tester (Section 6).

Reproduces: Luby-MIS gathering gives <= 2k/r virtual nodes each holding
>= r/2 samples; the AND-rule tester over the MIS nodes achieves error
<= p; total rounds = (MIS phases on G^r) * r + routing <= O(r log k);
and the feasible radius sits near the paper's closed-form curve.

Error rates run through the vectorised LOCAL trial plane
(``estimate_error(fast_path=True)``), which is bit-identical per seed to
the scalar ``test_with_plan`` route — ``engine_check`` re-runs a prefix
of every sweep through the scalar tester and cross-checks the replayed
MIS layout against a real engine run.  That buys 512-trial sweeps (vs
the historical 60 scalar trials) and correspondingly tighter error
columns.
"""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import local_radius
from repro.distributions import far_family, uniform
from repro.experiments import Table
from repro.localmodel import LocalTrialRunner, LocalUniformityTester
from repro.simulator import Topology

from _common import save_table

N, EPS, P = 20_000, 1.0, 0.45
K, R = 4_096, 64
TRIALS = 512
#: Fraction of each sweep re-run through the scalar tester (plus a full
#: engine MIS cross-check) — the bit-identity audit baked into the run.
ENGINE_CHECK = 0.05
#: Two-sided ~3.5 sigma slack on a 512-trial rate estimate near p.
ERR_SLACK = 0.08


@pytest.mark.benchmark(group="e7")
def test_e7_ring_table(benchmark):
    tester = LocalUniformityTester(n=N, eps=EPS, p=P)
    ring = Topology.ring(K)
    runner = LocalTrialRunner.build(tester, ring, R, base_seed=100)
    plan = runner.plan

    # Structural reproduction criteria (Section 6's counting argument).
    assert plan.mis_size <= 2 * K // R
    assert plan.min_catchment >= R // 2
    assert plan.rounds <= (3 * (4 * math.log2(K) + 8)) * R + R

    u = uniform(N)
    far = far_family("paninski", N, EPS, rng=1)
    # engine_check > 0: every sweep audits a scalar prefix and the
    # engine MIS, raising SimulationError on any divergence.
    err_u = tester.estimate_error(
        ring, u, True, R, TRIALS, rng=100,
        fast_path=True, engine_check=ENGINE_CHECK,
    )
    err_f = tester.estimate_error(
        ring, far, False, R, TRIALS, rng=200,
        fast_path=True, engine_check=ENGINE_CHECK,
    )
    assert err_u <= P + ERR_SLACK
    assert err_f <= P + ERR_SLACK

    table = Table(["quantity", "measured", "bound / target"],
                  title="E7 - LOCAL tester on ring(%d), r=%d" % (K, R))
    table.add_row(["virtual nodes (MIS of G^r)", plan.mis_size, f"<= {2 * K // R}"])
    table.add_row(["min samples per virtual node", plan.min_catchment, f">= {R // 2}"])
    table.add_row(["samples used per virtual node",
                   plan.params.samples_per_node, f"<= {plan.min_catchment}"])
    table.add_row(["rounds", plan.rounds, "O(r log k)"])
    table.add_row(["err(uniform), %d trials" % TRIALS, round(err_u, 3),
                   f"<= {P} (+{ERR_SLACK} slack)"])
    table.add_row(["err(far), %d trials" % TRIALS, round(err_f, 3),
                   f"<= {P} (+{ERR_SLACK} slack)"])
    table.add_row(["scalar trials cross-checked",
                   2 * round(ENGINE_CHECK * TRIALS), "bit-identical"])
    print("\n" + save_table("e7_local_ring", table))

    benchmark(lambda: tester.estimate_error(
        ring, u, True, R, 128, rng=100, fast_path=True
    ))


@pytest.mark.benchmark(group="e7")
def test_e7_radius_search(benchmark):
    """The doubling search lands within 4x of the paper's radius curve."""
    tester = LocalUniformityTester(n=N, eps=EPS, p=P)
    ring = Topology.ring(K)
    found = tester.choose_radius(ring, rng=2, start=8, fast_path=True)
    paper = local_radius(N, K, EPS, P)
    table = Table(["quantity", "value"], title="E7b - gathering radius")
    table.add_row(["doubling-search radius (fast path)", found])
    table.add_row(["paper closed-form curve", round(paper, 1)])
    assert found <= max(8 * paper, 8.0 * 8)
    print("\n" + save_table("e7b_radius", table))

    # The probes share the layout cache: repeating the search is cheap.
    benchmark(
        lambda: tester.choose_radius(ring, rng=2, start=8, fast_path=True)
    )
