"""Robustness sweeps: tester accuracy under message loss and crashes.

The hardened CONGEST tester (:mod:`repro.congest.hardened`) is built to
*degrade* under faults — lose evidence, widen windows, report what went
missing — rather than deadlock.  This module measures the degradation:
for each point on a (drop probability × crash fraction) grid it runs
Monte-Carlo trials of the full hardened protocol against uniform and
against a certified ε-far distribution, and records the error rates next
to the fault counters the engine surfaced.

Determinism: trial ``t`` of point ``(d, c)`` uses sampling seed
``base_seed + t`` and a :class:`~repro.simulator.faults.FaultPlan` seeded
from the same trial index, with crash victims drawn (never the elected
root ``k−1``, which would void the verdict entirely) by a generator keyed
on ``(base_seed, trial)`` — rerunning a sweep reproduces it bit for bit.

``fast_path=True`` replays the whole grid — every per-trial-keyed plan,
faulty or not — through the vectorized fault plane
(:mod:`repro.congest.fault_plane`), bit-identical to the engine per
seed; the ``engine_check`` subset keeps the engine as measurement of
record for the observables only it can see (rounds, raw drop counts)
and raises :class:`~repro.exceptions.SimulationError` on any verdict or
counter divergence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.congest.hardened import (
    HardenedCongestTester,
    PhaseSchedule,
    RetryPolicy,
)
from repro.distributions import far_family, uniform
from repro.exceptions import ParameterError
from repro.experiments.runner import audit_prefix
from repro.simulator.faults import FaultPlan
from repro.simulator.graph import Topology


def make_topology(name: str, k: int) -> Topology:
    """Build a named benchmark topology on ``k`` nodes.

    ``star`` and ``ring`` take any ``k``; ``grid`` uses the most-square
    ``rows × cols = k`` factorisation (rows = the largest divisor of
    ``k`` not exceeding ``√k``).
    """
    if name == "star":
        return Topology.star(k)
    if name == "ring":
        return Topology.ring(k)
    if name == "grid":
        rows = max(r for r in range(1, int(math.isqrt(k)) + 1) if k % r == 0)
        return Topology.grid(rows, k // rows)
    raise ParameterError(f"unknown topology {name!r} (star, ring, grid)")


@dataclass(frozen=True)
class RobustnessPoint:
    """Aggregated trial results at one (drop, crash) grid point."""

    topology: str
    drop_prob: float
    crash_fraction: float
    crashed_nodes: int
    trials: int
    error_uniform: float
    error_far: float
    no_verdict: int
    mean_rounds: float
    mean_drops: float
    mean_missing_subtrees: float
    mean_shortfall: float
    mean_unheard: float
    mean_agreement: float
    #: Trials re-run through the engine (all of them without the fast
    #: path; the ``engine_check`` subset with it; 0 = replay only).
    engine_trials: int = 0
    #: Wall-clock spent in the fault-plane replay, amortised over the
    #: grid points sharing one batched build (0.0 without the fast path).
    fast_path_seconds: float = 0.0
    #: Wall-clock spent in this point's engine runs.
    engine_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "topology": self.topology,
            "drop_prob": self.drop_prob,
            "crash_fraction": self.crash_fraction,
            "crashed_nodes": self.crashed_nodes,
            "trials": self.trials,
            "error_uniform": self.error_uniform,
            "error_far": self.error_far,
            "no_verdict": self.no_verdict,
            "mean_rounds": self.mean_rounds,
            "mean_drops": self.mean_drops,
            "mean_missing_subtrees": self.mean_missing_subtrees,
            "mean_shortfall": self.mean_shortfall,
            "mean_unheard": self.mean_unheard,
            "mean_agreement": self.mean_agreement,
            "engine_trials": self.engine_trials,
            "fast_path_seconds": self.fast_path_seconds,
            "engine_seconds": self.engine_seconds,
        }


def _crash_plan(
    k: int,
    fraction: float,
    horizon: int,
    base_seed: int,
    trial: int,
) -> Dict[int, int]:
    """Deterministic crash-stop schedule for one trial.

    Crashes ``⌊fraction · (k−1)⌋`` victims chosen uniformly among nodes
    ``0 .. k−2`` (the elected root ``k−1`` is spared so the run still has
    a verdict to score) at rounds uniform in ``[1, horizon]``.
    """
    count = int(fraction * (k - 1))
    if count <= 0:
        return {}
    gen = np.random.default_rng([base_seed, trial, 0xC4A5])
    victims = gen.choice(k - 1, size=count, replace=False)
    rounds = gen.integers(1, horizon + 1, size=count)
    return {int(v): int(r) for v, r in zip(victims, rounds)}


def robustness_sweep(
    n: int,
    k: int,
    eps: float,
    p: float = 1.0 / 3.0,
    samples_per_node: int = 1,
    topology: str = "star",
    drop_probs: Sequence[float] = (0.0, 0.01, 0.05),
    crash_fractions: Sequence[float] = (0.0,),
    trials: int = 10,
    base_seed: int = 0,
    policy: Optional[RetryPolicy] = None,
    fast_path: bool = False,
    engine_check: float = 0.0,
) -> Tuple[RobustnessPoint, ...]:
    """Sweep the hardened tester over a fault grid; one point per combo.

    Every trial runs the full hardened protocol twice — once sampling
    from uniform, once from the Paninski ε-far family — under the same
    fault plan, so ``error_uniform``/``error_far`` are directly
    comparable.  A run whose verdict is ``None`` (the root crashed; ruled
    out by :func:`_crash_plan` but possible with custom plans) counts as
    an error on both sides and in ``no_verdict``.

    ``fast_path=True`` replays *every* grid point — per-trial-keyed
    fault plans included — through the vectorized fault plane
    (:class:`~repro.congest.fault_plane.HardenedFaultPlane`): one
    batched build covers the whole grid, and each trial's samples are
    drawn once and shared across points (the engine would redraw them
    per point, but trial ``t`` uses seed ``base_seed + t`` everywhere).
    A subset of :func:`~repro.experiments.runner.audit_prefix` trials
    per point still runs through the engine: it supplies ``mean_rounds`` /
    ``mean_drops`` (observables only the engine measures; 0.0 when
    ``engine_check`` is 0) and cross-checks the replayed verdicts,
    agreement, and give-up counters, raising
    :class:`~repro.exceptions.SimulationError` on any disagreement.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    audited = audit_prefix(engine_check, trials)
    tester = HardenedCongestTester.solve(
        n, k, eps, p, samples_per_node, policy=policy
    )
    topo = make_topology(topology, k)
    d_hint = topo.diameter_upper_bound()
    telemetry.annotate(
        solved={"tau": tester.params.tau, "d_hint": d_hint}
    )
    schedule = PhaseSchedule.build(d_hint, tester.params.tau, tester.policy)
    dist_u = uniform(n)
    dist_far = far_family("paninski", n, min(eps, 1.0), rng=base_seed)
    grid = [(drop, frac) for drop in drop_probs for frac in crash_fractions]

    def point_plan(drop: float, frac: float, t: int) -> FaultPlan:
        return FaultPlan(
            seed=base_seed * 1_000_003 + t,
            drop_prob=drop,
            crashes=_crash_plan(k, frac, schedule.count_end, base_seed, t),
        )

    with telemetry.span(
        "robustness.sweep",
        topology=topology,
        n=n,
        k=k,
        eps=eps,
        trials=trials,
        grid_points=len(grid),
        fast_path=fast_path,
    ):
        return _sweep_points(
            tester, topo, dist_u, dist_far, grid, point_plan,
            topology, k, trials, base_seed, fast_path,
            audited if fast_path else trials, d_hint,
        )


def _sweep_points(
    tester, topo, dist_u, dist_far, grid, point_plan,
    topology, k, trials, base_seed, fast_path, engine_trials, d_hint,
):
    score_u = score_f = None
    fast_share = 0.0
    plane = None
    if fast_path:
        # Imported here: repro.experiments.__init__ loads this module,
        # and the fault plane uses the congest package.
        from repro.congest.fault_plane import HardenedFaultPlane

        fast_start = time.perf_counter()
        with telemetry.span(
            "robustness.fast_build", grid_points=len(grid), trials=trials
        ):
            plans = [
                point_plan(drop, frac, t)
                for drop, frac in grid
                for t in range(trials)
            ]
            plane = HardenedFaultPlane.build(
                tester, topo, plans, d_hint=d_hint
            )
            # Trial t draws the same samples at every grid point.
            seeds = [base_seed + t for _ in grid for t in range(trials)]
            score_u = plane.score_seeds(dist_u, seeds)
            score_f = plane.score_seeds(dist_far, seeds)
        fast_share = (time.perf_counter() - fast_start) / len(grid)

    points = []
    for index, (drop, frac) in enumerate(grid):
        point_span = telemetry.span(
            "robustness.point",
            drop_prob=float(drop),
            crash_fraction=float(frac),
        )
        with point_span:
            err_u = err_f = no_verdict = 0
            rounds = drops = missing = shortfall = unheard = 0.0
            agreement = 0.0
            crashed_nodes = int(frac * (k - 1))
            if fast_path:
                rows = slice(index * trials, (index + 1) * trials)
                verdicts_u = score_u.verdicts[rows]
                verdicts_f = score_f.verdicts[rows]
                err_u = sum(v is not True for v in verdicts_u)
                err_f = sum(v is not False for v in verdicts_f)
                no_verdict = sum(v is None for v in verdicts_u) + sum(
                    v is None for v in verdicts_f
                )
                # Sample-independent counters are shared by the uniform
                # and far runs of a trial, so the per-run mean is the
                # per-trial mean; agreement is sample-dependent and
                # averages both.
                missing = 2.0 * float(
                    plane.trials.missing_subtrees[rows].sum()
                )
                shortfall = 2.0 * float(plane.trials.shortfall[rows].sum())
                unheard = 2.0 * float(plane.trials.unheard[rows].sum())
                agreement = float(
                    score_u.agreement[rows].sum()
                    + score_f.agreement[rows].sum()
                )
            engine_start = time.perf_counter()
            check_span = telemetry.span(
                "robustness.engine_check" if fast_path
                else "robustness.point_engine",
                trials=engine_trials,
            )
            with check_span:
                for t in range(engine_trials):
                    plan = point_plan(drop, frac, t)
                    res_u = tester.run(
                        topo, dist_u, rng=base_seed + t, faults=plan
                    )
                    res_f = tester.run(
                        topo, dist_far, rng=base_seed + t, faults=plan
                    )
                    if fast_path:
                        row = index * trials + t
                        plane.trials.check_against_engine(
                            row, res_u, score_u.verdicts[row],
                            float(score_u.agreement[row]),
                        )
                        plane.trials.check_against_engine(
                            row, res_f, score_f.verdicts[row],
                            float(score_f.agreement[row]),
                        )
                    else:
                        err_u += res_u.verdict is not True
                        err_f += res_f.verdict is not False
                        no_verdict += (res_u.verdict is None) + (
                            res_f.verdict is None
                        )
                        missing += (
                            res_u.missing_subtrees + res_f.missing_subtrees
                        )
                        shortfall += res_u.shortfall + res_f.shortfall
                        unheard += res_u.unheard + res_f.unheard
                        agreement += res_u.agreement + res_f.agreement
                    rounds += res_u.report.rounds + res_f.report.rounds
                    drops += res_u.report.drops + res_f.report.drops
            engine_seconds = time.perf_counter() - engine_start
            counter_runs = 2 * (trials if fast_path else engine_trials)
            engine_runs = 2 * engine_trials
            point_span.count("errors_uniform", int(err_u))
            point_span.count("errors_far", int(err_f))
            point_span.count("no_verdict", int(no_verdict))
            point_span.count("engine_trials", engine_trials)
            points.append(
                RobustnessPoint(
                    topology=topology,
                    drop_prob=float(drop),
                    crash_fraction=float(frac),
                    crashed_nodes=crashed_nodes,
                    trials=trials,
                    error_uniform=err_u / trials,
                    error_far=err_f / trials,
                    no_verdict=no_verdict,
                    mean_rounds=rounds / engine_runs if engine_runs else 0.0,
                    mean_drops=drops / engine_runs if engine_runs else 0.0,
                    mean_missing_subtrees=missing / counter_runs,
                    mean_shortfall=shortfall / counter_runs,
                    mean_unheard=unheard / counter_runs,
                    mean_agreement=agreement / counter_runs,
                    engine_trials=engine_trials,
                    fast_path_seconds=fast_share,
                    engine_seconds=engine_seconds,
                )
            )
    return tuple(points)
