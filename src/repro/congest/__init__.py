"""CONGEST-model uniformity testing (Section 5 of the paper).

Two layers:

- :mod:`repro.congest.token_packaging` — the ``τ``-token-packaging
  protocol of Definition 2 / Theorem 5.1: concentrate the network's ``k``
  single-sample tokens into packages of exactly ``τ`` tokens in
  ``O(D + τ)`` rounds, losing at most ``τ − 1`` tokens.
- :mod:`repro.congest.tester` — Theorem 1.4: package the samples, treat
  each package as a *virtual node* of the 0-round threshold tester
  (Theorem 1.2), convergecast the alarm count to the BFS root, and have
  the root broadcast the verdict.  Total ``O(D + n/(kε⁴))`` rounds, all
  messages within the ``O(log n)``-bit CONGEST budget (engine-enforced).
- :mod:`repro.congest.hardened` — fault-tolerant variants of both:
  timer-driven phases, ack/retransmit with bounded retries, and graceful
  degradation under the engine's deterministic
  :class:`~repro.simulator.faults.FaultPlan` injection.
- :mod:`repro.congest.trial_plane` — the vectorised Monte-Carlo fast
  path: extract the sample-value-independent packaging layout once
  (:class:`~repro.congest.trial_plane.PackagingLayout`), then batch
  whole trial matrices through numpy collision kernels, bit-identical
  per seed to the engine path.
- :mod:`repro.congest.fault_plane` — the one hardened replay: the
  hardened protocol's control flow — flooding, retry ladders, token
  transfer, give-ups — as array ops over a batch of fault plans,
  no engine runs at all.  Robustness sweeps replay one plan per trial;
  a fixed plan (``HardenedCongestTester.estimate_error``) is a one-plan
  replay whose counted packages feed the trial plane's kernel.
"""

from repro.congest.token_packaging import (
    PackagingOutcome,
    TokenPackagingProgram,
    WarmStart,
    WarmStartCheck,
    run_token_packaging,
    verify_packaging,
    verify_warm_start,
    warm_start_views,
)
from repro.congest.tester import (
    CongestParameters,
    CongestUniformityTester,
    congest_parameters,
)
from repro.congest.hardened import (
    HardenedCongestTester,
    HardenedCongestTesterProgram,
    HardenedPackagingOutcome,
    HardenedRunResult,
    HardenedTesterOutcome,
    HardenedTokenPackagingProgram,
    PhaseSchedule,
    RetryPolicy,
    run_hardened_packaging,
)
from repro.congest.fault_plane import (
    FaultPlaneScore,
    HardenedFaultPlane,
    ReplayedTrials,
    replay_hardened_trials,
)
from repro.congest.trial_plane import (
    CongestTrialRunner,
    CongestVerdictKernel,
    LayoutCheck,
    PackagingLayout,
)

__all__ = [
    "HardenedCongestTester",
    "HardenedCongestTesterProgram",
    "HardenedPackagingOutcome",
    "HardenedRunResult",
    "HardenedTesterOutcome",
    "HardenedTokenPackagingProgram",
    "PhaseSchedule",
    "RetryPolicy",
    "run_hardened_packaging",
    "TokenPackagingProgram",
    "PackagingOutcome",
    "WarmStart",
    "WarmStartCheck",
    "run_token_packaging",
    "verify_packaging",
    "verify_warm_start",
    "warm_start_views",
    "CongestParameters",
    "CongestUniformityTester",
    "congest_parameters",
    "CongestTrialRunner",
    "CongestVerdictKernel",
    "LayoutCheck",
    "PackagingLayout",
    "FaultPlaneScore",
    "HardenedFaultPlane",
    "ReplayedTrials",
    "replay_hardened_trials",
]
