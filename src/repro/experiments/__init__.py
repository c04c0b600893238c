"""Experiment harness: seeded trials, error estimation, tables, sweeps.

Shared infrastructure for the benchmark suite (``benchmarks/bench_e*.py``)
and the examples:

- :mod:`repro.experiments.stats` — Monte-Carlo error estimation with
  Wilson confidence intervals, and the empirical sample-complexity search
  used to sandwich measured costs between the paper's bounds.
- :mod:`repro.experiments.runner` — the batched Monte-Carlo trial
  engine: deterministic per-configuration chunk streams keyed by
  (seed, labels, chunk), with scalar and vectorised paths that produce
  bit-identical results, the one rate entry (``error_rate``) behind
  every ``estimate_error``, and the one audited runner
  (``TrialRunner.run_audited``) behind every vectorised trial plane.
- :mod:`repro.experiments.tables` — plain-ASCII table rendering for
  benchmark output (the repo's stand-in for the paper's tables).
- :mod:`repro.experiments.sweeps` — parameter grids and log-log slope
  fitting for scaling-shape checks (e.g. "samples ∝ k^{−1/2}").
- :mod:`repro.experiments.robustness` — fault-grid sweeps of the
  hardened CONGEST tester: error rate vs drop probability and crash
  fraction, with the engine's fault counters alongside.
"""

from repro.experiments.runner import TRIAL_CHUNK, TrialRunner, error_rate
from repro.experiments.stats import (
    ErrorEstimate,
    empirical_sample_complexity,
    estimate,
    wilson_interval,
)
from repro.experiments.robustness import (
    RobustnessPoint,
    make_topology,
    robustness_sweep,
)
from repro.experiments.sweeps import (
    geometric_grid,
    geometric_int_grid,
    loglog_slope,
    relative_spread,
)
from repro.experiments.tables import Table

__all__ = [
    "TRIAL_CHUNK",
    "TrialRunner",
    "error_rate",
    "ErrorEstimate",
    "estimate",
    "wilson_interval",
    "empirical_sample_complexity",
    "Table",
    "RobustnessPoint",
    "make_topology",
    "robustness_sweep",
    "geometric_grid",
    "geometric_int_grid",
    "loglog_slope",
    "relative_spread",
]
