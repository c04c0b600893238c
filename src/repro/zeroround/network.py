"""The k-node 0-round harness and its vectorised fast paths.

Three ways to run a 0-round network:

1. :class:`ZeroRoundNetwork.run` — the honest object model: one
   :class:`~repro.core.gap.CentralizedTester` per node, a
   :class:`~repro.zeroround.decision.DecisionRule`, one trial per call.
2. :class:`ZeroRoundNetwork.run_many` — the trial-batched path: draws the
   driver doubles for a whole batch of network executions in one call,
   vectorises the per-node decisions and hands the ``(trials, nodes)``
   rejection matrix to the rule's
   :meth:`~repro.zeroround.decision.DecisionRule.decide_many`.
   Homogeneous networks collapse to a single collision kernel;
   heterogeneous (Section 4 asymmetric) networks are grouped by tester
   signature.  **Bit-identical** to calling :meth:`~ZeroRoundNetwork.run`
   in a loop with the same generator (a property the tests pin), because
   both consume the generator stream in node order and numpy streams are
   prefix-stable under call splitting.  The testers' ``test_many`` ride
   it.
3. Flat kernels — :func:`collision_reject_flags`,
   :func:`repeated_collision_reject_flags`, and the trial-batched
   :func:`threshold_verdicts` / :func:`and_rule_verdicts` — for the
   statistical benchmarks that need tens of thousands of network trials.

Every fast path, here and in the CONGEST, fault and LOCAL planes, tests
its sample groups with one kernel on the ``U[0, 1)`` driver doubles behind
the samples, :func:`grouped_collision`, and reduces the flags with the
rules of :mod:`repro.zeroround.decision`.

The frozen-dataclass experiment wrappers at the bottom adapt the kernels to
the ``(rng, count) -> bool[count]`` batched-experiment interface of
:class:`repro.experiments.runner.TrialRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.amplify import RepeatedAndTester
from repro.core.collision import CollisionGapTester, sorted_ties
from repro.core.gap import CentralizedTester
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import ParameterError
from repro.rng import SeedLike, ensure_rng
from repro.zeroround.decision import (
    AndRule,
    DecisionRule,
    ThresholdRule,
    repetition_rejects,
)


@dataclass(frozen=True)
class NetworkResult:
    """Outcome of one 0-round network execution.

    Attributes
    ----------
    accepted:
        The network's verdict under the decision rule.
    accepts:
        Per-node accept bits, index-aligned with the node list.
    samples_per_node:
        Samples each node consumed in this execution.
    """

    accepted: bool
    accepts: np.ndarray
    samples_per_node: np.ndarray

    @property
    def rejection_count(self) -> int:
        """Number of nodes that raised an alarm."""
        return int((~self.accepts).sum())

    @property
    def total_samples(self) -> int:
        """Network-wide sample count."""
        return int(self.samples_per_node.sum())


@dataclass
class ZeroRoundNetwork:
    """A network of non-communicating testers plus a decision rule.

    Parameters
    ----------
    testers:
        One single-node tester per network node.  A ``None`` entry models a
        node that abstains (always accepts) — used by the asymmetric
        constructions when a node's budget is too small to test at all.
    rule:
        The network decision rule.
    """

    testers: Sequence[Optional[CentralizedTester]]
    rule: DecisionRule

    def __post_init__(self) -> None:
        if not self.testers:
            raise ParameterError("network must have at least one node")

    @property
    def k(self) -> int:
        """Number of network nodes."""
        return len(self.testers)

    @property
    def total_samples_per_trial(self) -> int:
        """Samples the whole network consumes in one execution."""
        return sum(t.samples_required for t in self.testers if t is not None)

    def run(self, distribution: DiscreteDistribution, rng: SeedLike = None) -> NetworkResult:
        """Execute one trial: draw fresh per-node samples and decide.

        Nodes draw disjoint consecutive segments of one master stream, in
        node-index order.  The segments are i.i.d., so each node's samples
        are private and independent exactly as in the paper's model — and
        the consumption order makes a loop of ``run`` calls bit-identical
        to one :meth:`run_many` call with the same generator.
        """
        gen = ensure_rng(rng)
        accepts = np.ones(self.k, dtype=bool)
        samples_used = np.zeros(self.k, dtype=np.int64)
        for i, tester in enumerate(self.testers):
            if tester is None:
                continue
            s = tester.samples_required
            batch = distribution.sample(s, gen)
            accepts[i] = tester.decide(batch)
            samples_used[i] = s
        return NetworkResult(
            accepted=self.rule.decide(accepts),
            accepts=accepts,
            samples_per_node=samples_used,
        )

    # -- trial-batched execution ---------------------------------------

    def run_many(
        self,
        distribution: DiscreteDistribution,
        trials: int,
        rng: SeedLike = None,
        batch: int = 4096,
    ) -> np.ndarray:
        """Accept verdicts of *trials* independent network executions.

        Draws each batch of executions as a single ``(batch, total_s)``
        driver-double matrix and vectorises the per-node decisions:
        collision and AND-of-m testers go through
        :func:`grouped_collision`, grouped by tester signature so
        heterogeneous (Section 4) networks with many distinct sample counts
        still take a handful of numpy passes.  Unknown tester types and
        decision rules fall back to per-trial object calls on the same
        samples (quantile-mapped), preserving bit-for-bit equality with
        :meth:`run`.

        Returns
        -------
        numpy.ndarray
            Boolean vector of length *trials*; ``True`` = network accepts.
        """
        from repro.experiments.runner import check_trials

        trials = check_trials(trials)
        if batch < 1:
            raise ParameterError(f"batch must be >= 1, got {batch}")
        gen = ensure_rng(rng)
        groups, generic, offsets = self._decision_plan()
        total_s = self.total_samples_per_trial
        verdicts = np.empty(trials, dtype=bool)
        pos = 0
        while pos < trials:
            m = min(batch, trials - pos)
            u = distribution.sample_uniform(m * total_s, gen).reshape(m, total_s)
            rejects = np.zeros((m, self.k), dtype=bool)
            for reps, nodes, members in groups:
                collide = grouped_collision(u, members, distribution)
                rejects[:, nodes] = repetition_rejects(collide, reps)
            for i in generic:
                tester = self.testers[i]
                lo = offsets[i]
                samples = distribution.index_quantiles(
                    u[:, lo : lo + tester.samples_required]
                )
                for t in range(m):
                    rejects[t, i] = not tester.decide(samples[t])
            verdicts[pos : pos + m] = self.rule.decide_many(rejects)
            pos += m
        return verdicts

    def _decision_plan(self):
        """Group nodes by vectorisable tester signature.

        Returns ``(groups, generic, offsets)`` where each group is
        ``(reps, node_indices, members)`` — a plain collision tester is
        the ``reps = 1`` case of AND-of-m, and ``members`` lists each
        node's repetitions' ``s`` columns, node by node, as
        :func:`grouped_collision` groups — ``generic`` lists nodes whose
        tester type has no kernel, and ``offsets[i]`` is node *i*'s first
        column in the per-trial sample matrix.
        """
        offsets = np.zeros(self.k, dtype=np.int64)
        by_signature = {}
        generic: List[int] = []
        col = 0
        for i, tester in enumerate(self.testers):
            offsets[i] = col
            if tester is None:
                continue
            col += tester.samples_required
            if isinstance(tester, CollisionGapTester):
                by_signature.setdefault((tester.s, 1), []).append(i)
            elif isinstance(tester, RepeatedAndTester) and isinstance(
                tester.base, CollisionGapTester
            ):
                by_signature.setdefault((tester.base.s, tester.m), []).append(i)
            else:
                generic.append(i)
        groups = [
            (reps, nodes, (offsets[nodes, None] + np.arange(reps * s)).reshape(-1, s))
            for (s, reps), nodes in by_signature.items()
        ]
        return groups, generic, offsets


# ---------------------------------------------------------------------------
# Vectorised kernels for the homogeneous case
# ---------------------------------------------------------------------------


def _last_axis_has_collision(tensor: np.ndarray) -> np.ndarray:
    """Collision flag along the last axis of an n-D sample tensor."""
    return sorted_ties(tensor).any(axis=-1)


def grouped_collision_flags(samples: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per-group collision flags for arbitrary index groups of equal size.

    ``samples`` has shape ``(..., total)`` (typically ``(trials, total)``)
    and ``members`` is an integer ``(groups, size)`` array of column
    indices into the last axis; the result has shape ``(..., groups)``
    with ``True`` where a group's gathered values contain a repeat.

    The integer-sample reference for :func:`grouped_collision`, which the
    planes run on their own draws.  ``members`` is e.g. a
    :class:`~repro.congest.trial_plane.PackagingLayout`'s per-package
    token-slot lists, not contiguous in sample order.
    """
    members = _check_members(members)
    samples = np.asarray(samples)
    if members.size == 0:
        return np.zeros(samples.shape[:-1] + (members.shape[0],), dtype=bool)
    return _last_axis_has_collision(samples[..., members])


def grouped_collision(
    u: np.ndarray, members: np.ndarray, distribution: DiscreteDistribution
) -> np.ndarray:
    """:func:`grouped_collision_flags` straight from driver doubles.

    ``u`` holds the ``U[0, 1)`` draws behind a sample batch, shape
    ``(..., total)``; the result equals
    ``grouped_collision_flags(distribution.index_quantiles(u), members)``
    exactly, without mapping every draw to its outcome.  Two draws map to
    the same outcome only if no CDF boundary separates them, so only if
    their (rounded) difference is at most ``distribution.max_bin_width()``.
    Each group's draws are sorted as raw IEEE bit patterns (non-negative
    doubles order like their values), sorted-adjacent pairs further apart
    are discarded wholesale, and only the few survivors pay an exact
    ``index_quantiles`` lookup.
    """
    members = _check_members(members)
    u = np.asarray(u, dtype=np.float64)
    size = members.shape[1]
    flags = np.zeros(u.shape[:-1] + (members.shape[0],), dtype=bool)
    if size < 2 or flags.size == 0:
        return flags
    ordered = np.take(u, members, axis=-1)
    ordered.view(np.uint64).sort(axis=-1)
    close = np.flatnonzero(
        np.diff(ordered, axis=-1) <= distribution.max_bin_width()
    )
    if close.size:
        group, offset = np.divmod(close, size - 1)
        runs = ordered.reshape(-1, size)
        same = distribution.index_quantiles(
            runs[group, offset]
        ) == distribution.index_quantiles(runs[group, offset + 1])
        flags.reshape(-1)[group[same]] = True
    return flags


def seed_drivers(
    distribution: DiscreteDistribution, size: int, seeds: Sequence[SeedLike]
) -> np.ndarray:
    """One row of ``size`` driver doubles per seed: the draws behind
    ``distribution.sample(size, ensure_rng(seed))``, seed by seed."""
    return np.stack(
        [distribution.sample_uniform(size, ensure_rng(seed)) for seed in seeds]
    )


def _check_members(members: np.ndarray) -> np.ndarray:
    members = np.asarray(members)
    if members.ndim != 2:
        raise ParameterError(
            f"members must be a (groups, size) index array, got shape "
            f"{members.shape}"
        )
    return members


def _row_collisions(
    distribution: DiscreteDistribution, rows: int, s: int, rng: SeedLike
) -> np.ndarray:
    """Collision flags of the rows of ``sample_matrix(rows, s, rng)``."""
    u = distribution.sample_uniform_matrix(rows, s, rng)
    return grouped_collision(u, np.arange(s)[None, :], distribution)[:, 0]


def collision_reject_flags(
    distribution: DiscreteDistribution,
    k: int,
    s: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Reject flags for ``k`` nodes each running ``A_δ`` with ``s`` samples.

    Equivalent to ``k`` independent
    :class:`~repro.core.collision.CollisionGapTester` nodes; returns a
    boolean vector where ``True`` means *reject* (a collision was seen).
    """
    if k < 1 or s < 1:
        raise ParameterError(f"need k >= 1 and s >= 1, got {(k, s)}")
    return _row_collisions(distribution, k, s, rng)


def repeated_collision_reject_flags(
    distribution: DiscreteDistribution,
    k: int,
    m: int,
    s: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Reject flags for ``k`` nodes each running AND-of-``m`` repetitions.

    Node *i* rejects iff **all** of its ``m`` independent ``s``-sample
    batches contain a collision (the Theorem 1.1 node behaviour).
    """
    if k < 1 or m < 1 or s < 1:
        raise ParameterError(f"need k, m, s >= 1, got {(k, m, s)}")
    return repetition_rejects(_row_collisions(distribution, k * m, s, rng), m)


# ---------------------------------------------------------------------------
# Trial-batched kernels: many whole-network executions per numpy call
# ---------------------------------------------------------------------------


def threshold_verdicts(
    distribution: DiscreteDistribution,
    k: int,
    s: int,
    threshold: int,
    trials: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Accept verdicts of *trials* Theorem 1.2 network executions.

    One ``(trials·k, s)`` driver-draw matrix, one collision pass, one
    alarm count per trial.  Bit-identical to *trials* sequential
    :func:`collision_reject_flags` calls on the same generator.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if k < 1 or s < 1:
        raise ParameterError(f"need k >= 1 and s >= 1, got {(k, s)}")
    if not 1 <= threshold <= k:
        raise ParameterError(f"threshold must be in [1, {k}], got {threshold}")
    alarms = _row_collisions(distribution, trials * k, s, rng)
    return ThresholdRule(threshold).decide_many(alarms.reshape(trials, k))


def and_rule_verdicts(
    distribution: DiscreteDistribution,
    k: int,
    m: int,
    s: int,
    trials: int,
    rng: SeedLike = None,
) -> np.ndarray:
    """Accept verdicts of *trials* Theorem 1.1 network executions.

    Each trial: ``k`` nodes run AND-of-``m`` collision testers; the network
    accepts iff no node rejects.  Bit-identical to *trials* sequential
    :func:`repeated_collision_reject_flags` calls on the same generator.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if k < 1 or m < 1 or s < 1:
        raise ParameterError(f"need k, m, s >= 1, got {(k, m, s)}")
    per_batch = _row_collisions(distribution, trials * k * m, s, rng)
    rejects = repetition_rejects(per_batch.reshape(trials, k * m), m)
    return AndRule().decide_many(rejects)


#: Element-count cap for one trial-batched draw (8 MiB of driver doubles;
#: the collision kernel holds about three more arrays of that size).
#: Batched experiments built on the kernels auto-size ``batch`` so
#: ``batch · k · m · s`` stays below this.
MATRIX_ELEMENT_CAP = 1 << 20


def auto_batch(elements_per_trial: int, cap: int = MATRIX_ELEMENT_CAP) -> int:
    """Largest trial batch whose sample matrix stays under *cap* elements."""
    if elements_per_trial < 1:
        raise ParameterError(
            f"elements_per_trial must be >= 1, got {elements_per_trial}"
        )
    return max(1, cap // elements_per_trial)


# ---------------------------------------------------------------------------
# Batched-experiment adapters for the trial engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionTrialKernel:
    """Batched experiment: one ``A_δ`` node per trial; ``True`` = reject.

    The E1 workload: ``(rng, count) -> collision flags of count trials``.
    Its scalar counterpart (one ``sample(s)`` + collision check per call)
    consumes the generator identically, so the engine's serial and batched
    paths agree bit-for-bit.
    """

    distribution: DiscreteDistribution
    s: int

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return collision_reject_flags(self.distribution, count, self.s, rng)


@dataclass(frozen=True)
class ScalarCollisionTrial:
    """Scalar twin of :class:`CollisionTrialKernel` (``rng -> bool``)."""

    distribution: DiscreteDistribution
    s: int

    def __call__(self, rng: np.random.Generator) -> bool:
        from repro.core.collision import has_collision

        return bool(has_collision(self.distribution.sample(self.s, rng)))


@dataclass(frozen=True)
class ThresholdNetworkErrorKernel:
    """Batched experiment: Theorem 1.2 network error flags.

    ``True`` = the network verdict disagrees with ``is_uniform``.
    """

    distribution: DiscreteDistribution
    k: int
    s: int
    threshold: int
    is_uniform: bool

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        accepted = threshold_verdicts(
            self.distribution, self.k, self.s, self.threshold, count, rng
        )
        return accepted != self.is_uniform


@dataclass(frozen=True)
class AndNetworkErrorKernel:
    """Batched experiment: Theorem 1.1 network error flags."""

    distribution: DiscreteDistribution
    k: int
    m: int
    s: int
    is_uniform: bool

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        accepted = and_rule_verdicts(
            self.distribution, self.k, self.m, self.s, count, rng
        )
        return accepted != self.is_uniform


def estimate_rejection_probability(
    distribution: DiscreteDistribution,
    s: int,
    trials: int,
    rng: SeedLike = None,
    batch: int = 4096,
) -> float:
    """Monte-Carlo estimate of ``Pr[A_δ rejects]`` on *distribution*.

    Runs the single-collision tester *trials* times in vectorised batches
    of at most ``batch``; the trials' stream follows ``rng``
    (:func:`~repro.experiments.runner.error_rate`), and the estimate
    does not depend on ``batch``.  Used by the E1 benchmark and the
    empirical sample-complexity search.
    """
    from repro.experiments.runner import error_rate

    kernel = CollisionTrialKernel(distribution, s)
    return error_rate(kernel, trials, rng, "rejection", s, batch=batch).rate
