"""The vectorised CONGEST trial plane: layout replay + batched verdicts.

A Monte-Carlo error-rate sweep of the Theorem 1.4 tester runs the same
protocol thousands of times, varying only the sampled tokens.  But the
protocol's *control flow* never looks at a token's value: the tree is a
pure function of the topology (max-ID flooding under deterministic
delivery), the ``c(v)`` counts are pure functions of the tree and ``τ``,
and the TOKENS phase forwards "the first ``c(v)`` tokens held" — a rule
about buffer *positions*, not values.  Hence **which node's j-th sample
lands in which package** — the *packaging layout* — is fixed across
trials, and a trial's verdict reduces to

1. draw only the ``U[0, 1)`` driver doubles behind the samples
   (:meth:`~repro.distributions.base.DiscreteDistribution.sample_uniform`),
2. flag packages containing a repeat — one gather + one sort-and-gap
   pass, :func:`repro.zeroround.network.grouped_collision`, which maps
   to outcomes only the few pairs that could collide,
3. apply the Theorem 1.2 threshold rule for the realised package count
   ``ℓ`` (a constant) to the flags,
   :func:`repro.zeroround.decision.threshold_accepts`.

Two layout sources — division of labour:

- :class:`PackagingLayout` — computed directly from the cached
  :class:`~repro.simulator.graph.TreeSchedule` by simulating the TOKENS
  phase on slot IDs (``O(k·τ)`` once per topology, no engine).
  :meth:`PackagingLayout.verify_layout` cross-checks it against a real
  cold engine run.  Valid for the fault-free plain tester, warm or cold.
- :func:`~repro.congest.fault_plane.replay_hardened_trials` — the one
  hardened replay.  It re-derives the hardened protocol's layouts —
  flooding, retries, token transfer, give-ups — as array ops over a
  batch of :class:`~repro.simulator.faults.FaultPlan` objects, no engine
  runs at all.  Per-trial-keyed sweeps (one plan per trial, as in the
  E14 robustness grid) replay the whole batch; a fixed plan
  (:meth:`~repro.congest.hardened.HardenedCongestTester.estimate_error`)
  is a one-plan replay whose root fragment feeds
  :class:`CongestVerdictKernel`, because the plan's decisions are pure
  hashes of ``(seed, edge, round, index)``, never of payloads, so the
  set of packages the root counts is the same for every sample redraw.

Bit-identity contract: the batched kernel consumes the trial engine's
chunk-keyed streams exactly like the scalar engine experiments (one
``sample_matrix(k, s)``-worth of driver draws per trial, numpy streams
being prefix-stable under call splitting), under the same trial labels —
so fast-path and engine trial ``t`` see the *same sample values* and must
produce the same verdict.  ``engine_check`` re-runs a prefix of the
trials through the real engine and raises on any disagreement.  The
engine remains the measurement of record for rounds, bandwidth and
fault counters; the trial plane only accelerates verdict statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.congest.tester import (
    CongestUniformityTester,
    _CongestTrialExperiment,
)
from repro.congest.token_packaging import TokenPackagingProgram
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import ParameterError, SimulationError
from repro.experiments.runner import TrialRunner
from repro.simulator.engine import SynchronousEngine
from repro.simulator.graph import Topology, TreeSchedule
from repro.simulator.message import bits_for_int
from repro.zeroround.decision import threshold_accepts
from repro.zeroround.network import auto_batch, grouped_collision, seed_drivers


# ---------------------------------------------------------------------------
# Fault-free layout, straight from the tree schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LayoutCheck:
    """Result of :meth:`PackagingLayout.verify_layout`."""

    equivalent: bool
    mismatched_nodes: Tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class PackagingLayout:
    """Which token slot lands in which package, for a fault-free run.

    Token *slots* are flat indices into the ``(k, s)`` sample matrix:
    node ``v``'s ``j``-th sample is slot ``v·s + j``.  ``members[p]``
    lists the ``τ`` slots of package ``p`` in buffer order,
    ``package_owner[p]`` is the node holding it, and ``dropped`` are the
    slots the root discarded (at most ``τ − 1``, per Definition 2).

    Built once per ``(topology, τ, s)`` by :meth:`from_schedule` and
    cached on the tree schedule; :meth:`verify_layout` cross-checks the
    simulation against an actual cold engine run.
    """

    k: int
    tau: int
    tokens_per_node: int
    members: np.ndarray
    package_owner: np.ndarray
    dropped: Tuple[int, ...]

    @property
    def virtual_nodes(self) -> int:
        """Realised package count ``ℓ``."""
        return int(self.members.shape[0])

    @property
    def total_tokens(self) -> int:
        """Flat sample-vector length ``k·s`` one trial consumes."""
        return self.k * self.tokens_per_node

    @staticmethod
    def from_schedule(
        topology: Topology, tau: int, tokens_per_node: int = 1
    ) -> "PackagingLayout":
        """Extract the layout from the cached tree schedule, no engine.

        Replays the warm-start TOKENS dynamics on slot IDs: each round
        every node first appends the tokens delivered this round (in
        ascending sender order — the engine's deterministic inbox
        order), then forwards its buffer head to its parent if it still
        owes tokens; after ``τ`` forwarding rounds (plus the final
        delivery round) each buffer is cut into consecutive ``τ``-slot
        packages.  Identical to what a cold run realises because the
        warm start is round-for-round equivalent to the cold TOKENS
        phase (``verify_warm_start``) and the dynamics never read token
        values.  Cached per ``(τ, s)`` on the schedule's ``aux`` dict.
        """
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        if tokens_per_node < 1:
            raise ParameterError(
                f"tokens_per_node must be >= 1, got {tokens_per_node}"
            )
        schedule: TreeSchedule = topology.tree_schedule()
        key = ("trial_layout", tau, tokens_per_node)
        cached = schedule.aux.get(key)
        if cached is not None:
            return cached
        with telemetry.span(
            "trial_plane.layout",
            k=topology.k,
            tau=tau,
            tokens_per_node=tokens_per_node,
        ) as span:
            k, s = topology.k, tokens_per_node
            counts = schedule.token_counts(tau, s)
            buffers = [deque(range(v * s, (v + 1) * s)) for v in range(k)]
            sent = [0] * k
            dropped: List[int] = []
            arrivals: List[List[int]] = [[] for _ in range(k)]
            for r in range(tau + 1):
                for v in range(k):
                    if arrivals[v]:
                        buffers[v].extend(arrivals[v])
                next_arrivals: List[List[int]] = [[] for _ in range(k)]
                if r < tau:
                    for v in range(k):
                        if sent[v] < counts[v] and buffers[v]:
                            slot = buffers[v].popleft()
                            sent[v] += 1
                            parent = schedule.parent[v]
                            if parent is None:
                                dropped.append(slot)
                            else:
                                next_arrivals[parent].append(slot)
                arrivals = next_arrivals
            member_rows: List[Sequence[int]] = []
            owners: List[int] = []
            for v in range(k):
                if sent[v] != counts[v]:
                    raise SimulationError(
                        f"layout extraction: node {v} forwarded {sent[v]} of "
                        f"c(v)={counts[v]} slots in tau={tau} rounds — the "
                        f"pipelining invariant (Theorem 5.1) failed"
                    )
                held = list(buffers[v])
                if len(held) % tau != 0:
                    raise SimulationError(
                        f"layout extraction: node {v} holds {len(held)} slots, "
                        f"not a multiple of tau={tau}"
                    )
                for i in range(0, len(held), tau):
                    member_rows.append(held[i : i + tau])
                    owners.append(v)
            members = np.asarray(member_rows, dtype=np.int64).reshape(
                len(member_rows), tau
            )
            members.setflags(write=False)
            package_owner = np.asarray(owners, dtype=np.int64)
            package_owner.setflags(write=False)
            layout = PackagingLayout(
                k=k,
                tau=tau,
                tokens_per_node=s,
                members=members,
                package_owner=package_owner,
                dropped=tuple(dropped),
            )
            span.count("packages", layout.virtual_nodes)
            span.count("dropped_slots", len(dropped))
        schedule.aux[key] = layout
        return layout

    def verify_layout(self, topology: Topology) -> LayoutCheck:
        """Cross-check this layout against an actual cold engine run.

        Runs the full FLOOD/CHILD/COUNT/TOKENS protocol with slot-ID
        tokens and compares, per node, the realised packages (contents
        *and* order) and the root's drop set against the simulated
        layout.
        """
        if topology.k != self.k:
            raise ParameterError(
                f"layout built for k={self.k}, topology has {topology.k}"
            )
        k, s, tau = self.k, self.tokens_per_node, self.tau
        token_bits = bits_for_int(k * s)
        engine = SynchronousEngine(
            topology,
            bandwidth_bits=max(token_bits, 2 * bits_for_int(k)),
            max_rounds=10 * (topology.diameter_upper_bound() + tau + 10),
            deadlock_quiet_rounds=tau + 6,
        )
        report = engine.run(
            lambda v: TokenPackagingProgram(
                node_id=v,
                k=k,
                tau=tau,
                token=range(v * s, (v + 1) * s),
                token_bits=token_bits,
            ),
            None,
        )
        mine: List[List[Tuple[int, ...]]] = [[] for _ in range(k)]
        for p in range(self.virtual_nodes):
            mine[int(self.package_owner[p])].append(
                tuple(int(x) for x in self.members[p])
            )
        mismatched = []
        for v, outcome in enumerate(report.outputs):
            engine_packages = list(outcome.packages)
            engine_dropped = list(outcome.leftover)
            expected_dropped = list(self.dropped) if outcome.is_root else []
            if engine_packages != mine[v] or engine_dropped != expected_dropped:
                mismatched.append(v)
        return LayoutCheck(
            equivalent=not mismatched, mismatched_nodes=tuple(mismatched)
        )


# ---------------------------------------------------------------------------
# Batched verdict kernels (trial-engine compatible)
# ---------------------------------------------------------------------------


def _root_accepts(
    flags: np.ndarray, threshold: Optional[int], hardened: bool = False
) -> np.ndarray:
    """The root's decision from ``(trials, ℓ)`` package collision flags.

    ``threshold=None`` encodes a decision that reads no sample: the plain
    root with zero packages accepts, the hardened root rejects (zero
    counted packages, or no separating threshold at the realised ``ℓ``).
    """
    if threshold is None:
        return np.full(flags.shape[0], not hardened)
    return threshold_accepts(flags, threshold)


@dataclass(frozen=True, eq=False)
class CongestVerdictKernel:
    """Batched experiment: Theorem 1.4 trial error flags over a layout.

    ``(rng, count) -> flags`` where ``True`` means the verdict disagrees
    with ``is_uniform``.  Consumes exactly ``count`` trials' worth of
    ``sample_matrix(k, s)`` draws, as driver doubles, so it is
    bit-identical to the scalar engine experiment on the same chunk
    stream.  Serves the fault-free tester over a :class:`PackagingLayout`
    and the hardened one (``hardened=True``) over the packages a
    one-plan fault-plane replay counts at the root, where
    ``root_alive=False`` (the fixed plan crashes the elected root) makes
    every verdict ``None`` — an error on either side — while the stream
    is still consumed.
    """

    distribution: DiscreteDistribution
    members: np.ndarray
    threshold: Optional[int]
    total_tokens: int
    is_uniform: bool
    hardened: bool = False
    root_alive: bool = True

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        attrs = {"hardened": True} if self.hardened else {}
        with telemetry.span("trial_plane.draw", trials=count, **attrs) as sp:
            u = self.distribution.sample_uniform(count * self.total_tokens, rng)
            sp.count("tokens", count * self.total_tokens)
        with telemetry.span("trial_plane.verdict", trials=count, **attrs):
            if not self.root_alive:
                return np.ones(count, dtype=bool)
            flags = grouped_collision(
                u.reshape(count, self.total_tokens),
                self.members,
                self.distribution,
            )
            accepted = _root_accepts(flags, self.threshold, self.hardened)
            return accepted != self.is_uniform


# ---------------------------------------------------------------------------
# Fault-free trial runner (plain tester)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CongestTrialRunner:
    """Vectorised Monte-Carlo trials for the fault-free CONGEST tester.

    Wraps a solved :class:`CongestUniformityTester`, the topology's
    :class:`PackagingLayout` and the Theorem 1.2 threshold for the
    realised package count; trial verdicts are then one gather + one
    sort + one comparison per batch.  ``build`` is the constructor.
    """

    tester: CongestUniformityTester
    topology: Topology
    layout: PackagingLayout
    threshold: Optional[int]

    @staticmethod
    def build(
        tester: CongestUniformityTester, topology: Topology
    ) -> "CongestTrialRunner":
        """Extract (or reuse the cached) layout and place the threshold."""
        if topology.k != tester.params.k:
            raise ParameterError(
                f"tester solved for k={tester.params.k}, topology has "
                f"{topology.k}"
            )
        layout = PackagingLayout.from_schedule(
            topology, tester.params.tau, tester.params.samples_per_node
        )
        ell = layout.virtual_nodes
        # Mirrors the root's decision rule: zero packages accept
        # unconditionally; otherwise the exact-tail threshold (raising
        # InfeasibleParametersError exactly when the engine path would).
        threshold = None if ell == 0 else tester.params.threshold_for(ell)
        return CongestTrialRunner(
            tester=tester, topology=topology, layout=layout, threshold=threshold
        )

    # -- per-seed API --------------------------------------------------

    def verdicts_for_seeds(
        self, distribution: DiscreteDistribution, seeds: Sequence[int]
    ) -> List[bool]:
        """Per-seed verdicts matching ``tester.run(topo, dist, rng=seed)``.

        Each seed's driver doubles are drawn exactly as the engine path
        draws its samples, so verdict ``i`` is bit-identical to the
        engine run at ``seeds[i]``.
        """
        distribution.require_domain(self.tester.params.n)
        u = seed_drivers(distribution, self.layout.total_tokens, seeds)
        flags = grouped_collision(u, self.layout.members, distribution)
        return [bool(a) for a in _root_accepts(flags, self.threshold)]

    # -- trial-engine APIs ---------------------------------------------

    def run_flags(
        self,
        distribution: DiscreteDistribution,
        is_uniform: bool,
        trials: int,
        base_seed: int = 0,
        engine_check: float = 0.0,
    ) -> np.ndarray:
        """Per-trial error flags via the chunk-keyed trial engine.

        Bit-identical to the scalar engine route
        (:meth:`CongestUniformityTester.estimate_error` with
        ``fast_path=False``) — same ``("congest", k)`` labels, same
        stream consumption.  ``engine_check`` ∈ [0, 1] re-runs that
        fraction of the trials through the full engine
        (:meth:`~repro.experiments.runner.TrialRunner.run_audited`).
        """
        distribution.require_domain(self.tester.params.n)
        kernel = CongestVerdictKernel(
            distribution=distribution,
            members=self.layout.members,
            threshold=self.threshold,
            total_tokens=self.layout.total_tokens,
            is_uniform=is_uniform,
        )
        return TrialRunner(base_seed=base_seed).run_audited(
            kernel,
            lambda: _CongestTrialExperiment(
                tester=self.tester,
                topology=self.topology,
                distribution=distribution,
                is_uniform=is_uniform,
                warm_start=True,
            ),
            trials,
            "congest",
            self.topology.k,
            batch=auto_batch(self.layout.total_tokens),
            engine_check=engine_check,
            span="trial_plane.engine_check",
        )
