"""The vectorised LOCAL trial plane: MIS layout replay + batched verdicts.

A Monte-Carlo error-rate sweep of the Section 6 tester runs the same
protocol thousands of times, varying only the sampled values.  But the
protocol's *control flow* never looks at a sample's value: the MIS of the
power graph ``G^r`` is a pure function of the topology and the per-node
priority coins, the catchment assignment is a pure function of the MIS,
and the AND-rule verdict reads only *which* slots land at which virtual
node.  Hence the whole structural phase — power graph, Luby MIS,
gathering — is fixed across trials, and a trial's verdict reduces to

1. draw only the ``U[0, 1)`` *driver* values behind ``sample`` (the half
   of inverse-CDF sampling that must touch the stream —
   :meth:`~repro.distributions.base.DiscreteDistribution.sample_uniform`),
2. flag repetitions containing a repeat with the planes' shared kernel,
   :func:`repro.zeroround.network.grouped_collision`: one gather of each
   repetition's driver values over the per-virtual-node slot lists
   (typically a small fraction of the ``k`` slots drawn per trial), one
   sort, and exact
   :meth:`~repro.distributions.base.DiscreteDistribution.index_quantiles`
   lookups only for the sorted-adjacent pairs close enough to collide,
3. AND across the ``m`` repetitions per virtual node (a node rejects iff
   **all** its repetitions saw a collision), then across virtual nodes
   (the network rejects iff **any** node rejects — Theorem 1.1), both
   reductions from :mod:`repro.zeroround.decision`.

The structural phase itself is taken off the engine too:

- :func:`power_adjacency` computes ``G^r`` with a frontier-bitset BFS
  (``r`` sweeps of word-wide ORs over the edge list) instead of ``k``
  Python BFS traversals.
- :func:`replay_luby_mis` re-derives the engine's
  :class:`~repro.localmodel.mis.LubyMISProgram` run in array-based
  lock-step: the same per-node keyed priority draws (``spawn`` children
  of the MIS generator, one 63-bit draw per undecided node per cycle),
  the same strict ``(value, id)`` local-minimum join rule, the same
  3-rounds-per-cycle accounting — bit-identical membership *and* round
  count per seed.
- catchments reuse :func:`repro.localmodel.gather.assign_catchments`
  (itself vectorised), so the fast and engine paths share one routing
  rule by construction.

Bit-identity contract: the batched kernel consumes the trial engine's
chunk-keyed streams exactly like the scalar ``test_with_plan``
experiment (one ``sample(k)``-worth of draws per trial, numpy streams
being prefix-stable under call splitting), under the same
``("local", k)`` labels — so fast-path and scalar trial ``t`` see the
*same sample values* and must produce the same verdict.  The MIS
randomness is keyed by :func:`mis_generator` on ``(base_seed, radius)``
so both routes prepare the *same plan*.  ``engine_check`` re-runs a
prefix of the trials through the scalar tester and cross-checks the
layout against a real :func:`~repro.localmodel.mis.luby_mis` engine run,
raising :class:`~repro.exceptions.SimulationError` on any divergence.
The engine remains the measurement of record for rounds and message
complexity; the trial plane only accelerates verdict statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.core.params import AndRuleParameters
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import ParameterError, SimulationError
from repro.experiments.runner import TrialRunner
from repro.localmodel.gather import GatherResult, assign_catchments
from repro.localmodel.mis import luby_mis
from repro.rng import derive, spawn
from repro.simulator.graph import Topology
from repro.zeroround.decision import AndRule, repetition_rejects
from repro.zeroround.network import auto_batch, grouped_collision, seed_drivers

#: Sentinel larger than any drawn priority (draws are < 2**63 - 1).
_NO_PRIORITY = np.int64(2**63 - 1)


def mis_generator(base_seed: int, radius: int) -> np.random.Generator:
    """The MIS-phase generator both LOCAL routes derive per ``base_seed``.

    Keyed on the *effective* radius so every seed-like route — the scalar
    trial experiment, the fast path, the layout cache — prepares the same
    plan from the same coins.
    """
    return derive(base_seed, "local-mis", radius)


def effective_radius(topology: Topology, r: int) -> int:
    """The radius the tester actually gathers at: ``min(r, k − 1)``."""
    if r < 1:
        raise ParameterError(f"radius must be >= 1, got {r}")
    return min(r, topology.k - 1) if topology.k > 1 else 1


# ---------------------------------------------------------------------------
# Frontier-bitset power-graph BFS
# ---------------------------------------------------------------------------


def power_adjacency(topology: Topology, r: int) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays ``(src, dst)`` of the power graph ``G^r``.

    Frontier-array BFS over node bitsets: ``ball[v]`` holds the ≤ d ball
    of ``v`` as ``⌈k/64⌉`` words, and one sweep ORs every neighbour's
    ball into it (``np.bitwise_or.reduceat`` over the edge list), so the
    whole all-pairs bounded BFS costs ``r`` word-wide passes instead of
    ``k`` Python traversals.  Exact: after ``d`` sweeps ``ball[v]`` is
    precisely the distance-``≤ d`` ball.  Edges come out sorted by
    ``(src, dst)``; self-loops are excluded, matching
    :meth:`~repro.simulator.graph.Topology.power_graph`.
    """
    if r < 1:
        raise ParameterError(f"power must be >= 1, got {r}")
    k = topology.k
    words = (k + 63) // 64
    nodes = np.arange(k, dtype=np.int64)
    ball = np.zeros((k, words), dtype=np.uint64)
    ball[nodes, nodes >> 6] = np.left_shift(
        np.uint64(1), (nodes & 63).astype(np.uint64)
    )
    degrees = np.array([topology.degree(v) for v in range(k)], dtype=np.int64)
    if degrees.any():
        dst = np.concatenate(
            [np.asarray(topology.neighbors(v), dtype=np.int64) for v in range(k)]
        )
        indptr = np.concatenate(([0], np.cumsum(degrees)))
        starts = indptr[:-1][degrees > 0]
        grown = degrees > 0
        for _ in range(r):
            gathered = np.bitwise_or.reduceat(ball[dst], starts, axis=0)
            new = ball.copy()
            new[grown] |= gathered
            if np.array_equal(new, ball):
                break
            ball = new
    # Little-endian byte view keeps word bit b at flat position 64w + b.
    bits = np.unpackbits(
        ball.astype("<u8").view(np.uint8), axis=1, bitorder="little"
    )[:, :k].astype(bool)
    np.fill_diagonal(bits, False)
    src, dst = np.nonzero(bits)
    return src.astype(np.int64), dst.astype(np.int64)


# ---------------------------------------------------------------------------
# Array-based lock-step Luby replay
# ---------------------------------------------------------------------------


def replay_luby_mis(
    k: int,
    edges: Tuple[np.ndarray, np.ndarray],
    rng: np.random.Generator,
) -> Tuple[np.ndarray, int]:
    """Replay :func:`~repro.localmodel.mis.luby_mis` without the engine.

    ``edges`` is the directed ``(src, dst)`` pair of the (power) graph the
    MIS runs on.  Bit-identical per seed to the engine run: node ``v``'s
    coins are child ``v`` of ``spawn(rng, k)`` — the same streams the
    engine's lazy per-node spawn materialises — and each cycle every
    still-undecided, non-isolated node draws one
    ``integers(0, 2**63 − 1)`` priority exactly as
    ``LubyMISProgram._send_priorities`` does.  The returned round count
    reproduces the engine's 3-rounds-per-cycle accounting, including the
    early-exit cases (no drawers left: ``3t``; everyone decided with no
    LEAVE traffic: ``3t + 2``; trailing LEAVE delivery: ``3t + 3``).

    The lock-step invariant making this exact: at cycle ``t`` a node's
    ``undecided`` set equals its neighbourhood intersected with the
    still-active set, so joins are strict ``(value, id)`` local minima
    among *active* neighbours and leavers are exactly the non-joining
    drawers with a joining neighbour.
    """
    src, dst = edges
    membership = np.zeros(k, dtype=bool)
    active = np.ones(k, dtype=bool)
    values = np.empty(k, dtype=np.int64)
    node_rngs: Optional[List[np.random.Generator]] = None
    ids = np.arange(k, dtype=np.int64)
    t = 0
    while True:
        es, ed = src[active[src] & active[dst]], dst[active[src] & active[dst]]
        has_active_neighbor = np.zeros(k, dtype=bool)
        has_active_neighbor[ed] = True
        # PRIORITY step (round 3t): isolated survivors join silently,
        # everyone else draws and announces.
        membership |= active & ~has_active_neighbor
        drawers = active & has_active_neighbor
        if not drawers.any():
            return membership, 3 * t
        if node_rngs is None:
            # Same child streams (and the same parent spawn-counter
            # advance) as the engine's lazy per-node spawn.
            node_rngs = spawn(rng, k)
        values.fill(_NO_PRIORITY)
        for v in np.flatnonzero(drawers):
            values[v] = int(node_rngs[v].integers(0, 2**63 - 1))
        # JOIN step (round 3t+1): strict (value, id) local minimum among
        # undecided neighbours (all of which are drawers — an active
        # neighbour of a drawer cannot be isolated).
        neighbor_min = np.full(k, _NO_PRIORITY, dtype=np.int64)
        np.minimum.at(neighbor_min, ed, values[es])
        tie = values[es] == neighbor_min[ed]
        neighbor_min_id = np.full(k, k, dtype=np.int64)
        np.minimum.at(neighbor_min_id, ed[tie], es[tie])
        joins = drawers & (
            (values < neighbor_min)
            | ((values == neighbor_min) & (ids < neighbor_min_id))
        )
        membership |= joins
        # LEAVE step (round 3t+2): non-joining drawers next to a joiner
        # are dominated and halt, telling their surviving neighbours.
        heard_join = np.zeros(k, dtype=bool)
        heard_join[ed[joins[es]]] = True
        leavers = drawers & ~joins & heard_join
        survivors = drawers & ~joins & ~heard_join
        if not survivors.any():
            # A LEAVE message is sent iff some leaver still has an
            # undecided (= non-joining drawer) neighbour; its delivery
            # round is charged even though every recipient has halted.
            leave_sent = bool(np.any(leavers[es] & ~joins[ed]))
            return membership, 3 * t + (3 if leave_sent else 2)
        active = survivors
        t += 1


# ---------------------------------------------------------------------------
# The structural layout, cached per (topology, radius, seed)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalLayoutCheck:
    """Result of :meth:`LocalLayout.verify_layout`."""

    equivalent: bool
    mismatched_nodes: Tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class LocalLayout:
    """The sample-independent structure of one LOCAL tester plan.

    Everything the Section 6 protocol fixes before a single sample is
    drawn: the MIS membership of ``G^r`` (with the engine's round
    count), and the catchment assignment routing every node's sample
    slot to its owning virtual node.  Built once per
    ``(topology, radius, base_seed)`` by :meth:`build` and cached on the
    topology's tree schedule; :meth:`verify_layout` cross-checks the
    replay against a real engine run on the same derived generator.
    """

    k: int
    radius: int
    base_seed: int
    membership: np.ndarray
    mis_rounds: int
    gather: GatherResult

    @property
    def mis_size(self) -> int:
        """Number of virtual nodes."""
        return len(self.gather.samples_at)

    @property
    def min_catchment(self) -> int:
        """Smallest sample pile at any virtual node."""
        return min(len(pile) for pile in self.gather.samples_at.values())

    @staticmethod
    def build(
        topology: Topology, r: int, base_seed: int = 0
    ) -> "LocalLayout":
        """Replay the structural phases at radius *r*, no engine.

        The MIS coins come from :func:`mis_generator` — the same derived
        generator the seed-like scalar route hands to
        :meth:`~repro.localmodel.tester.LocalUniformityTester.plan` — so
        the cached layout *is* that route's plan, bit for bit.  Cached
        per ``(radius, base_seed)`` on the schedule's ``aux`` dict,
        which is what lets a doubling radius search and the subsequent
        error sweep share every probe.
        """
        radius = effective_radius(topology, r)
        schedule = topology.tree_schedule()
        key = ("local_layout", radius, int(base_seed))
        cached = schedule.aux.get(key)
        if cached is not None:
            return cached
        with telemetry.span(
            "local_plane.layout", k=topology.k, radius=radius
        ) as span:
            edges = power_adjacency(topology, radius)
            membership, mis_rounds = replay_luby_mis(
                topology.k, edges, mis_generator(base_seed, radius)
            )
            gather = assign_catchments(
                topology, [bool(b) for b in membership], radius
            )
            layout = LocalLayout(
                k=topology.k,
                radius=radius,
                base_seed=int(base_seed),
                membership=membership,
                mis_rounds=mis_rounds,
                gather=gather,
            )
            span.count("mis_nodes", layout.mis_size)
            span.count("mis_rounds", mis_rounds)
        schedule.aux[key] = layout
        return layout

    def verify_layout(self, topology: Topology) -> LocalLayoutCheck:
        """Cross-check this layout against an actual engine MIS run.

        Re-derives the same MIS generator, runs the real
        :class:`~repro.localmodel.mis.LubyMISProgram` on
        ``topology.power_graph(radius)``, routes catchments from the
        engine's membership, and compares membership, round count and
        per-node owners.  A round-count mismatch is reported as node
        ``-1``.
        """
        if topology.k != self.k:
            raise ParameterError(
                f"layout built for k={self.k}, topology has {topology.k}"
            )
        power = (
            topology.power_graph(self.radius) if topology.k > 1 else topology
        )
        engine_mis, engine_rounds = luby_mis(
            power, mis_generator(self.base_seed, self.radius)
        )
        engine_gather = assign_catchments(topology, engine_mis, self.radius)
        mismatched = [
            v
            for v in range(self.k)
            if bool(self.membership[v]) != engine_mis[v]
            or self.gather.owner[v] != engine_gather.owner[v]
        ]
        if engine_rounds != self.mis_rounds:
            mismatched.append(-1)
        return LocalLayoutCheck(
            equivalent=not mismatched, mismatched_nodes=tuple(mismatched)
        )

    def slot_matrix(self, params: AndRuleParameters) -> np.ndarray:
        """Per-repetition sample-slot lists, ``(mis_size·m, s')`` int64.

        Row ``i·m + j`` holds the slots of virtual node ``i``'s (in
        ascending owner order, the order ``test_with_plan`` iterates)
        ``j``-th repetition — the first ``samples_per_node`` slots of its
        pile reshaped ``(m, s')`` exactly as
        :meth:`~repro.core.amplify.RepeatedAndTester.decide` splits its
        batch.
        """
        per = params.samples_per_node
        if per > self.min_catchment:
            raise ParameterError(
                f"layout catchments hold as few as {self.min_catchment} "
                f"samples, but the parameters need {per} per virtual node"
            )
        rows = [
            np.asarray(
                self.gather.samples_at[owner][:per], dtype=np.int64
            ).reshape(params.m, params.s_per_repetition)
            for owner in sorted(self.gather.samples_at)
        ]
        members = np.concatenate(rows, axis=0)
        members.setflags(write=False)
        return members


# ---------------------------------------------------------------------------
# Batched verdict kernel + trial runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LocalVerdictKernel:
    """Batched experiment: Theorem 1.1 AND-rule trial error flags.

    ``(rng, count) -> flags`` where ``True`` means the verdict disagrees
    with ``is_uniform``.  Consumes exactly ``count`` trials' worth of
    ``sample(k)`` draws, so it is bit-identical to the scalar
    ``test_with_plan`` experiment on the same chunk stream.

    Only the ``U[0, 1)`` *driver* values behind ``sample`` are drawn
    (``sample_uniform`` advances the generator identically); per batch
    the verdict is one :func:`~repro.zeroround.network.grouped_collision`
    pass over the repetitions' slot lists, then an ``all`` across each
    node's ``m`` copies (a node rejects iff every repetition saw a
    collision) and an ``any`` across nodes (the network rejects iff any
    node rejects).
    """

    distribution: DiscreteDistribution
    members: np.ndarray
    m: int
    total_samples: int
    is_uniform: bool

    def __call__(self, rng: np.random.Generator, count: int) -> np.ndarray:
        with telemetry.span("local_plane.draw", trials=count) as sp:
            u = self.distribution.sample_uniform(
                count * self.total_samples, rng
            )
            sp.count("samples", count * self.total_samples)
        with telemetry.span("local_plane.verdict", trials=count):
            accepted = self.accepts_uniform(
                u.reshape(count, self.total_samples)
            )
            return accepted != self.is_uniform

    def accepts_uniform(self, u: np.ndarray) -> np.ndarray:
        """AND-rule verdicts for a ``(trials, k)`` driver-draw batch."""
        collided = grouped_collision(u, self.members, self.distribution)
        return AndRule().decide_many(repetition_rejects(collided, self.m))


@dataclass(frozen=True, eq=False)
class LocalTrialRunner:
    """Vectorised Monte-Carlo trials for the Section 6 LOCAL tester.

    Wraps a tester, a cached :class:`LocalLayout` and the Theorem 1.1
    parameters solved at the layout's realised MIS size; trial verdicts
    are then one gather + one sort + two reductions per batch.
    ``build`` is the constructor.
    """

    tester: "LocalUniformityTester"
    topology: Topology
    layout: LocalLayout
    params: AndRuleParameters
    members: np.ndarray
    base_seed: int

    @staticmethod
    def build(
        tester: "LocalUniformityTester",
        topology: Topology,
        r: int,
        base_seed: int = 0,
    ) -> "LocalTrialRunner":
        """Extract (or reuse the cached) layout and place the parameters.

        Raises exactly when the engine-backed
        :meth:`~repro.localmodel.tester.LocalUniformityTester.plan`
        would: ``ParameterError`` for ``r < 1``,
        ``InfeasibleParametersError`` when the realised catchments are
        too small for Theorem 1.1 at this radius.
        """
        layout = LocalLayout.build(topology, r, base_seed=base_seed)
        params = tester.solve_for_layout(
            layout.mis_size, layout.min_catchment, r
        )
        return LocalTrialRunner(
            tester=tester,
            topology=topology,
            layout=layout,
            params=params,
            members=layout.slot_matrix(params),
            base_seed=int(base_seed),
        )

    @property
    def plan(self) -> "LocalPlan":
        """The :class:`LocalPlan` this runner replays, engine-shaped."""
        from repro.localmodel.tester import LocalPlan

        return LocalPlan(
            radius=self.layout.radius,
            mis_size=self.layout.mis_size,
            min_catchment=self.layout.min_catchment,
            mis_rounds_on_power_graph=self.layout.mis_rounds,
            routing_rounds=self.layout.gather.routing_rounds,
            gather=self.layout.gather,
            params=self.params,
        )

    # -- per-seed API --------------------------------------------------

    def verdicts_for_seeds(
        self, distribution: DiscreteDistribution, seeds
    ) -> List[bool]:
        """Per-seed verdicts matching ``test_with_plan(plan, d, rng=seed)``.

        Each seed's driver draws consume its generator exactly as the
        scalar path's ``sample(k)`` would (``ensure_rng(seed)`` then one
        ``sample_uniform(k)``), so verdict ``i`` is bit-identical to the
        scalar decision at ``seeds[i]`` over the shared plan.
        """
        distribution.require_domain(self.tester.n)
        drawn = seed_drivers(distribution, self.layout.k, seeds)
        collided = grouped_collision(drawn, self.members, distribution)
        rejects = repetition_rejects(collided, self.params.m)
        return [bool(a) for a in AndRule().decide_many(rejects)]

    # -- trial-engine APIs ---------------------------------------------

    def run_flags(
        self,
        distribution: DiscreteDistribution,
        is_uniform: bool,
        trials: int,
        engine_check: float = 0.0,
    ) -> np.ndarray:
        """Per-trial error flags via the chunk-keyed trial engine.

        Bit-identical to the scalar route
        (:meth:`~repro.localmodel.tester.LocalUniformityTester.estimate_error`
        with ``fast_path=False`` and the same seed-like rng) — same
        ``("local", k)`` labels, same stream consumption.
        ``engine_check`` ∈ [0, 1] re-runs that fraction of the trials
        through the scalar ``test_with_plan`` decision
        (:meth:`~repro.experiments.runner.TrialRunner.run_audited`),
        after cross-checking the layout against a real engine MIS run;
        either divergence raises :class:`SimulationError`.
        """
        distribution.require_domain(self.tester.n)
        kernel = LocalVerdictKernel(
            distribution=distribution,
            members=self.members,
            m=self.params.m,
            total_samples=self.layout.k,
            is_uniform=is_uniform,
        )
        return TrialRunner(base_seed=self.base_seed).run_audited(
            kernel,
            lambda: self._reference(distribution, is_uniform),
            trials,
            "local",
            self.topology.k,
            batch=auto_batch(self.layout.k),
            engine_check=engine_check,
            span="local_plane.engine_check",
        )

    def _reference(self, distribution: DiscreteDistribution, is_uniform: bool):
        """The scalar ``test_with_plan`` experiment over this runner's plan,
        once the layout has been checked against a real engine MIS run."""
        check = self.layout.verify_layout(self.topology)
        if not check.equivalent:
            raise SimulationError(
                f"local-plane layout diverges from the engine MIS "
                f"at nodes {check.mismatched_nodes[:8]} — "
                f"bit-identity contract broken"
            )
        from repro.localmodel.tester import _LocalTrialExperiment

        return _LocalTrialExperiment(
            tester=self.tester,
            plan=self.plan,
            distribution=distribution,
            is_uniform=is_uniform,
        )
