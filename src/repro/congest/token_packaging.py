"""The τ-token-packaging protocol (Definition 2, Theorem 5.1).

Every node starts with one token (in the tester: its sample).  The goal is
to output packages — multisets of exactly ``τ`` tokens — such that every
token joins at most one package and at most ``τ − 1`` tokens are dropped,
in ``O(D + τ)`` rounds of CONGEST.

Protocol (Section 5 of the paper), as a per-node phase machine:

1. **FLOOD** — max-ID flooding elects the leader ``r`` and builds a BFS
   tree rooted there.  Ends at the first globally quiet round (the wave
   has settled; ``D + O(1)`` rounds).  Nodes do not know ``D``.
2. **CHILD** — one round: every non-root node tells its parent "I am your
   child", giving each node its tree-children set.
3. **COUNT** — convergecast of ``c(v) = (1 + Σ c(children)) mod τ``: the
   number of tokens ``v`` will forward upward.  Leaves start immediately;
   the wave reaches the root in ``height(T)`` rounds, then a quiet round
   synchronises everyone.
4. **TOKENS** — exactly ``τ`` rounds, counted locally: each node forwards
   the first ``c(v)`` tokens it holds (its own token counts as held from
   the start) one per round to its parent, keeping everything after that.
   The root "forwards" ``c(r)`` tokens into the bin.  The paper's
   pipelining invariant guarantees every node finishes within ``τ`` rounds
   — this implementation *checks* that invariant and raises if it ever
   failed.
5. Package: every node now holds a multiple of ``τ`` tokens; it cuts them
   into packages and (in the standalone protocol) halts with output
   ``PackagingOutcome``.

Message sizes: flooding/count/child messages are ``O(log k)`` bits, token
messages ``⌈log₂ n⌉`` bits — all within CONGEST.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.exceptions import ParameterError, SimulationError
from repro.rng import SeedLike
from repro.simulator.engine import EngineReport, SynchronousEngine
from repro.simulator.faults import FaultPlan
from repro.simulator.graph import Topology, TreeSchedule
from repro.simulator.message import Message, bits_for_int
from repro.simulator.node import Context, NodeProgram

# Phase labels (plain strings keep traces readable).
_FLOOD = "flood"
_CHILD = "child"
_COUNT = "count"
_TOKENS = "tokens"


@dataclass(frozen=True)
class WarmStart:
    """Precomputed per-node tree state that replaces FLOOD/CHILD/COUNT.

    A warm-started :class:`TokenPackagingProgram` loads ``parent``,
    ``children`` and ``c_value`` from the topology's cached
    :class:`~repro.simulator.graph.TreeSchedule` and enters the TOKENS
    phase directly at round 0.  The token-phase dynamics are then
    round-for-round identical to a cold run shifted by the tree-building
    prefix — :func:`verify_warm_start` checks this.
    """

    parent: Optional[int]
    children: Tuple[int, ...]
    c_value: int


def warm_start_views(
    topology: Topology, tau: int, tokens_per_node: int = 1
) -> List[WarmStart]:
    """Per-node :class:`WarmStart` views from the cached tree schedule.

    Cached per ``(τ, tokens_per_node)`` on the schedule (the views are
    immutable); Monte-Carlo loops reuse one list across trials.  Treat the
    returned list as read-only.
    """
    schedule: TreeSchedule = topology.tree_schedule()
    key = ("warm_views", tau, tokens_per_node)
    views = schedule.aux.get(key)
    if views is None:
        counts = schedule.token_counts(tau, tokens_per_node)
        views = [
            WarmStart(
                parent=schedule.parent[v],
                children=schedule.children[v],
                c_value=counts[v],
            )
            for v in range(topology.k)
        ]
        schedule.aux[key] = views
    return views


@dataclass(frozen=True)
class PackagingOutcome:
    """A node's final packaging output.

    Attributes
    ----------
    packages:
        This node's packages, each a tuple of exactly ``τ`` tokens.
    leftover:
        Tokens this node still holds outside packages.  Zero everywhere
        except the root's discard bin.
    is_root:
        Whether this node is the elected BFS root.
    """

    packages: Tuple[Tuple[int, ...], ...]
    leftover: Tuple[int, ...]
    is_root: bool


class TokenPackagingProgram(NodeProgram):
    """Per-node phase machine for τ-token packaging.

    Parameters
    ----------
    node_id:
        This node's ID (doubles as its flooding identifier).
    k:
        Network size (known to all nodes, as in the paper).
    tau:
        Package size ``τ ≥ 1``.
    token:
        The node's initial token, or a sequence of tokens — the paper's
        "each node starts with a single sample" generalises directly to
        ``s`` samples per node (c(v) counts all of them mod τ).
    token_bits:
        Bits per token message (``⌈log₂ n⌉``).
    warm_start:
        Optional precomputed tree state (:class:`WarmStart`).  When given,
        the program skips FLOOD/CHILD/COUNT and enters the TOKENS phase
        at round 0 with the supplied parent/children/``c(v)`` — the fast
        path for Monte-Carlo trials over a fixed topology.
    """

    def __init__(
        self,
        node_id: int,
        k: int,
        tau: int,
        token: "int | Sequence[int]",
        token_bits: int,
        warm_start: Optional[WarmStart] = None,
    ) -> None:
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        self.node_id = node_id
        self.k = k
        self.tau = tau
        self.token_bits = token_bits
        initial = [int(token)] if isinstance(token, (int,)) else [int(t) for t in token]
        if not initial:
            raise ParameterError("every node needs at least one token")
        self._initial_count = len(initial)
        self.phase = _FLOOD
        # Flooding state.
        self.best = node_id
        self.dist = 0
        self.parent: Optional[int] = None
        # Tree state.
        self.children: List[int] = []
        self.pending_counts: set = set()
        self.c_value: Optional[int] = None
        self._children_count_sum = 0
        # Token state.
        self.buffer: Deque[int] = deque(initial)
        self.sent_tokens = 0
        self.tokens_phase_end: Optional[int] = None
        self.discarded: List[int] = []
        self._warm_start = warm_start
        if warm_start is not None:
            self.phase = _TOKENS
            self.best = k - 1
            self.parent = warm_start.parent
            self.children = list(warm_start.children)
            self.c_value = warm_start.c_value

    # -- phase 1: flooding ------------------------------------------------

    def _id_bits(self) -> int:
        return 2 * bits_for_int(self.k)

    def _announce(self, ctx: Context) -> None:
        ctx.broadcast((self.best, self.dist), bits=self._id_bits(), tag=_FLOOD)

    def on_start(self, ctx: Context) -> None:
        if self._warm_start is not None:
            # Tree already known: the TOKENS phase starts immediately, with
            # the same round-relative dynamics as a cold run entering it
            # after the COUNT quiet round (forward one token now, then one
            # per round for the remaining τ − 1 rounds).
            self.tokens_phase_end = ctx.round + self.tau
            self._forward_token(ctx)
            self._schedule_token_wake(ctx)
            return
        self._announce(ctx)

    @property
    def is_root(self) -> bool:
        """Whether this node won the leader election."""
        return self.parent is None

    # -- main dispatch -----------------------------------------------------

    def on_round(self, ctx: Context, inbox: List[Message]) -> None:
        if self.phase == _FLOOD:
            self._round_flood(ctx, inbox)
        elif self.phase == _CHILD:
            self._round_child(ctx, inbox)
        elif self.phase == _COUNT:
            self._round_count(ctx, inbox)
        elif self.phase == _TOKENS:
            self._round_tokens(ctx, inbox)
        else:  # pragma: no cover - phases are exhaustive
            raise SimulationError(f"unknown phase {self.phase!r}")

    def _round_flood(self, ctx: Context, inbox: List[Message]) -> None:
        changed = False
        for msg in inbox:
            cand_best, cand_dist = msg.payload
            if cand_best > self.best or (
                cand_best == self.best and cand_dist + 1 < self.dist
            ):
                self.best = cand_best
                self.dist = cand_dist + 1
                self.parent = msg.src
                changed = True
        if changed:
            self._announce(ctx)
        elif ctx.quiet_rounds >= 1:
            # Wave settled globally; everyone transitions together.  The
            # wakeup guarantees even childless nodes process the CHILD round.
            self.phase = _CHILD
            if self.parent is not None:
                ctx.send(self.parent, None, bits=1, tag=_CHILD)
            ctx.request_wakeup(ctx.round + 1)

    def _round_child(self, ctx: Context, inbox: List[Message]) -> None:
        self.children = sorted(msg.src for msg in inbox if msg.tag == _CHILD)
        self.pending_counts = set(self.children)
        self.phase = _COUNT
        if not self.pending_counts:
            self._send_count(ctx)

    # -- phase 3: c(v) convergecast ----------------------------------------

    def _send_count(self, ctx: Context) -> None:
        self.c_value = (self._initial_count + self._children_count_sum) % self.tau
        if self.parent is not None:
            ctx.send(
                self.parent,
                self.c_value,
                bits=bits_for_int(self.tau),
                tag=_COUNT,
            )

    def _round_count(self, ctx: Context, inbox: List[Message]) -> None:
        for msg in inbox:
            if msg.tag == _COUNT and msg.src in self.pending_counts:
                self.pending_counts.discard(msg.src)
                self._children_count_sum += int(msg.payload)
        if self.c_value is None and not self.pending_counts:
            self._send_count(ctx)
        if self.c_value is not None and ctx.quiet_rounds >= 1:
            # All counts delivered network-wide; token phase starts *now*,
            # simultaneously everywhere, for exactly tau rounds.
            self.phase = _TOKENS
            self.tokens_phase_end = ctx.round + self.tau
            self._forward_token(ctx)
            self._schedule_token_wake(ctx)

    # -- phase 4: pipelined token forwarding --------------------------------

    def _schedule_token_wake(self, ctx: Context) -> None:
        """Next wakeup during TOKENS: every round while tokens are still
        owed, otherwise straight to the phase end.  Incoming tokens wake
        the node anyway (mail), so sleeping through the wait is
        message-for-message identical to waking idle each round."""
        assert self.tokens_phase_end is not None
        if self.sent_tokens < self.c_value:
            ctx.request_wakeup(ctx.round + 1)
        else:
            ctx.request_wakeup(self.tokens_phase_end)

    def _forward_token(self, ctx: Context) -> None:
        """Send (or discard, at the root) one token if still owed."""
        assert self.c_value is not None
        if self.sent_tokens < self.c_value and self.buffer:
            token = self.buffer.popleft()
            self.sent_tokens += 1
            if self.parent is None:
                self.discarded.append(token)
            else:
                ctx.send(self.parent, int(token), bits=self.token_bits, tag=_TOKENS)

    def _round_tokens(self, ctx: Context, inbox: List[Message]) -> None:
        for msg in inbox:
            if msg.tag == _TOKENS:
                self.buffer.append(int(msg.payload))
        assert self.tokens_phase_end is not None
        if ctx.round < self.tokens_phase_end:
            if self.sent_tokens < self.c_value:
                self._forward_token(ctx)
            self._schedule_token_wake(ctx)
            return
        # tau rounds elapsed: verify the paper's pipelining invariant held.
        if self.sent_tokens != self.c_value:
            raise SimulationError(
                f"node {self.node_id}: pipelining invariant violated — sent "
                f"{self.sent_tokens} of c(v)={self.c_value} tokens in tau="
                f"{self.tau} rounds"
            )
        if len(self.buffer) % self.tau != 0:
            raise SimulationError(
                f"node {self.node_id}: holds {len(self.buffer)} tokens, not "
                f"a multiple of tau={self.tau}"
            )
        held = list(self.buffer)
        packages = tuple(
            tuple(held[i: i + self.tau]) for i in range(0, len(held), self.tau)
        )
        self._on_packaged(ctx, packages)

    def _on_packaged(self, ctx: Context, packages: Tuple[Tuple[int, ...], ...]) -> None:
        """Packaging finished.  The standalone protocol halts here;
        the CONGEST tester subclass overrides this to keep going."""
        ctx.halt(
            PackagingOutcome(
                packages=packages,
                leftover=tuple(self.discarded),
                is_root=self.is_root,
            )
        )


def run_token_packaging(
    topology: Topology,
    tokens: Sequence[int],
    tau: int,
    token_bits: Optional[int] = None,
    rng: SeedLike = None,
    warm_start: bool = False,
    faults: Optional[FaultPlan] = None,
) -> Tuple[List[PackagingOutcome], EngineReport]:
    """Run τ-token packaging over *topology* with the given initial tokens.

    Returns the per-node outcomes and the engine's measured statistics
    (rounds, messages, bits) — benchmark E5 compares ``report.rounds``
    against the ``O(D + τ)`` bound.  ``warm_start=True`` loads the cached
    :class:`~repro.simulator.graph.TreeSchedule` and skips the
    FLOOD/CHILD/COUNT phases; the packaging outcome is identical (see
    :func:`verify_warm_start`), but ``report.rounds`` then measures only
    the TOKENS phase — keep it off when measuring the ``O(D + τ)`` bound.

    ``faults`` forwards a :class:`~repro.simulator.faults.FaultPlan` to the
    engine.  This protocol assumes reliable delivery — real faults will
    generally deadlock or corrupt it (use the hardened variant in
    :mod:`repro.congest.hardened` instead); the parameter exists so
    ``FaultPlan.none()`` bit-identity can be asserted end to end.
    """
    if len(tokens) != topology.k:
        raise ParameterError(
            f"need one token per node: {len(tokens)} tokens, k={topology.k}"
        )
    if token_bits is None:
        token_bits = bits_for_int(max(int(t) for t in tokens))
    bandwidth = max(token_bits, 2 * bits_for_int(topology.k))
    # Token forwarding can be globally silent for up to tau rounds (when all
    # c(v) = 0), and a single-node network is silent from round one; widen
    # the deadlock detector accordingly.
    engine = SynchronousEngine(
        topology,
        bandwidth_bits=bandwidth,
        max_rounds=10 * (topology.diameter_upper_bound() + tau + 10),
        deadlock_quiet_rounds=tau + 6,
        faults=faults,
        phase_names=(
            ("tokens",)
            if warm_start
            else ("flood", "claim_count", "tokens")
        ),
    )
    views = warm_start_views(topology, tau) if warm_start else None
    report = engine.run(
        lambda v: TokenPackagingProgram(
            node_id=v,
            k=topology.k,
            tau=tau,
            token=int(tokens[v]),
            token_bits=token_bits,
            warm_start=None if views is None else views[v],
        ),
        rng,
    )
    outcomes = list(report.outputs)
    return outcomes, report


@dataclass(frozen=True)
class WarmStartCheck:
    """Result of :func:`verify_warm_start`.

    ``equivalent`` is True when the cold (full-protocol) and warm-started
    runs produced identical per-node packaging outcomes.  Both engine
    reports are kept so benchmarks can report the real protocol's
    ``O(D + τ)`` round count alongside the fast path's.
    """

    equivalent: bool
    cold_report: EngineReport
    warm_report: EngineReport
    mismatched_nodes: Tuple[int, ...] = ()


def verify_warm_start(
    topology: Topology,
    tokens: Sequence[int],
    tau: int,
    token_bits: Optional[int] = None,
    rng: SeedLike = None,
) -> WarmStartCheck:
    """Cross-check the warm-start fast path against the full protocol.

    Runs packaging twice — cold (FLOOD/CHILD/COUNT/TOKENS) and warm
    (TOKENS only, from the cached tree schedule) — and compares the
    per-node :class:`PackagingOutcome` for exact equality.  Also asserts
    both runs satisfy Definition 2 via :func:`verify_packaging`.
    """
    cold_outcomes, cold_report = run_token_packaging(
        topology, tokens, tau, token_bits=token_bits, rng=rng, warm_start=False
    )
    warm_outcomes, warm_report = run_token_packaging(
        topology, tokens, tau, token_bits=token_bits, rng=rng, warm_start=True
    )
    verify_packaging(cold_outcomes, tokens, tau)
    verify_packaging(warm_outcomes, tokens, tau)
    mismatched = tuple(
        v
        for v, (c, w) in enumerate(zip(cold_outcomes, warm_outcomes))
        if c != w
    )
    return WarmStartCheck(
        equivalent=not mismatched,
        cold_report=cold_report,
        warm_report=warm_report,
        mismatched_nodes=mismatched,
    )


def verify_packaging(
    outcomes: Sequence[PackagingOutcome],
    tokens: Sequence[int],
    tau: int,
) -> None:
    """Assert the three Definition 2 requirements; raise on any violation.

    1. Every package has size exactly ``τ``.
    2. Every token lands in at most one package (checked as a multiset).
    3. At most ``τ − 1`` tokens are unpackaged.
    """
    from collections import Counter

    packaged: Counter = Counter()
    total_packaged = 0
    for outcome in outcomes:
        for package in outcome.packages:
            if len(package) != tau:
                raise AssertionError(
                    f"package of size {len(package)}, expected {tau}"
                )
            packaged.update(package)
            total_packaged += len(package)
    original: Counter = Counter(int(t) for t in tokens)
    leftover_multiset = original - packaged
    overdraw = packaged - original
    if overdraw:
        raise AssertionError(f"tokens duplicated into packages: {dict(overdraw)}")
    dropped = len(tokens) - total_packaged
    if dropped > tau - 1:
        raise AssertionError(
            f"{dropped} tokens unpackaged, Definition 2 allows at most {tau - 1}"
        )
