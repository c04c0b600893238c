"""The CONGEST fault plane: the one engine-free hardened replay.

The trial plane (:mod:`repro.congest.trial_plane`) removes the engine
from fault-free trials.  Hardened trials realise a layout that depends
on the :class:`~repro.simulator.faults.FaultPlan`: the E14 robustness
grid keys a fresh plan to every trial, and
``HardenedCongestTester.estimate_error`` holds one plan fixed across
its trials (a one-plan batch here, whose root fragment is then scored
by the trial plane's kernel).  This module replays *batches* of
hardened trials, one plan per trial, entirely as array operations over
a ``(trials, nodes)`` state machine:

1. the fault RNG is evaluated in bulk (:func:`~repro.simulator.faults.
   uniform_array` — the vectorized SplitMix64 kernel, bit-identical per
   key to the engine's scalar draws);
2. the hardened protocol's deterministic control flow — max-ID flooding,
   :class:`~repro.congest.hardened.PhaseSchedule` timers, the
   :class:`~repro.congest.hardened.RetryPolicy` ack/retransmit ladders,
   stop-and-wait token transfer with give-up shortfall accounting, vote
   fold deadlines and the verdict broadcast — is replayed round by round
   on integer arrays, no node objects;
3. verdicts and agreement are then one gather + sort + threshold pass
   per batch of driver doubles over the realised per-trial package
   membership (:func:`repro.zeroround.network.grouped_collision`).

Fault-replay validity contract
------------------------------
The replay is **bit-identical to the engine per (plan, sample seed)**.
That guarantee rests on properties of the hardened protocol and the
fault model which the replay checks or requires:

- *Keyed draws.*  Drop decisions are pure functions of ``(seed, src,
  dst, round, index)`` — no stream consumption — so the replay can
  evaluate exactly the draws the engine would, in any order.  Frames
  merge all subframes per directed edge per round, so ``index`` is
  always 0.
- *Payload independence.*  No fault draw and no control-flow branch
  reads a token value; only package membership depends on the samples.
- *No delivery delays.*  Plans carrying a ``DelayDistribution`` are
  rejected (:class:`~repro.exceptions.ParameterError`): delayed frames
  reorder inbox processing in ways the batched state machine does not
  model.  Route those plans through the engine.
- *Crash horizon.*  Crash rounds must fall in ``[0, tokens_end]`` (or
  beyond ``decide_end``, i.e. never take effect): a node crashed by
  ``tokens_end`` produces no outcome, and a never-crashed node always
  halts, so "has an outcome" reduces to "never crashed".  Crashes
  during the vote/decide windows make outcome existence depend on exact
  halt rounds (which depend on ack traffic the replay elides) and are
  rejected.  E14's sweep crashes within ``[1, count_end]``.
- *The engine stays the measurement of record* for rounds, delivered
  bits and drop counts; the plane replays verdicts and the degradation
  counters (``shortfall`` / ``missing_subtrees`` / ``unheard`` /
  ``agreement``) and is cross-checked against engine runs via the
  ``engine_check`` pattern (:func:`ReplayedTrials.check_against_engine`
  raises :class:`~repro.exceptions.SimulationError` on any divergence).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.congest.hardened import (
    HardenedCongestTester,
    HardenedRunResult,
    PhaseSchedule,
)
from repro.distributions.base import DiscreteDistribution
from repro.exceptions import (
    InfeasibleParametersError,
    ParameterError,
    SimulationError,
)
from repro.simulator.faults import _SALT_DROP, FaultPlan, uniform_array
from repro.simulator.graph import Topology
from repro.zeroround.network import grouped_collision, seed_drivers

_NEVER = 1 << 30  # crash round for "never crashes"
_BIG = 1 << 30  # "not yet" round sentinel
_F = 1 << 21  # flood key field width (21 bits each for dist/src)


def _require_replayable(
    plans: Sequence[FaultPlan], k: int, schedule: PhaseSchedule
) -> Tuple[np.ndarray, np.ndarray, List[Optional[Dict]]]:
    """Validate the plan batch; returns (seeds, crash rounds, overrides).

    Raises :class:`ParameterError` when a plan violates the validity
    contract (delay distribution, or a crash round inside the
    vote/decide windows — see the module docstring).
    """
    if not plans:
        raise ParameterError("fault-plane replay needs at least one plan")
    T = len(plans)
    seeds = np.zeros(T, dtype=np.uint64)
    crash = np.full((T, k), _NEVER, dtype=np.int64)
    overrides: List[Optional[Dict]] = [None] * T
    for t, plan in enumerate(plans):
        if plan.delay is not None and plan.delay.outcomes:
            raise ParameterError(
                "fault-plane replay does not model delivery delays; run "
                "delayed plans through the engine (see the fault-replay "
                "validity contract)"
            )
        seeds[t] = plan.seed & ((1 << 64) - 1)
        for node, round_ in plan.crashes.items():
            if not 0 <= node < k:
                raise ParameterError(
                    f"crash schedule names node {node}, k={k}"
                )
            if schedule.tokens_end < round_ <= schedule.decide_end:
                raise ParameterError(
                    f"crash round {round_} for node {node} falls in the "
                    f"vote/decide windows ({schedule.tokens_end}, "
                    f"{schedule.decide_end}]; the fault-plane replay only "
                    f"supports crashes by tokens_end (or never)"
                )
            if round_ <= schedule.tokens_end:
                crash[t, node] = round_
        if plan.edge_drop:
            overrides[t] = dict(plan.edge_drop)
    return seeds, crash, overrides


@dataclass(eq=False)
class ReplayedTrials:
    """Per-trial realised layout + degradation counters for a plan batch.

    One row per trial; the sample-independent outputs of the replay.
    ``members``/``pkg_trial``/``pkg_root`` describe every *counted*
    package (reached a live fragment root's verdict) across the batch:
    ``members[p]`` lists its ``τ`` token slots (flat ``(k·s)`` indices),
    owned by trial ``pkg_trial[p]`` and thresholded by fragment root
    ``pkg_root[p]``.  ``threshold[t, v]`` is the Theorem 1.2 threshold
    fragment root ``v`` places (−1 = reject always: zero packages or no
    separating threshold; −2 = not a live fragment root).
    """

    k: int
    tau: int
    tokens_per_node: int
    trials: int
    alive: np.ndarray  # (T, k) bool — node produced an outcome
    frag_root: np.ndarray  # (T, k) — root of each node's parent chain
    is_frag_root: np.ndarray  # (T, k) bool — alive and parent-less
    heard: np.ndarray  # (T, k) bool — received the verdict broadcast
    threshold: np.ndarray  # (T, k) int64
    members: np.ndarray  # (P, tau) int64 slot ids
    pkg_trial: np.ndarray  # (P,)
    pkg_root: np.ndarray  # (P,)
    shortfall: np.ndarray  # (T,) int64
    missing_subtrees: np.ndarray  # (T,) int64
    unheard: np.ndarray  # (T,) int64

    @property
    def total_tokens(self) -> int:
        return self.k * self.tokens_per_node

    @property
    def root_alive(self) -> np.ndarray:
        """(T,) — whether the elected root ``k−1`` survived to decide."""
        return self.alive[:, self.k - 1]

    # -- sample-dependent scoring --------------------------------------

    def score_uniform(
        self, u: np.ndarray, distribution: DiscreteDistribution
    ) -> "FaultPlaneScore":
        """Verdicts + agreement for one ``(T, k·s)`` batch of driver doubles.

        Row ``t`` must hold the ``U[0, 1)`` draws behind the samples trial
        ``t``'s engine run would draw; the result then matches
        ``tester.run(...)`` bit for bit: ``verdicts[t]`` is the elected
        root's decision (``None`` if it crashed) and ``agreement[t]`` the
        fraction of surviving nodes agreeing with it.
        """
        with telemetry.span("fault_plane.score", trials=self.trials):
            T, k = self.trials, self.k
            u = np.asarray(u)
            if u.shape != (T, self.total_tokens):
                raise ParameterError(
                    f"expected a ({T}, {self.total_tokens}) sample batch, got "
                    f"{u.shape}"
                )
            alarms = np.zeros((T, k), dtype=np.int64)
            slots = self.pkg_trial[:, None] * self.total_tokens + self.members
            flagged = grouped_collision(u.reshape(-1), slots, distribution)
            np.add.at(alarms, (self.pkg_trial, self.pkg_root), flagged)
            # The Theorem 1.2 threshold rule, written out here rather
            # than taken from repro.zeroround.decision: each (trial,
            # fragment root) places its own threshold, and the -1
            # (reject always) / -2 (not a live fragment root) sentinels
            # are no ThresholdRule.
            decides = (self.threshold >= 0) & (alarms < self.threshold)
            root = k - 1
            verdicts: List[Optional[bool]] = [
                bool(decides[t, root]) if self.alive[t, root] else None
                for t in range(T)
            ]
            # Per-node decisions: own verdict at fragment roots, the chain
            # root's verdict where the broadcast arrived, default-reject
            # (False) where it never did.
            rows = np.arange(T)[:, None]
            node_dec = np.where(
                self.is_frag_root | self.heard,
                decides[rows, self.frag_root],
                False,
            )
            n_alive = self.alive.sum(axis=1)
            agree = (
                (node_dec == decides[:, root][:, None]) & self.alive
            ).sum(axis=1)
            agreement = np.where(
                self.alive[:, root] & (n_alive > 0),
                agree / np.maximum(n_alive, 1),
                0.0,
            )
            return FaultPlaneScore(
                verdicts=verdicts, agreement=agreement, alarms=alarms
            )

    def check_against_engine(
        self,
        index: int,
        result: HardenedRunResult,
        verdict: Optional[bool],
        agreement: float,
    ) -> None:
        """Cross-check trial ``index`` against its engine run.

        ``verdict``/``agreement`` are the replay's sample-dependent
        outputs for the same trial (from :meth:`score_uniform`); the counters
        compared here are sample-independent.  Raises
        :class:`SimulationError` on any divergence — the bit-identity
        contract is broken and no fast-path numbers can be trusted.
        """
        mismatches = []
        if result.verdict is not verdict:
            mismatches.append(
                f"verdict engine={result.verdict} replay={verdict}"
            )
        if result.agreement != agreement:
            mismatches.append(
                f"agreement engine={result.agreement} replay={agreement}"
            )
        for name, engine_value, replay_value in (
            ("shortfall", result.shortfall, int(self.shortfall[index])),
            (
                "missing_subtrees",
                result.missing_subtrees,
                int(self.missing_subtrees[index]),
            ),
            ("unheard", result.unheard, int(self.unheard[index])),
        ):
            if engine_value != replay_value:
                mismatches.append(
                    f"{name} engine={engine_value} replay={replay_value}"
                )
        if mismatches:
            raise SimulationError(
                f"fault-plane replay diverges from the engine at trial "
                f"{index}: {'; '.join(mismatches)} — bit-identity "
                f"contract broken"
            )


@dataclass(frozen=True, eq=False)
class FaultPlaneScore:
    """Sample-dependent outputs of :meth:`ReplayedTrials.score_uniform`."""

    verdicts: List[Optional[bool]]
    agreement: np.ndarray
    alarms: np.ndarray


# ---------------------------------------------------------------------------
# The batched state machine
# ---------------------------------------------------------------------------


def _flood(
    topology: Topology,
    seeds: np.ndarray,
    crash: np.ndarray,
    prob_edge: np.ndarray,
    flood_end: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay max-ID flooding; returns (parent, dist), each ``(T, k)``.

    Node state ``(best, dist, parent)`` is packed into one monotone
    int64 key — ``best`` (bits 42+), then ``F−1−dist`` (bits 21..41),
    then ``F−1−(src+1)`` (bits 0..20) — whose ordering is exactly the
    engine's adoption preference: higher best wins, then smaller
    distance, then smaller sender.  A never-adopted node carries the
    src-field ``F−1`` (parent −1), which outranks every equal-best
    candidate; that is safe because its distance is 0 and every
    candidate's is ≥ 1, so a tie the src-field would have to break
    cannot occur — reproducing the ``parent is None`` guard in
    ``_adopt``.  Sequential inbox processing equals a max over
    candidates because the preference is a total order and candidates
    are built from sender states frozen at the previous round.
    """
    T = len(seeds)
    k = topology.k
    esrc, edst = [], []
    for u, v in topology.edges():
        esrc += [u, v]
        edst += [v, u]
    esrc = np.asarray(esrc, dtype=np.int64)
    edst = np.asarray(edst, dtype=np.int64)
    rounds = np.arange(1, flood_end + 1, dtype=np.int64)
    u = uniform_array(
        seeds[:, None, None],
        esrc[None, :, None],
        edst[None, :, None],
        rounds[None, None, :],
        0,
        _SALT_DROP,
    )
    dropped = (prob_edge[:, :, None] > 0.0) & (u < prob_edge[:, :, None])
    key = (
        (np.arange(k, dtype=np.int64) << 42)
        | ((_F - 1) << 21)
        | np.int64(_F - 1)
    )
    key = np.broadcast_to(key, (T, k)).copy()
    flat = key.reshape(-1)
    scatter = np.arange(T)[:, None] * k + edst[None, :]
    for r in range(1, flood_end + 1):
        best = key >> 42
        dist = (_F - 1) - ((key >> 21) & (_F - 1))
        sb = best[:, esrc]
        nd = dist[:, esrc] + 1
        cand = (sb << 42) | ((_F - 1 - nd) << 21) | (_F - 2 - esrc)[None, :]
        ok = (
            (crash[:, esrc] > r - 1)
            & (crash[:, edst] > r)
            & ~dropped[:, :, r - 1]
        )
        np.maximum.at(flat, scatter[ok], cand[ok])
        key = flat.reshape(T, k)
    best = key >> 42
    dist = (_F - 1) - ((key >> 21) & (_F - 1))
    parent = (_F - 2) - (key & (_F - 1))
    return parent.astype(np.int64), dist.astype(np.int64)


def replay_hardened_trials(
    tester: HardenedCongestTester,
    topology: Topology,
    plans: Sequence[FaultPlan],
    d_hint: Optional[int] = None,
) -> ReplayedTrials:
    """Replay one hardened trial per plan, engine-free, bit-identically.

    Validates every plan against the fault-replay validity contract
    (module docstring), then runs the batched ``(T, k)`` state machine:
    flooding, claim/count/vote retry ladders as fixed arithmetic
    attempt schedules (sound because acks only suppress retransmits of
    idempotent registrations — see ``docs/writing_protocols.md``),
    faithful stop-and-wait token transfer (acks are load-bearing there:
    they pace the window and define ``transferred``), packaging,
    fragment closure and the verdict broadcast.  Internally
    cross-checks the vote closure against each fragment root's folded
    package total and raises :class:`SimulationError` on mismatch.
    """
    with telemetry.span(
        "fault_plane.replay", trials=len(plans), k=topology.k
    ) as sp:
        replayed = _replay_hardened_trials(tester, topology, plans, d_hint)
        sp.count("packages", int(replayed.members.shape[0]))
        sp.count("crashed_roots", int((~replayed.root_alive).sum()))
        return replayed


def _replay_hardened_trials(
    tester: HardenedCongestTester,
    topology: Topology,
    plans: Sequence[FaultPlan],
    d_hint: Optional[int] = None,
) -> ReplayedTrials:
    if topology.k != tester.params.k:
        raise ParameterError(
            f"tester solved for k={tester.params.k}, topology has "
            f"{topology.k}"
        )
    k = topology.k
    tau = tester.params.tau
    s = tester.params.samples_per_node
    if d_hint is None:
        d_hint = topology.diameter_upper_bound()
    sch = PhaseSchedule.build(d_hint, tau, tester.policy)
    pol = tester.policy
    to, A = pol.timeout, pol.attempts
    seeds, crash, overrides = _require_replayable(plans, k, sch)
    T = len(plans)

    # Per-trial per-directed-edge drop probabilities for the flood.
    esrc, edst = [], []
    for uu, vv in topology.edges():
        esrc += [uu, vv]
        edst += [vv, uu]
    esrc_a = np.asarray(esrc, dtype=np.int64)
    edst_a = np.asarray(edst, dtype=np.int64)
    prob_edge = np.repeat(
        np.asarray([p.drop_prob for p in plans], dtype=np.float64)[:, None],
        len(esrc_a),
        axis=1,
    )
    for t, ov in enumerate(overrides):
        if ov:
            for e in range(len(esrc_a)):
                prob_edge[t, e] = plans[t].drop_probability(
                    int(esrc_a[e]), int(edst_a[e])
                )

    F = sch.flood_end
    with telemetry.span("fault_plane.flood", rounds=F, trials=T):
        parent, dist = _flood(topology, seeds, crash, prob_edge, F)
    par_valid = parent >= 0
    par = np.where(par_valid, parent, np.arange(k)[None, :])

    # Tree-edge drop masks.  Upward frames (claims, counts, tokens,
    # votes) end with the last vote retry; downward frames (acks, the
    # verdict broadcast) run to decide_end.  Uniforms are only drawn
    # for (trial, node) rows that can actually drop — a tree edge with
    # positive probability — mirroring the scalar ``should_drop``
    # short-circuit and skipping fault-free/crash-only trials entirely.
    r0 = F + 1
    up_end = sch.vote_last_call + (A - 1) * to + 1
    rounds_up = np.arange(r0, up_end + 1, dtype=np.int64)
    rounds_dn = np.arange(r0, sch.decide_end + 1, dtype=np.int64)
    nodes = np.arange(k, dtype=np.int64)
    prob_up = np.repeat(
        np.asarray([p.drop_prob for p in plans], dtype=np.float64)[:, None],
        k,
        axis=1,
    )
    prob_dn = prob_up.copy()
    for t, ov in enumerate(overrides):
        if ov:
            for c in range(k):
                prob_up[t, c] = plans[t].drop_probability(c, int(par[t, c]))
                prob_dn[t, c] = plans[t].drop_probability(int(par[t, c]), c)
    drop_up = np.zeros((T, k, len(rounds_up)), dtype=bool)
    lossy = (prob_up > 0.0) & par_valid
    if lossy.any():
        tv, cv = np.nonzero(lossy)
        u = uniform_array(
            seeds[tv][:, None],
            cv[:, None],
            par[tv, cv][:, None],
            rounds_up[None, :],
            0,
            _SALT_DROP,
        )
        drop_up[tv, cv] = u < prob_up[tv, cv][:, None]
    drop_dn = np.zeros((T, k, len(rounds_dn)), dtype=bool)
    lossy = (prob_dn > 0.0) & par_valid
    if lossy.any():
        tv, cv = np.nonzero(lossy)
        u = uniform_array(
            seeds[tv][:, None],
            par[tv, cv][:, None],
            cv[:, None],
            rounds_dn[None, :],
            0,
            _SALT_DROP,
        )
        drop_dn[tv, cv] = u < prob_dn[tv, cv][:, None]
    crash_par = crash[np.arange(T)[:, None], par]

    # Claim registrations: fixed attempt schedule, precomputed.
    claim_reg = np.full((T, k), _BIG, dtype=np.int64)
    for i in range(A - 1, -1, -1):
        sr = F + i * to  # send round; delivery at sr + 1
        ok = (
            par_valid
            & (crash > sr)
            & (crash_par > sr + 1)
            & ~drop_up[:, :, sr + 1 - r0]
        )
        claim_reg[ok] = sr + 1

    # -- mutable (T, k) state ------------------------------------------
    registered = np.zeros((T, k), dtype=bool)
    wait_count = np.zeros((T, k), dtype=np.int64)  # registered, count pending
    wait_vote = np.zeros((T, k), dtype=np.int64)  # registered, vote pending
    count_rec = np.zeros((T, k), dtype=bool)
    sum_counts = np.zeros((T, k), dtype=np.int64)
    count_fold_r = np.full((T, k), _BIG, dtype=np.int64)
    c_value = np.zeros((T, k), dtype=np.int64)
    # Token machinery.
    buf_cap = s + max(topology.degree(v) for v in range(k)) * tau
    buf = np.zeros((T, k, buf_cap), dtype=np.int64)
    buf[:, :, :s] = (
        nodes[None, :, None] * s + np.arange(s, dtype=np.int64)[None, None, :]
    )
    head = np.zeros((T, k), dtype=np.int64)
    tail = np.full((T, k), s, dtype=np.int64)
    transferred = np.zeros((T, k), dtype=np.int64)
    given_up = np.zeros((T, k), dtype=np.int64)
    out_seq = np.zeros((T, k), dtype=np.int64)
    o_seq = np.full((T, k), -1, dtype=np.int64)  # outstanding seq (-1 none)
    o_slot = np.zeros((T, k), dtype=np.int64)
    tok_att = np.zeros((T, k), dtype=np.int64)
    tok_last = np.full((T, k), -_BIG, dtype=np.int64)
    seen = np.zeros((T, k, tau + 1), dtype=bool)
    tok_frame = np.zeros((T, k), dtype=bool)  # token in flight, sent last round
    fl_seq = np.zeros((T, k), dtype=np.int64)
    fl_slot = np.zeros((T, k), dtype=np.int64)
    ack_pend = np.full((T, k), -1, dtype=np.int64)  # parent->child ack payload
    packaged = np.zeros((T, k), dtype=bool)
    shortfall = np.zeros((T, k), dtype=np.int64)
    my_pkgs = np.zeros((T, k), dtype=np.int64)
    # Vote / decide machinery.
    vote_rec = np.zeros((T, k), dtype=bool)
    vote_inc = np.zeros((T, k), dtype=bool)  # vote folded into parent's
    sum_vote_pkg = np.zeros((T, k), dtype=np.int64)
    vote_fold_r = np.full((T, k), _BIG, dtype=np.int64)
    vote_pkg_val = np.zeros((T, k), dtype=np.int64)
    missing_vote = np.zeros((T, k), dtype=np.int64)
    dec_round = np.full((T, k), _BIG, dtype=np.int64)
    dec_snap = np.zeros((T, k), dtype=bool)
    pending = np.zeros((T, k), dtype=bool)
    heard = np.zeros((T, k), dtype=bool)
    trial_rows = np.arange(T)[:, None]

    def register(tv: np.ndarray, cv: np.ndarray) -> None:
        """First upward subframe from child ``cv`` registers it."""
        fresh = ~registered[tv, cv]
        tv, cv = tv[fresh], cv[fresh]
        if not len(tv):
            return
        registered[tv, cv] = True
        pv = par[tv, cv]
        np.add.at(wait_count, (tv, pv), ~count_rec[tv, cv])
        np.add.at(wait_vote, (tv, pv), ~vote_rec[tv, cv])

    for r in range(F + 1, sch.decide_end + 1):
        ri = r - r0
        # ---- deliveries of frames sent at r - 1 (handlers) ----
        if r <= F + (A - 1) * to + 1:
            tv, cv = np.nonzero(claim_reg == r)
            register(tv, cv)
        if sch.child_end < r <= sch.count_last_call + (A - 1) * to + 1:
            age = (r - 1) - count_fold_r
            deliv = (
                par_valid
                & (age >= 0)
                & (age % to == 0)
                & (age < A * to)
                & (crash > r - 1)
                & (crash_par > r)
                & ~drop_up[:, :, ri]
            )
            tv, cv = np.nonzero(deliv)
            if len(tv):
                register(tv, cv)
                fresh = ~count_rec[tv, cv]
                tv, cv = tv[fresh], cv[fresh]
                if len(tv):
                    count_rec[tv, cv] = True
                    pv = par[tv, cv]
                    np.add.at(wait_count, (tv, pv), -1)
                    np.add.at(sum_counts, (tv, pv), c_value[tv, cv])
        if sch.child_end + 1 < r <= sch.tokens_end:
            # Token acks (parent -> child), sent at receipt round r - 1.
            deliv = (
                (ack_pend >= 0) & (crash > r) & ~drop_dn[:, :, ri]
            )
            hit = deliv & (o_seq == ack_pend)
            transferred[hit] += 1
            out_seq[hit] += 1
            o_seq[hit] = -1
        new_ack = np.full((T, k), -1, dtype=np.int64)
        if sch.child_end < r <= sch.tokens_end:
            # Token frames (child -> parent), payload captured at send.
            deliv = (
                tok_frame
                & (crash_par > r)
                & ~drop_up[:, :, ri]
            )
            tv, cv = np.nonzero(deliv)
            if len(tv):
                register(tv, cv)
                seqs = fl_seq[tv, cv]
                new_ack[tv, cv] = seqs
                fresh = ~seen[tv, cv, seqs]
                seen[tv, cv, seqs] = True
                tv, cv, sl = tv[fresh], cv[fresh], fl_slot[tv, cv][fresh]
                if len(tv):
                    pv = par[tv, cv]
                    # Engine inbox order: ascending sender within a round.
                    order = np.lexsort((cv, pv, tv))
                    tvs, pvs, sls = tv[order], pv[order], sl[order]
                    g = tvs * k + pvs
                    startmask = np.empty(len(g), dtype=bool)
                    startmask[0] = True
                    startmask[1:] = g[1:] != g[:-1]
                    gstart = np.flatnonzero(startmask)
                    gsize = np.diff(np.append(gstart, len(g)))
                    rank = np.arange(len(g)) - np.repeat(gstart, gsize)
                    buf[tvs, pvs, tail[tvs, pvs] + rank] = sls
                    np.add.at(tail, (tvs, pvs), 1)
        tok_frame[:] = False
        ack_pend = new_ack
        if sch.tokens_end < r <= sch.vote_last_call + (A - 1) * to + 1:
            age = (r - 1) - vote_fold_r
            deliv = (
                par_valid
                & (age >= 0)
                & (age % to == 0)
                & (age < A * to)
                & (crash > r - 1)
                & (crash_par > r)
                & ~drop_up[:, :, ri]
            )
            tv, cv = np.nonzero(deliv)
            if len(tv):
                register(tv, cv)
                fresh = ~vote_rec[tv, cv]
                tv, cv = tv[fresh], cv[fresh]
                if len(tv):
                    vote_rec[tv, cv] = True
                    pv = par[tv, cv]
                    np.add.at(wait_vote, (tv, pv), -1)
                    np.add.at(sum_vote_pkg, (tv, pv), vote_pkg_val[tv, cv])
                    # Included iff recorded before the parent's fold.
                    vote_inc[tv, cv] = vote_fold_r[tv, pv] > r
        if r > sch.tokens_end:
            page = (r - 1) - dec_round[trial_rows, par]
            deliv = (
                par_valid
                & pending
                & (dec_round == _BIG)
                & (page >= 0)
                & (page % to == 0)
                & (page < A * to)
                & (crash_par > r - 1)
                & (crash > r)
                & ~drop_dn[:, :, ri]
            )
            dec_round[deliv] = r
            heard |= deliv
        # ---- ticks (timers), alive nodes only ----
        alive_r = crash > r
        if sch.child_end <= r <= sch.count_last_call:
            fold = (
                alive_r
                & (count_fold_r == _BIG)
                & ((wait_count == 0) | (r >= sch.count_last_call))
            )
            count_fold_r[fold] = r
            c_value[fold] = (s + sum_counts[fold]) % tau
        if sch.child_end <= r < sch.tokens_end:
            active = alive_r & (count_fold_r <= r) & ~packaged
            # Retransmit or give up on the outstanding token.
            due = active & (o_seq >= 0) & (r - tok_last >= to)
            retry = due & (tok_att < A)
            tok_frame[retry] = True
            fl_seq[retry] = o_seq[retry]
            fl_slot[retry] = o_slot[retry]
            tok_att[retry] += 1
            tok_last[retry] = r
            quit_ = due & ~retry
            given_up[quit_] += 1
            o_seq[quit_] = -1
            out_seq[quit_] += 1
            owed = c_value - transferred - given_up
            # Roots drain owed tokens into the discard bin as they arrive.
            drain = np.where(
                active & ~par_valid,
                np.minimum(np.maximum(owed, 0), tail - head),
                0,
            )
            head += drain
            transferred += drain
            # Non-roots start the next stop-and-wait transfer.
            start = (
                active
                & par_valid
                & (o_seq < 0)
                & (owed > 0)
                & (tail > head)
            )
            tv, cv = np.nonzero(start)
            if len(tv):
                sl = buf[tv, cv, head[tv, cv]]
                head[tv, cv] += 1
                o_seq[tv, cv] = out_seq[tv, cv]
                o_slot[tv, cv] = sl
                tok_frame[tv, cv] = True
                fl_seq[tv, cv] = out_seq[tv, cv]
                fl_slot[tv, cv] = sl
                tok_att[tv, cv] = 1
                tok_last[tv, cv] = r
        if r == sch.tokens_end:
            pack = alive_r & (count_fold_r <= r) & ~packaged
            lost = pack & (o_seq >= 0)
            given_up[lost] += 1
            o_seq[lost] = -1
            shortfall[pack] = np.maximum(
                0, (c_value - transferred)[pack]
            )
            my_pkgs[pack] = (tail - head)[pack] // tau
            packaged |= pack
        if sch.tokens_end <= r <= sch.vote_last_call:
            fold = (
                alive_r
                & packaged
                & (vote_fold_r == _BIG)
                & ((wait_vote == 0) | (r >= sch.vote_last_call))
            )
            vote_fold_r[fold] = r
            missing_vote[fold] = wait_vote[fold]
            vote_pkg_val[fold] = (my_pkgs + sum_vote_pkg)[fold]
            root_fold = fold & ~par_valid
            dec_round[root_fold] = r
            heard |= root_fold
        if r >= sch.tokens_end:
            newdec = alive_r & (dec_round <= r) & ~dec_snap
            if newdec.any():
                pending |= registered & newdec[trial_rows, par] & par_valid
                dec_snap |= newdec
    # ---- post-loop aggregation ----
    alive = crash == _NEVER
    unheard_nodes = alive & (dec_round == _BIG)
    is_frag_root = alive & ~par_valid
    # Parent-pointer chains are acyclic ((best, -dist) strictly increases
    # along them), so pointer doubling converges in ceil(log2 k) + 1 hops.
    frag = par.copy()
    for _ in range(max(1, k).bit_length() + 1):
        nxt = frag[trial_rows, frag]
        if np.array_equal(nxt, frag):
            break
        frag = nxt
    # Counted closure: every vote_inc link on the path to a live root.
    counted = is_frag_root.copy()
    for _ in range(k):
        nxt = counted | (vote_inc & counted[trial_rows, par])
        if np.array_equal(nxt, counted):
            break
        counted = nxt
    # Closure must reproduce each fragment root's folded package total.
    ell = np.zeros((T, k), dtype=np.int64)
    tv, cv = np.nonzero(counted)
    np.add.at(ell, (tv, frag[tv, cv]), my_pkgs[tv, cv])
    roots_t, roots_v = np.nonzero(is_frag_root)
    bad = ell[roots_t, roots_v] != vote_pkg_val[roots_t, roots_v]
    if bad.any():
        b = int(np.flatnonzero(bad)[0])
        raise SimulationError(
            f"fault-plane closure found {int(ell[roots_t[b], roots_v[b]])} "
            f"packages for fragment root {int(roots_v[b])} of trial "
            f"{int(roots_t[b])} but its fold counted "
            f"{int(vote_pkg_val[roots_t[b], roots_v[b]])} — replay and "
            f"protocol disagree"
        )
    # Counted package membership, node-major, buffer order.
    tv, cv = np.nonzero(counted & (my_pkgs > 0))
    npkg = my_pkgs[tv, cv]
    counts = npkg * tau
    offsets = np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    rep_t = np.repeat(tv, counts)
    rep_v = np.repeat(cv, counts)
    slots = buf[rep_t, rep_v, head[rep_t, rep_v] + offsets]
    members = slots.reshape(-1, tau)
    pkg_trial = np.repeat(tv, npkg)
    pkg_owner = np.repeat(cv, npkg)
    pkg_root = frag[pkg_trial, pkg_owner]
    # Per-fragment-root thresholds (lru-cached solve per distinct ell).
    threshold = np.full((T, k), -2, dtype=np.int64)
    for t, v in zip(roots_t.tolist(), roots_v.tolist()):
        l = int(vote_pkg_val[t, v])
        if l == 0:
            threshold[t, v] = -1
            continue
        try:
            threshold[t, v] = tester.params.threshold_for(l)
        except InfeasibleParametersError:
            threshold[t, v] = -1
    members.setflags(write=False)
    return ReplayedTrials(
        k=k,
        tau=tau,
        tokens_per_node=s,
        trials=T,
        alive=alive,
        frag_root=frag,
        is_frag_root=is_frag_root,
        heard=heard,
        threshold=threshold,
        members=members,
        pkg_trial=pkg_trial,
        pkg_root=pkg_root,
        shortfall=(shortfall * alive).sum(axis=1),
        missing_subtrees=(missing_vote * alive).sum(axis=1),
        unheard=unheard_nodes.sum(axis=1),
    )


@dataclass(frozen=True, eq=False)
class HardenedFaultPlane:
    """Per-trial-keyed fault sweeps off the engine: build once, score
    any sample batch.

    ``build`` validates and replays one hardened trial per plan;
    :meth:`score_seeds` then reproduces ``tester.run(topology, dist,
    rng=seed, faults=plans[i])`` for every column ``i`` — verdict and
    agreement bit-identical per seed, plus the sample-independent
    degradation counters on :attr:`trials`.
    """

    tester: HardenedCongestTester
    topology: Topology
    plans: Tuple[FaultPlan, ...]
    trials: ReplayedTrials
    d_hint: Optional[int] = None

    @staticmethod
    def build(
        tester: HardenedCongestTester,
        topology: Topology,
        plans: Sequence[FaultPlan],
        d_hint: Optional[int] = None,
    ) -> "HardenedFaultPlane":
        with telemetry.span("fault_plane.build", trials=len(plans)):
            replayed = replay_hardened_trials(
                tester, topology, plans, d_hint=d_hint
            )
        return HardenedFaultPlane(
            tester=tester,
            topology=topology,
            plans=tuple(plans),
            trials=replayed,
            d_hint=d_hint,
        )

    def score_seeds(
        self, distribution: DiscreteDistribution, seeds: Sequence[int]
    ) -> FaultPlaneScore:
        """Score trial ``i`` on the samples ``ensure_rng(seeds[i])``
        draws — exactly the engine path's ``sample_matrix(k, s)``
        stream, drawn as driver doubles, so the verdicts match
        ``tester.run`` per seed.  A seed listed for several plans is
        drawn once."""
        if len(seeds) != self.trials.trials:
            raise ParameterError(
                f"need one seed per plan: {len(seeds)} seeds, "
                f"{self.trials.trials} plans"
            )
        total = self.trials.total_tokens
        row = {sd: i for i, sd in enumerate(dict.fromkeys(seeds))}
        with telemetry.span(
            "fault_plane.draw", trials=len(seeds)
        ) as sp:
            u = seed_drivers(distribution, total, list(row))
            sp.count("tokens", total * len(row))
        return self.trials.score_uniform(
            u[[row[sd] for sd in seeds]], distribution
        )
