"""Assemble EXPERIMENTS.md from the benchmark result tables.

Run the benchmark suite first (it writes ``benchmarks/results/*.txt``),
then:  ``python tools/collect_experiments.py``

Each section pairs the paper's claim with the measured table and the
reproduction verdict encoded in the benchmark's assertions (a table is
only written after its assertions passed).  Every speedup the sections
quote, and the README's speedup table, is rendered from a field of the
committed ``BENCH_*.json`` payloads; ``tests/test_docs.py`` checks that
both documents match.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"


def _payload(name: str) -> dict:
    return json.loads((ROOT / f"BENCH_{name}.json").read_text())


def _ms(ms: float) -> str:
    """Milliseconds to three significant figures (one decimal from 10)."""
    if ms >= 10:
        return f"{ms:.1f}"
    return f"{ms:.{2 - math.floor(math.log10(ms))}f}"


def _x(ratio: float) -> str:
    """A speedup ratio: whole numbers from 100, else three figures."""
    return f"{ratio:.0f}×" if ratio >= 100 else f"{ratio:.3g}×"


def _per_trial(entry: dict, key: str) -> str:
    """``entry[key]`` seconds per trial (and per sweep, if any), in ms."""
    trials = entry["trials"] * entry.get("sweeps", 1)
    return _ms(1000.0 * entry[key] / trials)


_PROTOCOL, _SMP = _payload("protocol"), _payload("smp")
E6, PLANE = _PROTOCOL["e6_tester"], _PROTOCOL["e6_trial_plane"]
LOCAL = _PROTOCOL["e7_local_plane"]
FAULT = _payload("robustness")["fault_plane"]
TORUS, BCG = _SMP["e17_torus"], _SMP["e17_bcg"]
BATCHED = _payload("trials")["speedup_batched"]


def speedup_table() -> str:
    """The README's speedup table, every number a payload field."""
    rows = [
        ("legacy engine (pre-fast-path loop), cold",
         _per_trial(E6, "legacy_seconds"), "1.0×"),
        ("slim engine, cold", _per_trial(E6, "cold_seconds"),
         _x(E6["speedup_cold"])),
        ("slim engine, warm-started", _per_trial(E6, "warm_seconds"),
         _x(E6["speedup_warm"])),
        ("**trial plane** (layout replay, batched kernels)",
         f"**{_per_trial(PLANE, 'fast_seconds')}** vs "
         f"{_per_trial(PLANE, 'warm_engine_seconds')} warm engine",
         f"**{_x(PLANE['speedup_vs_warm'])}** vs warm"),
        ("**fault plane** (E14 faulty grid, per-trial-keyed plans)",
         f"**{_ms(FAULT['fast_ms_per_trial'])}** vs "
         f"{_ms(FAULT['engine_ms_per_trial'])} engine",
         f"**{_x(FAULT['speedup'])}**"),
        ("**local plane** (E7 LOCAL workload, ring(4096), r=64)",
         f"**{_per_trial(LOCAL, 'fast_seconds')}** vs "
         f"{_per_trial(LOCAL, 'scalar_seconds')} scalar",
         f"**{_x(LOCAL['speedup_vs_scalar'])}**"),
        ("**smp plane** (E17 SMP workload, torus)",
         f"**{_per_trial(TORUS, 'fast_seconds')}** vs "
         f"{_per_trial(TORUS, 'scalar_seconds')} scalar",
         f"**{_x(TORUS['speedup_vs_scalar'])}**"),
        ("**smp plane** (E17 SMP workload, BCG reduction)",
         f"**{_per_trial(BCG, 'fast_seconds')}** vs "
         f"{_per_trial(BCG, 'scalar_seconds')} scalar",
         f"**{_x(BCG['speedup_vs_scalar'])}**"),
    ]
    lines = [
        f"| E6 error-rate trial (n={E6['n']}, k={E6['k']}, {E6['topology']})"
        " | ms/trial | speedup |",
        "|---|---|---|",
    ]
    lines += [f"| {name} | {ms} | {speedup} |" for name, ms, speedup in rows]
    return "\n".join(lines) + "\n"


#: Sentences of README.md outside the table that quote a payload field.
README_QUOTES = (
    f"batched path runs {_x(BATCHED)} faster than the serial loop",
)

#: Experiment sections: (id, paper claim, result files, expected shape).
SECTIONS = [
    (
        "E1 — The single-collision gap tester (Theorem 3.1, Lemma 3.4)",
        "A tester drawing s with s(s−1)=2δn and accepting iff all samples are "
        "distinct rejects the uniform distribution w.p. ≤ δ and any ε-far "
        "distribution w.p. ≥ (1+γε²)δ, with γ the explicit Eq. (1) slack.",
        ["e1_gap_tester"],
        "Measured rejection probabilities bracket δ and (1+γε²)δ on both the "
        "worst-case (Paninski) and bulk (two-bump) families; all assertions "
        "at 4σ Monte-Carlo margins.",
    ),
    (
        "E2 — 0-round testing, AND rule (Theorem 1.1)",
        "Network error ≤ p with s = Θ((C_p/ε²)·√(n/k^{Θ(ε²/C_p)})) samples "
        "per node; k helps only through a tiny exponent.",
        ["e2_and_rule"],
        "Both error sides within budget at every k; a 16× larger network "
        "saves < 3× samples — the AND rule's amplification-hostility. Note "
        "the construction is *infeasible* for small k at p = 1/3 (the weak "
        "collision signal cannot reach constant per-node rejection), exactly "
        "the regime restriction the paper states.",
    ),
    (
        "E3 — 0-round testing, threshold rule (Theorem 1.2)",
        "Error ≤ 1/3 with s = Θ(√(n/k)/ε²) samples per node and threshold "
        "T = Θ(1/ε⁴): the full √k saving.",
        ["e3_threshold_scaling", "e3b_rule_head_to_head"],
        "Log-log slope of s against k ≈ −0.5; errors ≤ 1/3 everywhere; the "
        "threshold rule beats the AND rule by ≥ 2× at a common "
        "configuration (who wins: threshold, decisively).",
    ),
    (
        "E4 — Asymmetric costs (Section 4)",
        "Max individual cost C = Θ(√n/ε²)/‖T‖₂ under the threshold rule; "
        "soundness inherited from the symmetric case by Lemma 4.1.",
        ["e4_asymmetric_costs", "e4b_lemma41"],
        "Measured C within ~5% of √(2nΔ)/‖T‖₂ across uniform, bimodal and "
        "power-law cost profiles; Lemma 4.1's extremality g(X) ≤ g(Y) holds "
        "on 200 random assignments (0 violations).",
    ),
    (
        "E5 — τ-token packaging (Definition 2, Theorem 5.1)",
        "Packages of exactly τ tokens, ≤ 1 package per token, ≤ τ−1 dropped, "
        "in O(D + τ) CONGEST rounds.",
        ["e5_token_packaging", "e5b_tau_slope", "e5c_diameter_slope"],
        "All Definition 2 invariants verified per run across 6 topologies; "
        "rounds ≈ 4D + τ (slope ≈ 1 in τ on a star, linear in D on lines).",
    ),
    (
        "E6 — CONGEST uniformity testing (Theorem 1.4)",
        "O(D + n/(kε⁴)) rounds, error ≤ 1/3, O(log n)-bit messages.",
        ["e6_congest", "e6b_tau_shape"],
        "Rounds within the O(D+τ) budget on star (τ dominates) and line "
        "(D dominates); bandwidth certificate from the engine; τ grows "
        "with n and shrinks with k as Θ(n/(kε⁴)) predicts.\n\n"
        "**Fast paths (measurement hygiene).** The round counts quoted "
        "above always come from **cold** engine runs — the real protocol "
        "the `O(D + τ)` claims are about.  The error-rate columns may use "
        "the fast paths instead: the warm start (cached `TreeSchedule`, "
        "enter TOKENS at round 0; bit-identical verdicts via "
        "`verify_warm_start`) and, since E15, the vectorised trial plane "
        "(`fast_path=True` with an `engine_check` fraction re-run through "
        "the engine).  The LOCAL-model sweeps (E7) have the same split "
        "since E16: `repro.localmodel.local_plane` replays the Luby-MIS "
        "layout and batches the AND-rule verdicts, bit-identical per seed "
        "to the scalar Section 6 tester.  `tools/bench_protocol.py` "
        "re-checks all routes' equivalence on every run, writing "
        "`BENCH_protocol.json`.",
    ),
    (
        "E7 — LOCAL uniformity testing (Section 6)",
        "MIS of G^r gathering: ≤ 2k/r virtual nodes with ≥ r/2 samples each; "
        "AND-rule testing at radius r gives error ≤ p.",
        ["e7_local_ring", "e7b_radius"],
        "Structural counting bounds hold exactly; measured errors within "
        "p = 0.45 on a 4096-node ring at r = 64; the doubling-search radius "
        "is consistent with the paper's closed-form curve.  Since E16 the "
        "error rates run through the vectorised LOCAL trial plane at 512 "
        "trials per sweep (vs the historical 60 scalar trials), which "
        "tightened the error columns from ±0.15 eyeball slack to a ±0.08 "
        "(~3.5σ) statistical band; `engine_check=0.05` re-runs a prefix of "
        "every sweep through the scalar `test_with_plan` route and "
        "cross-checks the replayed MIS layout against a real engine run, "
        "raising on any divergence.  E7b's doubling search probes radii "
        "through the same per-radius layout cache the subsequent sweep "
        "hits.",
    ),
    (
        "E8 — SMP Equality with asymmetric error (Lemma 7.3)",
        "A private-coin simultaneous protocol with worst-case O(√(τδn)) "
        "bits, perfect YES acceptance, NO rejection ≥ τδ.",
        ["e8_smp_equality", "e8b_cost_scaling"],
        "Zero rejections on equal inputs across all runs; NO-side rejection "
        "≥ τδ at 4σ; cost slope 1/2 in δ. The measured cost sits above the "
        "Theorem 7.2 Ω(√(f(τ)δn)) curve — both sides of the tight bound.",
    ),
    (
        "E9 — The lower-bound chain (Lemma 2.1, Thm 7.1/7.2, Cor 7.4, Thm 1.3)",
        "KL separation D(B_{1−δ}‖B_{1−τδ}) ≥ (δ/4)f(τ); any (δ,α)-gap tester "
        "needs Ω(√(f(α)δn)/log n) samples; testers convert to EQ protocols "
        "at q·log n bits.",
        ["e9a_kl_grid", "e9b_sandwich", "e9c_reduction"],
        "Lemma 2.1 holds on a 144-point grid (0 violations); the measured "
        "minimal sample count for the gap sits between Cor 7.4's lower "
        "curve and the √(2δn) construction; the forward reduction "
        "preserves the (δ, α) profile at q·log n bits.",
    ),
    (
        "E10 — Centralized context (the weak-signal premise)",
        "Classical testers need Θ(√n/ε²) samples for constant error; below "
        "that, only the single-collision gap signal survives.",
        ["e10_baselines", "e10b_weak_signal"],
        "Collision-count and χ² testers flip from unusable to reliable "
        "across the √n/ε² crossover; the plug-in L1 tester needs Θ(n) "
        "samples; at s ≈ √(2δn) ≪ crossover the gap signal is present, "
        "reliable, and tiny — the paper's starting point.",
    ),
    (
        "E11 — Distributed identity testing via the filter (Intro claim)",
        "Testing equality to any fixed η reduces to uniformity through a "
        "per-sample filter each node applies locally with private coins.",
        ["e11_identity", "e11b_filter_distance"],
        "The filter maps η to uniform exactly and preserves L1 distance "
        "(machine precision); the threshold network over filtered samples "
        "accepts η and rejects corrupted profiles.",
    ),
    (
        "E12 — Ablations",
        "(a) Threshold placement: Chernoff Eq. (5) vs exact binomial tails. "
        "(b) Far-family difficulty: Lemma 3.2 is tight on the Paninski "
        "pairing.",
        ["e12a_window_ablation", "e12b_family_difficulty"],
        "Exact tails dominate: smaller minimal feasible k and fewer samples "
        "at a common k, with the guarantee intact. Paninski/two-bump sit at "
        "the (1+ε²)/n collision floor and reject least; the heavy-element "
        "family rejects most.",
    ),
    (
        "E13 — Extension: the referee model of [ACT18] (related work §1.1)",
        "One sample per player, ℓ-bit messages to a referee: the focus of "
        "Acharya–Canonne–Tyagi is the players-vs-communication trade-off, "
        "orthogonal to this paper's per-node sample complexity.",
        ["e13_referee_tradeoff"],
        "The hash-and-test protocol reproduces the inverse trade-off: "
        "players scale as B^{-1/2} in the bucket count (measured slope "
        "−0.5), with error ≤ 1/3 on both sides at every message length.",
    ),
    (
        "E14 — Extension: robustness of the hardened CONGEST tester (fault model)",
        "None — the paper's protocols assume a reliable synchronous "
        "network.  This extension measures how a fault-hardened rebuild "
        "of the Theorem 1.4 protocol (timer-driven phases, ack/retransmit "
        "with bounded retries, conservative deadlines; "
        "`repro.congest.hardened`) degrades under seeded message loss and "
        "crash-stop failures injected by the engine "
        "(`repro.simulator.faults.FaultPlan`).  Every grid point runs "
        "paired Monte-Carlo trials (uniform and Paninski ε-far under the "
        "same fault plan) at n=200, k=60, ε=0.9, p=1/3, 64 samples/node "
        "(τ=6); fault plans are keyed by (base_seed, trial) and replay "
        "bit-for-bit.  `tools/bench_robustness.py` regenerates this table "
        "and `BENCH_robustness.json`; the `--smoke` grid runs in CI.\n\n"
        "**Fast path.** The whole grid replays through the vectorised "
        "fault plane (`repro.congest.fault_plane`): every per-trial-keyed "
        "plan's flooding, retry ladders, token transfer, give-up "
        "accounting, and verdict broadcast are re-derived as array ops "
        "over the plan batch, with no engine runs.  Each trial seed's "
        "driver doubles are drawn once and scored at every grid point with "
        "the shared collision kernel (see E15).  A fifth of each "
        "point's trials still runs through the engine, which cross-checks "
        "verdict, agreement, shortfall, missing-subtree and unheard "
        "counters bit for bit (any divergence raises `SimulationError`) "
        "and supplies the rounds/drops columns only it can measure.  On "
        f"this grid the replay costs {_ms(FAULT['fast_ms_per_trial'])} ms "
        f"per trial against {_ms(FAULT['engine_ms_per_trial'])} ms per "
        f"engine trial — **{_x(FAULT['speedup'])} per faulty trial** "
        "(`BENCH_robustness.json` "
        "`fault_plane.speedup`, `bit_identical: true`), which is what made "
        "25 trials/point affordable.",
        ["e14_robustness"],
        "(Star and ring sweeps in `BENCH_robustness.json` match.)  "
        "Message loss up to 10% costs only rounds (retransmissions absorb "
        "it: agreement is unchanged, shortfall ≈ 0; the uniform-side "
        "error rate ≈ 0.2 is the tester's intrinsic false-reject budget "
        "at p = 1/3, present at the fault-free point too).  "
        "Crashing 10% of nodes degrades conservatively: the far side "
        "stays perfect, the uniform side rejects (missing subtrees are "
        "counted as silent evidence and reported — never invented), and "
        "the surviving network still reaches unanimous agreement on every "
        "run.  The graceful-degradation contract — drop ≤ 0.05, no "
        "crashes ⇒ every node gets a verdict, agreement 1.0 — is asserted "
        "by the benchmark and CI.",
    ),
    (
        "E15 — Extension: the vectorised trial plane (Monte-Carlo fast path)",
        "None — an implementation result.  The Theorem 1.4 protocol's "
        "control flow never reads a token's *value*: the BFS tree, the "
        "c(v) counts and the forward-the-buffer-head rule are functions "
        "of the topology and τ alone, so which node's j-th sample lands "
        "in which package is fixed across Monte-Carlo trials.  "
        "`repro.congest.trial_plane` extracts that packaging layout once "
        "(`PackagingLayout`, cross-checked against a real engine run; the "
        "hardened tester under a fixed `FaultPlan` uses a one-plan "
        "fault-plane replay, the one hardened replay, for the packages "
        "its root counts) and then computes whole trial batches as one driver-double draw "
        "(`sample_uniform`, the doubles `Generator.choice` would turn "
        "into samples) + one pass of the shared collision kernel "
        "`repro.zeroround.network.grouped_collision` (gather, bit-pattern "
        "sort, max-bin-width gap filter, exact `index_quantiles` lookups "
        "for the few surviving pairs) + one threshold comparison.  "
        "Verdicts are bit-identical per seed to the engine path (the "
        "same sample stream is consumed; `engine_check` re-runs a trial "
        "prefix through the engine and raises on any disagreement), and "
        "the engine remains the measurement of record for rounds, "
        "bandwidth and fault counters.  `tools/bench_protocol.py` "
        "regenerates this table into `BENCH_protocol.json` "
        "(`e6_trial_plane`); `tools/bench_compare.py --smoke` gates "
        "regressions in CI.",
        ["e15_trial_plane"],
        "On the E6 error-rate workload (n=500, k=3000, τ=6, star) the "
        f"trial plane runs the same trials {_x(PLANE['speedup_vs_warm'])} "
        "faster than the warm-started engine "
        f"({_per_trial(PLANE, 'fast_seconds')} ms vs "
        f"{_per_trial(PLANE, 'warm_engine_seconds')} ms per trial) after a "
        f"{_ms(1000 * PLANE['layout_seconds'])} ms one-time layout "
        "extraction, with "
        "`bit_identical.fast_vs_engine = true` asserted by the benchmark "
        "gate.  The E6 sweep rides this path with an engine-check "
        "fraction; the E14 robustness sweep, whose plans are keyed per "
        "trial and realise a *different* layout every trial, rides the "
        "fault plane (`repro.congest.fault_plane`), which re-derives the "
        "layouts themselves as batched array ops (see E14).",
    ),
    (
        "E16 — Extension: the vectorised LOCAL trial plane",
        "None — an implementation result, the LOCAL-model counterpart of "
        "E15.  The Section 6 tester's control flow never reads a sample's "
        "*value* either: the Luby MIS of G^r, each virtual node's "
        "catchment and the samples-per-node/repetition counts are "
        "functions of (topology, r, the MIS seed stream) alone, so which "
        "node's j-th sample each AND-rule repetition reads is fixed "
        "across Monte-Carlo trials.  `repro.localmodel.local_plane` "
        "extracts that layout once (`LocalLayout`: bitset-BFS power graph "
        "+ an array-based lock-step replay of the engine's "
        "`LubyMISProgram`, cross-checked node-for-node against a real "
        "engine run by `verify_layout`) and then computes whole trial "
        "batches with a driver-draw split: every trial draws only the "
        "uniform doubles the numpy `Generator.choice` inverse-CDF would "
        "consume (keeping the stream bit-identical to the scalar "
        "tester's), gathers the slots the MIS nodes actually read, and "
        "detects collisions with a bit-pattern sort plus a max-bin-width "
        "gap filter — only sorted-adjacent pairs at most the widest "
        "CDF step apart can collide, and just those rare survivors get "
        "exact `index_quantiles` lookups.  That kernel, "
        "`repro.zeroround.network.grouped_collision`, now serves every "
        "plane (E15's trial plane, the E14 fault plane and the "
        "zero-round kernels too).  Verdicts are bit-identical per seed "
        "to `test_with_plan`; `estimate_error(..., fast_path=True, "
        "engine_check=f)` re-runs a prefix through the scalar route and "
        "re-verifies the layout, raising `SimulationError` on any "
        "divergence.  `choose_radius(..., fast_path=True)` shares the "
        "per-radius layout cache with the subsequent sweep.",
        ["e16_local_plane"],
        "On the E7 error-rate workload (n=20000, ring(4096), r=64) the "
        f"local plane runs the same {LOCAL['trials']}-trial sweeps "
        f"{_x(LOCAL['speedup_vs_scalar'])} faster than the scalar tester "
        f"({_per_trial(LOCAL, 'fast_seconds')} ms vs "
        f"{_per_trial(LOCAL, 'scalar_seconds')} ms per trial) after a "
        f"{_ms(1000 * LOCAL['layout_seconds'])} ms one-time layout "
        "extraction, with both "
        "`bit_identical.fast_vs_scalar` and `bit_identical.layout_vs_engine` "
        "asserted true by the benchmark gate (`BENCH_protocol.json`, "
        "`e7_local_plane`; regression-gated by `tools/bench_compare.py "
        "--smoke` in CI).  The E7/E7b sweeps above ride this path; "
        "`DiscreteDistribution.sample()` itself is untouched — "
        "`gen.choice` remains the auditable scalar reference, and the "
        "split (`sample_uniform` + `index_quantiles`) is pinned "
        "bit-for-bit to it by `tests/distributions/test_base.py`.",
    ),
    (
        "E17 — Extension: the vectorised SMP lower-bound plane",
        "None — an implementation result, the Section 7 counterpart of "
        "E15/E16.  Both SMP protocols' expensive work never reads the "
        "private coins: the concatenated encoding (Reed–Solomon over "
        "GF(2^q) composed with the verified inner code) and the torus "
        "layout are pure functions of the inputs, and a trial consumes a "
        "tiny fixed coin stream — four bounded integer draws for the "
        "Lemma 7.3 torus protocol (the two start cells), 3q uniform "
        "doubles for the Theorem 7.1 BCG reduction (q driver values per "
        "player plus q referee coins).  `repro.smp.smp_plane` hoists the "
        "coding phase into one batched `encode_many` call (a GF "
        "power-table matrix product, element-identical to the scalar "
        "Horner loop) and replays whole trial batches through the "
        "chunk-keyed trial engine: the torus referee compare becomes two "
        "modular offsets plus one gather per table, and the BCG referee "
        "runs all trials at once through `decide_many` (the vectorised "
        "collision testers).  Verdicts are bit-identical per seed to the "
        "scalar `run()` on both protocols; `estimate_error(..., "
        "fast_path=True, engine_check=f)` re-runs a prefix of the same "
        "streams through the full scalar protocol and raises "
        "`SimulationError` on any divergence.  `tools/bench_smp.py` "
        "regenerates this table and `BENCH_smp.json`; "
        "`tools/bench_compare.py --smoke` gates regressions in CI.",
        ["e17_smp_plane"],
        "On the default `repro smp` workload (256-bit inputs, δ=0.05, "
        "τ=2.0 → a 1024-bit codeword, torus side 32, BCG domain 2048, "
        f"q=14) the plane runs the same {TORUS['trials']}-trial sweeps "
        f"{_x(TORUS['speedup_vs_scalar'])} faster than the scalar torus "
        f"protocol ({_per_trial(TORUS, 'fast_seconds')} ms vs "
        f"{_per_trial(TORUS, 'scalar_seconds')} ms per trial) and "
        f"{_x(BCG['speedup_vs_scalar'])} faster than the scalar BCG "
        f"reduction ({_per_trial(BCG, 'fast_seconds')} ms vs "
        f"{_per_trial(BCG, 'scalar_seconds')} ms per trial), with "
        "`bit_identical: true` "
        "on both asserted by the benchmark gate (`BENCH_smp.json`, "
        "`e17_torus`/`e17_bcg`).  The scalar route remains the "
        "measurement of record for communication cost (E8's bit counts "
        "are untouched); the plane only accelerates verdict statistics, "
        "which is what made the `repro smp` error columns affordable at "
        "thousands of trials.",
    ),
]

#: Closing paragraph appended after the last section (not tied to one
#: experiment: it documents the telemetry split embedded in BENCH_*.json).
FOOTER = (
    "\n**Phase breakdowns.** Every route above is instrumented with "
    "`repro.telemetry` (`docs/observability.md`): pass `--trace PATH` to "
    "any CLI run and `python -m repro report PATH` prints the per-phase "
    "wall-time split (FLOOD / CLAIM+COUNT / TOKENS / VOTE+DECIDE for a "
    "cold engine run; layout / draw / verdict / engine-check for the "
    "trial and local planes; build / replay / score per grid point for "
    "the fault plane) next to the run's manifest.  The committed "
    "`BENCH_*.json` payloads embed the same split as a `trace_phases` "
    "block from one fixed-size traced run, so `tools/bench_compare.py` "
    "gates phase-level slowdowns — e.g. a regression localised to the "
    "TOKENS phase fails the gate even if the headline total hides it.  "
    "Tracing never changes results (bit-identity pinned by "
    "`tests/telemetry/`), and all headline timings are measured "
    "untraced.\n"
)

HEADER = """# EXPERIMENTS — paper claims vs measured

Generated by ``python tools/collect_experiments.py`` from the tables the
benchmark suite writes to ``benchmarks/results/`` (each table is written
only after its reproduction assertions passed).  The paper (PODC 2018)
reports no absolute-number tables — every claim is a theorem — so
"reproduction" here means the **shape** of each theorem measured on the
implementation: who wins, what slope, which bound holds.  See DESIGN.md
for the experiment-to-module index.

Environment: pure-Python simulation (numpy), single machine, all
randomness seeded.  Monte-Carlo estimates run on the batched trial
engine (``repro.experiments.TrialRunner``): trials are chunk-keyed by
``(base_seed, labels, chunk)``, so every number below is bit-for-bit
reproducible at any batch size — see the README's
"trial engine" section and ``BENCH_trials.json`` for engine timings.
Regenerate with ``pytest benchmarks/ --benchmark-only`` then this
script.
"""


def render() -> tuple:
    """``(EXPERIMENTS.md text, missing result tables)``."""
    missing = []
    parts = [HEADER]
    for title, claim, files, verdict in SECTIONS:
        parts.append(f"\n## {title}\n")
        parts.append(f"**Paper claim.** {claim}\n")
        for name in files:
            path = RESULTS / f"{name}.txt"
            if not path.exists():
                missing.append(name)
                parts.append(f"\n*(missing: run benchmarks to produce {name})*\n")
                continue
            parts.append("\n```text\n" + path.read_text().rstrip() + "\n```\n")
        parts.append(f"**Measured outcome.** {verdict}\n")
    parts.append(FOOTER)
    return "".join(parts), missing


def readme_with_table(readme: str) -> str:
    """*readme* with its speedup table replaced by :func:`speedup_table`."""
    lines = readme.splitlines(True)
    start = next(
        i for i, ln in enumerate(lines) if ln.startswith("| E6 error-rate trial")
    )
    end = start
    while end < len(lines) and lines[end].startswith("|"):
        end += 1
    return "".join(lines[:start]) + speedup_table() + "".join(lines[end:])


def main() -> int:
    text, missing = render()
    out = ROOT / "EXPERIMENTS.md"
    out.write_text(text)
    readme = ROOT / "README.md"
    readme.write_text(readme_with_table(readme.read_text()))
    print(f"wrote {out} ({len(SECTIONS)} sections, {len(missing)} missing tables)")
    print(f"rewrote the speedup table in {readme}")
    if missing:
        print("missing:", ", ".join(missing))
    return 0


if __name__ == "__main__":
    sys.exit(main())
