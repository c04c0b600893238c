"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve-threshold``
    Solve the Theorem 1.2 construction at (n, k, eps, p) and print the
    parameters plus (optionally) a measured error estimate.
``solve-and``
    Same for the Theorem 1.1 AND-rule construction.
``solve-congest``
    Choose the Theorem 1.4 package size τ and print predicted rounds for
    a given diameter.
``robustness``
    Sweep the hardened Theorem 1.4 tester over a (drop × crash) fault
    grid, by default through the vectorized fault-plane replay with an
    engine cross-check subset.
``local``
    Run the Section 6 LOCAL tester (Luby MIS on ``G^r`` + AND rule) and
    measure its error rate, by default through the vectorized local
    trial plane with an optional engine cross-check.
``smp``
    Run the Section 7 SMP Equality protocols (Lemma 7.3 torus chunks and
    the Theorem 7.1 BCG reduction) on a random input pair and measure
    their referee error rates, by default through the vectorized SMP
    trial plane with an optional scalar cross-check.
``demo``
    Run a quick end-to-end demonstration: threshold network on uniform vs
    a certified ε-far distribution.
``bounds``
    Print every closed-form theorem curve at (n, k, eps).
``report``
    Summarize a ``--trace`` JSONL file: run manifest, span tree, hot
    phases, counter totals.

All commands accept ``--seed`` for reproducibility and ``--trace PATH``
to write a structured telemetry trace (see ``docs/observability.md``),
and print plain-ASCII tables (no extra dependencies).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro import telemetry
from repro.core import and_rule_parameters, threshold_parameters
from repro.core import bounds as bounds_mod
from repro.core.params import threshold_parameters_exact
from repro.distributions import far_family, uniform
from repro.exceptions import ParameterError, ReproError
from repro.experiments import Table
from repro.zeroround import ThresholdNetworkTester

#: Minimum network size each named benchmark topology can be built at
#: (mirrors the :class:`~repro.simulator.graph.Topology` constructors).
_TOPOLOGY_MIN_K = {"star": 2, "ring": 3, "grid": 1}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True, help="domain size")
    parser.add_argument("--k", type=int, required=True, help="network size")
    parser.add_argument("--eps", type=float, default=0.9, help="L1 distance parameter")
    parser.add_argument("--p", type=float, default=1 / 3, help="error budget")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--trace", type=str, default=None, metavar="PATH",
                        help="write a JSONL telemetry trace (spans, "
                             "counters, run manifest) to PATH")


def _validate_common(args: argparse.Namespace) -> None:
    """Reject out-of-range problem parameters before any solver runs.

    ``eps`` is an L1 distance between distributions, so ``(0, 2]`` is the
    meaningful range; ``p`` is a two-sided error budget, open at both ends
    (0 demands certainty, 1 permits anything).  ``n`` needs at least two
    elements to have a non-uniform distribution; ``k`` at least one node.
    Catching these here gives a clear
    :class:`~repro.exceptions.ParameterError` instead of a downstream
    numpy or math-domain error deep in a solver.
    """
    n = getattr(args, "n", None)
    if n is not None and n < 2:
        raise ParameterError(
            f"--n must be >= 2 (a domain with at least two elements), "
            f"got {n}"
        )
    k = getattr(args, "k", None)
    if k is not None and k < 1:
        raise ParameterError(
            f"--k must be >= 1 (a network needs at least one node), "
            f"got {k}"
        )
    eps = getattr(args, "eps", None)
    if eps is not None and not 0.0 < eps <= 2.0:
        raise ParameterError(
            f"--eps must be in (0, 2] (an L1 distance), got {eps}"
        )
    p = getattr(args, "p", None)
    if p is not None and not 0.0 < p < 1.0:
        raise ParameterError(
            f"--p must be in (0, 1) (an error probability), got {p}"
        )
    # Topology minima only bind when the command will actually build the
    # topology: robustness always does, solve-congest only with --trials.
    topology = getattr(args, "topology", None)
    if (
        topology is not None
        and k is not None
        and (args.command == "robustness" or getattr(args, "trials", 0))
    ):
        minimum = _TOPOLOGY_MIN_K.get(topology, 1)
        if k < minimum:
            raise ParameterError(
                f"--topology {topology} needs k >= {minimum}, got {k}"
            )


def _cmd_solve_threshold(args: argparse.Namespace) -> int:
    solver = threshold_parameters_exact if args.exact else threshold_parameters
    params = solver(args.n, args.k, args.eps, args.p)
    telemetry.annotate(
        solved={"samples_per_node": params.s, "threshold": params.threshold}
    )
    table = Table(["parameter", "value"], title="Theorem 1.2 (threshold rule)")
    table.add_row(["samples per node s", params.s])
    table.add_row(["per-node delta", f"{params.delta:.5g}"])
    table.add_row(["alarm threshold T", params.threshold])
    table.add_row(["gamma slack (Eq. 1)", f"{params.gamma:.3f}"])
    table.add_row(["E[alarms | uniform] <=", f"{params.eta_uniform:.2f}"])
    table.add_row(["E[alarms | far] >=", f"{params.eta_far:.2f}"])
    table.add_row(
        ["centralized cost (1 node)",
         int(bounds_mod.centralized_sample_complexity(args.n, args.eps))]
    )
    print(table.render())
    if args.trials:
        tester = ThresholdNetworkTester(params=params)
        u = uniform(args.n)
        far = far_family("paninski", args.n, min(args.eps, 1.0), rng=args.seed)
        err_u = tester.estimate_error(u, True, args.trials, rng=args.seed + 1)
        err_f = tester.estimate_error(far, False, args.trials, rng=args.seed + 2)
        print(f"\nmeasured over {args.trials} trials: "
              f"err(uniform)={err_u:.3f}, err(far)={err_f:.3f}")
    return 0


def _cmd_solve_and(args: argparse.Namespace) -> int:
    params = and_rule_parameters(args.n, args.k, args.eps, args.p)
    table = Table(["parameter", "value"], title="Theorem 1.1 (AND rule)")
    table.add_row(["repetitions m", params.m])
    table.add_row(["samples per repetition", params.s_per_repetition])
    table.add_row(["samples per node", params.samples_per_node])
    table.add_row(["per-node uniform-reject budget", f"{params.delta_node:.5g}"])
    table.add_row(["network error (uniform) <=", f"{params.network_error_uniform:.3f}"])
    table.add_row(["network error (far) <=", f"{params.network_error_far:.3f}"])
    print(table.render())
    return 0


def _cmd_solve_congest(args: argparse.Namespace) -> int:
    from repro.congest import CongestUniformityTester, congest_parameters

    if args.trials is not None and args.trials <= 0:
        raise ParameterError(
            f"--trials must be a positive trial count, got {args.trials}"
        )
    params = congest_parameters(
        args.n, args.k, args.eps, args.p, args.samples_per_node
    )
    telemetry.annotate(
        solved={
            "tau": params.tau,
            "expected_virtual_nodes": params.expected_virtual_nodes,
        }
    )
    table = Table(["parameter", "value"], title="Theorem 1.4 (CONGEST)")
    table.add_row(["samples per node", params.samples_per_node])
    table.add_row(["package size tau", params.tau])
    table.add_row(["expected virtual nodes", params.expected_virtual_nodes])
    table.add_row(["alarm prob (uniform) <=", f"{params.alarm_prob_uniform:.4f}"])
    table.add_row(["alarm prob (far) >=", f"{params.alarm_prob_far:.4f}"])
    table.add_row(
        [f"predicted rounds at D={args.diameter}",
         int(params.predicted_rounds(args.diameter))]
    )
    print(table.render())
    if args.trials:
        from repro.experiments import make_topology

        tester = CongestUniformityTester(params=params)
        topo = make_topology(args.topology, args.k)
        u = uniform(args.n)
        far = far_family("paninski", args.n, min(args.eps, 1.0), rng=args.seed)
        err_u = tester.estimate_error(
            topo, u, True, args.trials, rng=args.seed + 1,
            fast_path=args.fast_path,
        )
        err_f = tester.estimate_error(
            topo, far, False, args.trials, rng=args.seed + 2,
            fast_path=args.fast_path,
        )
        path = "trial plane" if args.fast_path else "engine"
        print(f"\nmeasured over {args.trials} trials on {args.topology} "
              f"({path}): err(uniform)={err_u:.3f}, err(far)={err_f:.3f}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments import robustness_sweep

    if args.trials <= 0:
        raise ParameterError(
            f"--trials must be a positive trial count, got {args.trials}"
        )
    if not 0.0 <= args.engine_check <= 1.0:
        raise ParameterError(
            f"--engine-check must be in [0, 1], got {args.engine_check}"
        )
    for drop in args.drop_probs:
        if not 0.0 <= drop <= 1.0:
            raise ParameterError(
                f"--drop-probs entries must be in [0, 1], got {drop}"
            )
    for frac in args.crash_fractions:
        if not 0.0 <= frac < 1.0:
            raise ParameterError(
                f"--crash-fractions entries must be in [0, 1), got {frac}"
            )
    points = robustness_sweep(
        args.n,
        args.k,
        args.eps,
        p=args.p,
        samples_per_node=args.samples_per_node,
        topology=args.topology,
        drop_probs=tuple(args.drop_probs),
        crash_fractions=tuple(args.crash_fractions),
        trials=args.trials,
        base_seed=args.seed,
        fast_path=args.fast_path,
        engine_check=args.engine_check,
    )
    path = "fault plane" if args.fast_path else "engine"
    table = Table(
        ["drop", "crash", "err(unif)", "err(far)", "missing", "shortfall",
         "unheard", "agree", "engine trials"],
        title=f"Robustness: {args.topology}(k={args.k}) n={args.n} "
              f"eps={args.eps} trials={args.trials} [{path}]",
    )
    for pt in points:
        table.add_row([
            f"{pt.drop_prob:.2f}",
            f"{pt.crash_fraction:.2f}",
            f"{pt.error_uniform:.2f}",
            f"{pt.error_far:.2f}",
            f"{pt.mean_missing_subtrees:.1f}",
            f"{pt.mean_shortfall:.1f}",
            f"{pt.mean_unheard:.1f}",
            f"{pt.mean_agreement:.2f}",
            pt.engine_trials,
        ])
    print(table.render())
    return 0


def _cmd_local(args: argparse.Namespace) -> int:
    from repro.experiments import make_topology
    from repro.localmodel import LocalUniformityTester

    if args.trials < 1:
        raise ParameterError(
            f"--trials must be >= 1, got {args.trials}"
        )
    if args.radius is not None and args.radius < 1:
        raise ParameterError(
            f"--radius must be >= 1, got {args.radius}"
        )
    if not 0.0 <= args.engine_check <= 1.0:
        raise ParameterError(
            f"--engine-check must be in [0, 1], got {args.engine_check}"
        )
    tester = LocalUniformityTester(n=args.n, eps=args.eps, p=args.p)
    topo = make_topology(args.topology, args.k)
    radius = args.radius
    if radius is None:
        radius = tester.choose_radius(
            topo, rng=args.seed, fast_path=args.fast_path
        )
    # Show the exact plan the uniform sweep (seed + 1) will replay; on the
    # fast path this also pre-populates the layout cache it uses.
    from repro.localmodel.local_plane import (
        LocalTrialRunner,
        effective_radius,
        mis_generator,
    )

    if args.fast_path:
        plan = LocalTrialRunner.build(
            tester, topo, radius, base_seed=args.seed + 1
        ).plan
    else:
        plan = tester.plan(
            topo,
            radius,
            mis_generator(args.seed + 1, effective_radius(topo, radius)),
        )
    telemetry.annotate(
        solved={
            "radius": plan.radius,
            "mis_size": plan.mis_size,
            "samples_per_node": plan.params.samples_per_node,
        }
    )
    table = Table(
        ["parameter", "value"],
        title=f"Section 6 LOCAL tester: {args.topology}(k={args.k})",
    )
    table.add_row(["radius r", plan.radius])
    table.add_row(["MIS virtual nodes", plan.mis_size])
    table.add_row(["min catchment", plan.min_catchment])
    table.add_row(["samples per virtual node", plan.params.samples_per_node])
    table.add_row(["repetitions m", plan.params.m])
    table.add_row(["LOCAL rounds", plan.rounds])
    print(table.render())
    u = uniform(args.n)
    far = far_family("paninski", args.n, min(args.eps, 1.0), rng=args.seed)
    err_u = tester.estimate_error(
        topo, u, True, radius, args.trials, rng=args.seed + 1,
        fast_path=args.fast_path, engine_check=args.engine_check,
    )
    err_f = tester.estimate_error(
        topo, far, False, radius, args.trials, rng=args.seed + 2,
        fast_path=args.fast_path, engine_check=args.engine_check,
    )
    path = "local plane" if args.fast_path else "scalar tester"
    print(f"\nmeasured over {args.trials} trials on {args.topology} "
          f"({path}): err(uniform)={err_u:.3f}, err(far)={err_f:.3f}")
    return 0


def _cmd_smp(args: argparse.Namespace) -> int:
    from repro.core.collision import CollisionGapTester
    from repro.rng import ensure_rng
    from repro.smp import (
        BCGMapping,
        EqualityProtocol,
        TesterBasedEqualityProtocol,
    )

    if args.trials < 1:
        raise ParameterError(f"--trials must be >= 1, got {args.trials}")
    if args.n_bits < 1:
        raise ParameterError(f"--n-bits must be >= 1, got {args.n_bits}")
    if not 0.0 < args.delta < 1.0:
        raise ParameterError(f"--delta must be in (0, 1), got {args.delta}")
    if args.tau <= 1.0:
        raise ParameterError(f"--tau must exceed 1, got {args.tau}")
    if not 0.0 <= args.engine_check <= 1.0:
        raise ParameterError(
            f"--engine-check must be in [0, 1], got {args.engine_check}"
        )
    torus = EqualityProtocol.build(args.n_bits, delta=args.delta, tau=args.tau)
    mapping = BCGMapping(code=torus.code)
    tester = CollisionGapTester.from_delta(mapping.domain_size, args.delta)
    bcg = TesterBasedEqualityProtocol(mapping=mapping, tester=tester)
    telemetry.annotate(
        solved={
            "codeword_bits": torus.code.codeword_bits,
            "torus_side": torus.side,
            "tester_samples": tester.samples_required,
        }
    )
    table = Table(
        ["parameter", "value"],
        title=f"Section 7 SMP protocols ({args.n_bits}-bit inputs)",
    )
    table.add_row(["codeword bits m'", torus.code.codeword_bits])
    table.add_row(
        ["code relative distance", f"{torus.code.relative_distance:.4f}"]
    )
    table.add_row(["torus side L", torus.side])
    table.add_row(["torus chunk t", torus.chunk_length])
    table.add_row(["torus bits/player", torus.communication_bits])
    table.add_row(
        ["torus rejection bound", f"{torus.rejection_probability_bound:.4f}"]
    )
    table.add_row(["BCG domain 2m'", mapping.domain_size])
    table.add_row(["BCG tester samples q", tester.samples_required])
    table.add_row(["BCG bits/player", bcg.communication_bits])
    print(table.render())
    # One random input pair per seed: y differs from x in a single bit —
    # the hardest unequal instance for a distance-based protocol.
    gen = ensure_rng(args.seed)
    x = gen.integers(0, 2, size=args.n_bits)
    y = x.copy()
    y[0] ^= 1
    sweeps = [
        ("torus", "x = y", torus, x, x, 1),
        ("torus", "x != y", torus, x, y, 2),
        ("BCG", "x = y", bcg, x, x, 3),
        ("BCG", "x != y", bcg, x, y, 4),
    ]
    path = "smp plane" if args.fast_path else "scalar protocol"
    results = Table(
        ["protocol", "inputs", "error rate"],
        title=f"measured over {args.trials} trials ({path})",
    )
    for name, inputs, protocol, a, b, offset in sweeps:
        err = protocol.estimate_error(
            a, b, args.trials, rng=args.seed + offset,
            fast_path=args.fast_path, engine_check=args.engine_check,
        )
        results.add_row([name, inputs, f"{err:.3f}"])
    print(results.render())
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    tester = ThresholdNetworkTester.solve(args.n, args.k, args.eps, args.p)
    u = uniform(args.n)
    far = far_family("paninski", args.n, min(args.eps, 1.0), rng=args.seed)
    table = Table(
        ["distribution", "alarms", "threshold", "verdict"],
        title=f"Demo: k={args.k} nodes x {tester.samples_per_node} samples",
    )
    for name, dist, seed in [("uniform", u, 1), (f"{args.eps}-far", far, 2)]:
        alarms = tester.rejection_count(dist, rng=args.seed + seed)
        verdict = "accept" if tester.test(dist, rng=args.seed + seed) else "reject"
        table.add_row([name, alarms, tester.params.threshold, verdict])
    print(table.render())
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    n, k, eps = args.n, args.k, args.eps
    table = Table(["theorem", "quantity", "value"],
                  title=f"Closed-form curves at n={n}, k={k}, eps={eps}")
    table.add_row(["centralized [21]", "samples",
                   round(bounds_mod.centralized_sample_complexity(n, eps), 1)])
    table.add_row(["Thm 1.1 (AND)", "samples/node",
                   round(bounds_mod.and_rule_samples(n, k, eps), 1)])
    table.add_row(["Thm 1.2 (threshold)", "samples/node",
                   round(bounds_mod.threshold_rule_samples(n, k, eps), 1)])
    table.add_row(["Thm 1.2", "threshold T",
                   round(bounds_mod.threshold_value(eps), 1)])
    table.add_row(["Thm 1.4 (CONGEST)", "tau",
                   round(bounds_mod.congest_package_size(n, k, eps), 1)])
    table.add_row(["Thm 1.3 (lower bound)", "samples/node",
                   round(bounds_mod.zero_round_lower_bound(n, k), 1)])
    print(table.render())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    trace = telemetry.load_trace(args.path)
    print(telemetry.render_report(trace))
    return 0


def _route_for(args: argparse.Namespace) -> str:
    """The execution route a command will take, for the run manifest."""
    command = args.command
    if command == "robustness":
        return "fault-plane" if args.fast_path else "engine-cold"
    if command == "solve-congest":
        if not args.trials:
            return "solve"
        return "trial-plane" if args.fast_path else "engine-warm"
    if command == "local":
        return "trial-plane" if args.fast_path else "engine-cold"
    if command == "smp":
        return "smp-plane" if args.fast_path else "engine-cold"
    if command == "demo":
        return "zero-round"
    if command == "solve-threshold" and args.trials:
        return "zero-round"
    return "solve"


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed uniformity testing (PODC 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-threshold", help="solve Theorem 1.2 parameters")
    _add_common(p)
    p.add_argument("--exact", action="store_true",
                   help="use exact binomial tails instead of the Eq. (5) window")
    p.add_argument("--trials", type=int, default=0,
                   help="also measure error over this many network trials")
    p.set_defaults(func=_cmd_solve_threshold)

    p = sub.add_parser("solve-and", help="solve Theorem 1.1 parameters")
    _add_common(p)
    p.set_defaults(func=_cmd_solve_and)

    p = sub.add_parser("solve-congest", help="solve Theorem 1.4 parameters")
    _add_common(p)
    p.add_argument("--diameter", type=int, default=10,
                   help="network diameter for the round prediction")
    p.add_argument("--samples-per-node", type=int, default=1,
                   help="initial samples (tokens) per node")
    p.add_argument("--trials", type=int, default=None,
                   help="also measure error over this many protocol trials")
    p.add_argument("--topology", choices=("star", "ring", "grid"),
                   default="star",
                   help="topology for the --trials measurement")
    path = p.add_mutually_exclusive_group()
    path.add_argument("--fast-path", dest="fast_path", action="store_true",
                      default=True,
                      help="estimate via the vectorised trial plane "
                           "(default; bit-identical to the engine)")
    path.add_argument("--engine", dest="fast_path", action="store_false",
                      help="estimate via full per-trial engine runs")
    p.set_defaults(func=_cmd_solve_congest)

    p = sub.add_parser(
        "robustness",
        help="sweep the hardened Theorem 1.4 tester over a fault grid",
    )
    _add_common(p)
    p.add_argument("--samples-per-node", type=int, default=1,
                   help="initial samples (tokens) per node")
    p.add_argument("--topology", choices=("star", "ring", "grid"),
                   default="star", help="benchmark topology")
    p.add_argument("--trials", type=int, default=10,
                   help="Monte-Carlo trials per grid point")
    p.add_argument("--drop-probs", type=float, nargs="+",
                   default=[0.0, 0.05],
                   help="message-drop probabilities to sweep")
    p.add_argument("--crash-fractions", type=float, nargs="+",
                   default=[0.0],
                   help="crash-stop fractions of the non-root nodes")
    p.add_argument("--engine-check", type=float, default=1 / 3,
                   help="fraction of trials per point re-run through the "
                        "engine to cross-check the replay (fast path only)")
    path = p.add_mutually_exclusive_group()
    path.add_argument("--fast-path", dest="fast_path", action="store_true",
                      default=True,
                      help="replay the grid through the vectorised fault "
                           "plane (default; bit-identical to the engine)")
    path.add_argument("--engine", dest="fast_path", action="store_false",
                      help="run every trial through the full engine")
    p.set_defaults(func=_cmd_robustness)

    p = sub.add_parser(
        "local",
        help="run the Section 6 LOCAL tester and measure its error rate",
    )
    _add_common(p)
    p.add_argument("--topology", choices=("star", "ring", "grid"),
                   default="ring", help="benchmark topology")
    p.add_argument("--radius", type=int, default=None,
                   help="gathering radius r (default: doubling search)")
    p.add_argument("--trials", type=int, default=100,
                   help="Monte-Carlo trials per distribution")
    p.add_argument("--engine-check", type=float, default=0.0,
                   help="fraction of trials re-run through the scalar "
                        "tester plus an engine MIS cross-check "
                        "(fast path only)")
    path = p.add_mutually_exclusive_group()
    path.add_argument("--fast-path", dest="fast_path", action="store_true",
                      default=True,
                      help="estimate via the vectorised local trial plane "
                           "(default; bit-identical to the scalar tester)")
    path.add_argument("--engine", dest="fast_path", action="store_false",
                      help="estimate via per-trial scalar decisions over "
                           "an engine-built plan")
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser(
        "smp",
        help="run the Section 7 SMP Equality protocols and measure error",
    )
    p.add_argument("--n-bits", type=int, default=256,
                   help="input length in bits")
    p.add_argument("--trials", type=int, default=200,
                   help="Monte-Carlo trials per input pair")
    p.add_argument("--delta", type=float, default=0.05,
                   help="completeness budget delta")
    p.add_argument("--tau", type=float, default=2.0,
                   help="soundness multiplier tau")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--trace", type=str, default=None, metavar="PATH",
                   help="write a JSONL telemetry trace (spans, "
                        "counters, run manifest) to PATH")
    p.add_argument("--engine-check", type=float, default=0.0,
                   help="fraction of trials re-run through the scalar "
                        "protocol to cross-check the plane "
                        "(fast path only)")
    path = p.add_mutually_exclusive_group()
    path.add_argument("--fast-path", dest="fast_path", action="store_true",
                      default=True,
                      help="estimate via the vectorised SMP trial plane "
                           "(default; bit-identical to the scalar run)")
    path.add_argument("--engine", dest="fast_path", action="store_false",
                      help="estimate via full per-trial scalar executions")
    p.set_defaults(func=_cmd_smp)

    p = sub.add_parser("demo", help="run the threshold tester once")
    _add_common(p)
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("bounds", help="print every closed-form theorem curve")
    _add_common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser(
        "report",
        help="summarize a telemetry trace written with --trace",
    )
    p.add_argument("path", help="JSONL trace file to summarize")
    p.set_defaults(func=_cmd_report)
    return parser


def _start_trace(
    args: argparse.Namespace, argv: Optional[List[str]]
) -> telemetry.Tracer:
    """Open the ``--trace`` sink and write the run manifest."""
    tracer = telemetry.activate(telemetry.Tracer(args.trace))
    parameters = {
        key: getattr(args, key)
        for key in ("n", "k", "eps", "p", "samples_per_node", "trials",
                    "radius", "n_bits", "delta", "tau")
        if getattr(args, key, None) is not None
    }
    topology = None
    if getattr(args, "topology", None) is not None:
        topology = {"name": args.topology, "k": args.k}
    tracer.set_manifest(
        telemetry.RunManifest(
            command=args.command,
            route=_route_for(args),
            seed=getattr(args, "seed", None),
            argv=tuple(argv if argv is not None else sys.argv[1:]),
            parameters=parameters,
            topology=topology,
        )
    )
    return tracer


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = None
    try:
        _validate_common(args)
        if getattr(args, "trace", None):
            tracer = _start_trace(args, argv)
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Report output is made for piping (`repro report ... | head`);
        # a closed pipe is the reader's choice, not an error.  Detach
        # stdout so the interpreter's shutdown flush doesn't raise too.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        if tracer is not None:
            telemetry.deactivate()
            tracer.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
