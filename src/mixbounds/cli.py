"""Command-line front end.

Subcommands:

    gen <kind> [params] -o chain.json     write a generated chain
    analyze chain.json [--json]           classification, spectrum, conductance
    mix chain.json --from x --eps e       exact mixing time (``--continuous``
                                          for the continuized chain)
    compare base.json target.json ...     evaluate the bound catalogue
    selftest                              run the built-in example checks

Exit codes: 0 success (and report verdict pass), 1 report verdict fail or
selftest failure, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bounds import DELTA_DEFAULT, full_report
from .chains import classify, multiply, time_reversal
from .errors import MixboundsError
from .flows import build_canonical_flow
from .generators import generate
from .mixing import continuous_mixing_time, discrete_mixing_time
from .selftest import collect_results, run_selftest
from .serialize import chain_to_dict, load_chain, load_flow, save_chain
from .spectral import MAX_CONDUCTANCE_STATES, _gaps, conductance, eigendecompose, lambda_constants


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mixbounds", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"mixbounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a chain and write it to JSON")
    p_gen.add_argument("kind", help="two_state | dhn | uniform_walk | directed_cycle | random_reversible | lazy_of")
    p_gen.add_argument("--delta", type=float, help="flip-stay parameter for two_state")
    p_gen.add_argument("--n", type=int, help="half state count for dhn")
    p_gen.add_argument("--N", type=int, dest="N", help="state count for uniform_walk / random_reversible")
    p_gen.add_argument("--k", type=int, help="cycle length for directed_cycle")
    p_gen.add_argument("--seed", type=int, help="seed for random_reversible")
    p_gen.add_argument("--of", help="wrapped kind for lazy_of")
    p_gen.add_argument("-o", "--out", required=True, help="output chain JSON path")
    p_gen.add_argument("--json", action="store_true", help="echo the chain JSON to stdout")

    p_an = sub.add_parser("analyze", help="classification, spectral constants and conductance")
    p_an.add_argument("chain", help="chain JSON path")
    p_an.add_argument("--json", action="store_true", help="machine-readable output")

    p_mix = sub.add_parser("mix", help="exact mixing time from a state (or the worst one)")
    p_mix.add_argument("chain", help="chain JSON path")
    p_mix.add_argument("--from", dest="start", required=True, help="state label, or 'all'")
    p_mix.add_argument("--eps", type=float, required=True, help="target total-variation distance")
    p_mix.add_argument("--continuous", action="store_true", help="continuized chain instead of discrete")
    p_mix.add_argument("--json", action="store_true")

    p_cmp = sub.add_parser("compare", help="evaluate the bound catalogue for a chain pair")
    p_cmp.add_argument("base", help="base chain JSON path")
    p_cmp.add_argument("target", help="target chain JSON path")
    group = p_cmp.add_mutually_exclusive_group()
    group.add_argument("--flow", help="flow JSON path")
    group.add_argument("--auto-flow", action="store_true", help="route demands along shortest paths")
    p_cmp.add_argument("--odd", action="store_true", help="with --auto-flow: force odd-length paths")
    p_cmp.add_argument("--product", action="store_true",
                       help="with --auto-flow: route over the base's reversal product")
    p_cmp.add_argument("--from", dest="start", required=True, help="state label of the base chain")
    p_cmp.add_argument("--eps", type=float, required=True)
    p_cmp.add_argument("--delta", type=float, default=DELTA_DEFAULT)
    p_cmp.add_argument("--sweep", action="store_true", help="minimise delta-dependent bounds over a sweep")
    p_cmp.add_argument("--json", action="store_true")

    p_self = sub.add_parser("selftest", help="run the built-in example checks")
    p_self.add_argument("--quiet", action="store_true")
    p_self.add_argument("--json", action="store_true", help="machine-readable results")
    return parser


def _cmd_gen(args) -> int:
    params = {"delta": args.delta, "n": args.n, "N": args.N, "k": args.k, "seed": args.seed}
    params = {k: v for k, v in params.items() if v is not None}
    if args.of is not None:
        params["of"] = args.of
    chain = generate(args.kind, **params)
    meta = {"generator": args.kind, **{k: v for k, v in params.items()}}
    save_chain(chain, args.out, meta=meta)
    if args.json:
        print(json.dumps(chain_to_dict(chain, meta), indent=2))
    else:
        print(f"wrote {chain.name} ({chain.n} states) to {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    chain = load_chain(args.chain)
    cls = classify(chain)
    out = {
        "chain": chain.name,
        "states": chain.n,
        "irreducible": cls.irreducible,
        "period": cls.period,
        "aperiodic": cls.aperiodic,
        "reversible": cls.reversible,
        "min_self_loop": cls.min_self_loop,
    }
    if cls.irreducible:
        if cls.reversible:  # one eigensolve gives the gaps and the spectrum
            summary = eigendecompose(chain)
            out["lambda_1"], out["lambda_bottom"] = _gaps(summary)
            out["betas"] = [float(b) for b in summary.betas]
            out["beta_max"] = summary.beta_max
        else:
            out["lambda_1"], out["lambda_bottom"] = lambda_constants(chain)
        if chain.n <= MAX_CONDUCTANCE_STATES:
            phi, phi_asym, argmin = conductance(chain)
            out["conductance"] = phi
            out["conductance_asym"] = phi_asym
            out["argmin_cut"] = [chain.labels[i] for i in argmin]
    if args.json:
        print(json.dumps(out, indent=2))
        return 0
    print(f"chain {chain.name}: {chain.n} states")
    print(f"  irreducible: {cls.irreducible}   period: {cls.period}   aperiodic: {cls.aperiodic}")
    print(f"  reversible: {cls.reversible}   min self-loop: {cls.min_self_loop:g}")
    if not cls.irreducible:
        print("  reducible chain: no spectral constants or conductance")
        return 0
    if not cls.aperiodic:
        print("  periodic chain: no discrete mixing time; continuized quantities only")
    print(f"  lambda_1: {out['lambda_1']:.6g}   lambda_bottom: {out['lambda_bottom']:.6g}")
    if "betas" in out:
        shown = ", ".join(f"{b:.6g}" for b in out["betas"][:6])
        more = " ..." if len(out["betas"]) > 6 else ""
        print(f"  eigenvalues: {shown}{more}   beta_max: {out['beta_max']:.6g}")
    if "conductance" in out:
        print(
            f"  conductance: {out['conductance']:.6g} (asym {out['conductance_asym']:.6g}) "
            f"at cut {{{', '.join(out['argmin_cut'])}}}"
        )
    return 0


def _cmd_mix(args) -> int:
    chain = load_chain(args.chain)
    start = None if args.start == "all" else args.start
    fn = continuous_mixing_time if args.continuous else discrete_mixing_time
    res = fn(chain, start, args.eps)
    if args.json:
        print(json.dumps({
            "chain": chain.name,
            "from": "all" if res.from_state is None else chain.labels[res.from_state],
            "epsilon": res.epsilon,
            "continuous": args.continuous,
            "time": res.time,
            "achieved_tv": res.achieved_tv,
        }, indent=2))
        return 0
    who = "worst start" if start is None else f"start {args.start}"
    kind = "continuized" if args.continuous else "discrete"
    print(f"{kind} mixing time of {chain.name} ({who}, eps={args.eps:g}): t = {res.time:g} "
          f"(tv {res.achieved_tv:.3g})")
    return 0


def _cmd_compare(args) -> int:
    base = load_chain(args.base)
    target = load_chain(args.target)
    if args.flow:
        flow = load_flow(args.flow, base, target)
    elif args.auto_flow:
        flow_base = multiply(time_reversal(base), base) if args.product else base
        flow = build_canonical_flow(flow_base, target, odd=args.odd)
    else:
        raise MixboundsError("compare needs --flow FILE or --auto-flow")
    report = full_report(base, target, flow, x=args.start, eps=args.eps,
                         delta=args.delta, sweep=args.sweep)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(f"bounds for {base.name} vs {target.name} (from {report.from_label}, "
              f"eps={report.epsilon:g}, delta={report.delta:g})")
        print(f"  exact discrete tau_x: {report.exact_discrete}   "
              f"exact continuized tau_x: {report.exact_continuous:.6g}")
        for e in report.entries:
            if e.applicable:
                mark = "ok " if e.holds else "BAD"
                print(f"  [{mark}] {e.theorem:5s} {e.direction:5s} bound {e.bound:.6g}  "
                      f"exact {e.exact:.6g}  ({e.quantity})")
            else:
                print(f"  [ - ] {e.theorem:5s} not applicable: {e.reason}")
        print(f"verdict: {report.verdict}")
    return 0 if report.verdict == "pass" else 1


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "mix":
            return _cmd_mix(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "selftest":
            if args.json:
                results = collect_results()
                failed = sum(1 for r in results if not r["passed"])
                print(json.dumps({"checks": results, "failed": failed}, indent=2))
                return 0 if failed == 0 else 1
            return run_selftest(verbose=not args.quiet)
    except MixboundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
