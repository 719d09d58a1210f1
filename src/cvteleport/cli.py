"""Command-line front end.

Subcommands: fidelity, optimize, entanglement, localize, sweep, verify.
Output is csv (default) or json; floats are rendered with at most 12
significant digits so repeated runs are byte identical.  Exit codes: 0 on
success, 1 when a verify suite exceeds tolerance, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .gaussian import ResourceSpec, build_resource
from .entanglement import (
    _contangle, _is_pure_three_mode, entanglement_of_teleportation, entanglement_report,
    eof_symmetric)
from .localize import localizable_report
from .mc import McConfig, simulate
from .optimize import (
    _d_unbiased,
    _fidelity,
    _optimum,
    _worst_case,
    d_N_opt,
    g_N_opt,
    numerical_optimum,
    optimal_fidelity,
)
from .teleport import ProtocolParams, fidelity_network, variances_closed_form_network

SWEEP_COLUMNS = [
    "N", "rbar", "F_opt", "F_equal", "F_unbiased", "F_worst",
    "eta_N", "E_T", "E_F_loc", "E_tau",
]


def _fmt(value) -> str:
    if isinstance(value, float):  # the common case, first
        return "inf" if math.isinf(value) else f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if math.isinf(value):
        return "inf"
    return f"{float(value):.12g}"


def _round_trip(value):
    """Round a value through the 12-significant-digit CSV rendering so the
    JSON and CSV encodings carry identical numbers."""
    if value is None or isinstance(value, (str, bool, int, np.integer)):
        return value
    if math.isinf(value):
        return "inf"
    return float(_fmt(value))


def _emit(record: dict, output: str, stream) -> None:
    if output == "json":
        doc = {"tool": "cvteleport", "version": __version__}
        doc.update({k: _round_trip(v) for k, v in record.items()})
        json.dump(doc, stream, indent=2)
        stream.write("\n")
    else:
        keys = list(record)
        stream.write(",".join(keys) + "\n")
        stream.write(",".join(_fmt(record[k]) for k in keys) + "\n")


def _spec_from_args(args) -> ResourceSpec:
    """The resource at --d, by default at d_N_opt; validated before d_N_opt runs."""
    spec = ResourceSpec(args.N, args.n1, args.n2, args.rbar, constrain_bias=False)
    d = getattr(args, "d", None)
    return replace(spec, d=d_N_opt(spec.N, spec.n1, spec.n2, spec.rbar) if d is None else d)


def _add_spec_args(p: argparse.ArgumentParser, with_d: bool = True) -> None:
    p.add_argument("--N", type=int, required=True, help="number of users (modes)")
    p.add_argument("--n1", type=float, default=1.0, help="thermal noise of the momentum-squeezed mode")
    p.add_argument("--n2", type=float, default=1.0, help="thermal noise of the position-squeezed modes")
    p.add_argument("--rbar", type=float, required=True, help="average squeezing")
    if with_d:
        p.add_argument("--d", type=float, default=None,
                       help="squeezing bias (default: optimal bias d_N_opt)")
    p.add_argument("--output", choices=["csv", "json"], default="csv")
    p.add_argument("--log-base", choices=["2", "e"], default="2")


def _base(args) -> float:
    return 2.0 if args.log_base == "2" else math.e


def cmd_fidelity(args) -> int:
    spec = _spec_from_args(args)
    gain = "optimal" if args.gain is None else args.gain
    outcome = fidelity_network(spec, ProtocolParams(gain=gain))
    _emit(
        {
            "N": spec.N, "n1": spec.n1, "n2": spec.n2, "rbar": spec.rbar, "d": spec.d,
            "gain": outcome.gain_used,
            "var_x_rel": outcome.var_x_rel, "var_p_tot": outcome.var_p_tot,
            "fidelity": outcome.fidelity,
        },
        args.output, sys.stdout,
    )
    return 0


def cmd_optimize(args) -> int:
    if args.method == "numerical":
        res = numerical_optimum(args.N, args.n1, args.n2, args.rbar)
    else:
        res = optimal_fidelity(args.N, args.n1, args.n2, args.rbar,
                               constrain_bias=args.constrain_bias)
    record = {"N": args.N, "n1": args.n1, "n2": args.n2, "rbar": args.rbar}
    record.update(asdict(res))
    _emit(record, args.output, sys.stdout)
    return 0


def cmd_entanglement(args) -> int:
    spec = _spec_from_args(args)
    rep = entanglement_report(spec, base=_base(args))
    record = {"N": spec.N, "n1": spec.n1, "n2": spec.n2, "rbar": spec.rbar, "d": spec.d}
    record.update(asdict(rep))
    _emit(record, args.output, sys.stdout)
    return 0


def cmd_localize(args) -> int:
    spec = _spec_from_args(args)
    record = {"N": spec.N, "n1": spec.n1, "n2": spec.n2, "rbar": spec.rbar}
    record.update(localizable_report(spec, base=_base(args)))
    _emit(record, args.output, sys.stdout)
    return 0


def sweep_rows(N_list, rbars, n1: float, n2: float, base: float = 2.0) -> list[dict]:
    """One row per (N, rbar), N-major order, with every Fig.-1-style curve.

    The inputs are validated once per N, by a ResourceSpec at the smallest and
    at the largest rbar; every row lies between the two.  The rows then come
    from the kernels that optimal_fidelity, worst_case, d_unbiased and
    eta_generalized run after validating, with g_N_opt computed once per row.
    """
    # min and max skip a NaN that is not first, so NaNs are checked on their own
    checked = {min(rbars), max(rbars), *filter(math.isnan, rbars)} if rbars else ()
    rows = []
    for N in N_list:
        for rbar in checked:
            ResourceSpec(N, n1, n2, rbar)
        pure_three_mode = _is_pure_three_mode(N, n1, n2)
        for rbar in rbars:
            key = (N, n1, n2, rbar)
            g, F_opt, eta_N = _optimum(*key)
            rows.append({
                "N": N, "rbar": rbar,
                "F_opt": F_opt,
                "F_equal": _fidelity(key, 0.0, g),
                "F_unbiased": _fidelity(key, _d_unbiased(*key), g),
                "F_worst": _worst_case(key, g).fidelity_worst,
                "eta_N": eta_N,
                "E_T": entanglement_of_teleportation(eta_N),
                "E_F_loc": eof_symmetric(eta_N, base),
                "E_tau": _contangle(eta_N, base) if pure_three_mode else None,
            })
    return rows


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    if args.rbar_max < args.rbar_min:
        raise ValueError("rbar-max must be >= rbar-min")
    N_list = [int(x) for x in args.N_list.split(",")]
    if any(N < 2 for N in N_list):
        raise ValueError("every N in the sweep must be >= 2")
    rbars = [args.rbar_min + i * (args.rbar_max - args.rbar_min) / (args.steps - 1)
             for i in range(args.steps)]
    rows = sweep_rows(N_list, rbars, args.n1, args.n2, base=_base(args))
    if args.output == "json":
        doc = {
            "tool": "cvteleport", "version": __version__,
            "config": {"N_list": N_list, "rbar_min": args.rbar_min,
                       "rbar_max": args.rbar_max, "steps": args.steps,
                       "n1": args.n1, "n2": args.n2, "log_base": args.log_base},
            "rows": [{k: _round_trip(v) for k, v in r.items()} for r in rows],
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(",".join(SWEEP_COLUMNS) + "\n")
        for r in rows:
            sys.stdout.write(",".join([_fmt(r[c]) for c in SWEEP_COLUMNS]) + "\n")
    return 0


def _verify_suites(seed: int, samples: int, inject_fault: bool) -> list[tuple[str, float, float]]:
    """Each suite returns (name, max deviation, tolerance)."""
    from .entanglement import eta_generalized, eta_two_mode
    from .localize import localize
    from .teleport import teleported_variances

    suites = []

    # closed-form variances vs covariance-matrix pipeline
    dev = 0.0
    for N in (2, 3, 4, 8, 20):
        for rbar in (0.0, 0.5, 1.0, 2.0):
            for n1 in (1.0, 2.0):
                for n2 in (1.0, 2.0):
                    for dfrac in (-0.5, 0.0, 0.5):
                        spec = ResourceSpec(N, n1, n2, rbar, dfrac * rbar)
                        sigma = build_resource(spec)
                        for g in (0.0, 1.0):
                            vx, vp = teleported_variances(sigma, 0, 1, g)
                            cx, cp = variances_closed_form_network(spec, g)
                            dev = max(dev, abs(vx - cx), abs(vp - cp))
    if inject_fault:
        dev += 1.0
    suites.append(("closed-form vs pipeline variances", dev, 1e-10))

    # closed-form optimum vs numerical oracle
    dev = 0.0
    for N in (2, 3, 8, 50):
        for rbar in (0.25, 1.0, 2.0):
            for n1, n2 in ((1.0, 1.0), (2.0, 1.5)):
                num = numerical_optimum(N, n1, n2, rbar)
                dev = max(dev, abs(num.d_opt - d_N_opt(N, n1, n2, rbar)))
                if N > 2:
                    dev = max(dev, abs(num.g_opt - g_N_opt(N, n1, n2, rbar)))
    suites.append(("numerical optimizer vs closed forms", dev, 1e-8))

    # dense homodyne localization vs eta_N
    dev = 0.0
    for N in (3, 4, 8):
        for rbar in (0.25, 0.5, 1.0):
            for n1, n2 in ((1.0, 1.0), (1.5, 1.0)):
                spec = ResourceSpec(N, n1, n2, rbar, d_N_opt(N, n1, n2, rbar),
                                    constrain_bias=False)
                eta_loc = eta_two_mode(localize(build_resource(spec)).cm)
                dev = max(dev, abs(eta_loc - eta_generalized(spec)))
    suites.append(("homodyne localization vs eta_N", dev, 1e-9))

    # Monte Carlo vs analytic, in standard-error units
    dev = 0.0
    for N, rbar in ((2, 0.5), (3, 0.5), (4, 1.0)):
        spec = ResourceSpec(N, 1.0, 1.0, rbar, d_N_opt(N, 1.0, 1.0, rbar),
                            constrain_bias=False)
        est = simulate(McConfig(samples=samples, seed=seed, spec=spec))
        analytic = optimal_fidelity(N, 1.0, 1.0, rbar).fidelity_opt
        dev = max(dev, abs(est.fidelity_mean - analytic) / est.std_error)
    suites.append(("Monte Carlo vs analytic (sigmas)", dev, 3.0))
    return suites


def cmd_verify(args) -> int:
    suites = _verify_suites(args.seed, args.samples, args.inject_fault)
    ok = True
    for name, dev, tol in suites:
        status = "ok" if dev <= tol else "FAIL"
        ok = ok and dev <= tol
        print(f"{name}: max deviation {_fmt(dev)} (tolerance {_fmt(tol)}) {status}")
    print("verify:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvteleport",
        description="Fidelities and entanglement of N-user CV teleportation networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="teleportation fidelity of one resource")
    _add_spec_args(p)
    p.add_argument("--gain", type=float, default=None, help="feed-forward gain (default optimal)")
    p.set_defaults(fn=cmd_fidelity)

    p = sub.add_parser("optimize", help="optimal bias, gain and fidelity")
    _add_spec_args(p, with_d=False)
    p.add_argument("--method", choices=["closed-form", "numerical"], default="closed-form")
    p.add_argument("--constrain-bias", action="store_true",
                   help="clamp the optimal bias to [-rbar, rbar]")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("entanglement", help="entanglement report for one resource")
    _add_spec_args(p)
    p.set_defaults(fn=cmd_entanglement)

    p = sub.add_parser("localize", help="homodyne-localized entanglement vs eta_N")
    _add_spec_args(p, with_d=False)
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("sweep", help="fidelity/entanglement curves over rbar and N")
    p.add_argument("--rbar-min", type=float, default=0.0)
    p.add_argument("--rbar-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=41)
    p.add_argument("--N-list", default="2,3,4,8,20,50")
    p.add_argument("--n1", type=float, default=1.0)
    p.add_argument("--n2", type=float, default=1.0)
    p.add_argument("--output", choices=["csv", "json"], default="csv")
    p.add_argument("--log-base", choices=["2", "e"], default="2")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-check suites")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=int, default=200000)
    p.add_argument("--inject-fault", action="store_true",
                   help="force a suite failure (test harness hook)")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
