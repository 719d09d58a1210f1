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
import numbers
import sys
from dataclasses import asdict, replace

from . import __version__
from .entanglement import entanglement_of_teleportation, entanglement_report, eof_symmetric
from .localize import localizable_report
from .optimize import d_N_opt, g_N_opt, numerical_optimum, optimal_fidelity
from .structured import IsoEntangledClass, ResourceSpec, network_variances
from .teleport import ProtocolParams, fidelity_network

SWEEP_COLUMNS = [
    "N", "rbar", "F_opt", "F_equal", "F_unbiased", "F_worst",
    "eta_N", "E_T", "E_F_loc", "E_tau",
]
# A sweep CSV row: N, eight floats as _fmt renders them, then E_tau (empty for None).
_SWEEP_ROW = "%d" + ",%.12g" * 8 + ","


def _fmt(value) -> str:
    if isinstance(value, float):  # the common case, first
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, numbers.Integral)):  # int first: skips the ABC check
        return str(int(value))
    return f"{float(value):.12g}"


def _round_trip(value):
    """Round a value through the 12-significant-digit CSV rendering so the
    JSON and CSV encodings carry identical numbers."""
    if value is None or isinstance(value, (str, bool, int, numbers.Integral)):
        return value
    if math.isinf(value):
        return _fmt(value)
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
    """The resource at --d, by default at its class's optimal bias d_N_opt."""
    spec = ResourceSpec(args.N, args.n1, args.n2, args.rbar, constrain_bias=False)
    d = getattr(args, "d", None)
    return replace(spec, d=spec.iso.d_opt if d is None else d)


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


def _sweep_tuples(N_list, rbars, n1: float, n2: float, base: float):
    """One SWEEP_COLUMNS-ordered tuple per (N, rbar), N-major, each from its own class."""
    for N in N_list:
        for rbar in rbars:
            iso = IsoEntangledClass(N, n1, n2, rbar)
            eta_N, g = iso.eta_N, iso.gain
            yield (N, rbar, iso.fidelity_opt, iso.fidelity(0.0, g),
                   iso.fidelity(iso.d_unbiased, g), iso.worst_case(g).fidelity_worst, eta_N,
                   entanglement_of_teleportation(eta_N), eof_symmetric(eta_N, base),
                   iso.contangle(base))


def sweep_rows(N_list, rbars, n1: float, n2: float, base: float = 2.0) -> list[dict]:
    """One row per (N, rbar), N-major order, with every Fig.-1-style curve.

    Each row validates its (N, n1, n2, rbar) by building its own iso-entangled
    class, and every curve is one of the class's closed forms, at its optimal
    gain.
    """
    return [dict(zip(SWEEP_COLUMNS, row)) for row in _sweep_tuples(N_list, rbars, n1, n2, base)]


def cmd_sweep(args) -> int:
    if args.steps < 2:
        raise ValueError("sweep needs at least 2 steps")
    for flag, value in (("--rbar-min", args.rbar_min), ("--rbar-max", args.rbar_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.rbar_max < args.rbar_min:
        raise ValueError("rbar-max must be >= rbar-min")
    try:
        N_list = [int(x) for x in args.N_list.split(",")]
    except ValueError:
        raise ValueError(f"--N-list takes comma-separated integers, got {args.N_list!r}") from None
    if any(N < 2 for N in N_list):
        raise ValueError("every N in the sweep must be >= 2")
    if args.rbar_min < 0:  # the rows' own check, made before rbar_max - rbar_min can overflow
        raise ValueError("average squeezing rbar must be >= 0")
    rbars = [args.rbar_min + i * (args.rbar_max - args.rbar_min) / (args.steps - 1)
             for i in range(args.steps)]
    rows = _sweep_tuples(N_list, rbars, args.n1, args.n2, _base(args))
    if args.output == "json":
        doc = {
            "tool": "cvteleport", "version": __version__,
            "config": {"N_list": N_list, "rbar_min": args.rbar_min,
                       "rbar_max": args.rbar_max, "steps": args.steps,
                       "n1": args.n1, "n2": args.n2, "log_base": args.log_base},
            "rows": [{c: _round_trip(v) for c, v in zip(SWEEP_COLUMNS, r)} for r in rows],
        }
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        lines = [",".join(SWEEP_COLUMNS)]
        lines += [_SWEEP_ROW % r[:9] + ("" if r[9] is None else "%.12g" % r[9]) for r in rows]
        sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _verify_suites(seed: int, samples: int, inject_fault: bool) -> list[tuple[str, float, float]]:
    """Each suite returns (name, max deviation, tolerance); the only route that
    loads numpy, through the dense layer and the Monte Carlo sampler."""
    import numpy as np

    from .entanglement import eta_generalized, eta_two_mode
    from .gaussian import build_resource, resource_entries, validated
    from .localize import localize
    from .mc import McConfig, form_variances, pair_forms, simulate
    from .teleport import teleported_variances

    suites = []

    # closed-form variances vs covariance-matrix pipeline, on a grid of (n1, n2, rbar, d),
    # built and validated as one stack per N; the inputs' variances do not depend on N
    grid = [(n1, n2, rbar, dfrac * rbar) for rbar in (0.0, 0.5, 1.0, 2.0)
            for n1 in (1.0, 2.0) for n2 in (1.0, 2.0) for dfrac in (-0.5, 0.0, 0.5)]
    variances = np.array([ResourceSpec(2, *point).variances for point in grid]).T
    dev = 0.0
    for N in (2, 3, 4, 8, 20):
        stack = validated(resource_entries(N, variances))
        for g in (0.0, 1.0):
            vx, vp = teleported_variances(stack, 0, 1, g)
            cx, cp = network_variances(N, variances, g)
            dev = max(dev, np.abs(vx - cx).max(), np.abs(vp - cp).max())
    if inject_fault:
        dev += 1.0
    suites.append(("closed-form vs pipeline variances", float(dev), 1e-10))

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

    # the sampler's two-moment variances vs closed form (suite 1 checks the splitter), to 10^4
    dev = 0.0
    for N in (2, 3, 4, 8, 20, 50, 200, 1000, 10_000):
        for g in (0.0, 1.0):
            got = form_variances(N, variances, *pair_forms(N, 0, 1, g))
            dev = max(dev, np.abs(np.divide(got, network_variances(N, variances, g)) - 1).max())
    suites.append(("Monte Carlo pull-back vs closed form (relative)", float(dev), 1e-12))
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
