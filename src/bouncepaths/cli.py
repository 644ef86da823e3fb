"""Command line front end: coefficient listings, table export, verification.

Output is deterministic for a fixed invocation; table rows are emitted with
the left index ascending, then the right index.  Integer values in JSON are
decimal strings so that consumers without big integers stay exact.
Start-up imports only argparse and the computing layers; json and inspect
are imported by the commands that use them.
"""

import argparse
import sys
from operator import add

from .beta_one import (
    nhc_nrb_series,
    nhc_prefix_series,
    nhc_series,
    rational_dyck_series,
)
from .bounce import (
    bounce_free_ab,
    bounce_free_prefix,
    bounce_free_total,
    bounce_table,
    g_b_series,
    no_left_bounce_total,
    nrb_series,
)
from .closed_forms import (
    AB_RESTRICTIONS,
    Restriction,
    Slope,
    Step,
    fuss_catalan,
    g_ab_series,
    g_prefix_series,
    g_series,
)
from .enumeration import MAX_STEPS, BudgetExceeded

FORMATS = ("table", "csv", "json", "oeis-bfile")


class CliError(Exception):
    pass


# ------------------------------------------------------------------ registry

# Slope requirements of the registry entries.
ANY_SLOPE, BETA1, DIAGONAL = None, "beta1", "diagonal"
NRB_RESTRICTIONS = (Restriction.EE, Restriction.EN, Restriction.NN)
NHC_RESTRICTIONS = (Restriction.EE, Restriction.EN, Restriction.NE)


def _require(requirement, slope: Slope, what: str):
    if requirement == BETA1 and slope.beta != 1:
        raise CliError(f"{what} requires a slope with beta = 1")
    if requirement == DIAGONAL and (slope.alpha, slope.beta) != (1, 1):
        raise CliError(f"{what} requires the diagonal slope alpha = beta = 1")


# A builder(s, a) returns the series for the validated Slope s and the parsed
# arguments a.  Builders look layer functions up by their module-level names
# when called, so a wrapper bound to those names later (a tracer, a test
# double) sees the call.


def _g_ab(r: Restriction):
    return lambda s, a: g_ab_series(s, r.first, r.last, a.order)


def _f_ab(r: Restriction):
    return lambda s, a: bounce_free_ab(s, r, a.order)


def _nrb(r: Restriction):
    return lambda s, a: nrb_series(s, r, a.order)


def _nhc(r: Restriction):
    return lambda s, a: nhc_series(s.alpha, r, a.order)


# name -> (slope requirement, builder)
SERIES = {
    "g": (ANY_SLOPE, lambda s, a: g_series(s, a.order)),
    **{f"g_{r.value}": (ANY_SLOPE, _g_ab(r)) for r in AB_RESTRICTIONS},
    "g_estar": (ANY_SLOPE, lambda s, a: g_prefix_series(s, Step.E, a.order)),
    "g_nstar": (ANY_SLOPE, lambda s, a: g_prefix_series(s, Step.N, a.order)),
    "c_alpha": (BETA1, lambda s, a: fuss_catalan(s.alpha, a.order)),
    "f": (ANY_SLOPE, lambda s, a: bounce_free_total(s, a.order)),
    **{f"f_{r.value}": (ANY_SLOPE, _f_ab(r)) for r in AB_RESTRICTIONS},
    "f_estar": (ANY_SLOPE, lambda s, a: bounce_free_prefix(s, Step.E, a.order)),
    "f_nstar": (ANY_SLOPE, lambda s, a: bounce_free_prefix(s, Step.N, a.order)),
    **{f"nrb_{r.value}": (ANY_SLOPE, _nrb(r)) for r in NRB_RESTRICTIONS},
    "nlb": (ANY_SLOPE, lambda s, a: no_left_bounce_total(s, a.order)),
    "g_b": (DIAGONAL, lambda s, a: g_b_series(a.bounces or 0, a.order)),
    **{f"nhc_{r.value}": (BETA1, _nhc(r)) for r in NHC_RESTRICTIONS},
    "h": (BETA1, lambda s, a: nhc_prefix_series(s.alpha, a.order)),
    "H": (BETA1, lambda s, a: nhc_nrb_series(s.alpha, a.order)),
    "H_ne": (BETA1, lambda s, a: rational_dyck_series(s.alpha, a.order)),
}

SERIES_NAMES = ", ".join(SERIES)


def _slope_and_order(args: argparse.Namespace) -> Slope:
    """The validated slope of a coeffs or bounce-table call."""
    if args.order < 1:
        raise CliError(f"--order must be at least 1, got {args.order}")
    return Slope(args.alpha, args.beta)


# ------------------------------------------------------------------ commands


def cmd_coeffs(args: argparse.Namespace, out) -> int:
    slope = _slope_and_order(args)
    if args.series not in SERIES:
        raise CliError(f"unknown series {args.series!r}; see --help for the catalogue")
    if args.bounces is not None and args.series != "g_b":
        raise CliError(f"--bounces applies only to g_b, not to {args.series!r}")
    requirement, build = SERIES[args.series]
    _require(requirement, slope, f"series {args.series!r}")
    series = build(slope, args)
    start = 0 if args.include_k0 else 1
    pairs = [(k, series.coefficient(k)) for k in range(start, args.order + 1)]
    # every line is rendered before the first write, so a value that cannot
    # be rendered leaves the output empty rather than truncated
    if args.format == "table":
        print(" ".join(str(v) for _, v in pairs), file=out)
    elif args.format == "csv":
        out.write("".join(["k,value\n"] + [f"{k},{v}\n" for k, v in pairs]))
    elif args.format == "oeis-bfile":
        out.write("".join([f"{k} {v}\n" for k, v in pairs]))
    else:
        import json

        payload = {
            "slope": [args.alpha, args.beta],
            "order": args.order,
            "series": {args.series: [str(v) for _, v in pairs]},
        }
        print(json.dumps(payload, indent=2), file=out)
    return 0


def cmd_bounce_table(args: argparse.Namespace, out) -> int:
    slope = _slope_and_order(args)
    max_left = args.max_left if args.max_left is not None else args.order - 1
    max_right = args.max_right if args.max_right is not None else args.order - 1
    restriction = Restriction(args.restriction)
    table = bounce_table(slope, restriction, max_left, max_right, args.order)
    if args.format == "table":
        for l in range(max_left + 1):
            for r in range(max_right + 1):
                coeffs = table.entry(l, r).coeffs[1:]
                print(f"{l} {r} : " + " ".join(map(str, coeffs)), file=out)
    elif args.format == "csv":
        # a cell's lines are "l,r," + "k," + value, one join per cell
        ks = [f"{k}," for k in range(1, table.trunc_order + 1)]
        lines = ["l,r,k,count\n"]
        for l, row in enumerate(table.entries):
            for r, series in enumerate(row):
                cell = f"{l},{r},"
                body = ("\n" + cell).join(map(add, ks, map(str, series.coeffs[1:])))
                lines.append(f"{cell}{body}\n")
        out.write("".join(lines))
    else:
        import json

        payload = {
            "slope": [args.alpha, args.beta],
            "order": args.order,
            "restriction": restriction.value,
            "table": [
                [
                    [str(v) for v in table.entry(l, r).coeffs[1:]]
                    for r in range(max_right + 1)
                ]
                for l in range(max_left + 1)
            ],
        }
        print(json.dumps(payload, indent=2), file=out)
    return 0


# (smallest, largest) value of each verify option: below the smallest a suite
# compares nothing, above the largest it would exceed the oracle's budget.
# syt and total-bounces, the suites that take --n-max, walk diagonal paths of
# 2n steps.
VERIFY_BOUNDS = {
    "count": (1, None), "order": (1, None), "alpha_max": (1, None),
    "n_max": (1, MAX_STEPS // 2),
    "b_max": (0, None), "max_left": (0, None), "max_right": (0, None),
    "max_slope_sum": (2, None), "max_steps": (2, MAX_STEPS),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def cmd_verify(args: argparse.Namespace, out) -> int:
    import inspect

    from . import verify as verification  # only verify needs the suites

    if (args.alpha is None) != (args.beta is None):
        raise CliError("--alpha and --beta select one slope; give both or neither")
    if args.alpha is not None:
        Slope(args.alpha, args.beta)  # rejects a non-coprime pair
    names = args.suite or list(verification.SUITES)
    unknown = [n for n in names if n not in verification.SUITES]
    if unknown:
        raise CliError(
            f"unknown suite(s) {', '.join(unknown)}; "
            f"available: {', '.join(verification.SUITES)}"
        )
    options = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "suite") and value is not None
    }
    for key, (minimum, maximum) in VERIFY_BOUNDS.items():
        if key not in options:
            continue
        if options[key] < minimum:
            raise CliError(f"{_flag(key)} must be at least {minimum}, got {options[key]}")
        if maximum is not None and options[key] > maximum:
            raise CliError(f"{_flag(key)} must be at most {maximum}, got {options[key]}")
    # each suite takes the options its signature names
    accepted = {
        name: inspect.signature(verification.SUITES[name]).parameters for name in names
    }
    unused = [key for key in options if not any(key in a for a in accepted.values())]
    if unused:
        raise CliError(
            f"{', '.join(map(_flag, unused))} taken by none of the suites "
            f"{', '.join(names)}"
        )
    failures = 0
    for name in names:
        kwargs = {key: value for key, value in options.items() if key in accepted[name]}
        print(f"suite {name}:", file=out)
        try:
            results = verification.SUITES[name](**kwargs)
        except BudgetExceeded:  # the request's size, reported by main
            raise
        except Exception as exc:  # a broken formula fails its suite, not the run
            detail = f"{type(exc).__name__}: {exc}"
            results = [verification.CheckResult(f"suite {name} raised", False, detail)]
        for result in results:
            print(f"  {result}", file=out)
            if not result.passed:
                failures += 1
    print(
        f"verify: {'all suites passed' if not failures else f'{failures} check(s) failed'}",
        file=out,
    )
    return 0 if failures == 0 else 1


# -------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouncepaths",
        description="Exact lattice-path bounce statistics on rational slopes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    coeffs = sub.add_parser("coeffs", help="print coefficients of one series")
    coeffs.add_argument("--series", required=True, help=f"one of: {SERIES_NAMES}")
    coeffs.add_argument("--alpha", type=int, required=True)
    coeffs.add_argument("--beta", type=int, default=1)
    coeffs.add_argument("--order", type=int, required=True)
    coeffs.add_argument("--format", choices=FORMATS, default="table")
    coeffs.add_argument("--bounces", type=int, default=None, help="bounce count for g_b")
    coeffs.add_argument(
        "--include-k0", action="store_true", help="also print the k=0 coefficient"
    )

    table = sub.add_parser("bounce-table", help="print the (left, right) grid")
    table.add_argument("--alpha", type=int, required=True)
    table.add_argument("--beta", type=int, default=1)
    table.add_argument("--order", type=int, required=True)
    table.add_argument(
        "--restriction", choices=[r.value for r in Restriction], default="all"
    )
    table.add_argument("--max-left", type=int, default=None)
    table.add_argument("--max-right", type=int, default=None)
    table.add_argument("--format", choices=FORMATS[:3], default="table")

    ver = sub.add_parser("verify", help="run named identity suites")
    ver.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name, repeatable; default runs everything, and an unknown "
        "name lists the available suites",
    )
    ver.add_argument("--alpha", type=int, default=None)
    ver.add_argument("--beta", type=int, default=None)
    ver.add_argument("--order", type=int, default=None)
    ver.add_argument("--max-slope-sum", type=int, default=None)
    ver.add_argument("--max-steps", type=int, default=None)
    ver.add_argument("--max-left", type=int, default=None)
    ver.add_argument("--max-right", type=int, default=None)
    ver.add_argument("--alpha-max", type=int, default=None)
    ver.add_argument("--b-max", type=int, default=None)
    ver.add_argument("--n-max", type=int, default=None)
    ver.add_argument("--count", type=int, default=None, help="randomized inputs")
    ver.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "coeffs":
            return cmd_coeffs(args, out)
        if args.command == "bounce-table":
            return cmd_bounce_table(args, out)
        return cmd_verify(args, out)
    except (CliError, ValueError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
