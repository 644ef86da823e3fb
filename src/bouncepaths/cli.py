"""Command line front end: coefficient listings, table export, verification.

This module handles arguments and rendering only: ``SERIES`` names the
package function behind each series, and ``verify`` hands its options to
:func:`bouncepaths.verify.run`, which checks them and runs the suites.
Every refusal is a ValueError, which ``main`` prints as one ``error:`` line.
Output is deterministic for a fixed invocation; table rows are emitted with
the left index ascending, then the right index.  Integer values in JSON are
decimal strings so that consumers without big integers stay exact.
Start-up imports only argparse and the closed forms with the series ring
they build on.  Each command imports the other layers it runs, and json
when it prints JSON, so a job compiles only the modules its command uses.
``run``, the process entry of ``python -m bouncepaths.cli`` and of the
``bouncepaths`` script, runs ``main`` and then freezes the heap.
"""

import argparse
import gc
import os
import sys
from operator import add

from .closed_forms import AB_RESTRICTIONS, Restriction, Slope, Step, _binomial_digits_at_least

FORMATS = ("table", "csv", "json", "oeis-bfile")
# coefficients a bounce-table may list, (max_left+1)(max_right+1) * order, at
# slope (1,1); each counts (alpha+beta)/2, as coefficients grow with alpha +
# beta, and past the order where the full table reaches the limit,
# (alpha+beta)/2 * order^3 = 100^3, also the square of that ratio, as a cell
# takes about order^2 products.  At the limit, fresh processes took 0.30 s for
# (1,1) order 100 with the default bounds, 0.30-0.37 s for (1,1) orders
# 105-131 with the widest bounds and 0.11 s for order 372 with no bounces
# (best of 4, shared 2-core host, CPython 3.11.7)
MAX_TABLE_COEFFICIENTS = 1_000_000


# ------------------------------------------------------------------ registry

# Slope requirements of the registry entries; each picks the series
# function's first argument: the Slope, its alpha, or the --bounces count.
ANY_SLOPE, BETA1, DIAGONAL = None, "beta1", "diagonal"
NRB_RESTRICTIONS = (Restriction.EE, Restriction.EN, Restriction.NN)
NHC_RESTRICTIONS = (Restriction.EE, Restriction.EN, Restriction.NE)


def _require(requirement, slope: Slope, what: str):
    if requirement == BETA1 and slope.beta != 1:
        raise ValueError(f"{what} requires a slope with beta = 1")
    if requirement == DIAGONAL and (slope.alpha, slope.beta) != (1, 1):
        raise ValueError(f"{what} requires the diagonal slope alpha = beta = 1")


# name -> (slope requirement, function exported by the package, *fixed
# arguments); the series is function(first, *fixed, order).  The function is
# read from the package when the series is built, so a job loads only the
# layer that defines it, and a wrapper bound on that layer later (a tracer, a
# test double) is the function that runs.
SERIES = {
    "g": (ANY_SLOPE, "g_series"),
    **{f"g_{r.value}": (ANY_SLOPE, "g_ab_series", r.first, r.last) for r in AB_RESTRICTIONS},
    "g_estar": (ANY_SLOPE, "g_prefix_series", Step.E),
    "g_nstar": (ANY_SLOPE, "g_prefix_series", Step.N),
    "c_alpha": (BETA1, "fuss_catalan"),
    "f": (ANY_SLOPE, "bounce_free_total"),
    **{f"f_{r.value}": (ANY_SLOPE, "bounce_free_ab", r) for r in AB_RESTRICTIONS},
    "f_estar": (ANY_SLOPE, "bounce_free_prefix", Step.E),
    "f_nstar": (ANY_SLOPE, "bounce_free_prefix", Step.N),
    **{f"nrb_{r.value}": (ANY_SLOPE, "nrb_series", r) for r in NRB_RESTRICTIONS},
    "nlb": (ANY_SLOPE, "no_left_bounce_total"),
    "g_b": (DIAGONAL, "g_b_series"),
    **{f"nhc_{r.value}": (BETA1, "nhc_series", r) for r in NHC_RESTRICTIONS},
    "h": (BETA1, "nhc_prefix_series"),
    "H": (BETA1, "nhc_nrb_series"),
    "H_ne": (BETA1, "rational_dyck_series"),
}

SERIES_NAMES = ", ".join(SERIES)


# name -> (m, n, q) of a lower bound C(m, n) / q on the coefficient of x^N,
# from (alpha, beta, N, bounces), for the series with a binomial closed form.
# A g_ab class fixes two steps, leaving sN - 2 of which aN - e are east, with
# e its east ends; g_estar and g_nstar are at least their EN or NE part.
TOP_BINOMIALS = {
    "g": lambda a, b, n, _: ((a + b) * n, a * n, 1),
    **{
        name: lambda a, b, n, _, e=e: ((a + b) * n - 2, a * n - e, 1)
        for name, e in zip(("g_ee", "g_en", "g_ne", "g_nn", "g_estar", "g_nstar"),
                           (2, 1, 1, 0, 1, 1))
    },
    # c_alpha, then alpha*(c_alpha - 1) and c_alpha - 1 past x^0
    **dict.fromkeys(("c_alpha", "H", "H_ne"), lambda a, b, n, _: ((a + 1) * n, n, a * n + 1)),
    # alpha*(alpha+2) C((alpha+1)N+1, N-1) / ((alpha+1)N+1)
    "h": lambda a, b, n, _: ((a + 1) * n + 1, n - 1, (a + 1) * n + 1),
    # 2(b+1) C(2N, N-b-1) / N; g_b_series refuses a negative b itself
    "g_b": lambda a, b, n, bounces: (2 * n, n - bounces - 1 if bounces >= 0 else -1, n),
}


def _slope_and_order(args: argparse.Namespace) -> Slope:
    """The validated slope of a coeffs or bounce-table call."""
    if args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    return Slope(args.alpha, args.beta)


# ------------------------------------------------------------------ commands


def cmd_coeffs(args: argparse.Namespace, out) -> int:
    slope = _slope_and_order(args)
    if args.series not in SERIES:
        raise ValueError(f"unknown series {args.series!r}; see --help for the catalogue")
    if args.bounces is not None and args.series != "g_b":
        raise ValueError(f"--bounces applies only to g_b, not to {args.series!r}")
    requirement, function, *fixed = SERIES[args.series]
    _require(requirement, slope, f"series {args.series!r}")
    first = {ANY_SLOPE: slope, BETA1: slope.alpha, DIAGONAL: args.bounces or 0}[requirement]
    limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
    if limit and args.series in TOP_BINOMIALS:
        m, n, q = TOP_BINOMIALS[args.series](slope.alpha, slope.beta, args.order, args.bounces or 0)
        if _binomial_digits_at_least(m, n, q) > limit:
            # the top value cannot be text: the interpreter's own error, raised
            # by an int of 1.2 * limit digits before its conversion starts
            str(1 << 4 * limit)
    series = getattr(sys.modules[__package__], function)(first, *fixed, args.order)
    start = 0 if args.include_k0 else 1
    # each value becomes text once before any write, so one past the int-to-str
    # digit limit raises before any output
    values = list(map(str, series.coeffs[start:]))
    if args.format == "table":
        print(" ".join(values), file=out)
    elif args.format == "csv":
        out.write("".join(["k,value\n"] + [f"{k},{v}\n" for k, v in enumerate(values, start)]))
    elif args.format == "oeis-bfile":
        out.write("".join([f"{k} {v}\n" for k, v in enumerate(values, start)]))
    else:
        import json

        payload = {
            "slope": [args.alpha, args.beta],
            "order": args.order,
            "series": {args.series: values},
        }
        print(json.dumps(payload, indent=2), file=out)
    return 0


def cmd_bounce_table(args: argparse.Namespace, out) -> int:
    from . import bounce

    slope = _slope_and_order(args)
    max_left = args.max_left if args.max_left is not None else args.order - 1
    max_right = args.max_right if args.max_right is not None else args.order - 1
    size = (max_left + 1) * (max_right + 1) * args.order
    # twice the weighted size of the full table at this order, and at (1,1) order 100
    steps, reach = slope.alpha + slope.beta, 2 * 100**3
    full = max(reach, steps * args.order**3)
    limit = 2 * MAX_TABLE_COEFFICIENTS * reach**2 // (steps * full**2)
    if min(max_left, max_right) >= 0 and size > limit:
        raise ValueError(
            f"a table of {size} coefficients exceeds the limit of "
            f"{limit}; lower --order, --max-left or --max-right"
        )
    restriction = Restriction(args.restriction)
    table = bounce.bounce_table(slope, restriction, max_left, max_right, args.order)
    # the mirrored cells of a symmetric table are one Series, and so are its
    # zero cells: each distinct cell is rendered once, from its first nonzero
    # coefficient on, after a slice of one rendering of the zero coefficients
    order = table.trunc_order
    labels = [f"{k}," for k in range(1, order + 1)] if args.format == "csv" else None
    zeros = [label + "0" for label in labels] if labels else ["0"] * order
    text = {}
    for row in table.entries:
        for series in row:
            if id(series) not in text:
                v = series.valuation()
                start = order + 1 if v is None else max(v, 1)
                values = map(str, series.coeffs[start:])
                if labels:  # csv: "k,value"
                    values = map(add, labels[start - 1 :], values)
                text[id(series)] = zeros[: start - 1] + list(values)
    if args.format == "table":
        joined = {key: " ".join(values) for key, values in text.items()}
        for l, row in enumerate(table.entries):
            for r, series in enumerate(row):
                print(f"{l} {r} : {joined[id(series)]}", file=out)
    elif args.format == "csv":
        # a cell's lines are "l,r," + "k,value", one join per cell
        lines = ["l,r,k,count\n"]
        for l, row in enumerate(table.entries):
            for r, series in enumerate(row):
                cell = f"{l},{r},"
                lines.append(cell + ("\n" + cell).join(text[id(series)]) + "\n")
        out.write("".join(lines))
    else:
        import json

        payload = {
            "slope": [args.alpha, args.beta],
            "order": args.order,
            "restriction": restriction.value,
            "table": [[text[id(series)] for series in row] for row in table.entries],
        }
        print(json.dumps(payload, indent=2), file=out)
    return 0


def cmd_verify(args: argparse.Namespace, out) -> int:
    from . import verify  # only verify needs the suites

    options = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "suite") and value is not None
    }
    return verify.run(args.suite or (), options, out)


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
    for flag in (
        "--alpha", "--beta", "--order", "--max-slope-sum", "--max-steps", "--max-left",
        "--max-right", "--alpha-max", "--b-max", "--n-max", "--count", "--seed",
    ):
        text = "randomized inputs" if flag == "--count" else None
        ver.add_argument(flag, type=int, default=None, help=text)
    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"coeffs": cmd_coeffs, "bounce-table": cmd_bounce_table, "verify": cmd_verify}
    try:
        code = commands[args.command](args, out)
        out.flush()  # a reader that left early fails here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed the output; it hears nothing
        if out is sys.stdout:  # the flush at exit would fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 1


def run() -> int:
    """``main`` as a whole process: once it returns or raises, the heap is
    frozen, so the full collections the interpreter runs while it finalizes
    skip the objects the job leaves.  atexit handlers still run."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
