"""The ``coeffs`` command: the series catalogue and its listings.

``SERIES`` names the package function behind each series and the slope it
requires, ``TOP_BINOMIALS`` bounds the top coefficient of each series with a
binomial closed form, and ``print_listing`` prints one series in one of the
four formats, each value once, with JSON values as decimal strings.  Only
``coeffs`` and its help load this module; it takes the slope the CLI has
validated and never imports the CLI itself.
"""

import sys

from .closed_forms import AB_RESTRICTIONS, Restriction, Slope, Step, _binomial_digits_at_least

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


def print_listing(slope: Slope, args, out) -> int:
    """Print ``args.series`` at ``slope`` up to ``args.order`` in ``args.format``."""
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
