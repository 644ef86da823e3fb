"""The ``bounce-table`` command: its size check and the grid's rendering.

``print_table`` refuses a table past ``MAX_TABLE_COEFFICIENTS`` before any
work, builds the grid with :func:`bouncepaths.bounce.bounce_table`, and
prints it with the left index ascending, then the right index, and JSON
values as decimal strings.  Only ``bounce-table`` loads this module; it
takes the slope the CLI has validated and never imports the CLI itself.
"""

from operator import add

from . import bounce
from .closed_forms import Restriction, Slope

# coefficients a bounce-table may list, (max_left+1)(max_right+1) * order, at
# slope (1,1); each counts (alpha+beta)/2, as coefficients grow with alpha +
# beta, and past the order where the full table reaches the limit,
# (alpha+beta)/2 * order^3 = 100^3, also the square of that ratio, as a cell
# takes about order^2 products.  At the limit, fresh processes took 0.30 s for
# (1,1) order 100 with the default bounds, 0.30-0.37 s for (1,1) orders
# 105-131 with the widest bounds and 0.11 s for order 372 with no bounces
# (best of 4, shared 2-core host, CPython 3.11.7)
MAX_TABLE_COEFFICIENTS = 1_000_000


def print_table(slope: Slope, args, out) -> int:
    """Print the grid of ``args.restriction`` at ``slope`` in ``args.format``."""
    order = args.order
    max_left = args.max_left if args.max_left is not None else order - 1
    max_right = args.max_right if args.max_right is not None else order - 1
    size = (max_left + 1) * (max_right + 1) * order
    # twice the weighted size of the full table at this order, and at (1,1) order 100
    steps, reach = slope.alpha + slope.beta, 2 * 100**3
    full = max(reach, steps * order**3)
    limit = 2 * MAX_TABLE_COEFFICIENTS * reach**2 // (steps * full**2)
    if min(max_left, max_right) >= 0 and size > limit:
        raise ValueError(
            f"a table of {size} coefficients exceeds the limit of "
            f"{limit}; lower --order, --max-left or --max-right"
        )
    restriction = Restriction(args.restriction)
    table = bounce.bounce_table(slope, restriction, max_left, max_right, order)
    # the mirrored cells of a symmetric table are one Series, and so are its
    # zero cells: each distinct cell is rendered once, from its first nonzero
    # coefficient on, after a slice of one rendering of the zero coefficients
    labels = [f"{k}," for k in range(1, order + 1)] if args.format == "csv" else None
    zeros = [label + "0" for label in labels] if labels else ["0"] * order
    text = {}
    for row in table:
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
        for l, row in enumerate(table):
            for r, series in enumerate(row):
                print(f"{l} {r} : {joined[id(series)]}", file=out)
    elif args.format == "csv":
        # a cell's lines are "l,r," + "k,value", one join per cell
        lines = ["l,r,k,count\n"]
        for l, row in enumerate(table):
            for r, series in enumerate(row):
                cell = f"{l},{r},"
                lines.append(cell + ("\n" + cell).join(text[id(series)]) + "\n")
        out.write("".join(lines))
    else:
        import json

        payload = {
            "slope": [args.alpha, args.beta],
            "order": order,
            "restriction": restriction.value,
            "table": [[text[id(series)] for series in row] for row in table],
        }
        print(json.dumps(payload, indent=2), file=out)
    return 0
