"""Command line front end: coefficient listings, table export, verification.

This module parses arguments and hands each command what it has checked:
``coeffs`` to :mod:`bouncepaths.catalogue`, which lists the series,
``bounce-table`` to :mod:`bouncepaths.tables`, which renders the grid, and
``verify`` to :func:`bouncepaths.verify.run`, which checks its options and
runs the suites.
Every refusal is a ValueError, which ``main`` prints as one ``error:`` line.
``GRAMMAR`` spells every command's flags once: ``parse`` reads every
command line from it, and ``cmd_help`` renders help from it.
Start-up imports only the closed forms with the series ring they build on.
Each command imports its own module and the layers it runs, and json when
it prints JSON, so a job compiles only the code its command uses.
``run``, the process entry of ``python -m bouncepaths.cli`` and of the
``bouncepaths`` script, runs ``main`` and then freezes the heap.
"""

import gc
import os
import sys
from types import SimpleNamespace

from .closed_forms import Restriction, Slope

FORMATS = ("table", "csv", "json", "oeis-bfile")


def _slope_and_order(args) -> Slope:
    """The validated slope of a coeffs or bounce-table call."""
    if args.order < 1:
        raise ValueError(f"--order must be at least 1, got {args.order}")
    return Slope(args.alpha, args.beta)


# ------------------------------------------------------------------ commands


def cmd_coeffs(args, out) -> int:
    slope = _slope_and_order(args)
    from . import catalogue  # only coeffs needs the catalogue

    return catalogue.print_listing(slope, args, out)


def cmd_bounce_table(args, out) -> int:
    slope = _slope_and_order(args)
    from . import tables  # only bounce-table needs the renderer

    return tables.print_table(slope, args, out)


def cmd_verify(args, out) -> int:
    from . import verify  # only verify needs the suites

    options = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "suite") and value is not None
    }
    return verify.run(args.suite or (), options, out)


# -------------------------------------------------------------------- parser

# the grammar, command -> (help, {flag: spec}), read by parse and by cmd_help;
# a spec may give a type, default, choices, required mark, action and help
SLOPE_FLAGS = {
    "--alpha": {"type": int, "required": True},
    "--beta": {"type": int, "default": 1},
    "--order": {"type": int, "required": True},
}
GRAMMAR = {
    "coeffs": ("print coefficients of one series", {
        "--series": {"required": True, "help": "one of:"},  # + the catalogue's names
        **SLOPE_FLAGS,
        "--format": {"choices": FORMATS, "default": "table"},
        "--bounces": {"type": int, "help": "bounce count for g_b"},
        "--include-k0": {
            "action": "store_true", "default": False, "help": "also print the k=0 coefficient"
        },
    }),
    "bounce-table": ("print the (left, right) grid", {
        **SLOPE_FLAGS,
        "--restriction": {"choices": [r.value for r in Restriction], "default": "all"},
        "--max-left": {"type": int},
        "--max-right": {"type": int},
        "--format": {"choices": FORMATS[:3], "default": "table"},
    }),
    "verify": ("run named identity suites", {
        "--suite": {
            "action": "append",
            "help": "suite name, repeatable; default runs everything, and an unknown "
            "name lists the available suites",
        },
        **{
            flag: {"type": int, "help": "randomized inputs" if flag == "--count" else None}
            for flag in (
                "--alpha", "--beta", "--order", "--max-slope-sum", "--max-steps", "--max-left",
                "--max-right", "--alpha-max", "--b-max", "--n-max", "--count", "--seed",
            )
        },
    }),
}


def cmd_help(args, out) -> int:
    """The commands, or the flags of the command asked about, from GRAMMAR."""
    if args.topic not in GRAMMAR:
        head = "{%s} ...\n\ncommands:" % ",".join(GRAMMAR)
        rows = {command: [text] for command, (text, _) in GRAMMAR.items()}
    else:
        text, flags = GRAMMAR[args.topic]
        head, rows = f"{args.topic} [--flag VALUE ...]\n\n{text}\n\nflags:", {}
        for flag, spec in flags.items():
            value = "{%s}" % ",".join(spec["choices"]) if "choices" in spec else flag[2:].upper()
            key = flag if spec.get("action") == "store_true" else f"{flag} {value}"
            note = spec.get("help")
            if flag == "--series":  # only this help loads the catalogue
                from .catalogue import SERIES_NAMES

                note += f" {SERIES_NAMES}"
            rows[key] = [spec.get("required") and "required",
                         spec.get("default") and f"default {spec['default']}", note]
    lines = [f"  {key:<20} {'; '.join(filter(None, notes))}" for key, notes in rows.items()]
    out.write("\n".join([f"usage: bouncepaths {head}", *map(str.rstrip, lines), ""]))
    return 0


def parse(argv):
    """The namespace of ``argv``: a command, then its flags, each but a
    store-true flag with its value next or after ``=``; ``-h`` or ``--help``
    anywhere asks for help.  Anything else is a ValueError of one line."""
    if "-h" in argv or "--help" in argv:
        return SimpleNamespace(command="help", topic=argv[0])
    if not argv or argv[0] not in GRAMMAR:
        raise ValueError(f"expected a command, one of {', '.join(GRAMMAR)}; got {argv[:1]}")
    command, flags = argv[0], GRAMMAR[argv[0]][1]
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        spec, where = flags.get(flag), f"{command} {flag}"
        if spec is None:
            raise ValueError(f"{command}: unknown flag {flag!r}; its flags are {', '.join(flags)}")
        if spec.get("action") == "store_true":
            if eq:
                raise ValueError(f"{where} takes no value")
            given[flag] = True
            continue
        if not eq:
            value = next(tokens, "--")  # no value reads as a flag
            if value.startswith("--"):
                raise ValueError(f"{where} needs a value")
        if value not in spec.get("choices", [value]):
            raise ValueError(f"{where}: {value!r} is not one of {', '.join(spec['choices'])}")
        if spec.get("type") is int:
            try:
                value = int(value)
            except ValueError as exc:  # not an integer, or past the digit limit
                raise ValueError(f"{where}: {exc}") from None
        given[flag] = given.get(flag, []) + [value] if spec.get("action") == "append" else value
    missing = [flag for flag, spec in flags.items() if spec.get("required") and flag not in given]
    if missing:
        raise ValueError(f"{command} requires {', '.join(missing)}")
    return SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): given.get(flag, spec.get("default"))
        for flag, spec in flags.items()
    })


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    commands = {"coeffs": cmd_coeffs, "bounce-table": cmd_bounce_table, "verify": cmd_verify,
                "help": cmd_help}
    try:
        args = parse(argv)
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
