"""Run the bouncepaths CLI once under the tracer.

    python3 perfbench/traced_cli.py FD ARG...

runs ``bouncepaths.cli.main(ARG...)`` like ``python -m bouncepaths.cli``
and, when it returns or raises, writes the trace summary as JSON to the
inherited file descriptor FD.  The summary also holds ``import_s``, the
time of ``import bouncepaths.cli``, which is taken before the tracer is
imported so that the tracer's own imports are not charged to it.
"""

import json
import os
import sys
from time import perf_counter


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    start = perf_counter()
    import bouncepaths.cli
    import_s = perf_counter() - start

    start = perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.overhead_s += perf_counter() - start  # the tracer's imports
    tracer.install()
    try:
        return bouncepaths.cli.main(argv)
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump({**tracer.summary(), "import_s": import_s}, out)


if __name__ == "__main__":
    sys.exit(main())
