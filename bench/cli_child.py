"""Traced stand-in for ``python -m polycech.cli``.

Usage: cli_child.py TRACE_OUT ARGS...

Imports the command line module, installs the timing wrappers, runs
``polycech.cli.main(ARGS)`` and writes the span totals and counters to
TRACE_OUT as JSON, with the wall time of the ``main`` call as "main_s".
"""

import json
import sys
import time

import polycech.cli

from tracer import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter()
    code = polycech.cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dict(tracer.dump(), main_s=main_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
