"""Run one polyvar command line under the span tracer.

    python perfbench/cli_traced.py SPANS_OUT polyvar-arguments...

Behaves like `python -m polyvar.cli polyvar-arguments...` and writes the spans
of the call to SPANS_OUT (.npz).  The interpreter start and the imports are
outside every span.
"""

import sys

import polyvar.cli

from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        return polyvar.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.spans().save(out)


if __name__ == "__main__":
    sys.exit(main())
