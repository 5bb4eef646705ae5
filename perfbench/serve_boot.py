"""Start ``repro serve`` through the CLI ``main``, optionally traced.

    PYTHONPATH=src python3 perfbench/serve_boot.py [--trace-out FILE] -- serve --port 0

Everything after ``--`` goes to ``repro.cli.main`` unchanged.  With
``--trace-out`` the tracer's wrappers are installed first and, once the
server has drained and ``main`` has returned, the totals and kept spans
are written to FILE.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_out is not None:
        from tracer import Tracer, install

        tracer = install(Tracer())

    from repro.cli import main as cli_main

    status = cli_main(argv)
    if tracer is not None:
        tracer.dump(trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
