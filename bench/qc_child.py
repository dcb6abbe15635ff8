"""Run the quasicode command line from this checkout's sources.

Usage: python3 bench/qc_child.py <subcommand> [options]

Behaves like the installed `quasicode` command. When QUASICODE_BENCH_TRACE
names a file, layer spans are recorded and their totals written there.
"""
import json
import os
import sys

from common import use_checkout_sources

use_checkout_sources()

import quasicode.cli  # noqa: E402

if __name__ == "__main__":
    trace_path = os.environ.get("QUASICODE_BENCH_TRACE")
    if not trace_path:
        sys.exit(quasicode.cli.main())
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        status = quasicode.cli.main()
    finally:
        with open(trace_path, "w") as fh:
            json.dump(tracer.totals(), fh)
    sys.exit(status)
