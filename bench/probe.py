"""Fresh-interpreter measurements for the benchmark.

Usage:
  python3 bench/probe.py setup <workload> <seed>   set a workload up, then print "ready"
  python3 bench/probe.py preset <name>             print import and preset build times as JSON

The caller times `setup` from spawn to the "ready" line.
"""
import importlib
import json
import sys
import time

from common import WORKLOAD_MODULES, use_checkout_sources

use_checkout_sources()


def main(argv):
    if argv[0] == "setup":
        module = importlib.import_module(WORKLOAD_MODULES[argv[1]])
        module.setup(int(argv[2]))
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        return 0
    start = time.perf_counter()
    import quasicode.cli  # noqa: F401
    imported = time.perf_counter()
    quasicode.resolve_preset(argv[1])
    built = time.perf_counter()
    print(json.dumps({"import_ms": (imported - start) * 1e3, "build_ms": (built - imported) * 1e3}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
