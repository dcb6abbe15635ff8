"""What each command-line child compiles: quasicode's modules, their source lines, and the unrun part.

Usage (from the root of the checkout):
  python3 tests/compiled.py [--seed S] [--summary]      # the 20 invocations of bench's cli-session
  python3 tests/compiled.py -- columns --algebra f3 --m 2   # any one command line

Each command line runs in a fresh child of this interpreter, with no bytecode
cache written or read (PYTHONDONTWRITEBYTECODE=1 and a fresh pycache prefix),
as the benchmark's children run.  The child records every quasicode module
it compiles from source (a source_to_code hook), the time compile() took,
and, through a profile hook, which functions were called.  For each child
the script prints a line with its exit code and totals, then one line per
module: its source lines, compile milliseconds, and its function lines (the
spans of its module-level functions and methods, nested code included) with
the share that never ran; --summary leaves the module lines out.  The last
lines give the sum and the median of the source lines over the children.
Standard library only; pytest does not collect it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _span(code: types.CodeType) -> int:
    """The source lines of a function, from its first line (a decorator's) to its last."""
    last = max((line for *_, line in code.co_lines() if line is not None), default=code.co_firstlineno)
    return last - code.co_firstlineno + 1


def _functions(code: types.CodeType):
    """The module-level functions and the methods (in classes at any depth) of a module's code."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & 0x2:  # CO_NEWLOCALS: a function; a class body has none
                yield const
            else:
                yield from _functions(const)


def child(out_path: str, argv: list[str]) -> int:
    """Run quasicode's CLI on argv, recording what it compiles and calls into out_path as JSON."""
    import importlib.machinery
    import time

    compiled, called = {}, set()
    source_to_code = importlib.machinery.SourceFileLoader.source_to_code

    def hook(self, data, path, *args, **kwargs):
        start = time.perf_counter()
        code = source_to_code(self, data, path, *args, **kwargs)
        if self.name == "quasicode" or self.name.startswith("quasicode."):
            compiled[self.name] = (data.count(b"\n"), time.perf_counter() - start, code)
        return code

    importlib.machinery.SourceFileLoader.source_to_code = hook
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    status = 0
    try:
        import quasicode.cli

        status = quasicode.cli.main(argv)
    finally:
        sys.setprofile(None)
        modules = {}
        for name, (lines, seconds, code) in sorted(compiled.items()):
            spans = [(_span(f), f in called) for f in _functions(code)]
            modules[name] = {"lines": lines, "ms": seconds * 1e3, "function_lines": sum(n for n, _ in spans),
                             "unrun_lines": sum(n for n, ran in spans if not ran)}
        Path(out_path).write_text(json.dumps({"status": status, "modules": modules}))
    return status


def run(argv: list[str]) -> dict:
    """One fresh child's record of argv."""
    with tempfile.TemporaryDirectory(prefix="quasicode-compiled-") as tmp:
        out = Path(tmp, "record.json")
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(Path(tmp, "pycache")),
                   PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, __file__, "--child", str(out), "--", *argv], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
        return json.loads(out.read_text())


def session_argvs(seed: int) -> list[list[str]]:
    """The command lines of bench/cli_session.py's script at seed, its input files written as it writes them."""
    sys.path.insert(0, str(ROOT / "bench"))
    import common

    common.use_checkout_sources()
    import cli_session

    state = cli_session.setup(seed)
    ops = cli_session.make_ops(state, seed)
    argvs = []
    state["session"].invoke = argvs.append  # each operation hands its command line to invoke
    for op in ops:
        op.call()
    return argvs


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        return child(sys.argv[2], sys.argv[4:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7, help="cli-session's seed (default 7)")
    parser.add_argument("--summary", action="store_true", help="one line per child, no module lines")
    parser.add_argument("argv", nargs="*", help="one command line, after --; default the cli-session script")
    args = parser.parse_args()
    argvs = [args.argv] if args.argv else session_argvs(args.seed)
    totals = []
    for argv in argvs:
        record = run(argv)
        modules = record["modules"].values()
        lines, ms = sum(m["lines"] for m in modules), sum(m["ms"] for m in modules)
        function_lines, unrun = sum(m["function_lines"] for m in modules), sum(m["unrun_lines"] for m in modules)
        totals.append(lines)
        shown = " ".join(a if len(a) < 40 else "..." + a[-20:] for a in argv)
        print(f"{shown}: exit {record['status']}, {len(modules)} modules, {lines:,} source lines in {ms:.1f} ms, "
              f"{unrun:,} of {function_lines:,} function lines unrun")
        if not args.summary:
            for name, m in record["modules"].items():
                print(f"  {m['lines']:6,}  {m['ms']:5.1f} ms  {m['unrun_lines']:5,}/{m['function_lines']:<5,} unrun  {name}")
    print(f"{len(totals)} children: {sum(totals):,} source lines compiled in all, median {statistics.median(totals):,g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
