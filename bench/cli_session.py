"""cli-session: a fixed script of `quasicode` invocations, one child process each.

The script covers all fifteen subcommands on small inputs written to a
temporary directory inside the checkout, three malformed inputs whose
documented outcome is exit 2 with a one-line message, a quaternion literal
with a zero denominator, and a rerun of a sampled command that must print the
same bytes. One operation is one invocation, timed from spawn to exit.
"""
from __future__ import annotations

import atexit
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import quasicode as qc
import quasicode.cli  # noqa: F401  (set-up covers importing the CLI)

from common import BENCH_DIR, OUT_DIR, Op, seeded_rng, spawn_and_wait
from common import spawn_reference as reference  # noqa: F401  (the scale for child-process timings)
from finite import Tables

NAME = "cli-session"
PRESETS = ("f2", "f3", "gf9-isotope", "quaternions")
CHILD_TIMEOUT_S = 60.0
TRACE_ENV = "QUASICODE_BENCH_TRACE"


class ChildCrashed(Exception):
    """The child printed a traceback: an uncaught exception, not a documented outcome."""


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str


class Session:
    """The child processes of one run: their environment, files and peak memory."""

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-session-", dir=OUT_DIR))
        atexit.register(shutil.rmtree, self.dir, True)
        self.env = dict(os.environ)
        self.tracer = None
        self.peak_rss_kb = 0

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text)
        return str(path)

    def invoke(self, args: list[str]) -> CliRun:
        argv = [sys.executable, str(BENCH_DIR / "qc_child.py"), *args]
        out, err = self.dir / "stdout.txt", self.dir / "stderr.txt"
        code, usage = spawn_and_wait(argv, out, err, self.env, CHILD_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.tracer is not None:
            trace_file = Path(self.env[TRACE_ENV])
            self.tracer.merge(json.loads(trace_file.read_text()))
            trace_file.unlink()
        run = CliRun(code, out.read_text(), err.read_text())
        if "Traceback (most recent call last)" in run.stderr:
            last = run.stderr.strip().splitlines()[-1]
            raise ChildCrashed(f"exit {code}: {last}")
        return run


def setup(seed: int) -> dict:
    return {"algebras": {name: qc.resolve_preset(name) for name in PRESETS}}


def start_tracing(state: dict, tracer) -> None:
    """Trace inside each child; the child writes its totals to a file merged here."""
    session = state["session"]
    session.tracer = tracer
    session.env[TRACE_ENV] = str(session.dir / "trace.json")


def peak_rss_kb(state: dict) -> int:
    return state["session"].peak_rss_kb


def _expect(code: int, lines=(), prefixes=(), stdout_lines=None):
    """A check: the exit code, lines and line beginnings that must appear, and optionally the body."""
    def check(run: CliRun):
        if run.code != code:
            return f"exit {run.code}, expected {code}; stderr {run.stderr.strip()[:200]!r}"
        got = run.stdout.splitlines()
        missing = [ln for ln in lines if ln not in got]
        missing += [p for p in prefixes if not any(ln.startswith(p) for ln in got)]
        if missing:
            return f"missing lines {missing}"
        if stdout_lines is not None:
            body = sorted(ln for ln in got if not ln.startswith("#"))
            if body != sorted(stdout_lines):
                return f"body {body}, expected {sorted(stdout_lines)}"
        return None
    return check


def _expect_usage_error(run: CliRun):
    message = run.stderr.strip()
    if run.code != 2 or run.stdout or "\n" in message or not message.startswith("error:"):
        return f"exit {run.code} with stderr {message[:200]!r}; expected exit 2 and one 'error:' line"
    return None


def make_ops(state: dict, seed: int) -> list[Op]:
    session = state["session"] = Session()
    rng = seeded_rng(NAME, seed)
    f3 = Tables(state["algebras"]["f3"])

    word = f3.random_codeword(rng, 2, rng.randint(2, 3))
    noisy = f3.corrupt(rng, word, 2)
    while not noisy:  # an empty file would decode to zero and say nothing
        noisy = f3.corrupt(rng, word, 2)
    word_file = session.write("word.txt", f3.word_text(word))
    noisy_file = session.write("noisy.txt", f3.word_text(noisy))
    chosen = set()
    while len(chosen) < 3:
        chosen.add(f3.random_column(rng, 2))
    cols_file = session.write("cols.txt", "".join(f"({c[0]},{c[1]})\n" for c in sorted(chosen)))
    choice = ";".join(f"({c[0]},{c[1]})={rng.choice((1, 2))}" for c in f3.columns(2) if rng.random() < 0.5)
    basis_ops = rng.choice(("shear:0,1,1", "shear:0,1,2", "swap:0,1", "scale:1,2", "swap:0,1;shear:1,0,2"))
    bad_file = session.write("bad.txt", "(0,1) 1\n")
    zero_div_file = session.write("zero-div.txt", "(1,0) := 1/0i\n")
    s = [str(rng.randrange(2**31)) for _ in range(3)]
    f3_m2 = ["--algebra", "f3", "--m", "2"]
    own_columns = [f"({c[0]},{c[1]})" for c in f3.columns(2)]
    decoded_lines = f3.word_text(word).splitlines()

    sampled_outputs = {}

    def remember(check):
        def wrapped(run):
            sampled_outputs["verify-perfect"] = run.stdout
            return check(run)
        return wrapped

    def same_bytes(run):
        if run.code != 0 or run.stdout != sampled_outputs.get("verify-perfect"):
            return "rerun of a sampled command printed different bytes"
        return None

    verify_args = ["verify-perfect", "--algebra", "quaternions", "--m", "2", "--trials", "100", "--seed", s[0]]
    script = [
        (["audit", "--algebra", "gf9-isotope"],
         _expect(0, ["mode: exhaustive", "law right_unit: holds  [right unit = 1]"],
                 ["law left_unit: fails witness=", "law associative: fails witness="])),
        (["columns", *f3_m2], _expect(0, ["columns: 4", *own_columns])),
        (["syndrome", *f3_m2, "--in", word_file], _expect(0, ["syndrome: (0,0)", "in code: true"])),
        (["decode", *f3_m2, "--in", noisy_file],
         _expect(0, ["# changed: true", f"# codeword weight: {len(word)}"], stdout_lines=decoded_lines)),
        (verify_args, remember(_expect(0, ["mode: structural", "trials: 100", f"seed: {s[0]}", "verdict: perfect"]))),
        (["generators", "--algebra", "f2", "--m", "3"], _expect(0, ["generators: 7"])),
        (["reconstruct-check", *f3_m2], _expect(0, ["mode: exhaustive", "verdict: module axioms hold"])),
        (["membership-reduce", *f3_m2, "--in", noisy_file],
         _expect(0, ["membership by reduction: false", "membership by syndrome: false", "agreement: true"])),
        (["choice-iso", *f3_m2, "--e2", choice], _expect(0, ["verdict: generators map into the target code"])),
        (["basis-iso", *f3_m2, "--ops", basis_ops], _expect(0, ["verdict: code mapped onto itself"])),
        (["support-witness", *f3_m2, "--columns-file", cols_file], _expect(0, ["columns: 3"], ["witness weight: "])),
        (["distinguish", "--algebra", "f2", "--m", "2", "--m2", "3"], _expect(0, ["verdict: codes distinguished"])),
        (["nonassoc-witness", "--algebra", "gf9-isotope", "--m", "2"],
         _expect(0, ["verdict: left scaling escapes the code"])),
        (["right-linearity", "--algebra", "quaternions", "--m", "2", "--seed", s[1]],
         _expect(0, ["verdict: right scaling escapes the code"])),
        (["conjugate-check", "--algebra", "quaternions", "--m", "2", "--samples", "30", "--seed", s[2]],
         _expect(0, ["conjugate images in the right code: 30/30"])),
        (["decode", *f3_m2, "--in", bad_file], _expect_usage_error),
        (["columns", "--algebra", "no-such-algebra", "--m", "2"], _expect_usage_error),
        (["verify-perfect", "--algebra", "f3"], _expect_usage_error),
        # Fails today: the literal parser lets ZeroDivisionError escape, so the
        # CLI prints a traceback and exits 1 ("counterexample found").
        (["decode", "--algebra", "quaternions", "--m", "2", "--in", zero_div_file], _expect_usage_error),
        (verify_args, same_bytes),
    ]
    ops = []
    for args, check in script:
        label = f"cli:{args[0]}"
        ops.append(Op(label, lambda args=args: session.invoke(args), check))
    return ops
