"""Pieces shared by the benchmark's workloads: operations, the measuring loop,
the reference work, child processes and the checkout layout.

This module imports nothing from quasicode, so the entry points can check
that the checkout's sources exist before anything imports them.
"""
from __future__ import annotations

import os
import random
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_MODULES = {
    "certify-infinite": "certify_infinite",
    "decode-finite": "decode_finite",
    "exhaust-finite": "exhaust_finite",
    "cli-session": "cli_session",
}

# The reference work is timed between operations at least this often.
REF_EVERY_S = 0.25
# What each reference takes on the machine the reported times are scaled to.
REF_NOMINAL_S = 0.020
SPAWN_REF_NOMINAL_S = 0.060
# Standard modules that quasicode itself imports; loading them is the spawn reference.
SPAWN_REF_CODE = "import argparse, dataclasses, fractions, hashlib, itertools, json, random, re"

# Problems kept per run for the report on stderr; the counts stay exact.
MAX_NOTES = 20


def use_checkout_sources() -> None:
    """Import quasicode from this checkout's src/, and refuse to run without it."""
    if not (SRC / "quasicode" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'quasicode'} is missing; run the benchmark from a quasicode checkout")
    sys.path.insert(0, str(SRC))


def seeded_rng(workload: str, seed: int, part: str = "") -> random.Random:
    """The random stream of one part of one workload; the same seed gives the same inputs."""
    return random.Random(f"{workload}/{part}/{seed}")


# -- reference work ------------------------------------------------------------
#
# The host's speed swings by a third within seconds on a shared 2-vCPU VM.
# Each timing is therefore scaled by a fixed reference timed next to it:
# scaled = measured * nominal / reference. The references never run
# quasicode, so a change to the program moves only the measured side.


class _Slotted:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _reference_work() -> int:
    """Pure-Python work like quasicode's: exact fractions, tuples, hashing, small objects."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 4000):
        acc += Fraction(i % 13 - 6, i % 7 + 1) * Fraction(i % 5 + 1, i % 11 + 1)
        key = (i % 31, i % 17, i % 3)
        table[key] = _Slotted(key, tuple(range(i % 6)))
    return len(table) + acc.denominator


def inprocess_reference() -> float:
    """Time of the in-process reference work, relative to its nominal time."""
    start = time.perf_counter()
    _reference_work()
    return (time.perf_counter() - start) / REF_NOMINAL_S


def spawn_reference() -> float:
    """Time to start an interpreter that loads quasicode's standard modules, relative likewise."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_REF_CODE], check=True)
    return (time.perf_counter() - start) / SPAWN_REF_NOMINAL_S


# -- operations and the measuring loop -----------------------------------------


@dataclass
class Op:
    """One operation: a single public call into quasicode and the check of its result.

    `call` is what gets timed. `check` returns None when the result is right and
    a message when it is wrong. A call that raises counts as failed.
    """

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]


@dataclass
class Tally:
    """What a run measured. Per-operation records are compact arrays, so that
    the benchmark's own bookkeeping barely moves the peak memory it reports."""

    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    times: array = field(default_factory=lambda: array("d"))
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    wrong_count: int = 0
    # reference samples (1.0 = nominal speed) and, per operation, the last one taken before it
    refs: list[float] = field(default_factory=list)
    ref_before: array = field(default_factory=lambda: array("I"))
    last_ref_at: float = 0.0

    def scaled_times(self) -> list[float]:
        """Each operation's time divided by the mean of the references around it."""
        last = len(self.refs) - 1
        return [t / ((self.refs[k] + self.refs[min(k + 1, last)]) / 2)
                for t, k in zip(self.times, self.ref_before)]

    def per_op_medians(self, ops_per_round: int) -> list[float]:
        """For each operation of the round, the median over rounds of its scaled time."""
        scaled = self.scaled_times()
        return [statistics.median(scaled[i::ops_per_round]) for i in range(ops_per_round)]


def _note(notes: list[str], text: str) -> None:
    if len(notes) < MAX_NOTES:
        notes.append(text)


def run_round(ops: list[Op], tally: Tally, reference: Callable[[], float]) -> None:
    """Run every operation once, timing only the call, then check its result."""
    clock = time.perf_counter
    for op in ops:
        if not tally.refs or clock() - tally.last_ref_at >= REF_EVERY_S:
            tally.refs.append(reference())
            tally.last_ref_at = clock()
        tally.ref_before.append(len(tally.refs) - 1)
        start = clock()
        try:
            result = op.call()
        except Exception as exc:  # a crash of the program under test is a failed operation
            took = clock() - start
            tally.failed += 1
            _note(tally.errors, f"{op.label}: {type(exc).__name__}: {exc}")
        else:
            took = clock() - start
            try:
                problem = op.check(result)
            except Exception as exc:  # a malformed result is a wrong answer
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                tally.wrong_count += 1
                _note(tally.wrong, f"{op.label}: {problem}")
        tally.times.append(took)
        tally.attempted += 1
    tally.rounds += 1


def run_for(ops: list[Op], seconds: float, reference: Callable[[], float]) -> Tally:
    """Closed loop, one client: whole rounds until `seconds` of wall time have passed."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        run_round(ops, tally, reference)
        if time.perf_counter() - start >= seconds:
            tally.refs.append(reference())
            return tally


# -- child processes -----------------------------------------------------------


def spawn_and_wait(argv: list[str], stdout_path: Path, stderr_path: Path, env: dict, timeout_s: float):
    """Run a child to completion with its output in files.

    Returns (exit code, resource usage of that child alone). The child is
    killed if it outlives `timeout_s`.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def kill_child(*_):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, kill_child)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return os.waitstatus_to_exitcode(status), usage
