"""Self-test of the benchmark: every workload runs, and every workload's checks
reject a deliberately wrong answer.

Usage: python3 bench/selftest.py   (from the root of a quasicode checkout)

Each workload's operations run once per distinct label (a tiny size), their
checks must accept the real results, and a result changed in one place must
be rejected. Two short end-to-end runs check the printed JSON contract, and a
copy of the benchmark without the program must exit non-zero.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from common import BENCH_DIR, OUT_DIR, ROOT, WORKLOAD_MODULES, use_checkout_sources

use_checkout_sources()

import quasicode as qc  # noqa: E402

SEED = 7


def tiny_ops(workload: str):
    """The workload's operations, one per distinct label, with their results."""
    module = importlib.import_module(WORKLOAD_MODULES[workload])
    ops = module.make_ops(module.setup(SEED), SEED)
    seen, out = set(), {}
    for op in ops:
        if op.label not in seen:
            seen.add(op.label)
            out[op.label] = op
    return out


class WorkloadChecks(unittest.TestCase):
    def run_op(self, op):
        result = op.call()
        self.assertIsNone(op.check(result), op.label)
        return result

    def test_certify_infinite_rejects_wrong_reports(self):
        ops = tiny_ops("certify-infinite")
        for label, op in ops.items():
            result = self.run_op(op)
            if label.startswith("verify:"):
                self.assertIsNotNone(op.check(dataclasses.replace(result, trials=result.trials - 1)))
                self.assertIsNotNone(op.check(dataclasses.replace(result, property_b_ok=False)))
            if label.startswith("audit:"):
                laws = dict(result.laws, alternative=dataclasses.replace(result.laws["alternative"], holds=False))
                self.assertIsNotNone(op.check(dataclasses.replace(result, laws=laws)))
            if label.startswith("conjugate:"):
                self.assertIsNotNone(op.check(dataclasses.replace(result, passes=result.passes - 1)))

    def test_decode_finite_rejects_a_changed_entry(self):
        ops = tiny_ops("decode-finite")
        for op in ops.values():
            decoded = self.run_op(op)
            col, val = decoded.items()[0]
            other = next(s for s in decoded.algebra.elements() if s != val)
            wrong = decoded - qc.FinVec.single(col, val) + qc.FinVec.single(col, other)
            self.assertIsNotNone(op.check(wrong), op.label)

    def test_exhaust_finite_rejects_wrong_counts_and_words(self):
        ops = tiny_ops("exhaust-finite")
        for label, op in ops.items():
            result = self.run_op(op)
            if label.startswith(("enumerate:", "generators:")):
                self.assertIsNotNone(op.check(result[1:]), label)
                changed = list(result)
                col, val = changed[-1].items()[0]
                changed[-1] = changed[-1] - qc.FinVec.single(col, val)
                self.assertIsNotNone(op.check(changed), label)
            if label.startswith("module-axioms:"):
                counts = dict(result.counts, add_associative=result.counts["add_associative"] - 1)
                self.assertIsNotNone(op.check(dataclasses.replace(result, counts=counts)), label)
            if label.startswith("verify:"):
                self.assertIsNotNone(op.check(dataclasses.replace(result, lines_checked=result.lines_checked - 1)))
            if label.startswith("support-witness:"):
                col, val = result.items()[0]
                self.assertIsNotNone(op.check(result - qc.FinVec.single(col, val)), label)

    def test_cli_session_rejects_wrong_output(self):
        from cli_session import ChildCrashed, CliRun

        module = importlib.import_module("cli_session")
        ops = module.make_ops(module.setup(SEED), SEED)
        runs = []
        for op in ops:
            try:
                runs.append((op, op.call()))
            except ChildCrashed:
                # the zero-denominator literal, which exits 1 with a traceback today
                self.assertEqual(op.label, "cli:decode")
                continue
            self.assertIsNone(op.check(runs[-1][1]), op.label)
        for op, run in runs:
            self.assertIsNotNone(op.check(dataclasses.replace(run, code=1)), op.label)
        decode_op, decode_run = next((op, run) for op, run in runs if op.label == "cli:decode")
        body = decode_run.stdout.splitlines()
        last = body[-1]
        body[-1] = last[:-1] + ("1" if last[-1] != "1" else "2")
        self.assertIsNotNone(decode_op.check(dataclasses.replace(decode_run, stdout="\n".join(body) + "\n")))
        rerun_op, rerun = runs[-1]
        self.assertIsNotNone(rerun_op.check(dataclasses.replace(rerun, stdout=rerun.stdout + " ")))
        usage_op, usage_run = next((op, run) for op, run in runs if op.label == "cli:columns" and run.code == 2)
        self.assertIsNotNone(usage_op.check(CliRun(2, "", usage_run.stderr + "Traceback\n")))


class EndToEnd(unittest.TestCase):
    def run_bench(self, workload, cwd=ROOT, script=BENCH_DIR / "run.py"):
        return subprocess.run([sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
                               "--seconds", "0.2", "--trace", "0"],
                              cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_result_line(self):
        for workload, per_round in (("decode-finite", None), ("cli-session", 20)):
            out = self.run_bench(workload)
            self.assertEqual(out.returncode, 0, out.stderr)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"], out.stderr)
            self.assertEqual(sorted(result["metrics"]), ["op_p50_ms", "ops_per_s", "peak_rss_mb", "setup_s"])
            if per_round:
                # whole rounds, one failing invocation in each
                self.assertEqual(result["attempted"] % per_round, 0)
                self.assertEqual(result["failed"] * per_round, result["attempted"])

    def test_refuses_to_run_without_the_program(self):
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            out = self.run_bench("decode-finite", cwd=tmp, script=Path(tmp) / "bench" / "run.py")
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
