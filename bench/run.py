"""Run one quasicode benchmark workload and print its metrics.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: certify-infinite, decode-finite, exhaust-finite, cli-session (see
bench/README.md). Run from the root of a quasicode checkout; the program is
imported from its src/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (setup_s, ops_per_s, op_p50_ms, peak_rss_mb); with
--trace 1 they are the per-layer ones. Both write a copy to .bench_out/.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time

from common import (BENCH_DIR, OUT_DIR, WORKLOAD_MODULES, Tally, inprocess_reference, run_for, run_round,
                    spawn_reference, use_checkout_sources)

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def measure_setup_s(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to the workload being set up,
    each probe scaled by a spawn reference taken just before it."""
    samples = []
    for _ in range(SETUP_PROBES):
        ref = spawn_reference()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH_DIR / "probe.py"), "setup", workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe of {workload} exited {code} without getting ready")
        samples.append((ready - start) / ref)
    return statistics.median(samples)


def peak_rss_mb(module, state) -> float:
    hook = getattr(module, "peak_rss_kb", None)
    kb = hook(state) if hook else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def throughput(tally: Tally, ops_per_round: int) -> tuple[float, float]:
    """Operations completed per second and the median operation time, in seconds.

    Both come from each operation's median scaled time over the run's rounds.
    """
    per_op = tally.per_op_medians(ops_per_round)
    completed_per_round = ops_per_round - tally.failed / tally.rounds
    return completed_per_round / sum(per_op), statistics.median(per_op)


def end_to_end(tally: Tally, ops_per_round: int, setup_s: float, rss_mb: float) -> dict:
    ops_per_s, p50_s = throughput(tally, ops_per_round)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ops_per_s, "ops/s"),
        "op_p50_ms": (p50_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, tally: Tally, ops_per_round: int, layer_times: dict) -> dict:
    from spans import LAYERS

    rounds = tally.rounds
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s.get(layer, 0.0) / rounds, "s/round")
        out[f"{layer}.calls"] = (tracer.calls.get(layer, 0) / rounds, "count/round")
    for name, count in tracer.counters().items():
        out[name] = (count / rounds, "count/round")
    out["trace.ops_per_s"] = (throughput(tally, ops_per_round)[0], "ops/s")
    out.update(layer_times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()

    setup_s = None if args.trace else measure_setup_s(args.workload, args.seed)
    module = importlib.import_module(WORKLOAD_MODULES[args.workload])
    state = module.setup(args.seed)
    ops = module.make_ops(state, args.seed)
    reference = getattr(module, "reference", inprocess_reference)

    # One untimed, checked round first, so lazy tables and caches are filled.
    warm = Tally()
    run_round(ops, warm, reference)
    problems = list(warm.wrong)
    if args.trace:
        import layers
        from spans import Tracer

        layer_times = layers.measure(args.seed, problems)
        tracer = Tracer()
        hook = getattr(module, "start_tracing", None)
        if hook:
            hook(state, tracer)
        else:
            tracer.install()
        tally = run_for(ops, args.seconds, reference)
        metrics = per_layer(tracer, tally, len(ops), layer_times)
    else:
        tally = run_for(ops, args.seconds, reference)
        rss_mb = peak_rss_mb(module, state)  # before computing metrics allocates more
        metrics = end_to_end(tally, len(ops), setup_s, rss_mb)
    problems += tally.wrong

    result = {
        "correct": not problems and tally.wrong_count == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    for text in problems + tally.errors:
        print(f"{args.workload}: {text}", file=sys.stderr)
    print(f"{args.workload}: {tally.rounds} rounds of {len(ops)} operations, "
          f"{tally.failed} failed, {tally.wrong_count} wrong", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measured = dict(result, refs=tally.refs, ref_before=list(tally.ref_before),
                    op_times_s=[[op.label, list(tally.times[i::len(ops)])] for i, op in enumerate(ops)])
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(measured, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(tracer.totals(), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
