#!/usr/bin/env python3
"""End-to-end benchmark of the EasyC engine and its daemon.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (the easyc library from src/ plus the perfbench
driver) into .bench_build/perfbench, runs one workload for about S
seconds, checks every payload, prints each metric by name and unit, and
ends with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, taken from a separate traced
run (no end-to-end number comes from a traced run). Spans and the
per-layer ledger land in .bench_out/.

Workloads (rationale in BENCHMARK.json and perfbench/NOTES.md):
  sweep-fleet-cold  the 1025-cell x 500-record CI sweep, cold
  sweep-grid-cold   a 12,009-cell x 50-record grid, cold
  serve-mixed       one warm daemon under open-loop interactive traffic
                    plus a closed-loop bulk sweep stream

Every cold sweep repetition runs in a fresh process, alternating nproc
and 1 pool thread: a one-shot CLI run pays the first-use allocator cost,
which a second repetition in the same process would not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
OUT = ROOT / ".bench_out"

SWEEPS = {
    "sweep-fleet-cold": (
        "aci=25:600:6;pue=1.1,1.3,1.6;util=0.5:0.95:4;life=4,6,8;mc=800@42",
        None),
    "sweep-grid-cold": (
        "aci=25:600:40;pue=1.1:1.6:10;util=0.5:0.95:10;life=4,6,8", 50),
}
SERVE = "serve-mixed"
WORKLOADS = [*SWEEPS, SERVE]

# Fewest (nproc, 1-thread) repetition pairs per sweep run, whatever
# --seconds says; traced runs make this many (untraced, traced) pairs.
MIN_PAIRS = 3
TRACE_PAIRS = 3
# Daemon set-ups per serve run; setup_s is their median.
SERVE_SETUPS = 11
# Fresh-process 1-thread runs of the bulk request per serve run.
BULK_SOLO_REPS = 15
# A run must end within 180 s; leave room for the final report.
RUN_BUDGET_S = 170


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    if not (ROOT / "src" / "service" / "server.cpp").is_file():
        log("perfbench: the easyc sources (src/) are not beside perfbench/")
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", str(nproc())]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            sys.exit(2)


def child(args, timeout):
    """Run the driver once; its last stdout line is a JSON object."""
    try:
        r = subprocess.run([str(BINARY), *args], stdout=subprocess.PIPE,
                           text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench {args[0]} timed out") from e
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise BenchError(f"perfbench {args[0]} exited {r.returncode}")
    return json.loads(lines[-1])


class Deadline:
    def __init__(self):
        self.start = time.monotonic()

    def left(self):
        return RUN_BUDGET_S - (time.monotonic() - self.start)


def fast_quartile(values):
    """First quartile: interference from other tenants only ever slows a
    repetition, so the faster quartile tracks the code, not the host."""
    values = list(values)
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def one_shot_s(rep):
    """What a one-shot run pays after set-up: execute plus teardown."""
    return rep["exec_s"] + rep["teardown_s"]


def wait_s(rep):
    """What a one-shot user waits for: set-up, execute and teardown."""
    return rep["setup_s"] + one_shot_s(rep)


def run_sweep(name, seed, seconds, trace, flip, deadline, oracle):
    axes, records = SWEEPS[name]
    n = nproc()
    base = ["sweep", f"--axes={axes}"]
    if records:
        base.append(f"--records={records}")
    if flip:
        base.append("--flip-byte")
    # The seed picks which thread count leads each pair.
    order = [n, 1] if seed % 2 == 0 else [1, n]
    expected = oracle[name]
    report = {"lines": [], "correct": True, "attempted": 0, "failed": 0}

    def check(rep):
        report["attempted"] += 1
        if not rep["ok"]:
            report["failed"] += 1
        if rep["digest"] != expected["digest"]:
            report["correct"] = False
            report["lines"].append(
                f"  payload digest {rep['digest']} at {rep['threads']} "
                f"thread(s) != recorded {expected['digest']}")

    if trace:
        untraced, traced = [], []
        for i in range(TRACE_PAIRS):
            untraced.append(child(base + [f"--threads={n}"], deadline.left()))
            path = OUT / f"trace-{name}-s{seed}-{i}.json"
            traced.append(child(base + [f"--threads={n}", f"--trace={path}"],
                                deadline.left()))
        for rep in untraced + traced:
            check(rep)
        e2e = one_shot_s
        overhead = (median(e2e(r) for r in traced) /
                    median(e2e(r) for r in untraced) - 1.0) * 100.0
        layers = {k: median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead_pct"] = overhead
        for key, want in expected["counters"].items():
            got = {t["layers"][key] for t in traced}
            verdict = "matches" if got == {want} else "DIFFERS"
            report["lines"].append(
                f"  counter {key}: {sorted(got)} {verdict} recorded {want}")
        for t in traced:
            if not t["ledger"]["replay_payload_matches"]:
                report["correct"] = False
                report["lines"].append("  layer replay payload differs")
        report["lines"].append(
            f"  traced exec+teardown {median(e2e(r) for r in traced):.4f} s vs "
            f"untraced {median(e2e(r) for r in untraced):.4f} s: "
            f"tracing overhead {overhead:+.2f}%")
        report["lines"].append(f"  spans: {OUT}/trace-{name}-s{seed}-*.json")
        report["layers"] = layers
        return report

    reps = {n: [], 1: []}
    start = time.monotonic()
    pairs = 0
    while pairs < MIN_PAIRS or time.monotonic() - start < seconds:
        for t in order:
            rep = child(base + [f"--threads={t}"], deadline.left())
            check(rep)
            reps[t].append(rep)
        pairs += 1
    everything = reps[n] + (reps[1] if n != 1 else [])
    if len({r["digest"] for r in everything}) != 1:
        report["correct"] = False
        report["lines"].append("  payloads differ between thread counts")
    cells = everything[0]["cells"]
    rate_n = cells / fast_quartile(one_shot_s(r) for r in reps[n])
    rate_1 = cells / fast_quartile(one_shot_s(r) for r in reps[1])
    report["e2e"] = {
        "setup_s": median(r["setup_s"] for r in everything),
        "cells_per_s": rate_n,
        "cells_per_s_1t": rate_1,
        "latency_ms": fast_quartile(wait_s(r) for r in reps[n]) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in everything),
        "ok_ratio": (report["attempted"] - report["failed"]) /
                    report["attempted"],
    }
    teardown_share = median(r["teardown_s"] / (r["exec_s"] + r["teardown_s"])
                            for r in reps[n])
    report["lines"] += [
        f"  sweep_cells_per_s     {rate_n:12.1f} 1/s  ({n} pool threads, "
        f"fast quartile of {len(reps[n])} fresh processes; median "
        f"{cells / median(one_shot_s(r) for r in reps[n]):.1f})",
        f"  sweep_cells_per_s_1t  {rate_1:12.1f} 1/s  (1 pool thread, fast "
        f"quartile of {len(reps[1])}; median "
        f"{cells / median(one_shot_s(r) for r in reps[1]):.1f})",
        f"  thread_speedup        {rate_n / rate_1:12.3f}      "
        "(derived diagnostic, not gated)",
        f"  teardown share        {teardown_share * 100:12.1f} %   "
        "of execute + teardown",
        f"  error_ratio           {report['failed'] / report['attempted']:12.4f}",
    ]
    return report


def run_serve(seed, seconds, trace, flip, deadline):
    n = nproc()
    OUT.mkdir(parents=True, exist_ok=True)
    snapshot = OUT / f"serve-s{seed}-{os.getpid()}.snap"
    args = ["serve", f"--seed={seed}", f"--seconds={seconds}",
            f"--threads={n}", f"--snapshot={snapshot}"]
    if trace:
        args.append(f"--trace={OUT / f'trace-{SERVE}-s{seed}.json'}")
    if flip:
        args.append("--flip-byte")
    try:
        child(["prep", f"--snapshot={snapshot}", f"--threads={n}"],
              deadline.left())
        # Each set-up in a fresh process, as a daemon starts; the serving
        # daemon's own set-up is one more sample.
        setup_s = [child(["setup", f"--snapshot={snapshot}",
                          f"--threads={n}"], deadline.left())["setup_s"]
                   for _ in range(SERVE_SETUPS - 1)]
        r = child(args, deadline.left())
        setup_s.append(r["setup_s"])
    finally:
        snapshot.unlink(missing_ok=True)
    # The bulk request once more at 1 pool thread, alone: each time a cold
    # one-shot in a fresh process, as the sweep workloads run. In-process
    # repeats after the daemon's teardown read up to 35% apart across
    # runs.
    solo = [] if trace else [
        child(["sweep", f"--axes={r['bulk_axes']}", "--threads=1"],
              deadline.left())
        for _ in range(BULK_SOLO_REPS)]

    report = {"lines": [], "attempted": r["attempted"] + len(solo),
              "failed": r["failed"] + sum(not x["ok"] for x in solo)}
    report["correct"] = (r["framing_ok"] and r["mismatches"] == 0 and
                         r["valid"])
    if not r["framing_ok"]:
        report["lines"].append("  MALFORMED reply frame")
    if r["mismatches"]:
        report["lines"].append(
            f"  {r['mismatches']} payload(s) differ from the single-thread "
            f"reference, first: {r['first_mismatch']!r}")
    if len({x["digest"] for x in solo}) > 1:
        report["correct"] = False
        report["lines"].append("  solo bulk payloads differ between runs")
    if not r["valid"]:
        report["lines"].append(
            f"  INVALID run: generator lateness p99 {r['lateness_p99_ms']:.2f}"
            f" ms exceeds {r['lateness_limit_ms']} ms; the load was not "
            "offered on schedule, so no latency from it is meaningful")
    if trace:
        report["layers"] = dict(r["layers"])
        report["layers"]["trace.overhead_pct"] = r["trace_overhead_pct"]
        report["lines"].append(
            f"  tracing overhead      {r['trace_overhead_pct']:+12.2f} %   "
            "(interactive p50, traced vs untraced half of the nominal "
            "phase)")
        for key, value in r["ledger"].items():
            report["lines"].append(f"  ledger {key} = {value}")
        return report
    rate_1t = solo[0]["cells"] / fast_quartile(one_shot_s(x) for x in solo)
    report["e2e"] = {
        "setup_s": median(setup_s),
        "cells_per_s": r["bulk_cells_per_s"],
        "cells_per_s_1t": rate_1t,
        "latency_ms": r["serve_p50_ms"],
        "peak_rss_mb": r["peak_rss_mb"],
        "ok_ratio": (report["attempted"] - report["failed"]) /
                    report["attempted"],
    }
    ladder = ", ".join(
        f"{k}: {v['tail']} {v['tail_ms']:.1f} ms{'' if v['pass'] else ' FAIL'}"
        for k, v in r["ladder"].items())
    report["lines"] += [
        f"  serve_p50_ms          {r['serve_p50_ms']:12.3f} ms  "
        f"(interactive, nominal rate, {r['serve_samples']} samples)",
        f"  serve_p99_ms          {r['serve_p99_ms']:12.3f} ms  "
        f"({r['serve_tail']}, timed from each request's due time)",
        f"  ping_p99_ms           {r['ping_p99_ms']:12.3f} ms  "
        f"({r['ping_tail']} of {r['ping_samples']}, bulk sweep running)",
        f"  generator lateness    {r['lateness_p99_ms']:12.3f} ms  "
        f"(p99 behind schedule; runs above {r['lateness_limit_ms']} ms "
        "are invalid)",
        f"  serve_max_rps         {r['serve_max_rps']:12.1f} 1/s "
        f"(ladder, tail <= {r['latency_limit_ms']} ms: {ladder})",
        f"  bulk_cells_per_s      {r['bulk_cells_per_s']:12.1f} 1/s "
        f"({r['bulk_requests']} bulk sweeps)",
        f"  bulk_cells_per_s_1t   {rate_1t:12.1f} 1/s "
        f"(the bulk sweep alone at 1 pool thread, fast quartile of "
        f"{len(solo)} fresh processes)",
        f"  error_ratio           "
        f"{report['failed'] / report['attempted']:12.4f}      "
        f"({report['failed']} of {report['attempted']})",
    ]
    return report


def select(values, specs, what):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"{what} metrics missing: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--flip-byte", action="store_true",
                   help="corrupt one payload byte (the oracle must fail)")
    a = p.parse_args()
    deadline = Deadline()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    oracle = json.loads((HERE / "oracle.json").read_text())
    build()
    OUT.mkdir(parents=True, exist_ok=True)

    try:
        if a.workload == SERVE:
            report = run_serve(a.seed, a.seconds, a.trace, a.flip_byte,
                               deadline)
        else:
            report = run_sweep(a.workload, a.seed, a.seconds, a.trace,
                               a.flip_byte, deadline, oracle)
        if a.trace:
            metrics = select(report["layers"], spec["per_layer"], "per-layer")
        else:
            metrics = select(report["e2e"], spec["end_to_end"], "end-to-end")
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)

    print(f"{a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace} "
          f"threads={nproc()}")
    for line in report["lines"]:
        print(line)
    for key, m in metrics.items():
        print(f"  {key:<36} {m['value']:16.6g} {m['unit']}")
    print(f"  correct={report['correct']}")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
