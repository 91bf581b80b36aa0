#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pr-blaze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from anywhere inside a checkout. The script builds perfbench/ (the engine
sources in src/ plus blaze_perf.cc) in Release mode into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset, then:

  * pr-* only: a run covers INPUTS_PER_RUN PageRank graphs derived from the
    seed. Set-up round r computes the no-cache-pressure reference result of
    inputs r, r + SETUP_ROUNDS, ... in a process of its own, so that memory
    does not count in peak_rss_mib;
  * runs blaze_perf, which sets up, warms, measures for --seconds and checks
    every result;
  * prints one JSON line with "correct", "attempted", "failed" and the
    metrics named in BENCHMARK.json: the end-to-end ones with --trace 0, the
    per-layer ones with --trace 1.

setup_s is the median over the set-up rounds of (reference runs + one warm-up
application or batch). The exit code is 0 only if every result was correct.
Spans of a traced run go to <build dir>/traces/. --selftest runs every
workload at a tiny size, checks that each named metric is printed with its
unit, and checks that a corrupted reference is reported as failures.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pr-blaze", "pr-memdisk", "serve-rpc")
SETUP_ROUNDS = 3
INPUTS_PER_RUN = 30
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(bdir):
    """Configures and builds blaze_perf; returns its path."""
    bdir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(bdir / "build.log", "w") as log:
        for cmd in (
            ["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(bdir), "--target", "blaze_perf", "-j", jobs],
        ):
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}")
            if code != 0:
                log.flush()
                tail = (bdir / "build.log").read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed ({' '.join(cmd)}):\n{tail}")
    return bdir / "blaze_perf"


def run_child(cmd, env):
    """Runs one blaze_perf process; returns (its JSON output, exit code).

    A reference run prints one JSON line per input and yields their list; a
    measure run yields its last line."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out after {CHILD_TIMEOUT_S}s: {' '.join(cmd)}")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"no output (exit {proc.returncode}): {' '.join(cmd)}")
    try:
        if cmd[1] == "reference":
            return [json.loads(line) for line in lines], proc.returncode
        return json.loads(lines[-1]), proc.returncode
    except json.JSONDecodeError:
        raise BenchError(f"unparsable output (exit {proc.returncode}): {lines[-1][:200]}")


def src_line_count():
    """Non-test source lines under src/ (tests live in tests/)."""
    total = 0
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".cc", ".h") and path.is_file():
            with open(path, "rb") as f:
                total += sum(1 for _ in f)
    return total


def run_once(workload, seed, seconds, trace, scale=1.0, corrupt=False):
    """Builds, runs one measurement and returns (result dict, info lines)."""
    spec = load_spec()
    bdir = build_dir()
    binary = build(bdir)
    (bdir / "tmp").mkdir(exist_ok=True)
    (bdir / "traces").mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(bdir / "tmp"))  # engine disk stores live in the checkout
    common = ["--workload", workload, "--seed", str(seed), "--scale", repr(scale)]

    ref_times = [0.0] * SETUP_ROUNDS
    measure = [str(binary), "measure", *common, "--seconds", repr(seconds),
               "--trace", "1" if trace else "0", "--setup-rounds", str(SETUP_ROUNDS)]
    if workload.startswith("pr-"):
        refs = {}
        for r in range(SETUP_ROUNDS):
            inputs = range(r, INPUTS_PER_RUN, SETUP_ROUNDS)
            start = time.perf_counter()
            lines, code = run_child([str(binary), "reference", *common,
                                     "--inputs", ",".join(map(str, inputs))], env)
            ref_times[r] = time.perf_counter() - start
            if code != 0:
                raise BenchError(f"reference run failed with exit {code}")
            refs.update((ref["input"], ref) for ref in lines)
        if sorted(refs) != list(range(INPUTS_PER_RUN)):
            raise BenchError(f"reference runs covered inputs {sorted(refs)}")
        measure += ["--refs", ",".join(f"{float(refs[i]['rank_sum'])!r}:{refs[i]['num_vertices']}"
                                       for i in range(INPUTS_PER_RUN))]
    if corrupt:
        measure.append("--corrupt-reference")
    if trace:
        measure += ["--trace-out", str(bdir / "traces" / f"{workload}-seed{seed}.jsonl")]

    out, code = run_child(measure, env)
    attempted, failed = int(out["attempted"]), int(out["failed"])
    metrics = dict(out["metrics"])
    loc = src_line_count()
    if trace:
        metrics["fail_frac"] = {"value": failed / max(attempted, 1), "unit": "ratio"}
        metrics["src.loc"] = {"value": loc, "unit": "lines"}
        wanted = spec["per_layer"]
    else:
        rounds = [r + t for r, t in zip(out["setup_rounds_s"], ref_times)]
        metrics["setup_s"] = {"value": statistics.median(rounds), "unit": "s"}
        wanted = spec["end_to_end"]

    ordered = {}
    for m in wanted:
        got = metrics.pop(m["name"], None)
        if got is None or got["unit"] != m["unit"]:
            raise BenchError(f"metric {m['name']} [{m['unit']}] missing or has unit "
                             f"{got and got['unit']}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            raise BenchError(f"metric {m['name']} is not a finite number: {got['value']}")
        ordered[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if metrics:
        raise BenchError(f"metrics not in BENCHMARK.json: {sorted(metrics)}")

    correct = code == 0 and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": ordered}
    info = [f"# {workload} seed={seed}: {out['info']}",
            f"# src/ non-test lines: {loc}"]
    return result, info


def check(ok, message):
    if not ok:
        raise BenchError(f"selftest: {message}")


def selftest():
    spec = load_spec()
    for workload in WORKLOADS:
        for trace in (False, True):
            result, _ = run_once(workload, seed=3, seconds=1.0, trace=trace, scale=0.05)
            names = spec["per_layer"] if trace else spec["end_to_end"]
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace} failed: {result}")
            check([m["name"] for m in names] == list(result["metrics"]),
                  f"{workload} trace={trace} printed {list(result['metrics'])}")
            for m in names:
                got = result["metrics"][m["name"]]
                check(got["unit"] == m["unit"], f"{workload} {m['name']} unit {got['unit']}")
                check(trace or got["value"] > 0, f"{workload} {m['name']} is {got['value']}")
        result, _ = run_once(workload, seed=3, seconds=1.0, trace=True, scale=0.05,
                             corrupt=True)
        check(not result["correct"] and result["failed"] > 0,
              f"{workload}: corrupted reference not detected: {result}")
        check(result["metrics"]["fail_frac"]["value"] > 0,
              f"{workload}: fail_frac is 0 with a corrupted reference")
        print(f"selftest {workload}: ok", flush=True)
    print("selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    try:
        if args.selftest:
            selftest()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if seconds <= 0 or args.seed < 0:
            parser.error("--seconds must be positive and --seed non-negative")
        result, info = run_once(args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    for line in info:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
