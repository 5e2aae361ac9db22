#!/usr/bin/env python3
"""Build and run the kya simulator benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the benchmark package (``perfbench/Cargo.toml``,
release profile, into ``$CARGO_TARGET_DIR``, default ``.bench_build``),
runs one workload in a fresh child process, passes its output through,
and checks that the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 1`` the
spans are written to ``<target dir>/perfbench-trace/``.

``--smoke`` is the benchmark's own test: every workload at toy size,
traced and untraced, must be correct, emit every metric that
``BENCHMARK.json`` names, repeat its deterministic counts exactly in a
second process, and fail its correctness gate when every expected value
is deliberately wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ["flat_250k", "check_full", "census_exact"]
# A run must end within 180 s of its start, builds aside.
RUN_LIMIT_S = 175.0


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Build the benchmark binary; return its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    # Cargo's own output goes to stderr, so stdout carries only results.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(target_dir(), "release", "kya-perfbench")


def run_child(binary, args, limit_s):
    """Run the benchmark binary once; return (exit code, stdout lines)."""
    child = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"perfbench: run exceeded {limit_s:.0f} s", file=sys.stderr)
        return 1, []
    return child.returncode, stdout.splitlines()


def parse_result(lines):
    """The result object on the last line, or None if it is malformed."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def measure(args):
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    started = time.monotonic()
    child_args = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        name = f"{args.workload}-seed{args.seed}.ndjson"
        child_args += ["--trace-out", os.path.join(target_dir(), "perfbench-trace", name)]
    code, lines = run_child(binary, child_args, RUN_LIMIT_S - (time.monotonic() - started))
    result = parse_result(lines)
    if code != 0 or result is None:
        print(f"perfbench: workload {args.workload} produced no result (exit {code})", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


def smoke_run(binary, workload, trace, wrong=False):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"]
    if wrong:
        args.append("--wrong-expected")
    code, lines = run_child(binary, args, RUN_LIMIT_S)
    result = parse_result(lines)
    if code != 0 or result is None:
        raise AssertionError(f"{workload}: no result (exit {code})")
    return result


def smoke():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    with open(BENCHMARK) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS, "BENCHMARK.json workloads"
    failures = []
    for workload in WORKLOADS:
        try:
            plain = smoke_run(binary, workload, 0)
            assert plain["correct"] and plain["failed"] == 0, f"{workload}: gate failed"
            got = {k: v["unit"] for k, v in plain["metrics"].items()}
            assert got == e2e, f"{workload}: end-to-end metrics {sorted(got)} != {sorted(e2e)}"
            traced = [smoke_run(binary, workload, 1) for _ in range(2)]
            for run in traced:
                assert run["correct"], f"{workload}: traced gate failed"
                got = {k: v["unit"] for k, v in run["metrics"].items()}
                assert got == layer, f"{workload}: per-layer metrics differ: {sorted(set(got) ^ set(layer))}"
            for name, unit in layer.items():
                if unit == "count":
                    first, second = (run["metrics"][name]["value"] for run in traced)
                    assert first == second, f"{workload}: count {name} {first} != {second}"
            wrong = smoke_run(binary, workload, 0, wrong=True)
            assert not wrong["correct"] and wrong["failed"] > 0, f"{workload}: wrong expectation passed"
            print(f"smoke {workload}: ok")
        except AssertionError as e:
            failures.append(str(e))
            print(f"smoke {workload}: FAILED: {e}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
