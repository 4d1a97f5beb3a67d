#!/usr/bin/env python3
"""Build and run the TFC simulator benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a Cargo workspace of its own that depends
on the repository's crates by path) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, then runs one workload for `--seconds`.
The program prints a table of every metric it measured, a provenance
record, and a JSON result line; this script passes the table through and
prints, as its own last line, the result restricted to the metrics
`BENCHMARK.json` lists (its `end_to_end` metrics with `--trace 0`, its
`per_layer` metrics with `--trace 1`).

Exit status: 0 on success, 1 when a correctness check fails, the build
fails or a listed metric is missing, 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fat_tree_k36", "leaf_spine_stream", "incast_chaos")
# Longest a single run may take once built.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    # Absent: the program's pinned default seed.
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 150:
        p.error("--seconds must be in 1..150")
    return args


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(target_dir):
    # No registry access: every dependency is a path crate of the repo.
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def main():
    args = parse_args()
    spec = load_spec()
    target_dir = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target_dir = os.path.abspath(target_dir)
    binary = build(target_dir)

    env = dict(
        os.environ,
        # Artifact bundles of the workloads that export them.
        TFC_RESULTS_DIR=os.path.join(target_dir, "perfbench-results"),
        # The checkout need not be a git repository; stop `git describe`
        # from searching the directories above it.
        GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
    )
    cmd = [
        binary,
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        done = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(f"benchmark exited with status {done.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"unparseable result line: {lines[-1]!r}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the result")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(out))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
