#!/usr/bin/env python3
"""Runs the repository benchmark. See perfbench/README.md.

    python3 perfbench/run.py --workload als-poisson2 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the repository root. Builds the `tenblock` binary and the
`perfbench` measuring binary from source (into $CARGO_TARGET_DIR, default
`.bench_build`), generates the workload's seeded inputs in a process of
their own, then measures. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. Exits nonzero, without a
result, when the build or the run fails, and nonzero after the result when
an output check failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(target):
    """Builds both binaries; returns (perfbench, tenblock) paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise RuntimeError(f"{ROOT} holds no tenblock sources to build")
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for args in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "tenblock"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(args)}")
    return target / "release" / "perfbench", target / "release" / "tenblock"


def run_one(bench, server, workload, seed, seconds, trace):
    """Generates inputs, measures, and returns (exit code, result line)."""
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        gen = [str(bench), "gen", "--workload", workload, "--seed", str(seed), "--dir", str(work)]
        if subprocess.run(gen, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            raise RuntimeError("input generation failed")
        cmd = [
            str(bench), "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--dir", str(work),
            "--server", str(server), "--out", str(HERE / "out"),
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    for l in lines[:-1]:
        print(l, flush=True)
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: measurement failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"{workload}: malformed result line")
    return done.returncode, lines[-1]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", help="one workload; default: every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    if a.workload is not None and a.workload not in names:
        p.error(f"unknown workload {a.workload}; choose from {names}")

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = (target if target.is_absolute() else ROOT / target).resolve()
    try:
        bench, server = build(target)
        if a.workload is not None:
            code, line = run_one(bench, server, a.workload, a.seed, a.seconds, a.trace)
            print(line, flush=True)
            return code
        worst = 0
        for name in names:
            code, line = run_one(bench, server, name, a.seed, a.seconds, a.trace)
            print(f"{name}: {line}", flush=True)
            worst = max(worst, code)
        return worst
    except (RuntimeError, OSError, ValueError) as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
