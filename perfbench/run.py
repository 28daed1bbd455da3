#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; results and span files go to .bench_results/. Build output
goes to stderr, so the last line on stdout is the run's JSON verdict.

An untraced run is split into SHARDS processes, run one after another,
each with a third of --seconds and its own inputs (seed N * SHARDS + j for
shard j). How fast a process runs on a shared host depends on where it
lands; the run's rates are summed over the shards' operations and seconds,
so each run averages several landings. setup_s is the run's set-up time,
the sum of the shards' cold set-ups, each timed from its process's start;
peak_rss_mb is the largest shard's. A traced run is one process.
"""
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHARDS = 3


def build(env):
    """Configures and builds perfbench; returns its build directory or None."""
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return None
    return out


def flag(args, name):
    """Value of `--name` in args, or None."""
    for i in range(len(args) - 1):
        if args[i] == name:
            return args[i + 1]
    return None


def with_flag(args, name, value):
    out = list(args)
    out[out.index(name) + 1] = value
    return out


def run_shard(cmd, env):
    """Runs one perfbench process; returns its (reference, verdict) lines."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print("perfbench: a shard exited with code %d" % proc.returncode,
              file=sys.stderr)
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def merge(shards):
    """One verdict from the shards' verdicts (see the module docstring)."""
    verdicts = [v for _, v in shards]
    parts = [r["rate_parts"] for r, _ in shards]
    metrics = {}
    for name, first in verdicts[0]["metrics"].items():
        if name in parts[0]:
            ops = sum(p[name]["ops"] for p in parts)
            seconds = sum(p[name]["seconds"] for p in parts)
            value = ops / seconds
        elif name == "peak_rss_mb":
            value = max(v["metrics"][name]["value"] for v in verdicts)
        elif name == "setup_s":
            value = sum(v["metrics"][name]["value"] for v in verdicts)
        else:
            raise ValueError("no rule to merge metric " + name)
        metrics[name] = {"value": value, "unit": first["unit"]}
    reference = {}
    for name in shards[0][0]["reference"]:
        rows = [r["reference"][name] for r, _ in shards]
        reference[name] = {
            "value": statistics.median(row["value"] for row in rows),
            "samples": sum(row["samples"] for row in rows)}
    return reference, {
        "correct": all(v["correct"] for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "failed": sum(v["failed"] for v in verdicts),
        "metrics": metrics}


def main() -> int:
    # A run stopped from outside raises SystemExit in its wait, so
    # subprocess.run kills and reaps the running shard before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The program runs in its default configuration: no HPCLA_* knob set in
    # the caller's environment may switch a tier or a budget on.
    env = {k: v for k, v in os.environ.items() if not k.startswith("HPCLA_")}
    out = build(env)
    if out is None:
        return 1
    args = sys.argv[1:]
    if args == ["--selftest"]:
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              env=env).returncode
    cmd = [os.path.join(out, "perfbench")] + args + [
        "--out", os.path.join(ROOT, ".bench_results")]
    seed, seconds = flag(args, "--seed"), flag(args, "--seconds")
    if flag(args, "--trace") != "0" or seed is None or seconds is None:
        return subprocess.run(cmd, env=env).returncode
    shards = []
    for j in range(SHARDS):
        shard_cmd = with_flag(with_flag(cmd, "--seed",
                                        str(int(seed) * SHARDS + j)),
                              "--seconds", repr(float(seconds) / SHARDS))
        shard = run_shard(shard_cmd, env)
        if shard is None:
            return 1
        shards.append(shard)
    reference, verdict = merge(shards)
    print(json.dumps({"reference": reference}))
    print(json.dumps(verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
