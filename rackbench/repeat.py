#!/usr/bin/env python3
"""Repeat mode: runs one rackbench workload N times, each with its own seed,
and prints every metric's median and quartiles plus the host fingerprint.

    python3 rackbench/repeat.py --workload skew-read --runs 10
    python3 rackbench/repeat.py --workload udp-batched --runs 5 --trace 1

The spread column is (q3 - q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them. When BENCHMARK.json sits at
the repository root, each end-to-end spread is shown against its bound.
Run from the repository root.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "rackbench/Cargo.toml", "--"]


def run_once(workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # Metrics that print but stay out of the JSON (the p99s) are read off
    # their text lines, so their spread is recorded too.
    for line in lines[:-1]:
        m = re.fullmatch(r"([a-z][\w.]*)\s+(-?[\d.]+)\s+(\S+)", line.strip())
        if m and m.group(1) not in result["metrics"]:
            result["metrics"][m.group(1)] = {"value": float(m.group(2)),
                                             "unit": m.group(3)}
    return result


def bounds():
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    opts = ap.parse_args()

    print(f"host: nproc={os.cpu_count()} kernel={platform.release()} "
          f"fabric=loopback (in-process rack)")
    results = []
    for i in range(opts.runs):
        seed = opts.first_seed + i
        r = run_once(opts.workload, seed, opts.seconds, opts.trace)
        results.append(r)
        shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()
                          if not k.startswith(("count.", "server.", "core.")))
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {shown}", flush=True)

    limits = bounds()
    print(f"\n{opts.workload}: {opts.runs} runs, trace={opts.trace}, "
          f"{opts.seconds} s each")
    print(f"{'metric':<38} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  bound")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        bound = limits.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"{bound:.2f} ({'ok' if spread < bound / 3 else 'WIDE'})"
        print(f"{name:<38} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.2%}  "
              f"{verdict} {first['unit']}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct in every run: {all(r['correct'] for r in results)}; "
          f"failed share per run: {sorted(shares)}")


if __name__ == "__main__":
    main()
