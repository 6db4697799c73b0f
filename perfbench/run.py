#!/usr/bin/env python3
"""Build and run the DIAL whole-round benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
workload in a child process of its own, so that its peak memory does not
carry over from another workload. The child's last stdout line is the
result JSON; this script passes it through and exits with the child's
code. `--workload all` runs every workload in turn and prints the
end-to-end metrics of each as a table (not a single result line).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["al-abt-buy", "al-dblp-scholar", "serve-zipf"]
# A single run must finish within 180 s; the first run also builds.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(root):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    return os.path.join(target, "release", "perfbench")


def run_one(binary, root, workload, seed, seconds, trace):
    spans = os.path.join(root, ".bench_out", f"{workload}-seed{seed}.spans.jsonl")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spans", spans]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    if args.workload != "all":
        code, out = run_one(binary, root, args.workload, args.seed, args.seconds, args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    worst = 0
    for w in WORKLOADS:
        code, out = run_one(binary, root, w, args.seed, args.seconds, args.trace)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        print(f"== {w}: correct={result.get('correct')} attempted={result.get('attempted')} "
              f"failed={result.get('failed')} exit={code}")
        for name, m in result["metrics"].items():
            print(f"   {name:28s} {m['value']:>16.6g} {m['unit']}")
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
