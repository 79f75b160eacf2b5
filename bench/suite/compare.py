#!/usr/bin/env python3
"""Compare two checkouts with the repository benchmark, or record a baseline.

Compare (run from anywhere; each DIR is a checkout of one commit):

    python3 bench/suite/compare.py --base DIR --change DIR [--pairs 10]
        [--workloads W,...] [--seeds 1,2] [--seconds 16] [--trace 0]

runs --pairs alternating (base, change) pairs per workload, swapping which
side runs first on every pair and cycling through --seeds, then prints each
side's median and quartiles per metric, the change in the median, and a
verdict against the metric's bound from the base's BENCHMARK.json:
"worse" when the change's median is worse by more than the bound,
"unresolved" when the base's own quartile spread exceeds the bound, else
"ok" (or "better").

Baseline (one checkout, the current directory by default):

    python3 bench/suite/compare.py --baseline OUT.json [--runs 5]
        [--seeds 1,2] [--dir DIR]

runs every workload --runs times on each seed (and once traced per seed)
and writes the medians and quartiles as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = ["dune", "exec", "--cache=disabled", "--display=quiet",
           "bench/suite/main.exe", "--"]


def run(checkout, workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {' '.join(args)} failed:\n{p.stdout}{p.stderr}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spec_of(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def compare(args):
    spec = spec_of(args.base)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end" if args.trace == 0 else "per_layer"]
    for w in workloads:
        sides = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                checkout = args.base if side == "base" else args.change
                sides[side].append(run(checkout, w, seed, args.seconds, args.trace))
        print(f"== {w} ({args.pairs} pairs, seeds {args.seeds})")
        for m in metrics:
            name = m["name"]
            b = summary([r[name] for r in sides["base"]])
            c = summary([r[name] for r in sides["change"]])
            delta = (c[0] - b[0]) / b[0] if b[0] else float("nan")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                worse = delta if m["better"] == "lower" else -delta
                spread = (b[2] - b[1]) / b[0] if b[0] else float("nan")
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "worse"
                elif worse < -bound:
                    verdict = "better"
                else:
                    verdict = "ok"
            print(f"  {name:32s} base {b[0]:.6g} [{b[1]:.6g}, {b[2]:.6g}]  "
                  f"change {c[0]:.6g} [{c[1]:.6g}, {c[2]:.6g}]  "
                  f"{delta:+.2%}  {verdict}")


def baseline(args):
    spec = spec_of(args.dir)
    out = {"runs_per_seed": args.runs, "seeds": args.seeds,
           "seconds": args.seconds, "workloads": {}}
    for w in [w["name"] for w in spec["workloads"]]:
        entry = {}
        for trace, runs in ((0, args.runs), (1, 1)):
            results = [run(args.dir, w, seed, args.seconds, trace)
                       for seed in args.seeds for _ in range(runs)]
            for name in results[0]:
                med, q1, q3 = summary([r[name] for r in results])
                entry[name] = {"median": med, "q1": q1, "q3": q3,
                               "n": len(results)}
        out["workloads"][w] = entry
        print(f"{w}: done", file=sys.stderr)
    with open(args.baseline, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base")
    p.add_argument("--change")
    p.add_argument("--baseline")
    p.add_argument("--dir", default=".")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads", type=lambda s: s.split(","))
    p.add_argument("--seeds", type=lambda s: [int(x) for x in s.split(",")],
                   default=[1, 2])
    p.add_argument("--seconds", type=float, default=16)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    if args.baseline:
        baseline(args)
    elif args.base and args.change:
        compare(args)
    else:
        p.error("give --base and --change, or --baseline")


if __name__ == "__main__":
    main()
