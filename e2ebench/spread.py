#!/usr/bin/env python3
"""Runs every workload of the benchmark over several seeds and reports
each metric's spread.

Run from the repository root:

    python3 e2ebench/spread.py --runs 10
    python3 e2ebench/spread.py --runs 10 --write e2ebench/baseline.json
    python3 e2ebench/spread.py --runs 3 --trace 1 --workloads snapshot-replay ingest-churn

For every workload (those in BENCHMARK.json unless --workloads names
others) and metric it prints the median of the runs and the distance
between the first and third quartile (statistics.quantiles with n=4) as
a share of the median, next to a third of the metric's bound from
BENCHMARK.json. --trace 1 does the same for the per-layer ledger. It
stops with a non-zero exit at the first run whose output checks fail.
--write stores the figures, with the machine and seeds they were taken
on, as the recorded baseline.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", "e2ebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    provenance = next(line.split("provenance:", 1)[1].strip()
                      for line in proc.stderr.splitlines() if "provenance:" in line)
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall, provenance


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--write", help="store the figures as the baseline in this file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    defs = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in defs}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    baseline, provenance = {}, set()
    for w in workloads:
        values, walls = {}, []
        for seed in seeds:
            res, wall, prov = run_once(w, seed, seconds, args.trace)
            provenance.add(prov.rsplit(" seed=", 1)[0])
            walls.append(wall)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w} seed {seed}: {wall:.1f}s {vals}", file=sys.stderr, flush=True)
        print(f"\n{w}: {len(seeds)} runs, wall {min(walls):.1f}-{max(walls):.1f}s")
        baseline[w] = {}
        for d in defs:
            med, q1, q3, share = spread(values[d["name"]])
            b = bounds[d["name"]]
            limit = f"{b / 3:.3f}" if b else "-"
            flag = " OVER" if b and d["name"] != "setup_s" and share >= b / 3 else ""
            print(f"  {d['name']:30s} median {med:14.6g} {d['unit']:9s} iqr/median {share:.3f} (limit {limit}){flag}")
            baseline[w][d["name"]] = {"median": med, "q1": q1, "q3": q3, "iqr_share": share}
    if args.write:
        section = "per_layer" if args.trace else "end_to_end"
        out = json.load(open(args.write)) if os.path.exists(args.write) else {}
        out.setdefault("provenance", {})[section] = {
            "run": sorted(provenance),
            "machine": f"{platform.system()} {platform.machine()} {platform.processor() or ''}".strip(),
            "seeds": seeds,
            "run_seconds": seconds,
            "workloads": workloads,
        }
        out.setdefault(section, {}).update(baseline)
        with open(args.write, "w") as f:
            json.dump(out, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
