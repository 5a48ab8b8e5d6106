#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise its steadiness.

Run from the repository root:

    python3 perfbench/spread.py --workloads olap-rcf,htap-mixed --seeds 1-10
    python3 perfbench/spread.py --workloads dist-scatter --seeds 1-3 --overhead

For every end-to-end metric it prints the median over the seeds, the
quartile spread (Q3 - Q1) / median as statistics.quantiles(n=4) gives
it, and the metric's bound from BENCHMARK.json, flagging spreads at or
above a third of the bound (setup_s is only reported). With --overhead
each seed also runs traced; the table then gives the traced-minus-
untraced difference per end-to-end metric and the traced run's span
coverage. Raw results go to --out as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    report = json.loads(lines[-2][len("report "):])
    return json.loads(lines[-1]), report


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res, report = run_once(workload, seed, seconds, 0)
            entry = {"seed": seed, "result": res, "report": report}
            if args.overhead:
                entry["traced_result"], entry["traced_report"] = run_once(workload, seed, seconds, 1)
            runs.append(entry)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())), flush=True)
        raw[workload] = runs

        print(f"\n{workload} ({len(runs)} seeds, {seconds} s)")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med, sp = spread(values) if len(values) > 1 else (values[0], 0.0)
            flag = "" if name == "setup_s" or sp < bound / 3 else "  <-- spread >= bound/3"
            line = f"  {name:<16} median {med:12.5g}  spread {sp:7.2%}  bound {bound:.0%}{flag}"
            if args.overhead:
                traced = [r["traced_report"]["end_to_end"][name]["value"] for r in runs]
                line += f"  traced {statistics.median(traced):12.5g} ({statistics.median(traced) / med - 1:+.1%})"
            print(line)
        if args.overhead:
            for name in ("trace.query_coverage_frac", "trace.write_coverage_frac"):
                cov = [r["traced_result"]["metrics"][name]["value"] for r in runs]
                print(f"  {name:<26} median {statistics.median(cov):.3f}")
        print()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
