#!/usr/bin/env python3
"""Steadiness study: runs the benchmark on several seeds per workload and
reports, for each end-to-end metric, the median, the quartiles and the
run-to-run spread (interquartile range over median) next to its bound.

Run from the repository root:

    python3 perfbench/study.py --seeds 101-110 --out perfbench/steadiness.json \
        --markdown perfbench/STEADINESS.md
    python3 perfbench/study.py --workloads churn --seeds 1-5

Each run is the command of BENCHMARK.json with --trace 0. The host's
steal share (from /proc/stat) over each workload's runs is recorded too.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def cpu_ticks():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} failed its output checks: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma list; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None, help="write the study as JSON")
    ap.add_argument("--markdown", default=None, help="write the study as a table")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    study = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        steal0, total0 = cpu_ticks()
        started = time.time()
        for seed in seeds:
            runs.append(run_once(bench, workload, seed, seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in runs[-1].items()), file=sys.stderr)
        steal1, total1 = cpu_ticks()
        rows = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"],
                "steady": name == "setup_s" or spread < metric["bound"] / 3,
                "values": values,
            }
        study["workloads"][workload] = {
            "wall_s": time.time() - started,
            "steal_share": (steal1 - steal0) / max(total1 - total0, 1),
            "metrics": rows,
        }
        print(f"\n{workload}  (steal share {study['workloads'][workload]['steal_share']:.4f})")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, r in rows.items():
            flag = "" if r["steady"] else "  <-- above bound/3"
            print(f"  {name:18} {r['median']:12.5g} {r['q1']:12.5g} {r['q3']:12.5g} "
                  f"{r['spread']:8.4f} {r['bound']:6.2f}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(study, f, indent=1)
            f.write("\n")
    if args.markdown:
        with open(args.markdown, "w") as f:
            f.write(markdown(study))


def markdown(study):
    lines = [
        "# Steadiness study",
        "",
        f"Each workload ran {len(study['seeds'])} times, once per seed "
        f"{study['seeds'][0]}..{study['seeds'][-1]}, {study['seconds']} s per run,"
        " with `--trace 0`. Spread is (q3 - q1) / median over those runs, with"
        " quartiles from Python's `statistics.quantiles(values, n=4)`. A metric"
        " is steady when its spread is below a third of its bound (`setup_s`"
        " is exempt). Steal share is the host's steal time over the workload's"
        " runs, from `/proc/stat`. Written by `perfbench/study.py`.",
        "",
    ]
    for workload, w in study["workloads"].items():
        lines += [
            f"## {workload}",
            "",
            f"Steal share {w['steal_share']:.4f}; {w['wall_s']:.0f} s for all runs.",
            "",
            "| Metric | Median | Q1 | Q3 | Spread | Bound | Steady |",
            "|---|---|---|---|---|---|---|",
        ]
        for name, r in w["metrics"].items():
            lines.append(
                f"| `{name}` | {r['median']:.5g} | {r['q1']:.5g} | {r['q3']:.5g} "
                f"| {r['spread']:.4f} | {r['bound']} | {'yes' if r['steady'] else 'no'} |")
        lines.append("")
    return "\n".join(lines)


if __name__ == "__main__":
    main()
