#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/measure.py --seeds 1-10                 # every workload
    python3 perfbench/measure.py --workloads city_coexist --seeds 1-5
    python3 perfbench/measure.py --seeds 1-10 --write-baseline

For every workload and end-to-end metric this prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median of
the runs, and flags a spread above a third of the metric's bound in
BENCHMARK.json. --write-baseline stores the figures, plus each workload's
top three layers by self time from one traced run at the default seed, in
perfbench/baseline.json.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import rules  # noqa: E402
import run as bench  # noqa: E402

ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: m["value"] for k, m in result["metrics"].items()}


def top_layers(workload, seed, seconds):
    values = run_once(workload, seed, seconds, 1)
    ranked = sorted(((values[name], name) for name in bench.WALL_PARTS),
                    reverse=True)[:3]
    wall = values["trace.wall_s"]
    return [{"layer": name, "self_s": value, "share": value / wall}
            for value, name in ranked]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        report[workload] = {}
        for name, _, _ in bench.END_TO_END:
            values = [r[name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = rules.quartile_spread(values)
            report[workload][name] = {"median": q2, "q1": q1, "q3": q3,
                                      "spread": spread, "runs": values}
            flag = ("" if name == "setup_s" or spread <= bounds[name] / 3
                    else "  <-- above bound/3")
            print(f"{workload:17s} {name:15s} median {q2:12.6g}  "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f} "
                  f"(bound {bounds[name]}){flag}", flush=True)
            print("    runs: " + " ".join(f"{v:.6g}" for v in values))

    if args.write_baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text())
        baseline["measured"] = {
            "seeds": args.seeds,
            "run_seconds": seconds,
            "threads": bench.THREADS,
            "host": f"{platform.machine()}, {bench.THREADS} worker threads",
            "end_to_end": report,
            "top_layers": {w: top_layers(w, baseline["seed"], seconds)
                           for w in report},
        }
        path.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
