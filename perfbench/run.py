#!/usr/bin/env python3
"""AlphaWAN benchmark command.

    python3 perfbench/run.py --workload scheme_grid --seed 1 --seconds 20 \
        --trace 0

Builds the driver from this checkout's sources on first use (into
.bench_build/perfbench), runs one workload (or `all`) through the
library's public API at a fixed thread count, checks the outputs, and
prints every metric with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a traced run reports the
per-layer ones and writes a Chrome trace (open it in Perfetto). See
perfbench/README.md for the workloads and every metric.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the source tree clean
import rules  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
BASELINE = json.loads((HERE / "baseline.json").read_text())

WORKLOADS = ("scheme_grid", "city_coexist", "capacity_upgrade")
SCHEMES = ("alphawan", "cic", "curvinglora", "lmac", "random-cp", "saloha",
           "ss5g", "standard", "standard-no-adr")
# The fixed thread pool: never larger than the machine.
THREADS = max(1, min(4, os.cpu_count() or 1))
BUILD_TIMEOUT_S = 850
DRIVER_TIMEOUT_S = 160
PAPER_PRR = 0.85  # Fig. 13b: AlphaWAN keeps PRR above 85% at 12k users

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("pkts_per_s", "1/s", "higher"),
    ("window_ms.p50", "ms", "lower"),
    ("window_ms.tail", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = (
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("baselines.mac.self_s", "s", "lower"),
    ("baselines.mac.self_s.lmac", "s", "lower"),
    ("baselines.mac.self_s.saloha", "s", "lower"),
    ("baselines.mac.deferred_frac", "frac", "lower"),
    ("sim.traffic.self_s", "s", "lower"),
    ("sim.window.self_s", "s", "lower"),
    *((f"sim.window.self_s.{s}", "s", "lower") for s in SCHEMES),
    ("sim.window.pkts_per_s", "1/s", "higher"),
    ("sim.shard.resident_rows", "count", "lower"),
    ("sim.shard.boundary_events", "count", "lower"),
    ("perfbench.check.self_s", "s", "lower"),
    ("radio.loss.decoder_intra", "count", "lower"),
    ("radio.loss.decoder_inter", "count", "lower"),
    ("radio.loss.channel", "count", "lower"),
    ("radio.loss.other", "count", "lower"),
    ("radio.delivered_frac", "frac", "higher"),
    ("net.server.uplinks", "count", "lower"),
    ("net.server.delivered", "count", "higher"),
    ("net.server.dedup_frac", "frac", "lower"),
    ("core.log_parser.self_s", "s", "lower"),
    ("core.estimator.self_s", "s", "lower"),
    ("core.ga.solve_s", "s", "lower"),
    ("core.upgrade.other_s", "s", "lower"),
    ("core.upgrade.nodes_changed", "count", "lower"),
    ("core.upgrade.sim_total_s", "sim_s", "lower"),
    ("core.upgrade.sim_master_s", "sim_s", "lower"),
    ("upgrade_ms.p50", "ms", "lower"),
    ("upgrade_ms.tail", "ms", "lower"),
    ("paper_prr_gap", "frac", "lower"),
    ("baselines.configure.self_s", "s", "lower"),
    ("baselines.configure.self_s.alphawan", "s", "lower"),
    ("sim.topology.self_s", "s", "lower"),
    ("sim.runner.self_s", "s", "lower"),
    ("common.parallel.cpu_util", "ratio", "higher"),
)

# Span name -> per-layer metric, for spans under a measured round and
# under a set-up. Glue spans (the round, window and upgrade wrappers) are
# unattributed; core.upgrade is split into the GA solve and the rest.
ROUND_LAYERS = {
    "sim.traffic": "sim.traffic.self_s",
    "baselines.mac": "baselines.mac.self_s",
    "sim.window": "sim.window.self_s",
    "perfbench.check": "perfbench.check.self_s",
    "core.log_parser": "core.log_parser.self_s",
    "core.estimator": "core.estimator.self_s",
    "core.upgrade": "core.upgrade.self_s",
}
ROUND_GLUE = ("round", "window", "upgrade")
SETUP_LAYERS = {
    "sim.topology": "sim.topology.self_s",
    "baselines.configure": "baselines.configure.self_s",
    "sim.runner": "sim.runner.self_s",
}
# The metrics that partition a traced round's wall time.
WALL_PARTS = ("unattributed_s", "sim.traffic.self_s", "baselines.mac.self_s",
              "sim.window.self_s", "perfbench.check.self_s",
              "core.log_parser.self_s", "core.estimator.self_s",
              "core.ga.solve_s", "core.upgrade.other_s")
PER_SCHEME = ("sim.window.self_s", "baselines.mac.self_s",
              "baselines.configure.self_s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no alphawan sources in {ROOT}; run from a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", str(THREADS)])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            fail(f"build failed: {err}")


def driver_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ALPHAWAN_")}
    env["ALPHAWAN_THREADS"] = str(THREADS)
    return env


def run_driver(workload, seed, seconds, trace_path):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_path)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=driver_env(), timeout=DRIVER_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        fail(f"driver failed: {err}")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


class Run:
    """The driver's records for one workload run, split by kind."""

    def __init__(self, records):
        self.start = next(r for r in records if r["type"] == "start")
        self.summary = next(r for r in records if r["type"] == "summary")
        self.digest = next(r for r in records if r["type"] == "digest")
        self.setups = [r["s"] for r in records if r["type"] == "setup"]
        self.windows = [r for r in records if r["type"] == "window"]
        self.upgrades = [r for r in records if r["type"] == "upgrade"]
        self.rounds = [r for r in records
                       if r["type"] == "round" and r["phase"] == "measure"]
        self.measured_windows = [w for w in self.windows
                                 if w["phase"] == "measure"]
        self.measured_upgrades = [u for u in self.upgrades
                                  if u["phase"] == "measure"]


def check(workload, seed, run):
    """Output checks. Returns (attempted, failed, error lines)."""
    ops = ([("window", w) for w in run.windows]
           + [("upgrade", u) for u in run.upgrades])
    failed = set()
    errors = []
    for kind, op in ops:
        found = (rules.window_errors(op) if kind == "window"
                 else rules.upgrade_errors(op))
        if found:
            failed.add((kind, op["phase"], op["id"]))
            errors.append(f"{kind} {op['phase']}#{op['id']}: "
                          + "; ".join(found))
    digest_errors = []
    if run.digest["warmup"] != run.digest["replay"]:
        digest_errors.append(f"replay digest {run.digest['replay']} != "
                             f"{run.digest['warmup']}")
    pinned = BASELINE["digests"].get(workload)
    if seed == BASELINE["seed"] and pinned != run.digest["warmup"]:
        digest_errors.append(f"digest {run.digest['warmup']} != pinned "
                             f"{pinned}")
    if digest_errors:
        errors += digest_errors
        failed |= {(kind, op["phase"], op["id"]) for kind, op in ops
                   if op["phase"] == "warmup"}
    return len(ops), len(failed), errors


def prr_gap(run):
    """Distance below Fig. 13b's 85% of AlphaWAN's PRR on scheme_grid."""
    ours = [w for w in run.measured_windows if w["scheme"] == "alphawan"
            and run.start["workload"] == "scheme_grid"]
    offered = sum(w["offered"] for w in ours)
    if not offered:
        return 0.0, None
    prr = sum(w["delivered"] for w in ours) / offered
    return max(0.0, PAPER_PRR - prr), prr


def by_round(windows):
    rounds = {}
    for w in windows:
        rounds.setdefault(w["round"], []).append(w)
    return list(rounds.values())


def end_to_end(run, notes):
    latencies = [w["ms"] for w in run.measured_windows]
    pct, tail = rules.tail_percentile(latencies)
    if tail is None:
        fail(f"{len(latencies)} windows: too few for a tail percentile")
    notes.append(f"window_ms.tail is p{pct:.1f} of {len(latencies)} windows")
    values = {
        "setup_s": rules.median(run.setups),
        "wall_s": rules.median([r["s"] for r in run.rounds]),
        "pkts_per_s": rules.median([
            1e3 * sum(w["offered"] for w in ws) / sum(w["ms"] for w in ws)
            for ws in by_round(run.measured_windows)]),
        "window_ms.p50": rules.median(latencies),
        "window_ms.tail": tail,
        "peak_rss_mib": run.summary["peak_rss_mib"],
    }
    upgrades = [u["ms"] for u in run.measured_upgrades]
    if upgrades:
        upct, utail = rules.tail_percentile(upgrades)
        notes.append(f"upgrade_ms.p50 {rules.median(upgrades):.3f} ms, "
                     f"upgrade_ms.tail {utail:.3f} ms (p{upct:.1f} of "
                     f"{len(upgrades)} upgrades)")
    gap, prr = prr_gap(run)
    if prr is not None:
        notes.append(f"paper_prr_gap {gap:.4f} (AlphaWAN PRR {prr:.4f} at "
                     f"12k users; Fig. 13b: > {PAPER_PRR})")
    return values


def per_layer(run, events, notes):
    by_index = {e["args"]["span"]: e for e in events}

    def root(e):
        while e["args"]["parent"] >= 0:
            e = by_index[e["args"]["parent"]]
        return e["name"]

    self_us = rules.self_times(events)
    totals = {name: 0.0 for name, _, _ in PER_LAYER}
    totals["core.upgrade.self_s"] = 0.0
    traced_rounds = sum(1 for e in events if e["name"] == "round")
    setups = sum(1 for e in events if e["name"] == "setup")
    round_us = sum(e["dur"] for e in events if e["name"] == "round")
    for index, e in by_index.items():
        name, scheme = e["name"], e["args"]["scheme"]
        where = root(e)
        if where == "round" and name in ROUND_GLUE:
            metric = "unattributed_s"
        elif where == "round" and name in ROUND_LAYERS:
            metric = ROUND_LAYERS[name]
        elif where == "setup" and name in SETUP_LAYERS:
            metric = SETUP_LAYERS[name]
        elif where == "setup" and name == "setup":
            continue
        else:
            fail(f"span {name!r} under {where!r} maps to no layer")
        totals[metric] += self_us[index] / 1e6
        per_scheme = f"{metric}.{scheme}"
        if metric in PER_SCHEME and per_scheme in totals:
            totals[per_scheme] += self_us[index] / 1e6

    values = {}
    for name, value in totals.items():
        if name.startswith(tuple(SETUP_LAYERS.values())):
            values[name] = value / max(1, setups)
        else:
            values[name] = value / max(1, traced_rounds)

    traced = {r["round"] for r in run.rounds if r["traced"]}
    ga_s = sum(u["cp_solve_s"] for u in run.upgrades
               if u["phase"] == "measure" and u["round"] in traced)
    values["core.ga.solve_s"] = ga_s / max(1, traced_rounds)
    values["core.upgrade.other_s"] = (values.pop("core.upgrade.self_s")
                                      - values["core.ga.solve_s"])
    values["trace.wall_s"] = round_us / 1e6 / max(1, traced_rounds)
    untraced = [r["s"] for r in run.rounds if not r["traced"]]
    values["trace.untraced_wall_s"] = (sum(untraced) / len(untraced)
                                       if untraced else 0.0)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])

    traced_windows = [w for w in run.windows
                      if w["phase"] == "measure" and w["round"] in traced]
    offered = sum(w["offered"] for w in traced_windows)
    values["baselines.mac.deferred_frac"] = (
        sum(w["deferred"] for w in traced_windows) / offered)
    window_s = values["sim.window.self_s"] * traced_rounds
    values["sim.window.pkts_per_s"] = offered / window_s if window_s else 0.0

    windows = run.measured_windows
    per_round = 1.0 / len(run.rounds)
    values["sim.shard.resident_rows"] = (
        sum(w["resident_rows"] for w in windows) / len(windows))
    values["sim.shard.boundary_events"] = (
        sum(w["boundary_events"] for w in windows) / len(windows))
    loss = {c: sum(w["loss"][c] for w in windows) for c in rules.LOSS_CAUSES}
    values["radio.loss.decoder_intra"] = loss["decoder_intra"] * per_round
    values["radio.loss.decoder_inter"] = loss["decoder_inter"] * per_round
    values["radio.loss.channel"] = (
        (loss["channel_intra"] + loss["channel_inter"]) * per_round)
    values["radio.loss.other"] = loss["other"] * per_round
    delivered = sum(w["delivered"] for w in windows)
    values["radio.delivered_frac"] = (
        delivered / sum(w["offered"] for w in windows))
    uplinks = sum(w["uplinks"] for w in windows)
    values["net.server.uplinks"] = uplinks * per_round
    values["net.server.delivered"] = (
        sum(w["server_delivered"] for w in windows) * per_round)
    values["net.server.dedup_frac"] = (
        1.0 - sum(w["server_delivered"] for w in windows) / uplinks
        if uplinks else 0.0)

    upgrades = run.measured_upgrades
    n_up = max(1, len(upgrades))
    values["core.upgrade.nodes_changed"] = (
        sum(u["nodes_changed"] for u in upgrades) / n_up)
    values["core.upgrade.sim_total_s"] = (
        sum(u["sim_total_s"] for u in upgrades) / n_up)
    values["core.upgrade.sim_master_s"] = (
        sum(u["sim_master_s"] for u in upgrades) / n_up)
    latencies = [u["ms"] for u in run.measured_upgrades]
    values["upgrade_ms.p50"] = rules.median(latencies) or 0.0
    values["upgrade_ms.tail"] = rules.tail_percentile(latencies)[1] or 0.0
    values["paper_prr_gap"] = prr_gap(run)[0]
    values["common.parallel.cpu_util"] = (run.summary["cpu_s"]
                                          / run.summary["wall_s"])

    layers = sum(values[name] for name in WALL_PARTS)
    notes.append(f"layers + unattributed_s = {layers:.6f} s; trace.wall_s = "
                 f"{values['trace.wall_s']:.6f} s over {traced_rounds} traced "
                 f"rounds; tracing overhead {values['trace.overhead_s']:+.6f} "
                 f"s per round against {len(untraced)} untraced rounds")
    return values


def run_workload(workload, seed, seconds, trace):
    trace_path = (BUILD / "traces" / f"{workload}-seed{seed}.json"
                  if trace else None)
    run = Run(run_driver(workload, seed, seconds, trace_path))
    attempted, failed, errors = check(workload, seed, run)
    notes = [f"workload {workload}, seed {seed}, {THREADS} threads, "
             f"{len(run.rounds)} measured rounds"]
    if trace:
        events = json.loads(trace_path.read_text())["traceEvents"]
        values = per_layer(run, events, notes)
        specs = PER_LAYER
        notes.append(f"trace written to {trace_path}")
    else:
        values = end_to_end(run, notes)
        specs = END_TO_END
    notes.append(f"ops_failed_frac {failed / attempted:.6f} "
                 f"({failed}/{attempted} windows and upgrades)")
    for line in notes + errors:
        print(f"# {line}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in specs}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=BASELINE["seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")
    build()
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    else:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
