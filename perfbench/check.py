#!/usr/bin/env python3
"""Checks for the campaign benchmark, run from the repository root.

  python3 perfbench/check.py smoke                       tiny campaigns on every workload
  python3 perfbench/check.py full --seed S [--held-out]  every workload once, both metric sets
  python3 perfbench/check.py spread [--workload W ...]   two sets of ten runs, seeds 1..10

smoke checks that the printed metric names equal those in BENCHMARK.json,
that every metric has a unit, that the layer spans leave at most 0.05 of
traced wall unattributed and put at most 0.05 of it in the loop's own
bookkeeping, and that every output check passed. full does the same at the
real budgets and prints the calibration lines; with --held-out every
workload runs campaign seeds drawn from S outside its fixed population, so
the checks and calibration meet campaigns the benchmark was not tuned on.
spread runs the end-to-end set ten times per workload, one seed per run,
then does it all again. Per metric it prints each set's median and the
distance between its first and third quartiles as a share of the median,
and how much worse the second median is than the first, beside the
metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["bash", "perfbench/run.sh"]
RUNS = 10
SHARE_LIMITS = {"trace.unattributed_share": 0.05, "trace.loop_self_share": 0.05}


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace, extra=()):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines, proc.stderr, result


def check_sets(spec, workloads, seed, seconds, extra):
    """Run every workload at both trace levels; return the failures."""
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    ops_per_ms = {}
    for w in workloads:
        for trace in (0, 1):
            code, lines, err, result = run(w, seed, seconds, trace, extra)
            tag = f"{w} --trace {trace}"
            if code != 0 or result is None:
                failures.append(f"{tag}: exit {code}\n{err.strip()}")
                continue
            print(f"== {tag}")
            for line in lines[:-1]:
                print(line)
            metrics = result["metrics"]
            if sorted(metrics) != sorted(wanted[trace]):
                failures.append(f"{tag}: metric names differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ set(wanted[trace]))}")
            for name, m in metrics.items():
                if not m.get("unit"):
                    failures.append(f"{tag}: {name} has no unit")
            if not result["correct"]:
                failures.append(f"{tag}: an output check failed\n{err.strip()}")
            if trace == 1:
                for name, limit in SHARE_LIMITS.items():
                    share = metrics[name]["value"]
                    if share > limit:
                        failures.append(f"{tag}: {name} {share:.4f} > {limit}")
                ops_per_ms[w] = metrics["mpisim.ops_per_ms"]["value"]
    if "imb-messages" in ops_per_ms and "npb-compute" in ops_per_ms:
        imb, npb = ops_per_ms["imb-messages"], ops_per_ms["npb-compute"]
        verdict = "as expected" if imb > 3 * npb else \
            "WARNING: imb-messages should run well over 3x the MPI operations per ms"
        print(f"calibration mpisim.ops_per_ms: imb-messages {imb:.1f}, "
              f"npb-compute {npb:.1f}; {verdict}")
    return failures


def ten_runs(spec, w):
    """End-to-end values of RUNS runs of workload w, seeds 1..RUNS."""
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(1, RUNS + 1):
        code, _, err, result = run(w, seed, spec["run_seconds"], 0)
        if code != 0 or result is None or not result["correct"]:
            print(f"{w} seed {seed}: failed (exit {code})\n{err.strip()}")
            return None
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    return values


def spread(spec, workloads):
    sets = []
    for k in (1, 2):
        sets.append({})
        for w in workloads:
            values = ten_runs(spec, w)
            if values is None:
                return 1
            sets[-1][w] = values
            print(f"set {k} {w}: done", flush=True)
    worst_spread = worst_shift = 0.0
    for w in workloads:
        print(f"{w}: {RUNS} runs per set, seeds 1..{RUNS}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for s in sets:
                xs = s[w][name]
                q = statistics.quantiles(xs, n=4)
                meds.append(statistics.median(xs))
                spreads.append((q[2] - q[0]) / meds[-1])
            shift = (meds[1] - meds[0]) / meds[0]
            worse = shift if m["better"] == "lower" else -shift
            worst_spread = max(worst_spread, max(spreads) / bound)
            worst_shift = max(worst_shift, worse / bound)
            print(f"  {name:<20} bound {bound}")
            for k, s in enumerate(sets):
                print(f"    set {k + 1}: median {meds[k]:<12.6g} spread {spreads[k]:.4f} "
                      f"({spreads[k] / bound:.2f} of bound)  "
                      + " ".join(f"{x:.6g}" for x in s[w][name]))
            print(f"    second median worse than the first by {worse:+.4f} "
                  f"({worse / bound:+.2f} of bound)")
    print(f"largest spread: {worst_spread:.2f} of its bound; "
          f"largest worsening between the sets: {worst_shift:+.2f} of its bound")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=["smoke", "full", "spread"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--held-out", action="store_true")
    p.add_argument("--workload", action="append")
    a = p.parse_args()
    spec = load_spec()
    workloads = a.workload or [w["name"] for w in spec["workloads"]]
    if a.mode == "spread":
        return spread(spec, workloads)
    if a.mode == "smoke":
        failures = check_sets(spec, workloads, a.seed, 1, ["--smoke"])
    else:
        extra = ["--held-out"] if a.held_out else []
        failures = check_sets(spec, workloads, a.seed, spec["run_seconds"], extra)
    for f in failures:
        print("FAIL", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
