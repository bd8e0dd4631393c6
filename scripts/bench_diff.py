#!/usr/bin/env python3
"""Perf-regression gate over two BENCH_*.json files.

    python3 scripts/bench_diff.py OLD.json NEW.json [--tolerance 0.25]

Compares a baseline bench document against a freshly generated one and
exits non-zero when NEW regresses beyond the tolerance. Two shapes are
understood, sniffed from the document itself:

  * BENCH_parallel.json — a top-level "configs" list. Rows are matched
    on (target, jobs, solver_cache). A regression is wall_s beyond the
    tolerance, a cache hit-rate drop of more than 0.10 absolute, or a
    row whose identical_report flag went false (the determinism invariant is
    never a matter of tolerance). Rows flagged "oversubscribed" (the
    requested --jobs exceeded the host's cores, so the pool was
    clamped) skip the timing gates: their walls measure the clamp, not
    the engine.

    The parallel shape also carries blocking intra-NEW gates that need
    no baseline at all: a non-oversubscribed jobs>=2 row whose
    speedup_vs_jobs1 is below 1.0 means adding workers made the engine
    slower; a non-oversubscribed jobs>=4 row must additionally clear
    the half-linear multi-core floor (speedup >= jobs/2 — the ROADMAP
    item 1 exit criterion, blocking rather than informational since the
    bench is regenerated on the multi-core CI runner; on hosts with
    fewer cores the row is flagged oversubscribed and the floor does
    not apply, because its wall measures the clamp, not the engine —
    but if EVERY jobs>=4 row is oversubscribed the gate fails outright
    instead of passing vacuously, since "ok" must mean the floor was
    actually checked; rows carry a per-row "cores" field so this can
    be judged without the document header);
    and a jobs-1 cache-on row slower than its target's cache-off row by
    more than the noise allowance means the solver cache costs more
    than it saves. All hard-fail.
  * BENCH_microbench.json — a top-level "metrics" object. Every
    bench.*.ns_per_run gauge present in both documents is compared
    against the tolerance (this covers the bench.interp.* /
    bench.compiled.* executor pair), bench.span_overhead.ratio (when
    recorded) must stay within its own 1.05x budget, and
    bench.exec_mode.speedup carries the compiled-executor gate: hard
    regression below 2x, an informational warning below the 5x target.

Timing noise is real: the default tolerance is deliberately loose, and
speedups are reported but never gated (a faster NEW is not an error).
Structural mismatches — a config present in OLD but gone from NEW, or
documents of different shapes — are errors too: silently comparing
nothing must not pass.
"""

import argparse
import json
import sys

HIT_RATE_DROP = 0.10
SPAN_OVERHEAD_BUDGET = 1.05
EXEC_SPEEDUP_FLOOR = 2.0   # hard gate, mirrors bench/microbench.ml
EXEC_SPEEDUP_TARGET = 5.0  # informational target per ROADMAP
# Cache-on may not be slower than cache-off (same target, jobs=1) beyond
# this factor. The allowance absorbs timing noise on targets whose
# individual solves are so cheap that the cache's win is marginal; a
# genuine "the cache costs more than it saves" regression lands well
# outside it.
CACHE_ON_ALLOWANCE = 1.10
# A non-oversubscribed row with this many jobs or more must reach at
# least MULTICORE_SPEEDUP_FRACTION * jobs speedup over jobs=1: the
# half-linear floor under the ROADMAP's near-linear exit criterion,
# leaving headroom for merge serialization and shared-runner noise.
MULTICORE_GATE_MIN_JOBS = 4
MULTICORE_SPEEDUP_FRACTION = 0.5
# Set by --allow-vacuous-floor: downgrade the "every jobs>=4 row is
# oversubscribed, so the floor was never checked" refusal to a warning.
ALLOW_VACUOUS_FLOOR = False


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot load {path}: {e}")


def shape(doc):
    if isinstance(doc, dict) and isinstance(doc.get("configs"), list):
        return "parallel"
    if isinstance(doc, dict) and isinstance(doc.get("metrics"), dict):
        return "microbench"
    return None


def fmt_delta(old, new):
    if old <= 0:
        return "n/a"
    return f"{100.0 * (new - old) / old:+.1f}%"


def parallel_row_key(c):
    return (c.get("target"), c.get("jobs"), c.get("solver_cache"))


def parallel_label(key):
    target, jobs, cache = key
    return f"{target} jobs={jobs} cache={'on' if cache else 'off'}"


def diff_parallel(old, new, tol, out):
    regressions = []
    old_rows = {parallel_row_key(c): c for c in old["configs"]}
    new_rows = {parallel_row_key(c): c for c in new["configs"]}
    out.append(f"{'config':>26} {'old wall':>10} {'new wall':>10} {'delta':>8} "
               f"{'old hit':>8} {'new hit':>8}")
    for key in sorted(old_rows, key=lambda k: (str(k[0]), str(k[1]), str(k[2]))):
        label = parallel_label(key)
        if key not in new_rows:
            regressions.append(f"config {label} missing from NEW")
            continue
        n = new_rows[key]
        o = old_rows[key]
        oversub = o.get("oversubscribed", False) or n.get("oversubscribed", False)
        ow, nw = o.get("wall_s", 0.0), n.get("wall_s", 0.0)
        oh, nh = o.get("cache_hit_rate", 0.0), n.get("cache_hit_rate", 0.0)
        out.append(f"{label:>26} {ow:>9.3f}s {nw:>9.3f}s {fmt_delta(ow, nw):>8} "
                   f"{100 * oh:>7.1f}% {100 * nh:>7.1f}%"
                   + ("  (oversubscribed: timing not gated)" if oversub else ""))
        if not oversub and ow > 0 and nw > ow * (1.0 + tol):
            regressions.append(
                f"{label}: wall_s {ow:.3f} -> {nw:.3f} "
                f"({fmt_delta(ow, nw)} > +{100 * tol:.0f}% tolerance)")
        if oh - nh > HIT_RATE_DROP:
            regressions.append(
                f"{label}: cache hit rate dropped {oh:.2f} -> {nh:.2f} "
                f"(more than {HIT_RATE_DROP:.2f} absolute)")
        if not n.get("identical_report", False):
            regressions.append(f"{label}: identical_report is false in NEW")
    if not new.get("identical_reports", False):
        regressions.append("NEW identical_reports flag is false")
    regressions.extend(gate_parallel_new(new, out))
    return regressions


def gate_parallel_new(new, out):
    """Blocking gates evaluated on NEW alone (no baseline required)."""
    failures = []
    floor_candidates = 0
    floor_evaluated = 0
    row_cores = set()
    for c in new["configs"]:
        key = parallel_row_key(c)
        jobs = c.get("jobs") or 0
        speedup = c.get("speedup_vs_jobs1")
        if isinstance(c.get("cores"), int):
            row_cores.add(c["cores"])
        if (jobs >= 2 and not c.get("oversubscribed", False)
                and isinstance(speedup, (int, float)) and speedup < 1.0):
            failures.append(
                f"{parallel_label(key)}: speedup_vs_jobs1 {speedup:.2f} < 1.0 "
                f"on a non-oversubscribed row — extra workers made it slower")
        if jobs >= MULTICORE_GATE_MIN_JOBS:
            floor_candidates += 1
        if (jobs >= MULTICORE_GATE_MIN_JOBS and not c.get("oversubscribed", False)
                and isinstance(speedup, (int, float))):
            floor_evaluated += 1
            floor = MULTICORE_SPEEDUP_FRACTION * jobs
            if speedup < floor:
                failures.append(
                    f"{parallel_label(key)}: speedup_vs_jobs1 {speedup:.2f} is "
                    f"below the half-linear multi-core floor {floor:.1f} "
                    f"(jobs={jobs} on a non-oversubscribed host)")
            else:
                out.append(
                    f"multi-core gate: {parallel_label(key)} speedup "
                    f"{speedup:.2f} >= floor {floor:.1f}: ok")
    # The floor gate must never pass vacuously: if the document has
    # jobs>=4 rows but every one of them was oversubscribed (the bench
    # ran on a small host), nothing above was checked — refusing here
    # beats reporting "ok" for a gate that never ran. A caller that
    # knows a dedicated multi-core job carries the live floor can
    # downgrade the refusal to a warning with --allow-vacuous-floor.
    if floor_candidates and not floor_evaluated:
        cores_note = (
            f" (host reported {sorted(row_cores)[0]} core(s))"
            if len(row_cores) == 1 else "")
        msg = (
            f"multi-core floor gate is vacuous: all {floor_candidates} "
            f"jobs>={MULTICORE_GATE_MIN_JOBS} row(s) are oversubscribed"
            f"{cores_note} — regenerate the bench on a host with at least "
            f"{MULTICORE_GATE_MIN_JOBS} cores")
        if ALLOW_VACUOUS_FLOOR:
            out.append(f"warn: {msg} (waived by --allow-vacuous-floor)")
        else:
            failures.append(msg)
    jobs1 = {}
    for c in new["configs"]:
        if c.get("jobs") == 1:
            jobs1.setdefault(c.get("target"), {})[bool(c.get("solver_cache"))] = c
    for target in sorted(jobs1, key=str):
        pair = jobs1[target]
        if True in pair and False in pair:
            on = pair[True].get("wall_s", 0.0)
            off = pair[False].get("wall_s", 0.0)
            if off > 0 and on > off * CACHE_ON_ALLOWANCE:
                failures.append(
                    f"{target} jobs=1: cache-on wall {on:.3f}s is more than "
                    f"{CACHE_ON_ALLOWANCE:.2f}x the cache-off wall {off:.3f}s "
                    f"— the solver cache costs more than it saves")
            else:
                out.append(
                    f"cache gate: {target} cache-on {on:.3f}s vs "
                    f"cache-off {off:.3f}s (allowance {CACHE_ON_ALLOWANCE:.2f}x): ok")
    return failures


def diff_microbench(old, new, tol, out):
    regressions = []
    om, nm = old["metrics"], new["metrics"]
    gauges = sorted(
        k for k in om
        if k.startswith("bench.") and k.endswith(".ns_per_run")
        and isinstance(om[k], (int, float)))
    if not gauges:
        regressions.append("OLD has no bench.*.ns_per_run gauges to compare")
    out.append(f"{'gauge':<52} {'old':>12} {'new':>12} {'delta':>8}")
    for k in gauges:
        if k not in nm or not isinstance(nm[k], (int, float)):
            regressions.append(f"gauge {k} missing from NEW")
            continue
        o, n = float(om[k]), float(nm[k])
        out.append(f"{k:<52} {o:>10.0f}ns {n:>10.0f}ns {fmt_delta(o, n):>8}")
        if o > 0 and n > o * (1.0 + tol):
            regressions.append(
                f"{k}: {o:.0f}ns -> {n:.0f}ns "
                f"({fmt_delta(o, n)} > +{100 * tol:.0f}% tolerance)")
    ratio = nm.get("bench.span_overhead.ratio")
    if isinstance(ratio, (int, float)):
        out.append(f"{'bench.span_overhead.ratio':<52} "
                   f"{'':>12} {ratio:>11.3f}x {'':>8}")
        if ratio > SPAN_OVERHEAD_BUDGET:
            regressions.append(
                f"span overhead ratio {ratio:.3f} exceeds the "
                f"{SPAN_OVERHEAD_BUDGET}x budget")
    speedup = nm.get("bench.exec_mode.speedup")
    if isinstance(speedup, (int, float)):
        out.append(f"{'bench.exec_mode.speedup':<52} "
                   f"{'':>12} {speedup:>11.1f}x {'':>8}")
        if speedup < EXEC_SPEEDUP_FLOOR:
            regressions.append(
                f"compiled executor speedup {speedup:.2f}x is below the "
                f"{EXEC_SPEEDUP_FLOOR}x floor")
        elif speedup < EXEC_SPEEDUP_TARGET:
            out.append(
                f"warn: compiled executor speedup {speedup:.1f}x is below "
                f"the {EXEC_SPEEDUP_TARGET}x target (not gated)")
    return regressions


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="baseline BENCH_*.json")
    parser.add_argument("new", help="freshly generated BENCH_*.json")
    parser.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRAC",
        help="allowed fractional slowdown before a timing counts as a "
             "regression (default 0.25 = +25%%)")
    parser.add_argument(
        "--allow-vacuous-floor", action="store_true",
        help="warn instead of failing when every jobs>=4 row is "
             "oversubscribed (for small hosts whose multi-core floor is "
             "gated by a dedicated job elsewhere)")
    args = parser.parse_args()
    global ALLOW_VACUOUS_FLOOR
    ALLOW_VACUOUS_FLOOR = args.allow_vacuous_floor

    old, new = load(args.old), load(args.new)
    os_, ns_ = shape(old), shape(new)
    if os_ is None or ns_ is None or os_ != ns_:
        sys.exit(f"error: cannot compare shapes {os_!r} ({args.old}) and "
                 f"{ns_!r} ({args.new})")

    out = [f"bench_diff: {args.old} vs {args.new} "
           f"({os_}, tolerance +{100 * args.tolerance:.0f}%)"]
    diff = diff_parallel if os_ == "parallel" else diff_microbench
    regressions = diff(old, new, args.tolerance, out)
    print("\n".join(out))
    if regressions:
        for r in regressions:
            print(f"REGRESSION: {r}", file=sys.stderr)
        print(f"{len(regressions)} regression(s)", file=sys.stderr)
        return 1
    print("ok: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
