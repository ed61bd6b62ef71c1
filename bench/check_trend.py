#!/usr/bin/env python3
"""Diff two bench JSON artifacts and fail on model-cycle regressions.

Usage:
  check_trend.py BASELINE.json CURRENT.json [--max-regress-pct N]
                 [--metric model_cycles] [--require-all]
                 [--higher-is-better] [--min-abs-delta D] [--exact]

Both files are arrays of rows as written by bench::JsonReport:
  {"scenario": "...", "wall_ns": ..., "model_cycles": ..., ...}

Scenarios present in both files with a positive baseline metric are
compared; the tool exits non-zero when any scenario's metric regressed by
more than --max-regress-pct percent. model_cycles is deterministic (the
simulator is bit-exact), so regressions there are real code changes, not
noise; wall_ns can be checked with a generous threshold instead.

By default smaller is better (cycles, latency). --higher-is-better flips
the direction for throughput-style metrics (e.g. the service load
generator's qps): a regression is then a metric that SHRANK by more than
--max-regress-pct percent.

Noisy wall-clock metrics (the load generator's p99_ms on a small, loaded
CI box) need a second guard: --min-abs-delta D additionally requires the
regression to exceed D in the metric's own unit before it counts, so a
large relative swing on a tiny absolute value (0.2ms -> 0.5ms) doesn't
fail the build while a real blowup (5ms -> 50ms) still does.

Deterministic metrics (model_cycles, intersect_txns) are meant to be
bit-identical across refactors, and a percentage bound only guards one
direction: --max-regress-pct 0 still passes a drop. --exact fails on any
change of the metric in either direction instead (the percentage options
are then ignored).

Scenarios only present in one file are reported as added/removed (and fail
the check under --require-all, which guards against a bench silently
dropping coverage).

Rows marked "oom": "1" are scenarios whose engine exceeded the simulated
device-memory budget: they carry no measurement (the benches emit wall_ns 0
and model_cycles 0 for them). A scenario OOM in BOTH files is skipped
explicitly; a scenario that newly became OOM against a live baseline is a
regression; one that recovered from a baseline OOM is reported but has no
baseline signal to compare against.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        rows = json.load(f)
    out = {}
    for row in rows:
        out[row["scenario"]] = row
    return out


def is_oom(row):
    return str(row.get("oom", "0")) == "1"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regress-pct", type=float, default=5.0,
                        help="fail when metric grows more than this percent "
                             "(default: 5)")
    parser.add_argument("--metric", default="model_cycles",
                        help="row field to compare (default: model_cycles)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when the current file is missing any "
                             "baseline scenario")
    parser.add_argument("--higher-is-better", action="store_true",
                        help="the metric is a throughput: regression = it "
                             "shrank by more than --max-regress-pct")
    parser.add_argument("--min-abs-delta", type=float, default=0.0,
                        help="also require the regression to exceed this "
                             "absolute delta in the metric's unit "
                             "(default: 0 = percent threshold alone decides)")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any change of the metric, up or down "
                             "(for deterministic metrics)")
    args = parser.parse_args()

    base = load(args.baseline)
    cur = load(args.current)

    removed = sorted(set(base) - set(cur))
    added = sorted(set(cur) - set(base))
    for name in removed:
        print(f"removed:   {name}")
    for name in added:
        print(f"added:     {name}")

    regressions = []
    improved = 0
    unchanged = 0
    skipped_oom = 0
    recovered = 0
    for name in sorted(set(base) & set(cur)):
        b_row, c_row = base[name], cur[name]
        if is_oom(b_row) and is_oom(c_row):
            skipped_oom += 1  # expected OOM in both runs: nothing to compare
            continue
        if is_oom(c_row) and not is_oom(b_row):
            b = float(b_row.get(args.metric, 0))
            if b > 0:
                regressions.append((name, b, 0.0, -100.0))
                print(f"REGRESSED: {name}: scenario became OOM against a "
                      f"live baseline ({args.metric} {b:.0f} -> OOM)")
            else:
                skipped_oom += 1  # baseline had no signal anyway (CPU row)
            continue
        if is_oom(b_row) and not is_oom(c_row):
            recovered += 1
            print(f"recovered: {name} (baseline OOM, now produces "
                  f"{args.metric}={float(c_row.get(args.metric, 0)):.0f}; "
                  f"no baseline to compare)")
            continue
        b = float(b_row.get(args.metric, 0))
        c = float(c_row.get(args.metric, 0))
        if args.exact:
            if c != b:
                regressions.append((name, b, c, 0.0))
                print(f"CHANGED:   {name}: {args.metric} {b:.0f} -> {c:.0f}")
            else:
                unchanged += 1
            continue
        if b <= 0:
            continue  # no baseline signal (CPU rows)
        if c <= 0:
            # Metric collapsed to zero against a live baseline — typically an
            # unmarked failure row. The worst regression, not an improvement.
            regressions.append((name, b, c, -100.0))
            print(f"REGRESSED: {name}: {args.metric} {b:.0f} -> 0 "
                  f"(scenario stopped producing a result)")
            continue
        delta_pct = 100.0 * (c - b) / b
        regressed = (delta_pct < -args.max_regress_pct
                     if args.higher_is_better
                     else delta_pct > args.max_regress_pct)
        if regressed and abs(c - b) < args.min_abs_delta:
            regressed = False  # relative swing on a negligible absolute value
        if regressed:
            regressions.append((name, b, c, delta_pct))
            print(f"REGRESSED: {name}: {args.metric} {b:.0f} -> {c:.0f} "
                  f"({delta_pct:+.2f}%)")
        elif (c > b) if args.higher_is_better else (c < b):
            improved += 1
        else:
            unchanged += 1

    print(f"\n{len(base)} baseline / {len(cur)} current scenarios; "
          f"{improved} improved, {unchanged} unchanged/within-threshold, "
          f"{skipped_oom} skipped (OOM), {recovered} recovered, "
          f"{len(regressions)} {'changed' if args.exact else 'regressed'} "
          f"(metric={args.metric}, "
          f"threshold={'exact' if args.exact else f'{args.max_regress_pct}%'})")

    if regressions:
        return 1
    if args.require_all and removed:
        print("FAIL: --require-all set and scenarios were removed")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
