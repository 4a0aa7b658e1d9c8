#!/usr/bin/env python3
"""Summarise or compare sets of bench/e2e/run.py results.

Each input is a JSONL file written by `run.py --out FILE`, one line per run.
Runs are grouped by (metric, workload); each group is summarised by its
median and quartiles as statistics.quantiles(values, n=4) gives them.

    python3 bench/e2e/compare.py CURRENT.jsonl
        One row per end-to-end (metric, workload): runs, median, quartiles
        and the quartile spread as a share of the median, marked "steady"
        when the spread is below a third of the metric's bound.

    python3 bench/e2e/compare.py --baseline PARENT.jsonl CURRENT.jsonl
        One row per (metric, workload) with both medians and quartiles and
        the change, judged against the bound in BENCHMARK.json: "ok",
        "REGRESSION" (worse by more than the bound), or "unresolved" when
        the parent's own quartile spread exceeds the bound.

--layers adds the per-layer metrics of traced runs (no bounds). Exit codes:
0 fine, 1 a regression or a run whose checks failed, 2 bad input.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    runs = []
    try:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                runs.append(json.loads(line))
    except (OSError, ValueError) as e:
        sys.exit(f"compare.py: cannot read {path}: {e}")
    if not runs:
        sys.exit(f"compare.py: {path} holds no runs")
    return runs


def groups(runs, trace):
    """{(metric, workload): [values]} over the runs of one trace mode."""
    out = defaultdict(list)
    for r in runs:
        if r["trace"] != trace:
            continue
        for name, m in r["metrics"].items():
            out[(name, r["workload"])].append(m["value"])
    return out


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def failures(runs, label):
    bad = [r for r in runs if r["failed"]]
    for r in bad:
        print(f"{label}: {r['workload']} seed {r['seed']} failed "
              f"{r['failed']}/{r['attempted']}: {r.get('reasons', [])[:3]}")
    return bool(bad)


def fmt(x):
    return f"{x:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current")
    ap.add_argument("--baseline")
    ap.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--layers", action="store_true")
    args = ap.parse_args()

    try:
        bench = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        sys.exit(f"compare.py: cannot read {args.benchmark}: {e}")
    bound = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in bench["end_to_end"] + bench["per_layer"]}
    order = [w["name"] for w in bench["workloads"]]
    cur = load(args.current)
    bad = failures(cur, "current")
    modes = [0] + ([1] if args.layers else [])

    if not args.baseline:
        print(f"{'metric':<30} {'workload':<22} {'runs':>4} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for trace in modes:
            g = groups(cur, trace)
            for (name, wl) in sorted(g, key=lambda k: (order.index(k[1]), k[0])):
                vals = g[(name, wl)]
                q1, med, q3 = summary(vals)
                b = bound.get(name)
                s = spread(vals)
                verdict = "" if b is None else (
                    "steady" if s < b / 3 else "NOISY")
                print(f"{name:<30} {wl:<22} {len(vals):>4} {fmt(med):>12} "
                      f"{fmt(q1):>12} {fmt(q3):>12} {s:>8.3%} "
                      f"{'' if b is None else f'{b:.0%}':>6}  {verdict}")
        return 1 if bad else 0

    base = load(args.baseline)
    bad = failures(base, "baseline") or bad
    regressed = False
    print(f"{'metric':<30} {'workload':<22} {'parent median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'delta':>8} {'bound':>6}  verdict")
    for trace in modes:
        gb, gc = groups(base, trace), groups(cur, trace)
        for key in sorted(set(gb) & set(gc),
                          key=lambda k: (order.index(k[1]), k[0])):
            name, wl = key
            bq1, bmed, bq3 = summary(gb[key])
            cq1, cmed, cq3 = summary(gc[key])
            delta = (cmed - bmed) / abs(bmed) if bmed else 0.0
            worse = delta if better.get(name) == "lower" else -delta
            b = bound.get(name)
            if b is None:
                verdict = ""
            elif spread(gb[key]) > b:
                verdict = "unresolved"
            elif worse > b:
                verdict = "REGRESSION"
                regressed = True
            else:
                verdict = "ok"
            print(f"{name:<30} {wl:<22} "
                  f"{f'{fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}]':>38} "
                  f"{f'{fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}]':>38} "
                  f"{delta:>+8.2%} {'' if b is None else f'{b:.0%}':>6}  "
                  f"{verdict}")
    return 1 if regressed or bad else 0


if __name__ == "__main__":
    sys.exit(main())
