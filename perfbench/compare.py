#!/usr/bin/env python3
"""Summarise or compare perfbench result files.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result file holds one JSON line per run, as `run.py --out FILE`
appends them. Metrics are grouped per workload: end-to-end metrics from
untraced runs, per-layer metrics from traced ones.

With one file, prints each metric's median and its spread (the distance
between the first and third quartile as a share of the median) beside
the metric's bound from BENCHMARK.json, and the share of failed
operations. A spread wider than the bound is marked WIDE (set-up time
excepted, whose bound applies to its median only).

With two files, labels every pairing of metric and workload:
  worse       the new median is worse than the base median by more than
              the bound (per-layer metrics have none: more than the base
              spread)
  better      the new median is better by more than the base spread and
              the new side wins at least nine tenths of the runs paired
              by seed (or every new run beats every base run)
  unresolved  the base spread is wider than the bound, so a change of the
              bound's size could not be seen, unless every new run beats
              (better) or loses to (worse) every base run
  unchanged   otherwise
It also flags a change in the share of failed operations. The exit code
is 1 when any pairing is worse or the failed share changed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m, trace=0)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, trace=1, bound=None)
    return metrics


def load_runs(path):
    """{(workload, trace): [(seed, result), ...]} in file order."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                key = (rec["workload"], rec["trace"])
                runs.setdefault(key, []).append((rec["seed"], rec["result"]))
    return runs


def values(runs, name):
    return [(seed, r["metrics"][name]["value"]) for seed, r in runs
            if name in r["metrics"]]


def spread(vals):
    if len(vals) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def failed_share(runs):
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    shares = sorted({r["failed"] / r["attempted"] for _, r in runs})
    return failed / attempted if attempted else 0.0, shares


def summarise(spec, runs):
    for (workload, trace), group in sorted(runs.items()):
        share, shares = failed_share(group)
        steady = "same in every run" if len(shares) == 1 else "VARIES"
        print(f"{workload} (trace={trace}, {len(group)} runs): failed "
              f"share {share:.6f} ({steady})")
        for name, m in spec.items():
            if m["trace"] != trace:
                continue
            vals = [v for _, v in values(group, name)]
            if not vals:
                continue
            med = statistics.median(vals)
            sp = spread(vals)
            bound = m.get("bound")
            mark = ""
            if bound is not None and name != "setup_s":
                mark = "WIDE" if sp > bound else (
                    "ok" if sp <= bound / 3 else "within bound")
            btxt = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:34s} median {med:14.6g} {m['unit']:8s} "
                  f"spread {sp:7.3f}  bound {btxt:>5s}  {mark}")


def label(m, base, new):
    """One pairing's label; values are (seed, value) lists."""
    sign = 1 if m["better"] == "lower" else -1
    b = [v for _, v in base]
    n = [v for _, v in new]
    bmed, nmed = statistics.median(b), statistics.median(n)
    if bmed == 0:
        return "unchanged" if nmed == 0 else "unresolved", 0.0
    worse_by = sign * (nmed - bmed) / abs(bmed)
    base_spread = spread(b) if len(b) > 1 else 0.0
    limit = m["bound"] if m.get("bound") is not None else base_spread
    # In "lower is better" terms: every new run beats every base run.
    all_better = max(sign * v for v in n) < min(sign * v for v in b)
    all_worse = min(sign * v for v in n) > max(sign * v for v in b)
    paired = dict(base)
    pairs = [(paired[s], v) for s, v in new if s in paired]
    wins = sum(1 for bv, nv in pairs if sign * (nv - bv) < 0)
    if m.get("bound") is not None and base_spread > m["bound"]:
        if all_better:
            return "better", worse_by
        if all_worse:
            return "worse", worse_by
        return "unresolved", worse_by
    if worse_by > limit:
        return "worse", worse_by
    if -worse_by > base_spread and (
            all_better or (pairs and wins >= 0.9 * len(pairs))):
        return "better", worse_by
    return "unchanged", worse_by


def compare(spec, base_runs, new_runs):
    bad = False
    for key in sorted(set(base_runs) & set(new_runs)):
        workload, trace = key
        bshare, _ = failed_share(base_runs[key])
        nshare, _ = failed_share(new_runs[key])
        note = "" if bshare == nshare else "  FAILED SHARE CHANGED"
        bad |= bshare != nshare
        print(f"{workload} (trace={trace}): failed share {bshare:.6f} -> "
              f"{nshare:.6f}{note}")
        for name, m in spec.items():
            if m["trace"] != trace:
                continue
            b, n = values(base_runs[key], name), values(new_runs[key], name)
            if not b or not n:
                continue
            lab, worse_by = label(m, b, n)
            bad |= lab == "worse"
            print(f"  {name:34s} {statistics.median([v for _, v in b]):12.6g}"
                  f" -> {statistics.median([v for _, v in n]):12.6g} "
                  f"{m['unit']:8s} {-100 * worse_by:+7.2f}%  {lab}")
    return 1 if bad else 0


def main(argv):
    if len(argv) not in (2, 3) or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    base = load_runs(argv[1])
    if len(argv) == 2:
        summarise(spec, base)
        return 0
    return compare(spec, base, load_runs(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
