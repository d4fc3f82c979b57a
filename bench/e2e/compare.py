#!/usr/bin/env python3
"""Compares two sets of untraced benchmark runs under BENCHMARK.json's bounds.

    python3 bench/e2e/compare.py PARENT_DIR CHILD_DIR

Each directory holds the e2e_result_<workload>_<seed>.json files that
run.py writes (to .bench_build/e2e/ by default), one per run. For every
workload and end-to-end metric this prints both medians, their spreads
(interquartile range over median), the change, and a verdict:

- regressed: the child's median is worse than the parent's by more than
  the bound, and for setup_s also by more than 0.05 s;
- unresolved: not regressed, but a spread is wider than the bound and not
  every child run reads better than every parent run;
- ok: otherwise.

It also checks that runs of the same workload and seed gave the same
digests. The exit code is 1 when a metric regressed or a digest differs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
SETUP_FLOOR_S = 0.05


def load_runs(directory):
    """Untraced full-size results, by workload, then by seed."""
    runs = {}
    for path in sorted(Path(directory).glob("e2e_result_*.json")):
        record = json.loads(path.read_text())
        c = record["conditions"]
        if c["traced"] or c["smoke"]:
            continue
        runs.setdefault(c["workload"], {})[c["seed"]] = record
    return runs


def digests_by_input(record):
    """Every digest an input gave in one run (a run may repeat inputs)."""
    out = {}
    for i, digest in record["digests"]:
        out.setdefault(i, set()).add(digest)
    return out


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric, parent, child):
    lower = metric["better"] == "lower"
    pm, cm = statistics.median(parent), statistics.median(child)
    worse_by = (cm - pm) if lower else (pm - cm)
    allowed = metric["bound"] * pm
    if metric["name"] == "setup_s":
        allowed = max(allowed, SETUP_FLOOR_S)
    if worse_by > allowed:
        return "regressed"
    if lower:
        all_better = max(child) < min(parent)
    else:
        all_better = min(child) > max(parent)
    noisy = max(spread(parent), spread(child)) > metric["bound"]
    return "unresolved" if noisy and not all_better else "ok"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("child", type=Path)
    opts = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, child = load_runs(opts.parent), load_runs(opts.child)

    failed = False
    print("workload metric parent_median (spread) child_median (spread) "
          "change bound verdict")
    for workload in sorted(set(parent) & set(child)):
        pr, cr = parent[workload], child[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in pr.values()]
            cv = [r["result"]["metrics"][name]["value"] for r in cr.values()]
            pm, cm = statistics.median(pv), statistics.median(cv)
            v = verdict(metric, pv, cv)
            failed |= v == "regressed"
            print(f"{workload} {name} {pm:.6g} ({spread(pv):.3f}) "
                  f"{cm:.6g} ({spread(cv):.3f}) {(cm - pm) / pm:+.1%} "
                  f"{metric['bound']} {v}")
        for seed in sorted(set(pr) & set(cr)):
            pd, cd = digests_by_input(pr[seed]), digests_by_input(cr[seed])
            differ = [i for i in set(pd) & set(cd) if pd[i] != cd[i]]
            if differ:
                failed = True
                print(f"{workload} seed {seed}: digests differ on inputs "
                      f"{sorted(differ)}")
        print(f"# {workload}: {len(pr)} parent runs, {len(cr)} child runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
