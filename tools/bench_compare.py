#!/usr/bin/env python3
"""Diffs two sets of BENCH_*.json trajectory artifacts.

Matches cases by (bench, case) across a baseline set and a candidate set
and compares the robust wall-clock stats the harness records (median,
MAD). A case only counts as a regression when BOTH hold:

  * the median grew by more than --threshold percent, and
  * the growth exceeds the noise floor, taken as 3 sigma where sigma is
    estimated from the larger of the two MADs (sigma ~ 1.4826 * MAD, the
    consistency constant for normal data); runs whose medians sit within
    each other's noise are reported as "ok (noise)".

Prints a markdown table (one row per matched case, plus rows for cases
that appear on only one side) and exits non-zero when any regression was
found, unless --warn-only is given. Only wall-clock stats are compared,
so schema version 1 and 2 artifacts diff against each other.

A baseline case measured over fewer than MIN_BASELINE_REPS reps has no
usable MAD, so the whole diff fails (exit 2) whatever --warn-only says;
the candidate side may be a single-rep smoke run.

Usage:
  bench_compare.py BASELINE CANDIDATE [--threshold PCT] [--warn-only]

BASELINE and CANDIDATE are directories (every BENCH_*.json inside is
loaded) or individual .json files; either side may mix both.
"""

import argparse
import glob
import json
import os
import sys

MAD_TO_SIGMA = 1.4826  # consistency constant for normally distributed data
MIN_BASELINE_REPS = 3


def fail(msg: str) -> None:
    print(f"bench_compare: FAIL: {msg}", file=sys.stderr)
    sys.exit(2)


def load_side(paths):
    """Maps (bench, case) -> case dict for every artifact in `paths`."""
    cases = {}
    files = []
    for path in paths:
        if os.path.isdir(path):
            found = sorted(glob.glob(os.path.join(path, "BENCH_*.json")))
            if not found:
                fail(f"no BENCH_*.json files in directory {path}")
            files.extend(found)
        elif os.path.isfile(path):
            files.append(path)
        else:
            fail(f"no such file or directory: {path}")
    for path in files:
        with open(path, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as err:
                fail(f"{path} is not valid JSON: {err}")
        bench = doc.get("bench")
        if not isinstance(bench, str):
            fail(f"{path}: missing bench name")
        for case in doc.get("cases", []):
            key = (bench, case.get("name"))
            if key in cases:
                fail(f"duplicate case {key} (second copy in {path})")
            cases[key] = case
    if not cases:
        fail("no cases loaded")
    return cases


def median_of(case):
    return case["wall_ms"]["median"], case["wall_ms"]["mad"]


def classify(old_med, old_mad, new_med, new_mad, threshold_pct):
    """Returns (verdict, delta_pct, noise_ms)."""
    delta = new_med - old_med
    delta_pct = 100.0 * delta / old_med if old_med > 0 else 0.0
    sigma = MAD_TO_SIGMA * max(old_mad, new_mad)
    noise = 3.0 * sigma
    if abs(delta) <= noise:
        return "ok (noise)", delta_pct, noise
    if delta_pct > threshold_pct:
        return "REGRESSION", delta_pct, noise
    if delta_pct < -threshold_pct:
        return "improved", delta_pct, noise
    return "ok", delta_pct, noise


def speedup_pairs(cases):
    """Finds (bench, stem, scalar_case, variant_name, variant_case) rows.

    A pair is any `<stem>_scalar` case with a `<stem>_batch_*` sibling in
    the same bench (the convention bench_batch_eval uses); the ratio of
    their wall-clock medians is the batched-engine speedup.
    """
    pairs = []
    for (bench, name), case in sorted(cases.items()):
        if not isinstance(name, str) or not name.endswith("_scalar"):
            continue
        stem = name[: -len("_scalar")]
        for (other_bench, other_name), other in sorted(cases.items()):
            if other_bench != bench or not isinstance(other_name, str):
                continue
            if other_name.startswith(stem + "_batch_"):
                pairs.append((bench, stem, case, other_name, other))
    return pairs


def print_speedups(base, cand):
    """Prints scalar-vs-batch speedup ratios for both artifact sets."""
    rows = []
    for bench, stem, scalar_case, variant, variant_case in speedup_pairs(cand):
        new_ratio = (scalar_case["wall_ms"]["median"] /
                     variant_case["wall_ms"]["median"])
        old_ratio = None
        base_scalar = base.get((bench, stem + "_scalar"))
        base_variant = base.get((bench, variant))
        if base_scalar is not None and base_variant is not None:
            old_ratio = (base_scalar["wall_ms"]["median"] /
                         base_variant["wall_ms"]["median"])
        rows.append((f"{bench}:{stem}", variant,
                     "-" if old_ratio is None else f"{old_ratio:.2f}x",
                     f"{new_ratio:.2f}x"))
    if not rows:
        return
    headers = ("pair", "batch case", "base speedup", "new speedup")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    def line(cells):
        return "| " + " | ".join(
            c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    print("\nscalar-vs-batch speedup (wall-clock median ratio):")
    print(line(headers))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        print(line(row))


def main() -> None:
    parser = argparse.ArgumentParser(
        description="diff two BENCH_*.json sets")
    parser.add_argument("baseline", help="baseline dir or file")
    parser.add_argument("candidate", help="candidate dir or file")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="median growth percent that counts as a "
                             "regression (default 10)")
    parser.add_argument("--warn-only", action="store_true",
                        help="always exit 0; report regressions only")
    args = parser.parse_args()

    base = load_side([args.baseline])
    cand = load_side([args.candidate])
    for (bench, case), stats in sorted(base.items()):
        reps = stats["wall_ms"].get("n", 0)
        if reps < MIN_BASELINE_REPS:
            fail(f"baseline case {bench}:{case} has wall_ms.n = {reps}; "
                 f"a baseline needs at least {MIN_BASELINE_REPS} reps")

    rows = []
    regressions = 0
    for key in sorted(set(base) | set(cand)):
        bench, case = key
        label = f"{bench}:{case}"
        if key not in base:
            rows.append((label, "-", "-", "-", "-", "new case"))
            continue
        if key not in cand:
            rows.append((label, "-", "-", "-", "-", "case removed"))
            continue
        old_med, old_mad = median_of(base[key])
        new_med, new_mad = median_of(cand[key])
        verdict, delta_pct, noise = classify(
            old_med, old_mad, new_med, new_mad, args.threshold)
        if verdict == "REGRESSION":
            regressions += 1
        rows.append((label, f"{old_med:.3f}", f"{new_med:.3f}",
                     f"{delta_pct:+.1f}%", f"{noise:.3f}", verdict))

    headers = ("case", "base median [ms]", "new median [ms]", "delta",
               "noise floor [ms]", "verdict")
    widths = [max(len(headers[i]), max(len(r[i]) for r in rows))
              for i in range(len(headers))]
    def line(cells):
        return "| " + " | ".join(
            c.ljust(widths[i]) for i, c in enumerate(cells)) + " |"
    print(line(headers))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for row in rows:
        print(line(row))

    print_speedups(base, cand)

    print(f"\nbench_compare: {len(rows)} cases, {regressions} regressions "
          f"(threshold {args.threshold:.1f}%, noise 3*{MAD_TO_SIGMA}*MAD)")
    if regressions and not args.warn_only:
        sys.exit(1)


if __name__ == "__main__":
    main()
