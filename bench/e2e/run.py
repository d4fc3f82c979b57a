#!/usr/bin/env python3
"""End-to-end benchmark of the analock simulator and analyzer.

Builds the analock_e2e driver from the checkout this file lives in, runs
each workload in its own process, checks its outputs, and prints every
metric as `name value unit`. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

    python3 bench/e2e/run.py --workload rx_near --seed 7 --seconds 15
    python3 bench/e2e/run.py --workload rx_near --trace 1   # per-layer
    python3 bench/e2e/run.py                # every workload, untraced
    python3 bench/e2e/run.py --smoke        # all checks at smoke size
    python3 bench/e2e/run.py --write-expected  # re-record golden digests

The exit code is 0 only when every check passed. Build output, the
extracted corpus, span traces (e2e_spans_<workload>.jsonl) and result
files (e2e_result_<workload>_<seed>.json) go to .bench_build/ at the
checkout root; compare.py compares two sets of result files. See
README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
DEFAULT_SEED = 20260704
WORKLOADS = ["calibrate", "bruteforce", "rx_near", "verify"]
DRIVER_TIMEOUT_S = 170
CORPUS = HERE / "corpus" / "analock-391e94b.tar.gz"
CORPUS_SHA256 = "4eeb55aa01df1d59063df66086f439e338ad1aa07f9816d5c10e088dee2a8c06"
EXPECTED = HERE / "expected.json"

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_ms_p50", "ms"),
    ("work_per_s", "1/s"),
]

PER_LAYER = [
    ("trace_overhead_frac", "frac"),
    ("trace_coverage_frac", "frac"),
    ("par.cpu_util", "frac"),
    # calibrate
    ("calib.tank_tune_ms", "ms"),
    ("calib.gm_backoff_ms", "ms"),
    ("calib.fine_retune_ms", "ms"),
    ("calib.bias_opt_self_ms", "ms"),
    ("calib.vglna_ms", "ms"),
    ("calib.characterize_ms", "ms"),
    ("lock.snr_modulator_self_ms", "ms"),
    ("lock.snr_receiver_self_ms", "ms"),
    ("lock.sfdr_self_ms", "ms"),
    ("dsp.periodogram_self_ms", "ms"),
    ("calib.measurements_per_chip", "count"),
    ("calib.meas_per_s", "1/s"),
    ("calib.yield", "frac"),
    # bruteforce
    ("attack.bruteforce_self_ms", "ms"),
    ("lock.batch_snr_modulator_self_ms", "ms"),
    ("rf.capture_modulator_ms", "ms"),
    ("rf.capture_modulator_ns_per_lane_sample", "ns"),
    ("dsp.periodogram_batch_self_ms", "ms"),
    ("lock.batch_snr_receiver_self_ms", "ms"),
    ("lock.sfdr_ms", "ms"),
    ("bf.screen_pass_frac", "frac"),
    ("bf.rx_lanes_per_call", "count"),
    ("bf.signature_groups", "count"),
    # rx_near, and bruteforce's receiver stage
    ("lock.decode_ms", "ms"),
    ("rf.batch_setup_ms", "ms"),
    ("rf.stimulus_ms", "ms"),
    ("rf.capture_receiver_ms", "ms"),
    ("rf.capture_receiver_ns_per_lane_sample", "ns"),
    ("sim.noise_ms", "ms"),
    ("dsp.periodogram_ms", "ms"),
    ("dsp.periodogram_ns_per_point", "ns"),
    ("dsp.fft_ms", "ms"),
    ("dsp.metric_ms", "ms"),
    ("rx.signature_groups", "count"),
    ("rx.pass_frac", "frac"),
    # verify
    ("analysis.load_ms", "ms"),
    ("analysis.parse_ms", "ms"),
    ("analysis.callgraph_ms", "ms"),
    ("analysis.taint_ms", "ms"),
    ("analysis.locks_ms", "ms"),
    ("analysis.determinism_ms", "ms"),
    ("analysis.parallel_ms", "ms"),
    ("analysis.lock_order_ms", "ms"),
    ("analysis.fp_exact_ms", "ms"),
    ("analysis.ct_flow_ms", "ms"),
    ("analysis.tu_per_s", "1/s"),
    ("analysis.findings", "count"),
]


class BenchError(Exception):
    """A failure that stops the benchmark before it has a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; raises on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("command failed: " + " ".join(map(str, cmd)))


def build_driver(work_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"{ROOT} is not an analock checkout (no src/)")
    build_dir = work_dir / "build"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "--target", "analock_e2e",
               "-j", jobs])
    return build_dir / "analock_e2e"


def extract_corpus(work_dir):
    """The pinned analyzer corpus, extracted once per work directory."""
    data = CORPUS.read_bytes()
    if hashlib.sha256(data).hexdigest() != CORPUS_SHA256:
        raise BenchError(f"{CORPUS} does not match its recorded sha256")
    target = work_dir / ("corpus-" + CORPUS_SHA256[:12])
    if not (target / ".complete").is_file():
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(CORPUS) as tar:
            tar.extractall(target, filter="data")
        (target / ".complete").write_text("ok\n")
    return target


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_driver(driver, args, threads):
    """Runs the driver to completion and returns its report."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ANALOCK_")}
    env["ANALOCK_THREADS"] = str(threads)
    cmd = [str(driver), "--workload", args["workload"],
           "--seed", str(args["seed"]), "--threads", str(threads),
           "--corpus", str(args["corpus"])]
    if args.get("seconds"):
        cmd += ["--seconds", str(args["seconds"])]
    if args.get("trace_path"):
        cmd += ["--trace", str(args["trace_path"])]
    if args.get("smoke"):
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver ran longer than {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError(f"driver printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    if "fatal" in report:
        raise BenchError(report["fatal"])
    if proc.returncode != 0:
        raise BenchError(f"driver exited with {proc.returncode}")
    return report


def toolchain(report):
    c = report["conditions"]
    return f"{c['compiler']} / glibc {c['glibc']}"


def golden_errors(report):
    """Golden digest mismatches by op index; empty when the check does not
    apply."""
    key = toolchain(report)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    recorded = expected.get("toolchains", {}).get(key)
    if report["seed"] != DEFAULT_SEED:
        log(f"golden check skipped: seed {report['seed']} is not the "
            f"default {DEFAULT_SEED}")
        return {}
    if recorded is None or report["variant"] not in recorded:
        log(f"golden check skipped: no {report['variant']} digests recorded "
            f"for toolchain '{key}'")
        return {}
    digests = recorded[report["variant"]]
    errors = {}
    for i, op in enumerate(report["ops"]):
        want = digests[op["input"]] if op["input"] < len(digests) else None
        if want is not None and op["digest"] != want:
            errors[i] = (f"input {op['input']}: digest {op['digest']} != "
                         f"golden {want}")
    return errors


def summarize(report, traced):
    """The result line: correctness, counts and metrics."""
    ops = report["ops"]
    golden = golden_errors(report)
    failed_ops = [i for i, op in enumerate(ops) if op["errors"] or i in golden]
    for i in failed_ops:
        for e in ops[i]["errors"] + ([golden[i]] if i in golden else []):
            log(f"FAILED op {i}: {e}")
    for e in report["setup_errors"]:
        log(f"FAILED set-up: {e}")
    if traced:
        layers = report["layers"]
        unknown = sorted(set(layers) - {name for name, _ in PER_LAYER})
        if unknown:
            raise BenchError(f"driver reports unlisted layer metrics {unknown}")
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        wall = [op["wall_ms"] for op in ops]
        values = {
            "setup_s": statistics.median(report["setup_s"]),
            "peak_rss_mb": report["peak_rss_mib"],
            "op_ms_p50": statistics.median(wall),
            "work_per_s": sum(op["work"] for op in ops) / (sum(wall) / 1e3),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    correct = not failed_ops and not report["setup_errors"]
    return {"correct": correct, "attempted": len(ops),
            "failed": len(failed_ops), "metrics": metrics}


def run_workload(driver, workload, opts, threads, corpus):
    traced = bool(opts.trace)
    tag = (f"{workload}_{opts.seed}" + ("_smoke" if opts.smoke else "") +
           ("_traced" if traced else ""))
    # At smoke size every input runs once.
    args = {"workload": workload, "seed": opts.seed, "corpus": corpus,
            "smoke": opts.smoke,
            "seconds": None if opts.smoke else opts.seconds}
    if traced:
        args["trace_path"] = opts.work_dir / f"e2e_spans_{workload}.jsonl"
    report = run_driver(driver, args, threads)
    result = summarize(report, traced)
    conditions = dict(report["conditions"], git_sha=git_sha(),
                      seed=report["seed"], workload=workload,
                      variant=report["variant"], traced=traced,
                      smoke=opts.smoke, ops=len(report["ops"]))
    (opts.work_dir / f"e2e_result_{tag}.json").write_text(json.dumps(
        {"conditions": conditions, "result": result,
         "setup_s": report["setup_s"],
         "op_wall_ms": [op["wall_ms"] for op in report["ops"]],
         "digests": [[op["input"], op["digest"]] for op in report["ops"]]},
        indent=1) + "\n")
    return result, report, conditions


def print_result(workload, result, conditions):
    print(f"# {workload}: " + json.dumps(conditions, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"# {workload}: attempted {result['attempted']} failed "
          f"{result['failed']} correct {result['correct']}")


def check_schema(result, traced):
    expected = PER_LAYER if traced else END_TO_END
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if [(n, m["unit"]) for n, m in result["metrics"].items()] != expected:
        problems.append("metric names or units differ from the catalog")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        spec = json.loads(bench_json.read_text())
        key = "per_layer" if traced else "end_to_end"
        listed = [(m["name"], m["unit"]) for m in spec.get(key, [])]
        if listed != expected:
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    return problems


def smoke(driver, opts, threads, corpus):
    """Every workload untraced and traced at smoke size."""
    problems = []
    for workload in opts.workloads:
        digests = {}
        for trace in (0, 1):
            opts.trace = trace
            result, report, conditions = run_workload(
                driver, workload, opts, threads, corpus)
            print_result(workload, result, conditions)
            digests[trace] = [op["digest"] for op in report["ops"]]
            problems += [f"{workload}: {p}" for p in check_schema(result, trace)]
            if not result["correct"]:
                problems.append(f"{workload} (trace {trace}): failed checks")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: traced run digests differ")
    for p in problems:
        log(f"SMOKE FAILED: {p}")
    print(json.dumps({"smoke": "failed" if problems else "passed",
                      "problems": problems}))
    return 1 if problems else 0


def write_expected(driver, opts, threads, corpus):
    """Records the default seed's digests for this toolchain."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    expected.setdefault("seed", DEFAULT_SEED)
    recorded = {}
    for workload in WORKLOADS:
        for smoke_size in (False, True):
            args = {"workload": workload, "seed": DEFAULT_SEED,
                    "corpus": corpus, "smoke": smoke_size}
            report = run_driver(driver, args, threads)
            bad = [e for op in report["ops"] for e in op["errors"]]
            if bad or report["setup_errors"]:
                raise BenchError(f"{workload}: checks failed: {bad}")
            # A smoke variant equal to the full one is a prefix of it.
            digests = [op["digest"] for op in report["ops"]]
            recorded.setdefault(report["variant"], digests)
    expected.setdefault("toolchains", {})[toolchain(report)] = recorded
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="one workload (default: each in turn)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time per workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--smoke", action="store_true",
                   help="every check at smoke size, traced and untraced")
    p.add_argument("--write-expected", action="store_true",
                   help="re-record the golden digests for this toolchain")
    p.add_argument("--driver", type=Path,
                   help="use this analock_e2e binary instead of building")
    p.add_argument("--work-dir", type=Path,
                   default=ROOT / ".bench_build" / "e2e")
    opts = p.parse_args()
    opts.work_dir = opts.work_dir.resolve()
    opts.workloads = [opts.workload] if opts.workload else WORKLOADS

    try:
        opts.work_dir.mkdir(parents=True, exist_ok=True)
        driver = (opts.driver.resolve() if opts.driver
                  else build_driver(opts.work_dir))
        corpus = extract_corpus(opts.work_dir)
        # The load comes from one process: the driver's main thread plus
        # the shared pool, pinned to at most 4 threads.
        threads = min(4, os.cpu_count() or 1)
        if opts.smoke:
            return smoke(driver, opts, threads, corpus)
        if opts.write_expected:
            return write_expected(driver, opts, threads, corpus)
        results = {}
        for workload in opts.workloads:
            result, _, conditions = run_workload(
                driver, workload, opts, threads, corpus)
            print_result(workload, result, conditions)
            results[workload] = result
    except BenchError as e:
        log(f"run.py: {e}")
        return 2
    if opts.workload:
        final = results[opts.workload]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "workloads": results}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
