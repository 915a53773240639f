#!/usr/bin/env python3
"""End-to-end benchmark of the replay engine and the packet simulator.

Builds the harness (perfbench/harness.cpp against the repository's
`hp` library, Release, in .bench_build/ at the checkout root), runs one
workload and prints, as the last stdout line, one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload replay-flap --seed 1 \\
        --seconds 55 --trace 0        # end-to-end metrics
    python3 perfbench/run.py --workload sim-closed-flap --seed 1 \\
        --seconds 55 --trace 1        # per-layer metrics + chrome trace
    python3 perfbench/run.py --all    # every workload, both modes
    python3 perfbench/run.py --self-test

BENCHMARK.json lists replay-flap and sim-closed-flap.  sim-open, the
ROADMAP's reference scenario, runs with --workload sim-open, --all and
--self-test but is not one of the listed workloads (see README.md).

See perfbench/README.md for the workloads, metrics and baseline.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perfbench_harness"
WORKLOADS = ["replay-flap", "sim-open", "sim-closed-flap"]
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT} (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench_harness",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def pinned():
    return json.loads((HERE / "pinned.json").read_text())


def contract_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_harness(workload, seed, seconds, trace, short=False):
    """One harness process; returns its result object."""
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if short:
        cmd.append("--short")
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        suffix = "-short" if short else ""
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}{suffix}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness exceeded {HARNESS_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload}: harness exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def check(result, trace):
    """Correctness beyond the harness's own gates: the report
    fingerprint at the pinned seed, and the promised metric names."""
    problems = list(result["failures"])
    pins = pinned()
    kind = "short" if result["short"] else "full"
    defaults = (result["seed"], result["failure_seed"], result["topology_seed"])
    if defaults == (pins["seed"], pins["failure_seed"], pins["topology_seed"]):
        want = pins[kind][result["workload"]]
        if result["fingerprint"] != want:
            problems.append(f"fingerprint {result['fingerprint']} != pinned {want}")
    missing = [n for n in contract_metrics(trace) if n not in result["metrics"]]
    if missing:
        problems.append(f"metrics missing: {', '.join(missing)}")
    for name, metric in result["metrics"].items():
        if not metric.get("unit"):
            problems.append(f"metric {name} has no unit")
    return problems


def show(result):
    m = result["machine"]
    print(f"{result['workload']}: fingerprint {result['fingerprint']}, "
          f"{result['attempted']} repetitions, {result['failed']} failed "
          f"[{m['cpu']}, nproc {m['nproc']}, {m['fold_kernel']}, "
          f"{m['compiler']} {m['build_type']}]")
    runs = result["run_s"]
    print(f"  entry-point wall over {len(runs)} untraced repetitions: "
          f"{min(runs):.4f} .. {max(runs):.4f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>18.6g} {metric['unit']}")


def run_one(args):
    build()
    result = run_harness(args.workload, args.seed, args.seconds, args.trace)
    problems = check(result, args.trace)
    for p in problems:
        print(f"FAILED {p}")
    show(result)
    failed = result["failed"]
    if problems and failed == 0:
        failed = result["attempted"]  # every repetition made the same report
    metrics = {n: {"value": m["value"], "unit": m["unit"]}
               for n, m in result["metrics"].items()}
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args, short):
    """Every workload, untraced then traced; returns the problem count."""
    build()
    problems = 0
    for workload in WORKLOADS:
        prints = set()
        for trace in (False, True):
            result = run_harness(workload, args.seed, args.seconds, trace, short)
            found = check(result, trace)
            prints.add(result["fingerprint"])
            show(result)
            for p in found:
                print(f"FAILED {workload}: {p}")
            problems += len(found)
        if len(prints) != 1:
            print(f"FAILED {workload}: fingerprint differs between runs: {prints}")
            problems += 1
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--self-test", action="store_true",
                        help="short mode of every workload: gates, pinned "
                             "fingerprints, metric names and units")
    args = parser.parse_args()
    if args.self_test:
        args.seconds = 0
        problems = run_all(args, short=True)
        print(f"self-test: {'FAILED' if problems else 'passed'}")
        return 1 if problems else 0
    if args.all:
        return 1 if run_all(args, short=False) else 0
    if args.workload is None:
        parser.error("--workload, --all or --self-test is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
