#!/usr/bin/env python3
"""Runs one workload of the repository benchmark, or its self-test.

    python3 perfbench/run.py --workload lj-k8 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Builds perfbench_driver and pivotscale_served from this checkout's sources
into .bench_build/perfbench (incrementally after the first run), runs the
driver with OMP_NUM_THREADS=4, keeps the full result with its environment
stamp under --results-dir, and prints the result object as the last line
of stdout. The exit code is non-zero when the sources are missing, the
build fails, an output is wrong or a workload guard trips. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
WORKLOADS = ("lj-k8", "fr-k8", "serve-hot", "serve-cold")
OP_COUNTS = ("pivot.calls", "pivot.edge_ops", "pivot.induces")
# One run must end within 180 s; leave room for start-up and clean-up.
DRIVER_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the driver and the server; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no pivotscale sources beside {BENCH_DIR.name}/ "
            "(CMakeLists.txt and src/ are required)")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "perfbench_driver", "pivotscale_served", "-j", "4"])
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text()[-4000:])
                die("build failed: " + " ".join(cmd))
    return (BUILD_DIR / "perfbench_driver",
            BUILD_DIR / "pivotscale" / "examples" / "pivotscale_served")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_driver(binaries, workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, env stamp, result or None)."""
    driver, served = binaries
    tag = f"{workload}.seed{seed}.trace{trace}"
    work_dir = BUILD_ROOT / "work" / f"{tag}.{os.getpid()}"
    spans = BUILD_ROOT / "traces" / f"{tag}.json"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--served", str(served), "--work-dir", str(work_dir),
           "--spans-out", str(spans), *extra]
    env = dict(os.environ, OMP_NUM_THREADS="4")
    # Its own session, so the driver and its server child stop together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {tag} exceeded {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None, None
    finally:
        try:  # a server left behind by a driver that crashed
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work_dir, ignore_errors=True)
    stamp, result = None, None
    for line in out.splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if isinstance(doc, dict) and set(doc) == {"env"}:
            stamp = doc["env"]
        elif isinstance(doc, dict):
            result = doc
    return proc.returncode, stamp, result


def check_result(label, code, result, units):
    """Problems with one run that should have passed; [] when it conforms."""
    problems = []
    if code != 0:
        problems.append(f"{label}: exit code {code}")
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return problems + [f"{label}: result keys are not "
                           "correct/attempted/failed/metrics"]
    if result["correct"] is not True:
        problems.append(f"{label}: correct is {result['correct']!r}")
    counts = [result[key] for key in ("attempted", "failed")]
    if any(not isinstance(c, int) or isinstance(c, bool) for c in counts):
        problems.append(f"{label}: attempted/failed are not whole numbers")
    elif counts[0] < 1 or counts[1] != 0:
        problems.append(f"{label}: attempted {counts[0]}, failed {counts[1]}")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(
            f"{label}: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(metrics))}, extra "
            f"{sorted(set(metrics) - set(units))}")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if (not isinstance(metric, dict) or set(metric) != {"value", "unit"}
                or isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{label}: metric {name} is malformed: {metric}")
        elif name in units and metric["unit"] != units[name]:
            problems.append(f"{label}: metric {name} has unit "
                            f"{metric['unit']}, expected {units[name]}")
    return problems


def smoke(binaries):
    """Tiny-scale self-test: the result schema on every workload in both
    modes, the exact-output gate tripping on a corrupted reference, and op
    counts repeating at a fixed seed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, _, result = run_driver(binaries, workload, 7, 1, trace,
                                         ["--smoke"])
            problems += check_result(f"{workload} trace={trace}", code,
                                     result, units[trace])
        code, _, result = run_driver(binaries, workload, 7, 1, 0,
                                     ["--smoke", "--corrupt-reference"])
        if (code == 0 or not isinstance(result, dict)
                or result.get("correct") is not False
                or not result.get("failed")):
            problems.append(f"{workload}: a corrupted reference did not trip "
                            "the exact-output gate")
        print(f"smoke: {workload} checked", file=sys.stderr)
    counts = []
    for _ in range(2):
        _, _, result = run_driver(binaries, "lj-k8", 11, 1, 1, ["--smoke"])
        metrics = (result or {}).get("metrics", {})
        counts.append({n: metrics.get(n, {}).get("value") for n in OP_COUNTS})
    if counts[0] != counts[1] or None in counts[0].values():
        problems.append(f"op counts did not repeat at a fixed seed: {counts}")
    for problem in problems:
        print(f"smoke: FAIL {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else
          f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=Path,
                        default=BUILD_ROOT / "results",
                        help="where full result files go (compare.py reads "
                             "them)")
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny-scale self-test instead")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb every reference by one; the run must "
                             "then fail")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    binaries = build()
    if args.smoke:
        sys.exit(smoke(binaries))

    extra = ["--corrupt-reference"] if args.corrupt_reference else []
    code, stamp, result = run_driver(binaries, args.workload, args.seed,
                                     args.seconds, args.trace, extra)
    if result is None:
        die(f"{args.workload}: the driver printed no result "
            f"(exit code {code})")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "exit_code": code,
              "env": dict(stamp or {}, git_commit=git_commit()),
              "result": result}
    args.results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    (args.results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
