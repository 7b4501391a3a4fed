#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload sieve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The first call configures and
builds a Release tree in .bench_build/ (the libraries, asim-serve and
the perfbench program); later calls only let the build tool confirm it
is current. perfbench's standard output is passed through; its last
line, the result object (correct, attempted, failed, metrics), keeps
the metrics BENCHMARK.json lists for the mode: end_to_end untraced,
per_layer traced.

--smoke runs every workload briefly, untraced and traced, on a tuning
seed and on a held-out seed, and checks every correctness gate and the
trace files. It exits non-zero on any failure.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
CMAKE_DIR = os.path.join(BUILD, "cmake")
RUN_DIR = os.path.join(BUILD, "run")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
# perfbench finishes well inside this; a hang is a failure.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build; fail without a full source tree."""
    for needed in ("CMakeLists.txt", "src", "perfbench/CMakeLists.txt"):
        if not os.path.exists(needed):
            fail(f"{needed} missing: run from the root of a source "
                 "checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail(f"configure failed; see {log_path}")
        cmd = ["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
               "asim-serve", "-j", str(os.cpu_count() or 1)]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail(f"build failed; see {log_path}")
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            fail("the build tree is not a Release build")


def run_perfbench(workload, seed, seconds, trace, smoke=False):
    """Run perfbench once; returns (exit code, stdout lines)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))
    cmd = [os.path.join(CMAKE_DIR, "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", RUN_DIR,
           "--serve-bin", os.path.join(CMAKE_DIR, "asim", "asim-serve")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    return proc.returncode, out.splitlines()


def parse_result(lines, trace):
    """perfbench's last line, reduced to the listed metrics of the
    mode; a listed metric the workload does not exercise reads 0."""
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    metrics = {}
    for m in BENCHMARK["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(m["name"], {"value": 0,
                                                "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} measured in {got['unit']}, "
                 f"listed in {m['unit']}")
        metrics[m["name"]] = got
    return dict(result, metrics=metrics)


def smoke():
    """Every workload, both modes, a tuning seed and a held-out seed."""
    problems = []
    for workload in WORKLOADS:
        for seed in (1, 4242):
            for trace in (0, 1):
                code, lines = run_perfbench(workload, seed, 1, trace,
                                            smoke=True)
                result = parse_result(lines, trace)
                tag = f"{workload} seed {seed} trace {trace}"
                if code != 0 or result is None:
                    problems.append(f"{tag}: no result (exit {code})")
                    continue
                if not result["correct"] or result["failed"]:
                    problems.append(f"{tag}: {result['failed']} of "
                                    f"{result['attempted']} operations "
                                    "failed")
                if trace:
                    path = os.path.join(RUN_DIR, f"trace-{workload}.json")
                    try:
                        with open(path) as f:
                            data = json.load(f)
                    except (OSError, ValueError):
                        data = {}
                    if not data.get("traceEvents") or \
                       "asim_metrics" not in data:
                        problems.append(f"{tag}: missing or malformed "
                                        f"{path}")
                print(f"{tag}: {result['attempted']} operations, "
                      f"{result['failed']} failed")
    for p in problems:
        print(f"FAILED {p}")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    os.chdir(ROOT)
    build()
    if args.smoke:
        return smoke()

    code, lines = run_perfbench(args.workload, args.seed, args.seconds,
                                args.trace)
    result = parse_result(lines, args.trace) if code == 0 else None
    if result is None:
        fail(f"{args.workload} produced no result (exit {code})")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
