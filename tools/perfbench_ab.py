#!/usr/bin/env python3
"""A/B-compare one perfbench workload between two source trees.

    python3 tools/perfbench_ab.py --base ../parent --change . \\
        --workload synth64k --pairs 5

Runs `python3 perfbench/run.py` alternately in the two trees (each
builds its own Release tree in .bench_build/ on first use), the order
flipping every pair so neither side always runs on a warmer host.
Only lines perfbench already prints are read: the workload's
`<w>: vm R cycles/s on this host, kernel K ms` line and the result
object on the last line. For every end-to-end metric, the raw vm rate
and the calibration kernel it prints per pair, then the medians, the
base's interquartile range and in how many pairs the change was
better. Failed operations are summed per side. Exits non-zero when a
run produced no result or an operation failed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

VM_LINE = re.compile(r"^(\S+): vm (\S+) cycles/s on this host, "
                     r"kernel (\S+) ms$")


def run_once(tree, workload, seed, seconds):
    """One perfbench run in `tree`; returns the parsed figures or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    got = {name: m["value"] for name, m in result["metrics"].items()}
    for line in lines[:-1]:
        m = VM_LINE.match(line)
        if m and m.group(1) == workload:
            got["raw vm (host)"] = float(m.group(2))
            got["kernel ms"] = float(m.group(3))
    if "raw vm (host)" not in got:
        sys.stderr.write(f"{tree}: no '{workload}: vm ...' line\n")
        return None
    return {"figures": got, "failed": result["failed"],
            "attempted": result["attempted"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="parent source tree")
    ap.add_argument("--change", required=True, help="changed source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="perfbench --seconds (default: its own)")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        listed = json.load(f)
    seconds = args.seconds if args.seconds is not None \
        else listed["run_seconds"]
    better = {m["name"]: m["better"] for m in listed["end_to_end"]}
    better["raw vm (host)"] = "higher"
    better["kernel ms"] = "lower"
    names = [m["name"] for m in listed["end_to_end"]] + \
        ["raw vm (host)", "kernel ms"]

    trees = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    print(f"perfbench A/B: workload {args.workload}, seed {args.seed}, "
          f"{args.pairs} pairs, {seconds:g} s per run")
    for side, tree in trees.items():
        print(f"  {side:6} {tree}")

    values = {"base": {n: [] for n in names},
              "change": {n: [] for n in names}}
    failed = {"base": 0, "change": 0}
    attempted = {"base": 0, "change": 0}
    broken = 0
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, args.seed,
                                  seconds)
        print(f"pair {i + 1} ({order[0]} first)")
        if pair["base"] is None or pair["change"] is None:
            print("  no result: " + ", ".join(
                s for s in order if pair[s] is None))
            broken += 1
            continue
        for side in order:
            failed[side] += pair[side]["failed"]
            attempted[side] += pair[side]["attempted"]
        for n in names:
            b = pair["base"]["figures"].get(n)
            c = pair["change"]["figures"].get(n)
            if b is None or c is None:
                continue
            values["base"][n].append(b)
            values["change"][n].append(c)
            delta = (c - b) / b * 100 if b else 0.0
            print(f"  {n:18} base {b:14.6g}  change {c:14.6g}  "
                  f"{delta:+7.1f}%")

    print(f"{'metric':18} {'base median':>14} {'base IQR':>21} "
          f"{'change median':>14} {'delta':>8}  change better")
    for n in names:
        b, c = values["base"][n], values["change"][n]
        if not b:
            continue
        mb, mc = statistics.median(b), statistics.median(c)
        q1, q3 = quartiles(b)
        wins = sum((y > x) if better[n] == "higher" else (y < x)
                   for x, y in zip(b, c))
        delta = (mc - mb) / mb * 100 if mb else 0.0
        iqr = f"{q1:.4g}..{q3:.4g}"
        print(f"{n:18} {mb:14.6g} {iqr:>21} {mc:14.6g} "
              f"{delta:+7.1f}%  {wins}/{len(b)}")
    for side in ("base", "change"):
        print(f"failed ops, {side}: {failed[side]} of {attempted[side]}")
    return 1 if broken or failed["base"] or failed["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
