#!/usr/bin/env python3
"""Memory guard: peak RSS of loading the 100k synthetic design.

Runs

    asim-run --synthetic=100k --engine=interp --cycles=1 --no-trace --io=null

as a child process, reads the child's peak resident set size
(`ru_maxrss` of RUSAGE_CHILDREN) and fails when it exceeds the bound.
The run is dominated by the load path: generate, parse, resolve and
the interpreter's tables, so it guards per-component memory, not the
cycle loop.

The bound, 101 MB, sits midway between the last two measured designs
on an x86-64 Linux host with gcc 12 (Release build): 150.6 MB while
the syntax tree and the resolved spec kept a heap object per
component, expression, term and name, 52.3 MB once both keep them in
a few flat per-spec arrays (docs/PERFORMANCE.md "Memory"; before
that, 208 MB while ResolvedSpec kept a copy of the syntax tree). A
change that brings per-object heap nodes or a second copy of the tree
back crosses it; allocator and libstdc++ differences between hosts
stay well inside it. The figures are for gcc 12.2 only; a clang
build's peak has not been measured, so CI runs this check in its gcc
Release leg alone.

Usage:
    tools/check_peak_rss.py [--asim-run build/asim-run]

Exit status: 0 within the bound, 1 above it or when the run fails.
"""

import argparse
import resource
import subprocess
import sys

COMMAND = ["--synthetic=100k", "--engine=interp", "--cycles=1",
           "--no-trace", "--io=null"]
BOUND_MB = 101.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--asim-run", default="build/asim-run",
                    help="asim-run binary (default build/asim-run)")
    args = ap.parse_args()

    argv = [args.asim_run] + COMMAND
    proc = subprocess.run(argv, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"check_peak_rss: {' '.join(argv)} exited "
              f"{proc.returncode}")
        return 1
    # Linux reports ru_maxrss in KiB.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    verdict = "ok" if peak_mb <= BOUND_MB else "FAIL"
    print(f"check_peak_rss: {' '.join(argv)}: peak RSS {peak_mb:.1f} MB "
          f"(bound {BOUND_MB:.0f} MB) {verdict}")
    return 0 if peak_mb <= BOUND_MB else 1


if __name__ == "__main__":
    sys.exit(main())
