#!/usr/bin/env python3
"""Memory guard: a batch's or a campaign's peak RSS does not grow with its size.

Runs

    asim-run --batch=N --threads=4 --cycles=2000 --io=null specs/multiplier.asim
    asim-run --campaign=N --threads=4 --cycles=2000 --io=null specs/multiplier.asim

for N = 64 and N = 4096 and fails when, for either command, the larger
run's peak resident set size exceeds the smaller one's by more than
that command's bound. Figures below are for an x86-64 Linux host with
gcc 12.2 (Release build), so CI runs this check in its gcc Release leg
alone.

Batch, bound 7 MB. BatchRunner builds each instance's Simulation on
the worker that runs it and releases it when its results are
captured, so at most `--threads` simulations exist at once. What
still grows with N is the job list and the per-instance results
(~1.2 KB an instance): 4.9 MB at N = 4096. When every Simulation was
built up front, each instance held ~1.6 KB more, and the same pair
differed by 11.1 MB. The bound sits between the two, so a change that
builds or keeps the instances' simulations for the whole batch again
crosses it.

Campaign, bound 4 MB. A transient campaign keeps one small record per
injection and a Simulation only for each instance active at once; the
pair differs by 3.1-3.4 MB. When every simulated injection was a
BatchRunner job whose start snapshot, options and captured final
state lived until the batch ended, it differed by 4.5-4.7 MB, so that
earlier design fails this check; the bound sits between the two.

Each peak is the child's own `ru_maxrss`, read with wait4. Linux keeps
a process's peak across execve, so a child forked from this
interpreter would report at least the interpreter's own RSS (~14 MB,
more than the 64-instance batch uses). The measured program is
therefore started by `sh` in the background and adopted by this
process, a child subreaper (prctl PR_SET_CHILD_SUBREAPER): it was
forked from the small shell, not from the interpreter. It waits for
that shell to exit before it starts, so the shell can never reap it
first (a run shorter than the shell's exit otherwise lost its exit
status about once in 40 tries).

Usage:
    tools/check_batch_rss.py [--asim-run build/asim-run]

Exit status: 0 within the bounds, 1 above one or when a run fails.
"""

import argparse
import ctypes
import os
import subprocess
import sys

COMMAND = ["--threads=4", "--cycles=2000", "--io=null",
           "specs/multiplier.asim"]
SIZES = (64, 4096)
BOUNDS_MB = {"--batch": 7.0, "--campaign": 4.0}
PR_SET_CHILD_SUBREAPER = 36


def peak_mb(argv):
    """Run argv; return (peak RSS in MB, exit code)."""
    sh = subprocess.run(["sh", "-c",
                         '{ while kill -0 $$; do sleep 0.01; done; '
                         'exec "$@"; } >/dev/null 2>&1 & echo $!',
                         "sh"] + argv,
                        stdout=subprocess.PIPE, text=True, check=True)
    pid = int(sh.stdout.strip())
    _, status, usage = os.wait4(pid, 0)
    # Linux reports ru_maxrss in KiB.
    return usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--asim-run", default="build/asim-run",
                    help="asim-run binary (default build/asim-run)")
    args = ap.parse_args()

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        print("check_batch_rss: prctl(PR_SET_CHILD_SUBREAPER) failed")
        return 1

    ok = True
    for mode, bound in BOUNDS_MB.items():
        peaks = []
        for n in SIZES:
            argv = [args.asim_run, f"{mode}={n}"] + COMMAND
            peak, code = peak_mb(argv)
            if code != 0:
                print(f"check_batch_rss: {' '.join(argv)} exited {code}")
                return 1
            print(f"check_batch_rss: {' '.join(argv)}: peak RSS "
                  f"{peak:.1f} MB")
            peaks.append(peak)
        growth = peaks[1] - peaks[0]
        ok = ok and growth <= bound
        print(f"check_batch_rss: {mode}={SIZES[1]} peaks {growth:.1f} MB "
              f"above {mode}={SIZES[0]} (bound {bound:.0f} MB) "
              f"{'ok' if growth <= bound else 'FAIL'}")
    return 0 if ok else 1

if __name__ == "__main__":
    sys.exit(main())
