#!/usr/bin/env python3
"""Time the closure runs, each in a fresh process: wall time, peak RSS, exit.

Usage, from anywhere:

    python3 tools/closure_timing.py

The runs are `check-perfect` on each `configs/*.cfg` at the default cap
(10^6; the closures of the larger presets stop there with an `error`
record and exit 1) and the cyclic closure of X12(1) over Z/10007 at
n = 2, 10,007 elements in as many breadth-first layers of one element,
which exits 0 when it finds that order.  Each is run RUNS times, one
process per run, with the package from `src/` next to this script, one
BLAS thread (as the benchmark runs) and its output discarded.  One line
per run gives the median wall time, the median peak resident set size of
the child (its `ru_maxrss`, from `os.wait4`; Linux counts in it the peak
of this process, which starts the child, but that is a bare interpreter,
below every run's own peak) and the exit code of every run, so that a
flaky exit shows.  Run it on two checkouts, one
after the other on an otherwise idle host, to compare them.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
CYCLIC = """
import sys
from oddunitary import Xij, enumerate_eu, make_hyperbolic, make_ring
from oddunitary.hyperbolic import gen_matrix
hs = make_hyperbolic(make_ring("residue", 10007), 2)
g = Xij(1, 2, 1)
sys.exit(enumerate_eu(hs, gens=[(g, gen_matrix(hs, g))]).order != 10007)
"""


def runs():
    """(name, command) for every run, in a fixed order."""
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        yield (f"{cfg.stem}.check-perfect",
               [sys.executable, "-m", "oddunitary", "--config", str(cfg), "check-perfect"])
    yield "z10007_n2.cyclic-closure", [sys.executable, "-c", CYCLIC]


def child_env():
    """This process's environment with the package from `src/` on the path
    and one BLAS thread, as `perfbench/run.py` pins it."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def measure(command, env=None):
    """Run `command` once; return its wall time in s, its peak RSS in MB and
    its exit code."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    env = child_env()
    print(f"{'run':<28} {'wall_s':>7} {'peak_rss_mb':>12}  exit")
    for name, command in runs():
        walls, peaks, codes = zip(*(measure(command, env) for _ in range(RUNS)))
        print(f"{name:<28} {statistics.median(walls):7.2f} "
              f"{statistics.median(peaks):12.1f}  {','.join(map(str, codes))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
