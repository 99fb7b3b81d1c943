#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S

Each pair runs `perfbench/run.py --workload W --seconds S` once in each
checkout (in its own directory, with its own package), one after the
other.  The side that goes first alternates, PARENT first in pairs 0, 2,
..., because on a shared host a fixed order moves `verdict_s` by more than
the spread of either side.  It prints each run's pass count and metrics
as the run ends, then the pass counts by pair; per end-to-end metric of CHANGE's
`BENCHMARK.json`, each side's median and quartiles, the ratio of the
medians (CHANGE / PARENT), in how many pairs CHANGE was better and the
verdict (`verdict`: gain, worse, unresolved or same); and per side the
least-squares line of `peak_rss_mb` against the pass count.  The
benchmark keeps the records of every pass, so a faster side runs more
passes and reads more memory; two lines with the same intercept show
that the program's own memory did not move.  Exit 1 when any run is incorrect: an exit code other than 0, no
result line, or `"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
_PASSES = re.compile(r"^\w+: (\d+) passes of ")


def parse_run(stdout: str):
    """(passes, correct, {metric: value}) from the output of one run of
    `perfbench/run.py --workload W`; passes is None without its line, and
    output without a result line is incorrect."""
    lines = stdout.strip().splitlines()
    passes = next((int(m.group(1)) for m in map(_PASSES.match, lines) if m), None)
    try:
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, ValueError):
        return passes, False, {}
    return passes, result.get("correct") is True, metrics


def run_bench(root: Path, workload: str, seconds: float):
    """One run of the benchmark in the checkout `root`, parsed; a nonzero
    exit code makes it incorrect."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds)], cwd=root, capture_output=True, text=True)
    passes, correct, metrics = parse_run(proc.stdout)
    return passes, correct and proc.returncode == 0, metrics


def run_order(pairs: int):
    """(pair, side) of every run in the order they run: side 0 (PARENT)
    first in the even pairs, side 1 (CHANGE) first in the odd ones."""
    return [(k, s) for k in range(pairs) for s in ((0, 1) if k % 2 == 0 else (1, 0))]


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def fit(passes, rss):
    """The least-squares line rss = intercept + slope * passes, as
    (intercept, slope); None below two distinct pass counts."""
    if len(set(passes)) < 2:
        return None
    slope, intercept = statistics.linear_regression(passes, rss)
    return intercept, slope


def wins(both, better):
    """In how many (PARENT, CHANGE) pairs CHANGE is strictly better."""
    return sum((c < p) if better == "lower" else (c > p) for p, c in both)


def verdict(both, better, bound):
    """The reading of one metric from its (PARENT, CHANGE) values by pair:
    `gain` when CHANGE is better in at least 9/10 of the pairs (ties count
    for neither) and its median is better than PARENT's by more than
    PARENT's interquartile distance; else `worse` when CHANGE's median is
    worse than PARENT's by more than `bound` (a fraction of PARENT's
    median); else `unresolved` when PARENT's interquartile distance is
    wider than that bound; else `same`."""
    (q1, parent, q3), change = quartiles([p for p, _ in both]), quartiles([c for _, c in both])[1]
    sign = 1 if better == "lower" else -1
    if 10 * wins(both, better) >= 9 * len(both) and sign * (parent - change) > q3 - q1:
        return "gain"
    if sign * (change - parent) > bound * abs(parent):
        return "worse"
    if q3 - q1 > bound * abs(parent):
        return "unresolved"
    return "same"


def summary(runs, metrics):
    """The report lines.  `runs[k][s]` is the parsed run of pair k, side s;
    `metrics` maps each metric name to its better direction and bound."""
    lines = ["pair first " + " ".join(f"{side}_passes" for side in SIDES)]
    for k, pair in enumerate(runs):
        lines.append(f"{k} {SIDES[k % 2]} " + " ".join(str(run[0]) for run in pair))
    for name, (better, bound) in metrics.items():
        both = [(p[2][name], c[2][name]) for p, c in runs
                if name in p[2] and name in c[2]]
        if not both:
            continue
        stats = [quartiles([pair[s] for pair in both]) for s in (0, 1)]
        ratio = stats[1][1] / stats[0][1] if stats[0][1] else float("nan")
        lines.append(f"{name} " + " -> ".join(
            f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]" for q in stats)
            + f" ratio {ratio:.4f} better in {wins(both, better)} of {len(both)} ({better})"
            + f" {verdict(both, better, bound)}")
    for s, side in enumerate(SIDES):
        points = [(pair[s][0], pair[s][2]["peak_rss_mb"]) for pair in runs
                  if pair[s][0] is not None and "peak_rss_mb" in pair[s][2]]
        line = fit(*zip(*points)) if points else None
        lines.append(f"{side} peak_rss_mb = " + (
            "n/a (fewer than two distinct pass counts)" if line is None
            else f"{line[0]:.4f} + {line[1]:.6f} x passes"))
    return lines


def main(argv=None, bench=run_bench) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    runs = [[None, None] for _ in range(args.pairs)]
    bad = 0
    for k, s in run_order(args.pairs):
        run = runs[k][s] = bench((args.parent, args.change)[s], args.workload, args.seconds)
        bad += not run[1]
        print(f"pair {k} {SIDES[s]}: {run[0]} passes"
              + "".join(f", {name} {value:.6g}" for name, value in run[2].items())
              + ("" if run[1] else ", incorrect run"), flush=True)
    print("\n".join(summary(runs, metrics)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
