#!/usr/bin/env python3
"""oddunitary benchmark: exact verdicts, timed end to end, traced per layer.

    python3 perfbench/run.py --workload all

runs the workloads `closure`, `relations` and `splitting`, each in its own
single-threaded process, and prints every metric by name with its unit.
Run from the root of a checkout; the package is imported from `src/`.

One workload:

    python3 perfbench/run.py --workload closure --seed 3293 --seconds 40 --trace 0

With `--trace 0` the process builds its inputs, then repeats the workload's
fixed batch of verdicts in a closed loop while the next pass still fits in
`--seconds`, and reports the end-to-end metrics (median over passes; set-up
time is the median of several fresh processes).  With `--trace 1` it runs
one untraced pass, then one traced pass, and reports the per-layer metrics.
Every verdict is checked against a known answer; the last line of output is
one JSON object, and the exit code is 0 only when every check passed.
"""

from __future__ import annotations

import os

# single-threaded: set before numpy is imported by the package
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("closure", "relations", "splitting")
DEFAULT_SEED = 3293
SETUP_PROBES = 15
# name -> (unit, better): the metrics of an untraced run
END_TO_END = {
    "setup_s": ("s", "lower"),
    "verdict_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _import_package():
    """Import oddunitary from this checkout's src/, never from elsewhere."""
    if not (SRC / "oddunitary" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'oddunitary'}; "
                 "run from the root of an oddunitary checkout")
    sys.path.insert(0, str(SRC))
    import oddunitary

    if Path(oddunitary.__file__).resolve().parent != SRC / "oddunitary":
        sys.exit(f"perfbench: imported oddunitary from {oddunitary.__file__}, "
                 f"not from {SRC}")


def _probe_setup(workload, seed):
    """Start a fresh process and build its inputs.

    Returns the wall seconds from the start until the inputs are ready,
    less the reference samples the process took, and its speed factor.
    """
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        check=True, capture_output=True, text=True, cwd=ROOT,
    ).stdout
    ready, busy, factor = map(float, out.split()[-3:])
    return ready - t0 - busy, factor


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed, seconds):
    """Untraced run: the end-to-end metrics, rescaled to the reference speed."""
    import known
    import speed
    import workloads

    probes = [_probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    inputs = workloads.setup(workload, seed)
    gate = known.Gate()
    walls, passes, factors, work = [], [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        with speed.Sampler() as sampler:
            done = workloads.run_pass(workload, inputs, gate)
        walls.append(time.perf_counter() - t0 - sampler.busy_s)
        factors.append(sampler.factor)
        passes.append(walls[-1] / sampler.factor)
        if work is not None:
            gate.expect("bench.work_per_pass", work, done["work"])
        work = done["work"]
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    verdict = statistics.median(passes)
    print(f"{workload}: {len(passes)} passes of {work} work units; wall times "
          f"{' '.join(f'{p:.3f}' for p in walls)} s at speed factors "
          f"{' '.join(f'{f:.3f}' for f in factors)}")
    print(f"{workload}: set-up wall times {' '.join(f'{p:.3f}' for p, _ in probes)} s "
          f"at speed factors {' '.join(f'{f:.3f}' for _, f in probes)}")
    return gate, {
        "setup_s": {"value": statistics.median(p / f for p, f in probes), "unit": "s"},
        "verdict_s": {"value": verdict, "unit": "s"},
        "work_per_s": {"value": work / verdict, "unit": "1/s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
    }


def trace(workload, seed):
    """One untraced pass, then one traced pass: the per-layer metrics."""
    import known
    import workloads
    from spans import Tracer

    gate = known.Gate()
    inputs = workloads.setup(workload, seed)
    item_s = {}

    @contextmanager
    def timed(name):
        t0 = time.perf_counter()
        yield
        item_s[name] = time.perf_counter() - t0

    t0 = time.perf_counter()
    workloads.run_pass(workload, inputs, gate, around=timed)
    untraced = time.perf_counter() - t0

    tracer = Tracer(run_id=f"{workload}-{seed}")
    tracer.install()
    inputs = workloads.setup(workload, seed)
    t0 = time.perf_counter()
    work = workloads.run_pass(workload, inputs, gate, around=tracer.item)
    traced = time.perf_counter() - t0

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(path)
    print(f"{workload}: traced pass {traced:.3f} s, untraced {untraced:.3f} s; "
          f"spans in {path.relative_to(ROOT)}")
    for item, stats in tracer.items.items():
        parts = [f"{g} {v[0]} calls {v[1] / v[0] * 1e6:.1f} us/call"
                 for g, v in stats.items()
                 if g in ("matrices.mul", "matrices.inv") and v[0]]
        print(f"  item {item}: untraced {item_s[item]:.3f} s; traced "
              f"{'; '.join(parts) or 'no products or inverses'}")
    return gate, tracer.metrics(work, traced - untraced)


def run_one(args) -> int:
    if args.probe_setup:
        import speed  # numpy; the package import below is sampled

        with speed.Sampler() as sampler:
            _import_package()
            import workloads

            workloads.setup(args.workload, args.seed)
        print(time.monotonic(), sampler.busy_s, sampler.factor)
        return 0
    _import_package()
    if args.trace:
        gate, metrics = trace(args.workload, args.seed)
    else:
        gate, metrics = measure(args.workload, args.seed, args.seconds)
    for name, m in metrics.items():
        v = m["value"]
        shown = f"{v:.6g}" if isinstance(v, float) else v
        print(f"{args.workload} {name} {shown} {m['unit']}")
    print(f"{args.workload} fail_share {gate.fail_share:.6g} "
          f"({gate.failed} of {gate.attempted} check records)")
    for check, detail in gate.failures():
        print(f"{args.workload} FAILED {check}: {detail}")
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; relay its lines, then a summary."""
    results, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited with code {proc.returncode}")
            continue
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
