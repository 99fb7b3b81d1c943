"""How fast the machine runs right now, sampled while the work runs.

The host this benchmark was built on changes speed by up to 2x within a
minute (other tenants share its cores; no time is stolen, the cores just
run slower), which moves every wall time with it.  While a pass or the
set-up probes run, a `Sampler` interrupts the process every `INTERVAL_S`
of wall time (SIGALRM) and times a short fixed reference task.  The mean
of those samples over `NOMINAL_S` is the speed factor of that stretch of
time; the runner subtracts the samples' own time from the wall time and
divides the rest by the factor.  The task uses only Python and numpy,
never `oddunitary`, so no change to the package can move it; it mixes the
same kinds of work as the package: small integer matrix products with byte
keys in a breadth-first closure, and Python-level modular elimination.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.001  # seconds the reference task takes at the reference speed
INTERVAL_S = 0.05  # wall time between two samples


def _perm(p):
    m = np.zeros((len(p), len(p)), dtype=np.int64)
    for i, j in enumerate(p):
        m[i, j] = 1
    return m


_GENS = [_perm((1, 0, 2, 3, 4)), _perm((1, 2, 3, 4, 0))]  # generate S_5
_ROWS = [[(7 * i + 3 * j * j + 1) % 11 for j in range(6)] for i in range(6)]


def _closure():
    ident = np.eye(5, dtype=np.int64)
    seen = {ident.tobytes()}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in _GENS:
                y = (x @ g) % 7
                k = y.tobytes()
                if k not in seen:
                    seen.add(k)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


def _eliminate(m=11):
    rows = [row[:] for row in _ROWS]
    n = len(rows)
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % m), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, m)
        rows[c] = [(inv * v) % m for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % m for a, b in zip(rows[r], rows[c])]
    return rows


def reference() -> float:
    """Run the reference task once; return its wall time in seconds."""
    t0 = time.perf_counter()
    if _closure() != 120:
        raise RuntimeError("reference closure lost elements")
    for _ in range(6):
        _eliminate()
    return time.perf_counter() - t0


class Sampler:
    """Times the reference task every INTERVAL_S of wall time while active."""

    def __init__(self):
        self.samples = []
        self._warmup = 0.0

    def _tick(self, signum, frame):
        self.samples.append(reference())

    def __enter__(self):
        # the first run in a fresh process is slow (cold code); it is not a sample
        self._warmup = reference()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.samples.append(reference())
        return False

    @property
    def busy_s(self) -> float:
        """Wall time the reference task itself took while active."""
        return self._warmup + sum(self.samples)

    @property
    def factor(self) -> float:
        """Mean sample time over the nominal one: 2 means half speed."""
        return statistics.fmean(self.samples) / NOMINAL_S
