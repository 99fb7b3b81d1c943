"""Check results shared by all verification sweeps."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional

DEFAULT_SEED = 3293
DEFAULT_CAP = 10**6
SAMPLES = 4096  # draws of a sweep whose cases exceed its limit


class WorkbenchError(Exception):
    pass


class CapExceeded(WorkbenchError):
    pass


class NotInvertible(WorkbenchError):
    pass


class ConfigError(WorkbenchError):
    pass


@dataclass(frozen=True)
class CheckResult:
    check: str
    status: str  # "pass" | "fail" | "error" | "vacuous" (a sweep with no case)
    witness: Optional[str] = None
    seed: Optional[int] = None

    def to_json(self) -> str:
        obj = {"check": self.check, "status": self.status}
        if self.witness is not None:
            obj["witness"] = self.witness
        if self.seed is not None:
            obj["seed"] = self.seed
        return json.dumps(obj)


class Report:
    """Ordered list of check results; passes iff every status is "pass"."""

    def __init__(self):
        self.results = []

    def add(self, check, status, witness=None, seed=None):
        self.results.append(CheckResult(check, status, witness, seed))

    def sweep(self, check, cases, holds, witness=repr, unit="instances",
              seed=None, size=None) -> bool:
        """Add one record for `check`: fail at the first case that does not
        hold, else `"<N> <unit>"`, vacuous when there is no case at all;
        False on a failure.  `size(case)`, 1 by default, is the number of
        instances that a case stands for, such as a whole chunk that holds."""
        count = 0
        for case in cases:
            count += 1 if size is None else size(case)
            if not holds(case):
                self.add(check, "fail", witness=witness(case), seed=seed)
                return False
        self.add(check, "pass" if count else "vacuous", witness=f"{count} {unit}",
                 seed=seed)
        return True

    def sweep_blocks(self, check, blocks, unit="instances", seed=None) -> bool:
        """`sweep` over blocks (holds, name) of cases, a boolean array and the
        witness at each position: a block that holds counts its size."""
        return self.sweep(check, blocks, lambda b: b[0].all(), lambda b: b[1](int(b[0].argmin())),
                          unit, seed, size=lambda b: len(b[0]))

    def extend(self, other: "Report"):
        self.results.extend(other.results)

    @property
    def ok(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def failures(self):
        return [r for r in self.results if r.status != "pass"]

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def to_json_lines(self) -> str:
        return "\n".join(r.to_json() for r in self.results)


def cases_or_sample(total, limit, every, draw, seed):
    """`every()` when the `total` cases are at most `limit`, else SAMPLES
    draws `draw(rng)` from `random.Random(seed)`; with the seed, None when
    every case is listed."""
    if total <= limit:
        return every(), None
    rng = random.Random(seed)
    return (draw(rng) for _ in range(SAMPLES)), seed
