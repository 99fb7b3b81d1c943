"""Check results shared by all verification sweeps."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional

DEFAULT_SEED = 3293
DEFAULT_CAP = 10**6


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

    def __init__(self, results: Iterable[CheckResult] = ()):
        self.results = list(results)

    def add(self, check, status, witness=None, seed=None):
        self.results.append(CheckResult(check, status, witness, seed))

    def search(self, check, cases, bad, witness=repr, seed=None):
        """Add `check`: a fail whose witness is `witness(case)` for the first
        case where `bad(case)` holds, a pass when there is none."""
        found = next((case for case in cases if bad(case)), None)
        self.add(check, "pass" if found is None else "fail",
                 witness=None if found is None else witness(found), seed=seed)

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
