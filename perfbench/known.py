"""Known answers and the gate that compares every verdict against them.

The expected values come from mathematics, counted here with the
benchmark's own arithmetic; nothing in this file calls into `oddunitary`,
so a defect in the code under test cannot move its own expectations.
None of them depends on the workload seed.
"""

from __future__ import annotations

import itertools
import re

RELATION_IDS = ("R0", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9")

# The relation workload's exhaustive space: Z/3, identity involution, rank 3,
# a rank-2 symplectic anisotropic part V0 with its maximal parameter.  The
# text equals the shipped preset configs/z3_sympl_v0.cfg; it is kept here so
# that the workload stays fixed when presets change.
Z3_SYMPL_V0_CFG = """\
[ring]
kind = residue
modulus = 3
involution = identity

[space]
n = 3
v0_gram = 0,1;2,0
v0_parameter = max
parameter = hyperbolic

[run]
strategy = exhaustive
"""
Z3_SYMPL_V0 = {"q": 3, "n": 3, "gram": ((0, 1), (2, 0))}


def omega_plus_order(n: int, q: int) -> int:
    """|Omega+_{2n}(q)| for even q: q^{n(n-1)} (q^n - 1) prod_{i<n} (q^{2i} - 1)."""
    if q % 2:
        raise ValueError("the formula used here is the even-characteristic one")
    out = q ** (n * (n - 1)) * (q**n - 1)
    for i in range(1, n):
        out *= q ** (2 * i) - 1
    return out


def sp_order(n: int, q: int) -> int:
    """|Sp_{2n}(q)| = q^{n^2} prod_{i<=n} (q^{2i} - 1)."""
    out = q ** (n * n)
    for i in range(1, n + 1):
        out *= q ** (2 * i) - 1
    return out


def v0_parameter_size(q: int, gram) -> int:
    """Size of the V0 part of the hyperbolic parameter over Z/q, identity involution.

    The maximal parameter is {(u, a) : a - bar(a) = B(u, u)}; the hyperbolic
    parameter adds the minimal scalars {c + bar(c)} to each of its elements.
    With bar = id, lam = 1 and B(u, v) = u^T G v.
    """
    r = len(gram)
    lmin = {(2 * c) % q for c in range(q)}
    out = set()
    for u in itertools.product(range(q), repeat=r):
        buu = sum(u[i] * gram[i][j] * u[j] for i in range(r) for j in range(r)) % q
        for a in range(q):
            if (a - a) % q == buu:
                out.update((u, (a + s) % q) for s in lmin)
    return len(out)


def _pairs(om):
    return [(i, j) for i in om for j in om if j not in (i, -i)]


def relation_counts(n: int, q: int, l0: int) -> dict:
    """Exhaustive instance count of each family R0-R9 at rank n.

    q is the ring size and l0 the size of the V0 part of the parameter.
    The index side conditions are those of the presentation: R3 needs
    j != +-i, h not in {j, -i}, k not in {h, -h, i, -j}; R4 needs j != -i,
    k not in {j, -j, i}; R5 needs three pairwise disjoint index pairs.
    """
    om = [i for i in range(-n, n + 1) if i]
    pairs = len(_pairs(om))
    r3 = sum(
        1
        for i, j in _pairs(om)
        for h in om
        if h not in (j, -i)
        for k in om
        if k not in (h, -h, i, -j)
    )
    r4 = sum(
        1
        for i in om
        for j in om
        if j != -i
        for k in om
        if k not in (j, -j, i)
    )
    r5 = sum(
        1
        for i, j in _pairs(om)
        for k in om
        if k not in (i, -i, j, -j)
    )
    return {
        "R0": pairs * q,
        "R1": pairs * q * q,
        "R2": len(om) * l0 * l0,
        "R3": r3 * q * q,
        "R4": r4 * l0 * q,
        "R5": r5 * q * q,
        "R6": pairs * l0 * l0,
        "R7": len(om) * l0 * l0,
        "R8": pairs * l0 * q,
        "R9": pairs * q * q,
    }


def dagger_count(n: int, q: int) -> int:
    """Ordered index quadruples with all eight signed indices distinct, times q^2."""
    return 2 * n * (2 * n - 2) * (2 * n - 4) * (2 * n - 6) * q * q


def section_entries(n: int, q: int, l0: int) -> int:
    """Section generators: X_ij(a) for every ordered pair and scalar, X_i(xi)."""
    return 2 * n * (2 * n - 2) * q + 2 * n * l0


_INSTANCES = re.compile(r"^(\d+) ")


class Gate:
    """Collects check records; a record fails when it is not `pass` or
    disagrees with its known answer."""

    def __init__(self):
        self.records = []  # (check, ok, detail)

    def expect(self, check: str, expected, got):
        ok = expected == got
        self.records.append(
            (check, ok, None if ok else f"expected {expected!r}, got {got!r}")
        )
        return ok

    def report(self, report, counts=None) -> int:
        """Gate every record of an oddunitary Report; return instances checked.

        With `counts` (family id -> expected instances) a record whose
        witness states another instance count also fails.
        """
        total = 0
        for rec in report:
            ok = rec.status == "pass"
            detail = None if ok else f"status {rec.status}: {rec.witness}"
            m = _INSTANCES.match(rec.witness or "")
            got = int(m.group(1)) if m else 0
            total += got
            rid = rec.check.rsplit(".", 1)[-1]
            if ok and counts is not None and rid in counts and counts[rid] != got:
                ok = False
                detail = f"expected {counts[rid]} instances, got {got}"
            self.records.append((rec.check, ok, detail))
        return total

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.records if not ok)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.records else 1.0

    def failures(self):
        return [(c, d) for c, ok, d in self.records if not ok]
