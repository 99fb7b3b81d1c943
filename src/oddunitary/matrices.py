"""Exact square matrices over a finite ring.

Matrices act on column coordinate vectors from the left; coordinates sit on
the right of basis vectors, so for a module map f the matrix satisfies
f(b_c) = sum_r b_r * M[r][c] and coordinates transform as x -> M @ x with
entries multiplied in the order M[r][c] * x[c].
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .report import NotInvertible


def egcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) = x*a + y*b."""
    if b == 0:
        return a, 1, 0
    g, x, y = egcd(b, a % b)
    return g, y, x - (a // b) * y


def inv_mod(a: int, m: int) -> int:
    g, x, _ = egcd(a % m, m)
    if g != 1:
        raise NotInvertible(f"{a} is not a unit mod {m}")
    return x % m


def invert_rows_mod(rows, m: int):
    """Invert a square integer matrix mod m, or raise NotInvertible.

    Works for composite m: pivots are produced by Bezout row combinations
    (the 2x2 transform [[x, y], [v//g, -u//g]] has determinant -1, hence is
    an invertible row operation over Z/m). A non-unit pivot after gcd
    reduction means the determinant is a non-unit.
    """
    n = len(rows)
    aug = [[int(v) % m for v in row] + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(rows)]
    for c in range(n):
        for r in range(c + 1, n):
            u, v = aug[c][c], aug[r][c]
            if v == 0:
                continue
            g, x, y = egcd(u, v)
            pc = [(x * a + y * b) % m for a, b in zip(aug[c], aug[r])]
            pr = [((v // g) * a - (u // g) * b) % m for a, b in zip(aug[c], aug[r])]
            aug[c], aug[r] = pc, pr
        piv = aug[c][c]
        if gcd(piv, m) != 1:
            raise NotInvertible("matrix determinant is not a unit")
        pinv = inv_mod(piv, m)
        aug[c] = [(pinv * a) % m for a in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(a - f * b) % m for a, b in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def _packed(a, m: int):
    """`a` reduced mod m, read-only, in the smallest unsigned dtype that
    holds every residue."""
    a = (a % m).astype(np.min_scalar_type(m - 1))
    a.flags.writeable = False
    return a


class Mat:
    """Immutable square matrix over a ring descriptor.

    `arr` is the one numeric form of a matrix: its entries over Z/m in the
    smallest unsigned dtype that holds them, with a matrix over M_k(Z/m)
    flattened to its (nk) x (nk) block matrix; `key()` is its bytes.  Products and inverses
    go through it; `rows` holds the ring values for entrywise access and
    formatting.
    """

    __slots__ = ("ring", "rows", "_arr", "_hash")

    def __init__(self, ring, rows, _arr=None):
        self.ring = ring
        self.rows = rows
        self._arr = _arr
        self._hash = None

    @classmethod
    def from_rows(cls, ring, rows):
        return cls(ring, tuple(tuple(v for v in row) for row in rows))

    @classmethod
    def from_arr(cls, ring, arr):
        """From an integer array laid out as `arr`, reduced mod m."""
        arr = _packed(arr, ring.base_modulus)
        if ring.modulus is not None:
            return cls(ring, tuple(map(tuple, arr.tolist())), arr)
        k = ring.degree
        n = arr.shape[0] // k
        blocks = arr.reshape(n, k, n, k).transpose(0, 2, 1, 3).tolist()
        rows = tuple(tuple(tuple(map(tuple, e)) for e in row) for row in blocks)
        return cls(ring, rows, arr)

    @classmethod
    def identity(cls, ring, dim):
        one, zero = ring.one, ring.zero
        return cls.from_rows(
            ring, [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        )

    @property
    def dim(self):
        return len(self.rows)

    @property
    def arr(self):
        if self._arr is None:
            a = np.array(self.rows, dtype=np.int64)
            if a.ndim == 4:  # k x k entries: flatten to the block matrix
                n, _, k, _ = a.shape
                a = a.transpose(0, 2, 1, 3).reshape(n * k, n * k)
            self._arr = _packed(a, self.ring.base_modulus)
        return self._arr

    def __mul__(self, other: "Mat") -> "Mat":
        return Mat.from_arr(self.ring, self.arr.astype(np.int64) @ other.arr)

    def inv(self) -> "Mat":
        r = self.ring
        flat = invert_rows_mod(self.arr.tolist(), r.base_modulus)
        return Mat.from_arr(r, np.array(flat))

    def apply(self, vec):
        """Matrix times column coordinate vector (tuple of ring values)."""
        r = self.ring
        if r.modulus is not None:
            return tuple((self.arr @ np.array(vec, dtype=np.int64)) % r.modulus)
        out = []
        for i in range(self.dim):
            acc = r.zero
            for k in range(self.dim):
                acc = r.add(acc, r.mul(self.rows[i][k], vec[k]))
            out.append(acc)
        return tuple(out)

    def is_identity(self) -> bool:
        return self == Mat.identity(self.ring, self.dim)

    def key(self) -> bytes:
        """The bytes of `arr`: the row bytes that the closure engine keys its
        elements by, for every ring."""
        return self.arr.tobytes()

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __repr__(self):
        return f"Mat({self.rows})"
