"""Exact square matrices over a finite ring.

Matrices act on column coordinate vectors from the left; coordinates sit on
the right of basis vectors, so for a module map f the matrix satisfies
f(b_c) = sum_r b_r * M[r][c] and coordinates transform as x -> M @ x with
entries multiplied in the order M[r][c] * x[c].
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .report import NotInvertible, WorkbenchError


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


def _readonly(a):
    a.flags.writeable = False
    return a


def _packed(a, ring):
    """`a` reduced mod m, read-only, in the ring's entry dtype."""
    return _readonly((a % ring.base_modulus).astype(ring.dtype))


FLOAT_WORK = 2**14  # multiply-adds from which a product is one float64 GEMM


def exact_dims(m):
    """The largest inner dimensions d of exact products over Z/m: the largest
    unreduced entry, d (m-1)^2, stays below 2^63 in int64 and 2^52 in float64."""
    return (2**63 - 1) // (m - 1) ** 2, (2**52 - 1) // (m - 1) ** 2


def mulmod(ring, a, b):
    """`a @ b` over Z/m for two matrices or two stacks of them, entries of `a`
    down to -(m-1), reduced mod m, packed in the ring's entry dtype, read-only."""
    return _readonly(mulmod_unpacked(ring, a, b).astype(ring.dtype))


def mulmod_unpacked(ring, a, b):
    """`mulmod` before packing: the residues as float64 or int64.
    A product of FLOAT_WORK multiply-adds or more within `ring.float_dim` is a
    float64 GEMM, where p / m is correctly rounded, so its floor is the exact
    quotient.  Any other is taken in int64 (m - 1 < 2^32 there, so no factor
    is uint64, which would make it float64) and raises WorkbenchError past
    `ring.exact_dim` instead of wrapping."""
    m = ring.base_modulus
    if a.size * b.shape[-1] >= FLOAT_WORK and a.shape[-1] <= ring.float_dim:
        p = a.astype(np.float64) @ b
        q = p / m  # reduced in place: temporaries of this size cost more
        np.floor(q, out=q)
        q *= m
        p -= q
    elif a.shape[-1] <= ring.exact_dim:
        p = a.astype(np.int64) @ b
        p %= m
    else:
        raise WorkbenchError(
            f"modulus {m} too large for exact products of dimension {a.shape[-1]}")
    return p


class Mat:
    """Immutable square matrix over a ring descriptor.

    `arr` is the only stored form of a matrix: its entries over Z/m in
    `ring.dtype`, the smallest unsigned dtype that holds every residue, with
    a matrix over M_k(Z/m) flattened to its (nk) x (nk) block matrix.
    Products (`mulmod`), inverses, `key()` (its bytes), equality
    and hashing all go through it.  `rows`, the ring values for entrywise
    access and formatting, are built the first time they are read, and
    `inv()` is memoised: a `Mat` never changes.
    """

    __slots__ = ("ring", "arr", "_rows", "_inv")

    def __init__(self, ring, arr):
        self.ring = ring
        self.arr = arr
        self._rows = None
        self._inv = None

    @classmethod
    def from_rows(cls, ring, rows):
        """From rows of ring values, or their (n, n, k, k) blocks as `blocks`."""
        n, k = len(rows), ring.degree
        a = np.array(rows, dtype=np.int64).reshape(n, n, k, k)
        return cls.from_arr(ring, a.transpose(0, 2, 1, 3).reshape(n * k, n * k))

    @classmethod
    def from_arr(cls, ring, arr):
        """From an integer array laid out as `arr`, reduced mod m."""
        return cls(ring, _packed(arr, ring))

    @classmethod
    def identity(cls, ring, dim):
        return cls.from_arr(ring, np.eye(dim * ring.degree, dtype=np.int64))

    @property
    def dim(self):
        return self.arr.shape[0] // self.ring.degree

    @property
    def rows(self):
        if self._rows is None:
            if self.ring.modulus is not None:
                self._rows = tuple(map(tuple, self.arr.tolist()))
            else:
                self._rows = tuple(tuple(tuple(map(tuple, e)) for e in row)
                                   for row in self.blocks().tolist())
        return self._rows

    def blocks(self):
        """The entries as an int64 array (n, n, k, k), the layout of `Ring.arr`."""
        n, k = self.dim, self.ring.degree
        return self.arr.astype(np.int64).reshape(n, k, n, k).swapaxes(1, 2)

    def __mul__(self, other: "Mat") -> "Mat":
        return Mat(self.ring, mulmod(self.ring, self.arr, other.arr))

    def inv(self) -> "Mat":
        if self._inv is None:
            flat = invert_rows_mod(self.arr.tolist(), self.ring.base_modulus)
            self._inv = Mat.from_arr(self.ring, np.array(flat))
        return self._inv

    def key(self) -> bytes:
        """The bytes of `arr`: the row bytes that the closure engine keys its
        elements by, for every ring."""
        return self.arr.tobytes()

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.arr.shape == other.arr.shape
                and self.ring.degree == other.ring.degree
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Mat({self.rows})"
