"""Finite rings with pseudo-involution.

A pseudo-involution is an additive map a -> bar(a) with bar(1) invertible,
bar(bar(a)) = a and bar(a*b) = bar(b) * bar(1)^-1 * bar(a).  lam denotes
bar(1) throughout.
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from math import gcd

import numpy as np

from .matrices import exact_dims, inv_mod, invert_rows_mod, mulmod
from .report import DEFAULT_SEED, CapExceeded, NotInvertible, Report, cases_or_sample

# the largest carrier, and the most pairs or triples, that a check lists in full
ENUM_THRESHOLD = 10**6


class Ring:
    """Common interface; element values are hashable immutables, fully reduced."""

    modulus = None  # set for residue rings, whose elements are plain ints

    def elements(self):
        raise NotImplementedError

    @property
    def lam(self):
        return self._lam

    @property
    def lam_inv(self):
        return self._lam_inv

    @cached_property
    def lmin_scalars(self):
        """{a + bar(a)}: the scalars of the minimal form parameter."""
        return frozenset(self.add(a, self.bar(a)) for a in self.elements())

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def prod(self, *xs):
        acc = self.one
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    def sum(self, *xs):
        acc = self.zero
        for x in xs:
            acc = self.add(acc, x)
        return acc

    # -- array forms: scalars as int64 arrays of shape (..., k, k), k the
    # degree (k = 1 on Z/m), so one path serves every ring

    def arr(self, values, lead=()):
        """Ring values laid out with leading shape `lead`, as such an array."""
        return np.array(values, dtype=np.int64).reshape(tuple(lead) + (self.degree,) * 2)

    def codes_arr(self, codes):
        """The scalars at the given positions of `elements()` (their codes):
        the k*k entries are the digits in base m, the first most significant."""
        c = np.asarray(codes)[..., None] // place_values(self.base_modulus, self.degree**2)
        return (c % self.base_modulus).reshape(c.shape[:-1] + (self.degree,) * 2)

    def arr_codes(self, a):
        k = self.degree
        return a.reshape(a.shape[:-2] + (k * k,)) @ place_values(self.base_modulus, k * k)

    def arr_add(self, a, b):
        return (a + b) % self.base_modulus

    def arr_neg(self, a):
        return (-a) % self.base_modulus

    def arr_mul(self, *xs):
        return reduce(lambda a, b: mulmod(self, a, b).astype(np.int64), xs)

    def arr_bar(self, a):
        """The entry involution, then the transpose (a no-op at k = 1)."""
        return np.swapaxes(self.entry_bar_arr(a), -1, -2)

    def arr_bar_dot(self, u, v):
        """sum_i bar(u_i) v_i over the axis -3 of two stacks (..., r, k, k), with
        bar(x) = ebar(x)^T; the int64 sums are exact while r k (m-1)^2 < 2^63."""
        dot = np.einsum("...ibj,...ibl->...jl", self.entry_bar_arr(u), v)
        return dot % self.base_modulus


def place_values(base, digits):
    """base^(digits-1), ..., base, 1 as int64."""
    return np.array([base**e for e in range(digits - 1, -1, -1)], dtype=np.int64)


def _make_bar(kind, table, m):
    """bar on one residue, and entrywise on an int64 array of residues."""
    if kind == "identity":
        return (lambda a: a), (lambda a: a)
    if kind == "negation":
        def neg(a):
            return (-a) % m
        return neg, neg
    if kind == "table":
        arr = np.array(table, dtype=np.int64)
        return (lambda a: table[a]), (lambda a: arr[a])
    raise ValueError(f"unsupported involution {kind!r} for residue ring")


class ResidueRing(Ring):
    """Z/m with elements stored as ints in [0, m)."""

    def __init__(self, m, involution="identity", table=None):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        self.modulus = self.base_modulus = m
        self.degree = 1
        self.kind = "residue"
        self.involution = involution
        self.zero = 0
        self.one = 1
        if involution == "table":
            if table is None or sorted(table) != list(range(m)):
                raise ValueError("involution table must be a bijection on [0, m)")
            table = tuple(int(v) % m for v in table)
            bad = next(((a, b) for a in range(m) for b in range(m)
                        if table[(a + b) % m] != (table[a] + table[b]) % m), None)
            if bad is not None:
                raise ValueError(f"involution table is not additive at {bad}")
        self.table = table
        self.bar, self.entry_bar_arr = _make_bar(involution, table, m)
        self._lam = self.bar(1)
        if gcd(self._lam, m) != 1:
            raise NotInvertible("bar(1) is not invertible")
        self._lam_inv = inv_mod(self._lam, m)
        # `Mat` entries: the smallest unsigned dtype that holds every residue
        self.dtype = np.min_scalar_type(m - 1)
        self.exact_dim, self.float_dim = exact_dims(m)

    @property
    def card(self):
        return self.modulus

    def elements(self):
        return range(self.modulus)

    def scalar(self, code):
        """The element at position `code` of `elements()`."""
        return code

    def is_scalar(self, v):
        """Whether `v` is an element as `elements()` gives it."""
        return type(v) is int and 0 <= v < self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def inv(self, a):
        return inv_mod(a, self.modulus)

    def format_scalar(self, a):
        return str(a)

    def parse_scalar(self, text):
        return int(text) % self.modulus

    def __repr__(self):
        return f"Z/{self.modulus}({self.involution})"


class MatrixRing(Ring):
    """k x k matrices over Z/m; bar = transpose composed with an entrywise involution."""

    def __init__(self, m, k, entry_involution="identity", table=None):
        if m < 2:
            raise ValueError("modulus must be at least 2")
        if k < 1:
            raise ValueError("degree must be at least 1")
        self.base = ResidueRing(m, entry_involution, table)
        self.base_modulus = m
        self.degree = k
        self.kind = "matrix"
        self.involution = f"transpose:{entry_involution}"
        self.table = self.base.table
        self.entry_bar_arr = self.base.entry_bar_arr
        self.dtype, (self.exact_dim, self.float_dim) = self.base.dtype, exact_dims(m)
        self.zero = tuple(tuple(0 for _ in range(k)) for _ in range(k))
        self.one = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        self._lam = self.bar(self.one)
        try:
            self._lam_inv = self.inv(self._lam)
        except NotInvertible:
            raise NotInvertible("bar(1) is not invertible")

    @property
    def card(self):
        return self.base_modulus ** (self.degree * self.degree)

    def elements(self):
        return map(self.scalar, range(self.card))

    def scalar(self, code):
        k, m = self.degree, self.base_modulus
        vals = [code // m**e % m for e in range(k * k - 1, -1, -1)]
        return tuple([tuple(vals[i * k:(i + 1) * k]) for i in range(k)])

    def is_scalar(self, v):
        k = self.degree
        return (type(v) is tuple and len(v) == k and all(
            type(row) is tuple and len(row) == k and all(map(self.base.is_scalar, row))
            for row in v))

    def add(self, a, b):
        m = self.base_modulus
        return tuple([tuple([(x + y) % m for x, y in zip(ra, rb)]) for ra, rb in zip(a, b)])

    def neg(self, a):
        m = self.base_modulus
        return tuple([tuple([(-x) % m for x in row]) for row in a])

    def mul(self, a, b):
        k, m = self.degree, self.base_modulus
        return tuple([
            tuple([sum(a[i][l] * b[l][j] for l in range(k)) % m for j in range(k)])
            for i in range(k)
        ])

    def bar(self, a):
        k, ebar = self.degree, self.base.bar
        return tuple(tuple(ebar(a[j][i]) for j in range(k)) for i in range(k))

    def inv(self, a):
        return invert_rows_mod(a, self.base_modulus)

    def format_scalar(self, a):
        return ";".join(",".join(str(v) for v in row) for row in a)

    def parse_scalar(self, text):
        m = self.base_modulus
        rows = tuple(tuple(int(v) % m for v in row.split(",")) for row in text.split(";"))
        if len(rows) != self.degree or any(len(r) != self.degree for r in rows):
            raise ValueError(f"scalar {text!r} has wrong shape")
        return rows

    def __repr__(self):
        return f"M{self.degree}(Z/{self.base_modulus})({self.involution})"


def make_ring(kind="residue", modulus=2, degree=1, involution="identity", table=None):
    """Build a ring descriptor; validates the involution spec and caches lam."""
    if kind == "residue":
        if degree != 1:
            raise ValueError("residue rings have degree 1")
        return ResidueRing(modulus, involution, table)
    if kind == "matrix":
        if not involution.startswith("transpose"):
            raise ValueError(f"unsupported involution {involution!r} for matrix ring")
        entry = involution.split(":", 1)[1] if ":" in involution else "identity"
        return MatrixRing(modulus, degree, entry, table)
    raise ValueError(f"unsupported ring kind {kind!r}")


def _elements(ring):
    if ring.card > ENUM_THRESHOLD:
        raise CapExceeded("carrier too large to enumerate")
    return list(ring.elements())


def _tuples(elems, arity, seed):
    """The `arity`-tuples of `elems` as `cases_or_sample` gives them."""
    return cases_or_sample(len(elems) ** arity, ENUM_THRESHOLD,
                           lambda: itertools.product(elems, repeat=arity),
                           lambda rng: tuple(rng.choice(elems) for _ in range(arity)),
                           seed)


def verify_pseudo_involution(ring, seed=DEFAULT_SEED) -> Report:
    """Check lam invertible, bar∘bar = id, additivity, bar(ab) = bar(b) lam^-1 bar(a)."""
    rep = Report()
    try:
        lam_inv = ring.lam_inv
        rep.add("ring.lam_invertible", "pass")
    except NotInvertible:
        rep.add("ring.lam_invertible", "fail", witness=f"lam = {ring.lam!r}")
        return rep

    bar, add, mul = ring.bar, ring.add, ring.mul
    elems = _elements(ring)
    rep.sweep("ring.bar_involutive", elems, lambda a: bar(bar(a)) == a,
              lambda a: f"bar(bar({a!r})) = {bar(bar(a))!r}", "elements")
    for check, holds in (
        ("ring.bar_additive", lambda p: bar(add(*p)) == add(bar(p[0]), bar(p[1]))),
        ("ring.bar_antimultiplicative",
         lambda p: bar(mul(*p)) == ring.prod(bar(p[1]), lam_inv, bar(p[0]))),
    ):
        pairs, used_seed = _tuples(elems, 2, seed)
        rep.sweep(check, pairs, holds, lambda p: f"(a, b) = {p!r}", "pairs", used_seed)
    return rep


def verify_ring_axioms(ring, seed=DEFAULT_SEED) -> Report:
    """Associativity, distributivity, identity; exhaustive on small carriers."""
    rep = Report()
    add, mul, one = ring.add, ring.mul, ring.one
    elems = _elements(ring)
    for check, holds in (
        ("ring.mul_associative",
         lambda t: mul(mul(t[0], t[1]), t[2]) == mul(t[0], mul(t[1], t[2]))),
        ("ring.distributive",
         lambda t: mul(t[0], add(t[1], t[2])) == add(mul(t[0], t[1]), mul(t[0], t[2]))
         and mul(add(t[0], t[1]), t[2]) == add(mul(t[0], t[2]), mul(t[1], t[2]))),
    ):
        triples, used_seed = _tuples(elems, 3, seed)
        rep.sweep(check, triples, holds, unit="triples", seed=used_seed)
    rep.sweep("ring.identity", elems, lambda a: mul(one, a) == a and mul(a, one) == a,
              unit="elements")
    return rep
