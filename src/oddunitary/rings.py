"""Finite rings with pseudo-involution.

A pseudo-involution is an additive map a -> bar(a) with bar(1) invertible,
bar(bar(a)) = a and bar(a*b) = bar(b) * bar(1)^-1 * bar(a).  lam denotes
bar(1) throughout.  Every additive bijection of Z/m is multiplication by a
unit c, so each ring stores its involution as that c: bar(a) = c a on Z/m
and bar(A) = c A^T on M_k(Z/m).
"""

from __future__ import annotations

import itertools
from functools import cached_property, reduce
from math import gcd

import numpy as np

from .matrices import (_readonly, exact_dims, inv_mod, invert_rows_mod, mulmod,
                       mulmod_unpacked)
from .report import DEFAULT_SEED, CapExceeded, Report, cases_or_sample

# the largest carrier, and the most pairs or triples, that a check lists in full
ENUM_THRESHOLD = 10**6


class Ring:
    """Common interface; element values are hashable immutables, fully reduced.
    `key`, (kind, m, k, c), tells rings apart."""

    modulus = None  # set for residue rings, whose elements are plain ints

    def __init__(self, kind, m, k, entry_involution, table):
        if m < 2:
            raise ValueError("modulus: ring must have at least 2 elements")
        self.base_modulus, self.degree = m, k
        self.c = involution_unit(m, entry_involution, table)
        self.key = (kind, m, k, self.c)
        # `Mat` entries: the smallest unsigned dtype that holds every residue
        self.dtype = np.min_scalar_type(m - 1)
        self.exact_dim, self.float_dim = exact_dims(m)

    def elements(self):
        raise NotImplementedError

    @property
    def lam(self):
        return self._lam

    @property
    def lam_inv(self):
        return self._lam_inv

    @cached_property
    def lmin(self):
        """The sorted codes of {a + bar(a)}, the scalars of the minimal form
        parameter, from one array pass over every scalar."""
        a = self.codes_arr(np.arange(self.card))
        sums = self.arr_codes(self.arr_add(a, self.arr_bar(a)))
        return _readonly(np.flatnonzero(np.bincount(sums)))

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
        # (m - 1)^2 < 2^63: elementwise, cheaper than a stack of 1 x 1 matmuls
        if self.degree == 1 and self.exact_dim:
            return reduce(lambda a, b: a * b % self.base_modulus, xs)
        return reduce(lambda a, b: mulmod(self, a, b).astype(np.int64), xs)

    def _scale(self, a):
        """c a, and `a` itself when c = 1."""
        return a if self.c == 1 else a * self.c % self.base_modulus

    def arr_bar(self, a):
        """c a^T (the transpose is a no-op at k = 1)."""
        return np.swapaxes(self._scale(a), -1, -2)

    def arr_bar_dot(self, u, v):
        """sum_i bar(u_i) v_i = c sum_i u_i^T v_i over the axis -3 of two stacks
        (..., r, k, k): one modular product of (..., k, r k) by (..., r k, k)."""
        def flat(a):
            return a.reshape(a.shape[:-3] + (a.shape[-3] * self.degree, self.degree))
        dot = mulmod_unpacked(self, flat(u).swapaxes(-1, -2), flat(v))
        return self._scale(dot.astype(np.int64, copy=False))


def place_values(base, digits):
    """base^(digits-1), ..., base, 1 as int64."""
    return np.array([base**e for e in range(digits - 1, -1, -1)], dtype=np.int64)


def member(ranked, codes):
    """Whether each code of an array lies in the sorted int64 array `ranked`."""
    if not len(ranked):
        return np.zeros(np.shape(codes), dtype=bool)
    return ranked[np.minimum(np.searchsorted(ranked, codes), len(ranked) - 1)] == codes


def involution_unit(m, name, table=None):
    """The unit c of the Z/m involution a -> c a named `name`: 1 for
    `identity`, -1 for `negation`, and table[1] for `table`, whose m entries
    must be a -> a table[1] mod m with table[1] a unit."""
    if name in ("identity", "negation"):
        return 1 if name == "identity" else m - 1
    if name != "table":
        raise ValueError(f"involution: unknown name {name!r}")
    if table is None or len(table) != m:
        raise ValueError(f"involution: a table on Z/{m} has {m} entries")
    c = table[1]
    bad = next((a for a, t in enumerate(table) if t != a * c % m), None)
    if bad is not None:
        raise ValueError(f"involution: table[{bad}] = {table[bad]}, but an additive "
                         f"table has table[a] = a * table[1] mod {m}")
    if gcd(c, m) != 1:
        raise ValueError(f"involution: table[1] = {c} is not a unit mod {m}, "
                         "so the table is not a bijection")
    return int(c)


class ResidueRing(Ring):
    """Z/m with elements stored as ints in [0, m)."""

    def __init__(self, m, involution="identity", table=None):
        super().__init__("residue", m, 1, involution, table)
        self.modulus, self.involution = m, involution
        self.zero = 0
        self.one = 1
        c = self._lam = self.c
        self._lam_inv = inv_mod(c, m)
        self.bar = lambda a: c * a % m

    @property
    def card(self):
        return self.modulus

    @cached_property
    def lmin(self):
        """{a + c a} = gcd(1 + c, m) Z/m, an additive subgroup."""
        return _readonly(np.arange(0, self.modulus, gcd(1 + self.c, self.modulus)))

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
        if k < 1:
            raise ValueError("degree: must be at least 1")
        super().__init__("matrix", m, k, entry_involution, table)
        self.involution = f"transpose:{entry_involution}"
        self.zero = tuple(tuple(0 for _ in range(k)) for _ in range(k))
        self.one = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        self._lam = self.bar(self.one)
        self._lam_inv = self.inv(self._lam)

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
        k, m = self.degree, self.base_modulus
        return (type(v) is tuple and len(v) == k and all(
            type(row) is tuple and len(row) == k
            and all(type(x) is int and 0 <= x < m for x in row) for row in v))

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
        k, c, m = self.degree, self.c, self.base_modulus
        return tuple(tuple(c * a[j][i] % m for j in range(k)) for i in range(k))

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
    """Build a ring from its spec.  Ring kinds, involution names and tables
    are checked here alone; each error message starts with its config key."""
    if kind == "residue":
        if degree != 1:
            raise ValueError("degree: residue rings have degree 1")
        return ResidueRing(modulus, involution, table)
    if kind == "matrix":
        name, sep, entry = involution.partition(":")
        if name != "transpose":
            raise ValueError(f"involution: unknown name {involution!r} for matrix ring")
        return MatrixRing(modulus, degree, entry if sep else "identity", table)
    raise ValueError(f"kind: unknown ring kind {kind!r}")


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
    lam, lam_inv = ring.lam, ring.lam_inv
    if ring.mul(lam, lam_inv) == ring.one == ring.mul(lam_inv, lam):
        rep.add("ring.lam_invertible", "pass")
    else:
        rep.add("ring.lam_invertible", "fail", witness=f"lam = {lam!r}, lam_inv = {lam_inv!r}")
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
