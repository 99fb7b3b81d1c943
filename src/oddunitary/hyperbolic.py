"""Hyperbolic spaces H^n + V0, elementary transvections, and EU enumeration.

Basis columns are ordered e_1,...,e_n, e_-n,...,e_-1, then the V0 basis.
Matrices act on the left of column coordinate vectors; words evaluate
left-to-right (first generator applied first).
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping

import numpy as np

from .forms import FormParameter, OddQuadraticSpace, ring_key, zero_space
from .generators import Xi, Xij, format_word, generators
from .matrices import Mat, mulmod
from .report import DEFAULT_CAP, CapExceeded, NotInvertible, WorkbenchError
from .rings import place_values


class ProductParameter(FormParameter):
    """Canonical hyperbolic parameter, kept factored per plane and V0 part.

    Each plane contributes {(e_i a + e_-i b, bar(a) lam^-1 b + c + bar(c))};
    the V0 part contributes its own parameter.  Membership decomposes a
    candidate along this product, so the set is never materialized unless
    asked for.
    """

    kind = "hyperbolic"

    def __init__(self, n, v0_scalar_sets, smin):
        self.n = n
        # v0 vector -> frozenset of admissible scalars, already summed with smin
        self.v0_scalar_sets = v0_scalar_sets
        self.smin = smin
        self._v0_table = None  # built by the first contains_batch

    def contains(self, space, xi):
        u, t = xi
        r = space.ring
        n = self.n
        base = r.zero
        for i in range(n):
            a, b = u[i], u[2 * n - 1 - i]
            base = r.add(base, r.prod(r.bar(a), r.lam_inv, b))
        scalars = self.v0_scalar_sets.get(tuple(u[2 * n:]))
        if scalars is None:
            return False
        return r.sub(t, base) in scalars

    def contains_batch(self, space, disp, scal):
        """`contains` on every column at once: the hyperbolic part by array
        arithmetic, the V0 part by one lookup in a boolean table indexed by
        (V0 vector code, scalar), built on the first call."""
        m, n = space.ring.modulus, self.n
        r0 = space.rank - 2 * n
        radix = m ** np.arange(r0 - 1, -1, -1)  # V0 vector -> its code
        if self._v0_table is None:
            sets = self.v0_scalar_sets
            codes = np.array(list(sets), dtype=np.int64).reshape(len(sets), r0) @ radix
            self._v0_table = np.zeros((m ** r0, m), dtype=bool)
            for code, ts in zip(codes.tolist(), sets.values()):
                self._v0_table[code, list(ts)] = True
        # bar(a) lam^-1 b = a b on Z/m, where bar(x) = x lam
        base = (disp[:n] * disp[n:2 * n][::-1]).sum(axis=0)
        return self._v0_table[radix @ disp[2 * n:], (scal - base) % m]

    def elements(self, space, cap=DEFAULT_CAP):
        r = space.ring
        n = self.n
        plane = sorted({((a, b), r.add(r.prod(r.bar(a), r.lam_inv, b), s))
                        for a in r.elements() for b in r.elements() for s in self.smin})
        v0_elems = sorted((u0, t) for u0, ts in self.v0_scalar_sets.items() for t in ts)
        total = len(plane) ** n * len(v0_elems)
        if total > cap:
            raise CapExceeded(f"hyperbolic parameter has {total} elements")
        out = set()
        for parts in itertools.product(plane, repeat=n):
            u = tuple(p[0][0] for p in parts) + tuple(p[0][1] for p in reversed(parts))
            s = r.sum(*(p[1] for p in parts))
            out.update((u + u0, r.add(s, t)) for u0, t in v0_elems)
        return frozenset(out)


class HyperbolicSpace:
    """H^n + V0 with its form parameter and transvection matrices.

    The canonical parameter is the hyperbolic one; `parameter` may override
    it with another admissible choice (min, max, an explicit set).  The
    one-index transvection arguments always range over the V0-supported part
    of whatever parameter is installed.
    """

    def __init__(self, ring, n, v0: OddQuadraticSpace, parameter=None):
        if n < 1:
            raise ValueError("hyperbolic rank must be at least 1")
        if ring_key(ring) != ring_key(v0.ring):
            raise WorkbenchError("V0 must live over the same ring")
        self.ring = ring
        self.n = n
        self.v0 = v0
        self.dim = 2 * n + v0.rank
        self.omega = tuple(range(1, n + 1)) + tuple(range(-n, 0))

        r = ring
        gram = [[r.zero] * self.dim for _ in range(self.dim)]
        for i in range(1, n + 1):
            gram[self.col(i)][self.col(-i)] = r.one
            gram[self.col(-i)][self.col(i)] = r.neg(r.lam)
        for a, row in enumerate(v0.gram):
            gram[2 * n + a][2 * n:] = row

        smin = OddQuadraticSpace(ring, gram).lmin_scalars
        v0_sets = {}
        for (u0, a0) in v0.param_elements():
            ts = v0_sets.setdefault(u0, set())
            # smin is an additive subgroup, so a0 + smin is already in ts
            # when a0 is
            if a0 not in ts:
                ts.update(r.add(a0, s) for s in smin)
        v0_sets = {u0: frozenset(ts) for u0, ts in v0_sets.items()}
        if parameter is None:
            parameter = ProductParameter(n, v0_sets, smin)
        self.space = OddQuadraticSpace(ring, gram, parameter)
        # V0-supported part of the parameter, as V0-level Heisenberg elements;
        # the one-index generator data is therefore independent of n, which is
        # what makes the rank-stabilization map the identity on words.
        if isinstance(parameter, ProductParameter):
            l0 = ((u0, t) for u0, ts in v0_sets.items() for t in ts)
        else:
            l0 = ((u0, a) for u0 in v0.vectors() for a in r.elements()
                  if parameter.contains(self.space, (self.embed_v0(u0), a)))
        self.l0 = tuple(sorted(l0))
        self.l0_set = frozenset(self.l0)
        self.identity = Mat.identity(ring, self.dim)
        self.gen_mats = {}  # generator -> its transvection, filled by gen_matrix

    # -- indices -----------------------------------------------------------

    def col(self, i: int) -> int:
        if not (isinstance(i, int) and i != 0 and abs(i) <= self.n):
            raise ValueError(f"index {i} outside Omega")
        return i - 1 if i > 0 else 2 * self.n + i

    def basis_vec(self, c: int):
        r = self.ring
        return tuple(r.one if k == c else r.zero for k in range(self.dim))

    def eps(self, i: int):
        """lam^-1 on positive indices, -1 on negative ones."""
        self.col(i)
        r = self.ring
        return r.lam_inv if i > 0 else r.neg(r.one)

    def embed_v0(self, u0):
        """V0 coordinates -> full-length vector with zero hyperbolic part."""
        return tuple(self.ring.zero for _ in range(2 * self.n)) + tuple(u0)

    @property
    def gram(self):
        return self.space.gram

    # -- transvections -------------------------------------------------------

    def _blocks(self):
        """The identity and the Gram matrix as (dim, dim, k, k) arrays."""
        r = self.ring
        eye = np.eye(self.dim, dtype=np.int64)[:, :, None, None] * r.arr(r.one)
        return eye, r.arr(self.gram, (self.dim, self.dim))

    def transvection_ij(self, i: int, j: int, a) -> Mat:
        """T_ij(a): w -> w + e_-j eps_-j bar(a) lam^-1 B(e_i, w) - e_i a eps_j B(e_-j, w)."""
        if j in (i, -i):
            raise ValueError("T_ij needs j outside {i, -i}")
        r = self.ring
        ci, cmj = self.col(i), self.col(-j)
        rows = [list(row) for row in self.identity.rows]
        k1 = r.prod(self.eps(-j), r.bar(a), r.lam_inv)
        k2 = r.mul(a, self.eps(j))
        gi = self.gram[ci]
        gmj = self.gram[cmj]
        for c in range(self.dim):
            if gi[c] != r.zero:
                rows[cmj][c] = r.add(rows[cmj][c], r.mul(k1, gi[c]))
            if gmj[c] != r.zero:
                rows[ci][c] = r.sub(rows[ci][c], r.mul(k2, gmj[c]))
        return Mat.from_rows(r, rows)

    def transvection_i(self, i: int, xi) -> Mat:
        """T_i(u, b): w -> w - e_i eps_i B(u, w) - e_i eps_i b eps_-i B(e_i, w) + u eps_-i B(e_i, w).

        xi = (u, b) is a V0-level Heisenberg element from the V0-supported
        part of the parameter; u is embedded with zero hyperbolic part.
        """
        if xi not in self.l0_set:
            raise WorkbenchError(f"{xi!r} is not in the V0-supported form parameter")
        u, b = self.embed_v0(xi[0]), xi[1]
        r = self.ring
        ci = self.col(i)
        ei, emi = self.eps(i), self.eps(-i)
        rows = [list(row) for row in self.identity.rows]
        bu = [self.space.form(u, self.basis_vec(c)) for c in range(self.dim)]
        gi = self.gram[ci]
        k = r.prod(ei, b, emi)
        for c in range(self.dim):
            if bu[c] != r.zero:
                rows[ci][c] = r.sub(rows[ci][c], r.mul(ei, bu[c]))
            if gi[c] != r.zero:
                rows[ci][c] = r.sub(rows[ci][c], r.mul(k, gi[c]))
                for rr in range(self.dim):
                    if u[rr] != r.zero:
                        rows[rr][c] = r.add(rows[rr][c], r.prod(u[rr], emi, gi[c]))
        return Mat.from_rows(r, rows)


def make_hyperbolic(ring, n, v0: OddQuadraticSpace | None = None,
                    parameter=None) -> HyperbolicSpace:
    if v0 is None:
        v0 = zero_space(ring)
    return HyperbolicSpace(ring, n, v0, parameter)


def is_isometry(hs: HyperbolicSpace, f: Mat) -> bool:
    """B(f b_i, f b_j) = B(b_i, b_j) on all basis pairs (enough by sesquilinearity)."""
    if f.dim != hs.dim:
        raise ValueError("dimension mismatch")
    gram = hs._blocks()[1]
    cols = hs.ring.arr(f.rows, (hs.dim, hs.dim)).swapaxes(0, 1)  # f b_c, by c
    return bool((hs.space.form_arr(cols[:, None], cols[None]) == gram).all())


def equiv_mod_param(hs: HyperbolicSpace, f: Mat, g: Mat, cap=DEFAULT_CAP) -> bool:
    """(fv - gv, B(gv - fv, gv)) in the parameter for every module vector v."""
    sp = hs.space
    if sp.vector_count() > cap:
        raise CapExceeded("module too large to enumerate")
    if hs.ring.modulus is not None:
        return _equiv_batch(hs, f, g)
    for v in sp.vectors():
        fv = f.apply(v)
        gv = g.apply(v)
        d = tuple(sp.ring.sub(x, y) for x, y in zip(fv, gv))
        disp = (d, sp.form(tuple(sp.ring.neg(x) for x in d), gv))
        if not sp.param_contains(disp):
            return False
    return True


VECTORS = 2048  # module vectors per block of _equiv_batch


def _equiv_batch(hs: HyperbolicSpace, f: Mat, g: Mat) -> bool:
    """Residue-ring fast path; bar(x) = x bar(1) there, so B(u, v) = u^T G v.
    The module vectors are columns, VECTORS at a time in the order of
    sp.vectors(), so the arrays stay small on any module."""
    sp, m, total = hs.space, hs.ring.modulus, hs.space.vector_count()
    gram_g = mulmod(hs.ring, np.array(hs.gram, dtype=np.int64), g.arr)
    diff = f.arr.astype(np.int64) - g.arr
    for start in range(0, total, VECTORS):
        v = np.arange(start, min(start + VECTORS, total)) // place_values(m, hs.dim)[:, None] % m
        disp = mulmod(hs.ring, diff, v).astype(np.int64)  # fv - gv
        scal = (-(disp * mulmod(hs.ring, gram_g, v)).sum(axis=0)) % m  # B(gv - fv, gv)
        if not sp.parameter.contains_batch(sp, disp, scal).all():
            return False
    return True


def unitary_member(hs: HyperbolicSpace, f: Mat, cap=DEFAULT_CAP) -> bool:
    """Bijective isometry equivalent to the identity modulo the parameter."""
    try:
        f.inv()
    except NotInvertible:
        return False
    return is_isometry(hs, f) and equiv_mod_param(hs, f, hs.identity, cap)


def gen_matrix(hs: HyperbolicSpace, gen) -> Mat:
    """The transvection of a generator, built once per space (a `Mat` is
    immutable); an invalid generator raises on every call."""
    if not isinstance(gen, (Xij, Xi)):
        raise ValueError(f"not a generator: {gen!r}")
    mat = hs.gen_mats.get(gen)
    if mat is None:
        if isinstance(gen, Xij):
            mat = hs.transvection_ij(gen.i, gen.j, gen.a)
        else:
            mat = hs.transvection_i(gen.i, gen.xi)
        hs.gen_mats[gen] = mat
    return mat


def eu_generators(hs: HyperbolicSpace):
    """All nontrivial elementary transvections, in canonical index order."""
    return [(g, gen_matrix(hs, g)) for g in generators(hs, nontrivial=True)]


BLOCK = 8192  # products per numpy block of the closure engine


class _LazyMap(Mapping):
    """Read-only view of a key -> index dict that builds a value when read."""

    def __init__(self, index, build):
        self._index = index
        self._build = build

    def __getitem__(self, key):
        return self._build(self._index[key])

    def __contains__(self, key):
        return key in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self):
        return len(self._index)


class GroupClosure:
    """Closure of generator matrices under right multiplication, breadth first.

    Elements are the rows of one packed unsigned array over Z/m (`Mat.arr`
    flattened, so a row's bytes are `Mat.key()`), numbered in discovery order by one
    dict from row bytes, so `mat.key() in closure` tests membership.  Each
    element stores its parent, the index in `gens` of the generator that
    reached it, and its depth, the length of that word; `mats` and `words`
    build a `Mat` or a word only when one is read.
    """

    def __init__(self, hs: HyperbolicSpace, cap=DEFAULT_CAP, what="closure"):
        self.hs = hs
        self.gens = []  # [(label, Mat)]; subgroup closures have label None
        self._cap = cap
        self._what = what
        ident = hs.identity
        self._d = ident.arr.shape[0]
        self._index = {ident.key(): 0}
        self._rows = ident.arr.reshape(1, -1).copy()
        self._parent = np.array([-1])
        self._gen = np.array([-1], dtype=np.int32)
        self._depth = np.array([0], dtype=np.int32)

    @property
    def mats(self):
        """Key -> `Mat`, in discovery order."""
        return _LazyMap(self._index, self._mat)

    @property
    def words(self):
        """Key -> tuple of generator indices, in discovery order."""
        return _LazyMap(self._index, self._word)

    @property
    def order(self):
        return len(self._index)

    def __len__(self):
        return len(self._index)

    def __iter__(self):
        return iter(self._index)

    def __contains__(self, key):
        return key in self._index

    def keys(self):
        return self._index.keys()

    @property
    def layers(self):
        """Number of elements at each word length; for a closure from the
        identity under all generators, the breadth-first layer sizes."""
        return np.bincount(self._depth[:self.order]).tolist()

    def word_tokens(self, key) -> str:
        """The element's word as tokens; the generators must be labelled by
        Steinberg generators, as in `enumerate_eu`."""
        w = tuple((self.gens[k][0], 1) for k in self.words[key])
        return format_word(w, self.hs)

    def _mat(self, i):
        return Mat.from_arr(self.hs.ring, self._rows[i].reshape(self._d, self._d))

    def _word(self, i):
        w = []
        while i > 0:
            w.append(int(self._gen[i]))
            i = self._parent[i]
        return tuple(reversed(w))

    def extend(self, gens):
        """Add generators [(label, Mat)] and close: every element times each
        new generator, then every new element times all generators, in queue
        order, until no new element appears."""
        if not gens:
            return
        old, first = self.order, len(self.gens)
        self.gens.extend(gens)
        self._expand(0, old, first)
        head = old
        while head < self.order:
            head = self._expand(head, self.order, 0)

    def _expand(self, lo, hi, first):
        """Multiply elements lo..hi-1 by generators first.. and keep the new
        products, checked in (element, generator) order; returns hi."""
        d, index = self._d, self._index
        gens = np.hstack([m.arr for _, m in self.gens[first:]])
        ng = len(self.gens) - first
        step = max(1, BLOCK // ng)
        for start in range(lo, hi, step):
            stop = min(hi, start + step)
            prod = mulmod(self.hs.ring, self._rows[start:stop].reshape(-1, d), gens)
            prod = prod.reshape(stop - start, d, ng, d).transpose(0, 2, 1, 3)
            prod = prod.reshape(-1, d * d)
            keys = prod.view(np.dtype((np.void, prod.strides[0]))).ravel().tolist()
            fresh = []
            for p, k in enumerate(keys):
                if k not in index:
                    index[k] = len(index)
                    fresh.append(p)
                    if len(index) > self._cap:
                        raise CapExceeded(f"{self._what} exceeded cap {self._cap}")
            if fresh:
                fresh = np.array(fresh)
                self._append(prod[fresh], start + fresh // ng, first + fresh % ng)
        return hi

    def _append(self, rows, parent, gen):
        """Store the rows whose keys were just added to the index."""
        end = self.order
        if end > len(self._rows):
            size = max(2 * len(self._rows), end)
            self._rows, self._parent, self._gen, self._depth = (
                _grown(a, size)
                for a in (self._rows, self._parent, self._gen, self._depth))
        new = slice(end - len(rows), end)
        self._rows[new] = rows
        self._parent[new] = parent
        self._gen[new] = gen
        self._depth[new] = self._depth[parent] + 1


def _grown(a, size):
    out = np.empty((size,) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def enumerate_eu(hs: HyperbolicSpace, cap=DEFAULT_CAP, gens=None) -> GroupClosure:
    """Breadth-first closure of the transvection generators under product."""
    cl = GroupClosure(hs, cap, "EU closure")
    cl.extend(eu_generators(hs) if gens is None else list(gens))
    return cl


def subgroup_closure(hs: HyperbolicSpace, mats, cap=DEFAULT_CAP) -> GroupClosure:
    """Closure of the given matrices under product, adding generators lazily.

    Generators already inside the running closure are skipped, which keeps
    the breadth-first work proportional to the effective generating set.
    """
    cl = GroupClosure(hs, cap)
    for g in mats:
        if g.key() not in cl:
            cl.extend([(None, g)])
    return cl


def commutator_closure(hs: HyperbolicSpace, gens=None, cap=DEFAULT_CAP) -> GroupClosure:
    """Closure of all commutators of the generating transvections."""
    if gens is None:
        gens = eu_generators(hs)
    mats = [m for _, m in gens]
    pairs = [(m, m.inv()) for m in mats]
    seeds = {}
    for a, ai in pairs:
        for b, bi in pairs:
            c = a * b * ai * bi
            seeds.setdefault(c.key(), c)
    return subgroup_closure(hs, seeds.values(), cap)


def dump_closure(cl: GroupClosure, stream):
    """One element per line: shortest word, a tab, then row-major entries."""
    r = cl.hs.ring
    for key, mat in cl.mats.items():
        entries = " ".join(r.format_scalar(v) for row in mat.rows for v in row)
        stream.write(f"{cl.word_tokens(key)}\t{entries}\n")
