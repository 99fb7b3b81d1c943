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
from .matrices import Mat, mulmod, mulmod_unpacked
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
        """`contains` on every (disp[c], scal[c]) at once: the planes by one
        sum, the V0 part by one lookup in a boolean table indexed by the code
        of (V0 vector, scalar), built on the first call."""
        r, n, r0 = space.ring, self.n, space.rank - 2 * self.n
        radix = place_values(r.card, r0 + 1)  # scalar codes -> the pair's code
        if self._v0_table is None:
            elems = [u0 + (t,) for u0, ts in self.v0_scalar_sets.items() for t in ts]
            self._v0_table = np.zeros(r.card ** (r0 + 1), dtype=bool)
            self._v0_table[r.arr_codes(r.arr(elems, (len(elems), r0 + 1))) @ radix] = True
        # sum_i bar(a_i) lam^-1 b_i over the planes (e_i a_i + e_-i b_i),
        # which is bar(sum_i bar(b_i) a_i) as bar(xy) = bar(y) lam^-1 bar(x)
        base = r.arr_bar(r.arr_bar_dot(disp[:, n:2 * n][:, ::-1], disp[:, :n]))
        pairs = np.concatenate([disp[:, 2 * n:], (scal - base)[:, None] % r.base_modulus], 1)
        return self._v0_table[r.arr_codes(pairs) @ radix]

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

        smin = ring.lmin_scalars
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
        # B(e_c, w) is row c of the Gram matrix applied to w, as bar(1) lam^-1 = 1
        t, gram = self._blocks()
        t[cmj] += r.arr_mul(r.arr(r.prod(self.eps(-j), r.bar(a), r.lam_inv)), gram[ci])
        t[ci] -= r.arr_mul(r.arr(r.mul(a, self.eps(j))), gram[cmj])
        return Mat.from_rows(r, t)

    def transvection_i(self, i: int, xi) -> Mat:
        """T_i(u, b): w -> w - e_i eps_i B(u, w) - e_i eps_i b eps_-i B(e_i, w) + u eps_-i B(e_i, w).

        xi = (u, b) is a V0-level Heisenberg element from the V0-supported
        part of the parameter; u is embedded with zero hyperbolic part.
        """
        if xi not in self.l0_set:
            raise WorkbenchError(f"{xi!r} is not in the V0-supported form parameter")
        r = self.ring
        u, b = r.arr(self.embed_v0(xi[0]), (self.dim,)), xi[1]
        ci, ei, emi = self.col(i), self.eps(i), self.eps(-i)
        t, gram = self._blocks()
        # B(u, e_c) = sum_a bar(u_a) lam^-1 G[a][c], by c
        bu = r.arr_bar_dot(u, r.arr_mul(r.arr(r.lam_inv), gram).swapaxes(0, 1))
        t[ci] -= r.arr_mul(r.arr(ei), bu) + r.arr_mul(r.arr(r.prod(ei, b, emi)), gram[ci])
        t += r.arr_mul(r.arr_mul(u, r.arr(emi))[:, None], gram[ci][None])
        return Mat.from_rows(r, t)


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
    cols = f.blocks().swapaxes(0, 1)  # f b_c, by c
    return bool((hs.space.form_arr(cols[:, None], cols[None]) == gram).all())


# module vectors per block of equiv_mod_param; a block's temporaries add to
# the peak memory (about 0.45 MB at 1024 on Z/3 at dim 8), and 2048 ran no faster
VECTORS = 1024


def equiv_mod_param(hs: HyperbolicSpace, f: Mat, g: Mat, cap=DEFAULT_CAP) -> bool:
    """(fv - gv, B(gv - fv, gv)) in the parameter for every module vector v.

    The vectors go VECTORS at a time, in the order of `sp.vectors()`, as the
    (dim k) x k block columns of one array, so f - g and lam^-1 G g act on a
    block in one product each and the arrays stay small on any module.
    """
    sp, r = hs.space, hs.ring
    total = sp.vector_count()
    if total > cap:
        raise CapExceeded("module too large to enumerate")
    m, k, d = r.base_modulus, r.degree, hs.dim
    lam_gram = Mat.from_rows(r, r.arr_mul(r.arr(r.lam_inv), hs._blocks()[1]))
    maps = (f.arr.astype(np.int64) - g.arr, (lam_gram * g).arr)
    for start in range(0, total, VECTORS):
        v = np.unravel_index(np.arange(start, min(start + VECTORS, total)), (m,) * d * k * k)
        cols = np.reshape(v, (d * k, k, -1)).swapaxes(1, 2).reshape(d * k, -1)
        # fv - gv and w = lam^-1 G gv, back as stacks (N, dim, k, k)
        disp, w = (mulmod(r, a, cols).astype(np.int64).reshape(d * k, -1, k)
                   .swapaxes(0, 1).reshape(-1, d, k, k) for a in maps)
        scal = r.arr_neg(r.arr_bar_dot(disp, w))  # B(gv - fv, gv)
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
FLUSH = 1 << 16  # products deduplicated at once, at least: the flush is max(FLUSH, order)


def _code_plan(m, d):
    """How a d x d matrix over Z/m becomes its code, its d^2 entries as base-m
    digits, first most significant: each matrix row in segments of at most
    the digits that float64 holds exactly (the columns of the returned place
    values, (d, segments)), and the segments in order, as many to a uint64
    word as fit (m^digits <= 2^64); returns the places, the (word, m^length)
    of every segment in order, and the number of words."""
    size = 1
    while size < d and m ** (size + 1) <= 2**52:
        size += 1
    bounds = [(lo, min(d, lo + size)) for lo in range(0, d, size)]
    places = np.zeros((d, len(bounds)))
    for k, (lo, hi) in enumerate(bounds):
        places[lo:hi, k] = [m ** (hi - 1 - j) for j in range(lo, hi)]
    steps, word, digits = [], 0, 0
    for _ in range(d):
        for lo, hi in bounds:
            if m ** (digits + hi - lo) > 2**64:
                word, digits = word + 1, 0
            digits += hi - lo
            steps.append((word, m ** (hi - lo)))
    return places, steps, word + 1


class _LazyMap(Mapping):
    """Read-only view of a closure: row bytes -> a value built from the
    element's index when read.  `values()` and `items()` are one pass in
    discovery order, built without a lookup."""

    def __init__(self, closure, build):
        self._closure = closure
        self._build = build

    def __getitem__(self, key):
        i = self._closure._find(key)
        if i < 0:
            raise KeyError(key)
        return self._build(i)

    def __contains__(self, key):
        return key in self._closure

    def __iter__(self):
        return iter(self._closure)

    def __len__(self):
        return self._closure.order

    def values(self):
        return map(self._build, range(len(self)))

    def items(self):
        return zip(self, self.values())


class GroupClosure:
    """Closure of generator matrices under right multiplication, breadth first.

    Elements are the rows of one packed unsigned array over Z/m (`Mat.arr`
    flattened, so a row's bytes are `Mat.key()`), numbered in discovery order.
    Each element has one code, its entries as base-m digits: a uint64 while
    m^(d^2) <= 2^64, else the bytes of the uint64 words that hold the digits.
    The codes, sorted, with the index of each element, are the closure's only
    index, so `mat.key() in closure` is one binary search.  Each element
    stores its parent, the index in `gens` of the generator that reached it,
    and its depth, the length of that word; `mats` and `words` build a `Mat`
    or a word only when one is read.
    """

    def __init__(self, hs: HyperbolicSpace, cap=DEFAULT_CAP, what="closure"):
        self.hs = hs
        self.gens = []  # [(label, Mat)]; subgroup closures have label None
        self._support = []  # per generator, the columns where it differs from the identity
        self._cap = cap
        self._what = what
        ident = hs.identity
        self._d = ident.arr.shape[0]
        self._plan = _code_plan(hs.ring.base_modulus, self._d)
        self._rows = ident.arr.reshape(1, -1).copy()
        self._key = np.dtype((np.void, ident.arr.nbytes))  # a row's bytes
        self._parent = np.array([-1])
        self._gen = np.array([-1], dtype=np.int32)
        self._depth = np.array([0], dtype=np.int32)
        self._order = 1
        self._codes = self._code(ident.arr[None, :, None])  # sorted
        self._slots = np.zeros(1, dtype=np.intp)  # the element of each code

    @property
    def mats(self):
        """Key -> `Mat`, in discovery order."""
        return _LazyMap(self, self._mat)

    @property
    def words(self):
        """Key -> tuple of generator indices, in discovery order."""
        return _LazyMap(self, self._word)

    @property
    def order(self):
        return self._order

    def __len__(self):
        return self._order

    def __iter__(self):
        """Row bytes in discovery order."""
        for start in range(0, self._order, FLUSH):
            rows = self._rows[start:min(self._order, start + FLUSH)]
            yield from rows.view(self._key).ravel().tolist()

    def __contains__(self, key):
        return self._find(key) >= 0

    def keys(self):
        return self.mats.keys()

    @property
    def layers(self):
        """Number of elements at each word length; for a closure from the
        identity under all generators, the breadth-first layer sizes."""
        return np.bincount(self._depth[:self.order]).tolist()

    def _code(self, res):
        """The codes of the matrices (:, g, :) of each block of a stack (N, d,
        G, d) of residues, in (block, g) order, as a uint64 or void array (N G,)."""
        n, d, g, _ = res.shape
        segs = res.reshape(-1, d) @ self._plan[0]
        return self._words(segs.astype(np.uint64).reshape(n, d, g, -1))

    def _words(self, segs):
        """`_code` from the segment values (N, d, G, segments) of the rows."""
        n, d, g, _ = segs.shape
        _, steps, words = self._plan
        codes = np.zeros((n, g, words), dtype=np.uint64)
        for (w, scale), (i, k) in zip(steps, np.ndindex(d, segs.shape[3])):
            word = codes[:, :, w]
            word *= np.uint64(scale)
            word += segs[:, i, :, k]
        if words == 1:
            return codes.ravel()
        return codes.view(np.dtype((np.void, 8 * words))).ravel()

    def _find(self, key):
        """The index of the element whose row bytes are `key`, or -1."""
        if not isinstance(key, bytes) or len(key) != self._key.itemsize:
            return -1
        row = np.frombuffer(key, dtype=self._rows.dtype)
        if (row >= self.hs.ring.base_modulus).any():
            return -1
        code = self._code(row.reshape(1, self._d, 1, self._d))
        at = min(int(np.searchsorted(self._codes, code)[0]), len(self._codes) - 1)
        return int(self._slots[at]) if self._codes[at] == code[0] else -1

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
        ident = self.hs.identity.arr
        self._support.extend(np.flatnonzero((m.arr != ident).any(axis=0)) for _, m in gens)
        new = self._products(first)
        self._expand(0, old, new)
        every = new if first == 0 else self._products(0)
        head = old
        while head < self.order:
            head = self._expand(head, self.order, every)

    def _products(self, first):
        """What `_expand` needs to multiply by generators first..: their index
        `first`, their stack (G, d, d), the columns of their supports side by
        side (d, C), and two place-value matrices that give the segments of
        a product's rows: `weights` (C, G segments), block diagonal, for the
        support columns of each generator, and `base` (d, G segments) for
        the columns outside its support, which the product keeps."""
        places = self._plan[0]
        mats = [m.arr for _, m in self.gens[first:]]
        support = self._support[first:]
        cols = np.concatenate(support)
        owner = np.repeat(np.arange(len(mats)), [len(c) for c in support])
        weights = np.zeros((len(cols), len(mats), places.shape[1]))
        weights[np.arange(len(cols)), owner] = places[cols]
        base = np.repeat(places[:, None], len(mats), axis=1)
        base[cols, owner] = 0
        columns = np.hstack([a[:, c] for a, c in zip(mats, support)])
        return (first, np.stack(mats), columns,
                weights.reshape(len(cols), -1), base.reshape(len(places), -1))

    def _expand(self, lo, hi, products):
        """Multiply elements lo..hi-1 by the generators of `products` (from
        `_products`) and keep the new products, in (element, generator)
        order; returns hi.  E g differs from E only in the columns of g's
        support, so only those are multiplied; a product's segments are
        its new columns against `weights` plus E's other columns against
        `base`, sums of digits times places below m^digits <= 2^52, so
        exact in float64.  The products of max(FLUSH, order) at a time are
        coded in blocks of BLOCK and then deduplicated at once by `_keep`."""
        d = self._d
        first, stack, columns, weights, base = products
        ng = len(stack)
        step = max(1, BLOCK // ng)
        start = lo
        while start < hi:
            stop = min(hi, start + step * max(1, max(FLUSH, self.order) // (step * ng)))
            codes = []
            for s in range(start, stop, step):
                t = min(stop, s + step)
                rows = self._rows[s:t].reshape(-1, d)
                segs = mulmod_unpacked(self.hs.ring, rows, columns) @ weights + rows @ base
                codes.append(self._words(segs.astype(np.uint64).reshape(t - s, d, ng, -1)))
            self._keep(np.concatenate(codes), start, first, stack)
            start = stop
        return hi

    def _keep(self, codes, start, first, gens):
        """Add the products whose codes are new, in order of first position in
        the stream `codes` of (element start + p // ng, generator p % ng)."""
        by_code = np.argsort(codes)
        ranked = codes[by_code]
        runs = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        uniq, firsts = ranked[runs], np.minimum.reduceat(by_code, runs)
        at = np.searchsorted(self._codes, uniq)
        new = self._codes.take(at, mode="clip") != uniq  # past the end: last < code
        if not new.any():
            return
        found, pos = self._order, firsts[new]
        if found + len(pos) > self._cap:
            raise CapExceeded(f"{self._what} exceeded cap {self._cap}")
        self._order += len(pos)
        by_pos = np.argsort(pos)
        pos = pos[by_pos]
        parent, gen = start + pos // len(gens), pos % len(gens)
        self._append(parent, gen, gens, first)
        slots = np.empty(len(pos), dtype=np.intp)
        slots[by_pos] = np.arange(found, self._order)
        self._codes = np.insert(self._codes, at[new], uniq[new])
        self._slots = np.insert(self._slots, at[new], slots)

    def _append(self, parent, gen, gens, first):
        """Store the elements just counted in `order`, the products of the
        rows `parent` by `gens[gen]`, recomputed BLOCK at a time."""
        end, d = self.order, self._d
        if end > len(self._rows):
            size = max(2 * len(self._rows), end)
            self._rows, self._parent, self._gen, self._depth = (
                _grown(a, size)
                for a in (self._rows, self._parent, self._gen, self._depth))
        begin = end - len(parent)
        for s in range(0, len(parent), BLOCK):
            p, g = parent[s:s + BLOCK], gen[s:s + BLOCK]
            rows = mulmod(self.hs.ring, self._rows[p].reshape(-1, d, d), gens[g])
            self._rows[begin + s:begin + s + len(p)] = rows.reshape(-1, d * d)
        new = slice(begin, end)
        self._parent[new] = parent
        self._gen[new] = first + gen
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
    if not gens:
        return GroupClosure(hs, cap)
    r = hs.ring
    a = np.stack([m.arr for _, m in gens])
    ai = np.stack([m.inv().arr for _, m in gens])
    # a b a^-1 b^-1 for every pair (a, b), in order, then each distinct one
    # where it first appears
    seeds = mulmod(r, mulmod(r, mulmod(r, a[:, None], a), ai[:, None]), ai)
    seeds = seeds.reshape(-1, *a.shape[1:])
    _, firsts = np.unique(seeds.reshape(len(seeds), -1), axis=0, return_index=True)
    return subgroup_closure(hs, [Mat(r, seeds[i]) for i in np.sort(firsts)], cap)


def dump_closure(cl: GroupClosure, stream):
    """One element per line: shortest word, a tab, then row-major entries; the
    generators must be labelled by Steinberg generators, as in `enumerate_eu`."""
    r = cl.hs.ring
    for mat, word in zip(cl.mats.values(), cl.words.values()):
        tokens = format_word(tuple((cl.gens[k][0], 1) for k in word), cl.hs)
        entries = " ".join(r.format_scalar(v) for row in mat.rows for v in row)
        stream.write(f"{tokens}\t{entries}\n")
