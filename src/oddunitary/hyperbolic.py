"""Hyperbolic spaces H^n + V0, elementary transvections, and EU enumeration.

Basis columns are ordered e_1,...,e_n, e_-n,...,e_-1, then the V0 basis.
Matrices act on the left of column coordinate vectors; words evaluate
left-to-right (first generator applied first).
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .forms import FormParameter, OddQuadraticSpace, zero_space
from .generators import Xi, Xij, format_word, gen_codes, generators
from .matrices import Mat, _readonly, mulmod, mulmod_unpacked
from .report import DEFAULT_CAP, CapExceeded, NotInvertible, WorkbenchError
from .rings import member, place_values


class ProductParameter(FormParameter):
    """Canonical hyperbolic parameter, fixed by its V0-supported part L0:
    L = {(u, q(u) + t) : (u0, t) in L0}, u0 the V0 part of u and q(u) =
    sum_i bar(u_i) lam^-1 u_-i over the planes.  L0 is every (u0, a0) of
    V0's parameter plus every scalar of lmin, `codes` its sorted codes in V0.
    """

    def __init__(self, v0: OddQuadraticSpace):
        self.v0 = v0

    @cached_property
    def codes(self):
        """V0's parameter plus (0, s), 2s, 4s, ... for each generator s = e +
        bar(e) of lmin, e a basis scalar, until S + (0, 2^j s) = S.  Every
        admissible V0 parameter already holds (0, lmin) and is closed under
        the sum, so for them this is one membership pass per s; it adds
        codes only to an explicit V0 set that is not a parameter, closing it
        under lmin as L0 requires."""
        v0, r = self.v0, self.v0.ring
        codes = v0.parameter.elements(v0)
        basis = r.codes_arr(place_values(r.base_modulus, r.degree**2))
        for step in r.arr_add(basis, r.arr_bar(basis)):
            while True:  # adding (0, s) changes the last digit alone
                a = codes % r.card
                moved = codes - a + r.arr_codes(r.arr_add(r.codes_arr(a), step))
                if member(codes, moved).all():
                    break
                codes, step = np.union1d(codes, moved), r.arr_add(step, step)
        return _readonly(codes)

    @staticmethod
    def _q(space, disp):
        """q(u) = bar(sum_i bar(u_-i) u_i), as bar(xy) = bar(y) lam^-1 bar(x)."""
        r, n = space.ring, space.n
        return r.arr_bar(r.arr_bar_dot(disp[:, n:2 * n][:, ::-1], disp[:, :n]))

    def contains_batch(self, space, disp, scal):
        """Whether the code of each (V0 part, t - q) lies in `codes`."""
        r, n = space.ring, space.n
        t = r.arr_add(scal, r.arr_neg(self._q(space, disp)))
        return member(self.codes, space.v0.heis_codes((disp[:, 2 * n:], t)))

    def elements(self, space, cap=DEFAULT_CAP):
        """Every hyperbolic vector h, with each (u0, t) of L0, gives the element
        (h + u0, q(h) + t), so the set has card^2n |L0| elements."""
        r, codes = space.ring, self.codes
        total = r.card ** (2 * space.n) * len(codes)
        if total > cap:
            raise CapExceeded(f"hyperbolic parameter has {total} elements")
        space.heis_span()  # every code of the space fits in int64
        h = np.arange(r.card ** (2 * space.n)) * space.v0.heis_span()  # the codes of (h, 0)
        q = self._q(space, space.heis_arr(h)[0])
        t = r.arr_codes(r.arr_add(q[:, None], r.codes_arr(codes % r.card)))
        return np.sort(h[:, None] + codes - codes % r.card + t, axis=1).ravel()


class HyperbolicSpace(OddQuadraticSpace):
    """H^n + V0, itself an odd quadratic space of rank 2n + rank(V0), with its
    form parameter and transvection matrices.

    The canonical parameter is the hyperbolic one; `parameter` may override
    it with another admissible choice (min, max, an explicit set).  The
    one-index transvection arguments always range over the V0-supported part
    of whatever parameter is installed.
    """

    def __init__(self, ring, n, v0: OddQuadraticSpace, parameter=None):
        if n < 1:
            raise ValueError("hyperbolic rank must be at least 1")
        if ring.key != v0.ring.key:
            raise WorkbenchError("V0 must live over the same ring")
        self.n = n
        self.v0 = v0
        self.omega = tuple(range(1, n + 1)) + tuple(range(-n, 0))

        r, dim = ring, 2 * n + v0.rank
        gram = [[r.zero] * dim for _ in range(dim)]
        for i in range(1, n + 1):
            gram[self.col(i)][self.col(-i)] = r.one
            gram[self.col(-i)][self.col(i)] = r.neg(r.lam)
        for a, row in enumerate(v0.gram):
            gram[2 * n + a][2 * n:] = row

        if parameter is None:
            parameter = ProductParameter(v0)
        super().__init__(ring, gram, parameter)
        self.identity = Mat.identity(ring, self.rank)
        self.gen_mats = {}  # generator -> its transvection, filled by gen_matrix

    @cached_property
    def gen_index(self):
        """The generators of `generators(self)`: a dict of their positions,
        their codes, and their transvections as one stack of `Mat.arr`, in
        that order.  Built on first use, for the section checks."""
        gens = list(generators(self))
        return ({g: k for k, g in enumerate(gens)}, gen_codes(self, gens),
                np.stack([gen_matrix(self, g).arr for g in gens]))

    @cached_property
    def l0(self):
        """The V0-supported part of the parameter as sorted codes in V0 (so
        rank stabilization is the identity on words): the code of (u0, a) in
        V0 is that of (0 + u0, a) here, so one scan selects them."""
        if isinstance(self.parameter, ProductParameter):
            return self.parameter.codes
        return self.select(range(self.v0.heis_span()), self.parameter)

    def in_l0(self, xi) -> bool:
        """Whether xi is a pair (u, a) of ring values, u of V0's rank, whose
        code is in `l0`."""
        v0, ok = self.v0, self.ring.is_scalar
        if not (type(xi) is tuple and len(xi) == 2 and type(xi[0]) is tuple
                and len(xi[0]) == v0.rank and all(map(ok, xi[0] + xi[1:]))):
            return False
        return bool(member(self.l0, v0.heis_codes(v0.heis_rows([xi])))[0])

    # -- indices -----------------------------------------------------------

    def col(self, i: int) -> int:
        if not (isinstance(i, int) and i != 0 and abs(i) <= self.n):
            raise ValueError(f"index {i} outside Omega")
        return i - 1 if i > 0 else 2 * self.n + i

    def eps(self, i: int):
        """lam^-1 on positive indices, -1 on negative ones."""
        self.col(i)
        r = self.ring
        return r.lam_inv if i > 0 else r.neg(r.one)

    # -- transvections -------------------------------------------------------

    def _blocks(self):
        """The identity and the Gram matrix as (dim, dim, k, k) arrays."""
        r = self.ring
        eye = np.eye(self.rank, dtype=np.int64)[:, :, None, None] * r.arr(r.one)
        return eye, r.arr(self.gram, (self.rank, self.rank))

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
        if not self.in_l0(xi):
            raise WorkbenchError(f"{xi!r} is not in the V0-supported form parameter")
        r = self.ring
        u, b = r.arr(self.zero_vec[:2 * self.n] + tuple(xi[0]), (self.rank,)), xi[1]
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
    if f.dim != hs.rank:
        raise ValueError("dimension mismatch")
    gram = hs._blocks()[1]
    cols = f.blocks().swapaxes(0, 1)  # f b_c, by c
    return bool((hs.form_arr(cols[:, None], cols[None]) == gram).all())


# module vectors per block of equiv_mod_param; a block's temporaries add to
# the peak memory (about 0.45 MB at 1024 on Z/3 at dim 8), and 2048 ran no faster
VECTORS = 1024


def equiv_mod_param(hs: HyperbolicSpace, f: Mat, g: Mat) -> bool:
    """(fv - gv, B(gv - fv, gv)) in the parameter for every module vector v.

    The vectors go VECTORS at a time, in lexicographic order of their scalar
    codes, as the (dim k) x k block columns of one array, so f - g and
    lam^-1 G g act on a block in one product each and the arrays stay small
    on any module.
    """
    r = hs.ring
    total = hs.vector_count()
    if total > DEFAULT_CAP:
        raise CapExceeded("module too large to enumerate")
    m, k, d = r.base_modulus, r.degree, hs.rank
    lam_gram = Mat.from_rows(r, r.arr_mul(r.arr(r.lam_inv), hs._blocks()[1]))
    maps = (f.arr.astype(np.int64) - g.arr, (lam_gram * g).arr)
    for start in range(0, total, VECTORS):
        v = np.unravel_index(np.arange(start, min(start + VECTORS, total)), (m,) * d * k * k)
        cols = np.reshape(v, (d * k, k, -1)).swapaxes(1, 2).reshape(d * k, -1)
        # fv - gv and w = lam^-1 G gv, back as stacks (N, dim, k, k)
        disp, w = (mulmod(r, a, cols).astype(np.int64).reshape(d * k, -1, k)
                   .swapaxes(0, 1).reshape(-1, d, k, k) for a in maps)
        scal = r.arr_neg(r.arr_bar_dot(disp, w))  # B(gv - fv, gv)
        if not hs.parameter.contains_batch(hs, disp, scal).all():
            return False
    return True


def unitary_member(hs: HyperbolicSpace, f: Mat) -> bool:
    """Bijective isometry equivalent to the identity modulo the parameter."""
    try:
        f.inv()
    except NotInvertible:
        return False
    return is_isometry(hs, f) and equiv_mod_param(hs, f, hs.identity)


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
    """All nontrivial elementary transvections, in canonical index order.
    The two names of an R0 pair, X_ij(a) and X_{-j,-i}(eps_-j bar(a) eps_i),
    give equal matrices; both are listed, and `GroupClosure` multiplies by
    the first of the two only."""
    return [(g, gen_matrix(hs, g)) for g in generators(hs, nontrivial=True)]


BLOCK = 8192  # products per numpy block of the closure engine
FLUSH = 1 << 16  # products deduplicated at once, at least: the flush is max(FLUSH, order)
TABLE_ROWS = 1 << 12  # most row vectors m^d for which a closure multiplies by lookup tables


def _code_plan(m, d):
    """How a d x d matrix over Z/m becomes its code: its d^2 entries, row-major,
    as base-m digits, first most significant, as many to a uint64 word as fit
    (m^digits <= 2^64), each word cut into segments of at most the digits that
    float64 holds exactly (m^digits <= 2^52), so a segment may span matrix
    rows.  Returns the place values (d^2, segments) that give the segments of
    a flattened matrix, and per word the m^length of each of its segments."""
    def most(bound, limit):
        k = 1
        while k < limit and m ** (k + 1) <= bound:
            k += 1
        return k

    per_word = most(2**64, d * d)
    per_seg = most(2**52, per_word)
    segs, words = [], []
    for lo in range(0, d * d, per_word):
        hi = min(d * d, lo + per_word)
        words.append([m ** (min(hi, s + per_seg) - s) for s in range(lo, hi, per_seg)])
        segs.extend((s, min(hi, s + per_seg)) for s in range(lo, hi, per_seg))
    places = np.zeros((d * d, len(segs)))
    for k, (lo, hi) in enumerate(segs):
        places[lo:hi, k] = [m ** (hi - 1 - j) for j in range(lo, hi)]
    return places, words


class GroupClosure:
    """Closure of generator matrices under right multiplication, breadth first.

    Elements are numbered in discovery order; their row bytes are those of
    `Mat.key()`.  Each element has one code, its entries as base-m digits: a
    uint64 while m^(d^2) <= 2^64, else the bytes of the uint64 words that
    hold the digits.  The codes, sorted, with the position of each element,
    are the closure's only index, so `index(mat.key())` and `mat.key() in
    closure` are one binary search.  Each element stores its parent, the
    index in `gens` of the generator that reached it, and its depth, the
    length of that word; `mat(i)` and `word(i)` build the `Mat` or the word
    at position i.  Only the first copy of each distinct generator matrix
    other than the identity is multiplied: if g_k = g_j with j < k, E g_k =
    E g_j comes earlier in the product stream or is already an element, and
    E I = E, so a skipped product is never new.

    A product is taken one of two ways, fixed per closure by m and d.  Row r
    of E g is (row r of E) g, so g permutes the M = m^d row vectors.  While
    a code is one uint64 and M <= TABLE_ROWS, each generator becomes lookup
    tables over the row codes (a row vector's digits as a number below M),
    each element is stored as its d row codes, and a product's code and row
    codes are gathers (`_table_codes`, `_append`).  Otherwise each element
    is stored as its packed entries over Z/m, and the products come from
    GEMMs on the generator's support (`_gemm_codes`, `_append`).
    """

    def __init__(self, hs: HyperbolicSpace, cap=DEFAULT_CAP, what="closure"):
        self.hs = hs
        self.gens = []  # [(label, Mat)]; subgroup closures have label None
        self._cap = cap
        self._what = what
        ident = hs.identity
        d = self._d = ident.arr.shape[0]
        m = hs.ring.base_modulus
        self._plan = _code_plan(m, d)
        self._bits = (m ** d**2 - 1).bit_length()  # of a code
        self._key = np.dtype((np.void, ident.arr.nbytes))  # a row's bytes
        self._digits = None  # on the table path, the digits of each row code
        self._elems = ident.arr.reshape(1, -1).copy()  # one element a row
        if self._bits <= 64 and m**d <= TABLE_ROWS:
            places = place_values(m, d)
            self._digits = (np.arange(m**d)[:, None] // places % m).astype(ident.arr.dtype)
            self._elems = (ident.arr @ places).astype(np.min_scalar_type(m**d - 1))[None]
        self._parent = np.array([-1])
        self._gen = np.array([-1], dtype=np.int32)
        self._depth = np.array([0], dtype=np.int32)
        self._order = 1
        self._codes = self._code(ident.arr[None, :, None])  # sorted
        self._slots = np.zeros(1, dtype=np.intp)  # the element of each code
        self._distinct = {ident.key(): -1}  # matrix key: index in gens of its first copy
        self._index, self._parts = [], []  # the multiplied generators and their `_part`

    @property
    def order(self):
        return self._order

    def __len__(self):
        return self._order

    def __iter__(self):
        """Row bytes in discovery order."""
        return itertools.chain.from_iterable(
            self._entries(start, min(self._order, start + FLUSH)).view(self._key).ravel().tolist()
            for start in range(0, self._order, FLUSH))

    def __contains__(self, key):
        return self.index(key) >= 0

    def keys(self):
        """Row bytes in discovery order."""
        return iter(self)

    @property
    def layers(self):
        """Number of elements at each word length; for a closure from the
        identity under all generators, the breadth-first layer sizes."""
        return np.bincount(self._depth[:self.order]).tolist()

    def _entries(self, lo, hi):
        """The packed entries of elements lo..hi-1, one flattened matrix a row."""
        elems = self._elems[lo:hi]
        if self._digits is None:
            return elems
        return self._digits.take(elems, axis=0).reshape(len(elems), -1)

    def _code(self, res):
        """The codes of the matrices (:, g, :) of each block of a stack (N, d,
        G, d) of residues, in (block, g) order, as a uint64 or void array (N G,)."""
        n, d, g, _ = res.shape
        flat = res.transpose(0, 2, 1, 3).reshape(n, g, d * d)
        return self._words(np.moveaxis(flat @ self._plan[0], 2, 0))

    def _words(self, segs):
        """`_code` from the segment values (segments, N, G): each word is its
        first segment, times m^length plus the next, and so on."""
        words = self._plan[1]
        codes = np.empty(segs.shape[1:] + (len(words),), dtype=np.uint64)
        k = 0
        for w, scales in enumerate(words):
            word = codes[..., w]
            np.copyto(word, segs[k], casting="unsafe")  # exact: below 2^52
            for scale in scales[1:]:
                k += 1
                word *= np.uint64(scale)
                word += segs[k].astype(np.uint64)
            k += 1
        if len(words) == 1:
            return codes.ravel()
        return codes.view(np.dtype((np.void, 8 * len(words)))).ravel()

    def index(self, key):
        """The position of the element whose row bytes are `key`, or -1."""
        if not isinstance(key, bytes) or len(key) != self._key.itemsize:
            return -1
        row = np.frombuffer(key, dtype=self.hs.ring.dtype)
        if (row >= self.hs.ring.base_modulus).any():
            return -1
        code = self._code(row.reshape(1, self._d, 1, self._d))
        at = min(int(np.searchsorted(self._codes, code)[0]), len(self._codes) - 1)
        return int(self._slots[at]) if self._codes[at] == code[0] else -1

    def mat(self, i):
        """The element at position i, as a `Mat`."""
        i = range(self._order)[i]  # the rows past the order are not elements
        return Mat.from_arr(self.hs.ring, self._entries(i, i + 1).reshape(self._d, self._d))

    def word(self, i):
        """The word of the element at position i, as indices into `gens`."""
        i, w = range(self._order)[i], []
        while i > 0:
            w.append(int(self._gen[i]))
            i = self._parent[i]
        return tuple(reversed(w))

    def extend(self, gens):
        """Add generators [(label, Mat)] and close: every element times each
        new generator, then every new element times all generators, in queue
        order, until no new element appears."""
        old, first, known = self.order, len(self.gens), len(self._index)
        self.gens.extend(gens)
        for k in range(first, len(self.gens)):
            mat = self.gens[k][1]
            if self._distinct.setdefault(mat.key(), k) == k:
                self._index.append(k)
                self._parts.append(self._part(mat.arr))
        if len(self._index) == known:  # no new generator, or each is the identity or a repeat
            return
        new = self._products(known)
        self._expand(0, old, new)
        every = new if known == 0 else self._products(0)
        head = old
        while head < self.order:
            head = self._expand(head, self.order, every)

    def _part(self, a):
        """What `_products` needs of one generator matrix `a`, built once.  On
        the table path: the code of v a for every row vector v, at the place
        of each row r, as uint64 (d, M); the last row's place is 1, so
        tables[-1] holds the row codes themselves.  Otherwise: `a`, the
        place values (segments, d^2) of the entries outside its support (the
        columns where it differs from the identity), which a product keeps
        from its parent, its support columns as rows (s, d), and the place
        values of those columns' entries (s, segments, d)."""
        d, m = self._d, self.hs.ring.base_modulus
        if self._digits is not None:
            codes = mulmod_unpacked(self.hs.ring, self._digits, a) @ place_values(m, d)
            return np.multiply.outer(place_values(m**d, d).astype(np.uint64), codes.astype(np.uint64))
        places = self._plan[0].reshape(d, d, -1)
        cols = np.flatnonzero((a != self.hs.identity.arr).any(axis=0))
        base = places.transpose(2, 0, 1).copy()
        base[:, :, cols] = 0
        return a, base.reshape(-1, d * d), a[:, cols].T, places[:, cols].transpose(1, 2, 0)

    def _products(self, first):
        """The indices in `gens` of the multiplied generators from the
        `first`-th on, and their `_part`s stacked for `_expand`: on the
        table path, the tables (d, M, G); otherwise their stack (G, d, d),
        the place values outside each support (G segments, d^2), and one
        group per support size s: the positions of its generators among the
        G, their support columns as rows (G_s s, d) and those columns' place
        values (G_s, s, segments, d)."""
        index, parts = np.array(self._index[first:], dtype=np.intp), self._parts[first:]
        if self._digits is not None:
            return index, np.stack(parts, axis=2)
        mats, bases, cols, places = zip(*parts)
        sizes = np.array([len(c) for c in cols])
        groups = []
        for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
            at = np.flatnonzero(sizes == size)
            groups.append((at, np.concatenate([cols[g] for g in at]),
                           np.stack([places[g] for g in at])))
        return index, (np.stack(mats), np.concatenate(bases), groups)

    def _expand(self, lo, hi, products):
        """Multiply elements lo..hi-1 by the generators of `products` (from
        `_products`) and keep the new products, in (element, generator)
        order; returns hi.  The products of max(FLUSH, order) at a time are
        coded in blocks of BLOCK and then deduplicated at once by `_keep`."""
        index, work = products
        ng = len(index)
        step = max(1, BLOCK // ng)
        codes_of = self._gemm_codes if self._digits is None else self._table_codes
        start = lo
        while start < hi:
            stop = min(hi, start + step * max(1, max(FLUSH, self.order) // (step * ng)))
            codes = [codes_of(self._elems[s:min(stop, s + step)], work)
                     for s in range(start, stop, step)]
            self._keep(np.concatenate(codes), start, index, work)
            start = stop
        return hi

    def _table_codes(self, elems, tables):
        """The codes of a block's products from its row codes (n, d): the sum
        over rows r of tables[r] at row code r, d gathers of (n, G)."""
        codes = tables[0].take(elems[:, 0], axis=0)
        for r in range(1, self._d):
            codes += tables[r].take(elems[:, r], axis=0)
        return codes.ravel()

    def _gemm_codes(self, rows, work):
        """The codes of a block's products from its entries (n, d^2).  E g
        differs from E only in the columns of g's support, so only those are
        multiplied, one GEMM per support size; a product's segments are its
        new columns against their place values plus E's other entries
        against the place values outside the support, sums of digits times
        places below m^digits <= 2^52, so exact in float64."""
        d, ring = self._d, self.hs.ring
        stack, base, groups = work
        n, ng = len(rows), len(stack)
        segs = (base @ rows.T).reshape(ng, -1, n)
        for at, cols, places in groups:
            new = mulmod_unpacked(ring, cols, rows.reshape(-1, d).T)
            new = new.reshape(*places.shape[:2], n, d).swapaxes(2, 3)
            segs[at] += (places @ new).sum(axis=1)
        return self._words(segs.transpose(1, 2, 0))

    def _keep(self, codes, start, index, work):
        """Add the products whose codes are new, in order of first position in
        the stream `codes` (which this overwrites) of (element start + p // G,
        generator p % G), where `index` and `work` are the G generators'
        `_products`."""
        uniq, firsts = self._firsts(codes)
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
        parent, gen = start + pos // len(index), pos % len(index)
        self._append(parent, gen, index, work)
        slots = np.empty(len(pos), dtype=np.intp)
        slots[by_pos] = np.arange(found, self._order)
        # the index grown once: the k-th new code lands k places after its
        # insertion point, the old entries fill the rest in order
        at = at[new] + np.arange(len(pos))
        old = np.ones(len(self._codes) + len(pos), dtype=bool)
        old[at] = False
        self._codes = _merged(self._codes, old, at, uniq[new])
        self._slots = _merged(self._slots, old, at, slots)

    def _firsts(self, codes):
        """The distinct codes of a stream, ascending, and the first position of
        each; overwrites `codes`.  While a code and a position fit in 64 bits,
        one in-place sort of code << shift | position orders both at once;
        otherwise (full 64-bit or multi-word codes) an argsort and the least
        position of each run of equal codes."""
        shift = len(codes).bit_length()
        if self._bits + shift <= 64:
            codes <<= np.uint64(shift)
            codes |= np.arange(len(codes), dtype=np.uint64)
            codes.sort()
            ranked = codes >> np.uint64(shift)
            runs = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
            return ranked[runs], (codes[runs] & np.uint64((1 << shift) - 1)).astype(np.intp)
        by_code = np.argsort(codes)
        ranked = codes[by_code]
        runs = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        return ranked[runs], np.minimum.reduceat(by_code, runs)

    def _append(self, parent, gen, index, work):
        """Store the elements just counted in `order`, the products of the
        elements `parent` by the generators at `gen` of `work`.  On the table
        path their row codes are one gather from the tables' last row;
        otherwise, per generator, one GEMM of BLOCK matrix rows at a time
        (taller products, threaded by BLAS, raised the peak RSS of a capped
        Z/2, n = 4 closure by about 20 MB)."""
        end, d = self.order, self._d
        if end > len(self._elems):
            size = max(2 * len(self._elems), end)
            self._elems, self._parent, self._gen, self._depth = (
                _grown(a, size)
                for a in (self._elems, self._parent, self._gen, self._depth))
        begin = end - len(parent)
        new = slice(begin, end)
        if self._digits is not None:
            maps = work[-1]  # (M, G): the row code of v g at (code of v, g)
            rows = self._elems.take(parent, axis=0).astype(np.intp)
            self._elems[new] = maps.ravel().take(rows * maps.shape[1] + gen[:, None])
        else:
            stack = work[0]
            by_gen = np.argsort(gen, kind="stable")
            bounds = np.searchsorted(gen[by_gen], np.arange(len(stack) + 1))
            for g, (lo, hi) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
                for s in range(lo, hi, BLOCK // d):
                    at = by_gen[s:min(hi, s + BLOCK // d)]
                    rows = mulmod_unpacked(self.hs.ring, self._elems[parent[at]].reshape(-1, d),
                                           stack[g])
                    self._elems[begin + at] = rows.reshape(len(at), -1)
        self._parent[new] = parent
        self._gen[new] = index[gen]
        self._depth[new] = self._depth[parent] + 1


def _merged(a, old, at, values):
    """`a` with `values` put at the positions `at` of the result and its own
    entries, in order, at the positions where `old` is set."""
    out = np.empty(len(old), dtype=a.dtype)
    out[at] = values
    out[old] = a
    return out


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
    for i in range(cl.order):
        tokens = format_word(tuple((cl.gens[k][0], 1) for k in cl.word(i)), cl.hs)
        entries = " ".join(r.format_scalar(v) for row in cl.mat(i).rows for v in row)
        stream.write(f"{tokens}\t{entries}\n")
