"""Hyperbolic spaces H^n + V0, elementary transvections, and EU enumeration.

Basis columns are ordered e_1,...,e_n, e_-n,...,e_-1, then the V0 basis.
Matrices act on the left of column coordinate vectors; words evaluate
left-to-right (first generator applied first).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .forms import FormParameter, OddQuadraticSpace, ring_key, zero_space
from .generators import Xi, Xij, format_word, generators
from .matrices import Mat
from .report import DEFAULT_CAP, CapExceeded, NotInvertible, WorkbenchError


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

    def elements(self, space, cap=DEFAULT_CAP):
        r = space.ring
        n = self.n
        plane = [
            ((a, b), r.add(r.prod(r.bar(a), r.lam_inv, b), s))
            for a in r.elements()
            for b in r.elements()
            for s in sorted(self.smin)
        ]
        plane = sorted(set(plane))
        v0_elems = sorted(
            (u0, t) for u0, ts in self.v0_scalar_sets.items() for t in ts
        )
        total = len(plane) ** n * len(v0_elems)
        if total > cap:
            raise CapExceeded(f"hyperbolic parameter has {total} elements")
        out = set()
        for parts in itertools.product(plane, repeat=n):
            vec_pos = [p[0][0] for p in parts]
            vec_neg = [p[0][1] for p in reversed(parts)]
            s = r.zero
            for p in parts:
                s = r.add(s, p[1])
            for u0, t in v0_elems:
                out.add((tuple(vec_pos) + tuple(vec_neg) + u0, r.add(s, t)))
        return frozenset(out)

    def describe(self):
        return f"hyperbolic(n={self.n})"


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
        gram = [[r.zero for _ in range(self.dim)] for _ in range(self.dim)]
        for i in range(1, n + 1):
            gram[self.col(i)][self.col(-i)] = r.one
            gram[self.col(-i)][self.col(i)] = r.neg(r.lam)
        off = 2 * n
        for a in range(v0.rank):
            for b in range(v0.rank):
                gram[off + a][off + b] = v0.gram[a][b]

        smin = OddQuadraticSpace(ring, gram).lmin_scalars
        v0_sets = {}
        for (u0, a0) in v0.param_elements():
            v0_sets.setdefault(u0, set())
            for s in smin:
                v0_sets[u0].add(r.add(a0, s))
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
            zeros = tuple(r.zero for _ in range(2 * n))
            l0 = (
                (u0, a)
                for u0 in v0.vectors()
                for a in r.elements()
                if parameter.contains(self.space, (zeros + u0, a))
            )
        self.l0 = tuple(sorted(l0))
        self.l0_set = frozenset(self.l0)
        self.identity = Mat.identity(ring, self.dim)

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
            raise WorkbenchError(
                f"{xi!r} is not in the V0-supported form parameter"
            )
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
                        rows[rr][c] = r.add(
                            rows[rr][c], r.prod(u[rr], emi, gi[c])
                        )
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
    cols = [tuple(f.rows[r][c] for r in range(hs.dim)) for c in range(hs.dim)]
    sp = hs.space
    for i in range(hs.dim):
        for j in range(hs.dim):
            if sp.form(cols[i], cols[j]) != hs.gram[i][j]:
                return False
    return True


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


def _equiv_batch(hs: HyperbolicSpace, f: Mat, g: Mat) -> bool:
    """Residue-ring fast path; bar(x) = x bar(1) there, so B(u, v) = u^T G v."""
    sp = hs.space
    m = hs.ring.modulus
    vall = np.array(list(sp.vectors()), dtype=np.int64).T
    if vall.size == 0:
        vall = vall.reshape(hs.dim, 0)
    gram = np.array(hs.gram, dtype=np.int64)
    fv = (f.arr @ vall) % m
    gv = (g.arr @ vall) % m
    disp = (fv - gv) % m
    scal = (-(disp * (gram @ gv)).sum(axis=0)) % m
    contains = sp.param_contains
    for c in range(vall.shape[1]):
        if not contains((tuple(int(x) for x in disp[:, c]), int(scal[c]))):
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
    if isinstance(gen, Xij):
        return hs.transvection_ij(gen.i, gen.j, gen.a)
    if isinstance(gen, Xi):
        return hs.transvection_i(gen.i, gen.xi)
    raise ValueError(f"not a generator: {gen!r}")


def eu_generators(hs: HyperbolicSpace):
    """All nontrivial elementary transvections, in canonical index order."""
    return [(g, gen_matrix(hs, g)) for g in generators(hs, nontrivial=True)]


@dataclass
class GroupClosure:
    hs: HyperbolicSpace
    gens: list  # [(generator, Mat)]
    mats: dict = field(default_factory=dict)   # key -> Mat
    words: dict = field(default_factory=dict)  # key -> tuple of gen indices

    @property
    def order(self):
        return len(self.mats)

    def keys(self):
        return self.mats.keys()

    def word_tokens(self, key) -> str:
        w = tuple((self.gens[k][0], 1) for k in self.words[key])
        return format_word(w, self.hs)


def enumerate_eu(hs: HyperbolicSpace, cap=DEFAULT_CAP, gens=None) -> GroupClosure:
    """Breadth-first closure of the transvection generators under product."""
    if gens is None:
        gens = eu_generators(hs)
    cl = GroupClosure(hs, list(gens))
    ident = hs.identity
    cl.mats[ident.key()] = ident
    cl.words[ident.key()] = ()
    queue = deque([ident])
    gen_mats = [m for _, m in cl.gens]
    while queue:
        x = queue.popleft()
        wx = cl.words[x.key()]
        for gi, g in enumerate(gen_mats):
            y = x * g
            k = y.key()
            if k not in cl.mats:
                cl.mats[k] = y
                cl.words[k] = wx + (gi,)
                queue.append(y)
                if len(cl.mats) > cap:
                    raise CapExceeded(f"EU closure exceeded cap {cap}")
    return cl


def subgroup_closure(hs: HyperbolicSpace, mats, cap=DEFAULT_CAP) -> dict:
    """Closure of the given matrices under product, adding generators lazily.

    Generators already inside the running closure are skipped, which keeps
    the breadth-first work proportional to the effective generating set.
    """
    ident = hs.identity
    S = {ident.key(): ident}
    G: list[Mat] = []
    for g in mats:
        if g.key() in S:
            continue
        G.append(g)
        work = deque()
        for x in list(S.values()):
            y = x * g
            if y.key() not in S:
                S[y.key()] = y
                work.append(y)
        while work:
            x = work.popleft()
            for h in G:
                y = x * h
                k = y.key()
                if k not in S:
                    S[k] = y
                    work.append(y)
                    if len(S) > cap:
                        raise CapExceeded(f"closure exceeded cap {cap}")
    return S


def commutator_closure(hs: HyperbolicSpace, gens=None, cap=DEFAULT_CAP) -> dict:
    """Closure of all commutators of the generating transvections."""
    if gens is None:
        gens = eu_generators(hs)
    mats = [m for _, m in gens]
    seeds = []
    seen = set()
    for a in mats:
        ai = a.inv()
        for b in mats:
            c = a * b * ai * b.inv()
            k = c.key()
            if k not in seen:
                seen.add(k)
                seeds.append(c)
    return subgroup_closure(hs, seeds, cap)


def dump_closure(cl: GroupClosure, stream):
    """One element per line: shortest word, a tab, then row-major entries."""
    r = cl.hs.ring
    for key, mat in cl.mats.items():
        entries = " ".join(
            r.format_scalar(v) for row in mat.rows for v in row
        )
        stream.write(f"{cl.word_tokens(key)}\t{entries}\n")
