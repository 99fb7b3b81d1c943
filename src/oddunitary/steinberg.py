"""The 2n-index presentation: generators X_ij(a), X_i(xi) and relations R0-R9.

Words are free sequences of generators with formal inverses; nothing is
auto-reduced.  Evaluation sends a word to the product of transvection
matrices (formal inverses become genuine matrix inverses), left-to-right.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .generators import (Word, Xi, Xij, commutator_word, decode_gen, decode_word,
                         generators, wmul, word, xi_codes, xij_codes)
from .hyperbolic import HyperbolicSpace, gen_matrix
from .matrices import Mat, mulmod
from .report import DEFAULT_SEED, Report, WorkbenchError


def validate_gen(hs: HyperbolicSpace, gen):
    if isinstance(gen, Xij):
        hs.col(gen.i)
        hs.col(gen.j)
        if gen.j in (gen.i, -gen.i):
            raise ValueError(f"invalid generator {gen!r}")
    elif isinstance(gen, Xi):
        hs.col(gen.i)
        if gen.xi not in hs.l0_set:
            raise WorkbenchError(f"{gen!r}: argument outside the form parameter")
    else:
        raise ValueError(f"not a generator: {gen!r}")


def eval_word(hs: HyperbolicSpace, w: Word, rep=None, cache=None) -> Mat:
    """Defining representation; eval(w1 w2) = eval(w1) * eval(w2).  `cache`
    keeps each generator's matrix; inverses come from the memoised Mat.inv."""
    if rep is None:
        rep = partial(gen_matrix, hs)
    if cache is None:
        cache = {}
    acc = hs.identity
    for g, e in w:
        m = cache.get(g)
        if m is None:
            m = cache[g] = rep(g)
        acc = acc * (m if e == 1 else m.inv())
    return acc


def eval_words(hs: HyperbolicSpace, codes, rep=None) -> np.ndarray:
    """`eval_word` of each row of an (N, L) array of letter codes, as one
    stack of `Mat.arr`s: the distinct letters index one stack of their
    matrices (inverses from the memoised `Mat.inv`), and each letter
    position is one batched product mod m over all the rows."""
    if rep is None:
        rep = partial(gen_matrix, hs)

    def letter(c):
        m = rep(decode_gen(hs, abs(c))) if c else hs.identity
        return (m if c >= 0 else m.inv()).arr

    n, width = codes.shape
    letters, inverse = np.unique(codes, return_inverse=True)
    # stack[0] is the identity, the value of an empty row
    stack = np.stack([hs.identity.arr] + [letter(c) for c in letters.tolist()])
    idx = np.zeros((n, max(width, 1)), dtype=np.intp)
    idx[:, :width] = inverse.reshape(n, width) + 1
    acc = stack[idx[:, 0]]
    for t in range(1, idx.shape[1]):
        acc = mulmod(hs.ring, acc, stack[idx[:, t]])
    return acc


# -- relation families --------------------------------------------------------
#
# `sides` takes a chunk of N parameter tuples as one int64 array (N,) per
# index and per argument a scalar array (N, k, k) ("ring") or a pair (u, a)
# of arrays (N, r0, k, k), (N, k, k) ("l0"); it returns both sides as (N, L)
# arrays of letter codes, commutators expanded as a b a' b'.


def _word(*letters):
    return np.stack(letters, axis=1)


def _comm(x, y):
    return _word(x, y, -x, -y)


def _none(i):
    return np.zeros((len(i), 0), dtype=np.int64)


def _eps(hs, i):
    """eps_i for an index array: lam^-1 on positive indices, -1 on negative ones."""
    r = hs.ring
    return np.where((i > 0)[:, None, None], r.arr(r.lam_inv), r.arr_neg(r.arr(r.one)))


def _central(hs, val):
    """The Heisenberg elements (0, val)."""
    return np.zeros((len(val), hs.v0.rank) + val.shape[1:], dtype=np.int64), val


def _r0(hs, i, j, a):
    b = hs.ring.arr_mul(_eps(hs, -j), hs.ring.arr_bar(a), _eps(hs, i))
    return _word(xij_codes(hs, i, j, a)), _word(xij_codes(hs, -j, -i, b))


def _r1(hs, i, j, a, b):
    return (_word(xij_codes(hs, i, j, a), xij_codes(hs, i, j, b)),
            _word(xij_codes(hs, i, j, hs.ring.arr_add(a, b))))


def _r2(hs, i, xi, zeta):
    r, (u, a), (v, b) = hs.ring, xi, zeta
    # heis_add(xi, zeta) = (u + v, a + b + B(u, v))
    total = r.arr_add(u, v), r.arr_add(r.arr_add(a, b), hs.v0.form_arr(u, v))
    return (_word(xi_codes(hs, i, xi), xi_codes(hs, i, zeta)),
            _word(xi_codes(hs, i, total)))


def _r3(hs, i, j, h, k, a, b):
    return _comm(xij_codes(hs, i, j, a), xij_codes(hs, h, k, b)), _none(i)


def _r4(hs, i, j, k, xi, a):
    return _comm(xi_codes(hs, i, xi), xij_codes(hs, j, k, a)), _none(i)


def _r5(hs, i, j, k, a, b):
    return (_comm(xij_codes(hs, i, j, a), xij_codes(hs, j, k, b)),
            _word(xij_codes(hs, i, k, hs.ring.arr_mul(a, b))))


def _r6(hs, i, j, xi, zeta):
    val = hs.ring.arr_mul(_eps(hs, i), hs.v0.form_arr(xi[0], zeta[0]))
    return (_comm(xi_codes(hs, i, xi), xi_codes(hs, j, zeta)),
            _word(xij_codes(hs, i, -j, val)))


def _r7(hs, i, xi, zeta):
    r, (u, _), (v, _) = hs.ring, xi, zeta
    val = r.arr_add(hs.v0.form_arr(u, v), r.arr_neg(hs.v0.form_arr(v, u)))
    return (_comm(xi_codes(hs, i, xi), xi_codes(hs, i, zeta)),
            _word(xi_codes(hs, i, _central(hs, val))))


def _r8(hs, i, j, xi, b):
    r, (u, a) = hs.ring, xi
    # heis_act((u, -bar(a)), b) = (u b, bar(b) lam^-1 (-bar(a)) b)
    acted = (r.arr_mul(u, b[:, None]),
             r.arr_mul(r.arr_bar(b), r.arr(r.lam_inv), r.arr_neg(r.arr_bar(a)), b))
    return (_comm(xi_codes(hs, i, xi), xij_codes(hs, -i, j, b)),
            _word(xij_codes(hs, i, j, r.arr_mul(_eps(hs, i), a, b)),
                  xi_codes(hs, -j, acted)))


def _r9(hs, i, j, a, b):
    r = hs.ring
    val = r.arr_add(
        r.arr_neg(r.arr_mul(_eps(hs, -i), r.arr(r.lam), a, b)),
        r.arr_mul(r.arr_bar(b), r.arr(r.lam_inv), r.arr_bar(a), _eps(hs, i)),
    )
    return (_comm(xij_codes(hs, i, j, a), xij_codes(hs, j, -i, b)),
            _word(xi_codes(hs, i, _central(hs, val))))


def _pair(i, j):
    return j not in (i, -i)


def _any(i):
    return True


def _disjoint(*idx):
    """The signed indices +-i of every index in idx are pairwise distinct."""
    return len({s * i for i in idx for s in (1, -1)}) == 2 * len(idx)


@dataclass(frozen=True)
class Family:
    """A family of parameter tuples: `arity` indices from Omega satisfying
    `admits`, then one argument per domain ("ring": a scalar, "l0": an
    element of the V0-supported parameter).  `sides` builds the two sides
    of a chunk of parameter tuples as letter-code arrays."""

    arity: int
    admits: Callable
    domains: tuple
    sides: Optional[Callable] = None


# Adding a relation family means adding one entry here.
FAMILIES = {
    "R0": Family(2, _pair, ("ring",), _r0),
    "R1": Family(2, _pair, ("ring", "ring"), _r1),
    "R2": Family(1, _any, ("l0", "l0"), _r2),
    "R3": Family(4, lambda i, j, h, k: _pair(i, j) and h not in (j, -i)
                 and k not in (h, -h, i, -j), ("ring", "ring"), _r3),
    "R4": Family(3, lambda i, j, k: j != -i and k not in (j, -j, i),
                 ("l0", "ring"), _r4),
    "R5": Family(3, _disjoint, ("ring", "ring"), _r5),
    "R6": Family(2, _pair, ("l0", "l0"), _r6),
    "R7": Family(1, _any, ("l0", "l0"), _r7),
    "R8": Family(2, _pair, ("l0", "ring"), _r8),
    "R9": Family(2, _pair, ("ring", "ring"), _r9),
}
RELATION_IDS = tuple(FAMILIES)

# Property-dagger: index quadruples with all eight signed indices distinct.
DAGGER = Family(4, _disjoint, ("ring", "ring"))

# parameter tuples per chunk; chunks of 128-512 ran equally fast, and a
# chunk's arrays add to the peak memory
CHUNK = 256


def _family(rid: str) -> Family:
    try:
        return FAMILIES[rid]
    except KeyError:
        raise ValueError(f"unknown relation id {rid!r}") from None


def family_params(hs: HyperbolicSpace, fam: Family, tag: str,
                  strategy="exhaustive", seed=DEFAULT_SEED, samples=256):
    """The parameter tuples of one family in chunks (idx, pos) of at most
    CHUNK: the indices (N, arity) and each argument's position in its
    domain, `ring.elements()` or `hs.l0` (N, domains).

    Exhaustive: every admissible index tuple in Omega order, times every
    argument tuple.  Sampled: `samples` draws from a generator seeded with
    `seed|tag`, one for the index tuple, then one per domain.
    """
    if strategy not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown strategy {strategy!r}")
    indices = [idx for idx in itertools.product(hs.omega, repeat=fam.arity)
               if fam.admits(*idx)]
    table = np.array(indices, dtype=np.int64).reshape(len(indices), fam.arity)
    sizes = [hs.ring.card if d == "ring" else len(hs.l0) for d in fam.domains]
    if strategy == "exhaustive":
        total = len(indices) * math.prod(sizes)
        for start in range(0, total, CHUNK):
            # split the flat positions by divmod, the last domain first, into
            # [index tuple, first argument, ..., last argument]
            rows = [np.arange(start, min(start + CHUNK, total), dtype=np.int64)]
            for size in reversed(sizes):
                rows[:1] = np.divmod(rows[0], size)
            yield table[rows[0]], np.stack(rows[1:], axis=1)
        return
    # rng.choice(range(n)) draws the position that rng.choice(pool) would
    rng = random.Random(f"{seed}|{tag}")
    draws = ([rng.choice(range(len(indices)))] + [rng.choice(range(n)) for n in sizes]
             for _ in range(samples if indices else 0))
    for chunk in iter(lambda: list(itertools.islice(draws, CHUNK)), []):
        rows = np.array(chunk, dtype=np.int64)
        yield table[rows[:, 0]], rows[:, 1:]


def _values_arr(hs, domain, values):
    """Arguments of one domain as the arrays that `sides` takes."""
    r, n = hs.ring, len(values)
    if domain == "ring":
        return r.arr(values, (n,))
    return r.arr([u for u, _ in values], (n, hs.v0.rank)), r.arr([a for _, a in values], (n,))


def chunk_params(hs: HyperbolicSpace, fam: Family, idx, pos):
    """The parameter tuples (indices, then arguments) of a chunk."""
    args = [[hs.ring.scalar(c) if d == "ring" else hs.l0[c] for c in col]
            for d, col in zip(fam.domains, pos.T.tolist())]
    return [tuple(row) + tuple(vals) for row, *vals in zip(idx.tolist(), *args)]


def relation_chunks(hs, rid, strategy="exhaustive", seed=DEFAULT_SEED, samples=256):
    """Yield (idx, pos, lhs, rhs) per chunk of one relation family: its
    parameters (see `family_params`) and both sides as letter codes."""
    fam = _family(rid)
    l0 = _values_arr(hs, "l0", hs.l0) if "l0" in fam.domains else None
    for idx, pos in family_params(hs, fam, rid, strategy, seed, samples):
        args = [hs.ring.codes_arr(p) if d == "ring" else (l0[0][p], l0[1][p])
                for d, p in zip(fam.domains, pos.T)]
        yield (idx, pos, *fam.sides(hs, *idx.T, *args))


def relation_instance(hs: HyperbolicSpace, rid: str, params) -> tuple[Word, Word]:
    """Both sides of one relation, commutators expanded as a b a' b'."""
    fam = _family(rid)
    if (len(params) != fam.arity + len(fam.domains)
            or not fam.admits(*params[:fam.arity])):
        raise ValueError(f"{rid}{tuple(params)!r} violates the side condition")
    for i in params[:fam.arity]:
        hs.col(i)
    for d, v in zip(fam.domains, params[fam.arity:]):
        if not (hs.ring.is_scalar(v) if d == "ring" else v in hs.l0_set):
            raise ValueError(f"{rid}{tuple(params)!r}: {v!r} is outside the {d} domain")
    idx = [np.array([i], dtype=np.int64) for i in params[:fam.arity]]
    args = [_values_arr(hs, d, [v]) for d, v in zip(fam.domains, params[fam.arity:])]
    return tuple(decode_word(hs, side[0]) for side in fam.sides(hs, *idx, *args))


def relation_cases(hs, rid, strategy="exhaustive", seed=DEFAULT_SEED, samples=256):
    """Yield (params, lhs, rhs) for one relation family, the words decoded
    from the chunks' code arrays."""
    fam = _family(rid)
    for idx, pos, lhs, rhs in relation_chunks(hs, rid, strategy, seed, samples):
        for t, params in enumerate(chunk_params(hs, fam, idx, pos)):
            yield params, decode_word(hs, lhs[t]), decode_word(hs, rhs[t])


def sweep(report: Report, check: str, cases, holds, witness,
          unit="instances", seed=None) -> bool:
    """Add one record for `check`: fail at the first case that does not hold,
    vacuous when there is no case at all; False on a failure."""
    count = 0
    for case in cases:
        count += 1
        if not holds(case):
            report.add(check, "fail", witness=witness(case), seed=seed)
            return False
    report.add(check, "pass" if count else "vacuous", witness=f"{count} {unit}", seed=seed)
    return True


def sweep_relations(hs: HyperbolicSpace, prefix: str, verdicts, strategy, seed,
                    samples, relation_ids=RELATION_IDS,
                    stop_on_fail=False) -> Report:
    """One record `prefix.rid` per family; `verdicts(chunks)` yields
    ((chunk, t), holds) for case t of each chunk of `relation_chunks`, in
    their order."""
    report = Report()
    used_seed = seed if strategy == "sampled" else None
    for rid in relation_ids:
        def witness(verdict, fam=_family(rid)):
            (idx, pos, *_), t = verdict[0]
            return f"{rid}{chunk_params(hs, fam, idx[t:t + 1], pos[t:t + 1])[0]!r}"
        ok = sweep(report, f"{prefix}.{rid}",
                   verdicts(relation_chunks(hs, rid, strategy, seed, samples)),
                   lambda verdict: verdict[1], witness, seed=used_seed)
        if not ok and stop_on_fail:
            break
    return report


def verify_relations(hs: HyperbolicSpace, strategy="exhaustive",
                     seed=DEFAULT_SEED, samples=256, rep=None,
                     relation_ids=RELATION_IDS) -> Report:
    """Evaluate every relation instance in the defining representation, a
    chunk of instances at a time."""

    def verdicts(chunks):
        for chunk in chunks:
            lhs, rhs = chunk[2:]
            same = eval_words(hs, lhs, rep) == eval_words(hs, rhs, rep)
            for t, ok in enumerate(same.reshape(len(lhs), -1).all(axis=1).tolist()):
                yield (chunk, t), ok

    return sweep_relations(hs, "relations", verdicts, strategy, seed, samples, relation_ids)


# -- U1 normal form ----------------------------------------------------------


@dataclass(frozen=True)
class U1NormalForm:
    """X_n(zeta) * prod X_{n,i}(a_i) with i running over 1..n-1, -(n-1)..-1."""

    zeta: tuple
    coeffs: tuple  # ((i, value), ...) in the fixed collection order


def u1_order(hs: HyperbolicSpace):
    return tuple(i for i in hs.omega if i not in (hs.n, -hs.n))


def _u1_swap_scalar(hs: HyperbolicSpace, j, c, b):
    """Scalar of [X_{n,-j}(c), X_{n,j}(b)] = X_n(0, s), via R0 then R9.

    R0 turns X_{n,j}(b) into X_{-j,-n}(d) with d = eps_-j bar(b) eps_n, and
    R9 with the pair (n, -j) yields s = -eps_-n lam c d + bar(d) lam^-1 bar(c) eps_n.
    """
    r = hs.ring
    d = r.prod(hs.eps(-j), r.bar(b), hs.eps(hs.n))
    return r.add(
        r.neg(r.prod(hs.eps(-hs.n), r.lam, c, d)),
        r.prod(r.bar(d), r.lam_inv, r.bar(c), hs.eps(hs.n)),
    )


def u1_alphabet(hs: HyperbolicSpace):
    """Every X_n(zeta), then every X_{n,i}(a) in collection order."""
    return sorted((g for g in generators(hs) if g.i == hs.n),
                  key=lambda g: isinstance(g, Xij))


def u1_decompose(hs: HyperbolicSpace, w: Word) -> U1NormalForm:
    """Collect a word over {X_{n,i}(a), X_n(zeta)} into the normal form.

    Central X_n factors float to the front; disjoint long factors commute;
    moving X_{n,j} (j > 0) past the stored X_{n,-j} emits the X_n correction
    computed by the R0+R9 rewrite.
    """
    r = hs.ring
    v0 = hs.v0
    n = hs.n
    order = u1_order(hs)
    coeffs = {i: r.zero for i in order}
    zeta = v0.heis_identity
    for g, e in w:
        if isinstance(g, Xi):
            if g.i != n:
                raise ValueError(f"{g!r} is outside the U1 alphabet")
            xi = g.xi if e == 1 else v0.heis_neg(g.xi)
            zeta = v0.heis_add(zeta, xi)
        elif isinstance(g, Xij):
            if g.i != n or g.j in (n, -n):
                raise ValueError(f"{g!r} is outside the U1 alphabet")
            j = g.j
            b = g.a if e == 1 else r.neg(g.a)
            if j > 0:
                c = coeffs[-j]
                if c != r.zero and b != r.zero:
                    s = _u1_swap_scalar(hs, j, c, b)
                    zeta = v0.heis_add(zeta, (v0.zero_vec, s))
            coeffs[j] = r.add(coeffs[j], b)
        else:
            raise ValueError(f"{g!r} is outside the U1 alphabet")
    if zeta not in hs.l0_set:
        raise WorkbenchError(f"collected X_n argument {zeta!r} left the parameter")
    return U1NormalForm(zeta, tuple((i, coeffs[i]) for i in order))


def normal_form_word(hs: HyperbolicSpace, nf: U1NormalForm) -> Word:
    parts = []
    if nf.zeta != hs.v0.heis_identity:
        parts.append(Xi(hs.n, nf.zeta))
    for i, a in nf.coeffs:
        if a != hs.ring.zero:
            parts.append(Xij(hs.n, i, a))
    return word(*parts)


def u1_uniqueness_check(hs: HyperbolicSpace, w1: Word, w2: Word) -> bool:
    """True iff evaluation equality and normal-form equality agree."""
    same_eval = eval_word(hs, w1) == eval_word(hs, w2)
    same_nf = u1_decompose(hs, w1) == u1_decompose(hs, w2)
    return same_eval == same_nf


# -- perfectness and stabilization -------------------------------------------


def witness_index(hs, excluded):
    for l in hs.omega:
        if l not in excluded:
            return l
    raise WorkbenchError("no admissible witness index; rank too small")


def perfect_witness(hs: HyperbolicSpace, gen) -> Word:
    """A product of commutators of generators evaluating like [gen].

    X_ik(a) = [X_il(a), X_lk(1)]; X_k(u, c) is rebuilt from the commutator
    shape of the mixed relation, solved for its one-index factor.
    """
    r = hs.ring
    if isinstance(gen, Xij):
        if gen.a == r.zero:
            return ()
        l = witness_index(hs, {gen.i, -gen.i, gen.j, -gen.j})
        return commutator_word(word(Xij(gen.i, l, gen.a)), word(Xij(l, gen.j, r.one)))
    if isinstance(gen, Xi):
        if gen.xi == hs.v0.heis_identity:
            return ()
        k = gen.i
        u, c = gen.xi
        i0 = witness_index(hs, {k, -k})
        m0 = witness_index(hs, {k, -k, i0, -i0})
        cbar = r.bar(c)
        part1 = commutator_word(
            word(Xij(i0, m0, r.mul(hs.eps(i0), cbar))),
            word(Xij(m0, -k, r.one)),
        )
        part2 = commutator_word(word(Xi(i0, (u, r.neg(cbar)))), word(Xij(-i0, -k, r.one)))
        return wmul(part1, part2)
    raise ValueError(f"not a generator: {gen!r}")


def embed_matrix(small: HyperbolicSpace, big: HyperbolicSpace, m: Mat) -> Mat:
    """Block-extend a rank-n matrix to rank n+1 (identity on the new plane)."""
    if big.n != small.n + 1 or big.v0.rank != small.v0.rank:
        raise ValueError("embedding expects ranks n and n+1 with the same V0")
    # e_1..e_n keep their columns; e_-n..e_-1 and V0 shift past the new pair
    cols = [c if c < small.n else c + 2 for c in range(small.dim)]
    rows = big._blocks()[0]
    rows[np.ix_(cols, cols)] = small.ring.arr(m.rows, (small.dim, small.dim))
    return Mat.from_rows(small.ring, rows)


def remark2_witness_search(hs: HyperbolicSpace, limit=2000):
    """Search the first `limit` commutators [X_i(u, a), X_i(v, b)] (R7's left
    sides) for one that is not the identity: its (i, xi, zeta), else None."""
    for idx, pos, lhs, _ in relation_chunks(hs, "R7"):
        mats = eval_words(hs, lhs[:limit]).reshape(len(lhs[:limit]), -1)
        bad = np.flatnonzero((mats != hs.identity.arr.ravel()).any(axis=1))[:1]
        if bad.size:
            return chunk_params(hs, FAMILIES["R7"], idx[bad], pos[bad])[0]
        limit -= len(lhs)
        if limit <= 0:
            return None
    return None
