"""The 2n-index presentation: generators X_ij(a), X_i(xi) and relations R0-R9.

Words are free sequences of generators with formal inverses; nothing is
auto-reduced.  Evaluation sends a word to the product of transvection
matrices (formal inverses become genuine matrix inverses), left-to-right.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .generators import Word, Xi, Xij, commutator_word, generators, wmul, word
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


def _letter(rep, cache, g, e) -> Mat:
    """The matrix of g^e, kept in `cache` under (g, e)."""
    m = cache.get((g, e))
    if m is None:
        base = cache.get((g, 1))
        if base is None:
            base = cache[(g, 1)] = rep(g)
        m = cache[(g, e)] = base if e == 1 else base.inv()
    return m


def eval_word(hs: HyperbolicSpace, w: Word, rep=None, cache=None) -> Mat:
    """Defining representation; eval(w1 w2) = eval(w1) * eval(w2)."""
    if rep is None:
        rep = partial(gen_matrix, hs)
    if cache is None:
        cache = {}
    acc = hs.identity
    for g, e in w:
        acc = acc * _letter(rep, cache, g, e)
    return acc


def eval_words(hs: HyperbolicSpace, words, rep=None, cache=None) -> np.ndarray:
    """`eval_word` of every word, as one stack of packed arrays (one
    `Mat.arr` per word).

    Each letter becomes an index into a stack of the distinct letter
    matrices, shorter words are padded with the identity, and each letter
    position is one batched product mod m over all the words.
    """
    if rep is None:
        rep = partial(gen_matrix, hs)
    if cache is None:
        cache = {}
    position = {}  # letter -> index in `mats`; 0 is the identity
    mats = [hs.identity.arr]
    rows = []
    for w in words:
        row = []
        for letter in w:
            k = position.get(letter)
            if k is None:
                k = position[letter] = len(mats)
                mats.append(_letter(rep, cache, *letter).arr)
            row.append(k)
        rows.append(row)
    length = max([1, *map(len, rows)])
    idx = np.array([row + [0] * (length - len(row)) for row in rows],
                   dtype=np.intp).reshape(len(rows), length)
    stack = np.stack(mats)
    acc = stack[idx[:, 0]]
    for t in range(1, length):
        acc = mulmod(hs.ring, acc, stack[idx[:, t]])
    return acc


# -- relation families --------------------------------------------------------


def _r0(hs, i, j, a):
    r = hs.ring
    rhs_val = r.prod(hs.eps(-j), r.bar(a), hs.eps(i))
    return word(Xij(i, j, a)), word(Xij(-j, -i, rhs_val))


def _r1(hs, i, j, a, b):
    return word(Xij(i, j, a), Xij(i, j, b)), word(Xij(i, j, hs.ring.add(a, b)))


def _r2(hs, i, xi, zeta):
    return word(Xi(i, xi), Xi(i, zeta)), word(Xi(i, hs.v0.heis_add(xi, zeta)))


def _r3(hs, i, j, h, k, a, b):
    return commutator_word(word(Xij(i, j, a)), word(Xij(h, k, b))), ()


def _r4(hs, i, j, k, xi, a):
    return commutator_word(word(Xi(i, xi)), word(Xij(j, k, a))), ()


def _r5(hs, i, j, k, a, b):
    return (
        commutator_word(word(Xij(i, j, a)), word(Xij(j, k, b))),
        word(Xij(i, k, hs.ring.mul(a, b))),
    )


def _r6(hs, i, j, xi, zeta):
    r = hs.ring
    (u, _), (v, _) = xi, zeta
    return (
        commutator_word(word(Xi(i, xi)), word(Xi(j, zeta))),
        word(Xij(i, -j, r.mul(hs.eps(i), hs.v0.form(u, v)))),
    )


def _r7(hs, i, xi, zeta):
    (u, _), (v, _) = xi, zeta
    val = hs.ring.sub(hs.v0.form(u, v), hs.v0.form(v, u))
    return (
        commutator_word(word(Xi(i, xi)), word(Xi(i, zeta))),
        word(Xi(i, (hs.v0.zero_vec, val))),
    )


def _r8(hs, i, j, xi, b):
    r = hs.ring
    u, a = xi
    acted = hs.v0.heis_act((u, r.neg(r.bar(a))), b)
    return (
        commutator_word(word(Xi(i, xi)), word(Xij(-i, j, b))),
        word(Xij(i, j, r.prod(hs.eps(i), a, b)), Xi(-j, acted)),
    )


def _r9(hs, i, j, a, b):
    r = hs.ring
    val = r.add(
        r.neg(r.prod(hs.eps(-i), r.lam, a, b)),
        r.prod(r.bar(b), r.lam_inv, r.bar(a), hs.eps(i)),
    )
    return (
        commutator_word(word(Xij(i, j, a)), word(Xij(j, -i, b))),
        word(Xi(i, (hs.v0.zero_vec, val))),
    )


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
    element of the V0-supported parameter).  `sides` turns a parameter
    tuple into the two words of a relation instance."""

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


def _family(rid: str) -> Family:
    try:
        return FAMILIES[rid]
    except KeyError:
        raise ValueError(f"unknown relation id {rid!r}") from None


def family_params(hs: HyperbolicSpace, fam: Family, tag: str,
                  strategy="exhaustive", seed=DEFAULT_SEED, samples=256):
    """Parameter tuples (indices, then arguments) of one family.

    Exhaustive: every admissible index tuple in Omega order, times every
    argument tuple, lazily.  Sampled: `samples` draws from a generator
    seeded with `seed|tag`, one for the index tuple, then one per domain.
    A family without admissible index tuples has no parameters at all.
    """
    pools = {"ring": list(hs.ring.elements()), "l0": list(hs.l0)}
    domains = [pools[d] for d in fam.domains]
    indices = [
        idx for idx in itertools.product(hs.omega, repeat=fam.arity)
        if fam.admits(*idx)
    ]
    if strategy == "exhaustive":
        return (idx + args for idx in indices
                for args in itertools.product(*domains))
    if strategy == "sampled":
        rng = random.Random(f"{seed}|{tag}")
        return (
            rng.choice(indices) + tuple(rng.choice(d) for d in domains)
            for _ in range(samples if indices else 0)
        )
    raise ValueError(f"unknown strategy {strategy!r}")


def relation_instance(hs: HyperbolicSpace, rid: str, params) -> tuple[Word, Word]:
    """Both sides of one relation, commutators expanded as a b a' b'."""
    fam = _family(rid)
    if (len(params) != fam.arity + len(fam.domains)
            or not fam.admits(*params[:fam.arity])):
        raise ValueError(f"{rid}{tuple(params)!r} violates the side condition")
    return fam.sides(hs, *params)


def relation_cases(hs, rid, strategy="exhaustive", seed=DEFAULT_SEED, samples=256):
    """Yield (params, lhs, rhs) for one relation family."""
    for params in family_params(hs, _family(rid), rid, strategy, seed, samples):
        yield (params,) + relation_instance(hs, rid, params)


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
    report.add(check, "pass" if count else "vacuous",
               witness=f"{count} {unit}", seed=seed)
    return True


def sweep_relations(hs: HyperbolicSpace, prefix: str, verdicts, strategy, seed,
                    samples, relation_ids=RELATION_IDS,
                    stop_on_fail=False) -> Report:
    """One record `prefix.rid` per family; `verdicts(cases)` yields
    (case, holds) for the (params, lhs, rhs) cases in their order."""
    report = Report()
    used_seed = seed if strategy == "sampled" else None
    for rid in relation_ids:
        ok = sweep(
            report, f"{prefix}.{rid}",
            verdicts(relation_cases(hs, rid, strategy, seed, samples)),
            lambda verdict: verdict[1],
            lambda verdict: f"{rid}{verdict[0][0]!r}",
            seed=used_seed,
        )
        if not ok and stop_on_fail:
            break
    return report


# relation instances per batched evaluation; chunks of 128-512 ran equally
# fast, and a chunk's words and arrays add to the peak memory
CHUNK = 256


def verify_relations(hs: HyperbolicSpace, strategy="exhaustive",
                     seed=DEFAULT_SEED, samples=256, rep=None,
                     relation_ids=RELATION_IDS) -> Report:
    """Evaluate every relation instance in the defining representation,
    CHUNK instances at a time."""
    cache = {}

    def verdicts(cases):
        cases = iter(cases)
        for chunk in iter(lambda: list(itertools.islice(cases, CHUNK)), []):
            lhs = eval_words(hs, [c[1] for c in chunk], rep, cache)
            rhs = eval_words(hs, [c[2] for c in chunk], rep, cache)
            same = (lhs == rhs).reshape(len(chunk), -1).all(axis=1)
            yield from zip(chunk, same.tolist())

    return sweep_relations(hs, "relations", verdicts, strategy, seed, samples,
                           relation_ids)


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
        return commutator_word(
            word(Xij(gen.i, l, gen.a)), word(Xij(l, gen.j, r.one))
        )
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
        part2 = commutator_word(
            word(Xi(i0, (u, r.neg(cbar)))), word(Xij(-i0, -k, r.one))
        )
        return wmul(part1, part2)
    raise ValueError(f"not a generator: {gen!r}")


def embed_matrix(small: HyperbolicSpace, big: HyperbolicSpace, m: Mat) -> Mat:
    """Block-extend a rank-n matrix to rank n+1 (identity on the new plane)."""
    if big.n != small.n + 1 or big.v0.rank != small.v0.rank:
        raise ValueError("embedding expects ranks n and n+1 with the same V0")
    r = small.ring
    rows = [list(row) for row in big.identity.rows]
    def newcol(c):
        # e_1..e_n keep their columns; e_-n..e_-1 and V0 shift past the new pair
        return c if c < small.n else c + 2
    for a in range(small.dim):
        for b in range(small.dim):
            rows[newcol(a)][newcol(b)] = m.rows[a][b]
    return Mat.from_rows(r, rows)


def remark2_witness_search(hs: HyperbolicSpace, limit=2000):
    """Search for non-commuting X_i(u, a), X_i(v, b); None when all commute."""
    count = 0
    cache = {}
    for i in hs.omega:
        for xi in hs.l0:
            for zeta in hs.l0:
                count += 1
                if count > limit:
                    return None
                lhs = commutator_word(word(Xi(i, xi)), word(Xi(i, zeta)))
                if not eval_word(hs, lhs, cache=cache).is_identity():
                    return (i, xi, zeta)
    return None
