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
from functools import cache, partial
from typing import Callable

import numpy as np

from .generators import (Word, Xi, Xij, commutator_word, decode_gen, decode_word,
                         generators, outside_l0, wmul, word, xi_codes, xij_codes)
from .hyperbolic import HyperbolicSpace, gen_matrix
from .matrices import Mat, mulmod
from .report import DEFAULT_SEED, Report, WorkbenchError


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


class OutsideL0(WorkbenchError):
    """A letter X_i(xi) with xi outside `hs.l0`, which is no generator."""


class LetterMemo:
    """The values of the letter codes that one sweep meets, each built once.

    `values` are stacks with one slot per code met so far, `codes` gives
    the code of each slot, and `sorted` and `slots` are the codes in
    increasing order and their slots.  Slot 0 holds `identity`, the value of
    the code 0 and of an empty row.  `letter(c)` builds the values of a
    code c != 0 the first time a chunk holds it, one entry per stack (each
    batch joins a stack as one array of its dtype), and `OutsideL0` is
    raised instead for a letter outside `hs.l0`.  The first
    stack holds matrices (`Mat.arr`), which `products` multiplies along the
    rows.
    """

    def __init__(self, hs, identity, letter):
        self.hs = hs
        self.letter = letter
        self.values = tuple(np.asarray(v)[None] for v in identity)
        self.codes = self.sorted = np.zeros(1, dtype=np.int64)
        self.slots = np.zeros(1, dtype=np.intp)

    def slots_of(self, codes):
        """The slot of every code of an array, building the new ones."""
        letters, inverse = np.unique(codes, return_inverse=True)
        pos = np.searchsorted(self.sorted, letters)
        new = letters[self.sorted.take(pos, mode="clip") != letters]
        if new.size:
            if outside_l0(self.hs, new).any():
                raise OutsideL0("a letter X_i(xi) with xi outside the parameter")
            built = zip(*map(self.letter, new.tolist()))
            self.values = tuple(np.concatenate([old, np.array(part, dtype=old.dtype)])
                                for old, part in zip(self.values, built))
            self.codes = np.concatenate([self.codes, new])
            self.slots = self.codes.argsort()
            self.sorted = self.codes[self.slots]
            pos = np.searchsorted(self.sorted, letters)
        return self.slots[pos][inverse].reshape(codes.shape)

    def products(self, codes):
        """The product along each row of an (N, L) array of letter codes, as
        one stack, and the (N, max(L, 1)) slots of its letters.  Each letter
        position is one batched product mod m over all the rows."""
        n, width = codes.shape
        slots = np.zeros((n, max(width, 1)), dtype=np.intp)
        if width:
            slots[:, :width] = self.slots_of(codes)
        stack = self.values[0]
        acc = stack[slots[:, 0]]
        for t in range(1, slots.shape[1]):
            acc = mulmod(self.hs.ring, acc, stack[slots[:, t]])
        return acc, slots


def letter_memo(hs: HyperbolicSpace, rep=None) -> LetterMemo:
    """The memo of `eval_word`'s letters: `rep` (default `gen_matrix`) runs
    once per generator, and inverses come from the memoised `Mat.inv`."""
    if rep is None:
        rep = partial(gen_matrix, hs)
    matrix = cache(lambda c: rep(decode_gen(hs, c)))

    def letter(c):
        m = matrix(abs(c))
        return ((m if c > 0 else m.inv()).arr,)

    return LetterMemo(hs, (hs.identity.arr,), letter)


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
    return (_word(xi_codes(hs, i, xi), xi_codes(hs, i, zeta)),
            _word(xi_codes(hs, i, hs.v0.heis_add_arr(xi, zeta))))


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
    acted = hs.v0.heis_act_arr((u, r.arr_neg(r.arr_bar(a))), b)
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
    sides: Callable


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

# Property-dagger: R3's commutators on index quadruples with all eight
# signed indices distinct.
DAGGER = Family(4, _disjoint, ("ring", "ring"), _r3)

# parameter tuples per chunk; chunks of 128-512 ran equally fast, and a
# chunk's arrays add to the peak memory
CHUNK = 256


def _family(rid: str) -> Family:
    try:
        return FAMILIES[rid]
    except KeyError:
        raise ValueError(f"unknown relation id {rid!r}") from None


@cache
def _index_table(omega, fam: Family):
    """The admissible index tuples of a family in Omega order, as a
    read-only (T, arity) array, built once per (Omega, family)."""
    indices = [idx for idx in itertools.product(omega, repeat=fam.arity)
               if fam.admits(*idx)]
    table = np.array(indices, dtype=np.int64).reshape(len(indices), fam.arity)
    table.flags.writeable = False
    return table


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
    table = _index_table(hs.omega, fam)
    sizes = [hs.ring.card if d == "ring" else len(hs.l0) for d in fam.domains]
    if strategy == "exhaustive":
        total = len(table) * math.prod(sizes)
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
    draws = ([rng.choice(range(len(table)))] + [rng.choice(range(n)) for n in sizes]
             for _ in range(samples if len(table) else 0))
    for chunk in iter(lambda: list(itertools.islice(draws, CHUNK)), []):
        rows = np.array(chunk, dtype=np.int64)
        yield table[rows[:, 0]], rows[:, 1:]


def chunk_params(hs: HyperbolicSpace, fam: Family, idx, pos):
    """The parameter tuples (indices, then arguments) of a chunk."""
    args = [[hs.ring.scalar(c) if d == "ring" else hs.v0.heis_element(hs.l0[c]) for c in col]
            for d, col in zip(fam.domains, pos.T.tolist())]
    return [tuple(row) + tuple(vals) for row, *vals in zip(idx.tolist(), *args)]


def family_chunks(hs: HyperbolicSpace, fam: Family, tag: str, strategy="exhaustive",
                  seed=DEFAULT_SEED, samples=256):
    """Yield (idx, pos, lhs, rhs) per chunk of one family: its parameters
    (see `family_params`) and both sides as letter codes."""
    l0 = hs.v0.heis_arr(hs.l0) if "l0" in fam.domains else None
    for idx, pos in family_params(hs, fam, tag, strategy, seed, samples):
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
    r, args = hs.ring, []
    for d, v in zip(fam.domains, params[fam.arity:]):
        if not (r.is_scalar(v) if d == "ring" else hs.in_l0(v)):
            raise ValueError(f"{rid}{tuple(params)!r}: {v!r} is outside the {d} domain")
        args.append(r.arr([v], (1,)) if d == "ring" else hs.v0.heis_rows([v]))
    idx = [np.array([i], dtype=np.int64) for i in params[:fam.arity]]
    return tuple(decode_word(hs, side[0]) for side in fam.sides(hs, *idx, *args))


def sweep_family(report: Report, check: str, hs: HyperbolicSpace, fam: Family, tag: str,
                 evaluate, witness, strategy, seed, samples, unit="instances") -> bool:
    """Add the record `check` of one family, a chunk of `family_chunks` at a
    time: `evaluate` maps an (N, L) array of letter codes to N comparable
    rows, and an instance holds when its two sides give equal rows.  An
    instance with a letter X_i(xi), xi outside `hs.l0`, fails unevaluated:
    the `LetterMemo` behind `evaluate` raises `OutsideL0` on such a letter,
    and the chunk is evaluated again without those instances.  A chunk
    that holds is one verdict of its size, so the count is that of a
    case-by-case sweep; of a failing chunk, only its first failing instance
    is a verdict, which `witness(params)` names.  False on a failure."""
    def holds(lhs, rhs):
        return (evaluate(lhs) == evaluate(rhs)).reshape(len(lhs), -1).all(axis=1)

    def blocks():
        for idx, pos, lhs, rhs in family_chunks(hs, fam, tag, strategy, seed, samples):
            try:
                same = holds(lhs, rhs)
            except OutsideL0:
                bad = outside_l0(hs, np.concatenate([lhs, rhs], axis=1)).any(axis=1)
                same = holds(*(np.where(bad[:, None], 0, side) for side in (lhs, rhs))) & ~bad
            yield same, lambda k, idx=idx, pos=pos: witness(
                chunk_params(hs, fam, idx[k:k + 1], pos[k:k + 1])[0])

    return report.sweep_blocks(check, blocks(), unit,
                               seed if strategy == "sampled" else None)


def sweep_relations(hs: HyperbolicSpace, prefix: str, evaluate, strategy, seed,
                    samples, relation_ids=RELATION_IDS,
                    stop_on_fail=False) -> Report:
    """One record `prefix.rid` per family, from `sweep_family`."""
    report = Report()
    for rid in relation_ids:
        ok = sweep_family(report, f"{prefix}.{rid}", hs, _family(rid), rid, evaluate,
                          lambda params, rid=rid: f"{rid}{params!r}",
                          strategy, seed, samples)
        if not ok and stop_on_fail:
            break
    return report


def verify_relations(hs: HyperbolicSpace, strategy="exhaustive",
                     seed=DEFAULT_SEED, samples=256, rep=None,
                     relation_ids=RELATION_IDS) -> Report:
    """Evaluate every relation instance in the defining representation, a
    chunk of instances at a time, with one `letter_memo` for the sweep."""
    memo = letter_memo(hs, rep)
    return sweep_relations(hs, "relations", lambda codes: memo.products(codes)[0],
                           strategy, seed, samples, relation_ids)


# -- U1 normal form ----------------------------------------------------------


@dataclass(frozen=True)
class U1NormalForm:
    """X_n(zeta) * prod X_{n,i}(a_i) with i running over 1..n-1, -(n-1)..-1."""

    zeta: tuple
    coeffs: tuple  # ((i, value), ...) in the fixed collection order


def u1_order(hs: HyperbolicSpace):
    return tuple([i for i in hs.omega if i not in (hs.n, -hs.n)])


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
    if not hs.in_l0(zeta):
        raise WorkbenchError(f"collected X_n argument {zeta!r} left the parameter")
    return U1NormalForm(zeta, tuple([(i, coeffs[i]) for i in order]))


def normal_form_word(hs: HyperbolicSpace, nf: U1NormalForm) -> Word:
    parts = []
    if nf.zeta != hs.v0.heis_identity:
        parts.append(Xi(hs.n, nf.zeta))
    for i, a in nf.coeffs:
        if a != hs.ring.zero:
            parts.append(Xij(hs.n, i, a))
    return word(*parts)


# -- perfectness and stabilization -------------------------------------------


def witness_index(hs, excluded):
    for l in hs.omega:
        if l not in excluded:
            return l
    raise WorkbenchError("no admissible witness index; rank too small")


def witness_pairs(hs: HyperbolicSpace, gen, witness=None):
    """The generator pairs (x, y) whose commutators, multiplied in order,
    evaluate like `gen`; none for a zero argument.

    X_ij(a) = [X_iw(a), X_wj(1)] (R5) for a witness w outside +-i, +-j.
    X_k(u, c) is R5 then R8 solved for its one-index factor, with witnesses
    w outside +-k and m outside +-k, +-w:
    [X_wm(eps_w bar(c)), X_m,-k(1)] [X_w(u, -bar(c)), X_-w,-k(1)].
    `witness` replaces the default w.
    """
    r = hs.ring
    if isinstance(gen, Xij) and gen.j not in (gen.i, -gen.i):
        targets, zero = {gen.i, -gen.i, gen.j, -gen.j}, gen.a == r.zero
    elif isinstance(gen, Xi):
        targets, zero = {gen.i, -gen.i}, gen.xi == hs.v0.heis_identity
    else:
        raise ValueError(f"not a generator: {gen!r}")
    if witness in targets:
        raise ValueError("witness collides with the target indices")
    if zero:
        return ()
    w = witness_index(hs, targets) if witness is None else witness
    if isinstance(gen, Xij):
        return ((Xij(gen.i, w, gen.a), Xij(w, gen.j, r.one)),)
    k, (u, c) = gen.i, gen.xi
    m = witness_index(hs, {k, -k, w, -w})
    cbar = r.bar(c)
    return ((Xij(w, m, r.mul(hs.eps(w), cbar)), Xij(m, -k, r.one)),
            (Xi(w, (u, r.neg(cbar))), Xij(-w, -k, r.one)))


def perfect_witness(hs: HyperbolicSpace, gen) -> Word:
    """A product of commutators of generators evaluating like [gen]: the
    commutator words of its `witness_pairs`."""
    return wmul(*(commutator_word(word(x), word(y)) for x, y in witness_pairs(hs, gen)))
