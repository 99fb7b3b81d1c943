"""Central extensions of the elementary group and the splitting construction.

A product extension is base x A with componentwise product, epsilon the
first projection, and pluggable preimage choosers.  Commutators of
preimages do not depend on the chooser (central trick), which is asserted
on every call.  Section elements S_ij(a), S_i(u, a) are built from
commutators of preimages, over the generator pairs that prove the group
perfect, and verified against every relation family.  The dagger and
section checks run on the relation sweep's chunk loop
(`steinberg.sweep_family`), which evaluates chunks of letter-code words at
once (`eval_rows`), each letter built once per check (`letter_memo`).  A
section table is read through the space's generator index (`gen_index`):
one lookup per entry, eps(sigma) = id as one comparison of stacked
matrices, and the letter codes from the index.
"""

from __future__ import annotations

import functools
import random
# `hashlib` would load OpenSSL, about 3.4 MB more resident memory per process
from _blake2 import blake2b

import numpy as np

from .generators import Xij, decode_gen, format_word, generators, word
from .hyperbolic import HyperbolicSpace, gen_matrix
from .matrices import Mat
from .report import DEFAULT_SEED, Report, WorkbenchError
from .steinberg import (
    DAGGER,
    LetterMemo,
    eval_word,
    sweep_family,
    sweep_relations,
    witness_pairs,
)


AGREEMENT_PAIRS = 100  # random pairs that `chooser_agreement` compares
CHOOSER_DEPENDENT = "commutator of preimages depended on the chooser"


class ProductExtension:
    """base x Z/a_order; epsilon is the first projection."""

    def __init__(self, hs: HyperbolicSpace, a_order: int, chooser_seed=None):
        if a_order < 1:
            raise ValueError("the central factor must have positive order")
        self.hs = hs
        self.a_order = a_order
        self.chooser_seed = chooser_seed
        self.identity = (hs.identity, 0)

    def mul(self, x, y):
        return (x[0] * y[0], (x[1] + y[1]) % self.a_order)

    def inv(self, x):
        return (x[0].inv(), (-x[1]) % self.a_order)

    def eps(self, x) -> Mat:
        return x[0]

    def _central_part(self, g: Mat, seed) -> int:
        if seed is None:
            return 0
        digest = blake2b(repr(seed).encode() + g.key(), digest_size=8).digest()
        return int.from_bytes(digest, "big") % self.a_order

    def chooser(self, g: Mat):
        return (g, self._central_part(g, self.chooser_seed))

    def alt_chooser(self, g: Mat):
        alt_seed = 1 if self.chooser_seed is None else (self.chooser_seed, "alt")
        return (g, self._central_part(g, alt_seed))

    def letter_memo(self, element):
        """A `LetterMemo` of elements: the base parts as its matrices, the
        central parts in the same slots.  `element(c)` is the element of a
        generator code c > 0, asked for once; -c is its inverse."""
        element = functools.cache(element)

        def letter(c):
            x = element(abs(c))
            if c < 0:
                x = self.inv(x)
            return x[0].arr, x[1]

        return LetterMemo(self.hs, (self.hs.identity.arr, 0), letter)

    def eval_rows(self, codes, memo):
        """The words of an (N, L) array of letter codes as N comparable rows,
        the base entries then the central part, from the values of a
        `letter_memo`: base parts are stacked products, central parts signed
        sums mod `a_order`."""
        base, slots = memo.products(codes)
        parts = memo.values[1][slots].sum(axis=1) % self.a_order
        flat = base.reshape(len(base), self.hs.identity.arr.size)
        return np.concatenate([flat, parts[:, None]], axis=1)

    def commutator(self, x, y):
        return self.mul(self.mul(x, y), self.mul(self.inv(x), self.inv(y)))

    def central_elements(self):
        return [(self.hs.identity, c) for c in range(self.a_order)]

    def kernel_is_central(self, sample_mats) -> bool:
        for z in self.central_elements():
            for g in sample_mats:
                x = self.chooser(g)
                if self.mul(z, x) != self.mul(x, z):
                    return False
        return True


def product_extension(hs: HyperbolicSpace, a_order: int,
                      chooser_seed=None) -> ProductExtension:
    return ProductExtension(hs, a_order, chooser_seed)


def comm_preimages(E: ProductExtension, x: Mat, y: Mat):
    """[chooser(x), chooser(y)]; re-evaluated with a second chooser and compared."""
    c1 = E.commutator(E.chooser(x), E.chooser(y))
    c2 = E.commutator(E.alt_chooser(x), E.alt_chooser(y))
    if c1 != c2:
        raise WorkbenchError(CHOOSER_DEPENDENT)
    return c1


def check_dagger(E: ProductExtension, strategy="exhaustive",
                 seed=DEFAULT_SEED, samples=256) -> Report:
    """Preimage commutators vanish on index quadruples with all eight signs
    distinct: `sweep_family` of `DAGGER` on the rows of x y x' y' under the
    chooser, one `letter_memo` per chooser for the sweep, and a column that
    marks where the alt chooser's rows differ.  The first failing case
    raises if its choosers disagree (`comm_preimages`)."""
    hs = E.hs
    if hs.n < 4:
        raise WorkbenchError("property-dagger needs n >= 4 (no admissible quadruple)")
    matrix = functools.cache(lambda c: gen_matrix(hs, decode_gen(hs, c)))
    memo, alt_memo = (E.letter_memo(lambda c, chooser=chooser: chooser(matrix(c)))
                      for chooser in (E.chooser, E.alt_chooser))

    def evaluate(codes):
        rows = E.eval_rows(codes, memo)
        disagree = (rows != E.eval_rows(codes, alt_memo)).any(axis=1)
        return np.concatenate([rows, disagree[:, None]], axis=1)

    def witness(params):
        i, j, k, h, a, b = params
        comm_preimages(E, gen_matrix(hs, Xij(i, j, a)), gen_matrix(hs, Xij(k, h, b)))
        return "(i,j,k,h,a,b)=({},{},{},{},{!r},{!r})".format(*params)

    rep = Report()
    sweep_family(rep, "extension.dagger", hs, DAGGER, "dagger", evaluate, witness,
                 strategy, seed, samples, "quadruple instances")
    return rep


def section_entry(E: ProductExtension, gen, witness=None):
    """The section element of a generator: the product of the preimage
    commutators of its `witness_pairs`, so S_ij(a) = [eps^-1 X_iw(a), eps^-1 X_wj(1)]."""
    hs = E.hs
    out = E.identity
    for x, y in witness_pairs(hs, gen, witness):
        out = E.mul(out, comm_preimages(E, gen_matrix(hs, x), gen_matrix(hs, y)))
    return out


def build_section(E: ProductExtension) -> dict:
    """Full S-table; the dagger check is mandatory at n = 4, skipped for n >= 5."""
    hs = E.hs
    if hs.n < 4:
        raise WorkbenchError("the splitting construction needs n >= 4")
    if hs.n == 4:
        dag = check_dagger(E)
        if not dag.ok:
            raise WorkbenchError(f"property-dagger failed: {dag.failures()[0].witness}")
    return {g: section_entry(E, g) for g in generators(hs)}


def section_eval(E: ProductExtension, table: list, codes):
    """The section along a sequence of letter codes; `table` holds each
    entry at its generator's code, and a 0 letter is the identity."""
    acc = E.identity
    for c in codes:
        if c:
            t = table[abs(c)]
            acc = E.mul(acc, t if c > 0 else E.inv(t))
    return acc


def verify_section(E: ProductExtension, table: dict, strategy="exhaustive",
                   seed=DEFAULT_SEED, samples=256, stop_on_fail=False) -> Report:
    """Every relation family with S substituted for X, plus eps(sigma) = id,
    whose witness is the first wrong entry in table order.  Each generator
    needs one entry, in any order; a missing one or another key raises ValueError."""
    hs = E.hs
    position, codes, mats = hs.gen_index
    keys = list(table)
    try:
        at = [position[g] for g in keys]
    except KeyError as err:
        raise ValueError(f"not a generator: {err.args[0]!r}") from None
    if len(at) < len(position):
        missing = next(g for g in position if g not in table)
        raise ValueError(f"no section entry for {missing!r}")
    wrong = (np.array([E.eps(t).arr for t in table.values()]) != mats[at]).any(axis=(1, 2))
    bad = repr(keys[wrong.argmax()]) if wrong.any() else None
    rep = Report()
    rep.add("section.eps_sigma", "pass" if bad is None else "fail", witness=bad)
    if bad is not None and stop_on_fail:
        return rep
    memo = E.letter_memo(dict(zip(codes[at].tolist(), table.values())).__getitem__)
    rep.extend(sweep_relations(hs, "section", lambda rows: E.eval_rows(rows, memo),
                               strategy, seed, samples, stop_on_fail=stop_on_fail))
    return rep


def mutate_section(E: ProductExtension, table: dict, gen, delta: int) -> dict:
    """Multiply one S-entry by a central element (id, delta)."""
    if delta % E.a_order == 0:
        raise ValueError("mutation must use a nontrivial central element")
    if gen not in table:
        raise ValueError(f"no section entry for {gen!r}")
    out = dict(table)
    out[gen] = E.mul(out[gen], (E.hs.identity, delta % E.a_order))
    return out


def chooser_agreement(hs: HyperbolicSpace, a_order: int, seed=DEFAULT_SEED) -> Report:
    """Two independently seeded choosers give equal preimage commutators on
    AGREEMENT_PAIRS seeded random pairs of words of 1 to 4 generators X_ij."""
    e1 = ProductExtension(hs, a_order, chooser_seed=(seed, 1))
    e2 = ProductExtension(hs, a_order, chooser_seed=(seed, 2))
    rng = random.Random(f"{seed}|pairs")
    gens = [g for g in generators(hs, nontrivial=True) if isinstance(g, Xij)]

    def random_word():
        return word(*(rng.choice(gens) for _ in range(rng.randint(1, 4))))

    def holds(pair):
        x, y = (eval_word(hs, w) for w in pair)
        return (e1.commutator(e1.chooser(x), e1.chooser(y))
                == e2.commutator(e2.chooser(x), e2.chooser(y)))

    rep = Report()
    rep.sweep("extension.central_trick",
              ((random_word(), random_word()) for _ in range(AGREEMENT_PAIRS)), holds,
              lambda pair: "(x, y) = ({}, {})".format(*(format_word(w, hs) for w in pair)),
              "pairs", seed)
    return rep
