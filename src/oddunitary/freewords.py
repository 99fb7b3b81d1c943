"""Free-group words with exact reduction; the commutation identities C1-C6.

A word is a tuple of (letter, exponent) with exponent +1 or -1, built with
the word algebra of `generators`.  The identities are verified by free
reduction, which suffices: word identities that reduce to the empty word
hold in every group under every substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import chain
from typing import Callable

from .generators import commutator_word, winv, wmul, word
from .report import DEFAULT_SEED, Report

ROUNDS = 100  # seeded random substitutions per identity
MAX_LEN = 8  # letters of a random substituted word, at most


def reduce_word(w) -> tuple:
    """Freely reduced form; adjacent inverse pairs cancel (stack pass)."""
    out = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def conj(x, y) -> tuple:
    """^x y = x y x^-1, reduced."""
    return reduce_word(wmul(x, y, winv(x)))


def comm(x, y) -> tuple:
    """Left-normed commutator [x, y] = x y x^-1 y^-1, reduced."""
    return reduce_word(commutator_word(x, y))


def substitute(w, assignment) -> tuple:
    """Replace each letter by the assigned word (a free-group endomorphism)."""
    return reduce_word(chain.from_iterable(
        assignment[s] if e == 1 else winv(assignment[s]) for s, e in w))


@dataclass(frozen=True)
class Identity:
    """A word identity, checked at each product length m in `ms`: `letters(m)`
    names its letters, and `sides` builds its two sides from their words."""

    ms: tuple
    letters: Callable
    sides: Callable


def _xyz(m):
    return ("x", "y", "z")


# Adding an identity means adding one entry here.
IDENTITIES = {
    "C1": Identity((4,), _xyz, lambda x, y, z: (
        comm(wmul(x, y), z), wmul(conj(x, comm(y, z)), comm(x, z)))),
    "C2": Identity((4,), _xyz, lambda x, y, z: (
        comm(x, wmul(y, z)), wmul(comm(x, y), conj(y, comm(x, z))))),
    # [x, y1 ... ym] = prod_k ^(y1 ... y(k-1)) [x, yk]
    "C3": Identity((2, 3, 4, 5, 6, 7, 8),
                   lambda m: ("x",) + tuple(f"y{k}" for k in range(1, m + 1)),
                   lambda x, *ys: (comm(x, wmul(*ys)), wmul(
                       *(conj(wmul(*ys[:k]), comm(x, y)) for k, y in enumerate(ys))))),
    "C4": Identity((4,), _xyz, lambda x, y, z: (
        wmul(comm(x, y), comm(x, z)), wmul(comm(x, wmul(y, z)), comm(y, comm(z, x))))),
    # the Hall-Witt identity: its three conjugates cycle (x, y, z)
    "C5": Identity((4,), _xyz, lambda x, y, z: (
        wmul(*(conj(b, comm(a, comm(winv(b), c))) for a, b, c in
               ((x, y, z), (y, z, x), (z, x, y)))), ())),
    "C6": Identity((4,), _xyz, lambda x, y, z: (
        conj(z, comm(y, comm(winv(z), x))), comm(conj(z, y), comm(x, z)))),
}
IDENTITY_IDS = tuple(IDENTITIES)


@cache
def _sides(identity: Identity, m: int):
    """The two sides of `identity` at length m in its letters, built once."""
    return identity.sides(*map(word, identity.letters(m)))


def verify_identity(cid: str, assignment=None, m: int = 4) -> bool:
    """Substitute, reduce both sides, compare; default assignment is the letters."""
    if cid not in IDENTITIES:
        raise ValueError(f"unknown identity id {cid!r}")
    if not 2 <= m <= 8:
        raise ValueError(f"product length m={m} outside 2..8")
    identity = IDENTITIES[cid]
    lhs, rhs = _sides(identity, m)
    if assignment is None:
        assignment = {v: word(v) for v in identity.letters(m)}
    return substitute(lhs, assignment) == substitute(rhs, assignment)


def random_assignment(cid: str, rng: random.Random, m: int = 4) -> dict:
    """A random reduced word in a, b, c, d for each letter of `cid` at length m."""
    return {v: reduce_word([(rng.choice("abcd"), rng.choice((1, -1)))
                            for _ in range(rng.randint(0, MAX_LEN))])
            for v in IDENTITIES[cid].letters(m)}


def _substitutions(cid, rng):
    """(m, assignment): the letters themselves at each length, then ROUNDS
    seeded random words."""
    identity = IDENTITIES[cid]
    for m in identity.ms:
        yield m, {v: word(v) for v in identity.letters(m)}
    for _ in range(ROUNDS):
        m = rng.choice(identity.ms)
        yield m, random_assignment(cid, rng, m)


def verify_identities(seed=DEFAULT_SEED) -> Report:
    """C1-C6 with canonical letters plus seeded random word substitutions."""
    rep = Report()
    for cid in IDENTITY_IDS:
        rep.sweep(f"freewords.{cid}", _substitutions(cid, random.Random(f"{seed}|{cid}")),
                  lambda case: verify_identity(cid, case[1], m=case[0]),
                  lambda case: "m={}, {!r}".format(*case), "substitutions", seed)
    return rep
