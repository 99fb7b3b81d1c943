"""Free-group words with exact reduction; the commutation identities C1-C6.

A word is a tuple of (letter, exponent) with exponent +1 or -1.  The
identities are verified by free reduction, which suffices: word identities
that reduce to the empty word hold in every group under every substitution.
"""

from __future__ import annotations

import random

from .generators import winv as inverse, wmul as concat
from .report import DEFAULT_SEED, Report

IDENTITY_IDS = ("C1", "C2", "C3", "C4", "C5", "C6")
ROUNDS = 100  # seeded random substitutions per identity
MAX_LEN = 8  # letters of a random substituted word, at most


def gen(symbol) -> tuple:
    return ((symbol, 1),)


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
    return reduce_word(concat(x, y, inverse(x)))


def comm(x, y) -> tuple:
    """Left-normed commutator [x, y] = x y x^-1 y^-1, reduced."""
    return reduce_word(concat(x, y, inverse(x), inverse(y)))


def substitute(w, assignment) -> tuple:
    """Replace each letter by the assigned word (a free-group endomorphism)."""
    out = []
    for s, e in w:
        repl = assignment[s]
        out.extend(repl if e == 1 else inverse(repl))
    return reduce_word(tuple(out))


def _identity_sides(cid: str, m: int = 4):
    x, y, z = gen("x"), gen("y"), gen("z")
    if cid == "C1":
        return comm(concat(x, y), z), concat(conj(x, comm(y, z)), comm(x, z))
    if cid == "C2":
        return comm(x, concat(y, z)), concat(comm(x, y), conj(y, comm(x, z)))
    if cid == "C3":
        ys = [gen(f"y{k}") for k in range(1, m + 1)]
        lhs = comm(x, concat(*ys))
        parts = []
        prefix = ()
        for yk in ys:
            parts.append(conj(prefix, comm(x, yk)))
            prefix = concat(prefix, yk)
        return lhs, concat(*parts)
    if cid == "C4":
        return (
            concat(comm(x, y), comm(x, z)),
            concat(comm(x, concat(y, z)), comm(y, comm(z, x))),
        )
    if cid == "C5":
        lhs = concat(
            conj(y, comm(x, comm(inverse(y), z))),
            conj(z, comm(y, comm(inverse(z), x))),
            conj(x, comm(z, comm(inverse(x), y))),
        )
        return lhs, ()
    if cid == "C6":
        return (
            conj(z, comm(y, comm(inverse(z), x))),
            comm(conj(z, y), comm(x, z)),
        )
    raise ValueError(f"unknown identity id {cid!r}")


def identity_variables(cid: str, m: int = 4):
    if cid == "C3":
        return ("x",) + tuple(f"y{k}" for k in range(1, m + 1))
    return ("x", "y", "z")


def verify_identity(cid: str, assignment=None, m: int = 4) -> bool:
    """Substitute, reduce both sides, compare; default assignment is the letters."""
    if not 2 <= m <= 8:
        raise ValueError("C3 product length must be between 2 and 8")
    lhs, rhs = _identity_sides(cid, m)
    if assignment is None:
        assignment = {v: gen(v) for v in identity_variables(cid, m)}
    return substitute(lhs, assignment) == substitute(rhs, assignment)


def random_assignment(cid: str, rng: random.Random, m: int = 4) -> dict:
    symbols = ["a", "b", "c", "d"]
    out = {}
    for v in identity_variables(cid, m):
        length = rng.randint(0, MAX_LEN)
        w = tuple([(rng.choice(symbols), rng.choice((1, -1))) for _ in range(length)])
        out[v] = reduce_word(w)
    return out


def _substitutions(cid, ms, rng):
    """(m, assignment): the letters themselves for each m, then ROUNDS
    seeded random words."""
    for m in ms:
        yield m, {v: gen(v) for v in identity_variables(cid, m)}
    for _ in range(ROUNDS):
        m = rng.choice(ms)
        yield m, random_assignment(cid, rng, m)


def verify_identities(seed=DEFAULT_SEED) -> Report:
    """C1-C6 with canonical letters plus seeded random word substitutions."""
    rep = Report()
    for cid in IDENTITY_IDS:
        ms = (2, 3, 4, 5, 6, 7, 8) if cid == "C3" else (4,)
        rep.sweep(f"freewords.{cid}",
                  _substitutions(cid, ms, random.Random(f"{seed}|{cid}")),
                  lambda case: verify_identity(cid, case[1], m=case[0]),
                  lambda case: "m={}, {!r}".format(*case), "substitutions", seed)
    return rep
