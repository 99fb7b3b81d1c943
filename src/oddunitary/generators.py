"""Formal Steinberg generators and their word token grammar.

Tokens: `Xij(a)` for the two-index generator, `Xi(u;a)` for the one-index
generator (u = comma-separated coordinates of the anisotropic part, empty
when that part has rank 0), suffix `'` for a formal inverse.  The two
indices are written glued together (`X3-1`) while both are single digits,
and with a comma between them (`X10,1`) otherwise; a comma is always
accepted on input.  For array work a letter is an integer code (see
`gen_codes`), and `decode_word` turns a row of codes back into a word.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .report import WorkbenchError
from .rings import place_values

Word = Tuple[tuple, ...]  # sequence of (generator, +1 | -1)


@dataclass(frozen=True)
class Xij:
    """Two-index generator X_ij(a); requires j not in {i, -i}."""
    i: int
    j: int
    a: object


@dataclass(frozen=True)
class Xi:
    """One-index generator X_i(xi); xi = (u, a) with u in V0 coordinates.

    Keeping the vector in V0 coordinates makes the generator data identical
    at every hyperbolic rank, so rank stabilization is the identity on words.
    """
    i: int
    xi: tuple


def generators(hs, nontrivial=False):
    """X_ij(a) over ordered pairs j outside {i, -i} and scalars a, then
    X_i(xi) over the V0-supported parameter, in Omega order; `nontrivial`
    leaves out the zero arguments."""
    r = hs.ring
    for i, j in itertools.product(hs.omega, repeat=2):
        if j not in (i, -i):
            for a in r.elements():
                if not (nontrivial and a == r.zero):
                    yield Xij(i, j, a)
    for i in hs.omega:
        for xi in hs.l0:
            if not (nontrivial and xi == hs.v0.heis_identity):
                yield Xi(i, xi)


# -- letter codes ---------------------------------------------------------------
#
# A letter is a signed int64: +c for the generator with code c >= 1, -c for
# its formal inverse, 0 for the identity.  The code of a generator is
# 1 + (col(i) (2n + 1) + slot) card^(r0 + 1) + arg, where slot is col(j) for
# X_ij(a) and 2n for X_i(u, a), and arg is the argument's code: the scalar
# codes (see Ring.codes_arr) of u_1, ..., u_r0, a as digits in base card,
# of a alone for X_ij.


def _codes(hs, i, slot, digits):
    """Codes from index and slot arrays and argument digits (N, t, k, k)."""
    card, d = hs.ring.card, 2 * hs.n
    span = card ** (hs.v0.rank + 1)
    if d * (d + 1) * span >= 2**63:
        raise WorkbenchError(f"generator codes over {hs.ring!r} at n = {hs.n} exceed int64")
    arg = hs.ring.arr_codes(digits) @ place_values(card, digits.shape[1])
    return 1 + (np.where(i > 0, i - 1, d + i) * (d + 1) + slot) * span + arg


def xij_codes(hs, i, j, a):
    """Codes of X_ij(a) for index arrays i, j and a scalar array a."""
    return _codes(hs, i, np.where(j > 0, j - 1, 2 * hs.n + j), a[:, None])


def xi_codes(hs, i, xi):
    """Codes of X_i(u, a) for an index array i and xi = (u, a) arrays."""
    u, a = xi
    return _codes(hs, i, 2 * hs.n, np.concatenate([u, a[:, None]], axis=1))


def gen_codes(hs, gens):
    """The code of each generator, as an int64 array."""
    # X_ij(a) has the argument digits (0, ..., 0, a)
    rows = [(g.i, hs.col(g.j), hs.v0.zero_vec + (g.a,)) if isinstance(g, Xij)
            else (g.i, 2 * hs.n, g.xi[0] + (g.xi[1],)) for g in gens]
    i, slot = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2).T
    return _codes(hs, i, slot, hs.ring.arr([row[2] for row in rows],
                                           (len(rows), hs.v0.rank + 1)))


def decode_gen(hs, code: int):
    """The generator with code `code`."""
    card, d = hs.ring.card, 2 * hs.n
    place, arg = divmod(code - 1, card ** (hs.v0.rank + 1))
    ci, slot = divmod(place, d + 1)
    digits = [hs.ring.scalar(arg // card**e % card) for e in range(hs.v0.rank, -1, -1)]
    if slot == d:
        return Xi(hs.omega[ci], (tuple(digits[:-1]), digits[-1]))
    return Xij(hs.omega[ci], hs.omega[slot], digits[-1])


def decode_word(hs, codes) -> Word:
    """The word of a row of letter codes; 0 letters are dropped."""
    return tuple([(decode_gen(hs, abs(c)), 1 if c > 0 else -1)
                  for c in codes.tolist() if c])


# Words built and dropped per case are made with tuple([...]), not
# tuple(<generator>): the latter resizes its result, and each such tuple,
# once freed, joins the interpreter's free list of its size (up to 2000 kept
# per size) without having been taken from it, so those lists fill and stay.


def word(*gens) -> Word:
    return tuple([(g, 1) for g in gens])


def winv(w: Word) -> Word:
    return tuple([(g, -e) for g, e in reversed(w)])


def wmul(*ws) -> Word:
    out = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def commutator_word(w1: Word, w2: Word) -> Word:
    """Left-normed commutator [a, b] = a b a^-1 b^-1."""
    return wmul(w1, w2, winv(w1), winv(w2))


def format_gen(gen, hs=None) -> str:
    """Render a generator as a token; `hs` supplies the scalar formatting."""
    fmt = hs.ring.format_scalar if hs is not None else str
    if isinstance(gen, Xij):
        sep = "," if max(abs(gen.i), abs(gen.j)) > 9 else ""
        return f"X{gen.i}{sep}{gen.j}({fmt(gen.a)})"
    u, a = gen.xi
    u_txt = ",".join(fmt(c) for c in u)
    return f"X{gen.i}({u_txt};{fmt(a)})"


def format_word(w: Word, hs=None) -> str:
    return " ".join(format_gen(g, hs) + ("'" if e < 0 else "") for g, e in w)


_TOKEN = re.compile(r"^X(-?\d+)(?:,?(-?\d+))?\((.*)\)('?)$")


def parse_gen(token: str, hs):
    m = _TOKEN.match(token.strip())
    if m is None:
        raise ValueError(f"cannot parse generator token {token!r}")
    first, second, arg, prime = m.groups()
    exp = -1 if prime else 1
    if ";" in arg:
        if second is not None:
            raise ValueError(f"one-index token with two indices: {token!r}")
        i = int(first)
        u_txt, a_txt = arg.split(";", 1)
        coords = (
            tuple(hs.ring.parse_scalar(c) for c in u_txt.split(","))
            if u_txt.strip()
            else ()
        )
        if len(coords) != hs.v0.rank:
            raise ValueError(f"{token!r}: expected {hs.v0.rank} anisotropic coordinates")
        return Xi(i, (coords, hs.ring.parse_scalar(a_txt))), exp
    if second is None:
        # indices glued together, e.g. X31 or X3-1: split after one signed digit
        m2 = re.match(r"^(-?\d)(-?\d)$", first)
        if m2 is None:
            raise ValueError(f"cannot split indices in token {token!r}")
        i, j = int(m2.group(1)), int(m2.group(2))
    else:
        i, j = int(first), int(second)
    return Xij(i, j, hs.ring.parse_scalar(arg)), exp


def parse_word(text: str, hs) -> Word:
    return tuple(parse_gen(tok, hs) for tok in text.split())
