"""Formal Steinberg generators and their word token grammar.

Tokens: `Xij(a)` for the two-index generator, `Xi(u;a)` for the one-index
generator (u = comma-separated coordinates of the anisotropic part, empty
when that part has rank 0), suffix `'` for a formal inverse.  The two
indices are written glued together (`X3-1`) while both are single digits,
and with a comma between them (`X10,1`) otherwise; a comma is always
accepted on input.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Tuple

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


def word(*gens) -> Word:
    return tuple((g, 1) for g in gens)


def winv(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


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
    return " ".join(
        format_gen(g, hs) + ("'" if e < 0 else "") for g, e in w
    )


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
            raise ValueError(
                f"{token!r}: expected {hs.v0.rank} anisotropic coordinates"
            )
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
