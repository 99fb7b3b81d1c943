import itertools
from collections import Counter

import numpy as np
import pytest

from oddunitary import MaxParameter, OddQuadraticSpace, make_hyperbolic, make_ring, steinberg
from oddunitary.matrices import mulmod


def apply(mat, vec):
    """`mat` times a column coordinate vector (a tuple of ring values), by
    `mulmod`: over M_k(Z/m) the k x k entries stack into a (dim k) x k array."""
    r, k = mat.ring, mat.ring.degree
    y = mulmod(r, mat.arr, np.array(vec, dtype=np.int64).reshape(-1, k))
    if r.modulus is not None:
        return tuple(y[:, 0].tolist())
    return tuple(tuple(map(tuple, e)) for e in y.reshape(-1, k, k).tolist())


def basis_vec(hs, c):
    """The basis vector of column c of a hyperbolic space."""
    r = hs.ring
    return tuple(r.one if k == c else r.zero for k in range(hs.rank))


def vectors(space):
    """Every module vector, as a tuple of ring values, in lexicographic order
    of the scalar codes."""
    return itertools.product(list(space.ring.elements()), repeat=space.rank)


def elements(space, codes):
    """The elements of an array of Heisenberg codes, as ring values."""
    return frozenset(map(space.heis_element, codes.tolist()))


def act(space, xi, b):
    """The action (u, a) <- b on one element given as ring values."""
    arrs = space.heis_act_arr(space.heis_rows([xi]), space.ring.arr([b], (1,)))
    return space.heis_element(space.heis_codes(arrs)[0])


def u1_uniqueness_check(hs, w1, w2):
    """True iff evaluation equality and normal-form equality agree."""
    same_eval = steinberg.eval_word(hs, w1) == steinberg.eval_word(hs, w2)
    same_nf = steinberg.u1_decompose(hs, w1) == steinberg.u1_decompose(hs, w2)
    return same_eval == same_nf


@pytest.fixture(scope="session")
def z2():
    return make_ring("residue", 2, involution="identity")


@pytest.fixture(scope="session")
def z3():
    return make_ring("residue", 3, involution="identity")


@pytest.fixture(scope="session")
def z3n():
    return make_ring("residue", 3, involution="negation")


@pytest.fixture(scope="session")
def z5():
    return make_ring("residue", 5, involution="identity")


@pytest.fixture(scope="session")
def z5n():
    return make_ring("residue", 5, involution="negation")


@pytest.fixture(scope="session")
def m2z2():
    return make_ring("matrix", 2, 2, "transpose")


@pytest.fixture(scope="session")
def hs_z2_n3(z2):
    return make_hyperbolic(z2, 3)


@pytest.fixture(scope="session")
def hs_z3_n3(z3):
    return make_hyperbolic(z3, 3)


@pytest.fixture(scope="session")
def hs_z3n_n3(z3n):
    return make_hyperbolic(z3n, 3)


@pytest.fixture(scope="session")
def hs_z2_n4(z2):
    return make_hyperbolic(z2, 4)


@pytest.fixture(scope="session")
def hs_rich(z3):
    """Z/3 with a rank-2 symplectic V0 and maximal parameter: the short
    generators carry nonzero vectors and the form is not symmetric."""
    v0 = OddQuadraticSpace(z3, ((0, 1), (2, 0)), MaxParameter())
    return make_hyperbolic(z3, 3, v0)


@pytest.fixture(scope="session")
def plane_z5(z5):
    return make_hyperbolic(z5, 1)


@pytest.fixture(scope="session")
def eu_z2_n3(hs_z2_n3):
    from oddunitary import enumerate_eu

    return enumerate_eu(hs_z2_n3)


@pytest.fixture
def letter_calls(monkeypatch):
    """Counts the `letter` calls of every `steinberg.LetterMemo`, by code."""
    calls = Counter()
    init = steinberg.LetterMemo.__init__

    def counting_init(self, ring, identity, letter):
        def counted(c):
            calls[c] += 1
            return letter(c)

        init(self, ring, identity, counted)

    monkeypatch.setattr(steinberg.LetterMemo, "__init__", counting_init)
    return calls
