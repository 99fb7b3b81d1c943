import random

import pytest

from oddunitary import Mat, NotInvertible
from oddunitary.matrices import inv_mod, invert_rows_mod


def brute_inverse(rows, m):
    """Reference inverse by exhaustive check on 2x2 matrices."""
    n = len(rows)
    assert n == 2
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    cand = ((a, b), (c, d))
                    prod = tuple(
                        tuple(
                            sum(rows[i][k] * cand[k][j] for k in range(n)) % m
                            for j in range(n)
                        )
                        for i in range(n)
                    )
                    if prod == ((1, 0), (0, 1)):
                        return cand
    return None


@pytest.mark.parametrize("m", [4, 6, 12])
def test_invert_rows_mod_matches_brute_force(m):
    rng = random.Random(m)
    for _ in range(60):
        rows = tuple(
            tuple(rng.randrange(m) for _ in range(2)) for _ in range(2)
        )
        expected = brute_inverse(rows, m)
        if expected is None:
            with pytest.raises(NotInvertible):
                invert_rows_mod(rows, m)
        else:
            got = invert_rows_mod(rows, m)
            assert got == expected or _times(got, rows, m) == ((1, 0), (0, 1))


def _times(a, b, m):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m for j in range(n))
        for i in range(n)
    )


def test_invert_rows_mod_composite_pivot():
    # no single entry of the first column is a unit mod 6, but a Bezout
    # combination of the rows is
    rows = ((2, 1), (3, 1))
    inv = invert_rows_mod(rows, 6)
    assert _times(inv, rows, 6) == ((1, 0), (0, 1))


def test_inv_mod():
    assert inv_mod(3, 7) == 5
    with pytest.raises(NotInvertible):
        inv_mod(2, 6)


def test_mat_roundtrip_and_ops(z3):
    a = Mat.from_rows(z3, ((1, 2, 0), (0, 1, 1), (0, 0, 1)))
    b = a * a
    assert b.rows == ((1, 1, 2), (0, 1, 2), (0, 0, 1))
    assert a * a.inv() == Mat.identity(z3, 3)
    assert a.apply((1, 0, 0)) == (1, 0, 0)
    assert a.apply((0, 1, 0)) == (2, 1, 0)


def test_mat_generic_path(m2z2):
    one, zero = m2z2.one, m2z2.zero
    x = ((1, 1), (0, 1))
    a = Mat.from_rows(m2z2, ((one, x), (zero, one)))
    sq = a * a
    assert sq.rows[0][1] == m2z2.add(x, x)  # == 0 in characteristic 2
    assert a * a.inv() == Mat.identity(m2z2, 2)
    # keys are the packed flattened entries: equal exactly when the matrices are
    assert Mat.from_rows(m2z2, a.rows).key() == a.key()
    assert sq.key() != a.key()
    assert len(a.key()) == (2 * 2) ** 2


def test_matrix_ring_product_matches_ring_arithmetic(m2z2):
    rng = random.Random(5)
    elems = list(m2z2.elements())
    for _ in range(20):
        a, b = ([[rng.choice(elems) for _ in range(3)] for _ in range(3)]
                for _ in range(2))
        expected = tuple(
            tuple(m2z2.sum(*(m2z2.mul(a[i][k], b[k][j]) for k in range(3)))
                  for j in range(3))
            for i in range(3)
        )
        assert (Mat.from_rows(m2z2, a) * Mat.from_rows(m2z2, b)).rows == expected
