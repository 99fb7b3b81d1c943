import itertools
import math
import random
from math import gcd, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddunitary import (Mat, NotInvertible, WorkbenchError, enumerate_eu,
                        make_hyperbolic, make_ring, matrices, verify_relations)
from oddunitary.config import build_space, parse_config
from oddunitary.matrices import inv_mod, invert_rows_mod, mulmod

from conftest import apply

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("m", [4, 6, 12])
def test_invert_rows_mod_matches_determinant_rule(m):
    # a 2 x 2 matrix is invertible mod m exactly when gcd(ad - bc, m) = 1,
    # and then its inverse is the unique two-sided one
    rng = random.Random(m)
    for _ in range(60):
        rows = tuple(
            tuple(rng.randrange(m) for _ in range(2)) for _ in range(2)
        )
        (a, b), (c, d) = rows
        if gcd(a * d - b * c, m) != 1:
            with pytest.raises(NotInvertible):
                invert_rows_mod(rows, m)
        else:
            got = invert_rows_mod(rows, m)
            assert _times(got, rows, m) == _times(rows, got, m) == ((1, 0), (0, 1))


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
    assert apply(a, (1, 0, 0)) == (1, 0, 0)
    assert apply(a, (0, 1, 0)) == (2, 1, 0)


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


@pytest.mark.parametrize("ring", [
    make_ring("matrix", 2, 2, "transpose"),
    make_ring("matrix", 4, 2, "transpose"),
], ids=["M2(Z/2)", "M2(Z/4)"])
def test_apply_matches_ring_arithmetic(ring):
    rng = random.Random(7)
    elems = list(ring.elements())
    for dim in (1, 2, 3):
        for _ in range(10):
            a = [[rng.choice(elems) for _ in range(dim)] for _ in range(dim)]
            v = tuple(rng.choice(elems) for _ in range(dim))
            expected = tuple(
                ring.sum(*(ring.mul(a[i][k], v[k]) for k in range(dim)))
                for i in range(dim)
            )
            assert apply(Mat.from_rows(ring, a), v) == expected


def _det(rows):
    """Exact integer determinant by the Leibniz formula (small sizes only)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _check_inverse(m, invertible):
    """The memoised inverse of `m`, or NotInvertible on every call."""
    if not invertible:
        for _ in range(2):  # a failure is not cached
            with pytest.raises(NotInvertible):
                m.inv()
        return
    i = m.inv()
    one = Mat.identity(m.ring, m.dim)
    assert m * i == one and i * m == one
    assert m.inv() is i
    assert i.inv() == m


# derandomized and without the example database, so every run draws the
# same examples
DETERMINISTIC = settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)


def _square(m, d):
    """Strategy: any d x d matrix mod m (mostly singular for larger d)."""
    return st.lists(st.lists(st.integers(0, m - 1), min_size=d, max_size=d),
                    min_size=d, max_size=d)


def _invertible(m, d):
    """Strategy: P L U mod m, with L unit lower triangular, U upper
    triangular with unit diagonal and P a row permutation."""
    units = [u for u in range(1, m) if gcd(u, m) == 1]

    def build(parts):
        lower, upper, diag, perm = (np.array(p) for p in parts)
        lu = (np.tril(lower, -1) + np.eye(d, dtype=int)) @ (
            np.triu(upper, 1) + np.diag(diag))
        return (lu % m)[perm].tolist()

    return st.tuples(_square(m, d), _square(m, d),
                     st.lists(st.sampled_from(units), min_size=d, max_size=d),
                     st.permutations(range(d))).map(build)


@DETERMINISTIC
@given(st.sampled_from([4, 6, 12]).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda d: st.tuples(st.just(m),
                            st.one_of(_invertible(m, d), _square(m, d))))))
def test_inverse_properties_mod_composite(case):
    m, rows = case
    mat = Mat.from_rows(make_ring("residue", m), rows)
    _check_inverse(mat, gcd(_det(rows), m) == 1)


M2Z4 = make_ring("matrix", 4, 2, "transpose")


@DETERMINISTIC
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.sampled_from(list(M2Z4.elements())), min_size=d, max_size=d),
    min_size=d, max_size=d)))
def test_inverse_properties_matrix_ring(rows):
    mat = Mat.from_rows(M2Z4, rows)
    flat = mat.arr.astype(int).tolist()
    _check_inverse(mat, gcd(_det(flat), 4) == 1)


@pytest.mark.parametrize("ring_name", ["z3", "m2z2"])
def test_rows_and_arr_give_equal_matrices(request, ring_name):
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(11)
    elems = list(ring.elements())
    for dim in (1, 2, 3):
        rows = tuple(tuple(rng.choice(elems) for _ in range(dim))
                     for _ in range(dim))
        a = Mat.from_rows(ring, rows)
        b = Mat.from_arr(ring, a.arr.astype(np.int64))
        assert a == b and hash(a) == hash(b)
        assert b.rows == rows  # built from the packed array when read
        assert a.dim == b.dim == dim
        assert a.arr.shape == (dim * ring.degree,) * 2


def test_equality_needs_equal_shape_and_degree(z2, m2z2):
    assert Mat.identity(z2, 2) != Mat.identity(z2, 3)
    assert Mat.identity(z2, 2) != Mat.identity(m2z2, 1)  # equal bytes
    assert Mat.identity(z2, 2).key() == Mat.identity(m2z2, 1).key()
    assert Mat.identity(m2z2, 1) == Mat.from_rows(m2z2, ((m2z2.one,),))
    assert Mat.identity(z2, 2) != "not a matrix"
    # entries up to 69999 are packed in four bytes, so the bytes of this 2 x 2
    # matrix are also those of a 4 x 4 matrix over Z/2
    a = Mat.from_rows(make_ring("residue", 70000), ((1, 0), (0, 0)))
    b = Mat.from_arr(z2, np.frombuffer(a.key(), np.uint8).reshape(4, 4))
    assert a.key() == b.key() and a != b


@pytest.mark.parametrize("m", [2**25 - 1, 2**25 + 1, 2**31 - 1, 2**33 + 1, 10**12 + 39])
def test_products_on_large_moduli_are_exact_or_raise(m):
    # int64 products wrap once d (m-1)^2 >= 2^63, and float64 ones lose
    # integers once it reaches 2^52; past the int64 bound a product must
    # raise, never return wrapped entries.  Around m = 2^25 the d = 4
    # products sit on both sides of the float64 bound.
    ring = make_ring("residue", m)
    rng = random.Random(m)
    gen = np.random.default_rng(m)
    for dim in (1, 2, 3, 4):
        exact = dim * (m - 1) ** 2 < 2**63
        assert (dim <= ring.exact_dim) == exact
        assert (dim <= ring.float_dim) == (dim * (m - 1) ** 2 < 2**52)
        for _ in range(50):
            a, b = ([[rng.randrange(m) for _ in range(dim)] for _ in range(dim)]
                    for _ in range(2))
            x, y = Mat.from_rows(ring, a), Mat.from_rows(ring, b)
            if not exact:
                with pytest.raises(WorkbenchError):
                    x * y
                continue
            assert (x * y).rows == _times(a, b, m)
            v = tuple(b[0])
            assert apply(x, v) == tuple(
                sum(a[i][k] * v[k] for k in range(dim)) % m for i in range(dim))
        # a stack and a closure-block GEMM, both of at least FLOAT_WORK
        # multiply-adds, with entries down to -(m-1) on the left
        count = matrices.FLOAT_WORK // dim**3 + 1
        for shape_a, shape_b in (((count, dim, dim), (count, dim, dim)),
                                 ((count * dim, dim), (dim, dim))):
            a = gen.integers(1 - m, m, shape_a)
            b = gen.integers(0, m, shape_b)
            assert a.size * b.shape[-1] >= matrices.FLOAT_WORK
            if not exact:
                with pytest.raises(WorkbenchError):
                    mulmod(ring, a, b)
                continue
            want = np.array(a.tolist(), dtype=object) @ np.array(b.tolist(), dtype=object)
            assert mulmod(ring, a, b).tolist() == (want % m).tolist()


def _sweeps():
    """The exhaustive relation records on Z/3 + V0, and the keys and layer
    sizes of the EU(6, Z/2) closure."""
    hs = build_space(parse_config((CONFIGS / "z3_sympl_v0.cfg").read_text()))
    cl = enumerate_eu(make_hyperbolic(make_ring("residue", 2), 3))
    return verify_relations(hs).to_json_lines(), list(cl.keys()), cl.layers


def test_both_product_kernels_give_the_same_sweeps(monkeypatch):
    runs = []
    for work in (0, math.inf):  # every product in float64, then every one in int64
        monkeypatch.setattr(matrices, "FLOAT_WORK", work)
        runs.append(_sweeps())
    assert runs[0] == runs[1]
    assert runs[0][0].count('"pass"') == 10
    assert runs[0][2] == [1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6]
