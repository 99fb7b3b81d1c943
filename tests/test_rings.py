import itertools
import math

import numpy as np
import pytest

from oddunitary import (
    NotInvertible,
    OddQuadraticSpace,
    WorkbenchError,
    make_hyperbolic,
    make_ring,
    verify_pseudo_involution,
    verify_ring_axioms,
)

# Note: every additive bijection of Z/m is multiplication by a unit c, so
# each ring stores its involution as c, and bar(1) = c is always invertible.


def test_residue_identity_lambda():
    r = make_ring("residue", 5, involution="identity")
    assert r.lam == 1


def test_residue_negation_lambda_is_minus_one():
    r = make_ring("residue", 5, involution="negation")
    assert r.lam == 4
    assert r.mul(r.lam, r.lam_inv) == 1
    # axioms hold on the full 25-pair scan
    assert verify_pseudo_involution(r).ok


def test_matrix_transpose_lambda_is_identity(m2z2):
    assert m2z2.lam == m2z2.one


@pytest.mark.parametrize("args", [
    ("residue", 2, 1, "identity"),
    ("residue", 3, 1, "negation"),
    ("matrix", 2, 2, "transpose"),
])
def test_lam_and_lam_inv_are_set_once(args):
    r = make_ring(*args)
    assert r.lam == r.bar(r.one)
    assert r.mul(r.lam, r.lam_inv) == r.one
    assert r.lam_inv is r.lam_inv


def test_involve_examples(m2z2):
    assert make_ring("residue", 5, involution="negation").bar(2) == 3
    assert make_ring("residue", 6, involution="identity").bar(4) == 4
    assert m2z2.bar(((1, 1), (0, 1))) == ((1, 0), (1, 1))


def test_make_ring_rejects_bad_specs():
    with pytest.raises(ValueError):
        make_ring("polynomial", 5)
    with pytest.raises(ValueError):
        make_ring("residue", 1)
    with pytest.raises(ValueError):
        make_ring("residue", 5, involution="table", table=(0, 0, 1, 2, 3))
    with pytest.raises(ValueError):
        # a -> a+1 is a bijection but not additive
        make_ring("residue", 4, involution="table", table=(1, 2, 3, 0))
    for kind, involution in (("residue", "transpose:negation"), ("matrix", "transpose:flip"),
                             ("matrix", "transpose:"), ("matrix", "identity")):
        with pytest.raises(ValueError, match="^involution:"):
            make_ring(kind, 3, 2 if kind == "matrix" else 1, involution)


def _additive_bijection(m, table):
    """The table rule stated directly: a bijection of [0, m) that is additive."""
    return sorted(table) == list(range(m)) and all(
        table[(a + b) % m] == (table[a] + table[b]) % m for a in range(m) for b in range(m))


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_table_rule_accepts_exactly_the_additive_bijections(m):
    # every table of m entries in [-1, m]: accepted exactly when it is an
    # additive bijection of Z/m, and then bar is the table
    accepted = 0
    for table in itertools.product(range(-1, m + 1), repeat=m):
        if _additive_bijection(m, table):
            r = make_ring("residue", m, involution="table", table=table)
            assert [r.bar(a) for a in range(m)] == list(table)
            assert r.arr_bar(r.arr(list(range(m)), (m,))).ravel().tolist() == list(table)
            accepted += 1
        else:
            with pytest.raises(ValueError, match="^involution: "):
                make_ring("residue", m, involution="table", table=table)
    for n in (m - 1, m + 1):
        with pytest.raises(ValueError, match="^involution: "):
            make_ring("residue", m, involution="table", table=tuple(range(n)))
    # one accepted table per unit of Z/m
    assert accepted == sum(np.gcd(c, m) == 1 for c in range(m))


def test_a_ring_is_named_by_its_unit():
    z3n = make_ring("residue", 3, involution="negation")
    assert z3n.key == ("residue", 3, 1, 2)
    assert make_ring("residue", 3, involution="table", table=(0, 2, 1)).key == z3n.key
    assert make_ring("matrix", 3, 2, "transpose:negation").key == ("matrix", 3, 2, 2)
    z3 = make_ring("residue", 3)
    with pytest.raises(WorkbenchError, match="same ring"):
        make_hyperbolic(z3, 2, OddQuadraticSpace(z3n, ((0,),)))


def test_doubling_map_fails_involutivity():
    # additive bijection mod 5, but bar(bar(1)) = 4 != 1
    r = make_ring("residue", 5, involution="table", table=(0, 2, 4, 1, 3))
    rep = verify_pseudo_involution(r)
    assert not rep.ok
    assert [c.check for c in rep.failures()] == ["ring.bar_involutive"]


def test_a_wrong_stored_lam_inverse_fails_its_record():
    # every ring checks its unit c when it is built, so only a corrupted
    # stored inverse can fail the record
    for r, wrong in ((make_ring("residue", 5, involution="negation"), 1),
                     (make_ring("matrix", 2, 2, "transpose"), ((0, 1), (1, 0)))):
        r._lam_inv = wrong
        assert [(c.check, c.status, c.witness) for c in verify_pseudo_involution(r)] == [
            ("ring.lam_invertible", "fail", f"lam = {r.lam!r}, lam_inv = {wrong!r}")]


@pytest.mark.parametrize(
    "kind,modulus,degree,involution",
    [
        ("residue", 2, 1, "identity"),
        ("residue", 3, 1, "identity"),
        ("residue", 3, 1, "negation"),
        ("residue", 4, 1, "identity"),
        ("residue", 5, 1, "negation"),
        ("residue", 6, 1, "identity"),
        ("matrix", 2, 2, "transpose"),
        ("matrix", 2, 2, "transpose:negation"),
    ],
)
def test_shipped_presets_verify_exhaustively(kind, modulus, degree, involution):
    r = make_ring(kind, modulus, degree, involution)
    assert r.card <= 10**3  # exhaustive pair scans
    assert verify_pseudo_involution(r).ok
    assert verify_ring_axioms(r).ok


def test_matrix_ring_arithmetic(m2z2):
    a = ((1, 1), (0, 1))
    b = ((0, 1), (1, 0))
    assert m2z2.mul(a, b) == ((1, 1), (1, 0))
    assert m2z2.add(a, a) == m2z2.zero
    assert m2z2.inv(b) == b
    with pytest.raises(NotInvertible):
        m2z2.inv(((1, 1), (1, 1)))


def test_carrier_enumeration_sizes(m2z2):
    assert len(list(m2z2.elements())) == 16
    assert len(list(make_ring("residue", 7).elements())) == 7


ARRAY_RINGS = [
    ("residue", 5, 1, "identity"),
    ("residue", 5, 1, "negation"),
    ("residue", 5, 1, "table", (0, 2, 4, 1, 3)),  # multiplication by 2
    ("matrix", 2, 2, "transpose"),
    ("matrix", 3, 2, "transpose:negation"),
    ("matrix", 3, 2, "transpose:table", (0, 2, 1)),
]


@pytest.mark.parametrize("args", ARRAY_RINGS, ids=lambda a: "-".join(map(str, a[:4])))
def test_array_forms_match_the_scalar_operations(args):
    r = make_ring(*args)
    elems = list(r.elements())
    n = len(elems)
    # a scalar's code is its position in elements()
    vals = r.codes_arr(np.arange(n))
    assert np.array_equal(vals, r.arr(elems, (n,)))
    assert r.arr_codes(vals).tolist() == list(range(n))
    assert [r.scalar(c) for c in range(n)] == elems
    # every pair at once
    a, b = np.repeat(vals, n, axis=0), np.tile(vals, (n, 1, 1))
    pairs = [(x, y) for x in elems for y in elems]
    for arr_op, op in ((r.arr_add, r.add), (r.arr_mul, r.mul)):
        assert np.array_equal(arr_op(a, b), r.arr([op(x, y) for x, y in pairs], (n * n,)))
    assert np.array_equal(r.arr_neg(vals), r.arr([r.neg(x) for x in elems], (n,)))
    assert np.array_equal(r.arr_bar(vals), r.arr([r.bar(x) for x in elems], (n,)))
    assert np.array_equal(r.arr_mul(r.arr(r.lam), r.arr(r.lam_inv), r.arr(r.one)),
                          r.arr(r.one))


@pytest.mark.parametrize("m, triples, seed", [(7, "343 triples", None),
                                              (101, "4096 triples", 3293)])
def test_ring_axiom_records_state_their_count_and_sample_seed(m, triples, seed):
    # every triple up to 100^3 triples, else 4096 draws with the seed stated
    rep = verify_ring_axioms(make_ring("residue", m), seed=3293)
    assert [(r.check, r.status, r.witness, r.seed) for r in rep] == [
        ("ring.mul_associative", "pass", triples, seed),
        ("ring.distributive", "pass", triples, seed),
        ("ring.identity", "pass", f"{m} elements", None),
    ]


def test_lmin_is_the_set_of_sums():
    # lmin, sorted codes, against the naive set {a + bar(a)}: on Z/m for
    # every unit c and m from 2 to 60, where lmin is the subgroup
    # gcd(1 + c, m) Z/m, and on M_2(Z/m) for every entry involution, m in {2, 3}
    rings = [make_ring(kind, m, degree, involution, tuple(a * c % m for a in range(m)))
             for kind, degree, ms, involution in (("residue", 1, range(2, 61), "table"),
                                                  ("matrix", 2, (2, 3), "transpose:table"))
             for m in ms for c in range(1, m) if math.gcd(c, m) == 1]
    assert len(rings) == sum(map(_units, range(2, 61))) + _units(2) + _units(3)
    for r in rings:
        naive = {r.add(a, r.bar(a)) for a in r.elements()}
        assert [r.scalar(c) for c in r.lmin.tolist()] == sorted(naive), r


def _units(m):
    return sum(1 for c in range(1, m) if math.gcd(c, m) == 1)
