import itertools
import random

import numpy as np
import pytest

from oddunitary import (
    CapExceeded,
    ExplicitParameter,
    MaxParameter,
    MinParameter,
    OddQuadraticSpace,
    WorkbenchError,
    make_hyperbolic,
    make_ring,
    span_form_parameter,
    verify_antihermitian,
    verify_form_parameter,
    zero_space,
)

from conftest import act, elements, vectors


def hyperbolic_plane(ring):
    return OddQuadraticSpace(ring, ((ring.zero, ring.one), (ring.neg(ring.lam), ring.zero)))


def test_form_eval_hyperbolic_plane(z5):
    sp = hyperbolic_plane(z5)
    e1, em1 = (1, 0), (0, 1)
    assert sp.form(e1, em1) == 1
    assert sp.form(em1, e1) == 4  # -bar(1) mod 5
    assert sp.form((0, 0), em1) == 0


def test_form_eval_dimension_mismatch(z5):
    sp = hyperbolic_plane(z5)
    with pytest.raises(ValueError):
        sp.form((1, 0, 0), (0, 1))


def test_verify_antihermitian(z5):
    assert verify_antihermitian(hyperbolic_plane(z5)).ok
    assert verify_antihermitian(OddQuadraticSpace(z5, ((0, 0), (0, 0)))).ok
    bad = verify_antihermitian(OddQuadraticSpace(z5, ((0, 1), (1, 0))))
    assert not bad.ok
    assert bad.failures()[0].check == "space.gram_antihermitian"


def test_heis_add_examples(z5):
    sp = hyperbolic_plane(z5)
    assert sp.heis_add(((0, 0), 2), ((0, 0), 1)) == ((0, 0), 3)
    assert sp.heis_add(((1, 0), 0), ((0, 1), 0)) == ((1, 1), 1)
    xi = ((2, 3), 4)
    assert sp.heis_add(xi, sp.heis_neg(xi)) == sp.heis_identity


def test_heis_neg_examples(z5):
    sp = hyperbolic_plane(z5)
    assert sp.heis_neg(((0, 0), 3)) == ((0, 0), 2)
    assert sp.heis_neg(((1, 0), 2)) == ((4, 0), 3)


def test_heis_neg_is_inverse_exhaustively(z3):
    sp = hyperbolic_plane(z3)
    for xi in itertools.product(vectors(sp), sp.ring.elements()):
        assert sp.heis_add(xi, sp.heis_neg(xi)) == sp.heis_identity
        assert sp.heis_add(sp.heis_neg(xi), xi) == sp.heis_identity


def test_heis_act_examples(z5):
    sp = hyperbolic_plane(z5)
    xi = ((1, 0), 1)
    assert act(sp, xi, 1) == xi
    assert act(sp, xi, 2) == ((2, 0), 4)
    assert act(sp, xi, 0) == sp.heis_identity


def test_heis_associativity_small_scan(z2, z3):
    for ring in (z2, z3):
        sp = hyperbolic_plane(ring)
        elems = list(itertools.product(vectors(sp), sp.ring.elements()))
        for xi, zeta, eta in itertools.product(elems, repeat=3):
            lhs = sp.heis_add(sp.heis_add(xi, zeta), eta)
            rhs = sp.heis_add(xi, sp.heis_add(zeta, eta))
            assert lhs == rhs


def test_action_axioms_small_scan(z3n):
    # the array action on every element, and on every pair of elements
    sp = hyperbolic_plane(z3n)
    xi = sp.heis_arr(np.arange(sp.heis_span()))
    i, j = np.divmod(np.arange(len(xi[1]) ** 2), len(xi[1]))
    x, z = (tuple(c[k] for c in xi) for k in (i, j))

    def act_all(x, a):
        return sp.heis_act_arr(x, z3n.arr([a] * len(x[1]), (len(x[1]),)))

    for a in z3n.elements():
        for b in z3n.elements():
            assert (sp.heis_codes(act_all(act_all(xi, a), b))
                    == sp.heis_codes(act_all(xi, z3n.mul(a, b)))).all()
        assert (sp.heis_codes(act_all(sp.heis_add_arr(x, z), a))
                == sp.heis_codes(sp.heis_add_arr(act_all(x, a), act_all(z, a)))).all()


def test_lmin_lmax_examples(z5, z2):
    sp5 = hyperbolic_plane(z5)  # under the minimal parameter
    assert sp5.param_contains(((0, 0), 4))  # 4 = 2 + bar(2)
    z4 = make_ring("residue", 4, involution="identity")
    sp4 = hyperbolic_plane(z4)
    assert sp4.ring.lmin.tolist() == [0, 2]
    assert not sp4.param_contains(((0, 0), 1))
    sp2 = OddQuadraticSpace(z2, hyperbolic_plane(z2).gram, MaxParameter())
    assert sp2.param_contains(((1, 0), 0))


def test_min_max_are_parameters(z3):
    sp = hyperbolic_plane(z3)
    for param in (MinParameter(), MaxParameter()):
        sp2 = OddQuadraticSpace(z3, sp.gram, param)
        assert verify_form_parameter(sp2).ok


def test_span_rank0_examples(z5, z2):
    sp = zero_space(z5)
    param = span_form_parameter(sp, [])
    assert elements(sp, param.elements(sp)) == frozenset(((), c) for c in range(5))
    sp2 = zero_space(z2)
    assert elements(sp2, span_form_parameter(sp2, []).elements(sp2)) == frozenset({((), 0)})


def test_span_with_seed_contains_action_orbit(z2):
    sp = hyperbolic_plane(z2)
    seed = ((1, 0), 0)
    param = span_form_parameter(sp, [seed])
    elems = elements(sp, param.elements(sp))
    for b in z2.elements():
        assert act(sp, seed, b) in elems
    sp_spanned = OddQuadraticSpace(z2, sp.gram, param)
    assert verify_form_parameter(sp_spanned).ok


def test_span_rejects_seed_outside_max(z3n):
    # over (Z/3, neg), lmax forces 2a = B(u, u); (0, 1) violates it
    sp = hyperbolic_plane(z3n)
    with pytest.raises(WorkbenchError):
        span_form_parameter(sp, [((0, 0), 1)])


def test_span_cap(z5):
    sp = hyperbolic_plane(z5)
    with pytest.raises(CapExceeded):
        span_form_parameter(sp, [((1, 0), 0)], cap=3)


def test_verify_form_parameter_detects_broken_set(z3):
    sp = hyperbolic_plane(z3)
    full = MaxParameter().elements(sp)
    assert verify_form_parameter(OddQuadraticSpace(z3, sp.gram, ExplicitParameter(full))).ok
    broken = np.delete(full, 1)  # less ((0, 0), 1), the second in sorted order
    assert sp.heis_element(full[1]) == ((0, 0), 1)
    rep = verify_form_parameter(
        OddQuadraticSpace(z3, sp.gram, ExplicitParameter(broken))
    )
    assert not rep.ok
    # each sweep runs in code order, so names the first failure in that order
    assert [(c.check, c.witness) for c in rep.failures()] == [
        ("param.contains_min", "(0, 1)"),
        ("param.closed_under_neg", "((0, 0), 2)"),
        ("param.closed_under_add", "(((0, 0), 2), ((0, 0), 2))")]


def test_hyperbolic_plane_parameter_z2(z2):
    # {(e1 a + e-1 b, ab)} since c + bar(c) = 0 in characteristic 2
    sp = make_hyperbolic(z2, 1)
    expected = frozenset(
        ((a, b), (a * b) % 2) for a in range(2) for b in range(2)
    )
    assert elements(sp, sp.parameter.elements(sp)) == expected


def test_form_arr_matches_form(z3n, m2z2):
    m3t = make_ring("matrix", 3, 2, "transpose:negation")
    rng = random.Random(5)

    def rand_gram(ring, rank):
        elems = list(ring.elements())
        return tuple(tuple(rng.choice(elems) for _ in range(rank)) for _ in range(rank))

    # Gram matrices need not be anti-Hermitian for the form itself
    spaces = [OddQuadraticSpace(z3n, rand_gram(z3n, 3)),
              OddQuadraticSpace(m2z2, rand_gram(m2z2, 2)),
              OddQuadraticSpace(m3t, rand_gram(m3t, 2)),
              zero_space(m3t)]
    for sp in spaces:
        r, elems = sp.ring, list(sp.ring.elements())
        us, vs = ([tuple(rng.choice(elems) for _ in range(sp.rank)) for _ in range(60)]
                  for _ in range(2))
        got = sp.form_arr(r.arr(us, (60, sp.rank)), r.arr(vs, (60, sp.rank)))
        assert np.array_equal(got, r.arr([sp.form(u, v) for u, v in zip(us, vs)], (60,)))
