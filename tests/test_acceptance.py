"""Acceptance suite: one test per criterion, timed against its stated budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import random
import time
from contextlib import contextmanager

import numpy as np

from oddunitary import (
    MaxParameter,
    OddQuadraticSpace,
    build_section,
    check_dagger,
    commutator_closure,
    enumerate_eu,
    eu_generators,
    make_hyperbolic,
    make_ring,
    product_extension,
    subgroup_closure,
    verify_form_parameter,
    verify_pseudo_involution,
    verify_relations,
    verify_section,
)
from oddunitary.extensions import chooser_agreement, mutate_section, section_entry
from oddunitary.freewords import verify_identities
from oddunitary.generators import Xi, Xij
from oddunitary.steinberg import (
    eval_word,
    normal_form_word,
    u1_alphabet,
    u1_decompose,
)

from conftest import act, u1_uniqueness_check, vectors

SEED = 3293
EU6_Z2_ORDER = 20160  # regression baseline computed by the BFS oracle


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{label}]: FAIL "
              f"({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    over = budget is not None and elapsed > budget
    shown = f"{elapsed:.2f}s" + (f" / budget {budget:g}s" if budget else "")
    print(f"ACCEPTANCE {num} [{label}]: {'FAIL (over budget)' if over else 'PASS'} ({shown})")
    assert not over, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_pseudo_involution_suite():
    presets = [
        ("residue", 2, 1, "identity"),
        ("residue", 3, 1, "identity"),
        ("residue", 3, 1, "negation"),
        ("residue", 5, 1, "negation"),
        ("matrix", 2, 2, "transpose"),
    ]
    with criterion(1, "pseudo-involution axioms", budget=1.0):
        for kind, m, k, inv in presets:
            ring = make_ring(kind, m, k, inv)
            assert ring.card <= 10**3  # pair scans run exhaustively
            rep = verify_pseudo_involution(ring, SEED)
            assert rep.ok, (kind, m, inv, rep.to_json_lines())


def _assoc_exhaustive(space):
    """B(u,v) + B(u+v,w) = B(v,w) + B(u,v+w) over every vector triple.

    The scalar components of Heisenberg elements cancel from both sides of
    associativity (ring addition is commutative, checked in criterion 1), so
    this identity over all of V^3 is exhaustive associativity over the whole
    Heisenberg group.
    """
    vecs = list(vectors(space))
    idx = {v: i for i, v in enumerate(vecs)}
    m = space.ring.modulus
    n = len(vecs)
    form = np.array(
        [[space.form(u, v) for v in vecs] for u in vecs], dtype=np.int64
    )
    add = np.array(
        [[idx[space.vec_add(u, v)] for v in vecs] for u in vecs], dtype=np.int64
    )
    for ui in range(n):
        lhs = (form[ui, :, None] + form[add[ui, :], :]) % m
        rhs = (form + form[ui, add]) % m
        if not (lhs == rhs).all():
            return False
    return True


def test_criterion_2_heisenberg_form_parameter_suite():
    rings = [
        make_ring("residue", 2, involution="identity"),
        make_ring("residue", 3, involution="identity"),
        make_ring("residue", 3, involution="negation"),
    ]
    with criterion(2, "Heisenberg and form parameters, rank <= 4", budget=10.0):
        for ring in rings:
            for n in (1, 2):
                sp = make_hyperbolic(ring, n)
                assert _assoc_exhaustive(sp)

                elems = list(itertools.product(vectors(sp), sp.ring.elements()))
                for xi in elems:
                    neg = sp.heis_neg(xi)
                    assert sp.heis_add(xi, neg) == sp.heis_identity
                    assert sp.heis_add(neg, xi) == sp.heis_identity

                vals = list(ring.elements())
                for xi in elems:
                    for a in vals:
                        for b in vals:
                            assert act(sp, act(sp, xi, a), b) == act(sp, xi, ring.mul(a, b))

                # distributivity of the action over the sum reduces to
                # bar(a) lam^-1 B(u,v) a = B(ua, va); scan it over V^2 x R,
                # then spot the unreduced law directly on the smaller space
                for u in vectors(sp):
                    for v in vectors(sp):
                        buv = sp.form(u, v)
                        for a in vals:
                            lhs = ring.prod(ring.bar(a), ring.lam_inv, buv, a)
                            assert lhs == sp.form(tuple(ring.mul(x, a) for x in u),
                                                  tuple(ring.mul(x, a) for x in v))
                if n == 1:
                    for xi in elems:
                        for zeta in elems:
                            for a in vals:
                                assert act(sp, sp.heis_add(xi, zeta), a) == \
                                    sp.heis_add(act(sp, xi, a), act(sp, zeta, a))

                # parameter chain and action stability, exhaustively
                rep = verify_form_parameter(sp)
                assert rep.ok, rep.to_json_lines()


def test_criterion_3_relations_hold_for_transvections():
    with criterion(3, "relations under matrix evaluation", budget=300.0):
        for m, inv in ((2, "identity"), (3, "negation")):
            ring = make_ring("residue", m, involution=inv)
            rep = verify_relations(make_hyperbolic(ring, 3))
            assert rep.ok, rep.to_json_lines()
            for n in (4, 5):
                rep = verify_relations(
                    make_hyperbolic(ring, n),
                    strategy="sampled", seed=SEED, samples=256,
                )
                assert rep.ok, rep.to_json_lines()


def test_criterion_4_u1_normal_form():
    with criterion(4, "U1 normal form", budget=300.0):
        ring = make_ring("residue", 2, involution="identity")
        hs = make_hyperbolic(ring, 3)
        alpha = u1_alphabet(hs)
        words = [()]
        for length in (1, 2, 3):
            words.extend(
                tuple((g, 1) for g in combo)
                for combo in itertools.product(alpha, repeat=length)
            )
        by_eval, by_nf = {}, {}
        for w in words:
            by_eval.setdefault(eval_word(hs, w).key(), []).append(w)
            by_nf.setdefault(u1_decompose(hs, w), []).append(w)
        # identical partitions == pairwise equivalence in both directions
        part_eval = {frozenset(map(tuple, v)) for v in by_eval.values()}
        part_nf = {frozenset(map(tuple, v)) for v in by_nf.values()}
        assert part_eval == part_nf
        # the op-level check agrees on a seeded sample of pairs
        rng = random.Random(SEED)
        for _ in range(500):
            w1, w2 = rng.choice(words), rng.choice(words)
            assert u1_uniqueness_check(hs, w1, w2)
        # evaluation is preserved on 10^4 seeded longer words
        for _ in range(10_000):
            w = tuple(
                (rng.choice(alpha), rng.choice((1, -1)))
                for _ in range(rng.randint(4, 12))
            )
            nf = u1_decompose(hs, w)
            assert eval_word(hs, normal_form_word(hs, nf)) == eval_word(hs, w)


def test_criterion_5_commutation_identities():
    with criterion(5, "free-group identities C1-C6", budget=1.0):
        rep = verify_identities(seed=SEED)
        assert rep.ok, rep.to_json_lines()


def test_criterion_6_perfectness_and_generation():
    with criterion(6, "perfectness and U1 generation of EU(6, Z/2)"):
        ring = make_ring("residue", 2, involution="identity")
        hs = make_hyperbolic(ring, 3)
        closure = enumerate_eu(hs)
        assert closure.order == EU6_Z2_ORDER
        cc = commutator_closure(hs)
        assert len(cc) == EU6_Z2_ORDER
        assert set(cc) == set(closure.keys())
        u1_gens = [
            mat for g, mat in eu_generators(hs) if g.i in (hs.n, -hs.n)
        ]
        sub = subgroup_closure(hs, u1_gens)
        assert set(sub) == set(closure.keys())


def test_criterion_7_main_lemma_pipeline():
    with criterion(7, "Main Lemma splitting pipeline", budget=600.0):
        ring = make_ring("residue", 2, involution="identity")
        hs = make_hyperbolic(ring, 4)
        z3 = make_ring("residue", 3, involution="identity")
        hs_v0 = make_hyperbolic(
            z3, 4, OddQuadraticSpace(z3, ((0, 1), (2, 0)), MaxParameter()))
        assert hs_v0.v0.heis_element(hs_v0.l0[0]) == hs_v0.v0.heis_identity
        for a_order in (2, 3):
            ext = product_extension(hs, a_order)
            ext_rand = product_extension(hs, a_order, chooser_seed=SEED)
            for e in (ext, ext_rand):
                rep = check_dagger(e)
                assert rep.ok, rep.to_json_lines()
            table = build_section(ext)
            table_rand = build_section(ext_rand)
            assert table == table_rand  # chooser independence

            # witness independence of the section elements
            for i, j in ((1, 2), (2, -3), (-4, 1)):
                admissible = [w for w in hs.omega if w not in (i, -i, j, -j)]
                assert len({
                    section_entry(ext_rand, Xij(i, j, 1), witness=w) for w in admissible
                }) == 1
            # one-index entries at nonzero arguments, which need Z/3; the
            # symplectic V0 gives them nonzero vector parts too
            ext_v0 = product_extension(hs_v0, a_order, chooser_seed=SEED)
            for k in (1, -2):
                admissible = [w for w in hs_v0.omega if w not in (k, -k)]
                for xi in map(hs_v0.v0.heis_element, hs_v0.l0[1:].tolist()):
                    assert len({
                        section_entry(ext_v0, Xi(k, xi), witness=w) for w in admissible
                    }) == 1

            rep = verify_section(ext, table)  # includes eps(sigma) = id
            assert rep.ok, rep.to_json_lines()

            deltas = (1,) if a_order == 2 else (1, 2)
            for g in table:
                for delta in deltas:
                    bad = mutate_section(ext, table, g, delta)
                    assert not verify_section(ext, bad, stop_on_fail=True).ok, \
                        (g, delta)


def test_criterion_8_steinberg_central_trick():
    with criterion(8, "central trick chooser agreement"):
        ring = make_ring("residue", 2, involution="identity")
        hs = make_hyperbolic(ring, 4)
        for a_order in (2, 3):
            rep = chooser_agreement(hs, a_order, seed=SEED)
            assert rep.ok, rep.to_json_lines()
