import io
import math
from collections import deque

import numpy as np
import pytest

from oddunitary import (
    CapExceeded,
    ExplicitParameter,
    Mat,
    MaxParameter,
    MinParameter,
    OddQuadraticSpace,
    WorkbenchError,
    Xi,
    Xij,
    commutator_closure,
    enumerate_eu,
    eu_generators,
    equiv_mod_param,
    is_isometry,
    make_hyperbolic,
    make_ring,
    span_form_parameter,
    subgroup_closure,
    unitary_member,
)
from oddunitary.generators import generators
from oddunitary.hyperbolic import GroupClosure, dump_closure, gen_matrix
from oddunitary.matrices import mulmod_unpacked


def test_gram_n1_z5(z5):
    hs = make_hyperbolic(z5, 1)
    assert hs.gram == ((0, 1), (4, 0))


def test_gram_n3_z2_blocks(hs_z2_n3):
    g = hs_z2_n3.gram
    assert len(g) == 6
    for i in (1, 2, 3):
        ci, cmi = hs_z2_n3.col(i), hs_z2_n3.col(-i)
        assert g[ci][cmi] == 1 and g[cmi][ci] == 1  # -lam = 1 mod 2
    assert g[0][1] == 0 and g[0][2] == 0


def test_column_order(hs_z2_n3):
    assert [hs_z2_n3.col(i) for i in (1, 2, 3, -3, -2, -1)] == [0, 1, 2, 3, 4, 5]


def test_eps_examples(z5, z5n):
    hs = make_hyperbolic(z5, 2)
    assert hs.eps(2) == 1
    assert hs.eps(-2) == 4
    hsn = make_hyperbolic(z5n, 2)
    assert hsn.eps(1) == 4  # lam = -1, lam^-1 = 4
    with pytest.raises(ValueError):
        hs.eps(3)
    with pytest.raises(ValueError):
        hs.eps(0)


def test_transvection_ij_images(hs_z2_n3):
    t = hs_z2_n3.transvection_ij(1, 2, 1)
    e2 = hs_z2_n3.basis_vec(hs_z2_n3.col(2))
    em1 = hs_z2_n3.basis_vec(hs_z2_n3.col(-1))
    assert t.apply(e2) == tuple(
        a ^ b for a, b in zip(e2, hs_z2_n3.basis_vec(hs_z2_n3.col(1)))
    )
    assert t.apply(em1) == tuple(
        a ^ b for a, b in zip(em1, hs_z2_n3.basis_vec(hs_z2_n3.col(-2)))
    )
    # all other basis vectors fixed
    for i in (1, 3, -3, -2):
        v = hs_z2_n3.basis_vec(hs_z2_n3.col(i))
        assert t.apply(v) == v


def test_transvection_identity_and_inverse(hs_z3_n3, z3):
    hs = hs_z3_n3
    assert hs.transvection_ij(1, 2, 0) == hs.identity
    for a in z3.elements():
        t = hs.transvection_ij(2, -3, a)
        assert t * hs.transvection_ij(2, -3, z3.neg(a)) == hs.identity


def test_transvection_ij_rejects_bad_indices(hs_z2_n3):
    with pytest.raises(ValueError):
        hs_z2_n3.transvection_ij(1, 1, 1)
    with pytest.raises(ValueError):
        hs_z2_n3.transvection_ij(1, -1, 1)
    with pytest.raises(ValueError):
        hs_z2_n3.transvection_ij(4, 1, 1)


def test_transvection_i_trivial_argument(hs_z3_n3):
    hs = hs_z3_n3
    assert hs.transvection_i(1, hs.v0.heis_identity) == hs.identity


def test_transvection_i_z3_identity_ring(z3):
    # l0 = {(0,0), (0,1), (0,2)}; T_1(0,1) sends e_-1 to e_-1 + e_1
    hs = make_hyperbolic(z3, 3)
    assert len(hs.l0) == 3
    t = hs.transvection_i(1, ((), 1))
    em1 = hs.basis_vec(hs.col(-1))
    expected = list(em1)
    expected[hs.col(1)] = 1
    assert t.apply(em1) == tuple(expected)


def test_transvection_i_z2_only_identity(hs_z2_n3):
    # over Z/2 with V0 = 0 the parameter forces b = 0
    assert hs_z2_n3.l0 == (((), 0),)
    with pytest.raises(WorkbenchError):
        hs_z2_n3.transvection_i(1, ((), 1))


def _formula_image(hs, gen, w):
    """The image of w under gen's transvection, by the docstring formula of
    transvection_ij or transvection_i through the scalar form."""
    sp, r = hs.space, hs.ring
    form, eps = sp.form, hs.eps

    def e(i, s):  # e_i s
        return sp.vec_scale(hs.basis_vec(hs.col(i)), s)

    if isinstance(gen, Xij):
        i, j, a = gen.i, gen.j, gen.a
        terms = [e(-j, r.prod(eps(-j), r.bar(a), r.lam_inv, form(e(i, r.one), w))),
                 sp.vec_neg(e(i, r.prod(a, eps(j), form(e(-j, r.one), w))))]
    else:
        i, (u0, b) = gen.i, gen.xi
        u, bi = hs.embed_v0(u0), form(e(i, r.one), w)
        terms = [sp.vec_neg(e(i, r.mul(eps(i), form(u, w)))),
                 sp.vec_neg(e(i, r.prod(eps(i), b, eps(-i), bi))),
                 sp.vec_scale(u, r.mul(eps(-i), bi))]
    for term in terms:
        w = sp.vec_add(w, term)
    return w


@pytest.mark.parametrize("space", ["m2z3_negation", "z5_negation_v0"])
def test_transvections_match_their_formulas(space):
    if space == "m2z3_negation":
        hs = make_hyperbolic(make_ring("matrix", 3, 2, "transpose:negation"), 2)
    else:
        z5n = make_ring("residue", 5, involution="negation")
        hs = make_hyperbolic(z5n, 2, OddQuadraticSpace(z5n, ((1,),), MaxParameter()))
        assert any(any(u0) for u0, _ in hs.l0)  # some X_i carries a nonzero vector
    basis = [hs.basis_vec(c) for c in range(hs.dim)]
    count = 0
    for gen in generators(hs):
        t = gen_matrix(hs, gen)
        for w in basis:
            assert t.apply(w) == _formula_image(hs, gen, w), (gen, w)
        count += 1
    assert count == {"m2z3_negation": 660, "z5_negation_v0": 60}[space]


def test_is_isometry(hs_z2_n3, z5):
    assert is_isometry(hs_z2_n3, hs_z2_n3.identity)
    assert is_isometry(hs_z2_n3, hs_z2_n3.transvection_ij(1, 2, 1))
    plane = make_hyperbolic(z5, 1)
    bad = Mat.from_rows(z5, ((2, 0), (0, 1)))  # e1 -> 2 e1 scales the form
    assert not is_isometry(plane, bad)


def test_equiv_mod_param(hs_z2_n3):
    assert equiv_mod_param(hs_z2_n3, hs_z2_n3.identity, hs_z2_n3.identity)
    assert equiv_mod_param(
        hs_z2_n3, hs_z2_n3.transvection_ij(1, 2, 1), hs_z2_n3.identity
    )


def test_equiv_mod_param_fails_outside_parameter(z3):
    # with the minimal whole-space parameter only the identity is equivalent
    # to the identity, so any transvection gives a constructed witness
    hs = make_hyperbolic(z3, 3, parameter=MinParameter())
    t = hs.transvection_ij(1, 2, 1)
    assert not equiv_mod_param(hs, t, hs.identity)


def test_unitary_member(hs_z2_n3, hs_z3n_n3, hs_rich):
    for hs in (hs_z2_n3, hs_z3n_n3, hs_rich):
        assert unitary_member(hs, hs.identity)
        for gen, mat in eu_generators(hs):
            assert unitary_member(hs, mat), gen
    singular = Mat.from_rows(
        hs_z2_n3.ring, [[0] * 6 for _ in range(6)]
    )
    assert not unitary_member(hs_z2_n3, singular)
    # Z/4 with the identity involution at n = 1 has lmin = {0, 2}:
    # e_-1 -> e_-1 + e_1 is an isometry that only the parameter rejects
    z4 = make_ring("residue", 4, involution="identity")
    hs = make_hyperbolic(z4, 1)
    assert hs.space.lmin_scalars == frozenset({0, 2})
    for rows, member in (([[1, 1], [0, 1]], False), ([[1, 2], [0, 1]], True)):
        mat = Mat.from_rows(z4, rows)
        assert is_isometry(hs, mat)
        assert unitary_member(hs, mat) is member


def test_unitary_member_rejects_an_isometry_outside_the_parameter(hs_z2_n3):
    # x -> x + B(e_1, x) e_1 preserves B but not q: it sends e_-1 to
    # e_-1 + e_1, which has q = 1, so only the form parameter rejects it
    hs = hs_z2_n3
    rows = np.eye(hs.dim, dtype=np.int64)
    rows[hs.col(1)] += hs.gram[hs.col(1)]
    f = Mat.from_rows(hs.ring, rows)
    assert f.apply(hs.basis_vec(hs.col(-1))) == (1, 0, 0, 0, 0, 1)
    assert is_isometry(hs, f)
    assert not equiv_mod_param(hs, f, hs.identity)
    assert not unitary_member(hs, f)


def test_unitary_member_over_a_matrix_ring(m2z2):
    hs = make_hyperbolic(m2z2, 1)
    hmin = make_hyperbolic(m2z2, 1, parameter=MinParameter())
    assert hs.space.vector_count() == 256 and m2z2.modulus is None
    mats = [mat for _, mat in eu_generators(hs)]
    assert len(mats) == 2
    assert [unitary_member(hs, mat) for mat in mats] == [True, True]
    assert [unitary_member(hmin, mat) for mat in mats] == [False, False]


def test_spaces_share_the_rings_minimal_scalars(hs_rich):
    # {a + bar(a)} depends only on the ring, so it is listed once per ring
    hs = hs_rich
    assert hs.space.lmin_scalars is hs.v0.lmin_scalars is hs.ring.lmin_scalars
    assert hs.space.lmin_scalars == frozenset({0, 1, 2})


def test_enumerate_eu_no_generators_is_trivial(z2):
    hs = make_hyperbolic(z2, 1)
    assert eu_generators(hs) == []
    cl = enumerate_eu(hs)
    assert cl.order == 1
    assert commutator_closure(hs).order == 1


def test_enumerate_eu_regression_order(eu_z2_n3):
    cl = eu_z2_n3
    # regression baseline computed by this BFS oracle
    assert cl.order == 20160
    # closure is a group: closed under inverse and product (spot product)
    mats = list(cl.mats.values())
    for m in mats[:200]:
        assert m.inv().key() in cl.mats
    assert (mats[3] * mats[5]).key() in cl.mats


def test_enumerate_eu_cap(hs_z2_n3):
    with pytest.raises(CapExceeded):
        enumerate_eu(hs_z2_n3, cap=100)


def test_words_evaluate_to_their_elements(hs_z2_n3, eu_z2_n3):
    cl = eu_z2_n3
    count = 0
    for key, mat in cl.mats.items():
        word = cl.words[key]
        acc = hs_z2_n3.identity
        for gi in word:
            acc = acc * cl.gens[gi][1]
        assert acc == mat
        count += 1
        if count >= 300:
            break


def test_commutator_and_u1_closures(hs_z2_n3, eu_z2_n3):
    cl = eu_z2_n3
    cc = commutator_closure(hs_z2_n3)
    assert set(cc) == set(cl.keys())
    u1 = [
        m
        for g, m in eu_generators(hs_z2_n3)
        if g.i in (hs_z2_n3.n, -hs_z2_n3.n)
    ]
    assert set(subgroup_closure(hs_z2_n3, u1)) == set(cl.keys())


def test_constructed_spaces_have_antihermitian_gram(
    hs_z2_n3, hs_z3_n3, hs_z3n_n3, hs_rich
):
    from oddunitary import verify_antihermitian

    for hs in (hs_z2_n3, hs_z3_n3, hs_z3n_n3, hs_rich):
        r = hs.ring
        for i in range(hs.dim):
            for j in range(hs.dim):
                assert hs.gram[i][j] == r.neg(r.bar(hs.gram[j][i]))
    assert verify_antihermitian(hs_rich.space).ok


def test_equiv_batch_matches_reference(z3, z5n, m2z2, hs_rich):
    v0 = hs_rich.v0  # rank 2, so displacements have nonzero V0 parts
    spaces = {
        "z3": make_hyperbolic(z3, 1),
        "m2z2": make_hyperbolic(m2z2, 1),
        "m2z2_min": make_hyperbolic(m2z2, 1, parameter=MinParameter()),
        "m2z2_max": make_hyperbolic(m2z2, 1, parameter=MaxParameter()),
        "z3_v0": make_hyperbolic(z3, 1, v0),
        # only the zero V0 vector has a scalar set
        "z3_v0_min": make_hyperbolic(z3, 1, OddQuadraticSpace(z3, v0.gram, MinParameter())),
        # lam = -1, so the lam^-1 in the form counts
        "z5n_v0": make_hyperbolic(z5n, 1, OddQuadraticSpace(z5n, ((1,),), MaxParameter())),
    }
    for name, hs in spaces.items():
        sp, r = hs.space, hs.ring
        size = hs.dim * r.degree
        t, *gens = [mat for _, mat in eu_generators(hs)][:4]
        minus = Mat.from_arr(r, -np.eye(size, dtype=np.int64))  # an isometry
        other = Mat.from_arr(r, np.random.default_rng(3).integers(0, r.base_modulus, (size, size)))

        def reference(f, g):
            for v in sp.vectors():
                fv, gv = f.apply(v), g.apply(v)
                d = tuple(sp.ring.sub(x, y) for x, y in zip(fv, gv))
                disp = (d, sp.form(tuple(sp.ring.neg(x) for x in d), gv))
                if not sp.param_contains(disp):
                    return False
            return True

        verdicts = set()
        for f in (hs.identity, t, *gens, t * t, minus, other):
            for g in (hs.identity, t):
                verdicts.add(equiv_mod_param(hs, f, g))
                assert equiv_mod_param(hs, f, g) == reference(f, g), (name, f, g)
        # on Z/3 with V0 = 0 or maximal, smin is all of Z/3 and the hyperbolic
        # parameter is the whole Heisenberg group
        assert verdicts == ({True} if name in ("z3", "z3_v0") else {True, False}), name


def test_closure_elements_are_unitary_members(hs_z2_n3, eu_z2_n3):
    import random

    rng = random.Random(2)
    mats = list(eu_z2_n3.mats.values())
    assert hs_z2_n3.identity.key() in eu_z2_n3.mats
    for m in rng.sample(mats, 20):
        assert unitary_member(hs_z2_n3, m)


def test_dump_format(z2):
    hs = make_hyperbolic(z2, 1)
    cl = enumerate_eu(hs)
    buf = io.StringIO()
    dump_closure(cl, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 1
    word, entries = lines[0].split("\t")
    assert word == ""
    assert entries == "1 0 0 1"


def test_dump_roundtrip_nontrivial(z3):
    from oddunitary.generators import parse_word
    from oddunitary.steinberg import eval_word

    # at n = 1 over (Z/3, id) the one-index transvections generate SL_2(3)
    hs = make_hyperbolic(z3, 1)
    cl = enumerate_eu(hs)
    assert cl.order == 24
    buf = io.StringIO()
    dump_closure(cl, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 24
    for line in lines:
        tokens, entries = line.split("\t")
        vals = [int(v) for v in entries.split()]
        mat = Mat.from_rows(z3, (tuple(vals[:2]), tuple(vals[2:])))
        assert eval_word(hs, parse_word(tokens, hs)) == mat


def naive_closure(hs, gens):
    """Oracle: breadth first, one `Mat` product per (element, generator)."""
    ident = hs.identity
    mats, words = {ident.key(): ident}, {ident.key(): ()}
    queue = deque([ident])
    while queue:
        x = queue.popleft()
        for gi, (_, g) in enumerate(gens):
            y = x * g
            if y.key() not in mats:
                mats[y.key()] = y
                words[y.key()] = words[x.key()] + (gi,)
                queue.append(y)
    return mats, words


@pytest.mark.parametrize("ring_name,n,order", [
    ("z3", 1, 24),
    ("z3n", 2, 288),
    ("m2z2", 1, 6),
])
def test_engine_matches_naive_bfs(request, ring_name, n, order):
    hs = make_hyperbolic(request.getfixturevalue(ring_name), n)
    cl = enumerate_eu(hs)
    mats, words = naive_closure(hs, cl.gens)
    assert cl.order == len(mats) == len(cl.mats) == order
    assert list(cl) == list(cl.keys()) == list(mats)  # same discovery order
    assert dict(cl.words) == words
    assert dict(cl.mats) == mats
    assert sum(cl.layers) == order
    assert cl.layers == [sum(len(w) == d for w in words.values())
                         for d in range(len(cl.layers))]


def test_closure_layers(eu_z2_n3, z3n):
    assert eu_z2_n3.layers == [1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6]
    cl = enumerate_eu(make_hyperbolic(z3n, 2))
    assert cl.order == 288
    assert cl.layers == [1, 8, 32, 84, 121, 40, 2]


def test_sp4_z3_order(z3):
    # identity involution, hyperbolic parameter: EU(4, Z/3) = Sp_4(3)
    assert enumerate_eu(make_hyperbolic(z3, 2)).order == 3**4 * (3**2 - 1) * (3**4 - 1)


def test_closure_cap_boundary(z3n, hs_rich):
    narrow = make_hyperbolic(z3n, 2)
    # rows of 64 entries mod 3: codes of two uint64 words, as void keys
    wide = [(g, gen_matrix(hs_rich, g)) for g in (Xij(1, 2, 1), Xij(2, 1, 1))]
    for hs, gens in ((narrow, eu_generators(narrow)), (hs_rich, wide)):
        closures = {
            "enumerate_eu": lambda cap: enumerate_eu(hs, cap, gens),
            "subgroup_closure": lambda cap: subgroup_closure(hs, [m for _, m in gens], cap),
            "commutator_closure": lambda cap: commutator_closure(hs, gens, cap),
        }
        for name, close in closures.items():
            order = close(10**6).order
            assert close(order).order == order, name
            with pytest.raises(CapExceeded, match=f"exceeded cap {order - 1}$"):
                close(order - 1)
    assert enumerate_eu(narrow, 288).order == 288
    assert enumerate_eu(hs_rich, 24, wide).order == 24  # SL_2(3)


def test_gen_matrix_is_cached_per_space(z3, hs_rich):
    hs = make_hyperbolic(z3, 2)
    g = Xij(1, -2, 2)
    assert gen_matrix(hs, g) is gen_matrix(hs, g)
    assert gen_matrix(hs, g) == hs.transvection_ij(1, -2, 2)
    xi = next(x for x in hs_rich.l0 if any(x[0]))
    assert gen_matrix(hs_rich, Xi(-2, xi)) == hs_rich.transvection_i(-2, xi)
    bad = Xi(1, ((), 7))
    for _ in range(2):
        with pytest.raises(WorkbenchError):
            gen_matrix(hs, bad)
    assert bad not in hs.gen_mats
    with pytest.raises(ValueError):
        gen_matrix(hs, Xij(1, -1, 1))


def test_engine_with_two_byte_entries():
    # m - 1 > 255: rows and keys packed in uint16
    hs = make_hyperbolic(make_ring("residue", 257), 1)
    gens = [(None, gen_matrix(hs, Xi(1, ((), 1)))), (None, gen_matrix(hs, Xi(1, ((), 5))))]
    cl = subgroup_closure(hs, [m for _, m in gens])
    mats, words = naive_closure(hs, gens[:1])
    assert cl.mats[next(iter(cl))].arr.dtype == np.uint16
    assert cl.order == 257
    assert len(cl.gens) == 1  # the second generator is already inside
    assert dict(cl.mats) == mats
    assert dict(cl.words) == words


def _assert_words_hold_the_digits(cl, m, d):
    """The all-(m-1) matrix codes to words w with w + 1 a power of the prime
    m and with m^(d^2) as their product: every word holds whole digits and
    none wraps around 2^64."""
    top = cl._code(np.full((1, d, 1, d), m - 1))
    spans = [int(w) + 1 for w in np.frombuffer(top.tobytes(), dtype=np.uint64)]
    assert math.prod(spans) == m ** (d * d)
    assert all(m ** (d * d) % v == 0 for v in spans)


@pytest.mark.parametrize("space,words", [("hs_z2_n4", 1), ("hs_rich", 2)])
def test_engine_on_both_code_widths(request, space, words):
    # d = 8: over Z/2 the codes use all 64 bits of one uint64 (the identity's
    # first digit is the top bit); over Z/3 (the z3_sympl_v0 preset) 3^64 > 2^64,
    # so the codes are two words, sorted as void keys
    hs = request.getfixturevalue(space)
    gens = [(None, gen_matrix(hs, g)) for g in (Xij(1, 2, 1), Xij(2, 1, 1), Xij(2, 3, 1))]
    cl = enumerate_eu(hs, gens=gens)
    mats, words_ = naive_closure(hs, gens)
    assert set(subgroup_closure(hs, [m for _, m in gens])) == set(mats)
    # the stabilizer of <e1, e2> in SL_3(q): SL_2(q) and q^2 translations
    assert cl.order == len(mats) == (24 if words == 1 else 216)
    assert list(cl) == list(mats)  # same discovery order
    assert dict(cl.words) == words_
    assert dict(cl.mats) == mats
    assert cl._codes.itemsize == 8 * words
    if words == 1:
        assert cl._codes.dtype == np.uint64 and int(cl._codes.max()) >= 2**63
    _assert_words_hold_the_digits(cl, hs.ring.modulus, 8)
    # keys that are not rows of the closure
    assert hs.identity.key() in cl and hs.transvection_ij(3, 1, 1).key() not in cl
    assert b"" not in cl and bytes(65) not in cl and bytes(64) not in cl
    row = np.frombuffer(hs.identity.key(), dtype=np.uint8).copy()
    row[0], row[1] = 0, hs.ring.modulus  # the identity's code, from digits out of range
    assert row.tobytes() not in cl


def test_engine_with_rows_coded_in_segments():
    # 419^6 > 2^52: each matrix row is coded as two float64-exact segments,
    # and the 36 digits take six uint64 words, one matrix row each
    hs = make_hyperbolic(make_ring("residue", 419), 3)
    gens = [(None, gen_matrix(hs, Xij(1, 2, 1)))]
    cl = enumerate_eu(hs, gens=gens)
    mats, words = naive_closure(hs, gens)
    assert cl.order == 419 and list(cl) == list(mats)
    assert dict(cl.mats) == mats and dict(cl.words) == words
    assert cl._codes.itemsize == 6 * 8 and len(cl._plan[0][0]) == 2
    _assert_words_hold_the_digits(cl, 419, 6)


_A, _B = ((0, 1), (1, 1)), ((1, 0), (0, 0))  # M_2(Z/2) arguments
# per space: sparse generators, with the identity (None) among them; the five
# transvection factors of a denser generator; generators whose supports
# include V0 columns, or none
_ENGINE_CASES = {
    "z2_n4": ([Xij(1, 2, 1), None, Xij(2, 1, 1), Xij(2, 3, 1)],
              [Xij(1, 2, 1), Xij(2, -3, 1), Xij(-3, 4, 1), Xij(4, -1, 1), Xij(-2, 1, 1)], []),
    "rich": ([Xij(1, 2, 1), None, Xij(2, 1, 1), Xij(2, 3, 1)],
             [Xij(1, 2, 1), Xij(2, -3, 2), Xij(-3, 1, 1), Xi(2, ((0, 1), 0)), Xij(-1, -2, 1)],
             [Xi(1, ((1, 1), 0)), Xi(-1, ((1, 1), 0))]),
    "z419_n3": ([None, Xij(1, 2, 1)],
                [Xij(1, 2, 1), Xij(2, 3, 5), Xij(1, -2, 7), Xij(2, -3, 1), Xij(3, -1, 2)], []),
    "z257_n1": ([Xi(1, ((), 1)), None],
                [Xi(1, ((), 1)), Xi(-1, ((), 1)), Xi(1, ((), 2)), Xi(-1, ((), 3)), Xi(1, ((), 5))], []),
    "m2z2_n2": ([Xij(1, 2, _A), None, Xij(2, 1, _A)],
                [Xij(1, 2, _A), Xij(1, -2, _B), Xij(2, -1, _A), Xij(-2, 1, _B), Xij(-1, 2, _A)], []),
}


@pytest.fixture(scope="module")
def engine_spaces(hs_z2_n4, hs_rich, m2z2):
    return {"z2_n4": hs_z2_n4, "rich": hs_rich,
            "z419_n3": make_hyperbolic(make_ring("residue", 419), 3),
            "z257_n1": make_hyperbolic(make_ring("residue", 257), 1),
            "m2z2_n2": make_hyperbolic(m2z2, 2)}


@pytest.mark.parametrize("space", list(_ENGINE_CASES))
def test_codes_from_the_parents_match_full_products(monkeypatch, engine_spaces, space):
    # Z/2 at d = 8 fills one uint64, hs_rich takes two words, Z/419 two
    # segments per row, Z/257 uint16 rows, M_2(Z/2) rows of 2 x 2 blocks
    hs = engine_spaces[space]
    sparse, factors, v0_gens = _ENGINE_CASES[space]
    kept, keep = [], GroupClosure._keep

    def spy(self, codes, start, first, gens):
        kept.append((self, codes.tobytes(), start, gens))
        keep(self, codes, start, first, gens)

    monkeypatch.setattr(GroupClosure, "_keep", spy)
    dense = math.prod((gen_matrix(hs, g) for g in factors[1:]), start=gen_matrix(hs, factors[0]))
    assert (dense.arr != hs.identity.arr).any(axis=0).sum() >= hs.identity.arr.shape[0] - 2
    cases = [[hs.identity if g is None else gen_matrix(hs, g) for g in sparse], [dense]]
    if v0_gens:
        v0_cols = slice(2 * hs.n * hs.ring.degree, None)
        assert all((gen_matrix(hs, g).arr != hs.identity.arr)[:, v0_cols].any() for g in v0_gens)
        cases.append([gen_matrix(hs, g) for g in v0_gens])
    for mats in cases:
        cl = enumerate_eu(hs, gens=[(None, m) for m in mats])
        expect, words = naive_closure(hs, cl.gens)
        assert list(cl) == list(expect) and dict(cl.words) == words
    # every stream of codes handed to `_keep` is `_code` of the full products
    for cl, codes, start, gens in kept:
        n, d = len(codes) // (cl._codes.itemsize * len(gens)), cl._d
        full = mulmod_unpacked(hs.ring, cl._rows[start:start + n].reshape(-1, d), np.hstack(gens))
        assert codes == cl._code(full.reshape(n, d, len(gens), d)).tobytes()
    assert len({id(cl) for cl, *_ in kept}) == len(cases)


def test_commutator_seeds_keep_their_first_order(z3n):
    hs = make_hyperbolic(z3n, 2)
    pairs = [(m, m.inv()) for _, m in eu_generators(hs)]
    seeds = {}
    for a, ai in pairs:
        for b, bi in pairs:
            c = a * b * ai * bi
            seeds.setdefault(c.key(), c)
    cl = commutator_closure(hs)
    expect = subgroup_closure(hs, seeds.values())
    assert [m for _, m in cl.gens] == [m for _, m in expect.gens]
    assert list(cl) == list(expect) and dict(cl.words) == dict(expect.words)


@pytest.mark.slow
def test_eu6_z3_negation_closure(z3n):
    # Omega+_6(3): about 65 s and 850 MB, so deselected unless `pytest -m slow`
    cl = enumerate_eu(make_hyperbolic(z3n, 3), cap=7_000_000)
    assert cl.order == 3**6 * (3**2 - 1) * (3**3 - 1) * (3**4 - 1) // 2 == 6_065_280
    assert cl.layers == [1, 24, 384, 4636, 43659, 309784, 1518622, 3246412, 931936, 9756, 66]


def _naive_v0_sets(hs):
    """Every V0 parameter scalar plus every lmin scalar, per V0 vector."""
    r, smin = hs.ring, hs.space.parameter.smin
    sets = {}
    for u0, a0 in hs.v0.param_elements():
        sets.setdefault(u0, set()).update(r.add(a0, s) for s in smin)
    return sets


def _symplectic(ring, parameter):
    return OddQuadraticSpace(
        ring, ((ring.zero, ring.one), (ring.neg(ring.lam), ring.zero)), parameter)


def test_v0_scalar_sets_match_naive_sums(hs_rich):
    z4 = make_ring("residue", 4)  # lmin = {0, 2}: a proper subgroup
    m2z2 = make_ring("matrix", 2, 2, "transpose")
    spaces = [hs_rich] + [
        make_hyperbolic(r, 1, _symplectic(r, p))
        for r in (z4, m2z2) for p in (MinParameter(), MaxParameter())
    ]
    for hs in spaces:
        sets = hs.space.parameter.v0_scalar_sets
        assert sets == _naive_v0_sets(hs)
        assert hs.l0 == tuple(sorted((u0, t) for u0, ts in sets.items() for t in ts))


def test_v0_scalar_sets_on_a_large_modulus():
    # the V0 parameter scalars and lmin are both all of Z/2053 here
    hs = make_hyperbolic(make_ring("residue", 2053), 1)
    assert len(hs.l0) == 2053


def _displacement_columns(hs, f, vectors):
    """(disp, scal) of f against the identity on each vector, as in
    equiv_mod_param, as the stacks (N, dim, k, k) and (N, k, k) of `Ring.arr`."""
    sp, r = hs.space, hs.ring
    disp, scal = [], []
    for v in vectors:
        d = tuple(r.sub(x, y) for x, y in zip(f.apply(v), v))
        disp.append(d)
        scal.append(sp.form(tuple(r.neg(x) for x in d), v))
    return r.arr(disp, (len(vectors), hs.dim)), r.arr(scal, (len(vectors),))


@pytest.mark.parametrize("space", ["rich", "z3n", "z4", "v0_min"])
def test_contains_batch_matches_contains(request, space):
    z3 = make_ring("residue", 3)
    hs = {
        "rich": lambda: request.getfixturevalue("hs_rich"),
        "z3n": lambda: request.getfixturevalue("hs_z3n_n3"),
        "z4": lambda: make_hyperbolic(make_ring("residue", 4), 2),
        # only the zero V0 vector has a scalar set
        "v0_min": lambda: make_hyperbolic(
            z3, 2, OddQuadraticSpace(z3, ((0, 1), (2, 0)), MinParameter())),
    }[space]()
    sp, m = hs.space, hs.ring.modulus
    rng = np.random.default_rng(17)
    vectors = [tuple(v) for v in rng.integers(0, m, (60, hs.dim)).tolist()]
    columns = [_displacement_columns(hs, mat, vectors)
               for _, mat in eu_generators(hs)[::7]]
    # random columns: mostly outside every parameter
    columns.append((rng.integers(0, m, (hs.dim, 300)).T.reshape(300, hs.dim, 1, 1),
                    rng.integers(0, m, (300, 1, 1))))
    disp = np.concatenate([d for d, _ in columns])
    scal = np.concatenate([s for _, s in columns])
    # explicit parameters: a spanned one, {(e_1 b, s) : s in lmin}, and the
    # maximal one less one element, as in the broken set of test_forms.py
    e1 = (1,) + (0,) * (hs.dim - 1)
    full = MaxParameter().elements(sp)
    explicit = (span_form_parameter(sp, [(e1, 0)]), ExplicitParameter(full - {sorted(full)[1]}))
    for param in (sp.parameter, MinParameter(), MaxParameter(), *explicit):
        expected = [param.contains(sp, (tuple(d), t))
                    for d, t in zip(disp[..., 0, 0].tolist(), scal[:, 0, 0].tolist())]
        got = param.contains_batch(sp, disp, scal)
        assert got.dtype == bool and got.tolist() == expected, param.kind
        assert any(expected), param.kind
    # on the rich preset the hyperbolic parameter is the whole Heisenberg
    # group (smin is all of Z/3 and the V0 part is maximal); elsewhere the
    # random columns include non-members
    members = sp.parameter.contains_batch(sp, disp, scal)
    assert members.all() == (space == "rich")
    # a transvection is not equivalent to the identity under the minimal
    # parameter: some of its displacements are non-members
    t = hs.transvection_ij(1, 2, 1)
    d, s = _displacement_columns(hs, t, vectors)
    assert not MinParameter().contains_batch(sp, d, s).all()
    assert sp.parameter.contains_batch(sp, d, s).all()
    if space == "v0_min":
        # a displacement along V0 has no scalar set, whatever the scalar
        along_v0 = np.zeros((m, hs.dim, 1, 1), dtype=np.int64)
        along_v0[:, -1] = 1
        assert not sp.parameter.contains_batch(sp, along_v0, hs.ring.arr(range(m), (m,))).any()
        assert not any(sp.parameter.contains(sp, (tuple(along_v0[0, :, 0, 0]), a))
                       for a in range(m))


def test_contains_batch_over_a_matrix_ring(m2z2):
    v0 = OddQuadraticSpace(m2z2, ((((0, 1), (1, 0)),),), MaxParameter())
    hs = make_hyperbolic(m2z2, 1, v0)
    sp, r = hs.space, hs.ring
    rng = np.random.default_rng(17)
    vectors = [tuple(map(r.scalar, v)) for v in rng.integers(0, r.card, (60, hs.dim)).tolist()]
    columns = [_displacement_columns(hs, mat, vectors) for _, mat in eu_generators(hs)[::5]]
    columns.append((r.codes_arr(rng.integers(0, r.card, (300, hs.dim))),
                    r.codes_arr(rng.integers(0, r.card, 300))))
    disp = np.concatenate([d for d, _ in columns])
    scal = np.concatenate([s for _, s in columns])
    spanned = span_form_parameter(sp, [((r.one,) + (r.zero,) * (hs.dim - 1), r.zero)])
    for param in (sp.parameter, MinParameter(), MaxParameter(), spanned):
        expected = [param.contains(sp, (tuple(map(r.scalar, d)), r.scalar(t)))
                    for d, t in zip(r.arr_codes(disp).tolist(), r.arr_codes(scal).tolist())]
        assert param.contains_batch(sp, disp, scal).tolist() == expected, param.kind
        assert any(expected) and not all(expected), param.kind


@pytest.mark.parametrize("block", [100, 2048])
def test_equivalence_blocks_keep_the_verdicts(monkeypatch, hs_rich, z3, block):
    from oddunitary import hyperbolic

    monkeypatch.setattr(hyperbolic, "VECTORS", block)
    assert hyperbolic.VECTORS == block
    for _, mat in eu_generators(hs_rich)[::25]:
        assert unitary_member(hs_rich, mat)
    # under the minimal parameter a transvection is not equivalent to the
    # identity; its displacement is nonzero only on some blocks of vectors
    hs = make_hyperbolic(z3, 3, parameter=MinParameter())
    assert not equiv_mod_param(hs, hs.transvection_ij(-3, -2, 1), hs.identity)
