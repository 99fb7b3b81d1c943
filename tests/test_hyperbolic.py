import io
import itertools
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
from oddunitary import hyperbolic
from oddunitary.hyperbolic import GroupClosure, ProductParameter, dump_closure, gen_matrix

from conftest import apply, basis_vec, elements, vectors
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
    e2 = basis_vec(hs_z2_n3, hs_z2_n3.col(2))
    em1 = basis_vec(hs_z2_n3, hs_z2_n3.col(-1))
    assert apply(t, e2) == tuple(
        a ^ b for a, b in zip(e2, basis_vec(hs_z2_n3, hs_z2_n3.col(1)))
    )
    assert apply(t, em1) == tuple(
        a ^ b for a, b in zip(em1, basis_vec(hs_z2_n3, hs_z2_n3.col(-2)))
    )
    # all other basis vectors fixed
    for i in (1, 3, -3, -2):
        v = basis_vec(hs_z2_n3, hs_z2_n3.col(i))
        assert apply(t, v) == v


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
    em1 = basis_vec(hs, hs.col(-1))
    expected = list(em1)
    expected[hs.col(1)] = 1
    assert apply(t, em1) == tuple(expected)


def test_transvection_i_z2_only_identity(hs_z2_n3):
    # over Z/2 with V0 = 0 the parameter forces b = 0: l0 is the code of ((), 0)
    assert hs_z2_n3.l0.tolist() == [0]
    with pytest.raises(WorkbenchError):
        hs_z2_n3.transvection_i(1, ((), 1))


def _formula_image(hs, gen, w):
    """The image of w under gen's transvection, by the docstring formula of
    transvection_ij or transvection_i through the scalar form."""
    r = hs.ring
    form, eps = hs.form, hs.eps

    def scale(u, s):  # u s
        return tuple(r.mul(x, s) for x in u)

    def e(i, s):  # e_i s
        return scale(basis_vec(hs, hs.col(i)), s)

    if isinstance(gen, Xij):
        i, j, a = gen.i, gen.j, gen.a
        terms = [e(-j, r.prod(eps(-j), r.bar(a), r.lam_inv, form(e(i, r.one), w))),
                 hs.vec_neg(e(i, r.prod(a, eps(j), form(e(-j, r.one), w))))]
    else:
        i, (u0, b) = gen.i, gen.xi
        u, bi = hs.zero_vec[:2 * hs.n] + u0, form(e(i, r.one), w)
        terms = [hs.vec_neg(e(i, r.mul(eps(i), form(u, w)))),
                 hs.vec_neg(e(i, r.prod(eps(i), b, eps(-i), bi))),
                 scale(u, r.mul(eps(-i), bi))]
    for term in terms:
        w = hs.vec_add(w, term)
    return w


@pytest.mark.parametrize("space", ["m2z3_negation", "z5_negation_v0"])
def test_transvections_match_their_formulas(space):
    if space == "m2z3_negation":
        hs = make_hyperbolic(make_ring("matrix", 3, 2, "transpose:negation"), 2)
    else:
        z5n = make_ring("residue", 5, involution="negation")
        hs = make_hyperbolic(z5n, 2, OddQuadraticSpace(z5n, ((1,),), MaxParameter()))
        assert any(any(u0) for u0, _ in elements(hs.v0, hs.l0))  # some X_i(u0, a) has u0 != 0
    basis = [basis_vec(hs, c) for c in range(hs.rank)]
    count = 0
    for gen in generators(hs):
        t = gen_matrix(hs, gen)
        for w in basis:
            assert apply(t, w) == _formula_image(hs, gen, w), (gen, w)
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
    assert z4.lmin.tolist() == [0, 2]
    for rows, member in (([[1, 1], [0, 1]], False), ([[1, 2], [0, 1]], True)):
        mat = Mat.from_rows(z4, rows)
        assert is_isometry(hs, mat)
        assert unitary_member(hs, mat) is member


def test_unitary_member_rejects_an_isometry_outside_the_parameter(hs_z2_n3):
    # x -> x + B(e_1, x) e_1 preserves B but not q: it sends e_-1 to
    # e_-1 + e_1, which has q = 1, so only the form parameter rejects it
    hs = hs_z2_n3
    rows = np.eye(hs.rank, dtype=np.int64)
    rows[hs.col(1)] += hs.gram[hs.col(1)]
    f = Mat.from_rows(hs.ring, rows)
    assert apply(f, basis_vec(hs, hs.col(-1))) == (1, 0, 0, 0, 0, 1)
    assert is_isometry(hs, f)
    assert not equiv_mod_param(hs, f, hs.identity)
    assert not unitary_member(hs, f)


def test_unitary_member_over_a_matrix_ring(m2z2):
    hs = make_hyperbolic(m2z2, 1)
    hmin = make_hyperbolic(m2z2, 1, parameter=MinParameter())
    assert hs.vector_count() == 256 and m2z2.modulus is None
    mats = [mat for _, mat in eu_generators(hs)]
    assert len(mats) == 2
    assert [unitary_member(hs, mat) for mat in mats] == [True, True]
    assert [unitary_member(hmin, mat) for mat in mats] == [False, False]


def test_spaces_share_the_rings_minimal_scalars(hs_rich):
    # {a + bar(a)} depends only on the ring, so only the ring lists it
    hs = hs_rich
    assert not hasattr(hs, "lmin") and not hasattr(hs.v0, "lmin")
    assert hs.ring.lmin.tolist() == [0, 1, 2] and not hs.ring.lmin.flags.writeable


def test_parameter_caps_count_their_elements(hs_z3_n3):
    # Z/3 at n = 3: the hyperbolic parameter has 3^6 * 3 = 2187 elements,
    # one per hyperbolic vector and element of the V0 part
    hs = hs_z3_n3
    assert len(hs.parameter.elements(hs, cap=2187)) == 2187
    with pytest.raises(CapExceeded, match="^hyperbolic parameter has 2187 elements$"):
        hs.parameter.elements(hs, cap=2186)
    with pytest.raises(CapExceeded, match="^maximal parameter needs 2187 candidates$"):
        MaxParameter().elements(hs, cap=2186)
    # Z/8 with lam = 3 at n = 2: 8^4 vectors and lmin = {0, 4}
    z8 = make_hyperbolic(make_ring("residue", 8, involution="table",
                                   table=(0, 3, 6, 1, 4, 7, 2, 5)), 2)
    assert len(z8.parameter.elements(z8, cap=8192)) == 8192
    with pytest.raises(CapExceeded, match="^hyperbolic parameter has 8192 elements$"):
        z8.parameter.elements(z8, cap=8191)


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
    mats = [cl.mat(i) for i in range(cl.order)]
    for m in mats[:200]:
        assert m.inv().key() in cl
    assert (mats[3] * mats[5]).key() in cl


def test_closure_positions_stop_at_the_order(z3):
    cl = enumerate_eu(make_hyperbolic(z3, 1))
    assert cl.order == 24 and len(cl._elems) > 24  # grown past the order
    assert cl.mat(-1) == cl.mat(23) and cl.word(-1) == cl.word(23)
    for at in (24, len(cl._elems), -25):
        with pytest.raises(IndexError):
            cl.mat(at)
        with pytest.raises(IndexError):
            cl.word(at)


def test_enumerate_eu_cap(hs_z2_n3):
    with pytest.raises(CapExceeded):
        enumerate_eu(hs_z2_n3, cap=100)


def test_words_evaluate_to_their_elements(hs_z2_n3, eu_z2_n3):
    cl = eu_z2_n3
    count = 0
    for i, key in enumerate(cl):
        acc = hs_z2_n3.identity
        for gi in cl.word(i):
            acc = acc * cl.gens[gi][1]
        assert acc == cl.mat(i) and cl.index(key) == i
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
        for i in range(hs.rank):
            for j in range(hs.rank):
                assert hs.gram[i][j] == r.neg(r.bar(hs.gram[j][i]))
    assert verify_antihermitian(hs_rich).ok


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
    for name in ("z3", "m2z2"):  # explicit parameters: the span of (e_1, 0)
        hs = spaces[name]
        e1 = (hs.ring.one,) + (hs.ring.zero,) * (hs.rank - 1)
        spaces[f"{name}_span"] = make_hyperbolic(
            hs.ring, 1, parameter=span_form_parameter(hs, [(e1, hs.ring.zero)]))
    for name, hs in spaces.items():
        r = hs.ring
        size = hs.rank * r.degree
        t, *gens = [mat for _, mat in eu_generators(hs)][:4]
        minus = Mat.from_arr(r, -np.eye(size, dtype=np.int64))  # an isometry
        other = Mat.from_arr(r, np.random.default_rng(3).integers(0, r.base_modulus, (size, size)))

        def reference(f, g):
            for v in vectors(hs):
                fv, gv = apply(f, v), apply(g, v)
                d = tuple(hs.ring.sub(x, y) for x, y in zip(fv, gv))
                disp = (d, hs.form(tuple(hs.ring.neg(x) for x in d), gv))
                if not hs.param_contains(disp):
                    return False
            return True

        verdicts = set()
        for f in (hs.identity, t, *gens, t * t, minus, other):
            for g in (hs.identity, t):
                verdicts.add(equiv_mod_param(hs, f, g))
                assert equiv_mod_param(hs, f, g) == reference(f, g), (name, f, g)
        # on Z/3 with V0 = 0 or maximal, lmin is all of Z/3 and the hyperbolic
        # parameter is the whole Heisenberg group
        assert verdicts == ({True} if name in ("z3", "z3_v0") else {True, False}), name


def test_closure_elements_are_unitary_members(hs_z2_n3, eu_z2_n3):
    import random

    rng = random.Random(2)
    mats = [eu_z2_n3.mat(i) for i in range(eu_z2_n3.order)]
    assert hs_z2_n3.identity.key() in eu_z2_n3
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


def _mats(cl):
    """Row bytes -> `Mat` of every element of a closure, in discovery order."""
    return {k: cl.mat(i) for i, k in enumerate(cl)}


def _words(cl):
    """Row bytes -> word of every element of a closure, in discovery order."""
    return {k: cl.word(i) for i, k in enumerate(cl)}


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
    assert cl.order == len(mats) == len(cl) == order
    assert list(cl) == list(cl.keys()) == list(mats)  # same discovery order
    assert _words(cl) == words
    assert _mats(cl) == mats
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
    xi = next(x for x in map(hs_rich.v0.heis_element, hs_rich.l0.tolist()) if any(x[0]))
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
    assert cl.mat(0).arr.dtype == np.uint16
    assert cl.order == 257
    assert len(cl.gens) == 1  # the second generator is already inside
    assert _mats(cl) == mats
    assert _words(cl) == words


def _spy_stacks(monkeypatch):
    """The generators of every `_keep` call, as lists of matrices."""
    stacks, keep = [], GroupClosure._keep

    def spy(self, codes, start, index, work):
        stacks.append([self.gens[k][1] for k in index])
        keep(self, codes, start, index, work)

    monkeypatch.setattr(GroupClosure, "_keep", spy)
    return stacks


def test_engine_multiplies_each_distinct_generator_once(monkeypatch, z2, z3):
    hs = make_hyperbolic(z2, 2)
    a, b, c = (gen_matrix(hs, g) for g in (Xij(1, 2, 1), Xij(-2, -1, 1), Xij(2, 1, 1)))
    assert a == b  # the two names of an R0 pair
    stacks = _spy_stacks(monkeypatch)
    gens = [(None, c), (None, hs.identity), (None, a), (None, c), (None, b)]
    cl = enumerate_eu(hs, gens=gens)
    mats, words = naive_closure(hs, cl.gens)
    assert cl.gens == gens
    assert list(cl) == list(mats) and _mats(cl) == mats and _words(cl) == words
    assert {k for w in words.values() for k in w} == {0, 2}  # the first copies
    assert cl.layers == [sum(len(w) == d for w in words.values())
                         for d in range(len(cl.layers))]
    assert stacks and all(s == [c, a] for s in stacks)
    # a generator equal to an earlier one adds no element and no product
    expanded = []
    monkeypatch.setattr(GroupClosure, "_expand", lambda self, *args: expanded.append(args))
    order = cl.order
    cl.extend([(None, hs.transvection_ij(2, 1, 1))])
    assert cl.order == order and not expanded and len(cl.gens) == len(gens) + 1
    monkeypatch.undo()
    # same support, different matrices: both are multiplied
    hs3 = make_hyperbolic(z3, 2)
    one, two = gen_matrix(hs3, Xij(1, 2, 1)), gen_matrix(hs3, Xij(1, 2, 2))
    supports = [(m.arr != hs3.identity.arr).any(axis=0).tolist() for m in (one, two)]
    assert one != two and supports[0] == supports[1]
    stacks = _spy_stacks(monkeypatch)
    cl = enumerate_eu(hs3, gens=[(None, one), (None, two)])
    mats, words = naive_closure(hs3, cl.gens)
    assert list(cl) == list(mats) and _words(cl) == words
    assert list(words.values()) == [(), (0,), (1,)]
    assert stacks and all(s == [one, two] for s in stacks)


def _assert_words_hold_the_digits(cl, m, d):
    """The all-(m-1) matrix codes to words w with w + 1 a power of the prime
    m and with m^(d^2) as their product: every word holds whole digits and
    none wraps around 2^64."""
    top = cl._code(np.full((1, d, 1, d), m - 1))
    spans = [int(w) + 1 for w in np.frombuffer(top.tobytes(), dtype=np.uint64)]
    assert math.prod(spans) == m ** (d * d)
    assert all(m ** (d * d) % v == 0 for v in spans)


def _assert_plan_holds(cl, m, d):
    """The code plan's invariants: every segment's largest value (all its
    digits m - 1) is below 2^52, so exact in float64, the words hold the
    digits, and there are as many words as uint64s of whole digits need."""
    places, words = cl._plan
    assert ((m - 1) * places.astype(np.int64)).sum(axis=0).max() < 2**52
    _assert_words_hold_the_digits(cl, m, d)
    per_word = max(k for k in range(1, 65) if m**k <= 2**64)
    assert len(words) == -(-d * d // per_word) == cl._codes.itemsize // 8


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
    assert _words(cl) == words_
    assert _mats(cl) == mats
    assert cl._codes.itemsize == 8 * words
    if words == 1:
        assert cl._codes.dtype == np.uint64 and int(cl._codes.max()) >= 2**63
    _assert_plan_holds(cl, hs.ring.modulus, 8)
    # keys that are not rows of the closure
    assert hs.identity.key() in cl and hs.transvection_ij(3, 1, 1).key() not in cl
    assert b"" not in cl and bytes(65) not in cl and bytes(64) not in cl
    row = np.frombuffer(hs.identity.key(), dtype=np.uint8).copy()
    row[0], row[1] = 0, hs.ring.modulus  # the identity's code, from digits out of range
    assert row.tobytes() not in cl


def test_engine_with_rows_coded_in_segments():
    # 419^6 > 2^52 and 419^8 > 2^64: the 36 digits take six uint64 words of
    # up to 7 digits, each cut into float64-exact segments of up to 5
    hs = make_hyperbolic(make_ring("residue", 419), 3)
    gens = [(None, gen_matrix(hs, Xij(1, 2, 1)))]
    cl = enumerate_eu(hs, gens=gens)
    mats, words = naive_closure(hs, gens)
    assert cl.order == 419 and list(cl) == list(mats)
    assert _mats(cl) == mats and _words(cl) == words
    assert cl._codes.itemsize == 6 * 8 and len(cl._plan[1]) == 6
    _assert_plan_holds(cl, 419, 6)


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


_TABLE_SIDE = {"z2_n4", "m2z2_n2"}  # the rest: codes of several words, or m^d > TABLE_ROWS


def _engine_cases(hs, space):
    """The generator lists of one `_ENGINE_CASES` space, as lists of `Mat`."""
    sparse, factors, v0_gens = _ENGINE_CASES[space]
    dense = math.prod((gen_matrix(hs, g) for g in factors[1:]), start=gen_matrix(hs, factors[0]))
    assert (dense.arr != hs.identity.arr).any(axis=0).sum() >= hs.identity.arr.shape[0] - 2
    cases = [[hs.identity if g is None else gen_matrix(hs, g) for g in sparse], [dense]]
    if v0_gens:
        v0_cols = slice(2 * hs.n * hs.ring.degree, None)
        assert all((gen_matrix(hs, g).arr != hs.identity.arr)[:, v0_cols].any() for g in v0_gens)
        cases.append([gen_matrix(hs, g) for g in v0_gens])
    return cases


def _closures(monkeypatch, hs, cases, table_rows):
    """The EU closure of each case under TABLE_ROWS = table_rows, and every
    stream handed to `_keep` as (closure, code bytes, start, index)."""
    kept, keep = [], GroupClosure._keep

    def spy(self, codes, start, index, work):
        kept.append((self, codes.tobytes(), start, index.tolist()))
        keep(self, codes, start, index, work)

    with monkeypatch.context() as patch:
        patch.setattr(GroupClosure, "_keep", spy)
        patch.setattr(hyperbolic, "TABLE_ROWS", table_rows)
        closures = [enumerate_eu(hs, gens=[(None, m) for m in mats]) for mats in cases]
    return closures, kept


@pytest.mark.parametrize("space", list(_ENGINE_CASES))
def test_codes_from_the_parents_match_full_products(monkeypatch, engine_spaces, space):
    # Z/2 at d = 8 fills one uint64, hs_rich takes two words, Z/419 two
    # segments per row, Z/257 uint16 rows, M_2(Z/2) rows of 2 x 2 blocks
    hs = engine_spaces[space]
    cases = _engine_cases(hs, space)
    closures, kept = _closures(monkeypatch, hs, cases, hyperbolic.TABLE_ROWS)
    for cl in closures:
        assert (cl._digits is not None) == (space in _TABLE_SIDE)
        expect, words = naive_closure(hs, cl.gens)
        assert list(cl) == list(expect) and _words(cl) == words
    # every stream of codes handed to `_keep` is `_code` of the full products
    for cl, codes, start, index in kept:
        n, d = len(codes) // (cl._codes.itemsize * len(index)), cl._d
        gens = np.hstack([cl.gens[k][1].arr for k in index])
        full = mulmod_unpacked(hs.ring, cl._entries(start, start + n).reshape(-1, d), gens)
        assert codes == cl._code(full.reshape(n, d, len(index), d)).tobytes()
    assert len({id(cl) for cl, *_ in kept}) == len(cases)


@pytest.mark.parametrize("space", list(_ENGINE_CASES))
def test_both_product_paths_agree(monkeypatch, engine_spaces, space):
    # TABLE_ROWS = 0 sends every closure down the GEMM path; TABLE_ROWS = m^d
    # sends those with one-word codes down the table path, Z/257 at n = 1
    # (uint32 row codes) included
    hs = engine_spaces[space]
    cases = _engine_cases(hs, space)
    rows = hs.ring.base_modulus ** hs.identity.arr.shape[0]
    (tables, kept), (gemms, expect) = (
        _closures(monkeypatch, hs, cases, limit) for limit in (rows, 0))
    assert all(cl._digits is None for cl in gemms)
    assert all((cl._digits is not None) == (cl._bits <= 64) for cl in tables)
    for cl, ref in zip(tables, gemms):
        assert cl.order == ref.order and cl.layers == ref.layers
        assert [cl.word(i) for i in range(cl.order)] == [ref.word(i) for i in range(ref.order)]
        assert (cl._entries(0, cl.order) == ref._entries(0, ref.order)).all()
    assert [k[1:] for k in kept] == [k[1:] for k in expect]


def _commutator_seeds(mats):
    """Each distinct commutator a b a^-1 b^-1 of the matrices, in order of
    first appearance."""
    seeds = {}
    for a in mats:
        for b in mats:
            c = a * b * a.inv() * b.inv()
            seeds.setdefault(c.key(), c)
    return list(seeds.values())


def _spy_cosets(patch):
    """Per `_cosets` call, the number of blocks it was given and the number
    it kept."""
    calls, cosets = [], GroupClosure._cosets

    def spy(self, reps, gen, index, work):
        order = self.order
        cosets(self, reps, gen, index, work)
        calls.append((len(reps), (self.order - order) // self._block))

    patch.setattr(GroupClosure, "_cosets", spy)
    return calls


def _coset_closures(monkeypatch, hs, cases, table_rows):
    """The subgroup and the commutator closure of each case under
    TABLE_ROWS = table_rows, and the `_cosets` calls as `_spy_cosets`."""
    with monkeypatch.context() as patch:
        calls = _spy_cosets(patch)
        patch.setattr(hyperbolic, "TABLE_ROWS", table_rows)
        closures = [close for mats in cases for close in (
            subgroup_closure(hs, mats), commutator_closure(hs, [(None, m) for m in mats]))]
    return closures, calls


def _assert_words_replay(cl):
    """The word of each of 64 elements spread over the closure, first and
    last included, multiplied out, is the element, found at its own
    position."""
    for i in sorted(set(np.linspace(0, cl.order - 1, 64).astype(int).tolist())):
        mat = math.prod((cl.gens[k][1] for k in cl.word(i)), start=cl.hs.identity)
        assert mat == cl.mat(i) and cl.index(mat.key()) == i


@pytest.mark.parametrize("space", list(_ENGINE_CASES))
def test_subgroup_closures_by_cosets(monkeypatch, engine_spaces, space):
    # each extend over a closed subgroup H adds whole right cosets of H; on
    # both product paths, as in `test_both_product_paths_agree`
    hs = engine_spaces[space]
    cases = _engine_cases(hs, space)
    rows = hs.ring.base_modulus ** hs.identity.arr.shape[0]
    (tables, calls), (gemms, gemm_calls) = (
        _coset_closures(monkeypatch, hs, cases, limit) for limit in (rows, 0))
    assert all(cl._digits is None for cl in gemms)
    seeds = [s for mats in cases for s in (mats, _commutator_seeds(mats))]
    for cl, ref, mats in zip(tables, gemms, seeds, strict=True):
        expect, _ = naive_closure(hs, [(None, m) for m in mats])
        assert cl.order == len(expect) and set(cl) == set(expect)
        _assert_words_replay(cl)
        assert cl.order == ref.order and cl.layers == ref.layers
        assert [cl.word(i) for i in range(cl.order)] == [ref.word(i) for i in range(ref.order)]
        assert (cl._entries(0, cl.order) == ref._entries(0, ref.order)).all()
    assert calls == gemm_calls
    if space in ("z2_n4", "rich"):
        # two new representatives of one batch in the same coset: the later
        # block is dropped
        assert any(given > kept for given, kept in calls)


def test_coset_batches_do_not_change_the_closure(monkeypatch, hs_z2_n3, eu_z2_n3):
    # FLUSH = 1 builds one block per step, so a representative can lie in a
    # block that an earlier step of its batch added
    cl = commutator_closure(hs_z2_n3)
    with monkeypatch.context() as patch:
        calls = _spy_cosets(patch)
        patch.setattr(hyperbolic, "FLUSH", 1)
        cut = commutator_closure(hs_z2_n3)
    assert any(given > kept for given, kept in calls)
    assert cl.order == cut.order == eu_z2_n3.order and set(cl) == set(eu_z2_n3)
    assert [cl.word(i) for i in range(cl.order)] == [cut.word(i) for i in range(cut.order)]
    assert (cl._entries(0, cl.order) == cut._entries(0, cut.order)).all()
    _assert_words_replay(cl)


def test_extend_after_the_cap_raises(monkeypatch, z3n):
    hs = make_hyperbolic(z3n, 2)
    gens = eu_generators(hs)
    past, rows = [], GroupClosure._rows

    def spy(self, reps, gen, work, out):  # how far past the cap a step of blocks reaches
        rows(self, reps, gen, work, out)
        if self._block > 1:
            past.append(self.order + len(out) - self._cap)

    monkeypatch.setattr(GroupClosure, "_rows", spy)
    for cap in (2, 20, 100):  # stopped in the first extend, or in a later one
        cl = GroupClosure(hs, cap)
        past.clear()
        with pytest.raises(CapExceeded, match=f"exceeded cap {cap}$"):
            for gen in gens:
                cl.extend([gen])
        assert cl.order <= cap and max(past, default=0) <= cl._block  # one block past it, at most
        for more in (gens[-1:], [], gens[:1]):
            with pytest.raises(WorkbenchError, match=f"stopped at cap {cap} and is not a group"):
                cl.extend(more)


@pytest.mark.parametrize("space,fits", [("hs_z2_n3", True), ("hs_z2_n4", False)])
def test_keep_packs_code_and_position_only_where_they_fit(request, space, fits):
    # a stream of 300 products of the identity (9 position bits): codes of 36
    # bits leave room for the position, full 64-bit codes do not.  A and A'
    # differ only in entry (0, 0), the top digit of a code, so a packed key
    # that lost the top bits would take them for one code.  The first copies
    # of M and N sit at 255 and 256, on both sides of 2^8.
    hs = request.getfixturevalue(space)
    d, ident = hs.identity.arr.shape[0], hs.identity.arr
    rng = np.random.default_rng(7)
    a, b, c, e, m, n = rng.integers(0, 2, (6, d, d)).astype(ident.dtype)
    a2 = a.copy()
    a2[0, 0] ^= 1
    pool = [ident, a, a2, b, c, e]
    stream = np.stack([pool[p % 6] if p < 255 else m if p == 255 else n if p == 256
                       else [n, m, a2, b][p % 4] for p in range(300)])
    cl = GroupClosure(hs)
    assert (cl._bits + (300).bit_length() <= 64) == fits
    codes = cl._code(stream.transpose(1, 0, 2)[None])
    firsts = {}
    for p, code in enumerate(codes.tolist()):
        firsts.setdefault(code, p)
    assert len(firsts) == 8
    uniq, pos = cl._firsts(codes.copy())
    assert uniq.tolist() == sorted(firsts) and pos.tolist() == [firsts[k] for k in sorted(firsts)]
    # the new rows: the first copy of each matrix other than the identity
    cl._index, cl._parts = list(range(len(stream))), [cl._part(a) for a in stream]
    cl._keep(codes, 0, *cl._products(0))
    seen, expect = {ident.tobytes()}, []
    for p, mat in enumerate(stream):
        if mat.tobytes() not in seen:
            seen.add(mat.tobytes())
            expect.append(p)
    assert expect == [1, 2, 3, 4, 5, 255, 256]
    assert cl.order == 1 + len(expect) and cl.word(6) == (255,) and cl.word(7) == (256,)
    assert (cl._entries(1, cl.order) == stream[expect].reshape(len(expect), -1)).all()
    assert [cl.index(stream[p].tobytes()) for p in expect] == list(range(1, cl.order))
    assert (np.diff(cl._codes.astype(object)) > 0).all()


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
    assert list(cl) == list(expect) and _words(cl) == _words(expect)


@pytest.mark.slow
def test_eu6_z3_negation_closure(z3n):
    # Omega+_6(3): about 24 s and 600 MB, so deselected unless `pytest -m slow`
    cl = enumerate_eu(make_hyperbolic(z3n, 3), cap=7_000_000)
    assert cl.order == 3**6 * (3**2 - 1) * (3**3 - 1) * (3**4 - 1) // 2 == 6_065_280
    assert cl.layers == [1, 24, 384, 4636, 43659, 309784, 1518622, 3246412, 931936, 9756, 66]


def _naive_lmin(r):
    return {r.add(c, r.bar(c)) for c in r.elements()}


def _naive_v0_part(hs):
    """Every V0 parameter element plus every lmin scalar."""
    r, lmin = hs.ring, _naive_lmin(hs.ring)
    return {(u0, r.add(a0, s)) for u0, a0 in elements(hs.v0, hs.v0.parameter.elements(hs.v0))
            for s in lmin}


def _symplectic(ring, parameter):
    return OddQuadraticSpace(
        ring, ((ring.zero, ring.one), (ring.neg(ring.lam), ring.zero)), parameter)


def _explicit(space, tuples):
    return ExplicitParameter(space.heis_codes(space.heis_rows(list(tuples))))


def test_v0_part_matches_naive_sums(hs_rich):
    z4 = make_ring("residue", 4)  # lmin = {0, 2}: a proper subgroup
    z8 = make_ring("residue", 8, involution="table", table=(0, 3, 6, 1, 4, 7, 2, 5))
    m2z2 = make_ring("matrix", 2, 2, "transpose")
    spaces = [hs_rich] + [
        make_hyperbolic(r, 1, _symplectic(r, p))
        for r in (z4, m2z2) for p in (MinParameter(), MaxParameter())
    ]
    # V0 parameters that are not closed under adding lmin: the sums are new
    o, i = m2z2.zero, m2z2.one
    for r, tuples in ((z4, [((1, 0), 1)]), (z8, [((0, 0), 1), ((2, 1), 3)]),
                      (m2z2, [((i, o), i), ((o, i), o)])):
        plane = _symplectic(r, None)
        spaces.append(make_hyperbolic(r, 1, _symplectic(r, _explicit(plane, tuples))))
    for hs in spaces:
        part = hs.parameter.codes
        assert elements(hs.v0, part) == _naive_v0_part(hs)
        assert hs.l0 is part and (np.diff(part) > 0).all()
        # the stored listings are shared (with the ring's lmin, or with V0's
        # explicit codes when nothing is added), so none of them is writable
        listed = hs.v0.parameter.elements(hs.v0)
        assert not part.flags.writeable
        assert isinstance(hs.v0.parameter, MaxParameter) or not listed.flags.writeable
    assert [len(hs.l0) for hs in spaces[-3:]] == [2, 4, 4]


def _plane_product_elements(hs):
    """The hyperbolic parameter as sums of one element per plane,
    {((a, b), bar(a) lam^-1 b + s) : s in lmin}, and one of the V0 part."""
    r, n = hs.ring, hs.n
    lmin, v0_part = _naive_lmin(r), _naive_v0_part(hs)
    plane = sorted({((a, b), r.add(r.prod(r.bar(a), r.lam_inv, b), s))
                    for a in r.elements() for b in r.elements() for s in lmin})
    out = set()
    for parts in itertools.product(plane, repeat=n):
        u = tuple(p[0][0] for p in parts) + tuple(p[0][1] for p in reversed(parts))
        s = r.sum(*(p[1] for p in parts))
        out.update((u + u0, r.add(s, t)) for u0, t in v0_part)
    return frozenset(out)


def test_listing_matches_plane_products(hs_rich):
    m2z2 = make_ring("matrix", 2, 2, "transpose")
    z3n = make_ring("residue", 3, involution="negation")
    z8 = make_ring("residue", 8, involution="table", table=(0, 3, 6, 1, 4, 7, 2, 5))
    m2_v0 = OddQuadraticSpace(m2z2, ((((0, 1), (1, 0)),),), MaxParameter())
    spaces = [(hs_rich, 19683), (make_hyperbolic(z3n, 2), 81),
              (make_hyperbolic(m2z2, 1, m2_v0), 32768), (make_hyperbolic(z8, 2), 8192),
              (make_hyperbolic(make_ring("residue", 4), 2), 512)]
    for hs, size in spaces:
        listed = hs.parameter.elements(hs)
        assert len(listed) == size and elements(hs, listed) == _plane_product_elements(hs)
        assert (np.diff(listed) > 0).all()
        assert hs.parameter.contains_batch(hs, *hs.heis_arr(listed[::97])).all()


def test_v0_scalar_sets_on_a_large_modulus():
    # the V0 parameter scalars and lmin are both all of Z/2053 here
    hs = make_hyperbolic(make_ring("residue", 2053), 1)
    assert len(hs.l0) == 2053


def _displacement_columns(hs, f, vectors):
    """(disp, scal) of f against the identity on each vector, as in
    equiv_mod_param, as the stacks (N, dim, k, k) and (N, k, k) of `Ring.arr`."""
    r = hs.ring
    disp, scal = [], []
    for v in vectors:
        d = tuple(r.sub(x, y) for x, y in zip(apply(f, v), v))
        disp.append(d)
        scal.append(hs.form(tuple(r.neg(x) for x in d), v))
    return r.arr(disp, (len(vectors), hs.rank)), r.arr(scal, (len(vectors),))


def _naive_member(space, param, xi, listed=frozenset()):
    """Whether xi = (u, a), as ring values, lies in a parameter, from its
    definition by scalar arithmetic: u = 0 and a in {c + bar(c)} for the
    minimal one, a - bar(a) = B(u, u) for the maximal one, (u0, a - q(u) - s)
    in V0's parameter for some s in lmin for the hyperbolic one, and plain
    tuple membership in `listed` for an explicit one."""
    r, (u, a) = space.ring, xi
    if isinstance(param, MinParameter):
        return u == space.zero_vec and a in _naive_lmin(r)
    if isinstance(param, MaxParameter):
        return r.sub(a, r.bar(a)) == space.form(u, u)
    if isinstance(param, ProductParameter):
        n, v0 = space.n, space.v0
        q = r.sum(*(r.prod(r.bar(u[i]), r.lam_inv, u[2 * n - 1 - i]) for i in range(n)))
        return any(_naive_member(v0, v0.parameter, (u[2 * n:], r.sub(r.sub(a, q), s)))
                   for s in _naive_lmin(r))
    return xi in listed


def _rows(hs, disp, scal):
    """The rows of the stacks as elements of ring values."""
    r = hs.ring
    return [(tuple(map(r.scalar, d)), r.scalar(t))
            for d, t in zip(r.arr_codes(disp).tolist(), r.arr_codes(scal).tolist())]


@pytest.mark.parametrize("space", ["rich", "z3n", "z4", "v0_min", "v0_wide"])
def test_contains_batch_matches_contains(request, space):
    # every membership rule against `_naive_member`
    z3 = make_ring("residue", 3)
    hs = {
        "rich": lambda: request.getfixturevalue("hs_rich"),
        "z3n": lambda: request.getfixturevalue("hs_z3n_n3"),
        "z4": lambda: make_hyperbolic(make_ring("residue", 4), 2),
        # only the zero V0 vector has a scalar set
        "v0_min": lambda: make_hyperbolic(
            z3, 2, OddQuadraticSpace(z3, ((0, 1), (2, 0)), MinParameter())),
        # the same on a rank-12 V0: the pair codes reach 3^13
        "v0_wide": lambda: make_hyperbolic(
            z3, 2, OddQuadraticSpace(z3, ((0,) * 12,) * 12, MinParameter())),
    }[space]()
    m = hs.ring.modulus
    rng = np.random.default_rng(17)
    vectors = [tuple(v) for v in rng.integers(0, m, (60, hs.rank)).tolist()]
    columns = [_displacement_columns(hs, mat, vectors)
               for _, mat in eu_generators(hs)[::7]]
    # random columns: mostly outside every parameter
    columns.append((rng.integers(0, m, (hs.rank, 300)).T.reshape(300, hs.rank, 1, 1),
                    rng.integers(0, m, (300, 1, 1))))
    disp = np.concatenate([d for d, _ in columns])
    scal = np.concatenate([s for _, s in columns])
    rows = _rows(hs, disp, scal)
    # explicit parameters: a spanned one, {(e_1 b, s) : s in lmin}, and the
    # maximal one less one element, as in the broken set of test_forms.py,
    # where the maximal one can be listed
    e1 = (1,) + (0,) * (hs.rank - 1)
    explicit = [span_form_parameter(hs, [(e1, 0)])]
    if space != "v0_wide":
        full = MaxParameter().elements(hs)
        explicit.append(ExplicitParameter(np.delete(full, 1)))
    for param in (hs.parameter, MinParameter(), MaxParameter(), *explicit):
        listed = elements(hs, param.elements(hs)) if param in explicit else frozenset()
        expected = [_naive_member(hs, param, row, listed) for row in rows]
        got = param.contains_batch(hs, disp, scal)
        assert got.dtype == bool and got.tolist() == expected, type(param).__name__
        assert any(expected), type(param).__name__
    # on the rich preset the hyperbolic parameter is the whole Heisenberg
    # group (lmin is all of Z/3 and the V0 part is maximal); elsewhere the
    # random columns include non-members
    members = hs.parameter.contains_batch(hs, disp, scal)
    assert members.all() == (space == "rich")
    # a transvection is not equivalent to the identity under the minimal
    # parameter: some of its displacements are non-members
    t = hs.transvection_ij(1, 2, 1)
    d, s = _displacement_columns(hs, t, vectors)
    assert not MinParameter().contains_batch(hs, d, s).all()
    assert hs.parameter.contains_batch(hs, d, s).all()
    if space in ("v0_min", "v0_wide"):
        # a displacement along V0 has no scalar set, whatever the scalar
        along_v0 = np.zeros((m, hs.rank, 1, 1), dtype=np.int64)
        along_v0[:, -1] = 1
        assert not hs.parameter.contains_batch(hs, along_v0, hs.ring.arr(range(m), (m,))).any()


def test_contains_batch_over_a_matrix_ring(m2z2):
    v0 = OddQuadraticSpace(m2z2, ((((0, 1), (1, 0)),),), MaxParameter())
    hs = make_hyperbolic(m2z2, 1, v0)
    r = hs.ring
    rng = np.random.default_rng(17)
    vectors = [tuple(map(r.scalar, v)) for v in rng.integers(0, r.card, (60, hs.rank)).tolist()]
    columns = [_displacement_columns(hs, mat, vectors) for _, mat in eu_generators(hs)[::5]]
    columns.append((r.codes_arr(rng.integers(0, r.card, (300, hs.rank))),
                    r.codes_arr(rng.integers(0, r.card, 300))))
    disp = np.concatenate([d for d, _ in columns])
    scal = np.concatenate([s for _, s in columns])
    rows = _rows(hs, disp, scal)
    spanned = span_form_parameter(hs, [((r.one,) + (r.zero,) * (hs.rank - 1), r.zero)])
    for param in (hs.parameter, MinParameter(), MaxParameter(), spanned):
        listed = elements(hs, spanned.elements(hs)) if param is spanned else frozenset()
        expected = [_naive_member(hs, param, row, listed) for row in rows]
        assert param.contains_batch(hs, disp, scal).tolist() == expected, type(param).__name__
        assert any(expected) and not all(expected), type(param).__name__


@pytest.mark.parametrize("ring", ["z3n", "z4", "m2z2"])
def test_membership_rules_on_whole_heisenberg_groups(ring):
    # every element of a small space: the minimal, maximal and an explicit
    # parameter against their definitions, each with both verdicts
    r = {"z3n": make_ring("residue", 3, involution="negation"),
         "z4": make_ring("residue", 4),
         "m2z2": make_ring("matrix", 2, 2, "transpose")}[ring]
    # over Z/4, a V0 of Gram (2) makes B(u, u) = 2u^2 nonzero on odd u
    v0 = OddQuadraticSpace(r, ((2,),)) if ring == "z4" else None
    hs = make_hyperbolic(r, 1, v0)
    every = [hs.heis_element(c) for c in range(hs.heis_span())]
    disp, scal = hs.heis_rows(every)
    chosen = set(every[::7])
    for param, listed in ((MinParameter(), frozenset()), (MaxParameter(), frozenset()),
                          (_explicit(hs, chosen), chosen)):
        expected = [_naive_member(hs, param, xi, listed) for xi in every]
        assert param.contains_batch(hs, disp, scal).tolist() == expected, type(param).__name__
        assert any(expected) and not all(expected), type(param).__name__


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
