import functools
import hashlib
import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddunitary import (
    MaxParameter,
    OddQuadraticSpace,
    Report,
    WorkbenchError,
    build_section,
    check_dagger,
    comm_preimages,
    eu_generators,
    make_hyperbolic,
    make_ring,
    product_extension,
    section_entry,
    verify_section,
)
from oddunitary import extensions, steinberg
from oddunitary.extensions import (
    ProductExtension,
    chooser_agreement,
    mutate_section,
    section_eval,
)
from oddunitary.generators import (
    Xi,
    Xij,
    decode_gen,
    format_gen,
    gen_codes,
    generators,
    parse_word,
)
from oddunitary.steinberg import (
    DAGGER,
    FAMILIES,
    RELATION_IDS,
    chunk_params,
    eval_word,
    family_chunks,
    family_params,
    gen_matrix,
    perfect_witness,
)


@pytest.fixture(scope="module")
def ext_z2(hs_z2_n4):
    return product_extension(hs_z2_n4, 2)


@pytest.fixture(scope="module")
def ext_z3(hs_z2_n4):
    return product_extension(hs_z2_n4, 3)


Z3 = make_ring("residue", 3, involution="identity")
ROW_SPACES = {
    "hs_z2_n4": make_hyperbolic(make_ring("residue", 2, involution="identity"), 4),
    # the symplectic V0 of `hs_rich`: the one-index section entries
    # S_k(u, a) are not all trivial
    "hs_z3v0_n4": make_hyperbolic(
        Z3, 4, OddQuadraticSpace(Z3, ((0, 1), (2, 0)), MaxParameter())),
}


@pytest.fixture(scope="module")
def hs_z3v0_n4():
    """Z/3 at n = 4 with a symplectic V0."""
    return ROW_SPACES["hs_z3v0_n4"]


@pytest.fixture(scope="module")
def section_z2(ext_z2):
    return build_section(ext_z2)


@pytest.fixture(scope="module")
def section_z3(ext_z3):
    return build_section(ext_z3)


def test_trivial_central_factor_is_base(hs_z2_n4):
    ext = product_extension(hs_z2_n4, 1)
    g = gen_matrix(hs_z2_n4, Xij(1, 2, 1))
    assert ext.chooser(g) == (g, 0)
    assert ext.central_elements() == [(hs_z2_n4.identity, 0)]


def test_kernel_is_central(ext_z3, hs_z2_n4):
    mats = [m for _, m in eu_generators(hs_z2_n4)][:10]
    assert ext_z3.kernel_is_central(mats)
    assert len(ext_z3.central_elements()) == 3


def test_randomized_chooser_is_a_section(hs_z2_n4):
    ext = product_extension(hs_z2_n4, 3, chooser_seed=99)
    for _, m in eu_generators(hs_z2_n4)[:20]:
        assert ext.eps(ext.chooser(m)) == m


def test_comm_preimages_identity(ext_z3, hs_z2_n4):
    ident = hs_z2_n4.identity
    g = gen_matrix(hs_z2_n4, Xij(1, 2, 1))
    assert comm_preimages(ext_z3, ident, g) == ext_z3.identity


def test_comm_preimages_central_parts_cancel(hs_z2_n4):
    ext = product_extension(hs_z2_n4, 3, chooser_seed=5)
    x = gen_matrix(hs_z2_n4, Xij(1, 2, 1))
    y = gen_matrix(hs_z2_n4, Xij(2, 3, 1))
    base_comm = x * y * x.inv() * y.inv()
    assert comm_preimages(ext, x, y) == (base_comm, 0)


def test_chooser_agreement_hundred_pairs(hs_z2_n4):
    rep = chooser_agreement(hs_z2_n4, 3, seed=3293)
    assert rep.ok
    assert [(r.check, r.witness, r.seed) for r in rep] == [
        ("extension.central_trick", "100 pairs", 3293)]


def test_chooser_disagreement_names_the_pair(monkeypatch, hs_z2_n4):
    # a commutator that depends on the chooser seed breaks the central trick
    monkeypatch.setattr(ProductExtension, "commutator",
                        lambda self, x, y: (x[0], self.chooser_seed))
    rep = chooser_agreement(hs_z2_n4, 3, seed=3293)
    assert not rep.ok
    x, y = re.fullmatch(r"\(x, y\) = \((.+), (.+)\)", rep.results[0].witness).groups()
    assert parse_word(x, hs_z2_n4) and parse_word(y, hs_z2_n4)


def test_dagger_needs_n4(hs_z2_n3):
    ext = product_extension(hs_z2_n3, 2)
    with pytest.raises(WorkbenchError):
        check_dagger(ext)


def test_dagger_exhaustive_n4(ext_z2):
    rep = check_dagger(ext_z2)
    assert rep.ok
    assert "1536" in rep.results[0].witness


def _per_case_dagger_records(E, strategy, samples):
    """The dagger record of a case-by-case sweep, one `comm_preimages` per
    quadruple instance: the reference for the batched check."""
    hs, rep = E.hs, Report()
    cases = (params
             for chunk in family_params(hs, DAGGER, "dagger", strategy, 3293, samples)
             for params in chunk_params(hs, DAGGER, *chunk))
    rep.sweep("extension.dagger", cases,
              lambda p: comm_preimages(
                  E, extensions.gen_matrix(hs, Xij(p[0], p[1], p[4])),
                  extensions.gen_matrix(hs, Xij(p[2], p[3], p[5]))) == E.identity,
              lambda p: "(i,j,k,h,a,b)=({},{},{},{},{!r},{!r})".format(*p),
              unit="quadruple instances", seed=3293 if strategy == "sampled" else None)
    return rep


@pytest.mark.parametrize("chunk", [256, 7, 5])
def test_dagger_reports_the_first_failing_case(monkeypatch, hs_z2_n4, chunk):
    hs = hs_z2_n4
    ext = product_extension(hs, 3, chooser_seed=3293)
    monkeypatch.setattr(steinberg, "CHUNK", chunk)
    records = []
    for corrupt in (False, True):
        if corrupt:
            wrong = hs.transvection_ij(1, 2, 1)
            monkeypatch.setattr(extensions, "gen_matrix", lambda h, g: (
                wrong if g.i == -1 else gen_matrix(h, g)))
        for strategy in ("exhaustive", "sampled"):
            got = check_dagger(ext, strategy, 3293, 300)
            assert got.to_json_lines() == _per_case_dagger_records(
                ext, strategy, 300).to_json_lines()
            records.append(got.results[0].witness)
    # the exhaustive check first fails at its case 250, the first case of a
    # chunk when the chunk size is 5
    assert records == ["1536 quadruple instances", "300 quadruple instances",
                       "(i,j,k,h,a,b)=(2,3,-1,4,1,0)", "(i,j,k,h,a,b)=(-1,4,2,3,1,1)"]


def test_dagger_raises_when_the_choosers_disagree(monkeypatch, hs_z2_n4):
    # an inverse that keeps the central part makes the preimage commutators
    # depend on the chooser
    monkeypatch.setattr(ProductExtension, "inv", lambda self, x: (x[0].inv(), x[1]))
    with pytest.raises(WorkbenchError, match="depended on the chooser"):
        check_dagger(product_extension(hs_z2_n4, 3))


def test_dagger_stops_before_a_later_disagreement(monkeypatch, hs_z2_n4):
    # X_41(0) -> X_12(1) makes case 234 = (2, 3, 4, 1, 1, 0) the first failing
    # one; an alt chooser that lifts X_41(1) to X_12(1) disagrees first at
    # case 235, in the same chunk of 256, after the sweep has stopped
    hs = hs_z2_n4
    ext = product_extension(hs, 3)
    wrong = hs.transvection_ij(1, 2, 1)
    target = gen_matrix(hs, Xij(4, 1, 1))
    alt = ProductExtension.alt_chooser
    monkeypatch.setattr(ProductExtension, "alt_chooser", lambda self, g: (
        (wrong, 0) if g == target else alt(self, g)))
    with pytest.raises(WorkbenchError, match="depended on the chooser"):
        check_dagger(ext)
    monkeypatch.setattr(extensions, "gen_matrix", lambda h, g: (
        wrong if g == Xij(4, 1, 0) else gen_matrix(h, g)))
    rep = check_dagger(ext)
    assert [(r.status, r.witness) for r in rep] == [
        ("fail", "(i,j,k,h,a,b)=(2,3,4,1,1,0)")]


def test_s_ij_examples(ext_z2, hs_z2_n4):
    # in a product extension the section element is the bare transvection
    assert section_entry(ext_z2, Xij(1, 2, 1)) == (gen_matrix(hs_z2_n4, Xij(1, 2, 1)), 0)
    assert section_entry(ext_z2, Xij(1, 2, 0)) == ext_z2.identity


def test_section_entry_rejects_collisions(ext_z2):
    # checked before the zero-argument shortcut
    for gen, w in ((Xij(1, 2, 0), 1), (Xij(1, 2, 1), -2), (Xi(3, ((), 0)), -3)):
        with pytest.raises(ValueError):
            section_entry(ext_z2, gen, witness=w)
    with pytest.raises(ValueError):
        section_entry(ext_z2, Xij(1, -1, 0))


@pytest.mark.parametrize("space", ("hs_z2_n4", "hs_z3v0_n4"))
def test_section_entries_lift_the_perfect_witnesses(request, space):
    hs = request.getfixturevalue(space)
    ext = product_extension(hs, 3, chooser_seed=3293)
    cache = {}
    for g in generators(hs):
        assert ext.eps(section_entry(ext, g)) == eval_word(
            hs, perfect_witness(hs, g), cache=cache), g


def test_s_ij_witness_independence(ext_z2, hs_z2_n4):
    for i, j in ((1, 2), (2, -1), (-3, 4)):
        admissible = [w for w in hs_z2_n4.omega if w not in (i, -i, j, -j)]
        results = {section_entry(ext_z2, Xij(i, j, 1), witness=w) for w in admissible}
        assert len(results) == 1


def test_s_i_examples(ext_z2, hs_z2_n4):
    xi0 = hs_z2_n4.v0.heis_identity
    assert section_entry(ext_z2, Xi(1, xi0)) == ext_z2.identity


def test_s_i_witness_independence_z3(z3):
    hs = make_hyperbolic(z3, 4)
    ext = product_extension(hs, 3, chooser_seed=1)
    xi = ((), 1)  # l0 over (Z/3, id) is {(0,0),(0,1),(0,2)}
    admissible = [w for w in hs.omega if w not in (2, -2)]
    results = {section_entry(ext, Xi(2, xi), witness=w) for w in admissible}
    assert len(results) == 1
    assert results.pop() == (gen_matrix(hs, Xi(2, xi)), 0)


def test_s_ij_witness_independence_n5(z2):
    hs = make_hyperbolic(z2, 5)
    ext = product_extension(hs, 2, chooser_seed=3)
    admissible = [w for w in hs.omega if w not in (1, -1, 2, -2)]
    assert len(admissible) == 6
    results = {section_entry(ext, Xij(1, 2, 1), witness=w) for w in admissible}
    assert len(results) == 1


def test_section_over_z3neg_ring_sampled(z3n):
    hs = make_hyperbolic(z3n, 4)
    ext = product_extension(hs, 2)
    table = build_section(ext)
    rep = verify_section(ext, table, strategy="sampled", seed=3293, samples=256)
    assert rep.ok, rep.to_json_lines()


def test_trivial_factor_section_is_the_transvection_table(hs_z2_n4):
    ext = product_extension(hs_z2_n4, 1)
    table = build_section(ext)
    for g, total in table.items():
        assert total == (gen_matrix(hs_z2_n4, g), 0)


def test_lemma9_bracket_forms_agree(ext_z2, hs_z2_n4):
    hs = hs_z2_n4
    quads = [
        (i, j, k, h)
        for i, j, k, h in itertools.product(hs.omega, repeat=4)
        if len({i, -i, j, -j, k, -k, h, -h}) == 8
    ]
    rng = random.Random(4)
    for i, j, k, h in rng.sample(quads, 40):
        a = b = 1
        lhs = comm_preimages(
            ext_z2,
            gen_matrix(hs, Xij(k, i, a)),
            gen_matrix(hs, Xij(i, h, b)),
        )
        rhs = comm_preimages(
            ext_z2,
            gen_matrix(hs, Xij(k, j, hs.ring.mul(a, b))),
            gen_matrix(hs, Xij(j, h, 1)),
        )
        assert lhs == rhs


def test_lemma7_analog_disjoint_commutators_vanish(ext_z2, hs_z2_n4):
    hs = hs_z2_n4
    count = 0
    for i, j, h, k in itertools.product(hs.omega, repeat=4):
        if j in (i, -i) or k in (h, -h) or h in (j, -i) or k in (i, -j):
            continue
        got = comm_preimages(
            ext_z2, gen_matrix(hs, Xij(i, j, 1)), gen_matrix(hs, Xij(h, k, 1))
        )
        assert got == ext_z2.identity
        count += 1
        if count >= 60:
            break


def test_build_section_needs_n4(hs_z2_n3):
    with pytest.raises(WorkbenchError):
        build_section(product_extension(hs_z2_n3, 2))


def test_sections_have_zero_central_parts(section_z2, section_z3):
    for table in (section_z2, section_z3):
        assert all(c == 0 for _, c in table.values())


# sha256 over `format_gen|central part|Mat.key()` of each entry, in table order
SECTION_DIGESTS = {
    "hs_z2_n4": (104, "522ef1c3618725f68b0b78adc124644982c0b1b7ae808807389ab0f27c70c6ba"),
    "hs_z3v0_n4": (360, "8c64a1d13c9e34a1c85561f864760dac5c0e9e437a8b5adff55fa783c85bf78c"),
}


@pytest.mark.parametrize("space", sorted(SECTION_DIGESTS))
@pytest.mark.parametrize("order", (2, 3))
@pytest.mark.parametrize("seed", (None, 3293))
def test_section_tables_are_pinned(request, space, order, seed):
    hs = request.getfixturevalue(space)
    table = build_section(product_extension(hs, order, chooser_seed=seed))
    h = hashlib.sha256()
    for g, (m, c) in table.items():
        h.update(f"{format_gen(g, hs)}|{c}|".encode() + m.key())
    assert (len(table), h.hexdigest()) == SECTION_DIGESTS[space]


def test_section_chooser_independence(hs_z2_n4, section_z2):
    randomized = build_section(product_extension(hs_z2_n4, 2, chooser_seed=77))
    assert randomized == section_z2


def test_verify_section_passes(ext_z2, section_z2, ext_z3, section_z3):
    assert verify_section(ext_z2, section_z2).ok
    rep = verify_section(ext_z3, section_z3, strategy="sampled",
                         seed=3293, samples=64)
    assert rep.ok


def test_section_without_samples_is_vacuous(ext_z2, section_z2):
    rep = verify_section(ext_z2, section_z2, strategy="sampled", samples=0)
    assert not rep.ok
    assert [r.status for r in rep] == ["pass"] + ["vacuous"] * 10


def test_section_covers_all_generators(hs_z2_n4, section_z2):
    gens = list(generators(hs_z2_n4))
    assert len(gens) == len(section_z2)
    assert all(g in section_z2 for g in gens)


def test_every_mutation_is_detected(ext_z2, section_z2):
    for g in section_z2:
        bad = mutate_section(ext_z2, section_z2, g, 1)
        assert not verify_section(ext_z2, bad, stop_on_fail=True).ok, g


def test_eps_sigma_names_the_first_wrong_entry(ext_z2, section_z2):
    hs = ext_z2.hs
    gens = list(section_z2)
    wrong = hs.transvection_ij(1, 2, 1)
    # the table's keys in generator order, then reversed
    for reverse, picks in itertools.product((False, True), ([7], [40, 7], [len(gens) - 1])):
        table = dict(reversed(section_z2.items()) if reverse else section_z2.items())
        for k in picks:
            table[gens[k]] = (wrong, table[gens[k]][1])
        # the entry-by-entry reference
        first = next(g for g, t in table.items() if ext_z2.eps(t) != gen_matrix(hs, g))
        assert first == gens[max(picks) if reverse else min(picks)]
        got = verify_section(ext_z2, table, stop_on_fail=True)
        assert [(r.check, r.status, r.witness) for r in got] == [
            ("section.eps_sigma", "fail", repr(first))]
        assert verify_section(ext_z2, table).results[0].witness == repr(first)


def _per_case_section_records(E, table):
    """The records of `verify_section(..., stop_on_fail=True)` from a
    case-by-case sweep, two `section_eval` calls per case: the reference for
    the batched check."""
    hs = E.hs
    codes = gen_codes(hs, table).tolist()
    by_code = [None] * (max(codes) + 1)
    for c, t in zip(codes, table.values()):
        by_code[c] = t
    rep = Report()
    rep.add("section.eps_sigma", "pass")
    for rid in RELATION_IDS:
        cases = (case for idx, pos, lhs, rhs in family_chunks(hs, FAMILIES[rid], rid)
                 for case in zip(chunk_params(hs, FAMILIES[rid], idx, pos),
                                 lhs.tolist(), rhs.tolist()))
        if not rep.sweep(f"section.{rid}", cases,
                         lambda c: (section_eval(E, by_code, c[1])
                                    == section_eval(E, by_code, c[2])),
                         lambda c, rid=rid: f"{rid}{c[0]!r}"):
            break
    return rep


@pytest.mark.parametrize("space, order", [("hs_z2_n4", 2), ("hs_z3v0_n4", 3)])
def test_section_records_match_the_per_case_sweep_in_any_key_order(space, order):
    # the seeded chooser's preimages of the generators (nonzero central
    # parts, so a relation fails), keyed in generator order and reversed
    hs = ROW_SPACES[space]
    ext = product_extension(hs, order, chooser_seed=3293)
    chosen = {g: ext.chooser(gen_matrix(hs, g)) for g in generators(hs)}
    for table in (chosen, dict(reversed(chosen.items()))):
        got = verify_section(ext, table, stop_on_fail=True)
        assert got.to_json_lines() == _per_case_section_records(ext, table).to_json_lines()
        assert not got.ok


def test_verify_section_rejects_a_key_outside_the_generators(ext_z2, section_z2):
    # Xij(1, 2, 5) is no generator over Z/2, and `gen_codes` gives it the
    # code of Xij(1, 4, 1), since `arr_codes` does not reduce 5
    for key in (Xij(1, 2, 5), Xij(1, 1, 1), "junk"):
        table = dict(section_z2)
        table[key] = section_z2[Xij(1, 2, 1)]
        with pytest.raises(ValueError, match=re.escape(f"not a generator: {key!r}")):
            verify_section(ext_z2, table)


def test_verify_section_rejects_a_missing_generator(ext_z2, section_z2):
    table = dict(section_z2)
    del table[Xij(1, 4, 1)]
    message = re.escape(f"no section entry for {Xij(1, 4, 1)!r}")
    with pytest.raises(ValueError, match=message):
        verify_section(ext_z2, table, stop_on_fail=True)


def test_mutate_section_rejects_an_absent_generator(ext_z2, section_z2):
    table = dict(section_z2)
    del table[Xij(1, 2, 0)]
    message = re.escape(f"no section entry for {Xij(1, 2, 0)!r}")
    with pytest.raises(ValueError, match=message):
        mutate_section(ext_z2, table, Xij(1, 2, 0), 1)


@pytest.mark.parametrize("space", sorted(ROW_SPACES))
def test_gen_index_matches_codes_and_transvections(space):
    hs = ROW_SPACES[space]
    assert "gen_index" not in make_hyperbolic(hs.ring, 4, hs.v0).__dict__  # lazy
    position, codes, mats = hs.gen_index
    gens = list(generators(hs))
    assert list(position.items()) == [(g, k) for k, g in enumerate(gens)]
    assert codes.tolist() == gen_codes(hs, gens).tolist()
    assert mats.dtype == hs.ring.dtype
    assert mats.shape == (len(gens),) + hs.identity.arr.shape
    for g, m in zip(gens, mats):
        assert (m == gen_matrix(hs, g).arr).all()
    # the one-index letters of the symplectic V0 are not all trivial
    nontrivial = {type(g) for g, m in zip(gens, mats) if (m != hs.identity.arr).any()}
    assert nontrivial == ({Xij, Xi} if hs.v0.rank else {Xij})
    assert hs.gen_index is hs.gen_index


def test_letter_stacks_keep_their_dtypes(hs_z3v0_n4):
    # matrices in the ring's entry dtype and central parts in int64, from
    # a chooser with nonzero central parts, inverses included
    hs = hs_z3v0_n4
    ext = product_extension(hs, 3, chooser_seed=3293)
    gens = list(generators(hs))[::7]
    codes = gen_codes(hs, gens)
    elements = dict(zip(codes.tolist(), (ext.chooser(gen_matrix(hs, g)) for g in gens)))
    memo = ext.letter_memo(elements.__getitem__)
    slots = memo.slots_of(np.stack([codes, -codes]))
    mats, parts = memo.values
    assert mats.dtype == hs.ring.dtype and parts.dtype == np.int64
    for k, c in enumerate(codes.tolist()):
        for row, x in ((0, elements[c]), (1, ext.inv(elements[c]))):
            assert (mats[slots[row, k]] == x[0].arr).all() and parts[slots[row, k]] == x[1]
    assert any(parts)
    memo = steinberg.letter_memo(hs)
    memo.slots_of(codes[None])
    assert memo.values[0].dtype == hs.ring.dtype and len(memo.values[0]) == len(gens) + 1


@pytest.mark.parametrize("chunk", [256, 7, 5])
def test_section_reports_the_first_failing_case(monkeypatch, ext_z3, section_z3, chunk):
    ext = ext_z3
    monkeypatch.setattr(steinberg, "CHUNK", chunk)
    tables = [section_z3] + [mutate_section(ext, section_z3, g, delta)
                             for g in section_z3 for delta in (1, 2)]
    first_fails = set()
    for table in tables:
        got = verify_section(ext, table, stop_on_fail=True)
        assert got.to_json_lines() == _per_case_section_records(ext, table).to_json_lines()
        first_fails.update(r.check for r in got.failures())
    assert verify_section(ext, section_z3).ok
    # mutations are first caught in several families, not only at R0
    assert len(first_fails) > 1, first_fails


def test_section_sweep_builds_each_letter_once(monkeypatch, letter_calls, ext_z3,
                                               section_z3):
    # one memo per verify_section: each signed code is built once, and each
    # table entry read once
    calls = Counter()
    letter_memo = ProductExtension.letter_memo

    def counting(self, element):
        def counted(c):
            calls[c] += 1
            return element(c)

        return letter_memo(self, counted)

    monkeypatch.setattr(ProductExtension, "letter_memo", counting)
    assert verify_section(ext_z3, section_z3).ok
    assert sorted(calls) == sorted(gen_codes(ext_z3.hs, section_z3).tolist())
    assert max(calls.values()) == 1
    assert {abs(c) for c in letter_calls} == set(calls)
    assert max(letter_calls.values()) == 1


def test_dagger_builds_each_letter_once(monkeypatch, letter_calls, hs_z2_n4):
    # one memo per chooser: each signed code is built once in each memo, and
    # each chooser and each generator matrix is asked once per generator met
    hs, ext = hs_z2_n4, product_extension(hs_z2_n4, 3, chooser_seed=3293)
    memos, chooser_calls, matrix_calls = Counter(), Counter(), Counter()
    init = steinberg.LetterMemo.__init__

    def counting_init(self, *args):
        memos["built"] += 1
        init(self, *args)

    monkeypatch.setattr(steinberg.LetterMemo, "__init__", counting_init)
    for name in ("chooser", "alt_chooser"):
        def counted(self, g, chooser=getattr(ProductExtension, name), name=name):
            chooser_calls[name] += 1
            return chooser(self, g)

        monkeypatch.setattr(ProductExtension, name, counted)

    def counted_matrix(h, g):
        matrix_calls[g] += 1
        return gen_matrix(h, g)

    monkeypatch.setattr(extensions, "gen_matrix", counted_matrix)
    assert check_dagger(ext).ok
    met = {c for chunk in steinberg.family_chunks(hs, DAGGER, "dagger")
           for c in chunk[2].ravel().tolist()}
    gens = {decode_gen(hs, abs(c)) for c in met}
    assert memos["built"] == 2
    assert set(letter_calls) == met and set(letter_calls.values()) == {2}
    assert chooser_calls == {"chooser": len(gens), "alt_chooser": len(gens)}
    assert set(matrix_calls) == gens and max(matrix_calls.values()) == 1


def test_mutation_rejects_trivial_delta(ext_z2, section_z2):
    gen = next(iter(section_z2))
    with pytest.raises(ValueError):
        mutate_section(ext_z2, section_z2, gen, 2)  # 2 == 0 in Z/2


@functools.cache
def _row_tables(space, order):
    """A seeded product extension of `space` with its generators' codes and
    two code -> element tables: the chooser's preimages of the generators
    (nonzero central parts), and the section with every fifth entry mutated."""
    hs = ROW_SPACES[space]
    ext = product_extension(hs, order, chooser_seed=3293)
    gens = list(generators(hs))
    codes = gen_codes(hs, gens).tolist()
    chosen = [ext.chooser(gen_matrix(hs, g)) for g in gens]
    assert any(c for _, c in chosen)
    mutated = build_section(ext)
    for k, g in enumerate(gens[::5]):
        mutated = mutate_section(ext, mutated, g, 1 + k % (order - 1))
    return ext, codes, (dict(zip(codes, chosen)), dict(zip(codes, mutated.values())))


# derandomized and without the example database, so every run draws the
# same examples
@pytest.mark.parametrize("space, order",
                         [("hs_z2_n4", 2), ("hs_z2_n4", 3), ("hs_z3v0_n4", 3)])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_eval_rows_matches_section_eval(space, order, data):
    ext, codes, tables = _row_tables(space, order)
    table = data.draw(st.sampled_from(tables))
    by_code = [None] * (max(codes) + 1)
    for c, t in table.items():
        by_code[c] = t
    # a generator, its formal inverse or the identity letter 0
    letters = st.tuples(st.sampled_from(codes), st.sampled_from((1, -1, 0))).map(
        lambda t: t[0] * t[1])
    width = data.draw(st.integers(0, 7))
    rows = data.draw(st.lists(st.lists(letters, min_size=width, max_size=width),
                              max_size=12))
    got = ext.eval_rows(np.array(rows, dtype=np.int64).reshape(len(rows), width),
                        ext.letter_memo(table.__getitem__))
    assert got.shape == (len(rows), ext.hs.identity.arr.size + 1)
    for row, out in zip(rows, got.tolist()):
        m, c = section_eval(ext, by_code, row)
        assert out == m.arr.ravel().tolist() + [c]


def test_section_eval_is_multiplicative(ext_z2, section_z2):
    hs = ext_z2.hs
    gens = list(section_z2)
    codes = gen_codes(hs, gens).tolist()
    assert [decode_gen(hs, c) for c in codes] == gens
    by_code = [None] * (max(codes) + 1)
    for g, c in zip(gens, codes):
        by_code[c] = section_z2[g]
    # a letter is its table entry, a formal inverse the entry's inverse,
    # and 0 the identity
    for g, c in zip(gens, codes):
        assert section_eval(ext_z2, by_code, [c]) == section_z2[g]
        assert section_eval(ext_z2, by_code, [0, -c, 0]) == ext_z2.inv(section_z2[g])
    rng = random.Random(9)
    for _ in range(100):
        w1 = [rng.choice(codes) * rng.choice((1, -1)) for _ in range(3)]
        w2 = [rng.choice(codes) * rng.choice((1, -1)) for _ in range(3)]
        assert section_eval(ext_z2, by_code, w1 + w2) == ext_z2.mul(
            section_eval(ext_z2, by_code, w1),
            section_eval(ext_z2, by_code, w2),
        )
