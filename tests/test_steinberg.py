import hashlib
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddunitary import (
    Mat,
    MaxParameter,
    OddQuadraticSpace,
    Report,
    WorkbenchError,
    eu_generators,
    make_hyperbolic,
    make_ring,
    relation_instance,
    steinberg,
    u1_decompose,
    u1_uniqueness_check,
    verify_relations,
)
from oddunitary.config import build_space, parse_config
from oddunitary.generators import (
    Xi,
    Xij,
    decode_gen,
    decode_word,
    format_word,
    gen_codes,
    generators,
    parse_word,
    winv,
    wmul,
    word,
)
from oddunitary.steinberg import (
    CHUNK,
    RELATION_IDS,
    U1NormalForm,
    embed_matrix,
    eval_word,
    eval_words,
    gen_matrix,
    normal_form_word,
    perfect_witness,
    relation_cases,
    remark2_witness_search,
    sweep,
    u1_alphabet,
    validate_gen,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
Z3 = make_ring("residue", 3)
BATCH_SPACES = {
    # the Z/3 symplectic-V0 preset (configs/z3_sympl_v0.cfg)
    "z3_sympl_v0": make_hyperbolic(
        Z3, 3, OddQuadraticSpace(Z3, ((0, 1), (2, 0)), MaxParameter())),
    "z4": make_hyperbolic(make_ring("residue", 4), 2),
    "m2z2": make_hyperbolic(make_ring("matrix", 2, 2, "transpose"), 2),
}


def test_eval_empty_word_is_identity(hs_z2_n3):
    assert eval_word(hs_z2_n3, ()) == hs_z2_n3.identity


def test_eval_single_generator(hs_z2_n3):
    w = word(Xij(1, 2, 1))
    assert eval_word(hs_z2_n3, w) == hs_z2_n3.transvection_ij(1, 2, 1)


def test_eval_r1_char2(hs_z2_n3):
    w = word(Xij(1, 2, 1), Xij(1, 2, 1))
    assert eval_word(hs_z2_n3, w) == hs_z2_n3.identity


def test_eval_is_homomorphism(hs_z3_n3):
    rng = random.Random(11)
    gens = [g for g, _ in eu_generators(hs_z3_n3)]
    for _ in range(40):
        w1 = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(4))
        w2 = tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(4))
        assert eval_word(hs_z3_n3, wmul(w1, w2)) == eval_word(
            hs_z3_n3, w1
        ) * eval_word(hs_z3_n3, w2)
        assert eval_word(hs_z3_n3, winv(w1)) == eval_word(hs_z3_n3, w1).inv()


def test_validate_gen(hs_z2_n3):
    validate_gen(hs_z2_n3, Xij(1, -2, 1))
    validate_gen(hs_z2_n3, Xi(1, ((), 0)))
    with pytest.raises(ValueError):
        validate_gen(hs_z2_n3, Xij(1, 1, 1))
    with pytest.raises(WorkbenchError):
        validate_gen(hs_z2_n3, Xi(1, ((), 1)))


def test_relation_instance_r1(hs_z3_n3):
    lhs, rhs = relation_instance(hs_z3_n3, "R1", (1, 2, 1, 2))
    assert lhs == word(Xij(1, 2, 1), Xij(1, 2, 2))
    assert rhs == word(Xij(1, 2, 0))


def test_relation_instance_r0(hs_z3n_n3):
    # rhs argument is eps_-2 bar(a) eps_1 = (-1)(-a)(lam^-1)
    lhs, rhs = relation_instance(hs_z3n_n3, "R0", (1, 2, 1))
    r = hs_z3n_n3.ring
    expected = r.prod(hs_z3n_n3.eps(-2), r.bar(1), hs_z3n_n3.eps(1))
    assert rhs == word(Xij(-2, -1, expected))


def test_relation_instance_r2_trivial(hs_z2_n3):
    xi = hs_z2_n3.v0.heis_identity
    lhs, rhs = relation_instance(hs_z2_n3, "R2", (1, xi, xi))
    assert eval_word(hs_z2_n3, lhs) == eval_word(hs_z2_n3, rhs) == hs_z2_n3.identity


def test_relation_side_conditions_raise(hs_z2_n3):
    with pytest.raises(ValueError):
        relation_instance(hs_z2_n3, "R3", (1, 2, 2, 1, 1, 1))  # h = j
    with pytest.raises(ValueError):
        relation_instance(hs_z2_n3, "R5", (1, 2, -1, 1, 1))
    with pytest.raises(ValueError):
        relation_instance(hs_z2_n3, "Rx", ())
    with pytest.raises(ValueError):
        relation_instance(hs_z2_n3, "R0", (1, 1, 1))  # j = i
    with pytest.raises(ValueError):
        relation_instance(hs_z2_n3, "R1", (1, -1, 1, 1))  # j = -i


def test_relation_instance_rejects_params_outside_their_domains(
        hs_z2_n3, hs_z3_n3, hs_rich, m2z2):
    # out-of-range scalars and indices once aliased other generators
    hs_m2 = make_hyperbolic(m2z2, 3)
    one = m2z2.one
    assert relation_instance(hs_m2, "R1", (1, 2, ((0, 1), (1, 1)), one))
    for hs, rid, params in [
        (hs_z3_n3, "R1", (1, 2, 5, 1)),
        (hs_z3_n3, "R1", (1, 2, -1, 1)),
        (hs_z2_n3, "R1", (5, 1, 1, 1)),
        (hs_z2_n3, "R1", (0, 1, 1, 1)),
        (hs_z2_n3, "R0", (1, 4, 1)),
        (hs_z2_n3, "R2", (1, ((), 0), ((), 1))),  # ((), 1) is not in l0
        (hs_rich, "R4", (1, 2, 3, ((0, 0), 3), 2)),
        (hs_rich, "R2", (1, hs_rich.l0[0], ((0, 5), 0))),
        (hs_rich, "R4", (1, 2, 3, hs_rich.l0[0], 3)),
        (hs_m2, "R1", (1, 2, ((0, 1), (1, 2)), one)),
        (hs_m2, "R1", (1, 2, ((0, 1),), one)),
        (hs_m2, "R1", (1, 2, 1, one)),
    ]:
        with pytest.raises(ValueError):
            relation_instance(hs, rid, params)


def test_relation_instance_r4_params_are_indices_then_arguments(hs_rich):
    xi = hs_rich.l0[-1]
    lhs, rhs = relation_instance(hs_rich, "R4", (1, 2, 3, xi, 2))
    assert lhs[0] == (Xi(1, xi), 1)
    assert lhs[1] == (Xij(2, 3, 2), 1)
    assert rhs == ()


# Instance count and sha256(repr([(lhs, rhs), ...]))[:12] per family, as
# produced before the families became one table: exhaustive on Z/2 with
# n = 4, then seed 3293 with 64 samples on Z/2 (n = 4) and on M_2(Z/2)
# with transpose (n = 3).
PINNED_CASE_STREAMS = {
    "R0": (96, "e62779ddb391", "4fe3ffdddaf3", "6a998db94b7d"),
    "R1": (192, "5728a2458126", "e97285cbcc1f", "82837cabf8d8"),
    "R2": (8, "6548d6f300fc", "d1ec04aa2f1a", "2047fdfcfcfe"),
    "R3": (4992, "e4cada7170d0", "a62771eecc8a", "8c09ef08adf7"),
    "R4": (576, "bfc9b7bd03e7", "a39910642c5c", "7b35691250b3"),
    "R5": (768, "b47731b38a08", "94390e8dc57f", "0f27b5266f5d"),
    "R6": (48, "3b52df8365a6", "dc2aa4cd29b3", "fdcea0e41b14"),
    "R7": (8, "f8052d976419", "bc480a9d7847", "b0a228ad824c"),
    "R8": (96, "95276bbf4782", "ad0dab7bf5c4", "d25e06e3db6c"),
    "R9": (192, "e8c9516a4d07", "2404ba9e1ce0", "d4e8dfd3112e"),
}


def test_case_streams_are_pinned(hs_z2_n4, m2z2):
    hs_m2 = make_hyperbolic(m2z2, 3)

    def digest(cases):
        sides = [(lhs, rhs) for _, lhs, rhs in cases]
        return len(sides), hashlib.sha256(repr(sides).encode()).hexdigest()[:12]

    for rid, expected in PINNED_CASE_STREAMS.items():
        got = (
            *digest(relation_cases(hs_z2_n4, rid)),
            digest(relation_cases(hs_z2_n4, rid, "sampled", 3293, 64))[1],
            digest(relation_cases(hs_m2, rid, "sampled", 3293, 64))[1],
        )
        assert got == expected, rid


# The same digest on streams whose V0 is not zero, so B(u, v), heis_add and
# heis_act feed the words: exhaustive on configs/z3_sympl_v0.cfg (39,060
# cases), then seed 3293 with 64 samples on configs/z3neg_n3.cfg and on
# M_2(Z/2) with transpose, n = 3 and a rank-1 V0 with Gram ((0,1),(1,0))
# under the maximal parameter (128 one-index arguments).
PINNED_V0_CASE_STREAMS = {
    "R0": (72, "9aa1a2d310a1", "71f82550bf56", "6a998db94b7d"),
    "R1": (216, "f1d20919dc28", "9ff2610229f2", "82837cabf8d8"),
    "R2": (4374, "6e18777e4c97", "8ecfd70630bd", "b38ee00e8d96"),
    "R3": (2160, "37afce12910c", "d02059fcd850", "8c09ef08adf7"),
    "R4": (7776, "3927eb50b0ea", "9b829db9d6a6", "b9f5dcfa3c5c"),
    "R5": (432, "31201e84fd0a", "07ef543cebdc", "0f27b5266f5d"),
    "R6": (17496, "651fd35b67c0", "fb027df279da", "e3cb073ece23"),
    "R7": (4374, "f84be0b3a208", "0a83802f92f1", "912cb8d76abf"),
    "R8": (1944, "33655f939c9a", "93cfc28a75d2", "ec493ff68a4e"),
    "R9": (216, "988e4ae3aeb8", "652b02eb7a1a", "d65e85b085a6"),
}


def test_v0_case_streams_are_pinned(m2z2):
    def preset(name):
        return build_space(parse_config((CONFIGS / f"{name}.cfg").read_text()))

    z3v0, z3n = preset("z3_sympl_v0"), preset("z3neg_n3")
    hm = make_hyperbolic(
        m2z2, 3, OddQuadraticSpace(m2z2, ((((0, 1), (1, 0)),),), MaxParameter()))
    assert len(hm.l0) == 128

    def digest(cases):
        sides = [(lhs, rhs) for _, lhs, rhs in cases]
        return len(sides), hashlib.sha256(repr(sides).encode()).hexdigest()[:12]

    for rid, expected in PINNED_V0_CASE_STREAMS.items():
        got = (
            *digest(relation_cases(z3v0, rid)),
            digest(relation_cases(z3n, rid, "sampled", 3293, 64))[1],
            digest(relation_cases(hm, rid, "sampled", 3293, 64))[1],
        )
        assert got == expected, rid
    assert verify_relations(hm, "sampled", 3293, 64).ok


@pytest.mark.parametrize("preset", ["z2", "z3n", "z3", "rich"])
def test_relations_exhaustive(preset, hs_z2_n3, hs_z3n_n3, hs_z3_n3, hs_rich):
    hs = {"z2": hs_z2_n3, "z3n": hs_z3n_n3, "z3": hs_z3_n3, "rich": hs_rich}[preset]
    rep = verify_relations(hs)
    assert rep.ok, rep.to_json_lines()


def test_relations_sampled_n4(hs_z2_n4):
    rep = verify_relations(hs_z2_n4, strategy="sampled", seed=3293, samples=64)
    assert rep.ok


def test_relations_exhaustive_n4(hs_z2_n4, z3n):
    assert verify_relations(hs_z2_n4).ok
    assert verify_relations(make_hyperbolic(z3n, 4)).ok


def test_corrupted_representation_fails_r5(hs_z3_n3):
    hs = hs_z3_n3

    def corrupted(gen):
        if isinstance(gen, Xij) and (gen.i, gen.j) == (1, 3):
            return hs.transvection_ij(1, 3, hs.ring.neg(gen.a))  # wrong sign
        return gen_matrix(hs, gen)

    rep = verify_relations(hs, rep=corrupted, relation_ids=("R5",))
    assert not rep.ok
    assert rep.failures()[0].check == "relations.R5"
    assert rep.failures()[0].witness.startswith("R5")


def _per_case_records(hs, rep=None):
    """The relation records of a case-by-case sweep, two eval_word calls per
    case: the reference for the batched sweep."""
    report, cache = Report(), {}
    for rid in RELATION_IDS:
        sweep(report, f"relations.{rid}", relation_cases(hs, rid),
              lambda c: eval_word(hs, c[1], rep, cache) == eval_word(hs, c[2], rep, cache),
              lambda c: f"{rid}{c[0]!r}")
    return report


@pytest.mark.parametrize("chunk", [CHUNK, 161, 7, 5])
def test_batched_sweep_reports_the_first_failing_case(monkeypatch, hs_z2_n3, chunk):
    hs = hs_z2_n3
    wrong = hs.transvection_ij(1, 2, 1)

    def corrupted(gen):
        return wrong if isinstance(gen, Xi) and gen.i == -1 else gen_matrix(hs, gen)

    monkeypatch.setattr(steinberg, "CHUNK", chunk)
    got = verify_relations(hs, rep=corrupted)
    assert got.to_json_lines() == _per_case_records(hs, corrupted).to_json_lines()
    fails = {r.check: r.witness for r in got.failures()}
    # R4 first fails at its case 161, the first case of a later chunk when
    # the chunk size divides 161; R2 and R7 first fail at their last case
    # (the sixth), the only one with X_-1
    assert fails["relations.R4"] == "R4(-1, 2, 1, ((), 0), 1)"
    assert fails["relations.R2"] == "R2(-1, ((), 0), ((), 0))"
    assert fails["relations.R7"] == "R7(-1, ((), 0), ((), 0))"
    assert [r.witness for r in got if r.status == "pass"] == [
        "48 instances", "96 instances", "960 instances", "192 instances",
        "24 instances"]


# derandomized and without the example database, so every run draws the
# same examples
@pytest.mark.parametrize("space", BATCH_SPACES)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_eval_words_matches_eval_word(space, data):
    hs = BATCH_SPACES[space]
    letters = st.tuples(st.sampled_from(list(generators(hs))), st.sampled_from((1, -1)))
    words = data.draw(st.lists(st.lists(letters, max_size=7).map(tuple), max_size=12))
    width = max(map(len, words), default=0)
    # one row of letter codes per word, padded with the identity letter 0
    codes = np.zeros((len(words), width), dtype=np.int64)
    for row, w in zip(codes, words):
        row[:len(w)] = gen_codes(hs, [g for g, _ in w]) * [e for _, e in w]
        assert decode_word(hs, row) == w
    got = eval_words(hs, codes)
    assert got.shape == (len(words),) + hs.identity.arr.shape
    assert got.dtype == hs.identity.arr.dtype
    for w, arr in zip(words, got):
        assert Mat(hs.ring, arr) == eval_word(hs, w)


@pytest.mark.parametrize("space", BATCH_SPACES)
def test_letter_codes_round_trip(space):
    hs = BATCH_SPACES[space]
    gens = list(generators(hs))
    codes = gen_codes(hs, gens)
    # distinct positive codes, each decoding to its generator
    assert len(set(codes.tolist())) == len(gens) and codes.min() > 0
    assert [decode_gen(hs, c) for c in codes.tolist()] == gens


def test_letter_codes_past_int64_raise(z3):
    # 3^41 one-index arguments per index: the codes do not fit in int64
    wide = OddQuadraticSpace(z3, tuple(tuple(0 for _ in range(40)) for _ in range(40)))
    hs = make_hyperbolic(z3, 3, wide)
    with pytest.raises(WorkbenchError, match="exceed int64"):
        gen_codes(hs, [Xij(1, 2, 1)])


def test_exhaustive_matrix_ring_counts():
    # M_2(Z/2) with transpose at n = 3: 90,384 instances in all
    hs = make_hyperbolic(make_ring("matrix", 2, 2, "transpose"), 3)
    rep = verify_relations(hs)
    assert [(r.check, r.status) for r in rep] == [
        (f"relations.{rid}", "pass") for rid in RELATION_IDS]
    counts = [int(r.witness.split()[0]) for r in rep]
    assert counts == [384, 6144, 24, 61440, 3072, 12288, 96, 24, 768, 6144]
    assert sum(counts) == 90384


def test_remark1_consequences(hs_z3_n3):
    hs = hs_z3_n3
    assert eval_word(hs, word(Xij(2, -1, 0))).is_identity()
    for xi in hs.l0:
        neg = hs.v0.heis_neg(xi)
        assert eval_word(hs, word(Xi(2, neg))) == eval_word(
            hs, word(Xi(2, xi))
        ).inv()


def test_remark2_witness(hs_rich, hs_z2_n3):
    # the rich preset has an asymmetric form on V0, so a witness exists
    found = remark2_witness_search(hs_rich)
    assert found is not None
    i, xi, zeta = found
    lhs = eval_word(
        hs_rich,
        wmul(word(Xi(i, xi), Xi(i, zeta)), winv(word(Xi(i, xi))), winv(word(Xi(i, zeta)))),
    )
    assert not lhs.is_identity()
    # over Z/2 with trivial parameter everything commutes
    assert remark2_witness_search(hs_z2_n3) is None


# -- U1 normal form ----------------------------------------------------------


def test_u1_decompose_r1_collapse(hs_z3_n3):
    w = word(Xij(3, 1, 1), Xij(3, 1, 1))
    nf = u1_decompose(hs_z3_n3, w)
    assert nf.zeta == hs_z3_n3.v0.heis_identity
    assert dict(nf.coeffs)[1] == 2
    assert all(v == 0 for i, v in nf.coeffs if i != 1)


def test_u1_decompose_empty(hs_z3_n3):
    nf = u1_decompose(hs_z3_n3, ())
    assert nf.zeta == hs_z3_n3.v0.heis_identity
    assert all(v == 0 for _, v in nf.coeffs)


def test_u1_decompose_swap_preserves_eval(hs_z2_n3):
    w = word(Xij(3, -1, 1), Xij(3, 1, 1))
    nf = u1_decompose(hs_z2_n3, w)
    assert eval_word(hs_z2_n3, normal_form_word(hs_z2_n3, nf)) == eval_word(
        hs_z2_n3, w
    )


def test_u1_decompose_rejects_foreign_generators(hs_z2_n3):
    with pytest.raises(ValueError):
        u1_decompose(hs_z2_n3, word(Xij(1, 2, 1)))


def test_u1_decompose_random_words_all_presets(
    hs_z2_n3, hs_z3_n3, hs_z3n_n3, hs_rich
):
    for hs in (hs_z2_n3, hs_z3_n3, hs_z3n_n3, hs_rich):
        alpha = u1_alphabet(hs)
        rng = random.Random(23)
        for _ in range(300):
            w = tuple(
                (rng.choice(alpha), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 8))
            )
            nf = u1_decompose(hs, w)
            nfw = normal_form_word(hs, nf)
            assert eval_word(hs, nfw) == eval_word(hs, w)
            assert u1_decompose(hs, nfw) == nf  # idempotent


def test_u1_uniqueness_check(hs_z2_n3):
    w1 = word(Xij(3, 1, 1))
    assert u1_uniqueness_check(hs_z2_n3, w1, w1)
    w2 = wmul(w1, word(Xij(3, 1, 1), Xij(3, 1, 1)))  # append a trivial square
    assert u1_uniqueness_check(hs_z2_n3, w1, w2)
    w3 = word(Xij(3, 2, 1))
    assert u1_uniqueness_check(hs_z2_n3, w1, w3)


def test_u1_distinct_normal_forms_have_distinct_evals(hs_z3_n3):
    hs = hs_z3_n3
    order = [i for i in hs.omega if i not in (hs.n, -hs.n)]
    seen = {}
    for zeta in hs.l0:
        for a1 in hs.ring.elements():
            for am1 in hs.ring.elements():
                coeffs = tuple(
                    (i, a1 if i == 1 else am1 if i == -1 else 0) for i in order
                )
                nf = U1NormalForm(zeta, coeffs)
                key = eval_word(hs, normal_form_word(hs, nf)).key()
                assert key not in seen or seen[key] == nf
                seen[key] = nf


# -- perfectness and stabilization -------------------------------------------


def test_perfect_witness_examples(hs_z3_n3):
    hs = hs_z3_n3
    # the minimal admissible witness index for X_13(a) is 2
    assert perfect_witness(hs, Xij(1, 3, 2)) == wmul(
        word(Xij(1, 2, 2), Xij(2, 3, 1)),
        winv(word(Xij(1, 2, 2))),
        winv(word(Xij(2, 3, 1))),
    )
    assert perfect_witness(hs, Xij(1, 2, 0)) == ()
    assert perfect_witness(hs, Xi(1, hs.v0.heis_identity)) == ()


def test_perfect_witnesses_evaluate(hs_z3_n3, hs_rich):
    for hs in (hs_z3_n3, hs_rich):
        cache = {}
        for gen, mat in eu_generators(hs):
            assert eval_word(hs, perfect_witness(hs, gen), cache=cache) == mat


def test_stabilize(hs_z2_n3, hs_z2_n4, z2):
    # rank stabilization is the identity on words
    w = word(Xij(1, 2, 1))
    assert eval_word(hs_z2_n4, w) == embed_matrix(
        hs_z2_n3, hs_z2_n4, eval_word(hs_z2_n3, w)
    )


def test_stabilized_relations_still_hold(hs_z2_n3, hs_z2_n4):
    for rid in ("R1", "R5", "R9"):
        _, lhs, rhs = next(relation_cases(hs_z2_n3, rid))
        assert eval_word(hs_z2_n4, lhs) == eval_word(hs_z2_n4, rhs)


# -- word grammar -------------------------------------------------------------


def test_word_tokens_roundtrip(hs_z2_n3, hs_rich):
    w = word(Xij(3, 1, 1), Xij(3, -1, 1), Xi(3, hs_z2_n3.v0.heis_identity))
    text = format_word(w, hs_z2_n3)
    assert text == "X31(1) X3-1(1) X3(;0)"
    assert parse_word(text, hs_z2_n3) == w

    xi = hs_rich.l0[-1]
    w2 = wmul(word(Xi(-2, xi)), winv(word(Xij(1, -3, 2))))
    text2 = format_word(w2, hs_rich)
    assert parse_word(text2, hs_rich) == w2


@pytest.mark.parametrize("n", range(1, 13))
def test_word_tokens_roundtrip_every_rank(n, z3, hs_rich):
    # two-digit indices get a comma (X10,1); one-digit ones stay glued (X31)
    hs = make_hyperbolic(z3, n, hs_rich.v0)
    w = tuple((g, e) for g in generators(hs) for e in (1, -1))
    text = format_word(w, hs)
    assert parse_word(text, hs) == w
    assert (f"X{n},1(0)" in text.split()) == (n > 9)


def test_parse_word_rejects_garbage(hs_z2_n3):
    with pytest.raises(ValueError):
        parse_word("Y12(1)", hs_z2_n3)
    with pytest.raises(ValueError):
        parse_word("X123(1)", hs_z2_n3)
