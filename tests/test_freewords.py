import random

import pytest

from oddunitary import freewords
from oddunitary.freewords import (
    IDENTITIES,
    IDENTITY_IDS,
    Identity,
    comm,
    conj,
    random_assignment,
    reduce_word,
    substitute,
    verify_identities,
    verify_identity,
)
from oddunitary.generators import winv as inverse, wmul as concat, word as gen

x, y = gen("x"), gen("y")


def test_reduce_examples():
    assert reduce_word(concat(x, inverse(x))) == ()
    assert reduce_word(concat(x, y, inverse(y), x)) == (("x", 1), ("x", 1))
    c = comm(x, y)
    assert reduce_word(concat(c, inverse(c))) == ()


def test_reduce_idempotent_and_nonincreasing():
    rng = random.Random(5)
    for _ in range(200):
        w = tuple(
            (rng.choice("abc"), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))
        )
        r = reduce_word(w)
        assert reduce_word(r) == r
        assert len(r) <= len(w)


def test_conj_comm_examples():
    assert comm(x, x) == ()
    assert conj((), y) == y  # conjugating by the empty word
    assert reduce_word(concat(comm(y, x), comm(x, y))) == ()
    assert comm(y, x) == inverse(comm(x, y))


@pytest.mark.parametrize("cid", IDENTITY_IDS)
def test_identities_with_letters(cid):
    assert verify_identity(cid)


def test_c3_all_supported_lengths():
    for m in range(2, 9):
        assert verify_identity("C3", m=m)
    with pytest.raises(ValueError):
        verify_identity("C3", m=9)


def test_unknown_identity():
    with pytest.raises(ValueError):
        verify_identity("C7")


@pytest.mark.parametrize("cid", IDENTITY_IDS)
def test_identities_under_random_substitution(cid):
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(2, 8) if cid == "C3" else 4
        assignment = random_assignment(cid, rng, m)
        assert verify_identity(cid, assignment, m=m)


def test_verify_identities_report():
    rep = verify_identities(seed=3293)
    assert rep.ok
    assert len(rep) == 6
    # C3 checks its letters at m = 2..8, the others at m = 4, then 100 words
    assert [(r.witness, r.seed) for r in rep] == [
        (f"{101 + 6 * (cid == 'C3')} substitutions", 3293)
        for cid in ("C1", "C2", "C3", "C4", "C5", "C6")]


def test_failing_identity_names_m_and_substitution(monkeypatch):
    monkeypatch.setattr(freewords, "verify_identity", lambda cid, a, m: m != 3)
    rep = verify_identities(seed=3293)
    assert [r.check for r in rep.failures()] == ["freewords.C3"]
    assert rep.failures()[0].witness.startswith("m=3, {'x': (('x', 1),), 'y1': ")


def test_substitute_is_homomorphism():
    rng = random.Random(3)
    assignment = {v: random_assignment("C1", rng)[v] for v in ("x", "y", "z")}
    w1 = comm(gen("x"), gen("y"))
    w2 = conj(gen("z"), gen("x"))
    lhs = substitute(reduce_word(concat(w1, w2)), assignment)
    rhs = reduce_word(concat(substitute(w1, assignment), substitute(w2, assignment)))
    assert lhs == rhs


def test_each_identity_and_length_builds_its_sides_once():
    freewords._sides.cache_clear()
    rep = verify_identities(seed=3293)
    assert rep.ok
    # one length for each of five identities, seven for C3
    assert freewords._sides.cache_info().misses == 12 == sum(
        len(identity.ms) for identity in IDENTITIES.values())


@pytest.mark.parametrize("cid", IDENTITY_IDS)
def test_a_wrong_side_fails_only_its_identity(monkeypatch, cid):
    right = IDENTITIES[cid]
    # the right-hand side times the first letter's word: never equal
    monkeypatch.setitem(IDENTITIES, cid, Identity(right.ms, right.letters, lambda *ws: (
        right.sides(*ws)[0], concat(right.sides(*ws)[1], ws[0]))))
    rep = verify_identities(seed=3293)
    assert [r.check for r in rep.failures()] == [f"freewords.{cid}"]
    assert [r.status for r in rep] == ["fail" if r.check == f"freewords.{cid}" else "pass"
                                       for r in rep]
    m = right.ms[0]
    assert rep.failures()[0].witness == "m={}, {!r}".format(
        m, {v: gen(v) for v in right.letters(m)})
    assert not verify_identity(cid, m=m)
