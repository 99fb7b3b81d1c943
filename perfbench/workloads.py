"""The three benchmark workloads: inputs from a seed, and one pass of verdicts.

Each workload is a fixed batch of exact verifications, split into named
items that run in order.  A pass runs every item once and returns the
amount of work it checked; every verdict goes through the gate, which
compares it with the known answer from `known`.

The seed chooses words and choices (generator order, sampled relation
instances, chooser seeds, the order of mutations); the known answers do
not depend on it.

All package calls go through module attributes (`hyperbolic.enumerate_eu`,
not a name imported into this file), so the traced run sees them.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import nullcontext
from types import SimpleNamespace

import known
from oddunitary import config, extensions, freewords, hyperbolic, rings, steinberg

U1_WORDS = 400
U1_WORD_LEN = 16
MEMBERS = 20
SAMPLES_M2 = 64
SPLIT_ORDERS = (2, 3)


# -- closure ------------------------------------------------------------------


def setup_closure(seed):
    rng = random.Random(f"{seed}|closure")
    z2 = rings.make_ring("residue", 2)
    z3 = rings.make_ring("residue", 3)
    hs6 = hyperbolic.make_hyperbolic(z2, 3)
    hs4 = hyperbolic.make_hyperbolic(z3, 2)
    g6 = hyperbolic.eu_generators(hs6)
    g4 = hyperbolic.eu_generators(hs4)
    rng.shuffle(g6)
    rng.shuffle(g4)
    # the U1 pair: every generator whose first index is +-n
    u1 = [m for g, m in g6 if g.i in (hs6.n, -hs6.n)]
    return SimpleNamespace(hs6=hs6, hs4=hs4, g6=g6, g4=g4, u1=u1)


def _eu6(inp, state, gate, work):
    cl = hyperbolic.enumerate_eu(inp.hs6, gens=inp.g6)
    gate.expect("closure.eu6_z2.order", known.omega_plus_order(3, 2), cl.order)
    state["eu6"] = set(cl.keys())
    work["work"] += cl.order


def _sp4(inp, state, gate, work):
    cl = hyperbolic.enumerate_eu(inp.hs4, gens=inp.g4)
    gate.expect("closure.sp4_z3.order", known.sp_order(2, 3), cl.order)
    work["work"] += cl.order


def _commutators(inp, state, gate, work):
    cc = hyperbolic.commutator_closure(inp.hs6, gens=inp.g6)
    gate.expect("closure.commutators_equal_eu6", True, set(cc) == state["eu6"])
    work["work"] += len(cc)


def _u1_pair(inp, state, gate, work):
    sub = hyperbolic.subgroup_closure(inp.hs6, inp.u1)
    gate.expect("closure.u1_pair_equals_eu6", True, set(sub) == state["eu6"])
    work["work"] += len(sub)


# -- relations ----------------------------------------------------------------


def setup_relations(seed):
    rng = random.Random(f"{seed}|relations")
    hs = config.build_space(config.parse_config(known.Z3_SYMPL_V0_CFG))
    m2 = rings.make_ring("matrix", 2, 2, "transpose")
    hm = hyperbolic.make_hyperbolic(m2, 3)
    members = [m for _, m in rng.sample(hyperbolic.eu_generators(hs), MEMBERS)]
    alphabet = steinberg.u1_alphabet(hs)
    words = [
        tuple((rng.choice(alphabet), rng.choice((1, -1))) for _ in range(U1_WORD_LEN))
        for _ in range(U1_WORDS)
    ]
    sp = known.Z3_SYMPL_V0
    counts = known.relation_counts(
        sp["n"], sp["q"], known.v0_parameter_size(sp["q"], sp["gram"])
    )
    return SimpleNamespace(seed=seed, hs=hs, hm=hm, members=members, words=words,
                           counts=counts)


def _exhaustive_z3(inp, state, gate, work):
    rep = steinberg.verify_relations(inp.hs)
    work["work"] += gate.report(rep, inp.counts)


def _sampled_m2(inp, state, gate, work):
    rep = steinberg.verify_relations(inp.hm, "sampled", inp.seed, SAMPLES_M2)
    work["work"] += gate.report(rep, {rid: SAMPLES_M2 for rid in known.RELATION_IDS})


def _members(inp, state, gate, work):
    for k, m in enumerate(inp.members):
        gate.expect(f"relations.unitary_member[{k}]", True,
                    hyperbolic.unitary_member(inp.hs, m))
    work["work"] += len(inp.members)


def _u1_words(inp, state, gate, work):
    hs, cache = inp.hs, {}
    for k, w in enumerate(inp.words):
        nf = steinberg.normal_form_word(hs, steinberg.u1_decompose(hs, w))
        same = (steinberg.eval_word(hs, w, cache=cache)
                == steinberg.eval_word(hs, nf, cache=cache))
        gate.expect(f"relations.u1_normal_form[{k}]", True, same)
    work["work"] += len(inp.words)


def _identities(inp, state, gate, work):
    gate.report(freewords.verify_identities(inp.seed))


# -- splitting ----------------------------------------------------------------


def setup_splitting(seed):
    hs = hyperbolic.make_hyperbolic(rings.make_ring("residue", 2), 4)
    exts = {
        order: (extensions.product_extension(hs, order),
                extensions.product_extension(hs, order, chooser_seed=seed))
        for order in SPLIT_ORDERS
    }
    return SimpleNamespace(seed=seed, hs=hs, exts=exts,
                           dagger=known.dagger_count(4, 2),
                           counts=known.relation_counts(4, 2, 1),
                           table_size=known.section_entries(4, 2, 1))


def mutation_order(seed, order, table):
    """The section entries in the seeded order in which they are mutated."""
    entries = list(table)
    random.Random(f"{seed}|mutations|{order}").shuffle(entries)
    return entries


def _split_items(order):
    def dagger(inp, state, gate, work):
        rep = extensions.check_dagger(inp.exts[order][0])
        work["work"] += gate.report(rep, {"dagger": inp.dagger})

    def section(inp, state, gate, work):
        ext, ext_rand = inp.exts[order]
        table = extensions.build_section(ext)
        table_rand = extensions.build_section(ext_rand)
        gate.expect(f"section.z{order}.entries", inp.table_size, len(table))
        gate.expect(f"section.z{order}.choosers_agree", True, table == table_rand)
        state["table"] = table

    def verify(inp, state, gate, work):
        rep = extensions.verify_section(inp.exts[order][0], state["table"])
        work["work"] += gate.report(rep, inp.counts)

    def mutations(inp, state, gate, work):
        ext, table = inp.exts[order][0], state["table"]
        for g in mutation_order(inp.seed, order, table):
            for delta in range(1, order):
                bad = extensions.mutate_section(ext, table, g, delta)
                rep = extensions.verify_section(ext, bad, stop_on_fail=True)
                gate.expect(f"section.z{order}.mutation_detected[{g!r},{delta}]",
                            False, rep.ok)
                work["work"] += 1
                work["mutations"] += 1
                work["mutations_detected"] += not rep.ok

    def agreement(inp, state, gate, work):
        gate.report(extensions.chooser_agreement(inp.hs, order, inp.seed))

    return [(f"dagger_z{order}", dagger), (f"section_z{order}", section),
            (f"verify_z{order}", verify), (f"mutations_z{order}", mutations),
            (f"agreement_z{order}", agreement)]


SETUP = {
    "closure": setup_closure,
    "relations": setup_relations,
    "splitting": setup_splitting,
}

ITEMS = {
    "closure": [("eu6_z2", _eu6), ("sp4_z3", _sp4),
                ("commutators_z2", _commutators), ("u1_pair_z2", _u1_pair)],
    "relations": [("exhaustive_z3", _exhaustive_z3), ("sampled_m2", _sampled_m2),
                  ("unitary_z3", _members), ("u1_words_z3", _u1_words),
                  ("identities", _identities)],
    "splitting": [item for order in SPLIT_ORDERS for item in _split_items(order)],
}


def setup(workload, seed):
    """Build the workload's inputs; the same seed gives the same inputs."""
    return SETUP[workload](seed)


def run_pass(workload, inputs, gate, around=None) -> Counter:
    """Run every item once; `around(name)` may wrap each item (tracing)."""
    work = Counter()
    state = {}
    for name, item in ITEMS[workload]:
        with around(name) if around else nullcontext():
            item(inputs, state, gate, work)
    return work
