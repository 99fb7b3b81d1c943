"""Tests of the benchmark itself: seeded inputs, known answers, the gate.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import known  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from oddunitary import extensions  # noqa: E402


def _fingerprint(workload, inp):
    """Everything the seed chooses, in a comparable form."""
    if workload == "closure":
        return ([repr(g) for g, _ in inp.g6], [repr(g) for g, _ in inp.g4],
                [m.key() for m in inp.u1])
    if workload == "relations":
        return [m.key() for m in inp.members], repr(inp.words)
    return inp.seed, [ext.chooser_seed for pair in inp.exts.values() for ext in pair]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = workloads.setup(workload, 3293)
    b = workloads.setup(workload, 3293)
    assert _fingerprint(workload, a) == _fingerprint(workload, b)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_other_seed_other_inputs(workload):
    a = workloads.setup(workload, 3293)
    b = workloads.setup(workload, 7)
    assert _fingerprint(workload, a) != _fingerprint(workload, b)


def test_other_seed_other_mutation_order():
    table = {k: None for k in range(104)}
    assert (workloads.mutation_order(3293, 3, table)
            == workloads.mutation_order(3293, 3, table))
    assert (workloads.mutation_order(3293, 3, table)
            != workloads.mutation_order(7, 3, table))


def _run_items(workload, seed, names):
    inp = workloads.setup(workload, seed)
    gate, state, work = known.Gate(), {}, Counter()
    for name, item in workloads.ITEMS[workload]:
        if name in names:
            item(inp, state, gate, work)
    return gate, work


@pytest.mark.parametrize("workload,names", [
    ("relations", {"unitary_z3", "u1_words_z3", "identities"}),
    ("splitting", {"section_z2", "verify_z2", "mutations_z2", "agreement_z2"}),
])
def test_other_seed_same_known_answers(workload, names):
    results = []
    for seed in (3293, 7):
        gate, work = _run_items(workload, seed, names)
        assert gate.failed == 0, gate.failures()
        results.append((gate.attempted, dict(work)))
    assert results[0] == results[1]


def test_known_answers():
    assert known.omega_plus_order(3, 2) == 20160
    assert known.omega_plus_order(2, 2) == 36
    assert known.sp_order(2, 3) == 51840
    sp = known.Z3_SYMPL_V0
    l0 = known.v0_parameter_size(sp["q"], sp["gram"])
    assert l0 == 27
    assert sum(known.relation_counts(3, 3, l0).values()) == 39060
    assert sum(known.relation_counts(4, 2, 1).values()) == 6976
    assert known.dagger_count(4, 2) == 1536
    assert known.section_entries(4, 2, 1) == 104


def test_small_closure_matches_formula():
    from oddunitary import enumerate_eu, make_hyperbolic, make_ring

    hs = make_hyperbolic(make_ring("residue", 2), 2)
    assert enumerate_eu(hs).order == known.omega_plus_order(2, 2)


def test_gate_counts_disagreeing_instances():
    from oddunitary.report import Report

    rep = Report()
    rep.add("relations.R0", "pass", witness="72 instances")
    rep.add("relations.R1", "pass", witness="215 instances")
    rep.add("relations.R2", "fail", witness="R2(...)")
    gate = known.Gate()
    assert gate.report(rep, {"R0": 72, "R1": 216, "R2": 4374}) == 287
    assert gate.failed == 2 and gate.attempted == 3


def test_wrong_expected_order_fails_the_run(monkeypatch, capsys):
    """Negative control: a wrong known answer must fail the gate and the exit."""
    monkeypatch.setattr(known, "omega_plus_order", lambda n, q: 20161)
    monkeypatch.setitem(workloads.ITEMS, "closure", workloads.ITEMS["closure"][:1])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "closure", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_mutated_table_fed_as_correct_fails_the_gate():
    """Negative control: a section table with one mutated entry."""
    inp = workloads.setup("splitting", 3293)
    items = dict(workloads.ITEMS["splitting"])
    gate, state, work = known.Gate(), {}, Counter()
    items["section_z2"](inp, state, gate, work)
    assert gate.failed == 0
    ext = inp.exts[2][0]
    entry = next(iter(state["table"]))
    state["table"] = extensions.mutate_section(ext, state["table"], entry, 1)
    items["verify_z2"](inp, state, gate, work)
    assert gate.failed > 0
    assert gate.fail_share > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.SETUP) == list(workloads.ITEMS) == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    for m in spec["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    assert [m["name"] for m in spec["per_layer"]] == list(spans.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == spans.PER_LAYER[m["name"]]


def _traced_counts():
    """Count metrics of a traced pass over the cheaper relation items."""
    code = """
import sys, json
sys.path[:0] = [{src!r}, {bench!r}]
from collections import Counter
import known, workloads
from spans import Tracer
tracer = Tracer("test")
tracer.install()
inp = workloads.setup("relations", 3293)
gate, state, work = known.Gate(), {{}}, Counter()
for name, item in workloads.ITEMS["relations"]:
    if name in ("u1_words_z3", "identities"):
        with tracer.item(name):
            item(inp, state, gate, work)
m = tracer.metrics(work, 0.0)
print(json.dumps({{k: v["value"] for k, v in m.items() if v["unit"] == "count"}}))
""".format(src=str(ROOT / "src"), bench=str(BENCH))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=ROOT).stdout
    return json.loads(out.splitlines()[-1])


def test_traced_counts_repeat_exactly():
    first = _traced_counts()
    assert first["steinberg.u1_decompose.calls"] == workloads.U1_WORDS
    assert first["steinberg.eval_word.calls"] == 2 * workloads.U1_WORDS
    assert first["freewords.reduce_word.calls"] > 0
    assert _traced_counts() == first


def test_no_package_source_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closure"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
