import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddunitary import hyperbolic
from oddunitary.cli import main
from oddunitary.config import (
    DEFAULT_CONFIG,
    build_ring,
    build_space,
    parse_config,
)
from oddunitary.report import ConfigError

RICH_CONFIG = """\
# Z/3 with a symplectic anisotropic part
[ring]
kind = residue
modulus = 3
involution = identity
[space]
n = 3
v0_gram = 0,1;2,0
v0_parameter = max
parameter = hyperbolic
[run]
strategy = exhaustive
seed = 11
"""


def test_parse_defaults():
    cfg = parse_config(DEFAULT_CONFIG)
    assert cfg.ring["modulus"] == "2"
    assert cfg.space["n"] == "3"
    assert cfg.space["parameter"] == "hyperbolic"
    assert cfg.run["strategy"] == "exhaustive"
    assert cfg.run["seed"] == "3293"
    assert cfg.run["cap"] == "1000000"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("predicate = yes\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[ring]\nunknown_key = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[widgets]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[ring]\nnot a pair\n")


def test_semantic_errors_name_the_key():
    with pytest.raises(ConfigError, match="modulus"):
        parse_config("[ring]\nmodulus = 1\n")
    with pytest.raises(ConfigError, match="involution"):
        parse_config("[ring]\ninvolution = flip\n")
    # an involution table that is not a list of integers
    with pytest.raises(ConfigError, match="^involution:"):
        parse_config("[ring]\nmodulus = 3\ninvolution = table:a,b,c\n")
    with pytest.raises(ConfigError, match="^involution:"):
        parse_config("[ring]\nkind = matrix\ndegree = 2\n"
                     "involution = transpose:table:0,x\n")
    # tables that are not additive, not a bijection, or not m entries long,
    # and an entry involution without a name
    for ring in ("modulus = 4\ninvolution = table:1,2,3,0",
                 "modulus = 5\ninvolution = table:0,0,1,2,3",
                 "modulus = 4\ninvolution = table:0,2,0,2",
                 "modulus = 5\ninvolution = table:0,4,3,2",
                 "kind = matrix\ndegree = 2\ninvolution = transpose:flip"):
        with pytest.raises(ConfigError, match="^involution:"):
            parse_config(f"[ring]\n{ring}\n")
    with pytest.raises(ConfigError, match="^kind:"):
        parse_config("[ring]\nkind = polynomial\n")
    with pytest.raises(ConfigError, match="^degree:"):
        parse_config("[ring]\nkind = matrix\ndegree = 0\ninvolution = transpose\n")
    with pytest.raises(ConfigError, match="strategy"):
        parse_config("[run]\nstrategy = guess\n")


def test_build_ring_and_space():
    cfg = parse_config(RICH_CONFIG)
    ring = build_ring(cfg)
    assert ring.modulus == 3
    hs = build_space(cfg)
    assert hs.rank == 8
    assert len(hs.l0) == 27


def test_build_space_span_parameter():
    text = """\
[ring]
modulus = 2
[space]
n = 3
parameter = span:(0 0 0 0 0 0|0)
"""
    hs = build_space(parse_config(text))
    # spanning with a trivial seed gives the minimal parameter: l0 is the
    # code of ((), 0)
    assert hs.l0.tolist() == [0]


def test_build_space_v0_seeded_parameter():
    text = """\
[ring]
modulus = 3
[space]
n = 3
v0_gram = 0
v0_parameter = seeds:(1|0)
"""
    hs = build_space(parse_config(text))
    # the seed's action orbit and the minimal scalars span all of V0 x R
    assert len(hs.v0.parameter.elements(hs.v0)) == 9
    assert len(hs.l0) == 9


M2_V0_CONFIG = """\
[ring]
kind = matrix
modulus = 2
degree = 2
involution = transpose
[space]
n = 3
v0_gram = {gram}
v0_parameter = max
"""


def test_matrix_v0_gram_entries_are_bracketed():
    hs = build_space(parse_config(M2_V0_CONFIG.format(gram="[0,1;1,0]")))
    assert hs.v0.gram == ((((0, 1), (1, 0)),),)
    assert len(hs.l0) == 128
    two = build_space(parse_config(M2_V0_CONFIG.format(
        gram="[0,1;1,0], [0,0;0,0]; [0,0;0,0], [1,0;0,1]")))
    assert two.v0.gram == ((((0, 1), (1, 0)), ((0, 0), (0, 0))),
                           (((0, 0), (0, 0)), ((1, 0), (0, 1))))
    # residue entries may be bracketed too, and parse as before without
    z3 = "[ring]\nmodulus = 3\n[space]\nn = 3\nv0_gram = {}\n"
    for text in ("0,1;2,0", "[0],[1];[2],[0]"):
        assert build_space(parse_config(z3.format(text))).v0.gram == ((0, 1), (2, 0))


@pytest.mark.parametrize("gram", ["0,1;1,0", "[0,1;1,0", "[0,1,1,0]", "[x]",
                                  "[0,1;1,0],[0,1;1,0]"])
def test_malformed_v0_gram_names_the_key(gram):
    with pytest.raises(ConfigError, match="^v0_gram: "):
        build_space(parse_config(M2_V0_CONFIG.format(gram=gram)))


def test_table_involution_config():
    text = "[ring]\nmodulus = 5\ninvolution = table:0,4,3,2,1\n"
    ring = build_ring(parse_config(text))
    assert ring.bar(2) == 3  # the table is negation mod 5


def test_negation_table_on_a_large_modulus():
    # one pass over the table: Z/2003 negation written out as 2003 entries
    m = 2003
    table = ",".join(str(-a % m) for a in range(m))
    ring = build_ring(parse_config(f"[ring]\nmodulus = {m}\ninvolution = table:{table}\n"))
    negation = build_ring(parse_config(f"[ring]\nmodulus = {m}\ninvolution = negation\n"))
    assert [ring.bar(a) for a in range(m)] == [negation.bar(a) for a in range(m)]
    assert ring.key == negation.key


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(l) for l in out.splitlines() if l]
    return code, lines


def test_cli_free_identities(capsys):
    code, lines = run_cli(capsys, "free-identities")
    assert code == 0
    assert [l["check"] for l in lines] == [
        f"freewords.C{k}" for k in range(1, 7)
    ]
    assert all(l["status"] == "pass" for l in lines)


def test_cli_verify_ring_default(capsys):
    code, lines = run_cli(capsys, "verify-ring")
    assert code == 0
    assert all(l["status"] == "pass" for l in lines)


def test_cli_verify_relations(capsys, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text(DEFAULT_CONFIG)
    code, lines = run_cli(capsys, "--config", str(cfg), "verify-relations")
    assert code == 0
    assert len(lines) == 10
    assert all(l["status"] == "pass" for l in lines)


def test_cli_decompose_u1(capsys):
    code, lines = run_cli(capsys, "decompose-u1", "X31(1) X31(1)")
    assert code == 0
    assert lines[0]["check"] == "u1.decompose"
    assert lines[0]["witness"] == "identity"  # R1 collapse in characteristic 2
    code, lines = run_cli(capsys, "decompose-u1", "X3-1(1) X31(1)")
    assert code == 0
    assert "X31(1)" in lines[0]["witness"]


def test_cli_bad_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[ring]\nmodulus = 1\n")
    code, lines = run_cli(capsys, "--config", str(cfg), "verify-ring")
    assert code == 2
    assert lines[0]["status"] == "error"


@pytest.mark.parametrize("key, argv", [
    # without a v0_gram the V0 parameter is never built, so only the check
    # when the file is read sees the name
    ("v0_parameter", ["verify-relations"]),
    # neither subcommand builds the space
    ("parameter", ["verify-ring"]),
    ("parameter", ["free-identities"]),
])
def test_cli_unknown_parameter_names_exit_2(capsys, tmp_path, key, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"[ring]\nmodulus = 3\n[space]\nn = 2\n{key} = bogus\n")
    code, lines = run_cli(capsys, "--config", str(cfg), *argv)
    assert code == 2
    assert lines == [{"check": "cli", "status": "error",
                      "witness": f"{key}: unknown value 'bogus'"}]


@pytest.mark.parametrize("argv", [
    ["--config", "/nonexistent.cfg", "verify-ring"],
    ["--out", "/nonexistent/dir/x.json", "verify-ring"],
    ["--out", "/nonexistent/dir/x.json", "enumerate-eu"],
], ids=["config", "out", "enumerate-eu-out"])
def test_cli_file_errors_are_one_error_record(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    lines = [json.loads(l) for l in out.splitlines() if l]
    assert code == 2
    assert [(l["check"], l["status"]) for l in lines] == [("cli", "error")]
    assert "No such file or directory" in lines[0]["witness"]


def test_cli_check_perfect_without_generators_is_vacuous(capsys, tmp_path):
    cfg = tmp_path / "n1.cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("n = 3", "n = 1"))
    code, lines = run_cli(capsys, "--config", str(cfg), "check-perfect")
    assert code == 1
    assert lines[0] == {"check": "perfect.generator_witnesses", "status": "vacuous",
                        "witness": "0 generators"}


def test_cli_unknown_subcommand_fails():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_cli_check_dagger_n3_is_error(capsys, tmp_path):
    cfg = tmp_path / "n3.cfg"
    cfg.write_text(DEFAULT_CONFIG)
    code, lines = run_cli(capsys, "--config", str(cfg), "check-dagger")
    assert code == 2
    assert lines[0]["status"] == "error"
    assert "n >= 4" in lines[0]["witness"]


def test_cli_check_dagger_default_n4(capsys):
    code, lines = run_cli(capsys, "check-dagger")
    assert code == 0
    assert lines[0]["check"] == "extension.dagger"


def test_cli_enumerate_eu_dump(capsys, tmp_path):
    out = tmp_path / "closure.dump"
    cfg = tmp_path / "n1.cfg"
    cfg.write_text("[ring]\nmodulus = 2\n[space]\nn = 1\n")
    code, lines = run_cli(
        capsys, "--config", str(cfg), "--out", str(out), "enumerate-eu"
    )
    assert code == 0
    assert lines[0]["witness"] == "order=1"
    assert out.read_text() == "\t1 0 0 1\n"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_cli_enumerate_eu_dump_z2_n3(capsys, tmp_path, monkeypatch):
    # on both product paths: lookup tables (m^d = 64), and GEMMs with
    # TABLE_ROWS = 0
    for table_rows in (hyperbolic.TABLE_ROWS, 0):
        monkeypatch.setattr(hyperbolic, "TABLE_ROWS", table_rows)
        out = tmp_path / f"closure{table_rows}.dump"
        code, lines = run_cli(capsys, "--config", str(CONFIGS / "z2_n3.cfg"),
                              "--out", str(out), "enumerate-eu")
        assert code == 0
        assert lines[0]["witness"] == "order=20160"
        assert lines[1] == {"check": "eu.layers", "status": "pass", "witness":
                            "layers=[1, 12, 96, 542, 2058, 5316, 7530, 4058, 541, 6] diameter=9"}
        # pinned before the batched closure engine replaced the per-element loop
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2c55e4fe7a5e0c6fdad06f3adb2e3c4a3f5b3ab8b4f34148f8da0d07ac4c93b9")


def test_cli_check_perfect_cap_reports_every_closure_check(capsys):
    code, lines = run_cli(capsys, "--config", str(CONFIGS / "z2_n3.cfg"),
                          "--cap", "100", "check-perfect")
    assert code == 1
    assert [(l["check"], l["status"]) for l in lines] == [
        ("perfect.generator_witnesses", "pass"),
        ("perfect.commutator_closure", "error"),
        ("generation.u1_pair_closure", "error"),
    ]
    assert lines[1]["witness"] == lines[2]["witness"] == "EU closure exceeded cap 100"


@pytest.mark.parametrize("preset", ["z2_n4", "z3_sympl_v0"])
def test_cli_check_perfect_cap_on_both_code_widths(capsys, preset):
    # d = 8: one uint64 code per element over Z/2, two words over Z/3
    code, lines = run_cli(capsys, "--config", str(CONFIGS / f"{preset}.cfg"),
                          "--cap", "5000", "check-perfect")
    assert code == 1
    assert [(l["check"], l["status"]) for l in lines] == [
        ("perfect.generator_witnesses", "pass"),
        ("perfect.commutator_closure", "error"),
        ("generation.u1_pair_closure", "error"),
    ]
    assert lines[1]["witness"] == lines[2]["witness"] == "EU closure exceeded cap 5000"


def test_cli_split_demo(capsys):
    code, lines = run_cli(capsys, "split-demo", "2")
    assert code == 0
    checks = {l["check"] for l in lines}
    assert "extension.dagger" in checks
    assert "section.chooser_independent" in checks
    assert "section.R5" in checks
    assert "extension.central_trick" in checks
    assert all(l["status"] == "pass" for l in lines)


def test_cli_fail_stream_exits_1(capsys, tmp_path):
    # a -> 2a mod 5 parses as a valid additive bijection but is not an
    # involution, so the check stream contains a fail and the exit code is 1
    cfg = tmp_path / "doubling.cfg"
    cfg.write_text("[ring]\nmodulus = 5\ninvolution = table:0,2,4,1,3\n")
    code, lines = run_cli(capsys, "--config", str(cfg), "verify-ring")
    assert code == 1
    assert any(l["status"] == "fail" for l in lines)
    assert any(l["check"] == "ring.bar_involutive" for l in lines)


@pytest.mark.parametrize("strategy", ["exhaustive", "sampled"])
def test_cli_rank_2_reports_r5_vacuous(capsys, tmp_path, strategy):
    # no three disjoint index pairs exist at n = 2, so R5 has no instance
    cfg = tmp_path / "n2.cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("n = 3", "n = 2"))
    code, lines = run_cli(capsys, "--config", str(cfg), "--strategy", strategy,
                          "verify-relations")
    assert code == 1
    status = {l["check"]: l["status"] for l in lines}
    assert status.pop("relations.R5") == "vacuous"
    assert set(status.values()) == {"pass"}
    assert len(status) == 9


def test_cli_zero_samples_are_vacuous(capsys, tmp_path):
    cfg = tmp_path / "s0.cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("strategy = exhaustive",
                                          "strategy = sampled\nsamples = 0"))
    code, lines = run_cli(capsys, "--config", str(cfg), "verify-relations")
    assert code == 1
    assert len(lines) == 10
    assert all(l["status"] == "vacuous" for l in lines)
    assert all(l["witness"] == "0 instances" for l in lines)
    cfg.write_text(cfg.read_text().replace("n = 3", "n = 4"))
    code, lines = run_cli(capsys, "--config", str(cfg), "check-dagger")
    assert code == 1
    assert lines == [{"check": "extension.dagger", "status": "vacuous",
                      "witness": "0 quadruple instances", "seed": 3293}]


def test_negative_cap_and_samples_are_config_errors(capsys):
    with pytest.raises(ConfigError, match="samples"):
        parse_config("[run]\nsamples = -1\n")
    with pytest.raises(ConfigError, match="cap"):
        parse_config("[run]\ncap = -1\n")
    with pytest.raises(ConfigError, match="n: expected an integer"):
        parse_config("[space]\nn = abc\n")
    with pytest.raises(ConfigError, match="modulus: expected an integer"):
        parse_config("[ring]\nmodulus = x\n")
    code, lines = run_cli(capsys, "--cap", "-5", "enumerate-eu")
    assert code == 2
    assert lines[0]["status"] == "error"
    assert lines[0]["witness"].startswith("cap")


# every subcommand at ranks 1 and 2 on Z/2: (n, argv, exit code, last record)
SMALL_RANK_RUNS = [
    (1, ["verify-ring"], 0, ("ring.identity", "pass")),
    (1, ["verify-space"], 0, ("param.action_stable", "pass")),
    (1, ["verify-relations"], 1, ("relations.R9", "vacuous", "0 instances")),
    (1, ["decompose-u1", "X1(;0)"], 0, ("u1.eval_preserved", "pass")),
    (1, ["enumerate-eu"], 0, ("eu.layers", "pass", "layers=[1] diameter=0")),
    (1, ["check-perfect"], 1, ("generation.u1_pair_closure", "pass", "order=1")),
    (1, ["free-identities"], 0, ("freewords.C6", "pass")),
    (1, ["check-dagger"], 2, ("cli", "error",
                              "property-dagger needs n >= 4 (no admissible quadruple)")),
    (1, ["split-demo", "2"], 2, ("cli", "error", "the splitting construction needs n >= 4")),
    (2, ["verify-ring"], 0, ("ring.identity", "pass")),
    (2, ["verify-space"], 0, ("param.action_stable", "pass")),
    (2, ["verify-relations"], 1, ("relations.R9", "pass", "32 instances")),
    (2, ["decompose-u1", "X2(;0)"], 0, ("u1.eval_preserved", "pass")),
    (2, ["enumerate-eu"], 0, ("eu.layers", "pass", "layers=[1, 4, 8, 10, 8, 4, 1] diameter=6")),
    (2, ["check-perfect"], 2, ("cli", "error", "no admissible witness index; rank too small")),
    (2, ["free-identities"], 0, ("freewords.C6", "pass")),
    (2, ["check-dagger"], 2, ("cli", "error",
                              "property-dagger needs n >= 4 (no admissible quadruple)")),
    (2, ["split-demo", "2"], 2, ("cli", "error", "the splitting construction needs n >= 4")),
]


@pytest.mark.parametrize(
    "n, argv, code, last", SMALL_RANK_RUNS,
    ids=[f"n{n}-{argv[0]}" for n, argv, _, _ in SMALL_RANK_RUNS])
def test_cli_every_subcommand_at_small_rank(capsys, tmp_path, n, argv, code, last):
    cfg = tmp_path / f"n{n}.cfg"
    cfg.write_text(DEFAULT_CONFIG.replace("n = 3", f"n = {n}"))
    got = main(["--config", str(cfg), *argv])  # an uncaught exception fails here
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    lines = [json.loads(l) for l in out.splitlines() if l]
    assert got == code
    assert (lines[-1]["check"], lines[-1]["status"]) == last[:2]
    if len(last) == 3:
        assert lines[-1]["witness"] == last[2]
    if argv[0] == "verify-relations":
        assert {l["check"]: l["status"] for l in lines}["relations.R5"] == "vacuous"


SYMMETRIC_V0 = "[ring]\nmodulus = 3\n[space]\nn = {}\nv0_gram = 0,1;1,0\nv0_parameter = max\n"


def test_letter_outside_the_generators_fails_its_family(capsys, tmp_path):
    # this Gram matrix is symmetric, not anti-Hermitian, over Z/3 with the
    # identity involution, so R2 and R6 build right sides X_i(xi) with xi
    # outside the parameter; those instances fail, and every family is kept
    cfg = tmp_path / "symmetric.cfg"
    cfg.write_text(SYMMETRIC_V0.format(2))
    code, lines = run_cli(capsys, "--config", str(cfg), "verify-relations")
    assert code == 1
    assert [l["check"] for l in lines] == [f"relations.R{t}" for t in range(10)]
    fails = {l["check"]: l["witness"] for l in lines if l["status"] == "fail"}
    assert fails == {"relations.R2": "R2(1, ((0, 1), 0), ((1, 0), 0))",
                     "relations.R6": "R6(1, 2, ((0, 1), 0), ((1, 0), 0))"}
    # the section sweep, whose letters come from the section table
    cfg.write_text(SYMMETRIC_V0.format(4))
    code, lines = run_cli(capsys, "--config", str(cfg), "--strategy", "sampled",
                          "split-demo", "3")
    assert code == 1
    fails = [l["check"] for l in lines if l["status"] == "fail"]
    assert fails == ["section.R2", "section.R6"]
    assert lines[-1]["check"] == "extension.central_trick"


@pytest.mark.parametrize("argv, code", [
    (["verify-ring"], 0),
    (["--config", "doubling.cfg", "verify-ring"], 1),
    (["--cap", "-5", "enumerate-eu"], 2),
])
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv, code):
    # the reading end is closed before the run starts, so every write to
    # stdout fails; the run still exits with its report's code
    (tmp_path / "doubling.cfg").write_text(
        "[ring]\nmodulus = 5\ninvolution = table:0,2,4,1,3\n")
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "oddunitary", *argv], cwd=tmp_path, stdout=write,
            stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_output_does_not_depend_on_hash_seed():
    # a Mat hashes its bytes, and bytes hashes are salted per process
    src = str(CONFIGS.parent / "src")
    outs = {
        subprocess.run(
            [sys.executable, "-m", "oddunitary", "split-demo", "3"],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(outs) == 1
