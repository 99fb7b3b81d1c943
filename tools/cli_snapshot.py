#!/usr/bin/env python3
"""Write the CLI output of every shipped preset to OUTDIR, one file per run.

Usage, from anywhere:

    python3 tools/cli_snapshot.py OUTDIR

Each file holds the run's stdout followed by a final `exit=<code>` line.
The runs are every subcommand on each `configs/*.cfg` under both
strategies, every subcommand on the built-in default config, the README's
`decompose-u1` example, a `decompose-u1` word on
`configs/z3_sympl_v0.cfg` with one-index letters `X3(u;a)`, one of them
inverted, the `enumerate-eu --out` dump on `configs/z2_n3.cfg` and on
M_2(Z/2) with transpose at n = 1 (whose dump formats matrix scalars),
`verify-ring --out` on the built-in config (the `--out` file of a
subcommand other than `enumerate-eu`), the exhaustive `verify-relations`
on M_2(Z/2) with transpose at n = 3 (90,384 instances) and the sampled one on the same ring
and rank with a rank-1 V0 of Gram `[0,1;1,0]` under the maximal parameter,
`verify-ring` on Z/101, whose 101^3 triples are too many to list, so
the triple checks draw 4096 seeded samples (seed 3293), and `split-demo 3`
under both strategies on Z/3 at n = 4 with the symplectic rank-2 V0 of
`configs/z3_sympl_v0.cfg` (its section has nontrivial one-index entries
S_k(u, a), which every one-index entry over Z/2 is not), and every
subcommand on three more spaces: Z/8 at n = 3 with the involution a -> 3a
given as a `table:` (lam = 3); Z/3 at n = 2 under the minimal parameter;
and Z/3 at n = 3 with that symplectic V0 under the parameter spanned by
`(1 0|0)`, the whole space under the one spanned by
`(0 0 0 0 0 0 1 0|0)`.  In the last two the one-index arguments come from
a parameter other than the hyperbolic one, as they do in every subcommand
on Z/3 at n = 2 under the maximal parameter of the whole space, whose
one-index arguments the maximal rule selects.  Last comes the sampled
`verify-relations` on Z/100003 at n = 2 with 16 samples, whose minimal
scalars and one-index arguments fill all of Z/100003.  The runs past the
presets and the default config use configs written into OUTDIR.
Run it on two checkouts and compare with
`diff -r OUTDIR1 OUTDIR2`: a refactor that keeps the behaviour leaves no
difference, exit codes included.

The closure subcommands (`enumerate-eu`, `check-perfect`) get
`--cap 30000`.  EU(6, Z/2) has 20160 elements and fits; the groups of the
larger presets have millions of elements, far more than a quick snapshot
should enumerate, so those runs stop at the cap with an error record.

The package is run from `src/` next to this script, one process per run,
so that an uncaught exception shows up as a changed exit code.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUBCOMMANDS = (
    "verify-ring", "verify-space", "verify-relations", "decompose-u1",
    "enumerate-eu", "check-perfect", "free-identities", "check-dagger",
    "split-demo",
)
CLOSURE_SUBCOMMANDS = ("enumerate-eu", "check-perfect")
CLOSURE_CAP = 30000
STRATEGIES = ("exhaustive", "sampled")
DEFAULT_RANK = 3  # the built-in config's n
README_WORD = "X3-1(1) X31(1)"
# one-index letters X3(u;a) and X3(u;a)^-1 around a two-index one
ONE_INDEX_WORD = "X3(1,0;0) X3-1(1) X3(0,1;2)'"
# written into OUTDIR by main(), so the run names it by a relative path
M2Z2_N3_CFG = "m2z2_n3.cfg"
M2Z2_N3_TEXT = """\
[ring]
kind = matrix
modulus = 2
degree = 2
involution = transpose
[space]
n = 3
[run]
strategy = exhaustive
"""
M2Z2_N1_CFG = "m2z2_n1.cfg"
M2Z2_N1_TEXT = M2Z2_N3_TEXT.replace("n = 3\n", "n = 1\n")
M2Z2_V0_N3_CFG = "m2z2_v0_n3.cfg"
M2Z2_V0_N3_TEXT = M2Z2_N3_TEXT.replace(
    "n = 3\n", "n = 3\nv0_gram = [0,1;1,0]\nv0_parameter = max\n")
Z3_V0_N4_CFG = "z3_v0_n4.cfg"
Z3_V0_N4_TEXT = """\
[ring]
kind = residue
modulus = 3
[space]
n = 4
v0_gram = 0,1;2,0
v0_parameter = max
"""
Z8_LAM3_N3_CFG = "z8_lam3_n3.cfg"
Z8_LAM3_N3_TEXT = """\
[ring]
kind = residue
modulus = 8
involution = table:0,3,6,1,4,7,2,5
[space]
n = 3
"""
Z3_MIN_N2_CFG = "z3_min_n2.cfg"
Z3_MIN_N2_TEXT = """\
[ring]
kind = residue
modulus = 3
[space]
n = 2
parameter = min
"""
Z3_SPAN_N3_CFG = "z3_span_n3.cfg"
Z3_SPAN_N3_TEXT = """\
[ring]
kind = residue
modulus = 3
[space]
n = 3
v0_gram = 0,1;2,0
v0_parameter = seeds:(1 0|0)
parameter = span:(0 0 0 0 0 0 1 0|0)
"""
Z3_MAX_N2_CFG = "z3_max_n2.cfg"
Z3_MAX_N2_TEXT = Z3_MIN_N2_TEXT.replace("parameter = min", "parameter = max")
Z100003_CFG = "z100003.cfg"
Z100003_TEXT = """\
[ring]
kind = residue
modulus = 100003
[space]
n = 2
[run]
strategy = sampled
samples = 16
"""
Z101_CFG = "z101.cfg"
Z101_TEXT = """\
[ring]
kind = residue
modulus = 101
[run]
seed = 3293
"""


def subcommand_args(name, n):
    """Global options the subcommand needs, and its own arguments."""
    opts = ["--cap", str(CLOSURE_CAP)] if name in CLOSURE_SUBCOMMANDS else []
    if name == "decompose-u1":
        return opts, [f"X{n}-1(1) X{n}1(1)"]
    if name == "split-demo":
        return opts, ["3"]
    return opts, []


def config_rank(path: Path) -> int:
    m = re.search(r"^\s*n\s*=\s*(\d+)", path.read_text(), re.MULTILINE)
    return int(m.group(1)) if m else DEFAULT_RANK


def runs():
    """(file name, CLI arguments) for every run, in a fixed order."""
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        n = config_rank(cfg)
        for strategy in STRATEGIES:
            for name in SUBCOMMANDS:
                opts, tail = subcommand_args(name, n)
                yield (f"{cfg.stem}.{strategy}.{name}",
                       ["--config", str(cfg), "--strategy", strategy, *opts,
                        name, *tail])
    for name in SUBCOMMANDS:
        opts, tail = subcommand_args(name, DEFAULT_RANK)
        yield f"default.{name}", [*opts, name, *tail]
    yield "default.decompose-u1.readme", ["decompose-u1", README_WORD]
    # a relative --out path, so the dump record's witness is the same everywhere
    yield ("z2_n3.enumerate-eu.out",
           ["--config", str(ROOT / "configs" / "z2_n3.cfg"),
            "--cap", str(CLOSURE_CAP),
            "--out", "z2_n3.closure.dump", "enumerate-eu"])
    yield ("m2z2_n1.enumerate-eu.out",
           ["--config", M2Z2_N1_CFG, "--out", "m2z2_n1.closure.dump", "enumerate-eu"])
    yield "default.verify-ring.out", ["--out", "default.verify-ring.json", "verify-ring"]
    yield ("z3_sympl_v0.decompose-u1.one-index",
           ["--config", str(ROOT / "configs" / "z3_sympl_v0.cfg"), "decompose-u1",
            ONE_INDEX_WORD])
    yield ("m2z2_n3.exhaustive.verify-relations",
           ["--config", M2Z2_N3_CFG, "verify-relations"])
    yield ("m2z2_v0_n3.sampled.verify-relations",
           ["--config", M2Z2_V0_N3_CFG, "--strategy", "sampled",
            "verify-relations"])
    yield "z101.verify-ring", ["--config", Z101_CFG, "verify-ring"]
    for cfg, n in ((Z8_LAM3_N3_CFG, 3), (Z3_MIN_N2_CFG, 2), (Z3_SPAN_N3_CFG, 3),
                   (Z3_MAX_N2_CFG, 2)):
        for name in SUBCOMMANDS:
            opts, tail = subcommand_args(name, n)
            yield f"{Path(cfg).stem}.{name}", ["--config", cfg, *opts, name, *tail]
    for strategy in STRATEGIES:
        yield (f"z3_v0_n4.{strategy}.split-demo",
               ["--config", Z3_V0_N4_CFG, "--strategy", strategy, "split-demo", "3"])
    yield "z100003.sampled.verify-relations", ["--config", Z100003_CFG, "verify-relations"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args(argv)
    outdir = args.outdir.resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    (outdir / M2Z2_N3_CFG).write_text(M2Z2_N3_TEXT)
    (outdir / M2Z2_N1_CFG).write_text(M2Z2_N1_TEXT)
    (outdir / M2Z2_V0_N3_CFG).write_text(M2Z2_V0_N3_TEXT)
    (outdir / Z101_CFG).write_text(Z101_TEXT)
    (outdir / Z3_V0_N4_CFG).write_text(Z3_V0_N4_TEXT)
    (outdir / Z8_LAM3_N3_CFG).write_text(Z8_LAM3_N3_TEXT)
    (outdir / Z3_MIN_N2_CFG).write_text(Z3_MIN_N2_TEXT)
    (outdir / Z3_SPAN_N3_CFG).write_text(Z3_SPAN_N3_TEXT)
    (outdir / Z3_MAX_N2_CFG).write_text(Z3_MAX_N2_TEXT)
    (outdir / Z100003_CFG).write_text(Z100003_TEXT)
    for fname, cli_args in runs():
        proc = subprocess.run(
            [sys.executable, "-m", "oddunitary", *cli_args],
            cwd=outdir, env=env, capture_output=True, text=True,
        )
        (outdir / f"{fname}.txt").write_text(f"{proc.stdout}exit={proc.returncode}\n")
        print(f"{fname}: exit={proc.returncode}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
