"""Command-line front end: one JSON object per check, exit 0 iff all pass."""

from __future__ import annotations

import argparse
import sys

from . import extensions, freewords, hyperbolic, steinberg
from .config import DEFAULT_CONFIG, build_ring, build_space, parse_config
from .generators import format_word, parse_word
from .report import CapExceeded, ConfigError, Report, WorkbenchError
from .rings import verify_pseudo_involution, verify_ring_axioms
from .forms import verify_antihermitian, verify_form_parameter

DEFAULT_CONFIG_N4 = DEFAULT_CONFIG.replace("n = 3", "n = 4")



def _load_config(args):
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    elif args.command in ("check-dagger", "split-demo"):
        text = DEFAULT_CONFIG_N4
    else:
        text = DEFAULT_CONFIG
    # the command-line options act as one more [run] section, validated alike
    given = {"strategy": args.strategy, "seed": args.seed, "cap": args.cap}
    text += "\n[run]\n" + "".join(
        f"{key} = {value}\n" for key, value in given.items() if value is not None)
    return parse_config(text)


def _run_settings(cfg):
    return (cfg.run["strategy"], int(cfg.run["seed"]), int(cfg.run["cap"]),
            int(cfg.run["samples"]))


def cmd_verify_ring(cfg, args) -> Report:
    ring = build_ring(cfg)
    _, seed, _, _ = _run_settings(cfg)
    rep = verify_pseudo_involution(ring, seed)
    rep.extend(verify_ring_axioms(ring, seed))
    return rep


def cmd_verify_space(cfg, args) -> Report:
    hs = build_space(cfg)
    _, seed, cap, _ = _run_settings(cfg)
    rep = verify_antihermitian(hs.space, seed)
    try:
        rep.extend(verify_form_parameter(hs.space, cap, seed))
    except CapExceeded as exc:
        rep.add("param.verify", "error", witness=str(exc))
    return rep


def cmd_verify_relations(cfg, args) -> Report:
    hs = build_space(cfg)
    strategy, seed, _, samples = _run_settings(cfg)
    return steinberg.verify_relations(hs, strategy, seed, samples)


def cmd_decompose_u1(cfg, args) -> Report:
    hs = build_space(cfg)
    rep = Report()
    w = parse_word(args.word, hs)
    nf = steinberg.u1_decompose(hs, w)
    nf_word = steinberg.normal_form_word(hs, nf)
    shown = format_word(nf_word, hs) if nf_word else "identity"
    rep.add("u1.decompose", "pass", witness=shown)
    same = steinberg.eval_word(hs, w) == steinberg.eval_word(hs, nf_word)
    rep.add("u1.eval_preserved", "pass" if same else "fail")
    return rep


def cmd_enumerate_eu(cfg, args) -> Report:
    hs = build_space(cfg)
    _, _, cap, _ = _run_settings(cfg)
    rep = Report()
    closure = hyperbolic.enumerate_eu(hs, cap)
    rep.add("eu.enumerate", "pass", witness=f"order={closure.order}")
    if args.out:
        with open(args.out, "w") as fh:
            hyperbolic.dump_closure(closure, fh)
        rep.add("eu.dump", "pass", witness=args.out)
    return rep


def cmd_check_perfect(cfg, args) -> Report:
    hs = build_space(cfg)
    _, seed, cap, _ = _run_settings(cfg)
    rep = Report()
    cache = {}
    steinberg.sweep(
        rep, "perfect.generator_witnesses", hyperbolic.eu_generators(hs),
        lambda gm: steinberg.eval_word(
            hs, steinberg.perfect_witness(hs, gm[0]), cache=cache) == gm[1],
        lambda gm: repr(gm[0]), unit="generators")
    u1_gens = [m for g, m in hyperbolic.eu_generators(hs) if g.i in (hs.n, -hs.n)]
    try:
        closure = hyperbolic.enumerate_eu(hs, cap)
        cc = hyperbolic.commutator_closure(hs, cap=cap)
        sub = hyperbolic.subgroup_closure(hs, u1_gens, cap)
    except CapExceeded as exc:
        for check in ("perfect.commutator_closure", "generation.u1_pair_closure"):
            rep.add(check, "error", witness=str(exc))
        return rep
    rep.add("perfect.commutator_closure",
            "pass" if set(cc) == set(closure.keys()) else "fail",
            witness=f"order={closure.order}")
    rep.add("generation.u1_pair_closure",
            "pass" if set(sub) == set(closure.keys()) else "fail",
            witness=f"order={len(sub)}")
    return rep


def cmd_free_identities(cfg, args) -> Report:
    _, seed, _, _ = _run_settings(cfg)
    return freewords.verify_identities(seed)


def cmd_check_dagger(cfg, args) -> Report:
    hs = build_space(cfg)
    strategy, seed, _, samples = _run_settings(cfg)
    ext = extensions.product_extension(hs, 2)
    return extensions.check_dagger(ext, strategy, seed, samples)


def cmd_split_demo(cfg, args) -> Report:
    hs = build_space(cfg)
    strategy, seed, _, samples = _run_settings(cfg)
    order = args.order
    rep = Report()
    ext = extensions.product_extension(hs, order)
    ext_rand = extensions.product_extension(hs, order, chooser_seed=seed)
    if hs.n == 4:
        rep.extend(extensions.check_dagger(ext, strategy, seed, samples))
    table = extensions.build_section(ext)
    table_rand = extensions.build_section(ext_rand)
    rep.add("section.chooser_independent",
            "pass" if table == table_rand else "fail")
    rep.extend(extensions.verify_section(ext, table, strategy, seed, samples))
    rep.extend(extensions.chooser_agreement(hs, order, seed))
    return rep


_HANDLERS = {
    "verify-ring": cmd_verify_ring,
    "verify-space": cmd_verify_space,
    "verify-relations": cmd_verify_relations,
    "decompose-u1": cmd_decompose_u1,
    "enumerate-eu": cmd_enumerate_eu,
    "check-perfect": cmd_check_perfect,
    "free-identities": cmd_free_identities,
    "check-dagger": cmd_check_dagger,
    "split-demo": cmd_split_demo,
}
COMMANDS = tuple(_HANDLERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddunitary",
        description="Exact verification workbench for odd hyperbolic unitary groups",
    )
    parser.add_argument("--config", help="path to a workbench config file")
    parser.add_argument("--strategy", choices=("exhaustive", "sampled"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--cap", type=int)
    parser.add_argument("--out", help="write the primary artifact to this path")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        if name == "decompose-u1":
            p.add_argument("word", help="whitespace-separated generator tokens")
        if name == "split-demo":
            p.add_argument("order", type=int, help="order of the central factor")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        report = _HANDLERS[args.command](cfg, args)
        text = report.to_json_lines()
        if args.out and args.command != "enumerate-eu":
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except (ConfigError, WorkbenchError, CapExceeded, ValueError, OSError) as exc:
        line = Report()
        line.add("cli", "error", witness=str(exc))
        print(line.to_json_lines())
        return 2
    if text:
        print(text)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
