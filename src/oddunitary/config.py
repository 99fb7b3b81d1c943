"""Workbench configuration: `[section]` headers, `key = value` lines.

Lists are comma-separated, matrices are semicolon-separated rows (a matrix
scalar inside one is bracketed, `[0,1;1,0]`), `#` starts a comment.
Heisenberg elements are written `(c1 c2 ...|a)` with the coordinates
space-separated before the bar and the scalar after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .forms import (
    MaxParameter,
    MinParameter,
    OddQuadraticSpace,
    span_form_parameter,
    zero_space,
)
from .hyperbolic import HyperbolicSpace, make_hyperbolic
from .report import DEFAULT_CAP, DEFAULT_SEED, ConfigError
from .rings import make_ring

# the sections and their keys, each with its default
_DEFAULTS = {
    "ring": {"kind": "residue", "modulus": "2", "degree": "1",
             "involution": "identity"},
    "space": {"n": "3", "v0_gram": "", "v0_parameter": "min",
              "parameter": "hyperbolic"},
    "run": {"strategy": "exhaustive", "seed": str(DEFAULT_SEED),
            "cap": str(DEFAULT_CAP), "samples": "256"},
}

# the form parameter names of each key; a name ending in ':' is followed by
# the seeds whose span is the parameter
_PARAMETERS = {"v0_parameter": ("min", "max", "seeds:"),
               "parameter": ("hyperbolic", "min", "max", "span:")}

DEFAULT_CONFIG = """\
[ring]
kind = residue
modulus = 2
involution = identity
[space]
n = 3
parameter = hyperbolic
[run]
strategy = exhaustive
"""


@dataclass
class WorkbenchConfig:
    ring: dict = field(default_factory=dict)
    space: dict = field(default_factory=dict)
    run: dict = field(default_factory=dict)

    def section(self, name):
        return getattr(self, name)


def parse_config(text: str) -> WorkbenchConfig:
    cfg = WorkbenchConfig(
        dict(_DEFAULTS["ring"]), dict(_DEFAULTS["space"]), dict(_DEFAULTS["run"])
    )
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _DEFAULTS:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _DEFAULTS[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        cfg.section(section)[key] = value
    _validate(cfg)
    return cfg


def _validate(cfg: WorkbenchConfig):
    build_ring(cfg)
    if _integer(cfg.space, "n") < 1:
        raise ConfigError("n: hyperbolic rank must be at least 1")
    for key, names in _PARAMETERS.items():
        text = cfg.space[key]
        if not any(text.startswith(name) if name.endswith(":") else text == name
                   for name in names):
            raise ConfigError(f"{key}: unknown value {text!r}")
    if cfg.run["strategy"] not in ("exhaustive", "sampled"):
        raise ConfigError(f"strategy: unknown value {cfg.run['strategy']!r}")
    for key in ("seed", "cap", "samples"):
        if _integer(cfg.run, key) < 0 and key != "seed":
            raise ConfigError(f"{key}: must not be negative")


def _integer(spec, key):
    try:
        return int(spec[key])
    except ValueError:
        raise ConfigError(f"{key}: expected an integer") from None


def build_ring(cfg: WorkbenchConfig):
    """`make_ring` of the [ring] section, the residues after `table:` in the
    involution as its table; a ring error is a ConfigError naming its key."""
    spec = cfg.ring
    name, sep, entries = spec["involution"].partition("table:")
    try:
        table = tuple(int(v) for v in entries.split(",")) if sep else None
    except ValueError:
        raise ConfigError(f"involution: expected integers after 'table:', "
                          f"got {spec['involution']!r}") from None
    try:
        return make_ring(spec["kind"], _integer(spec, "modulus"), _integer(spec, "degree"),
                         name + "table" if sep else name, table)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_heis(text: str, ring, length: int):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")") and "|" in text):
        raise ConfigError(f"cannot parse Heisenberg element {text!r}")
    body = text[1:-1]
    coords_txt, scalar_txt = body.rsplit("|", 1)
    coords = tuple(
        ring.parse_scalar(c) for c in coords_txt.split()
    ) if coords_txt.strip() else ()
    if len(coords) != length:
        raise ConfigError(f"{text!r}: expected {length} coordinates")
    return (coords, ring.parse_scalar(scalar_txt))


def _split_top(text: str, sep: str):
    """Split at every `sep` outside parentheses and square brackets."""
    depth = 0
    items, cur = [], []
    for ch in text:
        depth += (ch in "([") - (ch in ")]")
        if ch == sep and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    items.append("".join(cur))
    return [item.strip() for item in items]


def _split_heis_list(text: str):
    return [s for s in _split_top(text, ",") if s]


def _parse_gram(text: str, ring):
    """Rows split at `;`, entries at `,`; `[0,1;1,0]` is one matrix scalar."""
    def scalar(entry):
        if entry.startswith("[") and entry.endswith("]"):
            entry = entry[1:-1]
        return ring.parse_scalar(entry)

    try:
        gram = tuple(tuple(scalar(v) for v in _split_top(row, ","))
                     for row in _split_top(text, ";"))
    except ValueError as exc:
        raise ConfigError(f"v0_gram: {exc}") from None
    if any(len(row) != len(gram) for row in gram):
        raise ConfigError("v0_gram: the Gram matrix must be square")
    return gram


def _parameter(text: str, space, cap):
    """The form parameter that a checked name gives over `space`: min, max,
    or the span of the seeds after the colon."""
    if text == "min":
        return MinParameter()
    if text == "max":
        return MaxParameter()
    seeds = [_parse_heis(item, space.ring, space.rank)
             for item in _split_heis_list(text.partition(":")[2])]
    return span_form_parameter(space, seeds, cap)


def build_space(cfg: WorkbenchConfig) -> HyperbolicSpace:
    ring = build_ring(cfg)
    spec = cfg.space
    cap = int(cfg.run["cap"])
    v0 = zero_space(ring)
    gram_txt = spec["v0_gram"].strip()
    if gram_txt:
        gram = _parse_gram(gram_txt, ring)
        v0 = OddQuadraticSpace(
            ring, gram, _parameter(spec["v0_parameter"], OddQuadraticSpace(ring, gram), cap))
    hs = make_hyperbolic(ring, int(spec["n"]), v0)
    if spec["parameter"] == "hyperbolic":
        return hs
    return make_hyperbolic(ring, hs.n, v0, _parameter(spec["parameter"], hs, cap))
