"""Spans around the public functions of each oddunitary layer.

The package source is not edited: `Tracer.install` replaces each target
function wherever callers look it up, that is in every `oddunitary` module
namespace that holds it (for example `rings` imports `invert_rows_mod` by
name) and on the class for methods.

Every wrapped call is a span with a start, an end and a parent.  Its self
time is its duration minus the time covered by its child spans, accumulated
on a stack as the calls return.  Hot leaf calls (products, ring operations)
are aggregated per metric group instead of kept one by one, so memory stays
bounded; the coarse calls (closures, sweeps, work items) are kept as spans
(id, name, start, end, parent id, run id) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from collections import Counter
from contextlib import contextmanager

import oddunitary

LAYERS = ("matrices", "rings", "forms", "hyperbolic", "steinberg",
          "freewords", "extensions", "config")

# (module, attribute, metric group, kind).  Kinds: "leaf" aggregates the
# span, "kept" also stores it, "count" only counts calls (its time stays in
# the caller's self time).
TARGETS = (
    ("matrices", "Mat.__mul__", "matrices.mul", "leaf"),
    ("matrices", "Mat.key", "matrices.key", "leaf"),
    ("matrices", "Mat.inv", "matrices.inv", "leaf"),
    ("matrices", "invert_rows_mod", "matrices.invert_rows_mod", "count"),
    ("rings", "Ring.sub", "rings.scalar_ops", "leaf"),
    ("rings", "Ring.prod", "rings.scalar_ops", "leaf"),
    ("rings", "Ring.sum", "rings.scalar_ops", "leaf"),
    ("rings", "Ring.lam", "rings.scalar_ops", "leaf"),
    ("rings", "Ring.lam_inv", "rings.lam_inv", "leaf"),
    ("rings", "ResidueRing.add", "rings.scalar_ops", "leaf"),
    ("rings", "ResidueRing.neg", "rings.scalar_ops", "leaf"),
    ("rings", "ResidueRing.mul", "rings.scalar_ops", "leaf"),
    ("rings", "ResidueRing.inv", "rings.scalar_ops", "leaf"),
    ("rings", "MatrixRing.add", "rings.scalar_ops", "leaf"),
    ("rings", "MatrixRing.neg", "rings.scalar_ops", "leaf"),
    ("rings", "MatrixRing.mul", "rings.scalar_ops", "leaf"),
    ("rings", "MatrixRing.bar", "rings.scalar_ops", "leaf"),
    ("rings", "MatrixRing.inv", "rings.scalar_ops", "leaf"),
    ("forms", "OddQuadraticSpace.form", "forms.form", "leaf"),
    ("forms", "OddQuadraticSpace.param_contains", "forms.param_contains", "leaf"),
    ("hyperbolic", "HyperbolicSpace.transvection_ij", "hyperbolic.transvection", "leaf"),
    ("hyperbolic", "HyperbolicSpace.transvection_i", "hyperbolic.transvection", "leaf"),
    ("hyperbolic", "unitary_member", "hyperbolic.unitary_member", "kept"),
    ("hyperbolic", "enumerate_eu", "hyperbolic.closure", "kept"),
    ("hyperbolic", "subgroup_closure", "hyperbolic.closure", "kept"),
    ("hyperbolic", "commutator_closure", "hyperbolic.closure", "kept"),
    ("steinberg", "eval_word", "steinberg.eval_word", "leaf"),
    ("steinberg", "relation_instance", "steinberg.relation_instance", "leaf"),
    ("steinberg", "u1_decompose", "steinberg.u1_decompose", "leaf"),
    ("steinberg", "verify_relations", "steinberg.verify_relations", "kept"),
    ("freewords", "reduce_word", "freewords.reduce_word", "leaf"),
    ("freewords", "verify_identities", "freewords.verify_identities", "kept"),
    ("extensions", "comm_preimages", "extensions.comm_preimages", "leaf"),
    ("extensions", "section_eval", "extensions.section_eval", "leaf"),
    ("extensions", "ProductExtension.chooser", "extensions.chooser", "leaf"),
    ("extensions", "ProductExtension.alt_chooser", "extensions.chooser", "leaf"),
    ("extensions", "check_dagger", "extensions.check_dagger", "kept"),
    ("extensions", "build_section", "extensions.build_section", "kept"),
    ("extensions", "verify_section", "extensions.verify_section", "kept"),
    ("extensions", "chooser_agreement", "extensions.chooser_agreement", "kept"),
    ("config", "parse_config", "config.parse_config", "kept"),
    ("config", "build_space", "config.build_space", "kept"),
)

# name -> (unit, better); the traced run reports exactly these.
PER_LAYER = {
    "matrices.mul.calls": ("count", "lower"),
    "matrices.mul.self_s": ("s", "lower"),
    "matrices.mul.us_per_call": ("us", "lower"),
    "matrices.key.calls": ("count", "lower"),
    "matrices.key.self_s": ("s", "lower"),
    "matrices.inv.calls": ("count", "lower"),
    "matrices.inv.self_s": ("s", "lower"),
    "matrices.inv.us_per_call": ("us", "lower"),
    "matrices.invert_rows_mod.calls": ("count", "lower"),
    "hyperbolic.closure.elements": ("count", "higher"),
    "hyperbolic.closure.products": ("count", "lower"),
    "hyperbolic.closure.yield": ("elem/product", "higher"),
    "hyperbolic.closure.self_s": ("s", "lower"),
    "hyperbolic.transvection.calls": ("count", "lower"),
    "hyperbolic.transvection.self_s": ("s", "lower"),
    "hyperbolic.unitary_member.calls": ("count", "lower"),
    "hyperbolic.unitary_member.self_s": ("s", "lower"),
    "forms.param_contains.calls": ("count", "lower"),
    "forms.param_contains.self_s": ("s", "lower"),
    "forms.form.calls": ("count", "lower"),
    "rings.scalar_ops.calls": ("count", "lower"),
    "rings.lam_inv.calls": ("count", "lower"),
    "steinberg.eval_word.calls": ("count", "lower"),
    "steinberg.eval_word.letters": ("count", "lower"),
    "steinberg.eval_word.self_s": ("s", "lower"),
    "steinberg.relation_instances": ("count", "lower"),
    "steinberg.u1_decompose.calls": ("count", "lower"),
    "steinberg.u1_decompose.self_s": ("s", "lower"),
    "freewords.reduce_word.calls": ("count", "lower"),
    "freewords.reduce_word.self_s": ("s", "lower"),
    "extensions.comm_preimages.calls": ("count", "lower"),
    "extensions.comm_preimages.self_s": ("s", "lower"),
    "extensions.section_eval.calls": ("count", "lower"),
    "extensions.section_eval.self_s": ("s", "lower"),
    "extensions.chooser.calls": ("count", "lower"),
    "extensions.mutations_detected_ratio": ("ratio", "higher"),
    "config.build_space.self_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.self_share": ("ratio", "lower") for layer in LAYERS},
    "bench.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Records spans for one run; install once, before the inputs are built."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats = {}          # group -> [calls, total_s, self_s]
        self.counts = Counter()  # counters that are not call counts
        self.spans = []          # kept spans: (id, name, start, end, parent)
        self.items = {}          # work item -> {group: [calls, total_s, self_s]}
        self._stack = [[0.0, 0]]  # per open span: [child time, nearest kept id]
        self._next_id = 1
        self._closure_depth = [0]  # shared by every closure entry point
        self._t0 = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, group, keep=False, name=None):
        st = self.stats.setdefault(group, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        label = name or group

        def traced(*args, **kwargs):
            if keep:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                stack[-1][0] += d
                if keep:
                    spans.append((sid, label, t0, t1, stack[-1][1]))

        return functools.wraps(fn)(traced)

    def counted(self, fn, group):
        st = self.stats.setdefault(group, [0, 0.0, 0.0])

        def counting(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counting)

    @contextmanager
    def item(self, name):
        """A kept span around one work item; also snapshots its stats."""
        before = {g: list(v) for g, v in self.stats.items()}
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1]
        self._stack.append([0.0, sid])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._stack[-1][0] += t1 - t0
            self.spans.append((sid, f"item:{name}", t0, t1, parent))
            zero = [0, 0.0, 0.0]
            self.items[name] = {
                g: [v[k] - before.get(g, zero)[k] for k in range(3)]
                for g, v in self.stats.items()
            }

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every target in the package; call before building inputs."""
        modules = [oddunitary] + [
            importlib.import_module(f"oddunitary.{m.name}")
            for m in pkgutil.iter_modules(oddunitary.__path__)
            if m.name != "__main__"
        ]
        for mod_name, attr, group, kind in TARGETS:
            mod = importlib.import_module(f"oddunitary.{mod_name}")
            owner, _, name = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                orig = cls.__dict__[name]
                if isinstance(orig, property):
                    setattr(cls, name, property(self.wrap(orig.fget, group)))
                else:
                    setattr(cls, name, self._wrapped(orig, group, kind, name))
            else:
                orig = getattr(mod, name)
                new = self._wrapped(orig, group, kind, f"{mod_name}.{name}")
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, new)
        self._install_residue_bar()

    def _wrapped(self, fn, group, kind, name):
        if kind == "count":
            return self.counted(fn, group)
        inner = self.wrap(fn, group, keep=kind == "kept", name=name)
        if group == "hyperbolic.closure":
            return self._closure(inner)
        if group == "steinberg.eval_word":
            counts = self.counts

            def eval_word(hs, w, *args, **kwargs):
                counts["steinberg.eval_word.letters"] += len(w)
                return inner(hs, w, *args, **kwargs)

            return functools.wraps(fn)(eval_word)
        return inner

    def _closure(self, inner):
        """Count elements and products of the outermost closure call only
        (commutator_closure runs subgroup_closure inside)."""
        mul = self.stats.setdefault("matrices.mul", [0, 0.0, 0.0])
        counts = self.counts
        depth = self._closure_depth

        def closure(*args, **kwargs):
            if depth[0]:
                return inner(*args, **kwargs)
            depth[0] += 1
            before = mul[0]
            try:
                res = inner(*args, **kwargs)
            finally:
                depth[0] -= 1
            counts["hyperbolic.closure.products"] += mul[0] - before
            counts["hyperbolic.closure.elements"] += len(getattr(res, "mats", res))
            return res

        return functools.wraps(inner)(closure)

    def _install_residue_bar(self):
        """ResidueRing.bar is an instance attribute set in __init__."""
        from oddunitary.rings import ResidueRing

        orig_init = ResidueRing.__init__
        wrap = self.wrap

        def __init__(ring, *args, **kwargs):
            orig_init(ring, *args, **kwargs)
            ring.bar = wrap(ring.bar, "rings.scalar_ops")

        ResidueRing.__init__ = __init__

    # -- results -------------------------------------------------------------

    def metrics(self, work: Counter, overhead_s: float) -> dict:
        def st(group):
            return self.stats.get(group, [0, 0.0, 0.0])

        def per_call_us(group):
            calls, total, _ = st(group)
            return total / calls * 1e6 if calls else 0.0

        wall = time.perf_counter() - self._t0
        layer_self = {
            layer: sum(v[2] for g, v in self.stats.items()
                       if g.split(".", 1)[0] == layer)
            for layer in LAYERS
        }
        c = self.counts
        products = c["hyperbolic.closure.products"]
        values = {
            "matrices.mul.calls": st("matrices.mul")[0],
            "matrices.mul.self_s": st("matrices.mul")[2],
            "matrices.mul.us_per_call": per_call_us("matrices.mul"),
            "matrices.key.calls": st("matrices.key")[0],
            "matrices.key.self_s": st("matrices.key")[2],
            "matrices.inv.calls": st("matrices.inv")[0],
            "matrices.inv.self_s": st("matrices.inv")[2],
            "matrices.inv.us_per_call": per_call_us("matrices.inv"),
            "matrices.invert_rows_mod.calls": st("matrices.invert_rows_mod")[0],
            "hyperbolic.closure.elements": c["hyperbolic.closure.elements"],
            "hyperbolic.closure.products": products,
            "hyperbolic.closure.yield":
                c["hyperbolic.closure.elements"] / products if products else 0.0,
            "hyperbolic.closure.self_s": st("hyperbolic.closure")[2],
            "hyperbolic.transvection.calls": st("hyperbolic.transvection")[0],
            "hyperbolic.transvection.self_s": st("hyperbolic.transvection")[2],
            "hyperbolic.unitary_member.calls": st("hyperbolic.unitary_member")[0],
            "hyperbolic.unitary_member.self_s": st("hyperbolic.unitary_member")[2],
            "forms.param_contains.calls": st("forms.param_contains")[0],
            "forms.param_contains.self_s": st("forms.param_contains")[2],
            "forms.form.calls": st("forms.form")[0],
            "rings.scalar_ops.calls": st("rings.scalar_ops")[0],
            "rings.lam_inv.calls": st("rings.lam_inv")[0],
            "steinberg.eval_word.calls": st("steinberg.eval_word")[0],
            "steinberg.eval_word.letters": c["steinberg.eval_word.letters"],
            "steinberg.eval_word.self_s": st("steinberg.eval_word")[2],
            "steinberg.relation_instances": st("steinberg.relation_instance")[0],
            "steinberg.u1_decompose.calls": st("steinberg.u1_decompose")[0],
            "steinberg.u1_decompose.self_s": st("steinberg.u1_decompose")[2],
            "freewords.reduce_word.calls": st("freewords.reduce_word")[0],
            "freewords.reduce_word.self_s": st("freewords.reduce_word")[2],
            "extensions.comm_preimages.calls": st("extensions.comm_preimages")[0],
            "extensions.comm_preimages.self_s": st("extensions.comm_preimages")[2],
            "extensions.section_eval.calls": st("extensions.section_eval")[0],
            "extensions.section_eval.self_s": st("extensions.section_eval")[2],
            "extensions.chooser.calls": st("extensions.chooser")[0],
            "extensions.mutations_detected_ratio":
                work["mutations_detected"] / work["mutations"]
                if work["mutations"] else 0.0,
            "config.build_space.self_s": st("config.build_space")[2],
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
            **{f"{layer}.self_share": layer_self[layer] / wall for layer in LAYERS},
            "bench.self_s": wall - sum(layer_self.values()),
            "trace.overhead_s": overhead_s,
        }
        return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}

    def write(self, path):
        """Kept spans as JSON lines, then one line per work item with its stats."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id}) + "\n")
            for item, stats in self.items.items():
                fh.write(json.dumps({"item": item, "run": self.run_id,
                                     "stats": stats}) + "\n")
