"""The package holds only what a command, the benchmark or another package
function runs: every function, class and method defined in `oddunitary` is
named somewhere outside its own definition, in the package or in
`perfbench`, a method (a def in a class body) only where it is read as an
attribute (`.name`), so that a local variable of the same name does not
count.  Docstrings and comments do not count, since the sources are read as
tokens, and neither does a re-export in `__init__.py`."""

import ast
import io
import tokenize
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "oddunitary").glob("*.py"))
USERS = [path for path in PACKAGE if path.name != "__init__.py"]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

# names that nothing runs yet, each with the ROADMAP item that will run it
RESERVED = {
    "kernel_is_central": "items 1-2: the Spin and W(E8) extensions call it",
}

# names that only the tracer's `perfbench.spans.TARGETS` names, as strings;
# each stays until the benchmark's next change stops wrapping it
FROZEN = {
    "section_eval": "extensions.section_eval spans it; no check calls it since "
                    "the section sweeps evaluate rows",
    "param_contains": "forms.param_contains spans it; membership goes through "
                      "`contains_batch`, of which it is one row",
    "relation_instance": "steinberg.relation_instance spans it; the sweeps build "
                         "relation words as letter codes",
    "sub": "rings.scalar_ops spans Ring.sub; the package subtracts with `add` "
           "and `neg` or their array forms",
}


def _definitions(path):
    """(name, first line, last line) of every def and class in a file."""
    tree = ast.parse(path.read_text())
    return [(node.name, node.lineno, node.end_lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _methods(path):
    """(name, first line) of every def in a class body."""
    tree = ast.parse(path.read_text())
    return {(node.name, node.lineno) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _name_lines(path, attributes=False):
    """name -> the lines where the file names it, a def or class statement's
    own name excluded; with `attributes`, only where it follows a `.`."""
    lines, prev = defaultdict(list), None
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if (tok.type == tokenize.NAME and prev not in ("def", "class")
                and (prev == "." or not attributes)):
            lines[tok.string].append(tok.start[0])
        prev = tok.string
    return lines


def _target_names():
    """Every part of the dotted attributes in `perfbench.spans.TARGETS`."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return {part for _, attr, _, _ in ast.literal_eval(value) for part in attr.split(".")}


def _unused():
    """The non-dunder names defined in the package that nothing outside
    their own definition names."""
    named = {path: _name_lines(path) for path in USERS + BENCH}
    read = {path: _name_lines(path, attributes=True) for path in USERS + BENCH}
    unused = set()
    for path in PACKAGE:
        methods = _methods(path)
        for name, lo, hi in _definitions(path):
            if name.startswith("__") and name.endswith("__"):
                continue
            uses = read if (name, lo) in methods else named
            if not any(other != path or not lo <= line <= hi
                       for other, lines in uses.items() for line in lines.get(name, ())):
                unused.add(name)
    return unused


def test_every_package_name_is_run():
    unused, kept = _unused(), set(RESERVED) | set(FROZEN)
    assert not unused - kept, (
        f"defined in the package but named nowhere else: {sorted(unused - kept)}")
    assert not kept - unused, f"reserved or frozen but now used: {sorted(kept - unused)}"
    assert set(FROZEN) <= _target_names(), (
        f"frozen but not a span target: {sorted(set(FROZEN) - _target_names())}")


def test_the_reading_skips_strings_and_comments(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('def f():\n    """g"""\n    return f  # g\n\n\ndef g():\n    pass\n')
    assert _definitions(src) == [("f", 1, 3), ("g", 6, 7)]
    assert dict(_name_lines(src)) == {"def": [1, 6], "return": [3], "f": [3], "pass": [7]}


def test_a_method_counts_only_where_it_is_read_as_an_attribute(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("class C:\n    def sub(self):\n        pass\n\n\n"
                   "def sub(x):\n    sub = x.sub\n    return sub\n")
    assert _methods(src) == {("sub", 2)}
    assert dict(_name_lines(src, attributes=True)) == {"sub": [7]}
    assert _name_lines(src)["sub"] == [7, 7, 8]
