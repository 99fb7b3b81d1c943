#!/usr/bin/env python3
"""Compare two `tools/cli_snapshot.py` directories, allowing only added keys.

Usage, from anywhere:

    python3 tools/snapshot_diff.py OLD NEW

The exit code is 0 only when
- OLD and NEW hold the same file names;
- each file keeps its number of lines, its `exit=` line and every line
  that is not a JSON object;
- every JSON record that changed keeps each key of the old record with its
  value, and only adds keys.

Each changed record is printed as `file:line`, then the old and the new
line, marked `added keys` when it is accepted and `CHANGED` when it is not.
A refactor that should keep the CLI output byte-identical leaves no record
to print; one that adds fields to records (a count, a seed, a time) prints
them all and still exits 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _record(line):
    """The JSON object on the line, or None when it is not one."""
    try:
        obj = json.loads(line)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def only_added_keys(old_line, new_line) -> bool:
    """Whether the new line is the old JSON record with keys added."""
    old, new = _record(old_line), _record(new_line)
    return (old is not None and new is not None
            and all(k in new and new[k] == v for k, v in old.items()))


def compare(old_dir: Path, new_dir: Path) -> bool:
    """Print every difference between the two snapshots; True when each one
    is an accepted added key."""
    ok = True
    old_names = {p.name for p in old_dir.iterdir()}
    new_names = {p.name for p in new_dir.iterdir()}
    for name in sorted(old_names ^ new_names):
        print(f"{name}: only in {old_dir if name in old_names else new_dir}")
        ok = False
    for name in sorted(old_names & new_names):
        old_lines = (old_dir / name).read_text().splitlines()
        new_lines = (new_dir / name).read_text().splitlines()
        if len(old_lines) != len(new_lines):
            print(f"{name}: {len(old_lines)} lines, now {len(new_lines)}")
            ok = False
            continue
        for k, (old, new) in enumerate(zip(old_lines, new_lines), 1):
            if old == new:
                continue
            accepted = only_added_keys(old, new)
            ok = ok and accepted
            print(f"{name}:{k}: {'added keys' if accepted else 'CHANGED'}\n"
                  f"  - {old}\n  + {new}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    return 0 if compare(args.old, args.new) else 1


if __name__ == "__main__":
    sys.exit(main())
