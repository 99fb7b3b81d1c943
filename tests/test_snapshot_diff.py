import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "snapshot_diff.py"
_spec = importlib.util.spec_from_file_location("snapshot_diff", TOOL)
snapshot_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snapshot_diff)

OLD = ('{"check": "ring.identity", "status": "pass"}\n'
       'not a record\n'
       'exit=0\n')


def _snapshot(root, name, text):
    d = root / name
    d.mkdir()
    (d / "z2.verify-ring.txt").write_text(text)
    return d


def test_added_key_is_accepted(tmp_path, capsys):
    old = _snapshot(tmp_path, "old", OLD)
    new = _snapshot(tmp_path, "new", OLD.replace(
        '"pass"}', '"pass", "witness": "2 elements"}'))
    assert snapshot_diff.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("z2.verify-ring.txt:1: added keys\n")
    assert '"witness": "2 elements"' in out


def test_identical_snapshots_print_nothing(tmp_path, capsys):
    old = _snapshot(tmp_path, "old", OLD)
    new = _snapshot(tmp_path, "new", OLD)
    assert snapshot_diff.main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("new_text", [
    OLD.replace('"pass"', '"fail"'),  # a changed status
    OLD.replace('"status": "pass"', '"witness": "2 elements"'),  # a dropped key
    OLD.replace("exit=0", "exit=1"),
    OLD.replace("not a record", "not a record either"),
    OLD + "exit=0\n",
])
def test_other_changes_are_rejected(tmp_path, capsys, new_text):
    old = _snapshot(tmp_path, "old", OLD)
    new = _snapshot(tmp_path, "new", new_text)
    assert snapshot_diff.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out


def test_different_file_sets_are_rejected(tmp_path, capsys):
    old = _snapshot(tmp_path, "old", OLD)
    new = _snapshot(tmp_path, "new", OLD)
    (new / "extra.txt").write_text("exit=0\n")
    assert snapshot_diff.main([str(old), str(new)]) == 1
    assert capsys.readouterr().out == f"extra.txt: only in {new}\n"
