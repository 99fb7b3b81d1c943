import importlib.util
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "closure_timing.py"
_spec = importlib.util.spec_from_file_location("closure_timing", TOOL)
closure_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(closure_timing)

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_runs_cover_every_preset_and_the_cyclic_closure():
    names = [name for name, _ in closure_timing.runs()]
    presets = sorted(p.stem for p in (ROOT / "configs").glob("*.cfg"))
    assert names == [f"{p}.check-perfect" for p in presets] + ["z10007_n2.cyclic-closure"]
    assert all(cmd[0] == sys.executable for _, cmd in closure_timing.runs())


def test_measure_reads_each_childs_own_peak_and_exit():
    # a child's peak is at least this process's, so the larger child holds
    # 64 MB more; it runs first, as a peak over all children would carry it over
    size = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024) + 64
    _, big, code = closure_timing.measure([sys.executable, "-c", f"bytearray({size} << 20)"])
    wall, small, exit3 = closure_timing.measure([sys.executable, "-c", "raise SystemExit(3)"])
    assert code == 0 and big >= size
    assert exit3 == 3 and small < size and wall > 0


def test_cyclic_closure_exits_on_its_order():
    # the same script on Z/101: the closure of X12(1) has order 101
    small = closure_timing.CYCLIC.replace("10007", "101")
    assert closure_timing.measure([sys.executable, "-c", small], ENV)[2] == 0
    wrong = small.replace("!= 101", "!= 102")
    assert closure_timing.measure([sys.executable, "-c", wrong], ENV)[2] == 1


def test_children_run_with_one_blas_thread():
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    check = f"import os, sys; sys.exit([os.environ.get(k) for k in {names!r}] != ['1'] * 3)"
    assert closure_timing.measure([sys.executable, "-c", check], closure_timing.child_env())[2] == 0
    bare = {k: v for k, v in ENV.items() if k not in names}
    assert closure_timing.measure([sys.executable, "-c", check], bare)[2] == 1
