import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def canned(passes, verdict, rss, correct=True, workload="splitting"):
    """The output of `perfbench/run.py --workload W`, shortened."""
    metrics = {"setup_s": {"value": 0.2, "unit": "s"},
               "verdict_s": {"value": verdict, "unit": "s"},
               "work_per_s": {"value": 17336 / verdict, "unit": "1/s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        f"{workload}: {passes} passes of 17336 work units; wall times 0.527 0.356 s "
        "at speed factors 1.131 0.686",
        f"{workload}: set-up wall times 0.192 0.211 s at speed factors 0.729 1.129",
        f"{workload} verdict_s {verdict:.6g} s",
        f"{workload} fail_share 0 (0 of 2400 check records)",
        json.dumps({"correct": correct, "attempted": 2400, "failed": 0 if correct else 1,
                    "metrics": metrics}),
    ]) + "\n"


def test_parse_run_reads_passes_verdict_and_metrics():
    passes, correct, metrics = bench_pairs.parse_run(canned(103, 0.514, 40.13))
    assert passes == 103 and correct
    assert metrics["verdict_s"] == 0.514 and metrics["peak_rss_mb"] == 40.13
    assert set(metrics) == {"setup_s", "verdict_s", "work_per_s", "peak_rss_mb"}
    assert bench_pairs.parse_run(canned(7, 0.5, 34.6, correct=False))[1] is False
    # a run that died before its result line
    assert bench_pairs.parse_run("splitting: 7 passes of 1 work units\n") == (7, False, {})
    assert bench_pairs.parse_run("") == (None, False, {})


def test_run_order_alternates_the_first_side():
    assert bench_pairs.run_order(3) == [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1)]


def test_fit_is_the_least_squares_line():
    passes = [86, 103, 109, 114]
    intercept, slope = bench_pairs.fit(passes, [34.08 + 0.0598 * p for p in passes])
    assert intercept == pytest.approx(34.08) and slope == pytest.approx(0.0598)
    assert bench_pairs.fit([1, 3], [1.0, 2.0]) == pytest.approx((0.5, 0.5))
    assert bench_pairs.fit([100, 100], [40.0, 41.0]) is None


def test_quartiles_of_one_and_of_several_runs():
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_verdict_of_each_kind():
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]  # IQR 0.045
    verdict = bench_pairs.verdict

    def pairs(change):
        return list(zip(parent, change))

    faster = [p - 0.1 for p in parent]
    assert verdict(pairs(faster), "lower", 0.15) == "gain"
    # 8 of 10 pairs better is not enough, nor a median gain within PARENT's IQR
    assert verdict(pairs(faster[:8] + parent[8:]), "lower", 0.15) == "same"
    assert verdict(pairs([p - 0.01 for p in parent]), "lower", 0.15) == "same"
    # higher is better: the same runs read as a gain and as worse
    assert verdict(pairs([p * 1.2 for p in parent]), "higher", 0.15) == "gain"
    assert verdict(pairs([p * 1.2 for p in parent]), "lower", 0.15) == "worse"
    assert verdict(pairs([p * 0.8 for p in parent]), "higher", 0.15) == "worse"
    assert verdict(pairs([p * 1.1 for p in parent]), "lower", 0.15) == "same"
    assert verdict(pairs(parent), "lower", 0.15) == "same"
    # a bound tighter than PARENT's own spread cannot tell
    assert verdict(pairs(parent), "lower", 0.01) == "unresolved"
    assert verdict(pairs([p * 1.02 for p in parent]), "lower", 0.01) == "worse"
    wide = [1.0, 1.5] * 5  # IQR 0.5, over 15% of the median 1.25
    assert verdict(list(zip(wide, wide)), "lower", 0.15) == "unresolved"
    assert verdict(list(zip(wide, [0.5] * 10)), "lower", 0.15) == "gain"
    assert bench_pairs.wins(pairs(faster[:8] + parent[8:]), "lower") == 8


def test_main_alternates_and_summarizes(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []
    # the change is faster, so it runs more passes and reads more memory
    outputs = {parent: iter([(100, 0.52), (90, 0.50), (95, 0.51), (105, 0.53)]),
               change: iter([(120, 0.41), (110, 0.40), (115, 0.42), (125, 0.39)])}

    def fake(root, workload, seconds):
        calls.append((root.name, workload, seconds))
        passes, verdict = next(outputs[root])
        return bench_pairs.parse_run(canned(passes, verdict, 34.0 + 0.06 * passes))

    code = bench_pairs.main([str(parent), str(change), "--workload", "splitting",
                             "--pairs", "4", "--seconds", "40"], bench=fake)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [c[0] for c in calls] == ["parent", "change", "change", "parent"] * 2
    assert {c[1:] for c in calls} == {("splitting", 40.0)}
    assert out[0] == ("pair 0 parent: 100 passes, setup_s 0.2, verdict_s 0.52, "
                      "work_per_s 33338.5, peak_rss_mb 40")
    assert [line.split(",")[0] for line in out[1:3]] == [
        "pair 0 change: 120 passes", "pair 1 change: 110 passes"]
    assert out[8:13] == ["pair first parent_passes change_passes", "0 parent 100 120",
                         "1 change 90 110", "2 parent 95 115", "3 change 105 125"]
    verdict = next(line for line in out if line.startswith("verdict_s "))
    assert verdict.endswith("better in 4 of 4 (lower) gain")
    assert "0.515 [0.5075, 0.5225] -> 0.405 [0.3975, 0.4125]" in verdict
    rss = next(line for line in out if line.startswith("peak_rss_mb "))
    assert rss.endswith("better in 0 of 4 (lower) same")  # +3.0%, under the 5% bound
    assert out[-2:] == ["parent peak_rss_mb = 34.0000 + 0.060000 x passes",
                        "change peak_rss_mb = 34.0000 + 0.060000 x passes"]


def test_main_exits_1_on_an_incorrect_run(tmp_path, capsys):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    runs = iter([canned(10, 0.5, 35.0), canned(11, 0.4, 35.1, correct=False)])

    def fake(root, workload, seconds):
        return bench_pairs.parse_run(next(runs))

    assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "splitting",
                             "--pairs", "1"], bench=fake) == 1
    out = capsys.readouterr().out
    assert "pair 0 change: 11 passes, setup_s 0.2," in out
    assert out.count(", incorrect run") == 1 and "peak_rss_mb 35.1, incorrect run" in out
    assert "n/a (fewer than two distinct pass counts)" in out
