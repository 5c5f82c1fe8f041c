"""The parts of ``tools/benchpairs.py`` that need no benchmark run.

The summary over synthetic result records (median, quartiles, IQR and the
pairs won, for a metric where lower is better and one where higher is),
the refusal of two trees whose benchmark harness differs, and the plot
sweep's layouts and counts over a fake plot runner.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _benchpairs():
    spec = importlib.util.spec_from_file_location("benchpairs", ROOT / "tools" / "benchpairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


benchpairs = _benchpairs()
BETTER = {"peak_rss_mb": "lower", "records_per_s": "higher"}


def record(peak, rate, attempted=10, failed=0):
    """A result record as perfbench/run.py writes it, reduced to what the summary reads."""
    return {
        "attempted": attempted, "failed": failed,
        "metrics": {"peak_rss_mb": {"value": peak, "unit": "MB"},
                    "records_per_s": {"value": rate, "unit": "1/s"}},
    }


def test_summary_gives_median_quartiles_and_pairs_won():
    runs = {
        "parent": [record(30.0, 100.0), record(31.0, 120.0), record(29.0, 90.0),
                   record(32.0, 110.0, failed=1)],
        "change": [record(22.0, 130.0), record(33.0, 100.0), record(21.0, 95.0),
                   record(23.0, 110.0, attempted=12)],
    }
    summary = benchpairs.summarize(runs, BETTER)
    assert summary["pairs"] == 4
    assert summary["failed_ops"] == {"parent": 1, "change": 0}
    assert summary["attempted_ops"] == {"parent": 40, "change": 42}
    peak = summary["metrics"]["peak_rss_mb"]
    assert (peak["unit"], peak["better"]) == ("MB", "lower")
    # sorted parent 29, 30, 31, 32: exclusive quartiles at ranks 1.25 and 3.75
    assert peak["parent"] == {"median": 30.5, "q1": 29.25, "q3": 31.75, "iqr": 2.5, "n": 4}
    assert peak["change"]["median"] == 22.5
    assert peak["change_better_in_pairs"] == 3  # lower in pairs 1, 3 and 4
    rate = summary["metrics"]["records_per_s"]
    assert rate["better"] == "higher"
    assert rate["change_better_in_pairs"] == 2  # higher in pairs 1 and 3; pair 4 ties


def test_summary_of_one_pair_has_no_spread():
    summary = benchpairs.summarize({"parent": [record(30.0, 1.0)],
                                    "change": [record(20.0, 2.0)]}, BETTER)
    assert summary["metrics"]["peak_rss_mb"]["change"] == {
        "median": 20.0, "q1": 20.0, "q3": 20.0, "iqr": 0.0, "n": 1}


def harness_tree(root):
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    (root / "src").mkdir()
    return root


def test_equal_harnesses_are_accepted(tmp_path):
    a, b = harness_tree(tmp_path / "a"), harness_tree(tmp_path / "b")
    (b / "src" / "changed.py").write_text("x = 1\n")  # the code may differ
    (b / "perfbench" / "__pycache__").mkdir()
    (b / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"\0")
    assert benchpairs.harness_differences(a, b) == []


@pytest.mark.parametrize("edit", ["changed", "added", "removed", "benchmark"])
def test_differing_harnesses_are_refused(tmp_path, edit):
    a, b = harness_tree(tmp_path / "a"), harness_tree(tmp_path / "b")
    if edit == "changed":
        with open(b / "perfbench" / "run.py", "a") as f:
            f.write("# edited\n")
        expected = ["perfbench/run.py"]
    elif edit == "added":
        (b / "perfbench" / "extra.py").write_text("")
        expected = ["perfbench/extra.py"]
    elif edit == "removed":
        (b / "perfbench" / "oracle.py").unlink()
        expected = ["perfbench/oracle.py"]
    else:
        (b / "BENCHMARK.json").write_text("{}\n")
        expected = ["BENCHMARK.json"]
    assert benchpairs.harness_differences(a, b) == expected


def test_main_refuses_a_parent_with_another_harness(tmp_path, monkeypatch, capsys):
    def export(rev, target):
        harness_tree(target)
        (target / "BENCHMARK.json").write_text("{}\n")
        return target

    def run_once(*args):
        raise AssertionError("a refused comparison runs nothing")

    monkeypatch.setattr(benchpairs, "git", lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(benchpairs, "export", export)
    monkeypatch.setattr(benchpairs, "run_once", run_once)
    assert benchpairs.main(["--parent", "HEAD~1", "--workdir", str(tmp_path)]) == 2
    assert "BENCHMARK.json" in capsys.readouterr().err


def test_plot_sweep_runs_both_trees_at_each_root_length_and_pid_width(tmp_path):
    holder = tmp_path / "t"
    for side in benchpairs.SIDES:
        (holder / side).mkdir(parents=True)
    calls = []

    def run(tree, pid):
        assert tree.is_dir()
        calls.append((tree.name, len(str(tree.parent)), pid))
        # the upper mode at two layouts for the parent and one for the change
        return 29.0 if (len(str(tree.parent)) + len(pid)) % 9 == (0 if tree.name == "parent"
                                                                 else 1) else 22.5

    found = benchpairs.plot_sweep(holder, run)
    lengths = {length for _, length, _ in calls}
    assert len(lengths) == benchpairs.SWEEP_LENGTHS == 16
    assert max(lengths) - min(lengths) == 15
    for side in benchpairs.SIDES:
        layouts = [(length, pid) for name, length, pid in calls if name == side]
        assert len(set(layouts)) == len(layouts) == 48
        assert {len(pid) for _, pid in layouts} == {4, 5, 6}
    # each layout runs both sides, and the first side alternates
    assert [name for name, _, _ in calls[0::2]].count("parent") == 24
    expected = {side: sum(run_mb > 25 for run_mb in (
        29.0 if (length + len(pid)) % 9 == (0 if side == "parent" else 1) else 22.5
        for name, length, pid in calls if name == side)) for side in benchpairs.SIDES}
    assert {side: found[side]["above_limit"] for side in benchpairs.SIDES} == expected
    assert all(found[side]["runs"] == 48 for side in benchpairs.SIDES)
    assert found["parent"]["peak_mb"]["median"] == 22.5


def test_main_plot_sweep_prints_each_side_and_writes_no_bench_file(tmp_path, monkeypatch,
                                                                  capsys):
    def run_once(*args):
        raise AssertionError("the sweep runs no benchmark")

    monkeypatch.setattr(benchpairs, "git", lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(benchpairs, "export", lambda rev, target: harness_tree(target))
    monkeypatch.setattr(benchpairs, "run_once", run_once)
    monkeypatch.setattr(benchpairs, "run_plot",
                        lambda tree, pid: 29.0 if tree.name == "parent" and pid == "4321" else 22.0)
    monkeypatch.setattr(benchpairs, "ROOT", harness_tree(tmp_path / "checkout"))
    work = tmp_path / "work"
    assert benchpairs.main(["--parent", "HEAD~1", "--plot-sweep", "--workdir", str(work)]) == 0
    out = capsys.readouterr().out
    assert "parent: 16 of 48 runs above 25 MB" in out
    assert "change: 0 of 48 runs above 25 MB" in out
    assert not list((tmp_path / "checkout").glob("BENCH_*.json"))
    assert list(work.iterdir()) == []
