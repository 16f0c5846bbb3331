"""tools/pairs.py, the parent/change pair recorder, without running the benchmark."""
import importlib.util
import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).parents[1]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs_tool", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(run_s: float, rss: float, failed: int = 0) -> dict:
    """A vbench/run.py result line with two metrics."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MiB"}}}


def test_pairs_alternate_with_the_parent_first_on_odd_pairs(pairs):
    assert [pairs.pair_order(i) for i in range(1, 5)] == [("parent", "change"), ("change", "parent")] * 2


def test_a_summary_is_the_median_and_the_linear_quartiles_over_runs(pairs):
    runs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    got = pairs.summary(runs, "ms")
    assert (got["q1"], got["value"], got["q3"]) == (2.25, 3.5, 4.75)
    assert got["runs"] == runs and got["unit"] == "ms"
    # the reading of BENCH_gate-kernels.json, the format the recorder writes
    old = json.loads((ROOT / "BENCH_gate-kernels.json").read_text())["result"]["soft-4d"]["metrics"]["setup_s"]
    again = pairs.summary(old["runs"], old["unit"])
    assert np.allclose([again[k] for k in ("q1", "value", "q3")], [old[k] for k in ("q1", "value", "q3")],
                       rtol=1e-15, atol=0)


def test_a_record_has_the_format_of_the_hand_made_ones_and_gathers_workloads(pairs):
    info = {"git_revision": "c", "parent": "p, src_sha256 1", "command": "x", "src_sha256": "2",
            "nproc": 2, "python": "3", "numpy": "2", "backend": "numpy", "threads": {}}
    parent = [result_line(1.0, 70.0), result_line(1.2, 70.0), result_line(1.1, 71.0)]
    change = [result_line(0.9, 70.0), result_line(1.3, 69.0), result_line(1.0, 71.0, failed=1)]
    rec = pairs.record(None, "circuit-4d", info, parent, change, "3 runs")
    hand_made = json.loads((ROOT / "BENCH_gate-kernels.json").read_text())
    shared = ["git_revision", "parent", "command", "src_sha256", "nproc", "python", "numpy", "backend",
              "threads", "repeat_policy", "result", "parent_result", "change_lower_in_pairs",
              "relative_change_of_medians"]
    assert set(shared) <= set(rec) and set(shared) <= set(hand_made)
    side = rec["result"]["circuit-4d"]
    assert set(side) == set(hand_made["result"]["circuit-4d"])
    assert set(side["metrics"]["run_s"]) == set(hand_made["result"]["circuit-4d"]["metrics"]["run_s"])
    assert (side["correct"], side["attempted"], side["failed"], side["runs"]) == (False, 30, 1, 3)
    assert rec["change_lower_in_pairs"]["circuit-4d"] == {"run_s": "2/3", "peak_rss_mb": "1/3"}
    assert rec["relative_change_of_medians"]["circuit-4d"]["run_s"] == pytest.approx(-1 / 11, abs=1e-5)
    assert rec["beyond_parent_iqr"]["circuit-4d"] == {"run_s": True, "peak_rss_mb": False}
    # a second workload of the same sources joins the record; other sources are refused
    rec = pairs.record(json.loads(json.dumps(rec)), "soft-4d", info, parent[:1], change[:1], "1 run")
    assert set(rec["result"]) == {"circuit-4d", "soft-4d"}
    assert rec["change_lower_in_pairs"]["soft-4d"]["run_s"] == "1/1"
    with pytest.raises(SystemExit, match="other sources"):
        pairs.record(rec, "small-2mode", {**info, "src_sha256": "3"}, parent, change, "3 runs")


def test_a_control_series_archives_the_same_tree_on_both_sides(pairs, monkeypatch, tmp_path):
    # git, the copies and the runs stubbed: a clean work tree, every
    # revision resolving to "commit-<rev>", the record written to tmp_path
    archived, provenance = {}, {"src_sha256": "s", "nproc": 2, "python": "3", "numpy": "2",
                                "backend": "numpy", "threads": {}}

    def checkout(tree, where):
        archived[where.name] = tree
        return where

    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "_git", lambda *args, env=None: f"commit-{args[-1]}" if args[0] == "rev-parse" else "")
    monkeypatch.setattr(pairs, "checkout", checkout)
    monkeypatch.setattr(pairs, "run_once", lambda copy, workload, seed, seconds: (provenance, result_line(1.0, 70.0)))
    args = ["--runs", "2", "--seconds", "1", "--workload", "small-2mode"]
    assert pairs.main(["--parent", "abc", "--change", "abc", *args, "--label", "control"]) == 0
    assert archived == {"parent": "commit-abc", "change": "commit-abc"}
    rec = json.loads((tmp_path / "BENCH_control.json").read_text())
    assert rec["git_revision"] == "commit-abc" and "--parent abc --change abc " in rec["command"]
    # without --change, the change side is HEAD
    assert pairs.main(["--parent", "abc", *args, "--label", "head"]) == 0
    assert archived == {"parent": "commit-abc", "change": "commit-HEAD"}
