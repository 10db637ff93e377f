"""Schema of BENCH_trajectory.json, the record of benchmark figures over the
project's history: every workload and metric it names is one that
BENCHMARK.json declares, every figure is a median within its quartiles, and
entries are only appended to the committed file."""

import json
import math
import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({w["name"] for w in bench["workloads"]},
            {m["name"] for m in (*bench["end_to_end"], *bench["per_layer"])})


@pytest.fixture(scope="module")
def entries():
    doc = json.loads((ROOT / "BENCH_trajectory.json").read_text())
    assert set(doc) == {"about", "entries"} and doc["entries"]
    return doc["entries"]


def check_stats(stats):
    assert set(stats) == {"median", "q1", "q3"}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in stats.values())
    assert stats["q1"] <= stats["median"] <= stats["q3"]


def is_commit(value):
    return isinstance(value, str) and re.fullmatch(r"[0-9a-f]{40}", value) is not None


def test_every_entry_names_declared_workloads_and_metrics(entries, declared):
    workloads, metrics = declared
    for entry in entries:
        assert entry["kind"] in ("baseline", "pairs")
        assert re.fullmatch(r"\d{4}-\d{2}-\d{2}", entry["recorded"])
        assert entry["label"] and entry["how"] and entry["env"]["nproc"] >= 1
        assert entry["workloads"] and set(entry["workloads"]) <= workloads
        for figures in entry["workloads"].values():
            groups = figures["rounds"] if entry["kind"] == "baseline" else [figures]
            for group in groups:
                assert group["metrics"] and set(group["metrics"]) <= metrics


def test_committed_entries_are_kept_in_order(entries):
    # The entries of the file at HEAD lead the working file's, unchanged.
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
    except FileNotFoundError:
        top = None
    if top is None or top.returncode != 0 or pathlib.Path(top.stdout.strip()) != ROOT:
        pytest.skip("the tree is not a git checkout")
    shown = subprocess.run(["git", "show", "HEAD:./BENCH_trajectory.json"], cwd=ROOT,
                           capture_output=True, text=True, timeout=60, check=True)
    committed = json.loads(shown.stdout)["entries"]
    assert entries[:len(committed)] == committed


def test_recorded_dates_only_grow(entries):
    dates = [entry["recorded"] for entry in entries]
    assert dates == sorted(dates)


def test_baseline_rounds(entries):
    baselines = [entry for entry in entries if entry["kind"] == "baseline"]
    assert baselines and entries[0] is baselines[0]
    for entry in baselines:
        assert is_commit(entry["commit"])
        for figures in entry["workloads"].values():
            for group in figures["rounds"]:
                assert group["seeds"] and group["failed"] <= group["attempted"]
                for stats in group["metrics"].values():
                    check_stats(stats)


def test_pairs(entries, declared):
    for entry in (entry for entry in entries if entry["kind"] == "pairs"):
        assert is_commit(entry["parent_commit"])
        assert entry["commit"] is None or is_commit(entry["commit"])
        claimed = entry.get("claimed")
        if claimed is not None:
            assert claimed["metric"] in entry["workloads"][claimed["workload"]]["metrics"]
        for figures in entry["workloads"].values():
            assert figures["pairs"] == len(figures["seeds"]) == len(set(figures["seeds"])) >= 1
            assert set(figures["failed"]) == {"parent", "change"}
            for metric in figures["metrics"].values():
                assert set(metric) == {"parent", "change", "change_better"}
                check_stats(metric["parent"])
                check_stats(metric["change"])
                assert 0 <= metric["change_better"] <= figures["pairs"]
