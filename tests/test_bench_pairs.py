import importlib.util
import os
import sys
from pathlib import Path

import pytest

import chaoslab.streams

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def test_pairs_alternate_and_share_their_seed(monkeypatch):
    calls = []

    def fake_run(tree, workload, seed):
        calls.append((tree, seed))
        wall = 1.0 + 0.01 * seed if tree == "parent" else 0.8 + 0.01 * seed
        return {"correct": True, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    out = bench_pairs.bench_pairs({"parent": "parent", "change": "change"},
                                  "poisson-deep", 7, pairs=4)
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
    row = out["metrics"]["wall_s"]
    assert out["seeds"] == [7, 8, 9, 10] and out["all_correct"]
    assert row["parent_samples"] == pytest.approx([1.07, 1.08, 1.09, 1.10])
    assert row["parent"]["median"] == pytest.approx(1.085)
    assert row["parent"]["iqr"] == pytest.approx(0.015)
    assert row["change_lower_in_pairs"] == 4
    assert not bench_pairs.claim_holds(row)  # fewer than ten pairs never back a claim


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parent_iqr():
    parent = [1.0 + 0.01 * i for i in range(10)]  # IQR 0.045
    assert bench_pairs.claim_holds(bench_pairs.compare(parent, [p - 0.05 for p in parent]))
    assert not bench_pairs.claim_holds(bench_pairs.compare(parent, [p - 0.04 for p in parent]))
    eight = [p - 0.2 for p in parent[:8]] + parent[8:]
    assert not bench_pairs.claim_holds(bench_pairs.compare(parent, eight))
    nine = [p - 0.2 for p in parent[:9]] + parent[9:]
    row = bench_pairs.compare(parent, nine)
    assert row["change_lower_in_pairs"] == 9 and row["ties"] == 1 and bench_pairs.claim_holds(row)


def test_each_side_names_its_stream_layout(tmp_path):
    streams = tmp_path / "src" / "chaoslab" / "streams.py"
    streams.parent.mkdir(parents=True)
    streams.write_text('"""Streams."""\n\nLAYOUT_VERSION = 12\nBLOCK_SIZE = 1 << 14\n')
    assert bench_pairs.layout_version(tmp_path) == 12
    streams.write_text("BLOCK_SIZE = 1 << 14\n")
    assert bench_pairs.layout_version(tmp_path) is None
    assert bench_pairs.layout_version(bench_pairs.ROOT) == chaoslab.streams.LAYOUT_VERSION


def test_effective_parallelism_is_the_median_cpu_over_wall_of_two_burners(monkeypatch):
    ratio = bench_pairs.burn_ratio(0.02)
    # two processes can use at most twice the wall time; each burned its 0.02 s
    assert 0.0 < ratio <= 2.05
    with pytest.raises(ChildProcessError):  # both burners were reaped
        os.waitpid(-1, os.WNOHANG)
    readings = iter([1.5, 0.95, 1.05, 1.98, 1.0])
    monkeypatch.setattr(bench_pairs, "burn_ratio", lambda: next(readings))
    assert bench_pairs.effective_parallelism() == 1.05


def test_child_usage_reads_the_child_and_not_the_runner():
    # the runner's own high-water mark rises by 64 MB; a child that allocates
    # nothing still reads small, and one that allocates 64 MB reads that more
    ballast = b"x" * (64 << 20)
    small = bench_pairs.child_usage([sys.executable, "-c", "pass"])
    big = bench_pairs.child_usage([sys.executable, "-c", "b = b'x' * (64 << 20)"])
    failed = bench_pairs.child_usage([sys.executable, "-c", "raise SystemExit(3)"])
    del ballast
    assert small["exit_code"] == big["exit_code"] == 0 and failed["exit_code"] == 3
    assert small["peak_rss_mb"] < 48
    assert big["peak_rss_mb"] >= small["peak_rss_mb"] + 60
    assert big["cpu_s"] > 0 and big["wall_s"] > 0
