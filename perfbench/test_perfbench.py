"""Tests of the benchmark's own tracing, metric naming and correctness gate."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _span(sid, parent, start, end, name="x", tid=1):
    return [name, tid, sid, parent, start, end, {}]


def test_self_time_is_span_minus_child_coverage():
    trace = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),   # overlaps the previous child: the union counts once
        _span(4, 1, 8.0, 12.0),  # only the part inside the parent counts
        _span(5, 3, 2.5, 4.0),   # a grandchild is covered by its own parent
    ]
    selfs = spans.self_times(trace)
    assert selfs[1] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[3] == pytest.approx(3.0 - 1.5)
    assert selfs[5] == pytest.approx(1.5)


def test_parents_follow_the_calling_thread():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    def block():
        tracer.call("inner", leaf, (), {})

    def walk():
        tracer.call("block", block, (), {})

    def outer():
        with ThreadPoolExecutor(max_workers=4) as pool:
            for f in [pool.submit(walk) for _ in range(8)]:
                f.result(timeout=10)

    tracer.call("outer", outer, (), {})
    by_id = {s[spans.SID]: s for s in tracer.spans}
    outer_span = next(s for s in tracer.spans if s[spans.NAME] == "outer")
    assert outer_span[spans.TID] == threading.get_ident()
    for s in tracer.spans:
        if s[spans.NAME] == "block":
            # Worker threads have their own stacks: no parent on the main thread.
            assert s[spans.PARENT] is None
            assert s[spans.TID] != outer_span[spans.TID]
        if s[spans.NAME] == "inner":
            parent = by_id[s[spans.PARENT]]
            assert parent[spans.NAME] == "block"
            assert parent[spans.TID] == s[spans.TID]
    assert len(tracer.spans) == 17
    # No child on the calling thread, so the pool wait is the outer span's self time.
    selfs = spans.self_times(tracer.spans)
    assert selfs[outer_span[spans.SID]] == pytest.approx(
        outer_span[spans.END] - outer_span[spans.START])


def test_metric_names_are_well_formed_and_declared():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert end_to_end == set(run.END_TO_END)
    assert per_layer == set(spans.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for name in end_to_end | per_layer | set(run.WORKLOADS):
        assert NAME.fullmatch(name), name


def test_a_gone_hook_target_is_reported_missing():
    tracer = spans.Tracer()
    missing = spans.install(tracer, hooks=[("mc.assemble", "json", "no_such_function", None)])
    assert "json.no_such_function" in missing
    trace = {"spans": [], "missing": {"chaoslab.mc._assemble": "hook target gone"}}
    metrics, notes = spans.layer_metrics([trace])
    assert "mc.combine_s" not in metrics
    assert notes["mc.combine_s"].startswith("missing")
    assert "report.render_s" in metrics


def test_correctness_gate_counts_failures():
    good = "n,stat,value,stderr\n" + "".join(
        f"{n},{s},0.5,0.1\n" for n in (1, 2) for s in run.PER_N_STATS
    ) + "2,sup_exceed_prob,0.25,0.01\n10,window_event_prob,0.5,0.01\n"
    checks = run.Checks()
    run.check_csv("ok", good, 2, checks)
    assert checks.failed == 0 and checks.attempted > 0
    for bad in (good.replace("n,stat", "n,name"), good.replace("0.25", "nan"),
                good.replace("2,f_mean", "3,f_mean")):
        checks = run.Checks()
        run.check_csv("bad", bad, 2, checks)
        assert checks.failed >= 1

    def proc(code, rows):
        return run.Proc(code, 0.0, 0.0, 0.0, json.dumps({"rows": rows}).encode(), b"")

    flagged = {"label": "mc", "pass": False, "stderr": 0.1}
    exact = {"label": "exact", "pass": False, "stderr": None}
    checks = run.Checks()
    run.check_report("flag", proc(2, [flagged]), checks)
    assert checks.failed == 0 and checks.stat_flags == 1
    checks = run.Checks()
    run.check_report("exact", proc(2, [exact]), checks)
    assert checks.failed == 1
    checks = run.Checks()
    run.check_report("exit", proc(1, []), checks)
    assert checks.failed == 1


@pytest.mark.parametrize("example", ["twopoint", "poisson"])
def test_traced_and_untraced_runs_write_identical_bytes(tmp_path, example):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(run.SRC), os.environ.get("PYTHONPATH")])))
    args = ["simulate", "--example", example, "--n-max", "40", "--reps", "300",
            "--seed", "7", "--format", "json"]
    plain = subprocess.run(
        [sys.executable, "-m", "chaoslab.cli", *args, "--out", str(tmp_path / "plain.csv")],
        env=env, capture_output=True, timeout=120)
    traced = subprocess.run(
        [sys.executable, str(run.SPANS), "--out", str(tmp_path / "trace.json"), "--",
         *args, "--out", str(tmp_path / "traced.csv")],
        env=env, capture_output=True, timeout=120)
    assert plain.returncode == traced.returncode
    assert plain.stdout == traced.stdout
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "traced.csv").read_bytes()
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["missing"] == {}
    names = {s[spans.NAME] for s in trace["spans"]}
    assert {"mc.run_range", "mc.walk_block", "streams.uniform_block", "cli.build_csv"} <= names
