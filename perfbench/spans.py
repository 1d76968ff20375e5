"""Spans around calls into chaoslab's modules, placed from outside the package.

The traced run imports ``chaoslab.cli``, replaces the module attributes that
callers actually look up with timing wrappers, runs the command, and writes
the recorded spans to a JSON file.  Nothing inside ``src/`` changes.

Run one traced command::

    PYTHONPATH=src python3 perfbench/spans.py --out trace.json -- simulate ...

Each span records its hook name, thread id, span id, parent span id (from a
per-thread stack, because ``mc._walk_block`` runs on a thread pool), start,
end and a few counts taken at the same boundary.  A layer's self time is the
span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Span fields, in the order each record stores them.
NAME, TID, SID, PARENT, START, END, COUNTS = range(7)


class Tracer:
    """In-memory span recorder; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run fn(*args, **kwargs) inside a span; count(args, kwargs, result) adds counts."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        # Counting happens after the span closes, so it is not billed to the layer.
        counts = count(args, kwargs, result) if count else {}
        self.spans.append([name, threading.get_ident(), sid, parent, start, end, counts])
        return result


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        lo, hi = s[START], s[END]
        covered = _union_length(
            (max(c[START], lo), min(c[END], hi))
            for c in children[s[SID]]
            if c[END] > lo and c[START] < hi
        )
        out[s[SID]] = (hi - lo) - covered
    return out


# ---------------------------------------------------------------------------
# Hooks: (hook name, module, attribute path, counter).  The attribute is the
# name the caller looks up: mc binds uniform_block and poisson_from_uniform at
# import, cli binds render_json/render_text, poisson_pair binds the moment
# functions it uses.


def _count_uniforms(args, kwargs, result):
    return {"uniforms": int(result.size)}


def _count_inversions(args, kwargs, result):
    import numpy as np

    return {"inverted": int(result.size), "nonzero": int(np.count_nonzero(result))}


def _count_scalar_inversion(args, kwargs, result):
    return {"inverted": 1, "nonzero": int(result != 0)}


def _count_workers(args, kwargs, result):
    return {"workers": int(result)}


def _count_aggregate_bytes(args, kwargs, result):
    """Bytes of the arrays the returned TrajectoryStats keeps (computed, not measured)."""
    import numpy as np

    total = 0
    for value in vars(result).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list):
            total += sum(v.nbytes for v in value if isinstance(v, np.ndarray))
    return {"aggregate_bytes": total}


def _count_csv(args, kwargs, result):
    return {"csv_bytes": len(result.encode())}


def _count_report_rows(args, kwargs, result):
    report = args[0] if args else kwargs["report"]
    return {"rows": len(report.rows)}


def _count_terms(args, kwargs, result):
    from chaoslab import series

    which = args[0] if args else kwargs["series"]
    n_terms = args[1] if len(args) > 1 else kwargs["n_terms"]
    return {"terms": int(n_terms) - series.START[which] + 1}


_MOMENT_FUNCS = ("poisson_tail", "tail_factorial_bound", "abs_central_moment",
                 "raw_abs_moment", "central_moment_4", "raw_moment_4")

HOOKS = (
    ("streams.generator", "chaoslab.streams", "generator", None),
    ("streams.uniform_block", "chaoslab.mc", "uniform_block", _count_uniforms),
    ("variables.poisson_from_uniform", "chaoslab.mc", "poisson_from_uniform", _count_inversions),
    ("variables.poisson_from_uniform", "chaoslab.point_process", "poisson_from_uniform",
     _count_inversions),
    ("variables.sample_poisson", "chaoslab.point_process", "sample_poisson",
     _count_scalar_inversion),
    ("mc.run_range", "chaoslab.mc", "run_range", _count_aggregate_bytes),
    ("mc.worker_count", "chaoslab.mc", "_worker_count", _count_workers),
    ("mc.walk_block", "chaoslab.mc", "_walk_block", None),
    ("mc.assemble", "chaoslab.mc", "_assemble", None),
    ("mc.sums", "chaoslab.mc", "TrajectoryStats.sums", None),
    ("cli.build_csv", "chaoslab.cli", "build_csv", _count_csv),
    ("report.render", "chaoslab.cli", "render_json", _count_report_rows),
    ("report.render", "chaoslab.cli", "render_text", _count_report_rows),
    ("series.partial_sum", "chaoslab.series", "partial_sum", _count_terms),
    *(("poisson_moments", "chaoslab.poisson_moments", f, None) for f in _MOMENT_FUNCS),
    ("poisson_moments", "chaoslab.poisson_pair", "abs_central_moment", None),
    ("poisson_moments", "chaoslab.poisson_pair", "raw_abs_moment", None),
    ("point_process.decompose_term", "chaoslab.point_process", "decompose_term", None),
)


def _wrap(tracer: Tracer, name: str, fn, count):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer, hooks=HOOKS) -> dict[str, str]:
    """Patch every hook target that exists; return {target: reason} for the rest."""
    missing = {}
    for name, module_name, path, count in hooks:
        target = f"{module_name}.{path}"
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as exc:
            missing[target] = f"hook target gone: {exc}"
            continue
        if not callable(fn):
            missing[target] = "hook target is not callable"
            continue
        setattr(owner, attr, _wrap(tracer, name, fn, count))
    return missing


# ---------------------------------------------------------------------------
# Per-layer metrics from the span files of one traced pass.

# metric -> (unit, hook names it reads).  A metric whose hook target is gone
# is reported missing, with the reason, instead of as a number.
PER_LAYER = {
    "streams.generator_calls": ("count", ("streams.generator",)),
    "streams.generator_s": ("s", ("streams.generator",)),
    "streams.uniforms_drawn": ("count", ("streams.uniform_block",)),
    "streams.uniform_block_s": ("s", ("streams.uniform_block",)),
    "variables.inversions": ("count", ("variables.poisson_from_uniform", "variables.sample_poisson")),
    "variables.poisson_from_uniform_s": (
        "s", ("variables.poisson_from_uniform", "variables.sample_poisson")),
    "variables.nonzero_frac": ("ratio", ("variables.poisson_from_uniform", "variables.sample_poisson")),
    "mc.blocks": ("count", ("mc.walk_block",)),
    "mc.workers": ("count", ("mc.worker_count",)),
    "mc.walk_block_s": ("s", ("mc.walk_block",)),
    "mc.walk_block_max_s": ("s", ("mc.walk_block",)),
    "mc.worker_busy_frac": ("ratio", ("mc.walk_block", "mc.worker_count", "mc.run_range")),
    "mc.scaling_eff": ("ratio", ("mc.worker_count", "mc.run_range")),
    "mc.combine_s": ("s", ("mc.assemble", "mc.sums")),
    "mc.aggregate_bytes": ("bytes_computed", ("mc.run_range",)),
    "cli.build_csv_s": ("s", ("cli.build_csv",)),
    "cli.csv_bytes": ("bytes", ("cli.build_csv",)),
    "report.render_s": ("s", ("report.render",)),
    "report.rows": ("count", ("report.render",)),
    "series.partial_sum_s": ("s", ("series.partial_sum",)),
    "series.terms_summed": ("count", ("series.partial_sum",)),
    "poisson_moments.calls": ("count", ("poisson_moments",)),
    "poisson_moments.s": ("s", ("poisson_moments",)),
    "point_process.decompose_s": ("s", ("point_process.decompose_term",)),
    "trace.overhead_s": ("s", ()),
}


class _Agg:
    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.max_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        self.max_counts: dict[str, int] = defaultdict(int)


def aggregate(traces) -> dict[str, _Agg]:
    """Hook name -> calls, self/total/max seconds and summed counts over all traces."""
    out: dict[str, _Agg] = defaultdict(_Agg)
    for trace in traces:
        selfs = self_times(trace["spans"])
        for s in trace["spans"]:
            agg = out[s[NAME]]
            dur = s[END] - s[START]
            agg.calls += 1
            agg.self_s += selfs[s[SID]]
            agg.total_s += dur
            agg.max_s = max(agg.max_s, dur)
            for key, value in s[COUNTS].items():
                agg.counts[key] += value
                agg.max_counts[key] = max(agg.max_counts[key], value)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(traces, single_worker_traces=(), overhead_s: float = 0.0):
    """(metrics, notes): metric -> value, and metric -> why it is missing or zero.

    `traces` come from one traced pass with the inherited thread settings;
    `single_worker_traces` from the same commands with one engine worker.
    A layer the workload never calls reads 0; a ratio with nothing to
    divide by reads 0.
    """
    agg = aggregate(traces)
    one = aggregate(single_worker_traces)
    gone = {}
    for trace in traces:
        gone.update(trace.get("missing", {}))
    gone_hooks = {name: gone[f"{mod}.{path}"] for name, mod, path, _ in HOOKS
                  if f"{mod}.{path}" in gone}

    def a(name):
        return agg.get(name, _Agg())

    inv = a("variables.poisson_from_uniform")
    scalar_inv = a("variables.sample_poisson")
    inverted = inv.counts["inverted"] + scalar_inv.counts["inverted"]
    workers = a("mc.worker_count").max_counts["workers"]
    run_s = a("mc.run_range").total_s
    one_run_s = one.get("mc.run_range", _Agg()).total_s
    values = {
        "streams.generator_calls": a("streams.generator").calls,
        "streams.generator_s": a("streams.generator").self_s,
        "streams.uniforms_drawn": a("streams.uniform_block").counts["uniforms"],
        "streams.uniform_block_s": a("streams.uniform_block").self_s,
        "variables.inversions": inverted,
        "variables.poisson_from_uniform_s": inv.self_s + scalar_inv.self_s,
        "variables.nonzero_frac": _ratio(
            inv.counts["nonzero"] + scalar_inv.counts["nonzero"], inverted),
        "mc.blocks": a("mc.walk_block").calls,
        "mc.workers": workers,
        "mc.walk_block_s": a("mc.walk_block").self_s,
        "mc.walk_block_max_s": a("mc.walk_block").max_s,
        "mc.worker_busy_frac": _ratio(a("mc.walk_block").total_s, workers * run_s),
        "mc.scaling_eff": _ratio(one_run_s, workers * run_s),
        "mc.combine_s": a("mc.assemble").self_s + a("mc.sums").self_s,
        "mc.aggregate_bytes": a("mc.run_range").counts["aggregate_bytes"],
        "cli.build_csv_s": a("cli.build_csv").self_s,
        "cli.csv_bytes": a("cli.build_csv").counts["csv_bytes"],
        "report.render_s": a("report.render").self_s,
        "report.rows": a("report.render").counts["rows"],
        "series.partial_sum_s": a("series.partial_sum").self_s,
        "series.terms_summed": a("series.partial_sum").counts["terms"],
        "poisson_moments.calls": a("poisson_moments").calls,
        "poisson_moments.s": a("poisson_moments").self_s,
        "point_process.decompose_s": a("point_process.decompose_term").self_s,
        "trace.overhead_s": overhead_s,
    }
    metrics, notes = {}, {}
    for metric, (_, hooks) in PER_LAYER.items():
        lost = [f"{h}: {gone_hooks[h]}" for h in hooks if h in gone_hooks]
        if lost:
            notes[metric] = "missing; " + "; ".join(lost)
            continue
        metrics[metric] = values[metric]
        if hooks and not any(a(h).calls for h in hooks):
            notes[metric] = "0: the workload never calls this layer"
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one chaoslab command with spans.")
    parser.add_argument("--out", required=True, help="JSON file for the recorded spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    missing = install(tracer)
    from chaoslab import cli

    code = cli.main(cli_args)
    sys.stdout.flush()
    with open(args.out, "w") as fh:
        json.dump({"spans": tracer.spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
