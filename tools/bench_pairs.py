"""Alternated parent/change pairs of the benchmark, written to BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr 12 --parent HEAD~1 --change HEAD \\
        --claim poisson-deep:wall_s

Both revisions are exported with ``git archive`` into fresh temporary
directories, so each side runs the committed files only, from a tree of the
same shape.  For every workload of ``BENCHMARK.json``, pair i of ten runs
``perfbench/run.py --workload W --seed S+i --seconds T --trace 0`` once on
each side, T being the benchmark's ``run_seconds``, the parent first in even
pairs; both sides of a pair use the same seed.  The file records, per
workload and end-to-end metric, the median and inclusive quartiles of each
side, every sample and the pairs in which the change reads lower; then the
Tier-1 wall time and pass count of each side (two alternated runs each), the
``src/chaoslab/*.py`` line counts and ``streams.LAYOUT_VERSION`` of each side,
and the core count with the Python and numpy versions.  It also runs
``chaoslab tail``, ``chaoslab simulate --example poisson --out <tmp>``,
``chaoslab moments`` and ``chaoslab series`` at their default sizes, five
alternated runs a side with ``CHAOSLAB_THREADS``
unset and at 1, and records the wall time, CPU time and peak RSS of each run,
read by a small helper process from its child's ``wait4``: a forked child
starts with the high-water mark of the process that forked it, so the
runner's own mark stays out of the number.  It also records the
host's effective parallelism before and after the pairs: the median, over
five burns, of the CPU/wall ratio of two forked CPU burners of 0.2 s each,
near 2 where the host runs two processes side by side and near 1 where it
runs them one at a time, which the core count alone does not tell.  A claim
``workload:metric`` holds when there are at least ten pairs, the change reads
lower in at least 9 of 10 of them and its median is below the parent's by
more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]
PAIRS = 10
TIER1_RUNS = 2  # per side
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
BURNS = 5
BURN_S = 0.2  # CPU seconds of each of a burn's two processes
DEFAULT_COMMANDS = {"tail": ["tail"],
                    "simulate-poisson": ["simulate", "--example", "poisson", "--out", "{out}"],
                    "moments": ["moments"], "series": ["series"]}
DEFAULT_RUNS = 5  # per side, command and CHAOSLAB_THREADS setting
DEFAULT_THREADS = ("unset", "1")
# Run as `python -c CHILD_USAGE command...`: fork and exec the command with
# stdout to /dev/null, wait4 for it, print its usage as JSON.
CHILD_USAGE = """
import json, os, sys, time
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execvp(sys.argv[1], sys.argv[1:])
_, status, ru = os.wait4(pid, 0)
print(json.dumps({"wall_s": time.perf_counter() - start, "cpu_s": ru.ru_utime + ru.ru_stime,
                  "peak_rss_mb": ru.ru_maxrss / 1024,
                  "exit_code": os.waitstatus_to_exitcode(status)}))
"""


def export(rev: str, dest: Path) -> str:
    """Write the files of commit `rev` under `dest`; returns the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench run; its last output line is the JSON summary."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{tree.name} {workload} seed {seed}: no output\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def burn_ratio(seconds: float = BURN_S) -> float:
    """CPU time over wall time of two forked processes that each spin for
    `seconds` of CPU time; two processes, never more."""
    start, pids = time.perf_counter(), []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            try:
                end = time.process_time() + seconds
                while time.process_time() < end:
                    pass
            finally:
                os._exit(0)
        pids.append(pid)
    cpu = sum(ru.ru_utime + ru.ru_stime for ru in (os.wait4(pid, 0)[2] for pid in pids))
    return cpu / (time.perf_counter() - start)


def effective_parallelism(burns: int = BURNS) -> float:
    """The median burn_ratio of `burns` burns, one after another."""
    return round(statistics.median(burn_ratio() for _ in range(burns)), 2)


def quartiles(samples: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "iqr": round(q3 - q1, 4)}


def compare(parent: list[float], change: list[float]) -> dict:
    """Both sides' quartiles and the pairs in which the change reads lower."""
    return {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        "ties": sum(c == p for p, c in zip(parent, change)),
        "parent_samples": parent,
        "change_samples": change,
    }


def claim_holds(row: dict) -> bool:
    """At least PAIRS pairs, lower in 9 of 10 of them, and by more than the
    parent's IQR in the median."""
    pairs = len(row["parent_samples"])
    gap = row["parent"]["median"] - row["change"]["median"]
    return (pairs >= PAIRS and 10 * row["change_lower_in_pairs"] >= 9 * pairs
            and gap > row["parent"]["iqr"])


def bench_pairs(trees: dict[str, Path], workload: str, seed: int, pairs: int = PAIRS) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(trees[side], workload, seed + i))
            wall = runs[side][-1]["metrics"]["wall_s"]["value"]
            print(f"{workload} pair {i} {side}: wall_s {wall:.4g}", file=sys.stderr)
    first = runs["parent"][0]["metrics"]
    return {
        "pairs": pairs,
        "seeds": [seed + i for i in range(pairs)],
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed_checks": sum(r["failed"] for side in runs.values() for r in side),
        "metrics": {
            name: {"unit": first[name]["unit"],
                   **compare(*([r["metrics"][name]["value"] for r in runs[side]]
                               for side in ("parent", "change")))}
            for name in first
        },
    }


def child_usage(command: list[str], cwd=None, env=None) -> dict:
    """Wall time, CPU time, peak RSS (MB) and exit code of one run of `command`,
    taken by the CHILD_USAGE helper; the peak is the largest of the command's
    process and the workers it waited for."""
    proc = subprocess.run([sys.executable, "-c", CHILD_USAGE, *command], cwd=cwd, env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def default_commands(trees: dict[str, Path], out_dir: Path) -> dict:
    """DEFAULT_RUNS alternated runs a side of each DEFAULT_COMMANDS entry, per
    DEFAULT_THREADS setting: each metric compared as in the workloads, plus
    every exit code."""
    out = {}
    for name, args in DEFAULT_COMMANDS.items():
        for threads in DEFAULT_THREADS:
            runs = {"parent": [], "change": []}
            for i in range(DEFAULT_RUNS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    env = dict(os.environ, PYTHONPATH="src")
                    env.pop("CHAOSLAB_THREADS", None)
                    if threads != "unset":
                        env["CHAOSLAB_THREADS"] = threads
                    command = [sys.executable, "-m", "chaoslab.cli",
                               *(a.format(out=out_dir / f"{side}.csv") for a in args)]
                    runs[side].append(child_usage(command, cwd=trees[side], env=env))
            out[f"{name} CHAOSLAB_THREADS={threads}"] = {
                "exit_codes": {side: [r["exit_code"] for r in rs] for side, rs in runs.items()},
                **{metric: compare(*([round(r[metric], 4) for r in runs[side]]
                                     for side in ("parent", "change")))
                   for metric in ("wall_s", "cpu_s", "peak_rss_mb")},
            }
            print(f"{name} CHAOSLAB_THREADS={threads}: done", file=sys.stderr)
    return out


def tier1(trees: dict[str, Path]) -> dict:
    """Alternated Tier-1 runs: wall time from outside, and the pass count."""
    out = {side: {"passed": None, "failed": 0, "wall_s": []} for side in trees}
    for i in range(TIER1_RUNS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            env = dict(os.environ, PYTHONPATH="src")
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, *TIER1], cwd=trees[side], env=env,
                                  capture_output=True, text=True)
            out[side]["wall_s"].append(round(time.perf_counter() - t, 2))
            tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            for key in ("passed", "failed"):
                found = re.search(rf"(\d+) {key}", tail)
                out[side][key] = int(found.group(1)) if found else 0
    return out


def src_lines(tree: Path) -> dict:
    files = sorted((tree / "src" / "chaoslab").glob("*.py"))
    counts = {f.relative_to(tree).as_posix(): len(f.read_bytes().splitlines()) for f in files}
    return {**counts, "total": sum(counts.values())}


def layout_version(tree: Path) -> int | None:
    """streams.LAYOUT_VERSION of the tree, read from its source, or None."""
    source = (tree / "src" / "chaoslab" / "streams.py").read_text()
    found = re.search(r"^LAYOUT_VERSION = (\d+)$", source, re.MULTILINE)
    return int(found.group(1)) if found else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--claim", help="workload:metric the change claims to improve")
    parser.add_argument("--note", default="", help="what the change is, in one line")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), trees[side]) for side in trees}
        parallelism = {"before": effective_parallelism()}
        workloads = {w: bench_pairs(trees, w, args.seed + 100 * k) for k, w in enumerate(WORKLOADS)}
        defaults = default_commands(trees, Path(tmp))
        parallelism["after"] = effective_parallelism()
        bench = {
            "description": (
                f"Alternated parent/change pairs of perfbench/run.py --seconds {SECONDS:g} "
                f"--trace 0 ({PAIRS} pairs per workload, parent first in even pairs, both "
                "sides exported by git archive); median and inclusive quartiles of each "
                "end-to-end metric; change_lower_in_pairs counts pairs where the change reads "
                "lower."),
            "parent_commit": commits["parent"],
            "change_commit": commits["change"],
            "change": args.note,
            "machine": {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
                        "effective_parallelism": parallelism,
                        "python": platform.python_version(), "numpy": np.__version__},
            "workloads": workloads,
            "default_commands": {
                "description": (
                    "chaoslab tail, simulate --example poisson, moments and series at their "
                    "default sizes, "
                    f"{DEFAULT_RUNS} alternated runs a side per CHAOSLAB_THREADS setting; peak "
                    "RSS from the command's wait4 in a small helper process"),
                **defaults},
            "tier1": {"command": "PYTHONPATH=src python " + " ".join(TIER1),
                      **tier1(trees)},
            "src_lines": {"command": "wc -l src/chaoslab/*.py",
                          **{side: src_lines(tree) for side, tree in trees.items()}},
            "stream_layout": {side: layout_version(tree) for side, tree in trees.items()},
        }
    if args.claim:
        workload, metric = args.claim.split(":")
        row = bench["workloads"][workload]["metrics"][metric]
        bench["claimed"] = {"workload": workload, "metric": metric, "holds": claim_holds(row)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
