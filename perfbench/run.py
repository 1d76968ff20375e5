"""chaoslab's benchmark: runs the CLI as a user would and checks every output.

    python3 perfbench/run.py --workload poisson-deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is taken from ``src/``.  Each
command is one fresh ``python3 -m chaoslab.cli`` process with the inherited
environment (thread variables are recorded, never pinned), timed from
outside, with CPU time and peak RSS read from ``wait4``.

``--trace 0`` repeats the workload's commands until ``--seconds`` have passed
and reports the end-to-end metrics.  ``--trace 1`` runs the commands once
untraced, once under the spans of ``spans.py``, and, for Monte Carlo
workloads, once more traced with one engine worker, and reports the
per-layer metrics.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SPANS = Path(spans.__file__).resolve()

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
THREAD_VARS = ("CHAOSLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CSV_HEADER = "n,stat,value,stderr"
PER_N_STATS = ("f_mean", "f_sq_mean", "f_abs52_mean", "j1_mean")
SETUP_REPEATS = 7
RUN_DEADLINE_S = 170.0  # commands still running this long after the start are killed
BLOCK = 1 << 14         # trajectories per engine block

# Workload sizes, fixed so that a seed names the same inputs on any machine.
# poisson-deep: one block per core of the 2-core reference machine.
POISSON_N_MAX, POISSON_REPS = 10_000, 2 * BLOCK
TWOPOINT_N_MAX, TWOPOINT_REPS = 150, 1 << 18
DECOMPOSE_SWEEP = 4


@dataclass
class Command:
    args: list[str]
    csv: Path | None = None
    n_max: int = 0
    traj_steps: int = 0  # replications x pair indices, 0 for exact commands


def _simulate(example: str, n_max: int, reps: int, seed: int, start_n: int) -> Command:
    csv = WORK / f"{example}.csv"
    args = ["simulate", "--example", example, "--n-max", str(n_max), "--reps", str(reps),
            "--seed", str(seed), "--out", str(csv), "--format", "json"]
    return Command(args, csv, n_max, reps * (n_max - start_n + 1))


def workload_commands(name: str, seed: int) -> list[Command]:
    """The CLI commands of one pass; the seed is their only varying input."""
    if name == "poisson-deep":
        return [_simulate("poisson", POISSON_N_MAX, POISSON_REPS, seed, start_n=1)]
    if name == "twopoint-wide":
        return [_simulate("twopoint", TWOPOINT_N_MAX, TWOPOINT_REPS, seed, start_n=2)]
    if name == "exact-certify":
        rng = random.Random(seed)
        sweep = [
            Command(["decompose", "--n", str(int(10 ** rng.uniform(0.0, 4.0))),
                     "--seed", str(rng.randrange(2**31)), "--format", "json"])
            for _ in range(DECOMPOSE_SWEEP)
        ]
        return [Command(["moments", "--format", "json"]),
                Command(["series", "--series", "all", "--format", "json"]), *sweep]
    raise KeyError(name)


WORKLOADS = ("poisson-deep", "twopoint-wide", "exact-certify")


# ---------------------------------------------------------------------------
# Running processes


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_process(argv: list[str], env: dict[str, str], deadline: float) -> Proc:
    """Run one process to completion; killed (and reaped) at the deadline."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


# ---------------------------------------------------------------------------
# Correctness checks


@dataclass
class Checks:
    attempted: int = 0
    failed: int = 0
    stat_flags: int = 0  # stochastic rows the CLI's own 3-sigma rule flagged
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def check_report(label: str, proc: Proc, checks: Checks) -> None:
    """Exit status and every checked row of a JSON report.

    Deterministic rows (no stderr) must pass.  Rows with a stderr are the
    CLI's per-row 3-sigma Monte Carlo checks, which carry no multiplicity
    control and are flagged for some fresh seeds of a correct program; they
    are counted as stat_flags, not as failures.  The exit code must be the
    one the report implies: 2 when any row failed, else 0.
    """
    try:
        report = json.loads(proc.stdout)
        rows = report["rows"]
    except (ValueError, KeyError, TypeError):
        checks.check(False, f"{label}: exit {proc.code}, no JSON report: "
                            f"{proc.stderr.decode(errors='replace')[-300:]}")
        return
    any_failed = False
    for row in rows:
        if row.get("pass") is None:
            continue
        any_failed |= row["pass"] is not True
        if row["pass"] is False and row.get("stderr") is not None:
            checks.attempted += 1
            checks.stat_flags += 1
            continue
        checks.check(row["pass"] is True, f"{label}: row failed: {row['label']}")
    # The CLI exits 2 exactly when a row failed; deterministic failures count above.
    expected = 2 if any_failed else 0
    checks.check(proc.code == expected, f"{label}: exit {proc.code}, expected {expected}")


def check_csv(label: str, text: str, n_max: int, checks: Checks) -> None:
    """Header, layout and value ranges of the per-n series CSV."""
    lines = text.split("\n")
    checks.check(lines[0] == CSV_HEADER, f"{label}: CSV header {lines[0]!r}")
    checks.check(text.endswith("\n") and lines[-1] == "", f"{label}: CSV lacks final newline")
    rows = [line.split(",") for line in lines[1:-1]]
    n_first = int(rows[0][0]) if rows and rows[0][0].isdigit() else 0
    expected_per_n = [(str(n), s) for n in range(n_first, n_max + 1) for s in PER_N_STATS]
    per_n = [tuple(r[:2]) for r in rows[: len(expected_per_n)]]
    checks.check(n_first >= 1 and per_n == expected_per_n,
                 f"{label}: per-n rows are not n={n_first}..{n_max} x {PER_N_STATS}")
    prev_sup = math.inf
    prev_n0 = 0
    for r in rows:
        ok = len(r) == 4
        if ok:
            try:
                value = float(r[2])
                se = float(r[3]) if r[3] else 0.0
            except ValueError:
                ok = False
        if ok:
            ok = math.isfinite(value) and math.isfinite(se) and se >= 0.0
        if ok and r[1] in ("f_sq_mean", "f_abs52_mean"):
            ok = value >= 0.0
        if ok and r[1] in ("sup_exceed_prob", "window_event_prob"):
            ok = 0.0 <= value <= 1.0
        if ok and r[1] == "sup_exceed_prob":
            # P(sup over n >= n0) cannot grow with n0, trajectory by trajectory.
            ok = int(r[0]) > prev_n0 and value <= prev_sup
            prev_n0, prev_sup = int(r[0]), value
        checks.check(ok, f"{label}: bad CSV row {','.join(r)}")
    tail = {r[1] for r in rows[len(expected_per_n):]}
    checks.check(tail == {"sup_exceed_prob", "window_event_prob"} and prev_n0 == n_max,
                 f"{label}: CSV lacks the sup/window rows up to n={n_max}")


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""


def run_pass(commands: list[Command], env: dict[str, str], deadline: float,
             checks: Checks, traces: list | None = None) -> Pass:
    """One pass over the workload's commands; traced when `traces` is a list."""
    result = Pass()
    digest = hashlib.sha256()
    for i, cmd in enumerate(commands):
        argv = [sys.executable]
        if traces is not None:
            trace_file = WORK / f"trace{i}.json"
            trace_file.unlink(missing_ok=True)
            argv += [str(SPANS), "--out", str(trace_file), "--"]
        else:
            argv += ["-m", "chaoslab.cli"]
        if cmd.csv is not None:
            cmd.csv.unlink(missing_ok=True)
        proc = run_process(argv + cmd.args, env, deadline)
        label = " ".join(cmd.args[:1] + cmd.args[1:3])
        result.wall_s += proc.wall_s
        result.cpu_s += proc.cpu_s
        result.rss_mb = max(result.rss_mb, proc.rss_mb)
        check_report(label, proc, checks)
        digest.update(proc.stdout)
        if cmd.csv is not None:
            csv = cmd.csv.read_bytes() if cmd.csv.exists() else b""
            check_csv(label, csv.decode(errors="replace"), cmd.n_max, checks)
            digest.update(csv)
        if traces is not None:
            checks.check(trace_file.exists(), f"{label}: traced run wrote no spans")
            if trace_file.exists():
                traces.append(json.loads(trace_file.read_text()))
    result.digest = digest.hexdigest()
    return result


def measure_setup(env: dict[str, str], deadline: float) -> list[float]:
    """Interpreter start until chaoslab.cli is imported, after one warm-up run."""
    argv = [sys.executable, "-c", "import chaoslab.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = run_process(argv, env, deadline)
        if proc.code != 0:
            raise SystemExit(f"cannot import chaoslab.cli from {SRC}: "
                             f"{proc.stderr.decode(errors='replace')[-500:]}")
        if i:
            times.append(proc.wall_s)
    return times


# ---------------------------------------------------------------------------
# Provenance and cross-run determinism


def src_facts() -> dict:
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


_PROBE = """
import json, platform, chaoslab, numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({exc})"
print(json.dumps({"chaoslab": chaoslab.__version__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": blas}))
"""


def provenance(seed: int, env: dict[str, str], deadline: float) -> dict:
    probe = run_process([sys.executable, "-c", _PROBE], env, deadline)
    info = json.loads(probe.stdout) if probe.code == 0 else {"probe_error": probe.stderr.decode()}
    commit = None
    if (ROOT / ".git").exists():
        git = run_process(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env, deadline)
        commit = git.stdout.decode().strip() if git.code == 0 else None
    info.update(
        git_commit=commit,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        thread_env={v: os.environ.get(v) for v in THREAD_VARS},
        seed=seed,
        **src_facts(),
    )
    return info


def check_digest_history(key: str, digest: str, checks: Checks) -> None:
    """Identical commands at identical source must give identical bytes across runs."""
    path = WORK / "digests.json"
    history = json.loads(path.read_text()) if path.exists() else {}
    seen = history.setdefault(key, digest)
    checks.check(seen == digest, f"output digest {digest[:12]} differs from an earlier "
                                 f"run's {seen[:12]} for the same sources and commands")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(history, indent=1, sort_keys=True))
    os.replace(tmp, path)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the command it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "chaoslab" / "cli.py").is_file():
        print(f"error: no chaoslab sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    WORK.mkdir(exist_ok=True)
    env = child_env()
    setup = measure_setup(env, deadline)
    prov = provenance(args.seed, env, deadline)
    commands = workload_commands(args.workload, args.seed)
    steps = sum(c.traj_steps for c in commands)
    checks = Checks()

    t_start = time.monotonic()
    passes = [run_pass(commands, env, deadline, checks)]
    traces, single_traces, traced_passes = [], [], []
    if args.trace:
        traced_passes.append(run_pass(commands, env, deadline, checks, traces))
        if steps:
            traced_passes.append(run_pass(commands, child_env({"CHAOSLAB_THREADS": "1"}),
                                          deadline, checks, single_traces))
    else:
        # Start another pass only while one more of average length still fits.
        while (elapsed := time.monotonic() - t_start) + elapsed / len(passes) <= args.seconds:
            passes.append(run_pass(commands, env, deadline, checks))

    # Every pass, traced or not and at any worker count, must give the same bytes.
    digest = passes[0].digest
    for p in passes[1:] + traced_passes:
        checks.check(p.digest == digest, f"pass output digest {p.digest[:12]} != {digest[:12]}")
    inputs = hashlib.sha256(json.dumps([c.args for c in commands]).encode()).hexdigest()
    check_digest_history(f"{prov['src_sha256']}:{inputs}", digest, checks)

    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    if args.trace:
        overhead = traced_passes[0].wall_s - passes[0].wall_s
        values, notes = spans.layer_metrics(traces, single_traces, overhead)
        metrics = {k: {"value": v, "unit": spans.PER_LAYER[k][0]} for k, v in values.items()}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(p.cpu_s for p in passes),
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        }
        notes = {}
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "passes": len(passes),
        "wall_s_samples": walls,
        "setup_s_samples": setup,
        "traj_steps_per_s": steps / wall if steps else None,
        "check_fail_frac": checks.failed / checks.attempted,
        "stat_flags": checks.stat_flags,
        "digest": digest,
        "problems": checks.problems,
        "notes": notes,
    }
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "metrics": metrics}, indent=1))

    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} untraced pass(es), digest sha256:{digest}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        # Below 21 samples the highest percentile with ten samples beyond it
        # is at or below the median, so only the maximum is shown beside it.
        print(f"  wall_s is the median of {len(walls)} pass(es), max {max(walls):.6g} s; "
              f"setup_s the median of {len(setup)} starts")
    if steps:
        print(f"  {'traj_steps_per_s':<34} {steps / wall:>16.6g} 1/s")
    print(f"  {'check_fail_frac':<34} {summary['check_fail_frac']:>16.6g} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(f"  {'stat_flags':<34} {checks.stat_flags:>16d} (3-sigma rows the CLI flagged)")
    for name, note in notes.items():
        print(f"  note {name}: {note}")
    for problem in checks.problems:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
