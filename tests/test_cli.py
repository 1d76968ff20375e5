import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chaoslab
from chaoslab.cli import _mc_row, build_csv, main
from chaoslab.poisson_moments import CertifiedValue
from chaoslab.report import Report, render_json, render_text
from chaoslab.series import Series, tail_bound
from chaoslab import mc, poisson_moments, poisson_pair, streams


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_single_point(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--lambda-grid", "1.0", "--j-max", "0", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["experiment"] == "moments"
    rows = {r["label"]: r for r in payload["rows"]}
    tail = rows["tail lam=1 j=0"]
    assert tail["value"] == pytest.approx(1 - math.exp(-1), rel=1e-12)
    assert tail["bound"] == 1.0
    assert tail["pass"] is True


def test_moments_above_one_gates_moment_rows(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--lambda-grid", "2.0", "--j-max", "2", "--format", "json"
    )
    assert code == 0
    labels = [r["label"] for r in json.loads(out)["rows"]]
    assert labels == ["tail lam=2 j=0", "tail lam=2 j=1", "tail lam=2 j=2"]


def test_moments_default_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "moments", "--j-max", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 100 * (4 + 6)
    assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("p, label, offset, passed", [
    (2.5, "raw_52 lam=1", -1e-9, True),  # above sqrt(15), inside the certified remainder
    (2.5, "raw_52 lam=1", 1e-9, False),
    (4.0, "raw4_series lam=1", 0.5e-12, True),
    (4.0, "raw4_series lam=1", -0.5e-12, True),
    (4.0, "raw4_series lam=1", 2e-12, False),
    (4.0, "raw4_series lam=1", -2e-12, False),
])
def test_moments_rows_fail_outside_their_tolerance(capsys, monkeypatch, p, label, offset, passed):
    # E Y^(5/2) is checked against sqrt(15) lam plus its remainder bound, and
    # E Y^4 against its closed form to 1e-12 relative, whatever its remainder
    rem = 1e-6
    if p == 2.5:
        value = math.sqrt(15.0) + rem + offset
    else:
        value = poisson_moments.raw_moment_4(1.0) * (1.0 + offset)
    real = poisson_moments.raw_abs_moment
    monkeypatch.setattr(
        poisson_moments, "raw_abs_moment",
        lambda lam, q: CertifiedValue(value, rem) if q == p else real(lam, q),
    )
    code, out, _ = run_cli(
        capsys, "moments", "--lambda-grid", "1.0", "--j-max", "0", "--format", "json"
    )
    rows = {r["label"]: r for r in json.loads(out)["rows"]}
    assert rows[label]["value"] == value
    assert rows[label]["pass"] is passed
    assert code == (0 if passed else 2)


def test_series_command(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--series", "bc_twopoint", "--n", "10000", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert any("bracket" in r["label"] and r["pass"] for r in rows)

    code, out, _ = run_cli(
        capsys, "series", "--series", "harmonic_even", "--n", "100000", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert any("divergence" in r["label"] and r["pass"] for r in rows)


def test_series_below_three_terms_has_no_bracket(capsys):
    # each tail row is the bound beyond the N its label names; the joint-sign
    # bound exists from N = 3 on, the power-series bounds from N = 1
    for argv, tails in (
        (("--n", "2"), {"bc_twopoint tail_bound N=3": tail_bound(Series.TWO_POINT_JOINT, 3),
                        "a_const tail_bound N=2": tail_bound(Series.INTENSITY_FOURTH, 2),
                        "b_const tail_bound N=2": tail_bound(Series.INTENSITY_CROSS, 2)}),
        (("--series", "a_const", "--n", "1"), {"a_const tail_bound N=1": 4.0}),
    ):
        code, out, _ = run_cli(capsys, "series", *argv, "--format", "json")
        assert code == 0, argv
        rows = json.loads(out)["rows"]
        assert not any("bracket:" in r["label"] for r in rows), argv
        assert all(r["pass"] is not False for r in rows), argv
        assert {r["label"]: r["value"] for r in rows if "tail_bound" in r["label"]} == tails


def test_series_usage_error(capsys):
    code, _, err = run_cli(capsys, "series", "--series", "bc_twopoint", "--n", "1")
    assert code == 1
    assert "usage error" in err


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--example", "twopoint", "--n-max", "25", "--reps", "2000",
            "--seed", "11", "--format", "json"]
    code1, stdout1, _ = run_cli(capsys, *args, "--out", str(out1))
    code2, stdout2, _ = run_cli(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert stdout1 == stdout2
    header, first = out1.read_text().splitlines()[:2]
    assert header == "n,stat,value,stderr"
    assert first.startswith("2,f_mean,")
    payload = json.loads(stdout1)
    assert payload["seed"] == 11
    assert all(r["pass"] is not False for r in payload["rows"])


def test_simulate_single_replication_has_empty_stderr(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, stdout, _ = run_cli(
        capsys, "simulate", "--example", "twopoint", "--n-max", "5", "--reps", "1",
        "--seed", "2", "--out", str(out), "--format", "json"
    )
    assert code == 0
    lines = out.read_text().splitlines()[1:]
    assert all(line.endswith(",") for line in lines)  # stderr column empty
    payload = json.loads(stdout)
    assert all(r["stderr"] is None for r in payload["rows"])


@pytest.mark.parametrize("mean, stderr, two_sided, one_sided", [
    (1.29, 0.1, True, True),       # inside 3 stderr above the target
    (1.31, 0.1, False, False),     # outside it
    (0.69, 0.1, False, True),      # far below: under the bound, off the exact value
    (11.0, math.nan, True, True),  # no stderr (one replication): the row passes
])
def test_monte_carlo_rows_pass_within_three_stderr(mean, stderr, two_sided, one_sided):
    report = Report("unit", {}, seed=None)
    _mc_row(report, "exact", mean, stderr, 1.0)
    _mc_row(report, "bound", mean, stderr, 1.0, below=True)
    assert [r.passed for r in report.rows] == [two_sided, one_sided]
    assert all(r.value == mean and r.bound == 1.0 for r in report.rows)
    assert all(r.stderr == (None if math.isnan(stderr) else stderr) for r in report.rows)


def test_tail_single_replication_rows_pass_without_stderr(capsys):
    code, out, _ = run_cli(capsys, "tail", "--reps", "1", "--t-grid", "9,100", "--format", "json")
    assert code == 0
    checked = [r for r in json.loads(out)["rows"] if "vs sup tail bound" in r["label"]]
    assert len(checked) == 2
    assert all(r["pass"] is True and r["stderr"] is None for r in checked)


def test_simulate_budget_exceeded(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--example", "poisson", "--n-max", "1000000",
        "--reps", "1000000"
    )
    assert code == 3
    assert "resource limit" in err


def test_simulate_beyond_max_n_is_a_resource_limit(capsys):
    # the per-n tables and the CSV grow with n_max alone, whatever the budget
    code, out, err = run_cli(
        capsys, "simulate", "--example", "poisson", "--n-max", str(mc.MAX_N + 1), "--reps", "1"
    )
    assert code == 3 and out == ""
    assert err.startswith("resource limit:") and "Traceback" not in err


def test_decompose_manual_counts(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--n", "16", "--counts", "2,1", "--format", "json"
    )
    assert code == 0
    rows = {r["label"]: r for r in json.loads(out)["rows"]}
    lam_e, lam_o = 16.0**-0.75, 16.0 ** (-5.0 / 16.0)
    j1 = lam_o * (2 - lam_e) / math.sqrt(lam_e)
    j2 = (2 - lam_e) * (1 - lam_o) / math.sqrt(lam_e)
    assert rows["order-1 projection"]["value"] == pytest.approx(j1, rel=1e-9)
    assert rows["order-2 projection"]["value"] == pytest.approx(j2, rel=1e-9)
    assert rows["collapsed value"]["value"] == pytest.approx(j1 + j2, rel=1e-9)
    assert rows["residual |J0+J1+J2 - F|"]["pass"] is True


def test_decompose_degenerate_cases(capsys):
    code, out, _ = run_cli(
        capsys, "decompose", "--n", "1", "--counts", "1,0", "--format", "json"
    )
    assert code == 0
    rows = {r["label"]: r for r in json.loads(out)["rows"]}
    for label in ("order-1 projection", "order-2 projection", "collapsed value"):
        assert rows[label]["value"] == 0.0

    for counts in ("3,0", "0,0"):
        code, out, _ = run_cli(
            capsys, "decompose", "--n", "16", "--counts", counts, "--format", "json"
        )
        assert code == 0
        rows = {r["label"]: r for r in json.loads(out)["rows"]}
        # X_2n < 0 at counts 0,0: the zero F_n must not print as -0
        assert math.copysign(1.0, rows["collapsed value"]["value"]) == 1.0, counts
        assert rows["order-2 projection"]["value"] == pytest.approx(
            -rows["order-1 projection"]["value"], rel=1e-12
        )


def test_decompose_sampled_counts_reproducible(capsys):
    code1, out1, _ = run_cli(capsys, "decompose", "--n", "4", "--seed", "99", "--format", "json")
    code2, out2, _ = run_cli(capsys, "decompose", "--n", "4", "--seed", "99", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["seed"] == 99


@pytest.mark.parametrize("argv, digest", [
    (("--n", "4", "--seed", "99"),
     "78784f6e2e2569d55977cdf89b8bb7d75f33c1852f8272a28640e44ac0249343"),
    (("--n", "16", "--counts", "2,1"),
     "bc8ee6709b2c9db84f6b2fde3cf30b236f5d55d575cc267a569023189b9d60f9"),
])
def test_decompose_json_bytes_are_frozen(capsys, argv, digest):
    # sha256 of the JSON stdout: identical flags print identical bytes from
    # one version to the next, the seeded draws of streams.generator included
    code, out, _ = run_cli(capsys, "decompose", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("moments",), "d27a8d5cba69615a42ae4b275cfcdf491fe54ab875289452af90fd1618074247"),
    (("series", "--series", "all", "--n", "100000"),
     "038bded57f59dfd1486689935b5f33cfb0c55b279078ddbea8e638f59b9d5257"),
], ids=["moments", "series"])
def test_exact_json_bytes_are_frozen(capsys, argv, digest):
    # sha256 of the JSON stdout of the certified (non-random) commands
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


FROZEN_TAIL = ("tail", "--n-max", "300", "--reps", "20000", "--seed", "5",
               "--t-grid", "0.5,2,9,16")
FROZEN_SIMULATE = ("simulate", "--example", "twopoint", "--n-max", "60", "--reps", "20000",
                   "--seed", "3", "--epsilon", "0.5")
FROZEN_TWOPOINT = ("simulate", "--example", "twopoint", "--n-max", "60", "--reps", "20000",
                   "--seed", "3", "--epsilon", "1")
FROZEN_POISSON = ("simulate", "--example", "poisson", "--n-max", "300", "--reps", "20000",
                  "--seed", "7")


@pytest.mark.parametrize("argv, fmt, output, digest", [
    (FROZEN_TAIL, "text", "stdout",
     "432e8da9469690c70c0651c1b780c4e0f79a1022eb03d81c3f93612288c98bb0"),
    (FROZEN_TAIL, "json", "stdout",
     "248772aab650a9ac2195c7deb9d9486d5edfd18ec3c1cda729e57163c0c91be8"),
    (FROZEN_SIMULATE, "json", "stdout",
     "05b753e6b804db9689357ee50563277908e004a69b67865b3a9e63e39ce3c8aa"),
    (FROZEN_SIMULATE, "json", "csv",
     "2c2c945c9062d9da3a8392e3a317a1c725e48aa1a4abeea38c97514a05f9073c"),
    (FROZEN_TWOPOINT, "json", "csv",
     "8aae72508026b811cf163630baec00623c774726e4a73b7b67ad98945e53f075"),
    (FROZEN_POISSON, "text", "csv",
     "8f52a7e182b0e2d5545d64e7280faa0798db04432cd278de32d9fb9a17d573d5"),
    (FROZEN_POISSON, "json", "stdout",
     "54f1e637317a0f647f3eded6688bc1b3c35e3dd72b0099eccb593e0e8a84060f"),
], ids=["tail-text", "tail-json", "simulate-json", "simulate-csv", "twopoint-csv", "poisson-csv",
        "poisson-json"])
def test_monte_carlo_bytes_are_frozen(capsys, tmp_path, argv, fmt, output, digest):
    # sha256 of the output: the sup-exceedance, tail-diagnostic and window rows
    # print the same bytes from one version of the engine to the next; the
    # digests are retaken only when the stream layout changes (now 5)
    csv = tmp_path / "out.csv"
    out_flag = ("--out", str(csv)) if argv[0] == "simulate" else ()
    code, out, _ = run_cli(capsys, *argv, *out_flag, "--format", fmt)
    assert code == 0
    data = csv.read_bytes() if output == "csv" else out.encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_decompose_bad_flags(capsys):
    assert run_cli(capsys, "decompose", "--n", "16", "--counts", "2")[0] == 1
    assert run_cli(capsys, "decompose", "--n", "16", "--counts", "a,b")[0] == 1
    assert run_cli(capsys, "decompose", "--n", "0", "--counts", "1,1")[0] == 1
    assert run_cli(capsys, "decompose", "--n", "16")[0] == 1


def test_tail_command(capsys):
    code, out, _ = run_cli(
        capsys, "tail", "--t-grid", "4,9,16", "--n-max", "50", "--reps", "4000",
        "--seed", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    not_applicable = [r for r in rows if "not applicable" in r["label"]]
    assert len(not_applicable) == 1 and not_applicable[0]["pass"] is None
    checked = [r for r in rows if "vs sup tail bound" in r["label"]]
    assert len(checked) == 2 and all(r["pass"] for r in checked)


def test_tail_rows_say_when_the_sup_bound_is_vacuous(capsys, monkeypatch):
    argv = ("tail", "--t-grid", "9,16", "--n-max", "50", "--reps", "4000", "--format", "json")
    checked, vacuous = "3se vs sup tail bound", " (bound >= 1: vacuous)"
    # the real bound is above 1 at every t; the stand-in crosses 1 between 9 and 16
    for bound, suffixes in (
        (poisson_pair.sup_tail_bound, {9.0: vacuous, 16.0: vacuous}),
        (lambda t: 1.0 if t == 9.0 else 0.999, {9.0: vacuous, 16.0: ""}),
    ):
        monkeypatch.setattr(poisson_pair, "sup_tail_bound", bound)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = [r for r in json.loads(out)["rows"] if checked in r["label"]]
        assert [r["label"] for r in rows] == [
            f"P(window sup > {t:g}) - {checked}{suffix}" for t, suffix in suffixes.items()
        ]
        assert all(r["pass"] for r in rows)


@pytest.mark.parametrize("argv", [
    ("tail", "--t-grid", "9,100", "--n-max", "50", "--reps", "4000", "--seed", "3"),
    ("series", "--series", "all", "--n", "10000"),
])
def test_text_columns_line_up_with_the_header(capsys, argv):
    # labels longer than the default 52 columns widen the label column, and
    # stderr cells longer than 12 the stderr column, so every cell stays
    # under its heading
    _, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines()
    top = next(i for i, line in enumerate(lines) if line.startswith("label "))
    header, rows = lines[top], lines[top + 1 : -1]
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    expected = json.loads(out)["rows"]
    assert len(rows) == len(expected) and max(len(r["label"]) for r in expected) > 52
    value_end, bound_end, status_end = (
        header.index(h) + len(h) for h in ("value", "bound", "status"))
    for line, row in zip(rows, expected):
        assert line[: value_end - 20].rstrip() == row["label"]
        assert line[value_end - 20 : value_end].strip() == f"{row['value']:.12g}"
        bound = "" if row["bound"] is None else f"{row['bound']:.12g}"
        assert line[value_end : bound_end].strip() == bound
        status = {None: "", True: "PASS", False: "FAIL"}[row["pass"]]
        assert line[bound_end : status_end].strip() == status
        stderr = "" if row["stderr"] is None else f"{row['stderr']:.12g}"
        assert len(line) == len(header) and line[status_end:].strip() == stderr
    assert lines[-1].startswith("checks: ")


def test_tail_empty_grid_is_usage_error(capsys):
    assert run_cli(capsys, "tail", "--t-grid", "")[0] == 1


def test_tail_rejects_thresholds_before_simulating(capsys, monkeypatch):
    def no_run(config):
        raise AssertionError("simulated before the thresholds were checked")

    monkeypatch.setattr(mc, "run", no_run)
    for t_grid in ("0,9", "9,-1"):
        code, _, err = run_cli(capsys, "tail", "--t-grid", t_grid)
        assert code == 1 and err.startswith("usage error:"), t_grid


def test_unknown_flags_and_commands(capsys):
    assert run_cli(capsys, "simulate", "--example", "gaussian")[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "moments", "--j-max", "-2")[0] == 1
    assert run_cli(capsys, "moments", "--lambda-grid", "inf")[0] == 1
    assert run_cli(capsys, "moments", "--lambda-grid", "0.5,nan")[0] == 1
    assert run_cli(capsys, "tail", "--t-grid", "9,inf")[0] == 1
    assert run_cli(capsys, "simulate", "--example", "poisson", "--epsilon", "inf")[0] == 1
    for argv in (
        ("simulate", "--example", "poisson", "--n-max", "5", "--reps", "3", "--seed", "-1"),
        ("tail", "--n-max", "5", "--reps", "3", "--seed", "-1"),
        ("decompose", "--n", "4", "--seed", "-1"),
        ("moments", "--lambda-grid", "1e300", "--j-max", "1"),
        ("decompose", "--n", str(2**62), "--counts", "1,1"),
        ("decompose", "--n", "5", "--counts", f"{2**63},1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("usage error:"), argv


def _env(**env_vars):
    """The environment with this checkout's package on the path and env_vars set."""
    src = str(Path(chaoslab.__file__).resolve().parents[1])
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(args, **env_vars):
    return subprocess.run(
        [sys.executable, *args], env=_env(**env_vars), capture_output=True, timeout=300
    )


def test_cli_starts_no_blas_threads():
    # the in-process import of chaoslab.cli has set the variable in this process
    env = _env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    script = (
        "import os, chaoslab.cli\n"
        "task = '/proc/self/task'\n"  # Linux: one entry per thread
        "threads = len(os.listdir(task)) if os.path.isdir(task) else '-'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], threads)\n"
    )
    for preset, expected in ((None, "1"), ("2", "2")):
        run_env = env if preset is None else dict(env, OPENBLAS_NUM_THREADS=preset)
        proc = subprocess.run([sys.executable, "-c", script], env=run_env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stdout.split()
        assert value == expected
        if preset is None:
            assert threads in ("1", "-")


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # one full block: a BLAS thread count the user sets does not change the bytes
    outputs = []
    for threads in ("1", "2"):
        csv_path = tmp_path / f"blas{threads}.csv"
        proc = _python(
            ["-m", "chaoslab.cli", "simulate", "--example", "twopoint", "--n-max", "20",
             "--reps", "16384", "--seed", "7", "--format", "json", "--out", str(csv_path)],
            OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_simulate_bytes_do_not_depend_on_worker_processes(tmp_path):
    # two full blocks and a partial one: two forked workers against the serial loop
    outputs = []
    for workers in ("1", "2"):
        csv_path = tmp_path / f"workers{workers}.csv"
        proc = _python(
            ["-m", "chaoslab.cli", "simulate", "--example", "poisson", "--n-max", "50",
             "--reps", str(2 * streams.BLOCK_SIZE + 999), "--seed", "5",
             "--out", str(csv_path)],
            CHAOSLAB_THREADS=workers,
        )
        assert proc.returncode in (0, 2), proc.stderr
        outputs.append((proc.returncode, proc.stdout, proc.stderr, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_series_and_tail_bytes_do_not_depend_on_worker_threads():
    # tail's two blocks run forked at two workers; series runs in this process
    commands = (["series", "--series", "all"],
                ["tail", "--n-max", "300", "--reps", str(2 * streams.BLOCK_SIZE)])
    for argv in commands:
        outputs = []
        for workers in ("1", "2"):
            proc = _python(["-m", "chaoslab.cli", *argv], CHAOSLAB_THREADS=workers)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(") ", 1)[1][0] != "Z"  # an unreaped zombie has exited


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states in /proc")
def test_workers_exit_when_their_parent_is_killed():
    # the parent is killed while its two workers sleep in tasks that would
    # outlast the wait below; the script finds them by wrapping os.fork
    script = (
        "import os, signal, threading, time\n"
        "from chaoslab import workers\n"
        "pids, fork = [], os.fork\n"
        "def recording_fork():\n"
        "    pid = fork()\n"
        "    if pid:\n"
        "        pids.append(pid)\n"
        "    return pid\n"
        "os.fork = recording_fork\n"
        "tasks = [(60,), (60,)]\n"
        "threading.Thread(target=workers.run_tasks, args=(time.sleep, tasks, 2), daemon=True).start()\n"
        "deadline = time.monotonic() + 30\n"
        "while len(pids) < 2 and time.monotonic() < deadline:\n"
        "    time.sleep(0.01)\n"
        "print(*pids, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    )
    # not _python: a worker that outlives the parent would hold its output open
    proc = subprocess.Popen([sys.executable, "-c", script], env=_env(), stdout=subprocess.PIPE)
    with proc.stdout:
        pids = [int(p) for p in proc.stdout.readline().split()]
    assert proc.wait(timeout=60) == -signal.SIGKILL
    assert len(pids) == 2
    try:
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids))
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_importing_the_cli_starts_no_process_pool(tmp_path):
    # no import of the CLI, and no two-worker run of its blocks, loads the pool modules
    pool_modules = "sorted(set(sys.modules) & {'multiprocessing', 'concurrent.futures'})"
    proc = _python(["-c", f"import sys, chaoslab.cli; print({pool_modules})"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"[]"
    script = (
        "import os, sys\n"
        "from chaoslab import cli\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        f"code = cli.main(['simulate', '--example', 'twopoint', '--n-max', '20', '--reps',"
        f" '{2 * streams.BLOCK_SIZE}', '--out', {str(tmp_path / 'tp.csv')!r}])\n"
        f"print(code, len(forks), {pool_modules})\n"
    )
    proc = _python(["-c", script], CHAOSLAB_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split(maxsplit=2)[1:] == [b"2", b"[]"]


def test_exit_code_two_on_failed_row():
    report = Report("unit", {}, seed=None)
    report.add("good", 1.0, 2.0, True)
    assert report.exit_code() == 0
    report.add("bad", 3.0, 2.0, False)
    assert report.exit_code() == 2
    assert "FAIL" in render_text(report)
    assert json.loads(render_json(report))["rows"][1]["pass"] is False


def test_reports_carry_stream_layout_and_exact_stderr(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--example", "poisson", "--n-max", "20", "--reps", "3000",
        "--seed", "5", "--format", "json", "--out", os.devnull,
    )
    payload = json.loads(out)
    # the per-row 3 sigma checks fail by chance on a few seeds; the exit code
    # must say whether one did
    assert code == (2 if any(r["pass"] is False for r in payload["rows"]) else 0)
    assert payload["params"]["stream_layout"] == streams.LAYOUT_VERSION == 5
    rows = {r["label"]: r for r in payload["rows"]}
    model = mc.MODELS["poisson"]
    var4 = model.fourth_moment(4) - model.second_moment(4) ** 2
    assert rows["E[F_4^2] vs exact"]["stderr"] == pytest.approx(math.sqrt(var4 / 3000), rel=1e-12)
    assert rows["E[F_4] vs 0"]["stderr"] == pytest.approx(
        math.sqrt(model.second_moment(4) / 3000), rel=1e-12)
    p = mc.run(mc.SimConfig(example="poisson", n_max=20, replications=3000,
                            master_seed=5)).window_law()[0][0]
    assert rows["window[10,20) event prob vs exact"]["stderr"] == pytest.approx(
        math.sqrt(p * (1 - p) / 3000), rel=1e-12)
    code, out, _ = run_cli(
        capsys, "tail", "--n-max", "5", "--reps", "3", "--seed", "1", "--format", "json")
    assert json.loads(out)["params"]["stream_layout"] == 5


def test_csv_layout():
    cfg = mc.SimConfig(example="poisson", n_max=12, replications=64, master_seed=8)
    stats = mc.run(cfg)
    lines = build_csv(stats).splitlines()
    assert lines[0] == "n,stat,value,stderr"
    per_n = [l for l in lines[1:] if l.split(",")[1].startswith(("f_", "j1_"))]
    assert len(per_n) == 12 * 4
    assert any(l.split(",")[1] == "sup_exceed_prob" for l in lines)
