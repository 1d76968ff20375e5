import dataclasses
import math
import os
import pickle
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import dense_oracle
from chaoslab import mc, poisson_pair, two_point, workers
from chaoslab.errors import BadIndexError, ResourceLimitError
from chaoslab.point_process import decompose_term
from chaoslab.streams import BLOCK_SIZE


def cells_equal(a: mc.TrajectoryStats, b: mc.TrajectoryStats) -> bool:
    return np.array_equal(a.cells, b.cells) and np.array_equal(a.cell_counts, b.cell_counts)


def stats_equal(a: mc.TrajectoryStats, b: mc.TrajectoryStats) -> bool:
    return (
        np.array_equal(a.sup_hits, b.sup_hits)
        and cells_equal(a, b)
        and np.array_equal(a.win_hits, b.win_hits)
    )


def test_config_validation():
    with pytest.raises(BadIndexError):
        mc.SimConfig(example="gaussian")
    with pytest.raises(BadIndexError):
        mc.SimConfig(example="twopoint", n_max=1)
    with pytest.raises(BadIndexError):
        mc.SimConfig(example="poisson", replications=0)
    for bad_thresholds in ((), (0.0,), (math.inf,), (math.nan,), (1.0, -1.0)):
        with pytest.raises(BadIndexError):
            mc.SimConfig(example="poisson", thresholds=bad_thresholds)
    assert mc.SimConfig(example="poisson", thresholds=[2, 9]).thresholds == (2.0, 9.0)
    for bad_seed in (-1, 2**64):
        with pytest.raises(BadIndexError):
            mc.SimConfig(example="poisson", master_seed=bad_seed)


def test_budget_limit():
    cfg = mc.SimConfig(example="poisson", n_max=10**6, replications=10**6)
    with pytest.raises(ResourceLimitError):
        mc.run(cfg)


def test_rerun_is_bitwise_identical():
    cfg = mc.SimConfig(example="poisson", n_max=40, replications=5000, master_seed=3)
    assert stats_equal(mc.run(cfg), mc.run(cfg))
    cfg = mc.SimConfig(example="twopoint", n_max=40, replications=5000, master_seed=3)
    assert stats_equal(mc.run(cfg), mc.run(cfg))


@pytest.mark.parametrize("example", ["poisson", "twopoint"])
def test_thread_count_invariance(monkeypatch, example):
    cfg = mc.SimConfig(
        example=example, n_max=50, replications=2 * BLOCK_SIZE + 999, master_seed=5
    )
    monkeypatch.setenv("CHAOSLAB_THREADS", "1")
    s1 = mc.run(cfg)
    monkeypatch.setenv("CHAOSLAB_THREADS", "8")
    s8 = mc.run(cfg)
    assert stats_equal(s1, s8)
    assert np.array_equal(s1.sums("f_sq"), s8.sums("f_sq"))


def test_worker_count_follows_usable_cpus(monkeypatch):
    assert mc._worker_count is workers.worker_count
    monkeypatch.delenv("CHAOSLAB_THREADS", raising=False)
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert workers.worker_count(10) == 3
    assert workers.worker_count(2) == 2
    monkeypatch.setenv("CHAOSLAB_THREADS", "5")
    assert workers.worker_count(10) == 5
    assert workers.worker_count(4) == 4
    for bad in ("0", "-2"):
        monkeypatch.setenv("CHAOSLAB_THREADS", bad)
        with pytest.raises(BadIndexError, match="at least 1"):
            workers.worker_count(10)
    monkeypatch.delenv("CHAOSLAB_THREADS")
    monkeypatch.delattr(workers.os, "sched_getaffinity", raising=False)
    assert workers.worker_count(10) == 10


def test_without_fork_the_blocks_run_in_process(monkeypatch):
    cfg = mc.SimConfig(example="poisson", n_max=30, replications=BLOCK_SIZE + 77, master_seed=8)
    monkeypatch.setenv("CHAOSLAB_THREADS", "1")
    serial = mc.run(cfg)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")
    pids = []
    walk = mc._walk_block

    def recording(config, lo, hi):
        pids.append(os.getpid())
        return walk(config, lo, hi)

    monkeypatch.setattr(mc, "_walk_block", recording)
    assert stats_equal(mc.run(cfg), serial)
    assert pids == [os.getpid()] * 2


class _TaskFailed(Exception):
    pass


def _task(i, parent, action):
    """(i, this process's id), after the action: None, "raise", "sleep", or
    "exit", which leaves a forked worker by os._exit(3)."""
    if action == "raise":
        raise _TaskFailed(f"task {i} failed in a worker")
    if action == "exit" and os.getpid() != parent:
        os._exit(3)
    if action == "sleep":
        time.sleep(30)
    return i, os.getpid()


@pytest.mark.parametrize("case", ["order", "raise", "exit"])
def test_run_tasks_keeps_order_passes_errors_and_reaps_its_workers(case):
    # in the error cases worker 1 fails while worker 2 sleeps: the caller
    # gets the failure at once, and worker 2 is killed, not waited for
    parent = os.getpid()
    if case == "order":
        for n_tasks in range(1, 6):
            out = workers.run_tasks(_task, [(i, parent, None) for i in range(n_tasks)])
            assert [i for i, _ in out] == list(range(n_tasks))
            pids = {pid for _, pid in out}  # one process per task, or this one
            assert len(pids) == n_tasks
            assert (parent in pids) == (n_tasks == 1)
    else:
        tasks = [(i, parent, {1: case, 2: "sleep"}.get(i)) for i in range(6)]
        error, message = {"raise": (_TaskFailed, "task 1 failed in a worker"),
                          "exit": (RuntimeError, "worker 1 ended with exit status 3")}[case]
        start = time.monotonic()
        with pytest.raises(error, match=message):
            workers.run_tasks(_task, tasks)
        assert time.monotonic() - start < 15
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_a_run_builds_its_plan_once(monkeypatch):
    # the blocks of an in-process run and its result share one cached plan
    model = mc.MODELS["poisson"]
    calls = []

    def tables(n_values):
        calls.append(len(n_values))
        return model.tables(n_values)

    monkeypatch.setitem(mc.MODELS, "poisson", dataclasses.replace(model, tables=tables))
    monkeypatch.setenv("CHAOSLAB_THREADS", "1")
    mc._plan.cache_clear()
    cfg = mc.SimConfig(example="poisson", n_max=30, replications=2 * BLOCK_SIZE + 1, master_seed=2)
    stats = mc.run(cfg)
    stats.window_law()
    stats.proportion(stats.sup_hits[0])
    mc._plan.cache_clear()  # no later test reads the plan of the wrapped tables
    assert calls == [30]


def test_worker_results_carry_no_plan():
    # a block's result holds what its draws determine, and nothing per
    # trajectory: the per-n tables are rebuilt from the config where they are
    # read, and the sup-exceedance counts are counts
    cfg = mc.SimConfig(example="poisson", n_max=2000, replications=BLOCK_SIZE,
                       thresholds=(0.5, 2.0, 9.0))
    block = mc._walk_block(cfg, 0, BLOCK_SIZE)
    assert len(pickle.dumps(block)) <= block.cells.nbytes + block.cell_counts.nbytes + 4 * 1024


def test_a_wrapped_walk_block_runs_in_the_workers(monkeypatch, tmp_path):
    # a tracer replaces _walk_block with a closure; the forked workers
    # inherit it, and _walk_blocks looks it up there
    cfg = mc.SimConfig(example="poisson", n_max=40, replications=2 * BLOCK_SIZE, master_seed=13)
    monkeypatch.setenv("CHAOSLAB_THREADS", "2")
    plain = mc.run_range(cfg, 0, cfg.replications)
    walk = mc._walk_block

    def wrapped(config, lo, hi):
        (tmp_path / str(lo)).write_text(str(os.getpid()))
        return walk(config, lo, hi)

    monkeypatch.setattr(mc, "_walk_block", wrapped)
    wrapped_run = mc.run_range(cfg, 0, cfg.replications)
    assert stats_equal(wrapped_run, plain)
    assert np.array_equal(wrapped_run.sums("f"), plain.sums("f"))
    pids = {int((tmp_path / str(lo)).read_text()) for lo in (0, BLOCK_SIZE)}
    assert os.getpid() not in pids


def test_merge_equals_single_run():
    cfg = mc.SimConfig(
        example="twopoint", n_max=30, replications=2 * BLOCK_SIZE + 123, master_seed=17
    )
    full = mc.run(cfg)
    a = mc.run_range(cfg, 0, BLOCK_SIZE)
    b = mc.run_range(cfg, BLOCK_SIZE, cfg.replications)
    merged = mc.merge(a, b)
    assert stats_equal(full, merged)
    assert np.array_equal(full.sums("f_abs52"), merged.sums("f_abs52"))
    with pytest.raises(BadIndexError):
        mc.merge(b, a)
    with pytest.raises(BadIndexError):
        mc.run_range(cfg, 100, 200)
    with pytest.raises(BadIndexError):
        mc.run_range(cfg, 0, 0)
    with pytest.raises(BadIndexError):
        mc.run_range(cfg, BLOCK_SIZE, 0)
    other = mc.SimConfig(
        example="twopoint", n_max=30, replications=cfg.replications, master_seed=18
    )
    with pytest.raises(BadIndexError):
        mc.merge(a, mc.run_range(other, BLOCK_SIZE, cfg.replications))
    # a range of one trajectory has no sample variance, but merges exactly
    one_more = dataclasses.replace(cfg, replications=BLOCK_SIZE + 1)
    last = mc.run_range(one_more, BLOCK_SIZE, BLOCK_SIZE + 1)
    with pytest.raises(BadIndexError, match="two trajectories"):
        last.mean_with_stderr("f_sq")
    full, merged = mc.run(one_more), mc.merge(mc.run_range(one_more, 0, BLOCK_SIZE), last)
    assert stats_equal(full, merged)
    assert np.array_equal(full.mean_with_stderr("f_sq"), merged.mean_with_stderr("f_sq"))


def test_replication_count_and_estimates():
    # at the fewest replications, two, every standard error is a number
    cfg = mc.SimConfig(example="poisson", n_max=5, replications=2, master_seed=1)
    stats = mc.run(cfg)
    assert stats.replications == 2
    for stat in mc.STAT_NAMES:
        _, se = stats.mean_with_stderr(stat)
        assert np.all(np.isfinite(se) & (se >= 0)), stat
    _, se = stats.proportion(stats.sup_hits[0])
    assert np.all(np.isfinite(se) & (se >= 0))


def test_proportions_match_the_scalar_binomial_formula_bit_for_bit():
    # every sup and window count of a two-block run, against the scalar
    # count / r and sqrt(p (1 - p) / r) that the estimates were once built from
    cfg = mc.SimConfig(example="poisson", n_max=40, replications=BLOCK_SIZE + 3000,
                       master_seed=5, thresholds=(0.5, 1.0, 9.0))
    stats = mc.run(cfg)
    r = stats.replications
    cases = [(stats.proportion(hits), hits) for hits in stats.sup_hits]
    cases.append((stats.proportion(stats.win_hits), stats.win_hits))
    assert stats.win_hits.size == 2
    for (p, se), hits in cases:
        for count, p_k, se_k in zip(hits.tolist(), p.tolist(), se.tolist()):
            scalar = count / r
            assert p_k == scalar and se_k == math.sqrt(scalar * (1.0 - scalar) / r)
    assert mc.standard_error(0.25, 4) == 0.25


def test_two_point_moment_estimates():
    cfg = mc.SimConfig(example="twopoint", n_max=20, replications=30_000, master_seed=97)
    stats = mc.run(cfg)
    mean, se = stats.mean_with_stderr("f_sq")
    for n in (2, 4, 10):
        i = n - 2
        assert abs(mean[i] - two_point.second_moment(n)) <= 3 * se[i]
    fmean, fse = stats.mean_with_stderr("f")
    assert np.all(np.abs(fmean) <= 4 * fse)


def test_poisson_moment_estimates():
    cfg = mc.SimConfig(example="poisson", n_max=16, replications=30_000, master_seed=19)
    stats = mc.run(cfg)
    mean, se = stats.mean_with_stderr("f_sq")
    for n in (1, 4, 16):
        i = n - 1
        assert abs(mean[i] - poisson_pair.second_moment(n)) <= 3 * se[i]
    a52, a52_se = stats.mean_with_stderr("f_abs52")
    assert a52[15] <= poisson_pair.moment52_bound(16) + 3 * a52_se[15]
    j1, j1_se = stats.j1_mean()
    assert abs(j1[15]) <= 4 * j1_se[15]


def test_sup_exceedance_monotone():
    thresholds = (0.5, 1.0, 2.0, 5.0, 9.0, 1e12)
    cfg = mc.SimConfig(example="poisson", n_max=100, replications=20_000, master_seed=23,
                       thresholds=thresholds)
    stats = mc.run(cfg)
    values = stats.proportion(stats.sup_hits[:, 0])[0].tolist()
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[0] > 0.0 and values[-1] == 0.0


def test_tail_diagnostic_two_point_separation():
    cfg = mc.SimConfig(
        example="twopoint", n_max=1000, replications=20_000, master_seed=29, thresholds=(0.1,)
    )
    stats = mc.run(cfg)
    p, se = (dict(zip(stats.grid, a[1:])) for a in stats.proportion(stats.sup_hits[0]))
    assert p[200] + 3 * (se[200] + se[10]) < p[10]


def test_tail_diagnostic_poisson_trend():
    cfg = mc.SimConfig(example="poisson", n_max=1000, replications=20_000, master_seed=31)
    stats = mc.run(cfg)
    p, se = (dict(zip(stats.grid, a[1:])) for a in stats.proportion(stats.sup_hits[0]))
    assert p[1000] <= p[10] + 3 * (se[1000] + se[10])
    assert p[100] <= p[10] + 3 * (se[100] + se[10])


def sparse_counts(cfg):
    """[n, trajectory] even and odd counts of a one-block run, from the sparse draws."""
    tables = mc.MODELS[cfg.example].tables(np.arange(cfg.start_n, cfg.n_max + 1))
    return dense_oracle.sparse_counts(cfg, tables, 0, cfg.replications)


def test_tail_diagnostic_last_point_is_single_term():
    cfg = mc.SimConfig(example="poisson", n_max=50, replications=8192, master_seed=37)
    stats = mc.run(cfg)
    n0, p = stats.grid[-1], stats.proportion(stats.sup_hits[0])[0][-1]
    assert n0 == 50
    # recompute |F_50| directly from the same draws
    ye, yo = (c[-1] for c in sparse_counts(cfg))
    lam_e = poisson_pair.intensity(100)
    f = (ye - lam_e) / math.sqrt(lam_e) * yo
    assert p == (np.abs(f) > 1.0).mean()


def test_first_chaos_report_two_point():
    cfg = mc.SimConfig(example="twopoint", n_max=40, replications=100_000, master_seed=41)
    stats = mc.run(cfg)
    law, (p, se) = stats.window_law(), stats.proportion(stats.win_hits)
    assert stats.windows == ((10, 20), (20, 40)) and len(law) == p.size == 2
    exact_prob, deviation = law[0]
    exact = 1 - math.prod(1 - Fraction(1, n) for n in range(10, 20))
    assert exact == Fraction(10, 19)
    assert exact_prob == pytest.approx(float(exact), abs=1e-12)
    assert abs(p[0] - exact_prob) <= 3 * se[0]
    assert stats.sums("events")[10 - 2 : 20 - 2].sum() > 0
    assert deviation <= 1e-9
    exact2 = 1 - math.prod(1 - Fraction(1, n) for n in range(20, 40))
    assert law[1][0] == pytest.approx(float(exact2), abs=1e-12)
    # the closed form on the event peaks at each window's last n, and later
    # windows carry larger degree-one magnitudes
    for lo, hi in ((10, 20), (20, 40)):
        closed = two_point.first_chaos_on_plus(np.arange(lo, hi))
        assert closed.max() == closed[-1] == pytest.approx(
            two_point.first_chaos_on_plus(hi - 1), rel=1e-12)
    assert two_point.first_chaos_on_plus(39) > two_point.first_chaos_on_plus(19)


def test_first_chaos_report_poisson():
    cfg = mc.SimConfig(example="poisson", n_max=40, replications=100_000, master_seed=43)
    stats = mc.run(cfg)
    exact_prob, deviation = stats.window_law()[0]
    est, est_se = (a[0] for a in stats.proportion(stats.win_hits))
    lam = np.asarray(poisson_pair.intensity(2 * np.arange(10, 20)))
    p = np.exp(-lam) * lam  # P(Y_2n = 1)
    assert exact_prob == pytest.approx(1 - np.prod(1 - p), rel=1e-12)
    assert abs(est - exact_prob) <= 3 * est_se
    assert deviation <= 1e-9
    closed = poisson_pair.first_chaos_at_one(np.arange(10, 20))
    assert closed.max() == closed[-1] == pytest.approx(
        poisson_pair.first_chaos_at_one(19), rel=1e-12)
    assert poisson_pair.first_chaos_at_one(39) > poisson_pair.first_chaos_at_one(19)


def separating_thresholds(sups: np.ndarray) -> tuple[float, ...]:
    """Thresholds between the distinct values of sups above 1e-12: half the
    smallest, and the midpoint of each neighbouring pair.  The count above
    each pins the sorted sups; no count depends on how a sup is rounded.
    A rebuilt F_n that is 0 can carry a rounding residue (up to 1.1e-16 in
    the un-collapsed two-point form), and the smallest nonzero |F_n| at
    n <= 20 is above 0.2, so sups below 1e-12 count as 0."""
    levels = np.unique(sups[sups > 1e-12])
    return tuple(np.concatenate(([levels[0] / 2], (levels[:-1] + levels[1:]) / 2)))


def test_separating_thresholds_skip_rounding_residues():
    thresholds = separating_thresholds(np.array([0.0, 1.1e-16, 0.25, 0.5, 0.25]))
    assert min(thresholds) >= 1e-12
    assert thresholds == (0.125, 0.375)


def zero_count_values(cfg) -> np.ndarray:
    """|b_n|: |F_n| where the even count is 0 and the odd count is 1."""
    tables = mc.MODELS[cfg.example].tables(np.arange(cfg.start_n, cfg.n_max + 1))
    return np.abs(-tables.x_loc / tables.x_scale)


def check_reconstruction(cfg, rebuild, on_event, rtol):
    """The engine against trajectories rebuilt from its own draws of cfg.

    rebuild(even_counts, odd_counts) gives the [n, trajectory] arrays of F_n
    and of the recurrence event.  The draws depend on the thresholds only
    through the placed rows, those where an unplaced F_n (b_n, or 2 b_n for
    Poisson counts) would exceed the smallest one.  The first run has the
    thresholds that separate the rebuilt sups and one below every |b_n|, so
    every row is placed; the second has threshold 2, at or above every
    2 |b_n|, so no row is placed.
    """
    b = zero_count_values(cfg)
    assert b.max() <= 1.0
    every_row = dataclasses.replace(cfg, thresholds=(b.min() / 2,))
    f_by_n, event_by_n = rebuild(*sparse_counts(every_row))
    thresholds = (*separating_thresholds(np.abs(f_by_n).max(axis=0)), b.min() / 2)
    assert len(thresholds) > 10
    counted = dataclasses.replace(cfg, thresholds=(2.0,))
    for run_cfg, (f_by_n, event_by_n) in (
        (dataclasses.replace(cfg, thresholds=thresholds), (f_by_n, event_by_n)),
        (counted, rebuild(*sparse_counts(counted))),
    ):
        stats = mc.run(run_cfg)
        assert np.allclose(stats.sums("f_sq"), (f_by_n**2).sum(axis=1), rtol=rtol, atol=1e-12)
        assert np.allclose(stats.sums("f"), f_by_n.sum(axis=1), rtol=rtol, atol=rtol)
        assert_counts_match(stats, f_by_n, event_by_n, on_event)


def assert_counts_match(stats, f_by_n, event_by_n, on_event):
    """Window report and sup-exceedance counts against reconstructed trajectories.

    f_by_n and event_by_n are [n, trajectory] arrays of F_n and the
    recurrence event; on_event(n) gives the degree-one part on the event by
    the scalar API and its closed form.
    """
    cfg = stats.config
    reps, start = cfg.replications, cfg.start_n
    ((_, deviation),) = stats.window_law()
    assert stats.windows == ((10, 20),)
    events = event_by_n[10 - start : 20 - start]
    assert stats.sums("events")[10 - start : 20 - start].sum() == events.sum() > 0
    assert stats.proportion(stats.win_hits)[0][0] == events.any(axis=0).sum() / reps
    on = [on_event(n) for n in range(10, 20) if events[n - 10].any()]
    assert deviation == pytest.approx(
        max(abs(v - c) / c for v, c in on), abs=1e-12
    )
    abs_f = np.abs(f_by_n)
    suffix_sups = [abs_f[n0 - start :].max(axis=0) for n0 in (start, *stats.grid)]
    expected = np.array([[(s > t).sum() for s in suffix_sups] for t in cfg.thresholds])
    assert np.array_equal(stats.sup_hits, expected)
    for hits in expected:
        assert stats.proportion(hits)[0][0] == hits[0] / reps
    diag = stats.proportion(stats.sup_hits[0])[0][1:]
    assert diag.size == len(stats.grid)
    assert diag.tolist() == [h / reps for h in expected[0, 1:]]


def test_engine_matches_scalar_reconstruction_twopoint():
    # rebuild every trajectory from the same draws through the module-level
    # scalar API (using the defining sum form, not the collapsed one) and
    # compare the per-n aggregates, the sup-exceedance counts and the window
    cfg = mc.SimConfig(example="twopoint", n_max=20, replications=64, master_seed=71)
    reps, start = cfg.replications, cfg.start_n

    def rebuild(plus_even, plus_odd):
        f_by_n = np.zeros((cfg.n_max - start + 1, reps))
        for n in range(start, cfg.n_max + 1):
            se, so = dense_oracle.even_spec(n), dense_oracle.odd_spec(n)
            for r in range(reps):
                xe = se.value_plus if plus_even[n - start, r] else se.value_minus
                xo = so.value_plus if plus_odd[n - start, r] else so.value_minus
                f_by_n[n - start, r] = dense_oracle.two_point_term(n, xe, xo)
        return f_by_n, plus_even == 1

    def on_event(n):
        value = two_point.prob(2 * n + 1) * dense_oracle.even_spec(n).value_plus
        return value, two_point.first_chaos_on_plus(n)

    check_reconstruction(cfg, rebuild, on_event, rtol=1e-12)


def test_engine_matches_scalar_reconstruction_poisson():
    cfg = mc.SimConfig(example="poisson", n_max=20, replications=64, master_seed=73)
    reps, start = cfg.replications, cfg.start_n

    def rebuild(y_even, y_odd):
        f_by_n = np.zeros((cfg.n_max - start + 1, reps))
        for n in range(start, cfg.n_max + 1):
            for r in range(reps):
                ye, yo = int(y_even[n - start, r]), int(y_odd[n - start, r])
                f_by_n[n - start, r] = decompose_term(n, ye, yo).total
        return f_by_n, y_even == 1

    def on_event(n):
        return decompose_term(n, 1, 0).order1, poisson_pair.first_chaos_at_one(n)

    check_reconstruction(cfg, rebuild, on_event, rtol=1e-10)


def test_engine_f_is_the_collapsed_term_bit_for_bit():
    # at every cell of a run, X_2n C_2n+1 through PairTables.x, which the engine
    # evaluates its statistics with, is poisson_pair.term, the F_n of decompose
    stats = mc.run(mc.SimConfig(example="poisson", n_max=300, replications=20_000,
                                master_seed=5, thresholds=(0.5,)))
    row, y, c = stats.cell_values()
    f = stats.tables.x(row, y) * c
    assert (y > 1).any() and (c > 1).any() and ((y == 0) & (c > 0)).any()
    n = stats.tables.n_values[row]
    assert f.tolist() == [poisson_pair.term(*cell) for cell in zip(n.tolist(), y.tolist(),
                                                                    c.tolist())]
    assert np.array_equal(stats._values("f")[1], f)


def assert_equals_dense_aggregation(stats):
    """The engine's aggregates against a dense aggregation of the same draws:
    the cell counts exactly, and the per-n statistics evaluated on them."""
    dense = dense_oracle.run(stats.config)
    n_rows = len(stats.tables.n_values)
    cells = dense_oracle.cell_table(*stats.cell_values(), stats.cell_counts, n_rows)
    assert np.array_equal(cells, dense["cells"])
    for stat in mc.STAT_NAMES:
        mean, var = dense_oracle.cell_moments(stats.config, dense["cells"], stat)
        got = stats.mean_with_stderr(stat)
        assert np.allclose(got[0], mean, rtol=1e-10, atol=1e-10), stat
        assert np.allclose(got[1], mc.standard_error(var, stats.replications), rtol=1e-10), stat
    thresholds = stats.config.thresholds
    whole_range = [(dense["window_max"] > t).sum() for t in thresholds]
    assert np.array_equal(stats.sup_hits[:, 0], whole_range)
    assert np.array_equal(stats.sup_hits, dense_oracle.sup_hits(dense, thresholds))
    assert np.array_equal(stats.win_hits, dense["win_hits"])


@pytest.mark.parametrize("example", ["poisson", "twopoint"])
def test_sparse_aggregates_equal_dense_aggregation(example):
    # two blocks, the second partial; a threshold that splits the suffix
    # counts, and 32 thresholds at the dense sups above it, where the strict
    # inequality decides.  The smallest threshold, 0.5, places the rows with
    # 2 |b_n| > 0.5 for Poisson (n <= 40) and |b_n| > 0.5 for two-point
    # (n <= 4), and counts the C = 1 and C = 2 slots of the others where
    # Y_2n = 0.
    cfg = mc.SimConfig(example=example, n_max=60, replications=BLOCK_SIZE + 300, master_seed=83,
                       thresholds=(0.5,))
    b = zero_count_values(cfg)
    assert (b > 0.5).any() and (b <= 0.5).any()
    sups = dense_oracle.run(cfg)["window_max"]
    levels = np.unique(sups[sups > 0.5])
    at_sups = levels[np.unique(np.linspace(0, levels.size - 1, 32).astype(int))]
    assert at_sups.size == 32
    assert_equals_dense_aggregation(mc.run(dataclasses.replace(cfg, thresholds=(0.5, *at_sups))))


def test_gap_top_up_keeps_draws_exact(monkeypatch):
    # with no spare gaps about half the rows run out before their last slot,
    # in the skips for the even counts and for the odd counts where Y_2n = 0:
    # C >= 1 in the placed rows (2 |b_n| > 0.5: n <= 40), C >= 3 in the others
    monkeypatch.setattr(mc, "_SPARE_SD", 0.0)
    top_ups = []
    real_top_up = mc._top_up

    def counting_top_up(*args):
        top_ups.append(args)
        return real_top_up(*args)

    monkeypatch.setattr(mc, "_top_up", counting_top_up)
    cfg = mc.SimConfig(example="poisson", n_max=200, replications=4096, master_seed=89,
                       thresholds=(0.5,))
    tables = mc.MODELS["poisson"].tables(np.arange(1, 201))
    per_row = {"even": np.zeros(200), "odd": np.zeros(200)}
    for j0, j1, even, odd in mc.sparse_draws(tables, cfg.master_seed, 0, 4096, 0.5):
        zero = odd.placed
        for d in (even, zero):
            key = d.rows * 4096 + d.pos
            assert np.all(np.diff(key) > 0) and d.pos.min(initial=0) >= 0
            assert d.pos.max(initial=0) < 4096 and d.counts.min(initial=1) >= 1
        assert not np.isin(zero.rows * 4096 + zero.pos, even.rows * 4096 + even.pos).any()
        assert odd.beside.shape == even.counts.shape and odd.beside.min(initial=0) >= 0
        assert np.all(zero.counts >= np.where(zero.rows + j0 < 40, 1, 3))
        assert not (odd.ones + odd.twos)[: max(40 - j0, 0)].any()
        n = j1 - j0
        per_row["even"][j0:j1] = np.bincount(even.rows, minlength=n)
        per_row["odd"][j0:j1] = (np.bincount(even.rows, weights=odd.beside > 0, minlength=n)
                                 + np.bincount(zero.rows, minlength=n) + odd.ones + odd.twos)
    assert len(top_ups) > 100
    # the nonzero counts per row, placed or not, are Binomial(width, q): total and spread
    for name, q in (("even", tables.q_even), ("odd", tables.q_odd)):
        mean, var = 4096 * q, 4096 * q * (1 - q)
        z = (per_row[name] - mean) / np.sqrt(var)
        assert abs(z.sum()) / math.sqrt(z.size) < 5
        assert abs((z**2).mean() - 1) < 5 * math.sqrt(2 / z.size)
    assert_equals_dense_aggregation(mc.run(cfg))


def test_poisson_block_draws_fewer_variates_than_nonzero_counts(monkeypatch):
    # count every variate a Poisson block draws at n_max = 10^4, seed 5 and
    # threshold 1, whatever method draws it, binomials included.  The odd
    # counts of 1 and 2 where Y_2n = 0 are counted per row, not placed, and
    # the odd count beside a nonzero even count takes one uniform, so the
    # block draws 1,722,740 variates (3,009,932 under layout 4): about three
    # per nonzero even count and an eighth of the nonzero counts
    drawn = []

    class CountingStream:
        def __init__(self, stream):
            self.stream = stream

        def __getattr__(self, name):
            method = getattr(self.stream, name)

            def counted(*args, **kwargs):
                out = method(*args, **kwargs)
                drawn.append(np.size(out))
                return out

            return counted

    real_stream = mc.block_stream
    monkeypatch.setattr(mc, "block_stream", lambda *key: CountingStream(real_stream(*key)))
    cfg = mc.SimConfig(example="poisson", n_max=10_000, replications=BLOCK_SIZE, master_seed=5)
    mc.run(cfg)
    tables = mc.MODELS["poisson"].tables(np.arange(1, 10_001))
    even_nonzero = BLOCK_SIZE * tables.q_even.sum()
    nonzero = even_nonzero + BLOCK_SIZE * tables.q_odd.sum()
    assert sum(drawn) <= 1_900_000
    assert sum(drawn) <= 3.1 * even_nonzero
    assert sum(drawn) <= 0.14 * nonzero


def test_block_draws_few_uniforms_per_nonzero_count(monkeypatch):
    # a count's value is drawn only when it exceeds one (odd counts beside a
    # nonzero even count) or two (the others), and the odd counts of 1 and 2
    # where Y_2n = 0 are counted by binomials per row, so a Poisson block
    # spends well under one uniform per nonzero count
    drawn, slot_draws = [], []
    real_uniform_block, real_slots = mc.uniform_block, mc._nonzero_slots

    def counting_uniform_block(stream, size):
        drawn.append(size)
        return real_uniform_block(stream, size)

    def counting_slots(*args):
        before = sum(drawn)
        out = real_slots(*args)
        slot_draws.append(sum(drawn) - before)
        return out

    monkeypatch.setattr(mc, "uniform_block", counting_uniform_block)
    monkeypatch.setattr(mc, "_nonzero_slots", counting_slots)
    tables = mc.MODELS["poisson"].tables(np.arange(1, 2001))
    nonzero = above_one = 0
    for _, _, even, odd in mc.sparse_draws(tables, 97, 0, BLOCK_SIZE, 1.0):
        nonzero += (even.pos.size + np.count_nonzero(odd.beside) + odd.placed.pos.size
                    + odd.ones.sum() + odd.twos.sum())
        above_one += (even.counts > 1).sum() + (odd.beside > 1).sum()
    assert above_one > 0
    assert sum(drawn) <= 0.5 * nonzero
    # with no placed row, a two-point chunk draws its even gaps, then one odd
    # uniform per nonzero even count: of its three skips, the even thinning at
    # rate 0 and the odd skips with P(C >= 3) = 0 draw nothing
    drawn.clear(), slot_draws.clear()
    tables = mc.MODELS["twopoint"].tables(np.arange(2, 2001))
    chunks = even_nonzero = 0
    for _, _, even, odd in mc.sparse_draws(tables, 97, 0, BLOCK_SIZE, 1.0):
        chunks += 1
        even_nonzero += even.pos.size
        assert np.all(even.counts == 1) and np.all(odd.beside <= 1)
        assert odd.placed.pos.size == odd.twos.sum() == 0
    assert sum(map(bool, slot_draws)) == chunks
    assert sum(drawn) == sum(slot_draws) + even_nonzero > even_nonzero


def test_empty_and_zero_probability_draws_leave_a_block_stream_as_it_was():
    # sparse_draws relies on this numpy behaviour, which numpy does not
    # promise: it asks for no uniforms where no count at rate > 0 needs a
    # value (random(0)), and at rate 0 counts the 2s with p = 0
    def frozen(state):
        return {k: frozen(v) if isinstance(v, dict) else np.asarray(v).tolist()
                for k, v in state.items()}

    stream = mc.block_stream(97, 1, 3)
    stream.random(5)
    before = frozen(stream.bit_generator.state)
    assert stream.random(0).size == 0
    assert stream.binomial([5, 7, 0], [0.0, 0.0, 0.3]).tolist() == [0, 0, 0]
    assert frozen(stream.bit_generator.state) == before


@pytest.mark.parametrize("example", ["poisson", "twopoint"])
def test_draws_depend_on_the_thresholds_only_through_the_placed_rows(example):
    # |b_n| <= 1 in both constructions, and an unplaced F_n is b_n or, for
    # Poisson counts, 2 b_n, so neither smallest threshold, 2 or 9, places a
    # row: the draws, and with them the sums, the counts above 9 and the
    # window hits, are the same bits.  At 1 the Poisson rows n <= 6
    # (2 n^(-3/8) > 1) are placed, and the draws differ.
    cfg = mc.SimConfig(example=example, n_max=1000, replications=BLOCK_SIZE + 100,
                       master_seed=59, thresholds=(2.0, 9.0))
    low = mc.run(cfg)
    high = mc.run(dataclasses.replace(cfg, thresholds=(9.0, 16.0, 25.0, 100.0)))
    assert cells_equal(low, high)
    assert np.array_equal(low.sup_hits[1], high.sup_hits[0]) and high.sup_hits[0, 0] > 0
    assert np.array_equal(low.win_hits, high.win_hits)
    one = mc.run(dataclasses.replace(cfg, thresholds=(1.0, 9.0)))
    assert cells_equal(one, low) == (example == "twopoint")


def exact_count_law(lam: float, terms: int = 12) -> tuple[Fraction, Fraction]:
    """P(C >= 2 | C >= 1) and P(C = 2 | C >= 2) of C ~ Poisson(lam), lam <= 1e-3,
    from exact partial sums of e^lam - 1 - lam and e^lam - 1."""
    x = Fraction(lam)
    powers = [x**k / math.factorial(k) for k in range(2, terms)]
    excess = sum(powers)
    return excess / (x + excess), powers[0] / excess


def test_count_law_has_no_cancellation():
    # relative error of P(C >= 2 | C >= 1) and P(C = 2 | C >= 2) at small
    # rates, where expm1(lam) - lam loses digits; the omitted terms of the
    # exact sums are below 1e-30 of the kept ones
    lams = np.array([1e-3, 1e-6])
    r, p_two = mc._count_law(lams)
    for lam, r_j, p_j in zip(lams, r, p_two):
        exact_r, exact_p = exact_count_law(float(lam))
        assert abs(Fraction(float(r_j)) / exact_r - 1) <= 1e-14
        assert abs(Fraction(float(p_j)) / exact_p - 1) <= 1e-14
    # the same law against scipy's Poisson pmf, up to the largest rate, 1
    lams = np.array([0.5, 1.0])
    r, p_two = mc._count_law(lams)
    for lam, r_j, p_j in zip(lams, r, p_two):
        pmf = scipy.stats.poisson.pmf(np.arange(3), lam)
        above_one = 1 - pmf[:2].sum()
        assert r_j == pytest.approx(above_one / (1 - pmf[0]), rel=1e-13)
        assert p_j == pytest.approx(pmf[2] / above_one, rel=1e-13)


def test_g_has_no_cancellation():
    # g_m(lam) = m! sum_k lam^k / (k + m)!, which gives P(C >= m), against its
    # exact partial sums at small rates (omitted terms below 1e-30 of the
    # kept ones), and against scipy's Poisson tail up to the largest rate, 1
    lams = np.array([1e-3, 1e-6])
    for m in (1, 2, 3):
        for lam, g in zip(lams, mc._g(m, lams)):
            x = Fraction(float(lam))
            exact = math.factorial(m) * sum(x**k / math.factorial(k + m) for k in range(12))
            assert abs(Fraction(float(g)) / exact - 1) <= 1e-14
        lams_big = np.array([0.5, 1.0])
        tail = scipy.stats.poisson.sf(m - 1, lams_big)
        expected = tail * np.exp(lams_big) * math.factorial(m) / lams_big**m
        assert mc._g(m, lams_big) == pytest.approx(expected, rel=1e-13)


def test_sparse_draws_rejects_rates_outside_its_count_law():
    # _g sums its series only for rates in [0, 1], so a rate above 1, below 0
    # or NaN must fail before any draw
    tables = poisson_pair.pair_tables(np.arange(1, 51))
    next(mc.sparse_draws(tables, 5, 0, 64, 1.0))  # the construction's own rates pass
    for parity, row, rate in (("rate_even", 0, 1.5), ("rate_odd", 3, -0.25),
                              ("rate_even", 7, math.nan)):
        bad = getattr(tables, parity).copy()
        bad[row] = rate
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            next(mc.sparse_draws(dataclasses.replace(tables, **{parity: bad}), 5, 0, 64, 1.0))


def test_rate_zero_rows_draw_ones_in_a_mixed_table(monkeypatch):
    # a table may mix rate-0 and positive rows in either parity: the even
    # rates are 0 where n = 0 (mod 3), the odd rates at even n.  Every nonzero
    # count of a rate-0 row is 1, and the aggregates match a dense
    # aggregation of the same draws, with placed and unplaced rows of both kinds
    monkeypatch.setitem(mc.MODELS, "poisson", dense_oracle.mixed_rates(mc.MODELS["poisson"]))
    monkeypatch.setenv("CHAOSLAB_THREADS", "1")
    mc._plan.cache_clear()
    cfg = mc.SimConfig(example="poisson", n_max=60, replications=BLOCK_SIZE + 300,
                       master_seed=101, thresholds=(0.5, 2.0))
    mixed = mc.MODELS["poisson"].tables(np.arange(1, 61))
    y_even, c_odd = dense_oracle.sparse_counts(cfg, mixed, 0, BLOCK_SIZE)
    for counts, rate in ((y_even, mixed.rate_even), (c_odd, mixed.rate_odd)):
        assert counts[rate == 0].max() == 1
        assert counts[rate > 0].max() > 1
    assert_equals_dense_aggregation(mc.run(cfg))
    mc._plan.cache_clear()  # no later test reads the plan of the wrapped tables


def test_diagnostic_shrinks_with_n0_and_env_validated(monkeypatch):
    cfg = mc.SimConfig(example="poisson", n_max=60, replications=4000, master_seed=7)
    stats = mc.run(cfg)
    assert stats.grid == (2, 5, 10, 20, 50, 60)
    means = stats.proportion(stats.sup_hits[0])[0][1:].tolist()
    assert means == sorted(means, reverse=True)  # suffix sup shrinks with n0
    for bad in ("many", "0", "-2"):
        monkeypatch.setenv("CHAOSLAB_THREADS", bad)
        with pytest.raises(BadIndexError):
            mc.run(cfg)


def test_default_grid_and_windows():
    assert mc.default_diagnostic_grid(2, 1000) == (5, 10, 20, 50, 100, 200, 500, 1000)
    assert mc.default_diagnostic_grid(1, 30) == (2, 5, 10, 20, 30)
    assert mc.dyadic_windows(100) == ((10, 20), (20, 40), (40, 80))
    assert mc.dyadic_windows(15) == ()
