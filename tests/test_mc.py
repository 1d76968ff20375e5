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
from chaoslab import cli, mc, poisson_pair, two_point, workers
from chaoslab.errors import BadIndexError, ResourceLimitError
from chaoslab.point_process import decompose_term
from chaoslab.report import Report
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


@pytest.mark.parametrize("example", ["poisson", "twopoint"])
def test_rerun_is_bitwise_identical(example):
    cfg = mc.SimConfig(example=example, n_max=40, replications=5000, master_seed=3)
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
    # the blocks of an in-process run and its result share one cached plan,
    # keyed by the model and n_max, so a run at another seed reuses it
    model = mc.MODELS["poisson"]
    calls = []

    def tables(n_values):
        calls.append(len(n_values))
        return model.tables(n_values)

    monkeypatch.setitem(mc.MODELS, "poisson", dataclasses.replace(model, tables=tables))
    monkeypatch.setenv("CHAOSLAB_THREADS", "1")
    cfg = mc.SimConfig(example="poisson", n_max=30, replications=2 * BLOCK_SIZE + 1, master_seed=2)
    stats = mc.run(cfg)
    stats.window_law()
    stats.proportion(stats.sup_hits[0])
    mc.run(dataclasses.replace(cfg, master_seed=3))
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
    for stat in mc.STATS:
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


@pytest.mark.parametrize("example", ["twopoint", "poisson"])
def test_window_law_is_the_exact_product(example):
    # the exact part of window_law: P(an event somewhere in [10, 20), and in
    # [20, 40)) is 1 - prod(1 - P(Y_2n = 1)), 10/19 and 20/39 for the two-point
    # P(Y_2n = 1) = 1/n, and the degree-one part on the event is its closed
    # form.  A row of these windows has no event among 4096 trajectories, and
    # its window no deviation, with probability below 1e-40
    stats = mc.run(mc.SimConfig(example=example, n_max=40, replications=4096, master_seed=41))
    assert stats.windows == ((10, 20), (20, 40))
    if example == "twopoint":
        exact = (10 / 19, 20 / 39)
    else:
        lam = np.asarray(poisson_pair.intensity(2 * np.arange(10, 40)))
        miss = 1.0 - lam * np.exp(-lam)
        exact = (1.0 - miss[:10].prod(), 1.0 - miss[10:].prod())
    for (prob, deviation), value in zip(stats.window_law(), exact):
        assert prob == pytest.approx(value, abs=1e-12) and deviation <= 1e-9


@pytest.mark.parametrize("example, seed", [("twopoint", 10), ("poisson", 2)])
def test_a_window_without_events_reports_no_deviation(example, seed):
    # at this seed neither of two trajectories has the event in [10, 20): the
    # window keeps its exact probability, has no deviation to report, and the
    # report leaves out its closed-form row
    stats = mc.run(mc.SimConfig(example=example, n_max=20, replications=2, master_seed=seed))
    assert stats.windows == ((10, 20),) and stats.win_hits.tolist() == [0]
    rows = slice(10 - stats.config.start_n, 20 - stats.config.start_n)
    assert not stats.sums("events")[rows].any()
    ((prob, deviation),) = stats.window_law()
    assert prob == pytest.approx(10 / 19 if example == "twopoint" else
                                 1.0 - np.prod(1.0 - stats.tables.event_prob[rows]), abs=1e-12)
    assert deviation is None
    report = Report("unit", {}, seed=None)
    cli._window_rows(report, stats)
    assert [row["label"] for row in report.rows] == ["window[10,20) event prob vs exact"]


@pytest.mark.parametrize("example", ["twopoint", "poisson"])
def test_degree_one_part_on_the_event_is_the_scalar_form(example):
    # on the event Y_2n = 1 the degree-one part from the tables, coef X_2n at
    # y = 1, is the scalar API's: p_(2n+1) times the +1 value of X_2n, or
    # decompose_term's order1 at counts (1, 0); rel_dev, which window_law
    # reports, is its relative distance to the closed form
    model = mc.MODELS[example]
    n = np.arange(model.start_n, 1001)
    tables = model.tables(n)
    on_event = tables.coef * tables.x(np.arange(n.size), 1)
    if example == "twopoint":
        scalar = [two_point.prob(2 * k + 1) * dense_oracle.even_spec(k).value_plus
                  for k in n.tolist()]
        closed = two_point.first_chaos_on_plus(n)
    else:
        scalar = [decompose_term(k, 1, 0).order1 for k in n.tolist()]
        closed = poisson_pair.first_chaos_at_one(n)
    np.testing.assert_allclose(on_event, scalar, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(on_event, closed, rtol=1e-12, atol=1e-15)
    assert tables.rel_dev.max() <= 1e-12


def zero_count_values(cfg) -> np.ndarray:
    """|b_n|: |F_n| where the even count is 0 and the odd count is 1."""
    tables = mc.MODELS[cfg.example].tables(np.arange(cfg.start_n, cfg.n_max + 1))
    return np.abs(-tables.x_loc / tables.x_scale)


def test_engine_f_is_the_collapsed_term_bit_for_bit():
    # at every cell of a run, X_2n C_2n+1 through PairTables.x, which the engine
    # evaluates its statistics with, is poisson_pair.term, the F_n of decompose.
    # Some cell has y > 1, c > 1 and y = 0 < c, each but with probability below 1e-300
    stats = mc.run(mc.SimConfig(example="poisson", n_max=300, replications=20_000,
                                master_seed=5, thresholds=(0.5,)))
    row, y, c = stats.cell_values()
    f = stats.tables.x(row, y) * c
    assert (y > 1).any() and (c > 1).any() and ((y == 0) & (c > 0)).any()
    n = stats.tables.n_values[row]
    assert f.tolist() == [poisson_pair.term(*cell) for cell in zip(n.tolist(), y.tolist(),
                                                                    c.tolist())]
    assert np.array_equal(stats._values("f")[1], f)


def test_engine_two_point_f_is_the_defining_term():
    # the two-point twin: at every cell, X_2n C_2n+1 through PairTables.x is
    # the un-collapsed F_n = p X_2n + sqrt(p (1 - p)) X_2n X_2n+1 of the two
    # signs, y = 1 and c = 1 being the +1 signs.  Threshold 0.5 places the rows
    # n <= 4; a cell (n, 0, 1) of a placed and of an unplaced row is each
    # missing with probability below 1e-300
    stats = mc.run(mc.SimConfig(example="twopoint", n_max=300, replications=20_000,
                                master_seed=5, thresholds=(0.5,)))
    row, y, c = stats.cell_values()
    n = stats.tables.n_values[row]
    assert ((y == 0) & (c == 1) & (n <= 4)).any() and ((y == 0) & (c == 1) & (n > 4)).any()
    defining = [dense_oracle.two_point_term(k, dense_oracle.even_spec(k).value(2 * a - 1),
                                            dense_oracle.odd_spec(k).value(2 * b - 1))
                for k, a, b in zip(n.tolist(), y.tolist(), c.tolist())]
    np.testing.assert_allclose(stats.tables.x(row, y) * c, defining, rtol=0, atol=1e-12)


def assert_equals_dense_aggregation(stats):
    """The engine's aggregates against a dense aggregation of the same draws:
    the cell counts exactly, and the per-n statistics evaluated on them."""
    dense = dense_oracle.run(stats.config)
    n_rows = len(stats.tables.n_values)
    cells = dense_oracle.cell_table(*stats.cell_values(), stats.cell_counts, n_rows)
    assert np.array_equal(cells, dense["cells"])
    for stat in mc.STATS:
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
    # Y_2n = 0.  Fewer than 32 distinct sups above 0.5 occur with probability
    # below 1e-33.
    cfg = mc.SimConfig(example=example, n_max=60, replications=BLOCK_SIZE + 300, master_seed=83,
                       thresholds=(0.5,))
    b = zero_count_values(cfg)
    assert (b > 0.5).any() and (b <= 0.5).any()
    sups = dense_oracle.run(cfg)["window_max"]
    levels = np.unique(sups[sups > 0.5])
    at_sups = levels[np.unique(np.linspace(0, levels.size - 1, 32).astype(int))]
    assert at_sups.size == 32
    assert_equals_dense_aggregation(mc.run(dataclasses.replace(cfg, thresholds=(0.5, *at_sups))))


@pytest.mark.parametrize("example", ["poisson", "twopoint"])
def test_no_placed_row_aggregates_equal_dense_aggregation(example):
    # smallest threshold 2 is at or above every 2 |b_n|, so no row is placed:
    # every odd count of 1 or 2 where Y_2n = 0 is counted per row, not drawn
    cfg = mc.SimConfig(example=example, n_max=60, replications=BLOCK_SIZE + 300, master_seed=83,
                       thresholds=(2.0, 9.0))
    assert 2 * zero_count_values(cfg).max() <= 2.0
    assert_equals_dense_aggregation(mc.run(cfg))


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
    assert len(top_ups) > 100  # 213 +- 10 over seeds 1-10: a false failure below 1e-20
    # the nonzero counts per row, placed or not, are Binomial(width, q): total and
    # spread, each a 5-sigma check; under normal z the four fail a correct engine
    # at 1.3e-5 together (5.7e-7 each for the sums, 5.9e-6 for the chi-square(200)
    # spreads)
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
    # per nonzero even count and an eighth of the nonzero counts.  Over seeds
    # 1-6 the count is 1,723,941 +- 899; the nearest bound, 1,801,241, is 86
    # standard deviations above it, a false-failure rate below 1e-100
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
    # spends well under one uniform per nonzero count: 0.2296 +- 0.0002 over
    # seeds 1-10, so the bound 0.5 fails no seed (a rate below 1e-100), and no
    # count above one has probability below 1e-300
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
    # (2 n^(-3/8) > 1) are placed, and the draws differ.  P(sup |F_n| > 9) is
    # 0.21 (two-point) and 0.55 (Poisson), so no hit among 16,484 trajectories
    # has probability below 1e-300, as have equal Poisson cells at thresholds 1
    # and 2, which need the counts of a thousand rows to coincide.
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
    cfg = mc.SimConfig(example="poisson", n_max=60, replications=BLOCK_SIZE + 300,
                       master_seed=101, thresholds=(0.5, 2.0))
    mixed = mc.MODELS["poisson"].tables(np.arange(1, 61))
    y_even, c_odd = dense_oracle.sparse_counts(cfg, mixed, 0, BLOCK_SIZE)
    for counts, rate in ((y_even, mixed.rate_even), (c_odd, mixed.rate_odd)):
        assert counts[rate == 0].max() == 1
        assert counts[rate > 0].max() > 1  # fails with probability below 1e-300
    assert_equals_dense_aggregation(mc.run(cfg))


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
