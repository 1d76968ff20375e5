"""Reproducible Monte Carlo over the two counterexample constructions.

The engine knows a construction only through its pair model (see
pair_model), looked up by name in MODELS: per-n tables and a per-row draw
that turns the uniforms of (Y_2n, Y_2n+1) into X_2n, F_n and the
recurrence event.  Trajectories are simulated in fixed blocks of
BLOCK_SIZE; every variable in every block owns its own counter-based
stream (see streams), so results are bitwise identical for any worker
count and any replication split along block boundaries.

Each block walks the pair index n downward, so its running supremum of
|F_n| is the suffix supremum, and the tail diagnostic at a grid point is
one count of trajectories above SimConfig.epsilon.  Besides those counts a
block keeps its per-n sums (STAT_NAMES, the recurrence events included),
the supremum over the whole range per trajectory (sup_exceedance takes any
threshold) and per-window hit counts; run_range and merge join contiguous
parts with the same _assemble.  Per-n sums are numpy pairwise reductions
inside a block, never BLAS dot products, whose split across BLAS threads
would make the bytes depend on the thread count; across blocks they are
combined by an exactly rounded compensated sum, and counts add.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import poisson_pair, two_point
from .errors import BadIndexError, ResourceLimitError
from .pair_model import PairModel, PairTables
from .streams import BLOCK_SIZE, block_bounds, uniform_block
from .variables import poisson_from_uniform  # noqa: F401  perfbench/spans.py hooks this name

MODELS: dict[str, PairModel] = {"twopoint": two_point.MODEL, "poisson": poisson_pair.MODEL}
EXAMPLES = tuple(MODELS)

# Per-n trajectory sums kept by the engine, in storage order.
STAT_NAMES = ("x_even", "x_even_sq", "f", "f_sq", "f_quad", "f_abs52", "f_abs5", "events")
_SQ_OF = {"x_even": "x_even_sq", "f": "f_sq", "f_sq": "f_quad", "f_abs52": "f_abs5"}


@dataclass(frozen=True)
class SimConfig:
    example: str
    n_max: int = 10_000
    replications: int = 100_000
    master_seed: int = 42
    epsilon: float = 1.0
    budget: int = 2_000_000_000
    diagnostic_grid: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.example not in EXAMPLES:
            raise BadIndexError(f"example must be one of {EXAMPLES}, got {self.example!r}")
        if self.n_max < self.start_n:
            raise BadIndexError(f"n_max must be >= {self.start_n}")
        if self.replications < 1:
            raise BadIndexError("need at least one replication")
        if not 0.0 < self.epsilon < math.inf:
            raise BadIndexError("epsilon must be positive and finite")

    @property
    def start_n(self) -> int:
        return MODELS[self.example].start_n


class McEstimate(NamedTuple):
    """Monte Carlo point estimate with its standard error and provenance."""

    mean: float
    stderr: float
    replications: int
    seed: int


def default_diagnostic_grid(start_n: int, n_max: int) -> tuple[int, ...]:
    """Round values 1,2,5 per decade inside (start_n, n_max], plus n_max."""
    grid = {n_max}
    scale = 1
    while scale <= n_max:
        for c in (1, 2, 5):
            v = c * scale
            if start_n < v <= n_max:
                grid.add(v)
        scale *= 10
    return tuple(sorted(grid))


def dyadic_windows(n_max: int, base: int = 10) -> tuple[tuple[int, int], ...]:
    """Full windows [N, 2N) with N = base, 2*base, ... inside the range."""
    windows = []
    lo = base
    while 2 * lo - 1 <= n_max:
        windows.append((lo, 2 * lo))
        lo *= 2
    return tuple(windows)


def _walk_block(
    config: SimConfig,
    tables: PairTables,
    grid: tuple[int, ...],
    windows: tuple[tuple[int, int], ...],
    lo: int,
    hi: int,
) -> TrajectoryStats:
    size = hi - lo
    block = lo // BLOCK_SIZE
    start = config.start_n
    n_rows = config.n_max - start + 1
    seed = config.master_seed
    sums = np.zeros((n_rows, len(STAT_NAMES)))
    run_max = np.zeros(size)
    grid_row = {g: i for i, g in enumerate(grid)}
    suffix_hits = np.zeros(len(grid), dtype=np.int64)
    win_of: dict[int, int] = {}
    for w, (w_lo, w_hi) in enumerate(windows):
        for n in range(w_lo, w_hi):
            win_of[n] = w
    ev_or = np.zeros((len(windows), size), dtype=bool)  # event seen anywhere in the window

    for n in range(config.n_max, start - 1, -1):
        row = n - start
        u_even = uniform_block(seed, 2 * n, block, size)
        u_odd = uniform_block(seed, 2 * n + 1, block, size)
        x_even, idx, f_nz, event = tables.draw(row, u_even, u_odd)
        abs_f = np.abs(f_nz)
        f_sq = f_nz * f_nz
        a52 = f_sq * np.sqrt(abs_f)
        sums[row] = (
            x_even.sum(), (x_even * x_even).sum(), f_nz.sum(), f_sq.sum(),
            (f_sq * f_sq).sum(), a52.sum(), (a52 * a52).sum(), event.sum(),
        )
        run_max[idx] = np.maximum(run_max[idx], abs_f)
        if n in win_of:
            ev_or[win_of[n]] |= event
        if n in grid_row:
            suffix_hits[grid_row[n]] = (run_max > config.epsilon).sum()

    return TrajectoryStats(
        config=config, lo=lo, hi=hi, n_values=tables.n_values, grid=grid,
        windows=windows, tables=tables, block_sums=[sums], window_max=run_max,
        suffix_hits=suffix_hits, win_hits=ev_or.sum(axis=1),
    )


@dataclass
class TrajectoryStats:
    """Streaming aggregates of one replication range, combinable by blocks."""

    config: SimConfig
    lo: int
    hi: int
    n_values: np.ndarray
    grid: tuple[int, ...]
    windows: tuple[tuple[int, int], ...]
    tables: PairTables
    block_sums: list[np.ndarray]   # per block: [n_rows, n_stats]
    window_max: np.ndarray         # [hi - lo]: sup over all n of |F_n|
    suffix_hits: np.ndarray        # [n_grid]: count of sup_(n >= g) |F_n| > epsilon
    win_hits: np.ndarray           # [n_windows]: count of the event somewhere in the window
    _sum_cache: dict = field(default_factory=dict, repr=False)

    @property
    def replications(self) -> int:
        return self.hi - self.lo

    def sums(self, stat: str) -> np.ndarray:
        """Exact-order combination of the per-block partial sums."""
        if stat not in self._sum_cache:
            j = STAT_NAMES.index(stat)
            cols = [b[:, j] for b in self.block_sums]
            self._sum_cache[stat] = np.array(
                [math.fsum(vals) for vals in zip(*cols)]
            )
        return self._sum_cache[stat]

    def mean_with_stderr(self, stat: str) -> tuple[np.ndarray, np.ndarray]:
        r = self.replications
        mean = self.sums(stat) / r
        if r < 2:
            return mean, np.full_like(mean, np.nan)
        sq = self.sums(_SQ_OF[stat])
        var = np.maximum(sq - r * mean * mean, 0.0) / (r - 1)
        return mean, np.sqrt(var / r)

    def f_mean(self):
        return self.mean_with_stderr("f")

    def f_sq_mean(self):
        return self.mean_with_stderr("f_sq")

    def f_abs52_mean(self):
        return self.mean_with_stderr("f_abs52")

    def j1_mean(self):
        mean, se = self.mean_with_stderr("x_even")
        return self.tables.coef * mean, self.tables.coef * se


def _worker_count(n_blocks: int) -> int:
    env = os.environ.get("CHAOSLAB_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise BadIndexError(f"CHAOSLAB_THREADS must be an integer, got {env!r}")
    else:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_blocks))


def run_range(config: SimConfig, lo: int, hi: int) -> TrajectoryStats:
    """Simulate trajectories [lo, hi); run() is the [0, R) case.

    The cost guard, the streams, and the aggregates all see absolute
    trajectory indices, so disjoint ranges combine exactly via merge().
    """
    if not 0 <= lo < hi:
        raise BadIndexError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if lo % BLOCK_SIZE != 0:
        raise BadIndexError(f"range start must be a multiple of {BLOCK_SIZE}")
    if (hi - lo) * config.n_max > config.budget:
        raise ResourceLimitError(
            f"{hi - lo} trajectories x n_max={config.n_max} exceeds budget {config.budget}"
        )
    tables = MODELS[config.example].tables(np.arange(config.start_n, config.n_max + 1))
    grid = config.diagnostic_grid or default_diagnostic_grid(config.start_n, config.n_max)
    grid = tuple(sorted(set(grid)))
    for g in grid:
        if not config.start_n <= g <= config.n_max:
            raise BadIndexError(f"diagnostic grid point {g} outside range")
    windows = dyadic_windows(config.n_max)
    bounds = block_bounds(lo, hi)
    workers = _worker_count(len(bounds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(lambda b: _walk_block(config, tables, grid, windows, *b), bounds)
            )
    else:
        parts = [_walk_block(config, tables, grid, windows, *b) for b in bounds]
    return _assemble(parts)


def _assemble(parts: list[TrajectoryStats]) -> TrajectoryStats:
    """Join contiguous parts, in order; the per-block partials are kept as they are."""
    first = parts[0]
    return TrajectoryStats(
        config=first.config,
        lo=first.lo,
        hi=parts[-1].hi,
        n_values=first.n_values,
        grid=first.grid,
        windows=first.windows,
        tables=first.tables,
        block_sums=[s for p in parts for s in p.block_sums],
        window_max=np.concatenate([p.window_max for p in parts]),
        suffix_hits=sum(p.suffix_hits for p in parts),
        win_hits=sum(p.win_hits for p in parts),
    )


def run(config: SimConfig) -> TrajectoryStats:
    """Simulate all configured replications."""
    return run_range(config, 0, config.replications)


def merge(a: TrajectoryStats, b: TrajectoryStats) -> TrajectoryStats:
    """Combine two contiguous, block-aligned replication ranges exactly.

    The replication ranges of the parts must meet at a block boundary;
    then the per-block partials of the union are literally the union of
    the parts' partials, and every derived quantity matches a single run
    over the full range bit for bit.
    """
    if a.config != b.config:
        raise BadIndexError("cannot merge stats from different configurations")
    if a.hi != b.lo or b.lo % BLOCK_SIZE != 0 or a.lo % BLOCK_SIZE != 0:
        raise BadIndexError("ranges must be contiguous and block-aligned")
    return _assemble([a, b])


def _binomial_estimate(stats: TrajectoryStats, count: int) -> McEstimate:
    r = stats.replications
    p = count / r
    se = math.sqrt(p * (1.0 - p) / r) if r > 1 else math.nan
    return McEstimate(p, se, r, stats.config.master_seed)


def sup_exceedance(stats: TrajectoryStats, t: float) -> McEstimate:
    """P(max over the simulated range of |F_n| > t), with binomial stderr."""
    if not t > 0.0:
        raise BadIndexError("threshold must be positive")
    return _binomial_estimate(stats, int((stats.window_max > t).sum()))


def tail_diagnostic(
    stats: TrajectoryStats, grid: tuple[int, ...] | None = None
) -> list[tuple[int, McEstimate]]:
    """P(sup_{n0 <= n <= n_max} |F_n| > epsilon) for each requested n0.

    epsilon is the run's SimConfig.epsilon.  Almost-sure convergence to 0
    is equivalent to these probabilities vanishing as n0 grows, for every
    epsilon.
    """
    chosen = stats.grid if grid is None else tuple(grid)
    out = []
    for n0 in chosen:
        if n0 not in stats.grid:
            raise BadIndexError(f"n0={n0} not in the stored diagnostic grid {stats.grid}")
        out.append((n0, _binomial_estimate(stats, int(stats.suffix_hits[stats.grid.index(n0)]))))
    return out


@dataclass(frozen=True)
class WindowReport:
    """Recurrence evidence for one dyadic window [n_lo, n_hi)."""

    n_lo: int
    n_hi: int
    estimate: McEstimate       # empirical P(event occurs somewhere in window)
    exact_prob: float          # 1 - prod (1 - P(event at n))
    event_count: int
    closed_form_max: float     # max closed form over the window
    max_event_value: float | None
    max_event_deviation: float | None


def first_chaos_report(stats: TrajectoryStats) -> list[WindowReport]:
    """Per-window recurrence frequencies and degree-one magnitudes."""
    tables = stats.tables
    start = stats.config.start_n
    p_event = tables.event_prob
    events = stats.sums("events")
    reports = []
    for w, (w_lo, w_hi) in enumerate(stats.windows):
        rows = slice(w_lo - start, w_hi - start)
        exact = 1.0 - float(np.prod(1.0 - p_event[rows]))
        seen = events[rows] > 0  # rows n where some trajectory has the event
        has_event = seen.any()
        reports.append(
            WindowReport(
                n_lo=w_lo,
                n_hi=w_hi,
                estimate=_binomial_estimate(stats, int(stats.win_hits[w])),
                exact_prob=exact,
                event_count=int(events[rows].sum()),
                closed_form_max=float(tables.closed_form[rows].max()),
                max_event_value=float(tables.cond_obs[rows][seen].max()) if has_event else None,
                max_event_deviation=float(tables.rel_dev[rows][seen].max()) if has_event else None,
            )
        )
    return reports
