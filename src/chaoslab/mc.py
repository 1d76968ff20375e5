"""Reproducible Monte Carlo over the two counterexample constructions.

The engine knows a construction only through its pair model (see
pair_model), looked up by name in MODELS: per-n arrays giving, for each
parity, the probability that a count is nonzero and the zero-truncated law
of a nonzero count, plus the affine map from the even count to X_2n.
F_n = X_2n C_2n+1 is then nonzero only where the odd count is, and every
kept statistic follows from the nonzero counts alone.

Trajectories are simulated in fixed blocks of BLOCK_SIZE.  A block walks
the pair indices upward in chunks of rows that draw about _CHUNK_DRAWS
variates from the block's two streams, in the order streams specifies.
Where Y_2n = 0, F_n is C_2n+1 b_n, with b_n the X_2n there, and an odd
count there is placed, its trajectory kept, only in a row where F_n may
pass min(SimConfig.thresholds): elsewhere it changes no sup-exceedance
count, so only the number of 1s and of 2s per row is drawn.  Results are
bitwise identical for any worker count and any replication split along
block boundaries.

Per chunk the draws reduce to integer counts of cells (n, Y_2n, C_2n+1):
each nonzero even count with the odd count beside it, each placed odd count
at Y_2n = 0, a row's unplaced 1s and 2s, and the rest of its width at
(n, 0, 0).  Each per-n statistic (STATS) is a function of a cell's X_2n,
F_n = X_2n C_2n+1 and Y_2n.  A
block also keeps, per threshold t of SimConfig.thresholds and per
trajectory, the last n with |F_n| > t, which gives
P(sup_(n0 <= n <= n_max) |F_n| > t) as one count per n0 in (start_n, *grid)
and per t; and per window the count of trajectories with an event in it.
Integers add exactly in any order, so _assemble folds each block into a
running total as soon as it is walked, and merge joins ranges with it too.
TrajectoryStats evaluates each statistic on the cells, in their fixed order.

run_range walks the blocks with workers.run_tasks: worker w of W forked
processes walks blocks w, w + W, ..., W as workers.worker_count allows
(CHAOSLAB_THREADS, by default the CPUs this process may run on).  The plan
(_plan: the per-n tables, the diagnostic grid and the windows) is built
once per config, before the fork, so the workers inherit it; a worker sends
back only the total of its blocks, a TrajectoryStats whose size follows the
distinct cells seen, not the number of blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import poisson_pair, two_point
from .errors import BadIndexError, ResourceLimitError
from .pair_model import EXAMPLES, PairModel, PairTables
from .streams import BLOCK_SIZE, block_bounds, block_stream, uniform_block
from .point_process import poisson_from_uniform  # noqa: F401  perfbench/spans.py hooks this name
from .workers import run_tasks, worker_count as _worker_count  # perfbench hooks _worker_count

MODELS: dict[str, PairModel] = dict(zip(EXAMPLES, (two_point.MODEL, poisson_pair.MODEL)))

STATS = {"x_even": lambda x, f, y: x, "f": lambda x, f, y: f, "f_sq": lambda x, f, y: f * f,
         "f_abs52": lambda x, f, y: np.sqrt(np.abs(f)) * (f * f), "events": lambda x, f, y: y == 1}
STAT_NAMES = tuple(STATS)
# A cell (row, y, c) is the int64 key row << 42 | y << 21 | c, which sorts as (row, y, c):
# rows are below MAX_N < 2^20, and counts below 2^21, as _counts_at_least stops at underflow.
_CELL_BITS = 21
WORK_BUDGET = 2_000_000_000  # largest trajectories x n_max that run_range simulates
MAX_N = 10**6  # largest n_max: the per-n tables and the CSV grow with n_max alone


@dataclass(frozen=True)
class SimConfig:
    example: str
    n_max: int = 10_000
    replications: int = 100_000
    master_seed: int = 42
    thresholds: tuple[float, ...] = (1.0,)  # the t of the sup-exceedance counts

    def __post_init__(self) -> None:
        if self.example not in EXAMPLES:
            raise BadIndexError(f"example must be one of {EXAMPLES}, got {self.example!r}")
        if self.n_max < self.start_n:
            raise BadIndexError(f"n_max must be >= {self.start_n}")
        if self.replications < 2:  # so that every standard error is a number
            raise BadIndexError(f"need at least two replications, got {self.replications}")
        object.__setattr__(self, "thresholds", tuple(map(float, self.thresholds)))
        if not self.thresholds or not all(0.0 < t < math.inf for t in self.thresholds):
            raise BadIndexError(f"thresholds must be positive and finite, got {self.thresholds}")
        if not 0 <= self.master_seed < 2**64:
            raise BadIndexError(f"seed must lie in [0, 2**64), got {self.master_seed}")

    @property
    def start_n(self) -> int:
        return MODELS[self.example].start_n


def standard_error(variance, replications: int):
    """sqrt(variance / replications), the standard error of a mean of that
    many independent draws, for a float or an array."""
    return np.sqrt(np.divide(variance, replications))


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


def dyadic_windows(n_max: int) -> tuple[tuple[int, int], ...]:
    """Full windows [N, 2N) with N = 10, 20, 40, ... inside the range."""
    windows = []
    lo = 10
    while 2 * lo - 1 <= n_max:
        windows.append((lo, 2 * lo))
        lo *= 2
    return tuple(windows)


# Variates a chunk of rows draws, both parities together, about.  It bounds
# the size of a chunk's arrays: smaller chunks cost more numpy calls per
# count, larger ones more peak memory.
_CHUNK_DRAWS = 1 << 16
# Gaps drawn per row beyond the expected count of nonzero slots, in
# standard deviations; a row whose gaps end short of its last slot draws
# more (_top_up).
_SPARE_SD = 4.0


class Draws(NamedTuple):
    """The placed nonzero counts of one parity in one chunk, in ascending
    (row, pos); a row's tally is np.bincount(rows)."""

    rows: np.ndarray      # row within the chunk
    pos: np.ndarray       # trajectory offset within the block
    counts: np.ndarray    # the counts, each >= 1


class OddDraws(NamedTuple):
    """The odd counts of one chunk: the one beside each nonzero even count,
    the placed ones where Y_2n = 0, and per row the number of the others."""

    beside: np.ndarray          # the odd count at each even Draws entry, 0 included
    placed: Draws               # the placed counts where Y_2n = 0
    ones: np.ndarray            # per row: the counts of 1 where Y_2n = 0 (F_n = b_n), unplaced
    twos: np.ndarray            # per row: the counts of 2 there (F_n = 2 b_n), unplaced


def _gaps(u: np.ndarray, inv_log: np.ndarray, width: int) -> np.ndarray:
    """Geometric trial counts by inversion: P(gap > k) = (1 - q)^k, k >= 0.

    inv_log is 1 / log(1 - q); gaps beyond `width`, the widest row, are cut
    to it.  The uniforms u are overwritten.
    """
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= inv_log
    np.minimum(u, width, out=u)
    gaps = u.astype(np.int64)  # truncation is the floor: u >= 0
    gaps += 1
    return gaps


def _top_up(stream, inv_log: float, last: int, width: int, batch: int) -> np.ndarray:
    """Slots after `last` that a row's first gaps did not reach."""
    found = []
    while last < width:
        pos = last + np.cumsum(_gaps(uniform_block(stream, batch), inv_log, width))
        found.append(pos[pos < width])
        last = int(pos[-1])
    return np.concatenate(found)


def _gap_counts(q: np.ndarray, width: int) -> np.ndarray:
    """Gaps a row draws first: its expected nonzero count, _SPARE_SD standard
    deviations more, and one; none where q = 0."""
    expected = width * q
    return ((np.ceil(expected + _SPARE_SD * np.sqrt(expected)) + 1) * (q > 0)).astype(np.int64)


def _nonzero_slots(stream, q: np.ndarray, width: int | np.ndarray):
    """Positions of the nonzero slots, row-major, and their count per row.

    Slot (j, r), r < width[j], is nonzero with probability q[j],
    independently of every other slot; an int width is the width of every
    row.  A row with q[j] = 0 draws nothing.  Row j draws _gap_counts
    geometric gaps first; the gaps past the row's end are dropped, which the
    memoryless gaps allow, and a row whose gaps end short of it draws more.
    """
    live, counts = np.flatnonzero(q > 0), np.zeros(q.size, dtype=np.int64)
    if not live.size:
        return counts[:0], counts
    q, width = q[live], width[live] if np.ndim(width) else width
    inv_log, n_gaps = 1.0 / np.log1p(-q), _gap_counts(q, width)
    ends = np.cumsum(n_gaps)
    widest = int(np.max(width))
    pos = _gaps(uniform_block(stream, int(ends[-1])), np.repeat(inv_log, n_gaps), widest)
    np.cumsum(pos, out=pos)
    before = np.concatenate(([0], pos[ends[:-1] - 1]))  # trials before each row
    pos -= np.repeat(before + 1, n_gaps)
    first = ends - n_gaps
    last = pos[ends - 1]
    keep = pos < (np.repeat(width, n_gaps) if np.ndim(width) else width)
    per_row = np.add.reduceat(keep, first, dtype=np.int64)
    pos = np.compress(keep, pos)
    short = np.flatnonzero(last < width)
    if short.size:  # a short row's further slots lie past its kept ones: insert them at its end
        widths = np.broadcast_to(width, n_gaps.shape)
        extra = [_top_up(stream, inv_log[j], last[j], widths[j], n_gaps[j]) for j in short]
        sizes = [e.size for e in extra]
        pos = np.insert(pos, np.repeat(np.cumsum(per_row)[short], sizes), np.concatenate(extra))
        per_row[short] += sizes
    counts[live] = per_row
    return pos, counts


# Terms of g_m(x) = m! sum_k x^k / (k + m)!, highest first: for x <= 1 the
# omitted terms are below 2^-53 of g_m.
_G_TERMS = {m: tuple(float(math.factorial(m)) / math.factorial(k + m) for k in reversed(range(18)))
            for m in (1, 2, 3)}


def _g(m: int, rate: np.ndarray) -> np.ndarray:
    """g_m(rate), so that P(C >= m) = e^-rate rate^m g_m(rate) / m! for C ~ Poisson(rate),
    0 <= rate <= 1; summed term by term, so that no digits cancel at small rates."""
    g = np.zeros_like(rate)
    for c in _G_TERMS[m]:
        g = g * rate + c
    return g


def _count_law(rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(C >= 2 | C >= 1) and P(C = 2 | C >= 2) for C ~ Poisson(rate), 0 <= rate <= 1;
    at rate 0 a nonzero count is 1."""
    g = _g(2, rate)
    return np.divide(0.5 * rate * rate * g, np.expm1(rate), out=np.zeros_like(rate),
                     where=rate > 0), 1.0 / g


def _counts_at_least(stream, rate: np.ndarray, low, p_low: np.ndarray) -> np.ndarray:
    """Counts of C ~ Poisson(rate[j]) given C >= low[j], by inversion, one
    uniform each where rate[j] > 0; at rate 0 the count is low[j] and takes none.

    p_low[j] is P(C = low[j] | C >= low[j]); low is an array or one int.
    """
    counts = np.array(np.broadcast_to(low, rate.shape), dtype=np.int64)
    live = np.flatnonzero(rate > 0)
    u = uniform_block(stream, live.size)
    up = u >= p_low[live]
    live, u = live[up], u[up]  # the counts above low
    lam, k = rate[live], counts[live]
    term = cdf = p_low[live]
    while live.size:
        k = k + 1
        counts[live] = k
        term = term * lam / k  # P(C = k | C >= low)
        if not term.any():  # the rest of the tail is below the smallest double
            break
        cdf = cdf + term
        up = u >= cdf
        live, u, lam, k, term, cdf = live[up], u[up], lam[up], k[up], term[up], cdf[up]
    return counts


def _chunk_bounds(cost: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive row ranges, each the longest whose cost sums to at most
    _CHUNK_DRAWS, or one row."""
    cum = np.cumsum(cost)
    bounds = []
    lo, base = 0, 0
    while lo < cum.size:
        hi = max(lo + 1, int(cum.searchsorted(base + _CHUNK_DRAWS, side="right")))
        bounds.append((lo, hi))
        lo, base = hi, cum[hi - 1]
    return bounds


def _holds(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key is in sorted_keys."""
    if not sorted_keys.size:
        return np.zeros(keys.size, dtype=bool)
    return sorted_keys[np.minimum(sorted_keys.searchsorted(keys), sorted_keys.size - 1)] == keys


def sparse_draws(
    tables: PairTables, master_seed: int, block: int, width: int, t_min: float
) -> Iterator[tuple[int, int, Draws, OddDraws]]:
    """The nonzero counts of one block, chunk by chunk in ascending n.

    Yields (j0, j1, even, odd): the chunk's rows [j0, j1) and the draws of
    Y_2n and C_2n+1 there, for the first `width` trajectories of the block,
    in the draw order of streams.  Where Y_2n = 0, F_n is C_2n+1 b_n; in a
    row where no count of 1 or 2 there can pass t_min, the smallest
    threshold, those counts are only counted, in odd.ones and odd.twos.
    """
    rates = np.concatenate([tables.rate_even, tables.rate_odd])
    if not ((0.0 <= rates) & (rates <= 1.0)).all():  # NaN fails too
        raise ValueError("each truncated-Poisson rate must lie in [0, 1]")
    r_even, p2_even = _count_law(tables.rate_even)
    lam, q = tables.rate_odd, tables.q_odd
    g1, g2, g3 = (_g(m, lam) for m in (1, 2, 3))
    p_two = q * lam / (2.0 * g1)                   # P(C = 2)
    q2, q3 = p_two * g2, p_two * lam * g3 / 3.0    # P(C >= 2), P(C >= 3)
    one = q / g1 / (1.0 - q3)                      # P(C = 1 | C <= 2), q at rate 0
    two = p_two / (1.0 - q + p_two)                # P(C = 2 | C in {0, 2}), 0 at rate 0
    b = tables.x(slice(None), 0)                   # X_2n at Y_2n = 0
    # placed: the largest count left unplaced, 2 where one can occur or 1, times b_n passes t_min
    placed = np.abs(b * np.where(two > 0, 2, 1)) > t_min
    skip = np.where(placed, q, q3)                 # P(C >= 1) or P(C >= 3) at Y_2n = 0
    low, p_low = np.where(placed, 1, 3), 1.0 / np.where(placed, g1, g3)
    even_stream, odd_stream = (block_stream(master_seed, parity, block) for parity in (0, 1))
    # The variates of a row: its even gaps, about as many odd uniforms, its
    # odd skip gaps, its even thinning gaps and its values.  The per-row
    # binomials are left out, as in layout 4.  At rate 0 the thinning gaps
    # and the values cost nothing, so a two-point chunk keeps its rows.
    cost = (2 * _gap_counts(tables.q_even, width) + _gap_counts(skip, width)
            + _gap_counts(r_even, width * tables.q_even)
            + np.ceil(width * (tables.q_even * (r_even + q2) + skip * (lam > 0))).astype(np.int64))
    for j0, j1 in _chunk_bounds(cost):
        n = j1 - j0
        pos, per_row = _nonzero_slots(even_stream, tables.q_even[j0:j1], width)
        rows = np.repeat(np.arange(n), per_row)
        counts = np.ones(pos.size, dtype=np.int64)
        k, per_row_multi = _nonzero_slots(even_stream, r_even[j0:j1], per_row)
        multi = k + np.repeat(per_row.cumsum() - per_row, per_row_multi)
        at = rows[multi] + j0
        counts[multi] = _counts_at_least(even_stream, tables.rate_even[at], 2, p2_even[at])
        even = Draws(rows, pos, counts)

        # 1. the odd count beside each nonzero even count, by inversion; u < q2 implies u < q
        u = uniform_block(odd_stream, pos.size)
        beside = (u < np.repeat(q[j0:j1], per_row)).astype(np.int64)
        multi = (u < np.repeat(q2[j0:j1], per_row)).nonzero()[0]  # none at rate 0: q2 = 0
        at = rows[multi] + j0
        beside[multi] = _counts_at_least(odd_stream, lam[at], 2, 1.0 / g2[at])
        # 2. the placed counts where Y_2n = 0: skips over every slot
        z_pos, z_per_row = _nonzero_slots(odd_stream, skip[j0:j1], width)
        z_rows = np.repeat(np.arange(n), z_per_row)
        keep = ~_holds(rows * width + pos, z_rows * width + z_pos)  # drop Y_2n != 0
        z_rows, z_pos = z_rows[keep], z_pos[keep]
        at = z_rows + j0
        z_counts = _counts_at_least(odd_stream, lam[at], low[at], p_low[at])
        z_per_row = np.bincount(z_rows, minlength=n)
        # 3. the other counts of 1 and 2 there, in the rows not placed
        free = (width - per_row - z_per_row) * ~placed[j0:j1]
        # n = 0 or p = 0 draws nothing; at rate 0 two = 0, so twos is 0
        ones = odd_stream.binomial(free, one[j0:j1])
        twos = odd_stream.binomial(free - ones, two[j0:j1])
        yield j0, j1, even, OddDraws(beside, Draws(z_rows, z_pos, z_counts), ones, twos)


class _Block:
    """One block's accumulators: cell counts, last exceedances, window hits."""

    def __init__(self, config: SimConfig, tables: PairTables, windows, width: int) -> None:
        self.config, self.tables, self.width = config, tables, width
        self.cells, self.counts = [], []  # per chunk: the sorted keys of its cells, their counts
        # [threshold, trajectory]: last row with |F_n| > thresholds[k], -1 if none
        self.last_above = np.full((len(config.thresholds), width), -1)
        self.window_of = np.full(len(tables.n_values), -1)
        for w, (w_lo, w_hi) in enumerate(windows):
            self.window_of[w_lo - config.start_n : w_hi - config.start_n] = w
        self.ev_or = np.zeros((len(windows), width), dtype=bool)  # event seen in the window

    def add(self, j0: int, j1: int, even: Draws, odd: OddDraws) -> None:
        """Count the cells of rows [j0, j1) and follow their exceedances and events."""
        y, beside, zero = even.counts, odd.beside, odd.placed
        ny = y.max(initial=0) + 1
        nc = max(beside.max(initial=0), zero.counts.max(initial=0), 2) + 1
        at = np.concatenate([(even.rows * ny + y) * nc + beside, zero.rows * ny * nc + zero.counts])
        cells = np.bincount(at, minlength=(j1 - j0) * ny * nc).reshape(j1 - j0, ny, nc)
        cells[:, 0, 1:3] += np.stack([odd.ones, odd.twos], axis=1)  # the unplaced 1s and 2s
        cells[:, 0, 0] = self.width - cells.sum(axis=(1, 2))
        seen = np.flatnonzero(cells)
        row, y_seen, c_seen = np.unravel_index(seen, cells.shape)
        self.cells.append((row + j0) << 2 * _CELL_BITS | y_seen << _CELL_BITS | c_seen)
        self.counts.append(cells.ravel()[seen])
        # F_n at the placed odd counts: X_2n times the count, Y_2n being 0 at odd.placed
        on = beside.nonzero()[0]
        f_rows = np.concatenate([even.rows[on], zero.rows]) + j0
        f_y = np.concatenate([y[on], np.zeros_like(zero.rows)])
        abs_f = np.abs(self.tables.x(f_rows, f_y) * np.concatenate([beside[on], zero.counts]))
        f_pos = np.concatenate([even.pos[on], zero.pos])
        for last, t in zip(self.last_above, self.config.thresholds):
            big = (abs_f > t).nonzero()[0]
            np.maximum.at(last, f_pos[big], f_rows[big])
        event = (y == 1).nonzero()[0]
        w = self.window_of[even.rows[event] + j0]
        self.ev_or[w[w >= 0], even.pos[event][w >= 0]] = True


def _walk_block(config: SimConfig, lo: int, hi: int) -> TrajectoryStats:
    """One block's cell counts, sup-exceedance and window hits."""
    tables, grid, windows = _plan(config)
    acc = _Block(config, tables, windows, hi - lo)
    for j0, j1, even, odd in sparse_draws(tables, config.master_seed, lo // BLOCK_SIZE, hi - lo,
                                          min(config.thresholds)):
        acc.add(j0, j1, even, odd)
        del even, odd  # free this chunk's draws before the next is drawn
    sup_hits = [[(last >= n0 - config.start_n).sum() for n0 in (config.start_n, *grid)]
                for last in acc.last_above]
    return TrajectoryStats(config, lo, hi, np.concatenate(acc.cells), np.concatenate(acc.counts),
                           np.array(sup_hits, dtype=np.int64), acc.ev_or.sum(axis=1))


def _walk_blocks(config: SimConfig, bounds: list[tuple[int, int]]) -> TrajectoryStats:
    """The total of the blocks `bounds`, each folded in as soon as it is walked."""
    return _assemble(_walk_block(config, lo, hi) for lo, hi in bounds)


class Plan(NamedTuple):
    """What a run derives from its config alone, all O(n_max)."""

    tables: PairTables
    grid: tuple[int, ...]                # default_diagnostic_grid
    windows: tuple[tuple[int, int], ...]  # dyadic_windows


@lru_cache(maxsize=1)
def _plan(config: SimConfig) -> Plan:
    """The pair tables, the diagnostic grid and the windows of a run; cached,
    so a run's blocks and result share one plan, which no caller writes to."""
    tables = MODELS[config.example].tables(np.arange(config.start_n, config.n_max + 1))
    grid = default_diagnostic_grid(config.start_n, config.n_max)
    return Plan(tables, grid, dyadic_windows(config.n_max))


@dataclass
class TrajectoryStats:
    """What the draws of one replication range determine, combinable by blocks.

    The per-n tables, the grid and the windows follow from the config; they
    are read from _plan.
    """

    config: SimConfig
    lo: int
    hi: int
    cells: np.ndarray        # the cells (row, y, c) seen, as ascending keys (see _CELL_BITS)
    cell_counts: np.ndarray  # the trajectories in each cell
    # [threshold, n0 in (start_n, *grid)]: count of sup_(n >= n0) |F_n| > threshold
    sup_hits: np.ndarray
    win_hits: np.ndarray           # [n_windows]: count of the event somewhere in the window

    plan = property(lambda self: _plan(self.config))
    tables = property(lambda self: self.plan.tables)
    grid = property(lambda self: self.plan.grid)
    windows = property(lambda self: self.plan.windows)

    @property
    def replications(self) -> int:
        return self.hi - self.lo

    def cell_values(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The row n - start_n, Y_2n and C_2n+1 of each cell."""
        low = (1 << _CELL_BITS) - 1
        return self.cells >> 2 * _CELL_BITS, self.cells >> _CELL_BITS & low, self.cells & low

    def _values(self, stat: str) -> tuple[np.ndarray, np.ndarray]:
        """The row of each cell and the statistic's value there."""
        row, y, c = self.cell_values()
        x = self.tables.x(row, y)
        return row, STATS[stat](x, x * c, y)

    def sums(self, stat: str) -> np.ndarray:
        """Per-n sums of one statistic over the whole range, added in cell order."""
        row, values = self._values(stat)
        return np.bincount(row, self.cell_counts * values, len(self.tables.n_values))

    def mean_with_stderr(self, stat: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-n means, with the stderrs of the centred sample variances, which
        need two trajectories."""
        r = self.replications
        if r < 2:
            raise BadIndexError(f"a sample variance needs two trajectories, got {r}")
        mean = self.sums(stat) / r
        row, values = self._values(stat)
        sq = np.bincount(row, self.cell_counts * (values - mean[row]) ** 2, mean.size)
        return mean, standard_error(sq / (r - 1), r)

    def j1_mean(self):
        mean, se = self.mean_with_stderr("x_even")
        return self.tables.coef * mean, self.tables.coef * se

    def proportion(self, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fractions of the trajectories, from their counts, with binomial stderrs:
        of sup_hits[k] per n0 for the k-th threshold, or of win_hits per window."""
        p = hits / self.replications
        return p, standard_error(p * (1.0 - p), self.replications)

    def window_law(self) -> list[tuple[float, float | None]]:
        """Per window: the exact P(event somewhere in it), 1 - prod(1 - P(event
        at n)), and the largest deviation of the degree-one part from its
        closed form over the rows where some trajectory had the event (None
        where none had)."""
        start, tables, events = self.config.start_n, self.tables, self.sums("events")
        law = []
        for w_lo, w_hi in self.windows:
            rows = slice(w_lo - start, w_hi - start)
            seen = events[rows] > 0
            law.append((1.0 - float(np.prod(1.0 - tables.event_prob[rows])),
                        float(tables.rel_dev[rows][seen].max()) if seen.any() else None))
        return law


def run_range(config: SimConfig, lo: int, hi: int) -> TrajectoryStats:
    """Simulate trajectories [lo, hi); run() is the [0, R) case.

    The cost guard, the streams, and the aggregates all see absolute
    trajectory indices, so disjoint ranges combine exactly via merge().  A
    range of one trajectory is walked, so that merge can join it, but its
    mean_with_stderr raises: a sample variance needs two.
    Worker w of W walks blocks w, w + W, ... as one task of workers.run_tasks:
    on a forked process, or in this process with one worker or where fork is
    not available.
    """
    if not 0 <= lo < hi:
        raise BadIndexError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if lo % BLOCK_SIZE != 0:
        raise BadIndexError(f"range start must be a multiple of {BLOCK_SIZE}")
    if (hi - lo) * config.n_max > WORK_BUDGET:
        raise ResourceLimitError(
            f"{hi - lo} trajectories x n_max={config.n_max} exceeds budget {WORK_BUDGET}"
        )
    if config.n_max > MAX_N:
        raise ResourceLimitError(f"n_max={config.n_max} exceeds MAX_N={MAX_N}")
    bounds = block_bounds(lo, hi)
    _plan(config)  # built once, before the workers fork, so that they inherit it
    w = _worker_count(len(bounds))
    return _assemble(run_tasks(_walk_blocks, [(config, bounds[k::w]) for k in range(w)]))


def _assemble(parts: Iterable[TrajectoryStats]) -> TrajectoryStats:
    """Add parts that together cover one replication range, in any order: the
    counts are integers, so each part is folded in exactly as it arrives, and
    an iterator's parts are never held together."""
    parts = iter(parts)
    total = next(parts)
    for part in parts:  # part's cells added to total's, the new ones inserted in order
        pos = total.cells.searchsorted(part.cells)
        new = total.cells[np.minimum(pos, total.cells.size - 1)] != part.cells
        counts = np.insert(total.cell_counts, pos[new], 0)
        counts[pos + np.cumsum(new) - new] += part.cell_counts  # where part's cells now are
        total = TrajectoryStats(total.config, min(total.lo, part.lo), max(total.hi, part.hi),
                                np.insert(total.cells, pos[new], part.cells[new]), counts,
                                total.sup_hits + part.sup_hits, total.win_hits + part.win_hits)
        del part, pos, new  # not held while the next part is made
    return total


def run(config: SimConfig) -> TrajectoryStats:
    """Simulate all configured replications."""
    return run_range(config, 0, config.replications)


def merge(a: TrajectoryStats, b: TrajectoryStats) -> TrajectoryStats:
    """Combine two contiguous, block-aligned replication ranges exactly.

    The replication ranges of the parts must meet at a block boundary;
    then the cell counts of the union are those of a single run over the
    full range, and so is every derived quantity, bit for bit.
    """
    if a.config != b.config:
        raise BadIndexError("cannot merge stats from different configurations")
    if a.hi != b.lo or b.lo % BLOCK_SIZE != 0 or a.lo % BLOCK_SIZE != 0:
        raise BadIndexError("ranges must be contiguous and block-aligned")
    return _assemble([a, b])
