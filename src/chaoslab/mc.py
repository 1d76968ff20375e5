"""Reproducible Monte Carlo over the two counterexample constructions.

The engine knows a construction only through its pair model (see
pair_model), looked up by name in MODELS: per-n arrays giving, for each
parity, the probability that a count is nonzero and the zero-truncated law
of a nonzero count, plus the affine map from the even count to X_2n.
F_n = X_2n C_2n+1 is then nonzero only where the odd count is, and every
kept statistic follows from the nonzero counts alone.

Trajectories are simulated in fixed blocks of BLOCK_SIZE.  A block walks
the pair indices upward in chunks of rows that draw about _CHUNK_DRAWS
variates, each from the block's two streams in the order of stream
layout 5 (see streams).  The even counts are all placed: their positions,
which of them exceed 1 and the values of those.  The odd count beside each
nonzero even count is drawn by inversion, one uniform each, so it sits
beside its even count with no search.  Where Y_2n = 0, F_n is C_2n+1 b_n,
b_n = -x_loc / x_scale; an odd count there is placed only where F_n may
pass a threshold: where it is at least 3, or in a row where the largest
count not placed, 1 for two-point and 2 for Poisson counts, times |b_n|
exceeds min(SimConfig.thresholds).  Of the other odd counts only their
number per row is drawn, of 1s and of 2s.  So the draws depend on the
smallest threshold; at 1 only the Poisson rows n <= 6 are placed.  Results
are bitwise identical for any worker count and any replication split along
block boundaries.

Per chunk the draws reduce to per-n sums (STAT_NAMES): X_2n sums from the
integer sums of the even counts, F_n sums over the placed odd counts row by
row, X_2n times the odd count beside a nonzero even count and b_n times
the placed count where Y_2n = 0, plus each row's unplaced 1s and 2s times
the powers of b_n and 2 b_n; and the recurrence events {Y_2n = 1}.  A
block also keeps, per threshold t of SimConfig.thresholds and per
trajectory, the last n with |F_n| > t, which gives
P(sup_(n0 <= n <= n_max) |F_n| > t) as one count per n0 in (start_n, *grid)
and per t; and per window the count of trajectories with an event in it.
run_range and merge join contiguous parts with the same _assemble; across
blocks the per-n sums are combined by an exactly rounded compensated sum,
and counts add.  TrajectoryStats turns the sums and counts into estimates,
arrays aligned with the rows, the grid or the windows, and standard_error
gives every standard error.

run_range walks the blocks with workers.run_tasks: worker w of W forked
processes walks blocks w, w + W, ..., W as workers.worker_count allows
(CHAOSLAB_THREADS, by default the CPUs this process may run on).  The plan
(_plan: the per-n tables, the diagnostic grid and the windows) is built
once per config, before the fork, so the workers inherit it; a worker sends
back only its blocks' TrajectoryStats, which hold only what the draws
determine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from . import poisson_pair, two_point
from .errors import BadIndexError, ResourceLimitError
from .pair_model import PairModel, PairTables
from .streams import BLOCK_SIZE, block_bounds, block_stream, uniform_block
from .point_process import poisson_from_uniform  # noqa: F401  perfbench/spans.py hooks this name
from .workers import run_tasks, worker_count as _worker_count  # perfbench hooks _worker_count

MODELS: dict[str, PairModel] = {"twopoint": two_point.MODEL, "poisson": poisson_pair.MODEL}
EXAMPLES = tuple(MODELS)

# Per-n trajectory sums kept by the engine, in storage order.
STAT_NAMES = ("x_even", "x_even_sq", "f", "f_sq", "f_quad", "f_abs52", "f_abs5", "events")
_SQ_OF = {"x_even": "x_even_sq", "f": "f_sq", "f_sq": "f_quad", "f_abs52": "f_abs5"}
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
        if self.replications < 1:
            raise BadIndexError("need at least one replication")
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
    many independent draws, for a float or an array; nan for one draw."""
    se = np.sqrt(np.divide(variance, replications))
    return se if replications > 1 else se * math.nan  # nan in the shape of se


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
    """The placed nonzero counts of one parity in one chunk, in ascending (row, pos)."""

    rows: np.ndarray      # row within the chunk
    pos: np.ndarray       # trajectory offset within the block
    per_row: np.ndarray   # number of placed counts in each row of the chunk
    counts: np.ndarray    # the counts, each >= 1


class OddDraws(NamedTuple):
    """The odd counts of one chunk: those beside a nonzero even count, the
    placed ones where Y_2n = 0, and per row the number of the others."""

    on_even: np.ndarray         # ascending indices into the even Draws where C >= 1
    on_even_counts: np.ndarray  # the odd counts there
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
    deviations more, and one."""
    expected = width * q
    return (np.ceil(expected + _SPARE_SD * np.sqrt(expected)) + 1).astype(np.int64)


def _nonzero_slots(stream, q: np.ndarray, width: int | np.ndarray):
    """Positions of the nonzero slots, row-major, and their count per row.

    Slot (j, r), r < width[j], is nonzero with probability q[j] > 0,
    independently of every other slot; an int width is the width of every
    row.  Row j draws _gap_counts geometric gaps first; the gaps past the
    row's end are dropped, which the memoryless gaps allow, and a row whose
    gaps end short of it draws more.
    """
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
    if short.size:
        widths = np.broadcast_to(width, n_gaps.shape)
        extra = [_top_up(stream, inv_log[j], last[j], widths[j], n_gaps[j]) for j in short]
        rows = np.repeat(np.arange(n_gaps.size), per_row)
        rows = np.concatenate([rows, *(np.full(e.size, j) for j, e in zip(short, extra))])
        pos = np.concatenate([pos, *extra])
        order = np.argsort(rows * widest + pos)
        pos = pos[order]
        per_row = np.bincount(rows, minlength=n_gaps.size)
    return pos, per_row


# Terms of g_m(x) = m! sum_k x^k / (k + m)!, highest first: for x <= 1 the
# omitted terms are below 2^-53 of g_m.
_G_TERMS = {m: tuple(float(math.factorial(m)) / math.factorial(k + m) for k in reversed(range(18)))
            for m in (1, 2, 3)}


def _g(m: int, rate: np.ndarray) -> np.ndarray:
    """g_m(rate), so that P(C >= m) = e^-rate rate^m g_m(rate) / m! for C ~ Poisson(rate).

    Summed term by term for rate <= 1, so that no digits cancel at small rates.
    """
    g = np.zeros_like(rate)
    for c in _G_TERMS[m]:
        g = g * rate + c
    large = rate > 1.0
    x = rate[large]
    head = sum(x**k / math.factorial(k) for k in range(1, m))  # e^x - 1 before x^m
    g[large] = math.factorial(m) * (np.expm1(x) - head) / x**m
    return g


def _count_law(rate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(C >= 2 | C >= 1) and P(C = 2 | C >= 2) for C ~ Poisson(rate), rate > 0."""
    g = _g(2, rate)
    return 0.5 * rate * rate * g / np.expm1(rate), 1.0 / g


def _counts_at_least(stream, rate: np.ndarray, low, p_low: np.ndarray) -> np.ndarray:
    """Counts of C ~ Poisson(rate[j]) given C >= low[j], by inversion, one uniform each.

    p_low[j] is P(C = low[j] | C >= low[j]); low is an array or one int.
    """
    u = uniform_block(stream, rate.size)
    counts = np.array(np.broadcast_to(low, rate.shape), dtype=np.int64)
    live = (u >= p_low).nonzero()[0]  # the counts above low
    lam, k = rate[live], counts[live]
    term = cdf = p_low[live]
    while live.size:
        k = k + 1
        counts[live] = k
        term = term * lam / k  # P(C = k | C >= low)
        if not term.any():  # the rest of the tail is below the smallest double
            break
        cdf = cdf + term
        up = u[live] >= cdf
        live, lam, k, term, cdf = live[up], lam[up], k[up], term[up], cdf[up]
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
    in the draw order of streams.  Where Y_2n = 0, F_n is C_2n+1 b_n.  In a
    row where no unplaced count can pass t_min, the smallest threshold, the
    odd counts of 1 and 2 there are only counted, in odd.ones and odd.twos.
    """
    rates = (tables.rate_even, tables.rate_odd)
    if any(rate.any() and not rate.all() for rate in rates):
        raise ValueError("a parity's truncated-Poisson rates must be all 0 or all positive")
    r_even, p2_even = _count_law(tables.rate_even) if tables.rate_even.any() else (None, None)
    lam, q = tables.rate_odd, tables.q_odd
    poisson_odd = bool(lam.any())  # else every nonzero odd count is 1
    g1, g2, g3 = (_g(m, lam) for m in (1, 2, 3))
    p_two = q * lam / (2.0 * g1)                   # P(C = 2)
    q2, q3 = p_two * g2, p_two * lam * g3 / 3.0    # P(C >= 2), P(C >= 3)
    one = q / g1 / (1.0 - q3)                      # P(C = 1 | C <= 2), q at rate 0
    two = p_two / (1.0 - q + p_two)                # P(C = 2 | C in {0, 2})
    b = -tables.x_loc / tables.x_scale             # the expression _Block.add uses
    # a placed row is one where the largest count left unplaced, 2 or 1, times b_n passes t_min
    placed = np.abs(b * (2 if poisson_odd else 1)) > t_min
    skip = np.where(placed, q, q3)                 # P(C >= 1) or P(C >= 3) at Y_2n = 0
    low, p_low = np.where(placed, 1, 3), 1.0 / np.where(placed, g1, g3)
    drawn = skip > 0.0                             # the rows that skip
    even_stream, odd_stream = (block_stream(master_seed, parity, block) for parity in (0, 1))
    # The variates of a row: its even gaps, about as many odd uniforms and
    # its odd skip gaps; for Poisson counts, also the even thinning gaps and
    # the values.  The per-row binomials are left out, as in layout 4, so a
    # two-point chunk keeps its rows.
    cost = 2 * _gap_counts(tables.q_even, width) + _gap_counts(skip, width) * drawn
    if r_even is not None:
        cost += _gap_counts(r_even, width * tables.q_even) + np.ceil(
            width * (tables.q_even * (r_even + q2) + skip)).astype(np.int64)
    for j0, j1 in _chunk_bounds(cost):
        n = j1 - j0
        pos, per_row = _nonzero_slots(even_stream, tables.q_even[j0:j1], width)
        rows = np.repeat(np.arange(n), per_row)
        counts = np.ones(pos.size, dtype=np.int64)
        if r_even is not None:
            k, per_row_multi = _nonzero_slots(even_stream, r_even[j0:j1], per_row)
            multi = k + np.repeat(per_row.cumsum() - per_row, per_row_multi)
            at = rows[multi] + j0
            counts[multi] = _counts_at_least(even_stream, tables.rate_even[at], 2, p2_even[at])
        even = Draws(rows, pos, per_row, counts)

        # 1. the odd count beside each nonzero even count, by inversion
        u = uniform_block(odd_stream, pos.size)
        on_even = (u < np.repeat(q[j0:j1], per_row)).nonzero()[0]
        on_even_counts = np.ones(on_even.size, dtype=np.int64)
        if poisson_odd:
            at = rows[on_even] + j0
            multi = (u[on_even] < q2[at]).nonzero()[0]
            at = at[multi]
            on_even_counts[multi] = _counts_at_least(odd_stream, lam[at], 2, 1.0 / g2[at])
        # 2. the placed counts where Y_2n = 0: skips over every slot
        z_rows = z_pos = np.zeros(0, dtype=np.int64)
        at = drawn[j0:j1].nonzero()[0] + j0
        if at.size:
            z_pos, z_per_row = _nonzero_slots(odd_stream, skip[at], width)
            z_rows = np.repeat(at - j0, z_per_row)
            keep = ~_holds(rows * width + pos, z_rows * width + z_pos)  # drop Y_2n != 0
            z_rows, z_pos = z_rows[keep], z_pos[keep]
        at = z_rows + j0
        z_counts = (_counts_at_least(odd_stream, lam[at], low[at], p_low[at]) if poisson_odd
                    else np.ones(at.size, dtype=np.int64))
        z_per_row = np.bincount(z_rows, minlength=n)
        # 3. the other counts of 1 and 2 there, in the rows not placed
        free = (width - per_row - z_per_row) * ~placed[j0:j1]
        ones = odd_stream.binomial(free, one[j0:j1])  # n = 0 draws nothing
        twos = (odd_stream.binomial(free - ones, two[j0:j1]) if poisson_odd
                else np.zeros(n, dtype=np.int64))
        yield j0, j1, even, OddDraws(on_even, on_even_counts,
                                     Draws(z_rows, z_pos, z_per_row, z_counts), ones, twos)


def _row_sums(values: np.ndarray, per_row: np.ndarray) -> np.ndarray:
    """Sums along the last axis over consecutive runs of per_row[j] entries."""
    out = np.zeros(values.shape[:-1] + per_row.shape, dtype=values.dtype)
    full = per_row.nonzero()[0]
    if full.size:
        out[..., full] = np.add.reduceat(values, (per_row.cumsum() - per_row)[full], axis=-1)
    return out


def _powers(f: np.ndarray) -> np.ndarray:
    """F, F^2, F^4, |F|^(5/2) and |F|^5: the sums' columns f to f_abs5."""
    f_sq = f * f
    a52 = np.sqrt(np.abs(f)) * f_sq
    return np.stack([f, f_sq, f_sq * f_sq, a52, a52 * a52])


class _Block:
    """One block's accumulators: per-n sums, last exceedances, window hits."""

    def __init__(self, config: SimConfig, tables: PairTables, windows, width: int) -> None:
        self.config, self.tables, self.width = config, tables, width
        rows = len(tables.n_values)
        self.sums = np.zeros((rows, len(STAT_NAMES)))
        # [threshold, trajectory]: last row with |F_n| > thresholds[k], -1 if none
        self.last_above = np.full((len(config.thresholds), width), -1)
        self.window_of = np.full(rows, -1)
        for w, (w_lo, w_hi) in enumerate(windows):
            self.window_of[w_lo - config.start_n : w_hi - config.start_n] = w
        self.ev_or = np.zeros((len(windows), width), dtype=bool)  # event seen in the window

    def add(self, j0: int, j1: int, even: Draws, odd: OddDraws) -> None:
        """Reduce the draws of rows [j0, j1)."""
        width = self.width
        loc, scale = self.tables.x_loc[j0:j1], self.tables.x_scale[j0:j1]
        y = even.counts
        sum_y, sum_y2 = _row_sums(np.stack([y, y * y]), even.per_row).astype(np.float64)
        # F_n at the placed odd counts: the count times X_2n, which is b_n at Y_2n = 0
        b = -loc / scale
        rows = even.rows[odd.on_even]
        f = (y[odd.on_even] - loc[rows]) / scale[rows] * odd.on_even_counts
        zero = odd.placed
        f_zero = b[zero.rows] * zero.counts
        block = self.sums[j0:j1]
        block[:, 0] = (sum_y - width * loc) / scale
        block[:, 1] = (sum_y2 - 2.0 * loc * sum_y + width * loc * loc) / (scale * scale)
        block[:, 2:7] = (_row_sums(_powers(f), np.bincount(rows, minlength=j1 - j0))
                         + _row_sums(_powers(f_zero), zero.per_row)
                         + odd.ones * _powers(b) + odd.twos * _powers(2.0 * b)).T
        event = (y == 1).nonzero()[0]
        block[:, 7] = np.bincount(even.rows[event], minlength=j1 - j0)
        abs_f = np.abs(np.concatenate([f, f_zero]))
        f_pos = np.concatenate([even.pos[odd.on_even], zero.pos])
        f_rows = np.concatenate([rows, zero.rows]) + j0
        for last, t in zip(self.last_above, self.config.thresholds):
            big = (abs_f > t).nonzero()[0]
            np.maximum.at(last, f_pos[big], f_rows[big])
        w = self.window_of[even.rows[event] + j0]
        self.ev_or[w[w >= 0], even.pos[event][w >= 0]] = True


def _walk_block(config: SimConfig, lo: int, hi: int) -> TrajectoryStats:
    """One block's per-n sums, sup-exceedance and window hits."""
    tables, grid, windows = _plan(config)
    acc = _Block(config, tables, windows, hi - lo)
    for j0, j1, even, odd in sparse_draws(tables, config.master_seed, lo // BLOCK_SIZE, hi - lo,
                                          min(config.thresholds)):
        acc.add(j0, j1, even, odd)
        del even, odd  # free this chunk's draws before the next is drawn
    sup_hits = [[(last >= n0 - config.start_n).sum() for n0 in (config.start_n, *grid)]
                for last in acc.last_above]
    return TrajectoryStats(config, lo, hi, [acc.sums], np.array(sup_hits, dtype=np.int64),
                           acc.ev_or.sum(axis=1))


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
    block_sums: list[np.ndarray]   # per block: [n_rows, n_stats]
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

    @cached_property
    def _totals(self) -> np.ndarray:
        """[n_stats, n_rows]: each cell the exactly rounded sum over the blocks, in order."""
        return np.array([
            [math.fsum(vals) for vals in zip(*(b[:, j].tolist() for b in self.block_sums))]
            for j in range(len(STAT_NAMES))
        ])

    def sums(self, stat: str) -> np.ndarray:
        """Per-n sums of one statistic over the whole range."""
        return self._totals[STAT_NAMES.index(stat)]

    def mean_with_stderr(self, stat: str) -> tuple[np.ndarray, np.ndarray]:
        r = self.replications
        mean = self.sums(stat) / r
        if r < 2:  # the sample variance divides by r - 1
            return mean, np.full_like(mean, np.nan)
        sq = self.sums(_SQ_OF[stat])
        return mean, standard_error(np.maximum(sq - r * mean * mean, 0.0) / (r - 1), r)

    def j1_mean(self):
        mean, se = self.mean_with_stderr("x_even")
        return self.tables.coef * mean, self.tables.coef * se

    def proportion(self, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fractions of the trajectories, from their counts, with binomial stderrs."""
        p = hits / self.replications
        return p, standard_error(p * (1.0 - p), self.replications)

    def sup_exceedance(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """P(sup_(n0 <= n <= n_max) |F_n| > t) for n0 in (start_n, *grid), with
        stderrs; t is one of the run's thresholds.  [1:] aligns with grid."""
        if t not in self.config.thresholds:
            raise BadIndexError(f"threshold {t:g} is not one of the run's {self.config.thresholds}")
        return self.proportion(self.sup_hits[self.config.thresholds.index(t)])

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
    trajectory indices, so disjoint ranges combine exactly via merge().
    The blocks run through workers.run_tasks, which returns them in block
    order: on forked workers, or one after another in this process with one
    worker or where fork is not available.
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
    blocks = run_tasks(_walk_block, [(config, *b) for b in bounds], _worker_count(len(bounds)))
    return _assemble(blocks)


def _assemble(parts: list[TrajectoryStats]) -> TrajectoryStats:
    """Join contiguous parts, in order; the per-block sums are kept as they are."""
    first = parts[0]
    return TrajectoryStats(
        config=first.config,
        lo=first.lo,
        hi=parts[-1].hi,
        block_sums=[s for p in parts for s in p.block_sums],
        sup_hits=sum(p.sup_hits for p in parts),
        win_hits=sum(p.win_hits for p in parts),
    )


def run(config: SimConfig) -> TrajectoryStats:
    """Simulate all configured replications."""
    return run_range(config, 0, config.replications)


def merge(a: TrajectoryStats, b: TrajectoryStats) -> TrajectoryStats:
    """Combine two contiguous, block-aligned replication ranges exactly.

    The replication ranges of the parts must meet at a block boundary;
    then the per-block sums of the union are literally the union of the
    parts' sums, and every derived quantity matches a single run
    over the full range bit for bit.
    """
    if a.config != b.config:
        raise BadIndexError("cannot merge stats from different configurations")
    if a.hi != b.lo or b.lo % BLOCK_SIZE != 0 or a.lo % BLOCK_SIZE != 0:
        raise BadIndexError("ranges must be contiguous and block-aligned")
    return _assemble([a, b])
