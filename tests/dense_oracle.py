"""Exact laws and a dense aggregator for checking the sparse engine.

The exact laws come from the pair tables alone: hurdle_pmf gives the law of
one count, cell_law the law of the binned cells (n, Y_2n, C_2n+1), and
suffix_sup_law the law of the suffix sups of |F_n|.  The aggregator fills
full [n, trajectory] count matrices from the engine's own draws and reduces
them, with plain dense numpy operations, to the engine's cell counts, as a
[row, Y_2n, C_2n+1] table, and window hit counts, and to each trajectory's
suprema of |F_n| over n >= n0, from which sup_hits gives the engine's
sup-exceedance counts; cell_moments evaluates the per-n statistics on a
cell table.  mixed_rates gives a Poisson model whose tables mix rate-0 rows
with rows of positive rate.

It also keeps the two-point F_n in its defining, un-collapsed form, the
reference for the collapsed tables and the engine.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from chaoslab import mc, two_point
from chaoslab.pair_model import PairModel
from chaoslab.streams import BLOCK_SIZE, block_bounds


class TwoPointSpec(NamedTuple):
    """A +/-1 sign Y with P(Y = 1) = p and its normalization X.

    X is sqrt((1-p)/p) on {Y = 1} and -sqrt(p/(1-p)) on {Y = -1}, which
    makes it mean-zero with unit variance for every p in (0, 1).
    """

    p: float
    value_plus: float
    value_minus: float

    @classmethod
    def from_p(cls, p: float) -> TwoPointSpec:
        return cls(float(p), math.sqrt((1.0 - p) / p), -math.sqrt(p / (1.0 - p)))

    def value(self, y: int) -> float:
        """Normalized value X for a realized sign y in {-1, +1}."""
        return self.value_plus if y == 1 else self.value_minus


def even_spec(n: int) -> TwoPointSpec:
    return TwoPointSpec.from_p(two_point.prob(2 * n))


def odd_spec(n: int) -> TwoPointSpec:
    return TwoPointSpec.from_p(two_point.prob(2 * n + 1))


def two_point_term(n: int, x_even: float, x_odd: float) -> float:
    """F_n = p X_2n + sqrt(p(1-p)) X_2n X_2n+1 with p = p_(2n+1), from the two
    normalized values."""
    p = two_point.prob(2 * n + 1)
    return p * x_even + math.sqrt(p * (1.0 - p)) * x_even * x_odd


def sparse_counts(config: mc.SimConfig, tables, block: int, width: int):
    """The same matrices filled from the sparse engine's draws of the block.

    A row's unplaced odd counts, 1s then 2s where the even count is 0, go to
    its lowest slots that hold neither a nonzero even count nor a placed odd
    one: the cells and the counts above the thresholds of the config do not
    depend on which such slots they take, but the per-trajectory sups do.
    """
    rows = len(tables.n_values)
    y_even = np.zeros((rows, width), dtype=np.int64)
    c_odd = np.zeros((rows, width), dtype=np.int64)
    for j0, _, even, odd in mc.sparse_draws(tables, config.master_seed, block, width,
                                            min(config.thresholds)):
        y_even[j0 + even.rows, even.pos] = even.counts
        c_odd[j0 + even.rows, even.pos] = odd.beside
        c_odd[j0 + odd.placed.rows, odd.placed.pos] = odd.placed.counts
        for j in (odd.ones + odd.twos).nonzero()[0]:
            free = np.flatnonzero((y_even[j0 + j] == 0) & (c_odd[j0 + j] == 0))
            ones, twos = odd.ones[j], odd.twos[j]
            c_odd[j0 + j, free[:ones]] = 1
            c_odd[j0 + j, free[ones : ones + twos]] = 2
    return y_even, c_odd


def cell_table(rows, y, c, counts, n_rows: int) -> np.ndarray:
    """[row, y, c]: the trajectories with Y_2n = y and C_2n+1 = c at each row,
    from cell coordinates and their counts."""
    table = np.zeros((n_rows, y.max() + 1, c.max() + 1), dtype=np.int64)
    np.add.at(table, (rows, y, c), counts)
    return table


def cell_moments(config: mc.SimConfig, cells: np.ndarray, stat: str):
    """Per-n mean and sample variance of one of mc.STAT_NAMES over the
    trajectories of a [row, y, c] table, from X_2n, F_n and Y_2n at each cell."""
    tables = mc.MODELS[config.example].tables(np.arange(config.start_n, config.n_max + 1))
    y, c = np.arange(cells.shape[1])[None, :, None], np.arange(cells.shape[2])
    x = (y - tables.x_loc[:, None, None]) / tables.x_scale[:, None, None]
    value = {"x_even": x, "f": x * c, "f_sq": (x * c) ** 2, "f_abs52": np.abs(x * c) ** 2.5,
             "events": (y == 1) * 1.0}[stat]
    r = cells.sum(axis=(1, 2))
    mean = (cells * value).sum(axis=(1, 2)) / r
    return mean, (cells * (value - mean[:, None, None]) ** 2).sum(axis=(1, 2)) / (r - 1)


def aggregate(config: mc.SimConfig, tables, y_even: np.ndarray, c_odd: np.ndarray) -> dict:
    """The engine's aggregates of one block, computed densely."""
    start = config.start_n
    f = (y_even - tables.x_loc[:, None]) / tables.x_scale[:, None] * c_odd
    rows = np.repeat(np.arange(y_even.shape[0]), y_even.shape[1])
    grid = mc.default_diagnostic_grid(start, config.n_max)
    windows = mc.dyadic_windows(config.n_max)
    event = y_even == 1
    abs_f = np.abs(f)
    return {
        "cells": cell_table(rows, y_even.ravel(), c_odd.ravel(), 1, y_even.shape[0]),
        "window_max": abs_f.max(axis=0),
        # [n0 in (start_n, *grid), trajectory]: sup over n >= n0 of |F_n|
        "suffix_max": np.array([abs_f[n0 - start :].max(axis=0) for n0 in (start, *grid)]),
        "win_hits": np.array([
            event[lo - start : hi - start].any(axis=0).sum() for lo, hi in windows
        ], dtype=np.int64),
    }


def _add_cells(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of two [row, y, c] tables of one run, padded to the larger y and c."""
    out = np.zeros(np.maximum(a.shape, b.shape), dtype=np.int64)
    for t in (a, b):
        out[:, : t.shape[1], : t.shape[2]] += t
    return out


def run(config: mc.SimConfig) -> dict:
    """Aggregates of all replications, block by block, from the engine's draws."""
    tables = mc.MODELS[config.example].tables(np.arange(config.start_n, config.n_max + 1))
    parts = [
        aggregate(config, tables, *sparse_counts(config, tables, lo // BLOCK_SIZE, hi - lo))
        for lo, hi in block_bounds(0, config.replications)
    ]
    return {
        "cells": functools.reduce(_add_cells, (p["cells"] for p in parts)),
        "window_max": np.concatenate([p["window_max"] for p in parts]),
        "suffix_max": np.concatenate([p["suffix_max"] for p in parts], axis=1),
        "win_hits": sum(p["win_hits"] for p in parts),
    }


def sup_hits(dense: dict, thresholds) -> np.ndarray:
    """[threshold, n0]: the trajectories whose sup over n >= n0 of |F_n| exceeds it."""
    return np.array([(dense["suffix_max"] > t).sum(axis=1) for t in thresholds])


def hurdle_pmf(q: np.ndarray, rate: np.ndarray, k_max: int = 40) -> np.ndarray:
    """[row, k]: P(C = k), k = 0..k_max, for a count that is nonzero with
    probability q and then zero-truncated Poisson(rate), rate 0 being the
    point mass at 1; the mass above k_max is left out."""
    k = np.arange(1, k_max + 1)
    powers = np.cumprod(rate[:, None] / k, axis=1)  # rate^k / k!
    ztp = np.where(rate[:, None] > 0, powers / np.expm1(np.where(rate > 0, rate, 1.0))[:, None],
                   k == 1)
    return np.column_stack([1.0 - q, q[:, None] * ztp])


def cell_law(tables, y_top: int = 3, c_top: int = 4) -> np.ndarray:
    """[row, y, c]: P(Y_2n = y) P(C_2n+1 = c), with y = y_top and c = c_top
    standing for the counts at or above them; each tail is summed from the
    pmf columns, so that a tail of probability 0 is exactly 0."""
    def binned(pmf, top):
        return np.column_stack([pmf[:, :top], pmf[:, top:].sum(axis=1)])

    p_y = binned(hurdle_pmf(tables.q_even, tables.rate_even), y_top)
    p_c = binned(hurdle_pmf(tables.q_odd, tables.rate_odd), c_top)
    return p_y[:, :, None] * p_c[:, None, :]


def mixed_rates(model: PairModel) -> PairModel:
    """The model with its even rates 0 where n = 0 (mod 3) and its odd rates
    0 at even n: a table that mixes rate-0 and positive rows in either parity."""
    def tables(n_values):
        t = model.tables(n_values)
        return dataclasses.replace(t, rate_even=np.where(n_values % 3 == 0, 0.0, t.rate_even),
                                   rate_odd=np.where(n_values % 2 == 0, 0.0, t.rate_odd))

    return dataclasses.replace(model, tables=tables)


def suffix_sup_law(tables, t: float) -> np.ndarray:
    """Per row: the exact P(sup over rows >= it of |F_n| > t), from the pair tables.

    p_n = sum over y and c >= 1 of P(Y_2n = y) P(C_2n+1 = c) 1{|X_2n c| > t},
    with X_2n from tables.x, the engine's own float expression; the terms are
    independent across n, so the suffix law is 1 - prod(1 - p_n), summed as
    log1p terms.
    """
    rows = np.arange(len(tables.n_values))[:, None, None]
    p_y = hurdle_pmf(tables.q_even, tables.rate_even)
    p_c = hurdle_pmf(tables.q_odd, tables.rate_odd)[:, 1:]
    y, c = np.arange(p_y.shape[1])[:, None], np.arange(1, p_c.shape[1] + 1)
    above = np.abs(tables.x(rows, y) * c) > t  # [row, y, c]
    p = np.einsum("ry,rc,ryc->r", p_y, p_c, above)
    return 0.0 - np.expm1(np.cumsum(np.log1p(-p)[::-1])[::-1])  # 0.0, not -0.0, where none
