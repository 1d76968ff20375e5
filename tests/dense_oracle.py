"""Dense reference sampler and aggregator for checking the sparse engine.

The dense sampler draws one uniform per (trajectory, variable) from its own
stream keyed by (master seed, variable index, block), then inverts it per
row: the engine's sampler before it drew only the nonzero counts.  The
aggregator reduces full [n, trajectory] count matrices to the engine's
per-n sums and window hit counts, and to each trajectory's suprema of |F_n|
over n >= n0, from which sup_hits gives the engine's sup-exceedance counts,
with plain dense numpy operations.
"""

from __future__ import annotations

import numpy as np

from chaoslab import mc
from chaoslab.streams import BLOCK_SIZE, block_bounds
from chaoslab.variables import poisson_from_uniform


def uniform_block(master_seed: int, var_index: int, block: int, size: int) -> np.ndarray:
    """The `size` uniforms of one variable in one trajectory block."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(var_index, block))
    return np.random.Generator(np.random.Philox(ss)).random(size)


def draw_twopoint(tables, row: int, u_even: np.ndarray, u_odd: np.ndarray):
    """Indicators of the +1 signs of Y_2n and Y_2n+1."""
    plus_even, plus_odd = u_even < tables.q_even[row], u_odd < tables.q_odd[row]
    return plus_even.astype(np.int64), plus_odd.astype(np.int64)


def draw_poisson(tables, row: int, u_even: np.ndarray, u_odd: np.ndarray):
    """The Poisson counts Y_2n and Y_2n+1, by inversion."""
    return (poisson_from_uniform(u_even, tables.rate_even[row]),
            poisson_from_uniform(u_odd, tables.rate_odd[row]))


DRAWS = {"twopoint": draw_twopoint, "poisson": draw_poisson}


def dense_counts(config: mc.SimConfig, tables, block: int, width: int):
    """[n, trajectory] even and odd counts of one block from the dense streams."""
    rows = len(tables.n_values)
    y_even = np.zeros((rows, width), dtype=np.int64)
    c_odd = np.zeros((rows, width), dtype=np.int64)
    for row, n in enumerate(tables.n_values):
        u_even = uniform_block(config.master_seed, 2 * int(n), block, width)
        u_odd = uniform_block(config.master_seed, 2 * int(n) + 1, block, width)
        y_even[row], c_odd[row] = DRAWS[config.example](tables, row, u_even, u_odd)
    return y_even, c_odd


def sparse_counts(config: mc.SimConfig, tables, block: int, width: int):
    """The same matrices filled from the sparse engine's draws of the block."""
    rows = len(tables.n_values)
    y_even = np.zeros((rows, width), dtype=np.int64)
    c_odd = np.zeros((rows, width), dtype=np.int64)
    for j0, _, even, odd in mc.sparse_draws(tables, config.master_seed, block, width):
        y_even[j0 + even.rows, even.pos] = even.counts()
        c_odd[j0 + odd.rows, odd.pos] = odd.counts()
    return y_even, c_odd


def aggregate(config: mc.SimConfig, tables, y_even: np.ndarray, c_odd: np.ndarray) -> dict:
    """The engine's aggregates of one block, computed densely."""
    start = config.start_n
    x = (y_even - tables.x_loc[:, None]) / tables.x_scale[:, None]
    f = x * c_odd
    a52 = np.abs(f) ** 2.5
    per_n = {
        "x_even": x.sum(axis=1), "x_even_sq": (x * x).sum(axis=1),
        "f": f.sum(axis=1), "f_sq": (f * f).sum(axis=1), "f_quad": (f**4).sum(axis=1),
        "f_abs52": a52.sum(axis=1), "f_abs5": (a52 * a52).sum(axis=1),
        "events": (y_even == 1).sum(axis=1).astype(np.float64),
    }
    grid = mc.default_diagnostic_grid(start, config.n_max)
    windows = mc.dyadic_windows(config.n_max)
    event = y_even == 1
    abs_f = np.abs(f)
    return {
        "sums": per_n,
        "window_max": abs_f.max(axis=0),
        # [n0 in (start_n, *grid), trajectory]: sup over n >= n0 of |F_n|
        "suffix_max": np.array([abs_f[n0 - start :].max(axis=0) for n0 in (start, *grid)]),
        "win_hits": np.array([
            event[lo - start : hi - start].any(axis=0).sum() for lo, hi in windows
        ], dtype=np.int64),
    }


def run(config: mc.SimConfig, counts=dense_counts) -> dict:
    """Aggregates of all replications, block by block, from `counts`."""
    tables = mc.MODELS[config.example].tables(np.arange(config.start_n, config.n_max + 1))
    parts = [
        aggregate(config, tables, *counts(config, tables, lo // BLOCK_SIZE, hi - lo))
        for lo, hi in block_bounds(0, config.replications)
    ]
    return {
        "sums": {k: sum(p["sums"][k] for p in parts) for k in mc.STAT_NAMES},
        "window_max": np.concatenate([p["window_max"] for p in parts]),
        "suffix_max": np.concatenate([p["suffix_max"] for p in parts], axis=1),
        "win_hits": sum(p["win_hits"] for p in parts),
    }


def sup_hits(dense: dict, thresholds) -> np.ndarray:
    """[threshold, n0]: the trajectories whose sup over n >= n0 of |F_n| exceeds it."""
    return np.array([(dense["suffix_max"] > t).sum(axis=1) for t in thresholds])
