"""Deterministic random streams keyed by (master seed, parity, block).

Trajectory ``r`` lives in block ``r // BLOCK_SIZE`` at offset
``r % BLOCK_SIZE``.  The Monte Carlo engine draws a block from two
counter-based Philox streams, one for the even variables Y_2n (parity 0)
and one for the odd variables Y_2n+1 (parity 1), keyed directly by
``(master seed, 2 * block + parity)`` without a SeedSequence.  Each stream
is consumed in ascending n, chunk by chunk.  Per chunk the even stream
gives, in this order: the positions of the nonzero counts, by geometric
skipping over the trajectories of each row; for Poisson counts, which of
them are at least 2, by skipping over each row's nonzero counts; and one
uniform per count of at least 2, inverted on its law given C >= 2.  The
odd stream gives: one uniform per nonzero even count, in ascending (row,
trajectory), the odd count there being at least 1 when it is below
P(C >= 1) and at least 2 when it is below P(C >= 2); for Poisson counts,
one uniform per such count of at least 2, inverted on its law given
C >= 2; then, where Y_2n = 0, the positions of the placed counts, by
skipping over all the slots of a row with P(C >= 1) in a placed row and
P(C >= 3) in the others (a row whose probability is 0 draws nothing),
dropping those on a nonzero even count; for Poisson counts one uniform
for each, inverted on its law given C >= 1 or C >= 3; then one numpy
binomial per row, the number of the other counts of 1 in the row's free
slots, with P(C = 1 | C <= 2); and for Poisson counts one more, the number
of counts of 2 in the slots left, with P(C = 2 | C in {0, 2}).  Placed
rows draw binomials over no slots, which take no draws.  A row is placed
when its largest unplaced F_n, b_n for two-point and 2 b_n for Poisson
counts, exceeds min(thresholds) in size, b_n = -x_loc / x_scale being
F_n at Y_2n = 0, C_2n+1 = 1 (see mc.sparse_draws).  The draws of a block
are therefore a function of the seed, the construction, n_max, the
smallest threshold, the block and its width, never of the worker count or
of how the replications are split along block boundaries; a full block's
draws do not depend on the total replication count.

LAYOUT_VERSION names this layout and changes whenever the same seed would
give different draws.  Version 1 gave every (variable index, block) pair
its own stream and one uniform per trajectory; version 2 drew the
positions, then one uniform for every nonzero Poisson count; version 3
placed every nonzero odd count; version 4 placed the odd counts of at
least 2 by skipping and counted the 1s where Y_2n = 0 per row, drawing
one uniform per nonzero even count for the 1s beside it.  Version 5
gives the same two-point draws as version 4 where no row is placed.
"""

from __future__ import annotations

import numpy as np

LAYOUT_VERSION = 5
BLOCK_SIZE = 1 << 14


def block_bounds(lo: int, hi: int) -> list[tuple[int, int]]:
    """Split the trajectory range [lo, hi) along the fixed block grid."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad trajectory range [{lo}, {hi})")
    cuts = sorted({lo, hi, *range((lo // BLOCK_SIZE + 1) * BLOCK_SIZE, hi, BLOCK_SIZE)})
    return list(zip(cuts, cuts[1:]))


def generator(master_seed: int, *key: int) -> np.random.Generator:
    """Philox generator for an arbitrary spawn key under the master seed.

    For seeded draws outside the engine, such as the two counts of
    ``decompose --seed`` and the tests' reference samples.
    """
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def block_stream(master_seed: int, parity: int, block: int) -> np.random.Generator:
    """The engine's Philox stream for one parity of one block; master_seed < 2**64."""
    return np.random.Generator(np.random.Philox(key=master_seed | (2 * block + parity) << 64))


def uniform_block(stream: np.random.Generator, size: int) -> np.ndarray:
    """The next `size` uniforms of a block stream; the engine draws every
    variate through here except its per-row binomials."""
    return stream.random(size)
