"""Chaos projections of one paired-Poisson term from its two counts.

The n-th term depends on the process only through the counts N(A_2n) and
N(A_2n+1) of two disjoint intervals, independent Poisson variables with the
intensities as means; those two counts fix its whole chaos expansion.
`realize` draws the two counts by inversion of the cumulative pmf.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import streams
from .poisson_moments import check_rate
from .poisson_pair import intensity

# Cumulative pmf values are cached per intensity; the table ends where the
# remaining tail mass is far below 2^-53, so one uniform always lands.
_TAIL_CUTOFF = 1e-25


@lru_cache(maxsize=None)
def _poisson_cdf(lam: float) -> np.ndarray:
    check_rate(lam)
    pmf = math.exp(-lam)
    levels = [pmf]
    k = 0
    cap = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    while k < cap:
        k += 1
        pmf *= lam / k
        levels.append(levels[-1] + pmf)
        if k > lam and pmf < _TAIL_CUTOFF:
            break
    return np.array(levels)


def sample_poisson(lam: float, rng: np.random.Generator) -> int:
    """Poisson(lam) count by inversion of the cumulative pmf; one uniform."""
    table = _poisson_cdf(float(lam))
    return int(bisect_right(table, rng.random()))


def poisson_from_uniform(u: np.ndarray, lam: float) -> np.ndarray:
    """Vectorized inversion: count = #{k : cdf(k) <= u}, as in sample_poisson.

    No caller in the package: the tests use it, and perfbench/spans.py
    hooks this name.
    """
    return np.searchsorted(_poisson_cdf(float(lam)), u, side="right")


def realize(n: int, seed: int) -> tuple[int, int]:
    """Draw (N(A_2n), N(A_2n+1)), in that order, from streams.generator(seed)."""
    rng = streams.generator(seed)
    y_even = sample_poisson(intensity(2 * n), rng)
    return y_even, sample_poisson(intensity(2 * n + 1), rng)


class ChaosParts(NamedTuple):
    """Chaos projections (order0, order1, order2) of one study-sequence term."""

    order0: float
    order1: float
    order2: float

    @property
    def total(self) -> float:
        return self.order0 + self.order1 + self.order2


def decompose_term(n: int, y_even: int, y_odd: int) -> ChaosParts:
    """Chaos projections of the n-th paired term from its two counts.

    order1 integrates coeff1 * 1_{A_2n}, coeff1 = lam_odd/sqrt(lam_even),
    giving coeff1 * (N(A_2n) - lam_even).  order2 integrates the symmetrized
    product kernel on A_2n x A_2n+1, which carries coeff2 =
    1/(2 sqrt(lam_even)) on each of its two orientations, giving
    2 * coeff2 * (N(A_2n) - lam_even) * (N(A_2n+1) - lam_odd).  Their sum
    reproduces the collapsed term X_2n * N(A_2n+1) exactly.
    """
    lam_even = intensity(2 * n)
    lam_odd = intensity(2 * n + 1)
    c_even = float(y_even) - lam_even
    c_odd = float(y_odd) - lam_odd
    coeff1 = lam_odd / math.sqrt(lam_even)
    coeff2 = 0.5 / math.sqrt(lam_even)
    return ChaosParts(0.0, coeff1 * c_even, 2.0 * coeff2 * c_even * c_odd)
