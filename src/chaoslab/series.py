"""Deterministic partial sums and certified tail bounds for the proof series.

Four number series drive the almost-sure arguments: the joint-sign event
series sum n^(-1-1/sqrt(log n)), the fourth-power intensity series
sum n^(-5/4), the cross-intensity series sum n^(-17/16), and the divergent
even-index harmonic series sum 1/n.  Tails of the convergent ones are
certified by the integral test.

A partial sum is taken in fixed chunks of _CHUNK terms, each reduced by
numpy's pairwise sum, and the chunk sums are joined by math.fsum, which is
exactly rounded: the chunk width alone fixes the bits of the result.  The
chunks are therefore split across the worker processes the Monte Carlo
engine uses too (workers.run_tasks, as many as workers.worker_count
allows), each evaluating its share into one chunk buffer of its own.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BadIndexError, DivergentSeriesError
from .workers import run_tasks, worker_count

_CHUNK = 1 << 20
# Indices are generated _TILE at a time from a ramp: a whole chunk of them
# would be a second chunk buffer per worker.
_TILE = 1 << 14


class Series(Enum):
    TWO_POINT_JOINT = "bc_twopoint"    # sum_{n>=2} n^(-1-1/sqrt(log n))
    INTENSITY_FOURTH = "a_const"       # sum_{n>=1} n^(-5/4)
    INTENSITY_CROSS = "b_const"        # sum_{n>=1} n^(-17/16)
    EVEN_HARMONIC = "harmonic_even"    # sum_{n>=2} 1/n, divergent


START = {
    Series.TWO_POINT_JOINT: 2,
    Series.INTENSITY_FOURTH: 1,
    Series.INTENSITY_CROSS: 1,
    Series.EVEN_HARMONIC: 2,
}

_POWER = {
    Series.INTENSITY_FOURTH: 5.0 / 4.0,
    Series.INTENSITY_CROSS: 17.0 / 16.0,
}

# Depth cap for the limit constants; the integral-test tail at this depth
# is the certified error.
CONSTANT_DEPTH = 10**8


def _evaluate(series: Series, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the terms at the float64 indices x into out, in place; returns out."""
    if series is Series.TWO_POINT_JOINT:
        # n^(-1-1/sqrt(log n)) = exp(-sqrt(log n))/n
        np.log(x, out=out)
        np.sqrt(out, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.divide(out, x, out=out)
    elif series is Series.EVEN_HARMONIC:
        np.divide(1.0, x, out=out)
    else:
        np.power(x, -_POWER[series], out=out)
    return out


def term(series: Series, n) -> np.ndarray | float:
    """Value of the n-th term; accepts scalars or integer arrays."""
    x = np.asarray(n, dtype=np.float64)
    if np.any(x < START[series]):
        raise BadIndexError(f"{series.value} starts at n={START[series]}")
    out = _evaluate(series, x, np.empty_like(x))
    if out.ndim == 0:
        return float(out)
    return out


def _chunk_sums(series: Series, starts: range, n_terms: int) -> list[float]:
    """Pairwise sums of the chunks beginning at starts, evaluated into one buffer."""
    ramp = np.arange(_TILE, dtype=np.float64)
    terms, tile = np.empty(_CHUNK), np.empty(_TILE)
    sums = []
    for lo in starts:
        size = min(_CHUNK, n_terms - lo + 1)
        for off in range(0, size, _TILE):
            width = min(_TILE, size - off)
            x = np.add(ramp[:width], lo + off, out=tile[:width])
            _evaluate(series, x, terms[off:off + width])
        sums.append(float(terms[:size].sum()))
    return sums


def partial_sum(series: Series, n_terms: int) -> float:
    """Sum of terms from the series start through n_terms inclusive.

    The terms are taken in fixed chunks of 2^20 indices (the last one
    shorter); each chunk is reduced by numpy's pairwise summation and the
    chunk sums are combined by math.fsum, an exactly rounded sum.  The
    chunk width therefore fixes the bits of the result, whatever the number
    of workers.  Worker w takes chunks w, w + W, w + 2W, ... and evaluates
    each in place in one chunk buffer of its own.  The float64 indices are
    a ramp plus an integer offset, which is exact below 2^53.
    """
    start = START[series]
    if n_terms < start:
        raise BadIndexError(f"{series.value} starts at n={start}, got N={n_terms}")
    starts = range(start, n_terms + 1, _CHUNK)
    workers = worker_count(len(starts))
    shares = run_tasks(_chunk_sums, [(series, starts[w::workers], n_terms)
                                     for w in range(workers)], workers)
    return math.fsum(x for share in shares for x in share)


def tail_bound(series: Series, n_terms: int) -> float:
    """Certified upper bound on the sum of all terms beyond n_terms.

    Integral test: for n^(-s), the tail is below N^(1-s)/(s-1).  For the
    joint-sign series the substitution u = log x turns the integral into
    int_v^inf exp(-sqrt(u)) du = 2(sqrt(v)+1)exp(-sqrt(v)) at v = log N;
    the integrand x^(-1)exp(-sqrt(log x)) decreases for x >= 3, so the
    bound needs N >= 3.
    """
    if series is Series.EVEN_HARMONIC:
        raise DivergentSeriesError("the even-index harmonic series has no finite tail")
    if series is Series.TWO_POINT_JOINT:
        if n_terms < 3:
            raise BadIndexError("joint-sign tail bound requires N >= 3")
        v = math.log(n_terms)
        return 2.0 * (math.sqrt(v) + 1.0) * math.exp(-math.sqrt(v))
    if n_terms < START[series]:
        raise BadIndexError(f"{series.value} starts at n={START[series]}")
    s = _POWER[series]
    return n_terms ** (1.0 - s) / (s - 1.0)


class ConstantEstimate(NamedTuple):
    """A series limit bracketed as [value, value + error]."""

    value: float
    error: float

    @property
    def upper(self) -> float:
        return self.value + self.error


@lru_cache(maxsize=None)
def limit_constant(series: Series) -> ConstantEstimate:
    """The limit of a convergent series, bracketed by its partial sum at depth
    CONSTANT_DEPTH plus the tail bound there."""
    return ConstantEstimate(partial_sum(series, CONSTANT_DEPTH), tail_bound(series, CONSTANT_DEPTH))


def scan_partial_exceeds(series: Series, threshold: float, n_cap: int = 2**40) -> int:
    """Smallest doubling depth whose partial sum exceeds the threshold."""
    n = max(START[series], 2)
    while n <= n_cap:
        if partial_sum(series, n) > threshold:
            return n
        n *= 2
    raise BadIndexError(
        f"partial sums of {series.value} stayed <= {threshold} up to N={n_cap}"
    )
