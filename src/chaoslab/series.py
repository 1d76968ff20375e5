"""Deterministic partial sums and certified tail bounds for the proof series.

Four number series drive the almost-sure arguments: the joint-sign event
series sum n^(-1-1/sqrt(log n)), the fourth-power intensity series
sum n^(-5/4), the cross-intensity series sum n^(-17/16), and the divergent
even-index harmonic series sum 1/n.  The integral test certifies the tails
of the convergent ones; Euler-Maclaurin, the limits zeta(5/4) and zeta(17/16).

A partial sum is taken in fixed chunks of _CHUNK terms, each reduced by
numpy's pairwise sum, and the chunk sums are joined by math.fsum, which is
exactly rounded: the chunk width alone fixes the bits of the result.
numpy loads in the three functions that take arrays, so the names of the
series cost no numpy import.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import BadIndexError, ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 20
MAX_TERMS = 10**10  # largest n_terms of a partial sum: about a minute, and far below 2^53
# Indices come _TILE at a time from a ramp: a chunk of them would be a second buffer.
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

# The Euler-Maclaurin cut of limit_constant, and B_2, ..., B_14 (DLMF Table 24.2.1).
_EM_CUT = 10
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6))


def _evaluate(series: Series, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the terms at the float64 indices x into out, in place; returns out."""
    import numpy as np

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
    import numpy as np

    x = np.asarray(n, dtype=np.float64)
    if np.any(x < START[series]):
        raise BadIndexError(f"{series.value} starts at n={START[series]}")
    out = _evaluate(series, x, np.empty_like(x))
    return out[()]


def partial_sum(series: Series, n_terms: int) -> float:
    """Sum of terms from the series start through n_terms inclusive.

    Chunks of 2^20 indices (the last one shorter) are evaluated in place in
    one buffer and reduced by numpy's pairwise sum; math.fsum, exactly
    rounded, adds the chunk sums, so the chunk width fixes the bits.  The
    float64 indices, a ramp plus an integer offset, are exact up to MAX_TERMS.
    """
    import numpy as np

    start = START[series]
    if n_terms < start:
        raise BadIndexError(f"{series.value} starts at n={start}")
    if n_terms > MAX_TERMS:
        raise ResourceLimitError(f"{n_terms} terms exceed the budget MAX_TERMS={MAX_TERMS}")
    ramp = np.arange(_TILE, dtype=np.float64)
    terms, tile = np.empty(_CHUNK), np.empty(_TILE)
    sums = []
    for lo in range(start, n_terms + 1, _CHUNK):
        size = min(_CHUNK, n_terms - lo + 1)
        for off in range(0, size, _TILE):
            width = min(_TILE, size - off)
            x = np.add(ramp[:width], lo + off, out=tile[:width])
            _evaluate(series, x, terms[off:off + width])
        sums.append(float(terms[:size].sum()))
    return math.fsum(sums)


def tail_bound(series: Series, n_terms: int) -> float:
    """Certified upper bound on the sum of all terms beyond n_terms.

    Integral test: for n^(-s), the tail is below N^(1-s)/(s-1).  For the
    joint-sign series the substitution u = log x turns the integral into
    int_v^inf exp(-sqrt(u)) du = 2(sqrt(v)+1)exp(-sqrt(v)) at v = log N;
    the integrand x^(-1)exp(-sqrt(log x)) decreases for x >= 3, so the
    bound needs N >= 3.
    """
    if series is Series.EVEN_HARMONIC:
        raise BadIndexError("the even-index harmonic series has no finite tail")
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


def limit_constant(series: Series) -> ConstantEstimate:
    """zeta(s) for the power series sum n^(-s), in a bracket that contains it.

    Euler-Maclaurin at N = _EM_CUT (DLMF §2.10(i); for zeta, §25.2): math.fsum
    adds n^(-s) for n < N, N^(1-s)/(s-1), N^(-s)/2 and, for k = 1..6, the
    corrections B_2k/(2k)! s(s+1)...(s+2k-2) N^(1-s-2k).  Every derivative of
    x^(-s) has constant sign, so the remainder lies between 0 and the k = 7
    correction.  A term takes one pow (glibc: within 1 ulp), one correctly
    rounded integer division and a product; 2^-46 of the terms' absolute sum,
    on both ends, covers these roundings.
    """
    s = _POWER[series]
    p, q = s.as_integer_ratio()  # s = p/q exactly
    scale = _EM_CUT ** -s
    terms = [n ** -s for n in range(1, _EM_CUT)]
    terms += [scale * (_EM_CUT * q / (p - q)), scale / 2.0]
    for k, (num, den) in enumerate(_BERNOULLI, 1):
        rising = math.prod(p + j * q for j in range(2 * k - 1))  # q^(2k-1) s(s+1)...(s+2k-2)
        coef = num * rising / (den * math.factorial(2 * k) * (q * _EM_CUT) ** (2 * k - 1))
        terms.append(scale * coef)
    omitted = terms.pop()  # B_14 > 0, so the remainder lies in [0, omitted]
    total, rounding = math.fsum(terms), 2.0**-46 * math.fsum(map(abs, terms))
    return ConstantEstimate(total - rounding, omitted + 2.0 * rounding)


def scan_partial_exceeds(series: Series, threshold: float, n_cap: int = MAX_TERMS) -> int:
    """Smallest doubling depth whose partial sum exceeds the threshold."""
    n = max(START[series], 2)
    while n <= n_cap:
        if partial_sum(series, n) > threshold:
            return n
        n *= 2
    raise BadIndexError(
        f"partial sums of {series.value} stayed <= {threshold} up to N={n_cap}"
    )
