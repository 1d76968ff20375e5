"""Exact and certified-truncation Poisson moment and tail computations.

Series over the Poisson pmf are truncated only once the discarded tail is
provably below a target, using a geometric majorant: beyond the truncation
point the term ratio is at most 1/2, so the tail is bounded by twice the
first discarded majorant term.  Results carry that bound explicitly.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .errors import BadIndexError

_EPS = sys.float_info.epsilon
# Largest intensity whose first pmf term exp(-lam) is a normal double; above
# it every pmf recurrence here and in point_process starts from an
# underflowed term.
MAX_RATE = 700.0


class CertifiedValue(NamedTuple):
    """A truncated-series value plus a proven bound on the discarded tail."""

    value: float
    remainder_bound: float


def check_rate(lam: float) -> None:
    """Raise BadIndexError unless 0 < lam <= MAX_RATE."""
    if not 0.0 < lam <= MAX_RATE:
        raise BadIndexError(f"intensity {lam:g} outside the supported range (0, {MAX_RATE:g}]")


def tail_factorial_bound(lam: float, j: int) -> float:
    """The factorial tail bound lam^(j+1)/(j+1)! for P(Y > j)."""
    if j < 0:
        raise BadIndexError(f"j must be a nonnegative integer, got {j}")
    try:
        return lam ** (j + 1) / math.factorial(j + 1)
    except OverflowError:
        # lam^(j+1) overflowed; go through logs, underflow to 0 is fine.
        return math.exp((j + 1) * math.log(lam) - math.lgamma(j + 2))


def poisson_tail(lam: float, j: int) -> CertifiedValue:
    """P(Y > j) = 1 - sum_{k<=j} pmf(k), summed in increasing k.

    The summation error is at the rounding level; the certified bound
    covers the pmf recurrence, the compensated sum, and the final
    complement.
    """
    check_rate(lam)
    if j < 0:
        raise BadIndexError(f"j must be a nonnegative integer, got {j}")
    pmf = math.exp(-lam)
    terms = [pmf]
    for k in range(1, j + 1):
        pmf *= lam / k
        terms.append(pmf)
    value = max(0.0, 1.0 - math.fsum(terms))
    return CertifiedValue(value, 4.0 * (j + 2) * _EPS)


def central_moment_4(lam: float) -> float:
    """Fourth central moment of a Poisson count: 3*lam^2 + lam."""
    return 3.0 * lam * lam + lam


def raw_moment_4(lam: float) -> float:
    """Fourth raw moment of a Poisson count: lam^4 + 6 lam^3 + 7 lam^2 + lam."""
    return ((lam + 6.0) * lam + 7.0) * lam * lam + lam


def _truncated_moment(lam: float, q: float, centered: bool) -> CertifiedValue:
    """sum_k w(k) pmf(k) with w(k) = |k-lam|^q or k^q, certified truncation.

    Stops at K once (a) the term ratio of the majorant k^q pmf(k) is <= 1/2
    for every k > K, which holds when exp(q/(K+1))*lam/(K+2) <= 1/2, and
    (b) the geometric tail 2*(K+1)^q*pmf(K+1) is below 1e-13 of the sum.
    |k-lam|^q <= k^q for k >= lam/2, satisfied beyond the floor k >= 3*lam.
    """
    check_rate(lam)
    if q < 1.0:
        raise BadIndexError(f"moment order must be >= 1, got {q}")
    k_floor = max(8, math.ceil(2.0 * q), math.ceil(3.0 * lam))
    pmf = math.exp(-lam)
    terms = [abs(0.0 - lam) ** q * pmf if centered else 0.0]
    k = 0
    running = terms[0]
    while True:
        k += 1
        pmf *= lam / k
        w = abs(k - lam) ** q if centered else float(k) ** q
        terms.append(w * pmf)
        running += terms[-1]
        if k < k_floor:
            continue
        if math.exp(q / (k + 1.0)) * lam / (k + 2.0) > 0.5:
            continue
        geometric = 2.0 * (k + 1.0) ** q * (pmf * lam / (k + 1.0))
        if geometric <= 1e-13 * running or k > 100_000:
            break
    value = math.fsum(terms)
    remainder = geometric + (k + 4.0) * _EPS * max(value, 1.0)
    return CertifiedValue(value, remainder)


def abs_central_moment(lam: float, q: float) -> CertifiedValue:
    """E|Y - lam|^q for Y ~ Poisson(lam), certified truncated series."""
    return _truncated_moment(lam, q, centered=True)


def raw_abs_moment(lam: float, q: float) -> CertifiedValue:
    """E(Y^q) for Y ~ Poisson(lam), certified truncated series."""
    return _truncated_moment(lam, q, centered=False)
