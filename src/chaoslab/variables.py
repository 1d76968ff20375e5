"""Normalized two-point and Poisson variables with exact first and second moments.

Both families are parameterized so that the normalized variable X has
E X = 0 and E X^2 = 1 analytically: the two-point variable by the choice
of its two support points, the Poisson count by centering and scaling.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRangeError
from .poisson_moments import MAX_RATE


@dataclass(frozen=True)
class TwoPointSpec:
    """A +/-1 valued sign variable Y with P(Y=1)=p and its normalization X.

    X takes value_plus on {Y=1} and value_minus on {Y=-1}; the two values
    are sqrt((1-p)/p) and -sqrt(p/(1-p)), which make X mean-zero with unit
    variance for every p in (0,1).
    """

    p: float
    value_plus: float
    value_minus: float


def two_point_from_p(p: float) -> TwoPointSpec:
    if not 0.0 < p < 1.0:
        raise OutOfRangeError(f"two-point probability must lie in (0,1), got {p}")
    return TwoPointSpec(
        p=float(p),
        value_plus=math.sqrt((1.0 - p) / p),
        value_minus=-math.sqrt(p / (1.0 - p)),
    )


def two_point_value(spec: TwoPointSpec, y: int) -> float:
    """Normalized value X for a realized sign y in {-1, +1}."""
    return spec.value_plus if y == 1 else spec.value_minus


# Cumulative pmf values are cached per intensity; the table ends where the
# remaining tail mass is far below 2^-53, so one uniform always lands.
_TAIL_CUTOFF = 1e-25


@lru_cache(maxsize=None)
def _poisson_cdf(lam: float) -> np.ndarray:
    if not 0.0 < lam <= MAX_RATE:
        raise OutOfRangeError(f"Poisson intensity must lie in (0, {MAX_RATE:g}], got {lam}")
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
    """Vectorized inversion: count = #{k : cdf(k) <= u}, same walk as sample_poisson."""
    table = _poisson_cdf(float(lam))
    u = np.asarray(u)
    y = np.zeros(u.shape, dtype=np.int64)
    for level in table:
        mask = u >= level
        if not mask.any():
            break
        y += mask
    return y


def poisson_normalize(lam: float, y) -> float | np.ndarray:
    """Center and scale a count: (y - lam)/sqrt(lam)."""
    if not lam > 0.0:
        raise OutOfRangeError(f"Poisson intensity must be positive, got {lam}")
    scaled = (np.asarray(y, dtype=np.float64) - lam) / math.sqrt(lam)
    if scaled.ndim == 0:
        return float(scaled)
    return scaled
