"""Unit-rate Poisson process on the half-line, realized as interval counts.

Consecutive intervals A_k of prescribed lengths tile [0, infinity); the
counts N(A_k) are independent Poisson variables with the lengths as means,
which is all that product-kernel integrals of order one and two need.
Point locations inside intervals are never materialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import streams
from .errors import BadIndexError, DiagonalPairError, NonPositiveLengthError
from .poisson_pair import intensity
from .variables import poisson_from_uniform  # noqa: F401  perfbench/spans.py hooks this name
from .variables import sample_poisson


@dataclass(frozen=True)
class IntervalLayout:
    """Half-open intervals A_k = (boundaries[i], boundaries[i+1]], k = start_index + i."""

    lengths: np.ndarray
    boundaries: np.ndarray
    start_index: int = 1

    def position(self, k: int) -> int:
        pos = k - self.start_index
        if pos < 0 or pos >= len(self.lengths):
            raise BadIndexError(
                f"interval index {k} outside [{self.start_index}, "
                f"{self.start_index + len(self.lengths) - 1}]"
            )
        return pos

    def length_of(self, k: int) -> float:
        return float(self.lengths[self.position(k)])


def build_layout(lengths: Sequence[float] | np.ndarray, start_index: int = 1) -> IntervalLayout:
    """Lay out consecutive intervals with the given lengths.

    Boundaries are the running prefix sums starting at 0.
    """
    arr = np.array(lengths, dtype=np.float64)
    if arr.size == 0:
        raise NonPositiveLengthError("layout needs at least one interval")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise NonPositiveLengthError("interval lengths must be positive and finite")
    boundaries = np.concatenate([[0.0], np.cumsum(arr)])
    return IntervalLayout(lengths=arr, boundaries=boundaries, start_index=start_index)


def example_layout(n_max: int) -> IntervalLayout:
    """Layout carrying the paired-Poisson intensities for indices 2..2*n_max+1."""
    ks = np.arange(2, 2 * n_max + 2)
    return build_layout(intensity(ks), start_index=2)


@dataclass(frozen=True)
class PpRealization:
    """Counts of one process realization, one entry per layout interval."""

    counts: np.ndarray
    layout: IntervalLayout
    seed: int | None = None


def realize(layout: IntervalLayout, rng: np.random.Generator | int) -> PpRealization:
    """Draw independent Poisson counts, one per interval.

    Complete independence of the process over disjoint sets justifies
    sampling the counts directly.  An integer is accepted in place of a
    generator and recorded as seed provenance.
    """
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = streams.generator(seed)
    counts = np.array(
        [sample_poisson(lam, rng) for lam in layout.lengths], dtype=np.int64
    )
    return PpRealization(counts=counts, layout=layout, seed=seed)


def linear_integral(
    layout: IntervalLayout, realization: PpRealization, k: int, coeff: float
) -> float:
    """Order-one integral of coeff * 1_{A_k}: coeff * (N(A_k) - length)."""
    pos = layout.position(k)
    return coeff * (float(realization.counts[pos]) - float(layout.lengths[pos]))


def product_integral(
    layout: IntervalLayout,
    realization: PpRealization,
    pair: tuple[int, int],
    coeff: float,
) -> float:
    """Order-two integral of the symmetrized product kernel on A_m x A_n.

    The kernel carries `coeff` on each of the two orientations, so the
    value is 2 * coeff * (N(A_m) - len_m)(N(A_n) - len_n).
    """
    m, n = pair
    if m == n:
        raise DiagonalPairError("product integral needs two distinct intervals")
    pm, pn = layout.position(m), layout.position(n)
    centered_m = float(realization.counts[pm]) - float(layout.lengths[pm])
    centered_n = float(realization.counts[pn]) - float(layout.lengths[pn])
    return 2.0 * coeff * centered_m * centered_n


class ChaosParts(NamedTuple):
    """Chaos projections (order0, order1, order2) of one study-sequence term."""

    order0: float
    order1: float
    order2: float

    @property
    def total(self) -> float:
        return self.order0 + self.order1 + self.order2


def decompose_term(n: int, realization: PpRealization) -> ChaosParts:
    """Chaos projections of the n-th paired term from interval counts.

    order1 integrates (len_odd/sqrt(len_even)) 1_{A_2n}; order2 integrates
    the symmetrized product kernel with per-orientation coefficient
    1/(2 sqrt(len_even)).  Their sum reproduces the collapsed term
    X_2n * N(A_2n+1) exactly.
    """
    layout = realization.layout
    lam_even = layout.length_of(2 * n)
    lam_odd = layout.length_of(2 * n + 1)
    order1 = linear_integral(
        layout, realization, 2 * n, lam_odd / math.sqrt(lam_even)
    )
    order2 = product_integral(
        layout, realization, (2 * n, 2 * n + 1), 0.5 / math.sqrt(lam_even)
    )
    return ChaosParts(0.0, order1, order2)
