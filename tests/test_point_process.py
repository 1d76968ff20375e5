import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from chaoslab import streams
from chaoslab.errors import BadIndexError
from chaoslab.point_process import (
    ChaosParts,
    _poisson_cdf,
    decompose_term,
    poisson_from_uniform,
    realize,
    sample_poisson,
)
from chaoslab.poisson_pair import intensity, term


class QueuedRng:
    """Stand-in generator feeding a preset uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def batch_counts(lengths, rng, size: int) -> np.ndarray:
    """Counts of `size` realizations, shape (size, len(lengths)): column i takes
    one uniform per realization, in interval order."""
    return np.column_stack([poisson_from_uniform(rng.random(size), lam) for lam in lengths])


def test_poisson_spec_validation():
    with pytest.raises(BadIndexError, match="outside the supported range"):
        sample_poisson(-1.0, streams.generator(0, 0))
    with pytest.raises(BadIndexError, match="outside the supported range"):
        sample_poisson(1e12, streams.generator(0, 0))  # O(rate) table is capped
    for lam in (800.0, 1000.0):  # exp(-lam) would underflow the cdf table
        with pytest.raises(BadIndexError, match="outside the supported range"):
            sample_poisson(lam, streams.generator(0, 0))
        with pytest.raises(BadIndexError, match="outside the supported range"):
            poisson_from_uniform(np.array([0.5]), lam)
    assert list(poisson_from_uniform(np.array([0.1, 0.5, 0.9]), 700.0)) == [666, 700, 734]


def test_sample_poisson_matches_vector_inversion():
    rng = streams.generator(7, 2)
    u = rng.random(500)
    vec = poisson_from_uniform(u, 0.7)
    scalar = [sample_poisson(0.7, QueuedRng([ui])) for ui in u]
    assert np.array_equal(vec, scalar)
    assert poisson_from_uniform(np.array([0.0]), 0.7)[0] == 0
    # at u equal to a level of the table, "<=" counts that level
    levels = _poisson_cdf(0.7)[:6]
    at_levels = [sample_poisson(0.7, QueuedRng([level])) for level in levels]
    assert np.array_equal(poisson_from_uniform(levels, 0.7), at_levels)
    assert at_levels == list(range(1, 7))


@pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
def test_poisson_chi_square_fit(lam):
    reps = 100_000
    u = streams.generator(90210, int(lam * 100)).random(reps)
    counts = poisson_from_uniform(u, lam)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 2).astype(float)
    expected = reps * scipy.stats.poisson.pmf(np.arange(kmax + 2), lam)
    expected[-1] = reps * scipy.stats.poisson.sf(kmax, lam)
    # merge sparse tail bins until every expected count is >= 5
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = ((observed - expected) ** 2 / expected).sum()
    pvalue = scipy.stats.chi2.sf(stat, df=len(expected) - 1)
    assert pvalue > 1e-4


def test_poisson_empirical_moments():
    reps = 10**6
    u = streams.generator(5150, 3).random(reps)
    y = poisson_from_uniform(u, 0.5)
    p0 = (y == 0).mean()
    se = math.sqrt(math.exp(-0.5) * (1 - math.exp(-0.5)) / reps)
    assert abs(p0 - math.exp(-0.5)) <= 3 * se

    y = poisson_from_uniform(streams.generator(5150, 4).random(reps), 0.125)
    se = math.sqrt(0.125 / reps)
    assert abs(y.mean() - 0.125) <= 3 * se

    y = poisson_from_uniform(streams.generator(5150, 5).random(reps), 1.0).astype(float)
    y4 = y**4
    se = y4.std(ddof=1) / math.sqrt(reps)
    assert abs(y4.mean() - 15.0) <= 3 * se  # E(Y^4) at rate 1


def test_realize_provenance_and_reproducibility():
    assert realize(5, 123) == realize(5, 123)
    # a seed draws the even count, then the odd one, from a SeedSequence of it
    for n in (1, 5, 10_000):
        for seed in (0, 5, 2**31 - 1, 2**40):
            legacy = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            expected = tuple(sample_poisson(intensity(k), legacy) for k in (2 * n, 2 * n + 1))
            assert realize(n, seed) == expected
            assert all(type(c) is int for c in expected)


def test_interval_counts_match_their_rates_and_are_uncorrelated():
    lengths = list(intensity(np.arange(2, 10)))  # 8 intervals, rates 1..4^(-5/16)
    reps = 100_000
    counts = batch_counts(lengths, streams.generator(31337, 0), reps)
    for i, lam in enumerate(lengths):
        se = math.sqrt(lam / reps)
        assert abs(counts[:, i].mean() - lam) <= 3 * se
    # counts on disjoint intervals are uncorrelated
    a = counts[:, 0] - lengths[0]
    b = counts[:, 1] - lengths[1]
    cov = float((a * b).mean())
    se = math.sqrt(float(lengths[0] * lengths[1]) / reps)
    assert abs(cov) <= 3 * se


def test_linear_integral():
    # order-1: (lam_odd/sqrt(lam_even)) (N(A_2n) - lam_even)
    assert decompose_term(1, 1, 0).order1 == 0.0  # unit rate: count equals the mean
    oracle = intensity(33) * (2 - 0.125) / math.sqrt(0.125)
    assert decompose_term(16, 2, 1).order1 == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(2.2297, abs=1e-3)


def test_product_integral():
    # order-2: (N(A_2n) - lam_even)(N(A_2n+1) - lam_odd)/sqrt(lam_even)
    oracle = (2 - 0.125) * (1 - intensity(33)) / math.sqrt(0.125)
    assert decompose_term(16, 2, 1).order2 == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(3.0735, abs=1e-3)


def test_decompose_examples():
    parts = decompose_term(16, 2, 1)
    assert isinstance(parts, ChaosParts)
    assert parts.order0 == 0.0
    assert parts.order1 == pytest.approx(2.2297, abs=1e-3)
    assert parts.order2 == pytest.approx(3.0735, abs=1e-3)
    f = term(16, 2, 1)
    assert f == pytest.approx(5.3033, abs=1e-4)
    assert parts.total == pytest.approx(f, rel=1e-12)

    # zero odd count: order-2 cancels order-1 and the term vanishes
    parts = decompose_term(16, 5, 0)
    assert abs(parts.order1 + parts.order2) <= 1e-12 * max(1.0, abs(parts.order1))
    assert abs(parts.total) <= 1e-12 * max(1.0, abs(parts.order1))

    assert decompose_term(1, 1, 0) == (0.0, 0.0, 0.0)
    # vanishing factor: unit rate with even count one
    assert decompose_term(1, 1, 3).order2 == 0.0


@given(st.integers(1, 10_000), st.integers(0, 50), st.integers(0, 50))
def test_decompose_reproduces_term(n, ye, yo):
    parts = decompose_term(n, ye, yo)
    f = term(n, ye, yo)
    assert abs(parts.total - f) <= 1e-10 * max(1.0, abs(f))


def test_chaos_component_moments_mc():
    n = 16
    lam_e, lam_o = intensity(32), intensity(33)
    reps = 10**6
    counts = batch_counts([lam_e, lam_o], streams.generator(2718, 0), reps)
    x_e = (counts[:, 0] - lam_e) / math.sqrt(lam_e)
    x_o = (counts[:, 1] - lam_o) / math.sqrt(lam_o)
    j1 = lam_o * x_e
    j2 = math.sqrt(lam_o) * x_e * x_o
    # the vectorized forms agree with the module integrals
    for row in range(25):
        parts = decompose_term(n, int(counts[row, 0]), int(counts[row, 1]))
        assert j1[row] == pytest.approx(parts.order1, rel=1e-12, abs=1e-12)
        assert j2[row] == pytest.approx(parts.order2, rel=1e-12, abs=1e-12)
    # orthogonality of the two chaos orders
    prod = j1 * j2
    se = prod.std(ddof=1) / math.sqrt(reps)
    assert abs(prod.mean()) <= 3 * se
    # second moments: E j1^2 = lam_o^2, E j2^2 = lam_o, E F^2 = lam_o(1+lam_o)
    for z, target in ((j1 * j1, lam_o**2), (j2 * j2, lam_o), ((j1 + j2) ** 2, lam_o * (1 + lam_o))):
        se = z.std(ddof=1) / math.sqrt(reps)
        assert abs(z.mean() - target) <= 3 * se
