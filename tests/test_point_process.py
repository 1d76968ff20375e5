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


def test_poisson_spec_validation():
    with pytest.raises(BadIndexError, match="outside the supported range"):
        sample_poisson(-1.0, streams.generator(0))
    with pytest.raises(BadIndexError, match="outside the supported range"):
        sample_poisson(1e12, streams.generator(0))  # O(rate) table is capped
    for lam in (800.0, 1000.0):  # exp(-lam) would underflow the cdf table
        with pytest.raises(BadIndexError, match="outside the supported range"):
            sample_poisson(lam, streams.generator(0))
        with pytest.raises(BadIndexError, match="outside the supported range"):
            poisson_from_uniform(np.array([0.5]), lam)
    assert list(poisson_from_uniform(np.array([0.1, 0.5, 0.9]), 700.0)) == [666, 700, 734]


def test_sample_poisson_matches_vector_inversion():
    # sample_poisson inverts one uniform as poisson_from_uniform does an array:
    # count = #{k : cdf(k) <= u}, so u = 0 gives 0 and a level of the table
    # counts that level
    assert poisson_from_uniform(np.array([0.0]), 0.7)[0] == 0
    levels = _poisson_cdf(0.7)[:6]
    at_levels = [sample_poisson(0.7, QueuedRng([level])) for level in levels]
    assert np.array_equal(poisson_from_uniform(levels, 0.7), at_levels)
    assert at_levels == list(range(1, 7))


@pytest.mark.parametrize("lam", [0.05, 0.5, 1.0, 700.0])
def test_inversion_table_is_the_poisson_cdf(lam):
    # the table both inversions search is the Poisson cdf, and it ends where
    # the tail is below one ulp of 1, so the sampled law is the Poisson law
    table = _poisson_cdf(lam)
    np.testing.assert_allclose(table, scipy.stats.poisson.cdf(np.arange(table.size), lam),
                               rtol=1e-12, atol=1e-15)
    assert scipy.stats.poisson.sf(table.size - 1, lam) < 2.0**-53


@pytest.mark.parametrize("lam", [0.05, 0.5, 1.0])
def test_inversion_maps_a_uniform_grid_to_the_poisson_pmf(lam):
    # the whole map u -> count, not only its table: of the 2^20 midpoints
    # (i + 1/2) / 2^20 of [0, 1), those sent to k are within one of
    # 2^20 pmf(k), for every k, and the counts rise with u
    size = 2**20
    counts = poisson_from_uniform((np.arange(size) + 0.5) / size, lam)
    assert np.all(np.diff(counts) >= 0)
    observed = np.bincount(counts)
    expected = size * scipy.stats.poisson.pmf(np.arange(observed.size), lam)
    assert np.abs(observed - expected).max() <= 1.0
    assert size * scipy.stats.poisson.sf(observed.size - 1, lam) < 1.0


def test_realize_provenance_and_reproducibility():
    assert realize(5, 123) == realize(5, 123)
    # a seed draws the even count, then the odd one, from a SeedSequence of it
    for n in (1, 5, 10_000):
        for seed in (0, 5, 2**31 - 1, 2**40):
            legacy = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
            expected = tuple(sample_poisson(intensity(k), legacy) for k in (2 * n, 2 * n + 1))
            assert realize(n, seed) == expected
            assert all(type(c) is int for c in expected)


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


@pytest.mark.parametrize("n", [1, 2, 16, 10_000])
def test_chaos_components_are_orthogonal_by_enumeration(n):
    # E[j1 j2] = 0, E[j1^2] = lam_o^2, E[j2^2] = lam_o and so E F^2 =
    # lam_o (1 + lam_o) for the two parts of decompose_term, summed over both
    # counts up to 40 under scipy's pmf; with both rates at most 1 the mass
    # left out is below 1e-47
    k = np.arange(41)
    lam_e, lam_o = intensity(2 * n), intensity(2 * n + 1)
    w = scipy.stats.poisson.pmf(k, lam_e)[:, None] * scipy.stats.poisson.pmf(k, lam_o)
    parts = np.array([[decompose_term(n, a, b)[1:] for b in k.tolist()] for a in k.tolist()])
    j1, j2 = parts[..., 0], parts[..., 1]
    assert abs((w * j1 * j2).sum()) <= 1e-12
    assert (w * j1 * j1).sum() == pytest.approx(lam_o**2, rel=1e-12)
    assert (w * j2 * j2).sum() == pytest.approx(lam_o, rel=1e-12)
    assert (w * (j1 + j2) ** 2).sum() == pytest.approx(lam_o * (1 + lam_o), rel=1e-12)
