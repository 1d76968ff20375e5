import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from chaoslab import streams
from chaoslab.errors import OutOfRangeError
from chaoslab.poisson_moments import abs_central_moment
from chaoslab.variables import (
    poisson_from_uniform,
    poisson_normalize,
    sample_poisson,
    two_point_from_p,
    two_point_value,
)


class QueuedRng:
    """Stand-in generator feeding a preset uniform sequence."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)


def test_two_point_examples():
    spec = two_point_from_p(0.5)
    assert (spec.value_plus, spec.value_minus) == (1.0, -1.0)
    spec = two_point_from_p(0.2)
    assert spec.value_plus == pytest.approx(2.0, rel=1e-15)
    assert spec.value_minus == pytest.approx(-0.5, rel=1e-15)
    # two-outcome enumeration: mean 0, variance 1
    assert 0.2 * 4.0 + 0.8 * 0.25 == pytest.approx(1.0, rel=1e-15)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(OutOfRangeError):
            two_point_from_p(bad)


@given(st.floats(1e-9, 1 - 1e-9))
def test_two_point_moments(p):
    spec = two_point_from_p(p)
    mean = p * spec.value_plus + (1 - p) * spec.value_minus
    var = p * spec.value_plus**2 + (1 - p) * spec.value_minus**2
    assert abs(mean) <= 1e-12
    assert abs(var - 1.0) <= 1e-12


def test_two_point_value_branches():
    spec3 = two_point_from_p(0.3)
    assert two_point_value(spec3, 1) == spec3.value_plus
    assert two_point_value(spec3, -1) == spec3.value_minus


def test_two_point_empirical_mean():
    p = 0.3
    spec = two_point_from_p(p)
    reps = 10**6
    u = streams.generator(2024, 1).random(reps)
    x = np.where(u < p, spec.value_plus, spec.value_minus)
    stderr = 1.0 / math.sqrt(reps)  # exact variance is 1
    assert abs(x.mean()) <= 3 * stderr


def test_poisson_spec_validation():
    with pytest.raises(OutOfRangeError):
        sample_poisson(-1.0, streams.generator(0, 0))
    with pytest.raises(OutOfRangeError):
        sample_poisson(1e12, streams.generator(0, 0))  # O(rate) table is capped
    for lam in (800.0, 1000.0):  # exp(-lam) would underflow the cdf table
        with pytest.raises(OutOfRangeError):
            sample_poisson(lam, streams.generator(0, 0))
        with pytest.raises(OutOfRangeError):
            poisson_from_uniform(np.array([0.5]), lam)
    assert list(poisson_from_uniform(np.array([0.1, 0.5, 0.9]), 700.0)) == [666, 700, 734]


def test_sample_poisson_matches_vector_inversion():
    rng = streams.generator(7, 2)
    u = rng.random(500)
    vec = poisson_from_uniform(u, 0.7)
    scalar = [sample_poisson(0.7, QueuedRng([ui])) for ui in u]
    assert np.array_equal(vec, scalar)
    assert poisson_from_uniform(np.array([0.0]), 0.7)[0] == 0


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


def test_poisson_normalize_examples():
    assert poisson_normalize(1.0, 1) == 0.0
    assert poisson_normalize(0.125, 2) == pytest.approx(1.875 / math.sqrt(0.125), rel=1e-15)
    assert poisson_normalize(0.4204, 0) == pytest.approx(-math.sqrt(0.4204), rel=1e-15)
    arr = poisson_normalize(0.25, np.array([0, 1, 2]))
    assert arr == pytest.approx((np.array([0, 1, 2]) - 0.25) / 0.5)
    with pytest.raises(OutOfRangeError):
        poisson_normalize(0.0, 1)


@pytest.mark.parametrize("lam", [0.05, 0.125, 0.5, 1.0])
def test_normalized_moments_algebra(lam):
    # E X = (E Y - lam)/sqrt(lam) = 0 exactly; E X^2 = Var(Y)/lam = 1
    assert poisson_normalize(lam, lam) == 0.0
    var = abs_central_moment(lam, 2.0).value
    assert var / lam == pytest.approx(1.0, abs=1e-10)
