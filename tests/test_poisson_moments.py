import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from chaoslab.errors import BadIndexError
from chaoslab.poisson_moments import (
    abs_central_moment,
    central_moment_4,
    poisson_tail,
    raw_abs_moment,
    raw_moment_4,
    tail_factorial_bound,
)

SLACK = 1e-14
LAM_GRID = [i / 100.0 for i in range(1, 101)]


def series_oracle(lam: float, q: float, centered: bool, kmax: int = 400) -> float:
    """Independent truncated series through scipy's pmf."""
    k = np.arange(kmax + 1)
    w = np.abs(k - lam) ** q if centered else k.astype(float) ** q
    return float((w * scipy.stats.poisson.pmf(k, lam)).sum())


def test_tail_examples():
    cv = poisson_tail(1.0, 0)
    assert cv.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
    assert cv.value <= 1.0  # P(Y > 0) <= rate

    cv = poisson_tail(0.125, 3)
    bound = 0.125**4 / 24.0
    assert bound == pytest.approx(1.017e-5, rel=1e-3)
    assert cv.value == pytest.approx(scipy.stats.poisson.sf(3, 0.125), rel=1e-10)
    assert cv.value <= bound + cv.remainder_bound + SLACK

    # j so large the factorial bound underflows: the tail must still respect it
    cv = poisson_tail(0.5, 400)
    assert tail_factorial_bound(0.5, 400) == 0.0
    assert cv.value <= SLACK


def test_tail_matches_scipy():
    for lam in (0.01, 0.125, 0.5, 1.0, 2.5):
        for j in (0, 1, 3, 10, 20):
            cv = poisson_tail(lam, j)
            sf = scipy.stats.poisson.sf(j, lam)
            assert cv.value == pytest.approx(sf, rel=1e-11, abs=1e-15)
            assert abs(cv.value - sf) <= cv.remainder_bound + 1e-15


def test_tail_validation():
    with pytest.raises(BadIndexError, match="outside the supported range"):
        poisson_tail(0.0, 1)
    with pytest.raises(BadIndexError, match="j must be a nonnegative integer"):
        poisson_tail(1.0, -1)


def test_factorial_tail_bound_grid():
    for lam in LAM_GRID:
        for j in range(21):
            cv = poisson_tail(lam, j)
            assert cv.remainder_bound <= 1e-12
            assert cv.value <= tail_factorial_bound(lam, j) + cv.remainder_bound + SLACK


def test_closed_forms():
    assert central_moment_4(1.0) == 4.0
    assert central_moment_4(0.0) == 0.0
    assert raw_moment_4(1.0) == 15.0
    assert raw_moment_4(0.0) == 0.0
    assert raw_moment_4(0.25) == pytest.approx(0.78515625, abs=1e-15)
    assert central_moment_4(0.5) == pytest.approx(1.25, abs=1e-15)


def test_known_moments_from_series():
    assert abs_central_moment(1.0, 2.0).value == pytest.approx(1.0, abs=1e-12)
    assert raw_abs_moment(1.0, 1.0).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.01, 0.125, 0.4204, 0.5, 1.0])
@pytest.mark.parametrize("q,centered", [(2.5, True), (2.5, False), (1.0, True), (4.0, False)])
def test_series_against_scipy_oracle(lam, q, centered):
    fn = abs_central_moment if centered else raw_abs_moment
    cv = fn(lam, q)
    oracle = series_oracle(lam, q, centered)
    assert cv.value == pytest.approx(oracle, rel=1e-10, abs=1e-13)
    assert abs(cv.value - oracle) <= cv.remainder_bound + 1e-13


def test_moment_inequality_grid():
    for lam in LAM_GRID:
        abs52 = abs_central_moment(lam, 2.5)
        assert abs52.remainder_bound <= 1e-12 * max(1.0, abs52.value)
        assert abs52.value <= math.sqrt(8.0) * lam + abs52.remainder_bound + SLACK
        raw52 = raw_abs_moment(lam, 2.5)
        assert raw52.value <= math.sqrt(15.0) * lam + raw52.remainder_bound + SLACK
        abs1 = abs_central_moment(lam, 1.0)
        assert abs1.value <= 2.0 * lam + abs1.remainder_bound + SLACK
        # the Cauchy-Schwarz split used to derive the 5/2 bounds
        assert abs52.value**2 <= central_moment_4(lam) * abs1.value + 1e-10


def test_inequalities_at_example_intensities():
    abs1 = abs_central_moment(0.125, 1.0)
    assert abs1.value <= 0.25 + abs1.remainder_bound + SLACK  # <= 2*rate
    abs52 = abs_central_moment(1.0, 2.5)
    assert abs52.value <= math.sqrt(8.0) + abs52.remainder_bound + SLACK
    raw52 = raw_abs_moment(0.4204, 2.5)
    assert raw52.value <= math.sqrt(15.0) * 0.4204 + raw52.remainder_bound + SLACK
    assert math.sqrt(15.0) * 0.4204 == pytest.approx(1.6282, abs=1e-4)


def test_closed_forms_match_series_on_grid():
    for lam in LAM_GRID:
        c4 = abs_central_moment(lam, 4.0).value
        assert c4 == pytest.approx(central_moment_4(lam), rel=1e-12)
        r4 = raw_abs_moment(lam, 4.0).value
        assert r4 == pytest.approx(raw_moment_4(lam), rel=1e-12)


@given(st.floats(1e-4, 1.0))
def test_tail_bound_holds_everywhere(lam):
    for j in (0, 2, 7):
        cv = poisson_tail(lam, j)
        assert cv.value <= tail_factorial_bound(lam, j) + cv.remainder_bound + SLACK


def test_validation():
    with pytest.raises(BadIndexError, match="outside the supported range"):
        abs_central_moment(-0.5, 2.5)
    with pytest.raises(BadIndexError, match="moment order"):
        raw_abs_moment(0.5, 0.5)
    with pytest.raises(BadIndexError, match="outside the supported range"):
        raw_abs_moment(1e12, 2.0)  # O(rate) series walk is capped
    for lam in (800.0, 1000.0):  # exp(-lam) would underflow the pmf recurrence
        with pytest.raises(BadIndexError, match="outside the supported range"):
            raw_abs_moment(lam, 2.5)
        with pytest.raises(BadIndexError, match="outside the supported range"):
            abs_central_moment(lam, 2.5)
    assert raw_abs_moment(700.0, 2.5).value == pytest.approx(1.2999e7, rel=1e-4)
    assert raw_abs_moment(30.0, 2.0).value == pytest.approx(30.0 + 900.0, rel=1e-12)


@pytest.mark.parametrize("lam", [0.05, 0.125, 0.5, 1.0])
def test_normalized_moments_algebra(lam):
    # E X^2 = Var(Y)/lam = 1 for X = (Y - lam)/sqrt(lam)
    var = abs_central_moment(lam, 2.0).value
    assert var / lam == pytest.approx(1.0, abs=1e-10)
