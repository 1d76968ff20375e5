import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from chaoslab.errors import BadIndexError, ResourceLimitError
from chaoslab.series import (
    _CHUNK,
    MAX_TERMS,
    START,
    ConstantEstimate,
    Series,
    limit_constant,
    partial_sum,
    scan_partial_exceeds,
    tail_bound,
    term,
)

CONVERGENT = (Series.TWO_POINT_JOINT, Series.INTENSITY_FOURTH, Series.INTENSITY_CROSS)


def brute_partial(series: Series, n: int) -> float:
    return math.fsum(term(series, k) for k in range(START[series], n + 1))


FROZEN_CHUNK = 1 << 20


def frozen_partial_sum(series: Series, n_terms: int) -> float:
    """Reference for the published bits: the chunked partial sum as first written.

    A fresh index array per chunk of FROZEN_CHUNK terms, each chunk reduced
    by numpy's pairwise sum, the chunk sums combined by math.fsum.
    """
    start = START[series]
    partials = []
    lo = start
    while lo <= n_terms:
        hi = min(lo + FROZEN_CHUNK - 1, n_terms)
        x = np.arange(lo, hi + 1).astype(np.float64)
        if series is Series.TWO_POINT_JOINT:
            values = np.exp(-np.sqrt(np.log(x))) / x
        elif series is Series.EVEN_HARMONIC:
            values = 1.0 / x
        elif series is Series.INTENSITY_FOURTH:
            values = np.power(x, -5.0 / 4.0)
        else:
            values = np.power(x, -17.0 / 16.0)
        partials.append(float(values.sum()))
        lo = hi + 1
    return math.fsum(partials)


@pytest.mark.parametrize("series", list(Series))
def test_partial_sum_is_bitwise_the_frozen_reference(series):
    start = START[series]
    for n in (start, 3, 1000, 10**6, FROZEN_CHUNK + start - 1, FROZEN_CHUNK + start,
              3 * FROZEN_CHUNK + 17):
        assert partial_sum(series, n) == frozen_partial_sum(series, n), n


def test_limit_constants_are_certified():
    for series, s, value in ((Series.INTENSITY_FOURTH, 5.0 / 4.0, 4.595111825842877),
                             (Series.INTENSITY_CROSS, 17.0 / 16.0, 16.581747646654787)):
        c = limit_constant(series)
        assert c.value <= float(scipy.special.zeta(s)) <= c.upper, series
        assert c.error <= 1e-12, series
        # inside the integral-test bracket at depth 10^6
        lo = partial_sum(series, 10**6)
        assert lo <= c.value and c.upper <= lo + tail_bound(series, 10**6), series
        assert c.value == value, series


def _peak_bytes(fn, *args) -> int:
    """Peak of the memory tracemalloc sees in this process while fn runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("series", list(Series))
def test_partial_sum_memory_is_two_chunk_buffers(series):
    # numpy reports its data buffers to tracemalloc; the chunks are evaluated
    # into one chunk buffer, and a fresh array per chunk would show as one more
    assert _peak_bytes(partial_sum, series, 4 * _CHUNK + 5) <= _CHUNK * 8 + 2**20


def test_partial_sum_examples():
    assert partial_sum(Series.INTENSITY_FOURTH, 1) == 1.0
    expected = 1.0 + 2.0 ** (-17.0 / 16.0)
    assert partial_sum(Series.INTENSITY_CROSS, 2) == pytest.approx(expected, rel=1e-15)
    assert expected == pytest.approx(1.4788, abs=1e-4)
    assert partial_sum(Series.EVEN_HARMONIC, 3) == pytest.approx(0.5 + 1.0 / 3.0, rel=1e-15)


def test_partial_sum_validation():
    with pytest.raises(BadIndexError):
        partial_sum(Series.TWO_POINT_JOINT, 1)
    with pytest.raises(ResourceLimitError, match="MAX_TERMS"):
        partial_sum(Series.EVEN_HARMONIC, MAX_TERMS + 1)
    with pytest.raises(BadIndexError):
        term(Series.EVEN_HARMONIC, 1)


@pytest.mark.parametrize("series", list(Series))
def test_partial_sum_matches_brute_force(series):
    for n in (START[series], 17, 1000, 10_000):
        assert partial_sum(series, n) == pytest.approx(brute_partial(series, n), rel=1e-13)


def test_tail_bound_formulas():
    assert tail_bound(Series.INTENSITY_FOURTH, 10**6) == pytest.approx(
        4.0 * (10**6) ** -0.25, rel=1e-15
    )
    assert tail_bound(Series.INTENSITY_FOURTH, 10**6) == pytest.approx(0.1265, abs=1e-4)
    assert tail_bound(Series.INTENSITY_CROSS, 4096) == pytest.approx(
        16.0 * 4096 ** (-1.0 / 16.0), rel=1e-15
    )
    v = math.log(1000)
    assert tail_bound(Series.TWO_POINT_JOINT, 1000) == pytest.approx(
        2.0 * (math.sqrt(v) + 1.0) * math.exp(-math.sqrt(v)), rel=1e-15
    )
    with pytest.raises(BadIndexError, match="no finite tail"):
        tail_bound(Series.EVEN_HARMONIC, 100)
    with pytest.raises(BadIndexError):
        tail_bound(Series.TWO_POINT_JOINT, 2)


@given(st.integers(3, 2000), st.integers(1, 200))
def test_bracketing(n1, gap):
    n2 = n1 + gap
    for series in CONVERGENT:
        p1 = partial_sum(series, n1)
        p2 = partial_sum(series, n2)
        assert p1 <= p2 <= p1 + tail_bound(series, n1) * (1 + 1e-12)


def test_brackets_contain_zeta():
    # independent limit oracle for the two power series
    for series, s in ((Series.INTENSITY_FOURTH, 1.25), (Series.INTENSITY_CROSS, 17.0 / 16.0)):
        zeta = float(scipy.special.zeta(s))
        lo = partial_sum(series, 10**6)
        hi = lo + tail_bound(series, 10**6)
        assert lo <= zeta <= hi


def test_joint_series_terms_eventually_decreasing():
    n = np.arange(3, 100_001)
    values = term(Series.TWO_POINT_JOINT, n)
    assert np.all(np.diff(values) < 0)


def test_joint_series_stabilizes_within_tail():
    p3 = partial_sum(Series.TWO_POINT_JOINT, 10**3)
    p6 = partial_sum(Series.TWO_POINT_JOINT, 10**6)
    assert 0 <= p6 - p3 <= tail_bound(Series.TWO_POINT_JOINT, 10**3)


def test_even_harmonic_divergence_scan():
    n = scan_partial_exceeds(Series.EVEN_HARMONIC, 5.0)
    assert partial_sum(Series.EVEN_HARMONIC, n) > 5.0
    assert partial_sum(Series.EVEN_HARMONIC, n // 2) <= 5.0


def test_constants_bracket_and_order():
    a, b = (ConstantEstimate(partial_sum(s, 10**6), tail_bound(s, 10**6))
            for s in (Series.INTENSITY_FOURTH, Series.INTENSITY_CROSS))
    assert isinstance(a, ConstantEstimate)
    assert a.upper == a.value + a.error
    assert float(scipy.special.zeta(1.25)) == pytest.approx(4.5951, abs=1e-4)
    assert a.value <= float(scipy.special.zeta(1.25)) <= a.upper
    assert b.value <= float(scipy.special.zeta(17.0 / 16.0)) <= b.upper
    # a < b: every term n^(-5/4) <= n^(-17/16), strictly for n >= 2
    assert a.upper < b.value
    assert b.value >= partial_sum(Series.INTENSITY_CROSS, 100)


def test_termwise_comparison():
    n = np.arange(2, 5000)
    assert np.all(term(Series.INTENSITY_FOURTH, n) < term(Series.INTENSITY_CROSS, n))
    assert term(Series.INTENSITY_FOURTH, 1) == term(Series.INTENSITY_CROSS, 1) == 1.0
