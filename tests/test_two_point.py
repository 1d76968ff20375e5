import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaoslab.errors import BadIndexError
from chaoslab.series import Series, term as series_term
from chaoslab.two_point import first_chaos_on_plus, fourth_moment, prob, second_moment
from dense_oracle import TwoPointSpec, even_spec, odd_spec, two_point_term as term

OUTCOMES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def enumerate_moments(n: int) -> tuple[float, float]:
    """Oracle: exact E F and E F^2 over the four (y_even, y_odd) outcomes."""
    se, so = even_spec(n), odd_spec(n)
    mean_terms, sq_terms = [], []
    for ye, yo in OUTCOMES:
        w = (se.p if ye == 1 else 1 - se.p) * (so.p if yo == 1 else 1 - so.p)
        f = term(n, se.value(ye), so.value(yo))
        mean_terms.append(w * f)
        sq_terms.append(w * f * f)
    return math.fsum(mean_terms), math.fsum(sq_terms)


def test_two_point_examples():
    spec = TwoPointSpec.from_p(0.5)
    assert (spec.value_plus, spec.value_minus) == (1.0, -1.0)
    spec = TwoPointSpec.from_p(0.2)
    assert spec.value_plus == pytest.approx(2.0, rel=1e-15)
    assert spec.value_minus == pytest.approx(-0.5, rel=1e-15)
    # two-outcome enumeration: mean 0, variance 1
    assert 0.2 * 4.0 + 0.8 * 0.25 == pytest.approx(1.0, rel=1e-15)


@given(st.floats(1e-9, 1 - 1e-9))
def test_two_point_moments(p):
    spec = TwoPointSpec.from_p(p)
    mean = p * spec.value_plus + (1 - p) * spec.value_minus
    var = p * spec.value_plus**2 + (1 - p) * spec.value_minus**2
    assert abs(mean) <= 1e-12
    assert abs(var - 1.0) <= 1e-12


def test_prob_examples():
    assert prob(4) == 0.5
    assert prob(5) == pytest.approx(math.exp(-math.sqrt(math.log(2))), rel=1e-15)
    assert prob(5) == pytest.approx(0.4349, abs=1e-4)
    with pytest.raises(BadIndexError):
        prob(3)
    arr = prob(np.array([4, 5, 6]))
    assert arr[0] == 0.5 and arr[2] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_prob_in_unit_interval_and_decreasing():
    ks = np.arange(4, 20_001)
    p = prob(ks)
    assert np.all((p > 0) & (p < 1))
    even = p[ks % 2 == 0]
    assert np.all(np.diff(even) < 0)  # p_{2n} = 1/n decreasing


@pytest.mark.parametrize("n", [2, 3, 10, 47, 100])
def test_collapse_identity_all_outcomes(n):
    se, so = even_spec(n), odd_spec(n)
    for ye, yo in OUTCOMES:
        xe, xo = se.value(ye), so.value(yo)
        collapsed = xe if yo == 1 else 0.0
        assert term(n, xe, xo) == pytest.approx(collapsed, abs=1e-12)


def test_moments_by_enumeration():
    for n in range(2, 101):
        mean, sq = enumerate_moments(n)
        assert abs(mean) <= 1e-12
        assert abs(sq - second_moment(n)) <= 1e-12
        assert second_moment(n) == prob(2 * n + 1)


def test_fourth_moment_by_enumeration():
    for n in (2, 3, 10, 100):
        se, so = even_spec(n), odd_spec(n)
        terms = [
            (se.p if ye == 1 else 1 - se.p) * (so.p if yo == 1 else 1 - so.p)
            * term(n, se.value(ye), so.value(yo)) ** 4
            for ye, yo in OUTCOMES
        ]
        assert fourth_moment(n) == pytest.approx(math.fsum(terms), rel=1e-12)
    with pytest.raises(BadIndexError):
        fourth_moment(1)


def test_second_moment_decreases_to_zero():
    values = np.array([second_moment(n) for n in range(3, 3000)])
    assert np.all(np.diff(values) < 0)
    assert values[-1] < values[0] / 2


def test_term_examples():
    # y_odd = -1 makes the term vanish regardless of y_even
    for n in (2, 5, 50):
        se, so = even_spec(n), odd_spec(n)
        assert term(n, se.value_plus, so.value_minus) == pytest.approx(0.0, abs=1e-12)
        assert term(n, se.value_minus, so.value_minus) == pytest.approx(0.0, abs=1e-12)
        # y_even = -1, y_odd = 1 gives -sqrt(1/(n-1))
        assert term(n, se.value_minus, so.value_plus) == pytest.approx(
            -math.sqrt(1.0 / (n - 1)), rel=1e-12
        )
    assert even_spec(2).value_plus == pytest.approx(1.0, rel=1e-15)
    assert term(2, 1.0, odd_spec(2).value_plus) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(BadIndexError):
        term(1, 0.0, 0.0)


def test_first_chaos_values():
    for n in (2, 5, 17, 400):
        se = even_spec(n)
        on_plus = prob(2 * n + 1) * se.value_plus
        assert on_plus == pytest.approx(first_chaos_on_plus(n), rel=1e-10)
    # n = 5: sqrt(4) * 5^(-1/sqrt(log 5))
    oracle = 2.0 * 5.0 ** (-1.0 / math.sqrt(math.log(5.0)))
    assert oracle == pytest.approx(0.5624, abs=1e-4)
    assert first_chaos_on_plus(5) == pytest.approx(oracle, rel=1e-12)
    # grows without bound along the plus event
    assert first_chaos_on_plus(10**6) > first_chaos_on_plus(10**3)
    # vanishes along the minus event
    n = 10**4
    minus = prob(2 * n + 1) * even_spec(n).value_minus
    assert minus == pytest.approx(-prob(2 * n + 1) * math.sqrt(1.0 / (n - 1)), rel=1e-10)
    assert abs(minus) < 1e-3


def test_first_chaos_growth_scan():
    n_values = np.arange(2, 10**6, dtype=np.int64)
    values = first_chaos_on_plus(n_values)
    assert np.all(np.diff(values) > 0)  # increasing over the whole scanned range
    n = 2
    while first_chaos_on_plus(n) <= 10.0:  # the first doubling n past 10
        n *= 2
    assert n == 2**17
    assert first_chaos_on_plus(n) == pytest.approx(11.6935, abs=1e-4)
    assert first_chaos_on_plus(n // 2) == pytest.approx(9.1610, abs=1e-4)


def test_both_plus_prob():
    # P(Y_2n = Y_2n+1 = 1) = p_2n p_(2n+1) is the joint-sign series term
    assert series_term(Series.TWO_POINT_JOINT, 2) == pytest.approx(0.5 * prob(5), rel=1e-15)
    assert series_term(Series.TWO_POINT_JOINT, 2) == pytest.approx(0.21745, abs=1e-4)
    for n in (2, 3, 10, 999, 10**4):
        assert series_term(Series.TWO_POINT_JOINT, n) == pytest.approx(
            prob(2 * n) * prob(2 * n + 1), rel=1e-14
        )
        # the divergent even-index harmonic series is exactly sum of p_2n
        assert series_term(Series.EVEN_HARMONIC, n) == prob(2 * n)


def test_window_event_probability_telescopes():
    # P(some Y_{2n} = 1, 10 <= n < 20) = 1 - prod (1 - 1/n) = 10/19 exactly
    exact = 1 - math.prod(1 - Fraction(1, n) for n in range(10, 20))
    assert exact == Fraction(10, 19)


@given(st.integers(2, 10_000), st.sampled_from(OUTCOMES))
def test_collapse_identity_property(n, outcome):
    ye, yo = outcome
    se, so = even_spec(n), odd_spec(n)
    xe, xo = se.value(ye), so.value(yo)
    assert term(n, xe, xo) == pytest.approx(xe if yo == 1 else 0.0, abs=1e-12)
