import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import dense_oracle
from chaoslab.errors import BadIndexError
from chaoslab.point_process import decompose_term
from chaoslab.poisson_pair import (
    first_chaos_at_one,
    fourth_moment,
    intensity,
    moment52_bound,
    moment52_exact,
    pair_tables,
    second_moment,
    sup_moment_bound,
    sup_tail_bound,
    term,
)
from chaoslab.series import Series, limit_constant


def collapsed_oracle(n: int, ye: int, yo: int) -> float:
    lam_e = float(n) ** -0.75
    return (ye - lam_e) / math.sqrt(lam_e) * yo


def test_intensity_examples():
    assert intensity(32) == pytest.approx(0.125, rel=1e-14)
    assert intensity(33) == pytest.approx(2.0 ** -1.25, rel=1e-14)
    assert intensity(33) == pytest.approx(0.42045, abs=1e-5)
    assert intensity(2) == 1.0
    assert intensity(3) == 1.0
    oracle = [1.0, 1.0, 2.0**-0.75, 2.0 ** (-5.0 / 16.0)]
    assert list(intensity(np.arange(2, 6))) == pytest.approx(oracle, rel=1e-14)
    with pytest.raises(BadIndexError):
        intensity(1)


def test_intensity_sequences():
    ks = np.arange(2, 20_002)
    lam = intensity(ks)
    assert np.all((lam > 0) & (lam <= 1.0))
    assert np.all(np.diff(lam[ks % 2 == 0]) < 0)
    assert np.all(np.diff(lam[ks % 2 == 1]) < 0)


def test_term_collapse_agreement():
    for n in list(range(1, 201)) + [10**3, 10**4]:
        for ye in (0, 1, 2, 7):
            for yo in (0, 1, 3, 11):
                collapsed = term(n, ye, yo)
                component_sum = decompose_term(n, ye, yo).total
                scale = max(1.0, abs(collapsed))
                assert abs(collapsed - component_sum) <= 1e-10 * scale
                assert collapsed == pytest.approx(
                    collapsed_oracle(n, ye, yo), rel=1e-12, abs=1e-12
                )


def test_term_examples():
    assert term(16, 2, 1) == pytest.approx(1.875 / math.sqrt(0.125), rel=1e-12)
    assert term(16, 2, 1) == pytest.approx(5.3033, abs=1e-4)
    assert term(7, 3, 0) == 0.0
    assert term(1, 1, 5) == 0.0  # unit rate: count 1 centers to zero
    with pytest.raises(BadIndexError):
        term(0, 1, 1)


def test_second_moment_by_enumeration():
    # independence factorization oracle on a truncated product grid
    ks = np.arange(0, 80)
    for n in (1, 4, 16):
        lam_e, lam_o = intensity(2 * n), intensity(2 * n + 1)
        pe = scipy.stats.poisson.pmf(ks, lam_e)
        po = scipy.stats.poisson.pmf(ks, lam_o)
        x_e = (ks - lam_e) / math.sqrt(lam_e)
        ef2 = float((pe * x_e**2).sum() * (po * ks.astype(float) ** 2).sum())
        assert ef2 == pytest.approx(lam_o * (1 + lam_o), rel=1e-10)
        assert second_moment(n) == pytest.approx(ef2, rel=1e-10)


def test_fourth_moment_by_enumeration():
    ks = np.arange(0, 80)
    for n in (1, 4, 16, 256):
        lam_e, lam_o = intensity(2 * n), intensity(2 * n + 1)
        pe = scipy.stats.poisson.pmf(ks, lam_e)
        po = scipy.stats.poisson.pmf(ks, lam_o)
        x_e = (ks - lam_e) / math.sqrt(lam_e)
        ef4 = float((pe * x_e**4).sum() * (po * ks.astype(float) ** 4).sum())
        assert fourth_moment(n) == pytest.approx(ef4, rel=1e-10)
    with pytest.raises(BadIndexError):
        fourth_moment(0)


def test_moment52_bound_shape():
    assert moment52_bound(256) == pytest.approx(math.sqrt(120.0) / 2.0, rel=1e-14)
    assert moment52_bound(256) == pytest.approx(5.477, abs=1e-3)
    assert moment52_bound(1) == pytest.approx(math.sqrt(120.0), rel=1e-14)
    for n in (1, 5, 100):
        assert moment52_bound(2 * n) / moment52_bound(n) == pytest.approx(
            2.0**-0.125, rel=1e-12
        )


def test_moment52_exact_below_bound():
    for n in range(1, 1001):
        assert moment52_exact(n) <= moment52_bound(n)


def test_moment52_exact_against_scipy_oracle():
    ks = np.arange(0, 200)
    for n in (1, 16, 256):
        lam_e, lam_o = intensity(2 * n), intensity(2 * n + 1)
        pe = scipy.stats.poisson.pmf(ks, lam_e)
        po = scipy.stats.poisson.pmf(ks, lam_o)
        oracle = float(
            (np.abs(ks - lam_e) ** 2.5 * pe).sum()
            / lam_e**1.25
            * (ks.astype(float) ** 2.5 * po).sum()
        )
        assert moment52_exact(n) == pytest.approx(oracle, rel=1e-9)


def test_sup_tail_bound():
    a = limit_constant(Series.INTENSITY_FOURTH)
    b = limit_constant(Series.INTENSITY_CROSS)
    oracle = (
        b.upper * 9.0**-0.25
        + 16.0 * (9.0 ** (2.0 / 3.0) - 1.0) ** (-1.0 / 16.0)
        + a.upper / 4.0
    )
    assert sup_tail_bound(9.0) == pytest.approx(oracle, rel=1e-12)
    grid = [9.0, 16.0, 25.0, 100.0, 1e4, 1e8]
    values = [sup_tail_bound(t) for t in grid]
    assert all(v2 < v1 for v1, v2 in zip(values, values[1:]))
    with pytest.raises(BadIndexError, match="stated for t >= 9"):
        sup_tail_bound(4.0)


def test_sup_tail_bound_power_law_consistency():
    # t^(1/24) * bound stays bounded; the middle term dominates like 16 t^(-1/24)
    scaled = [sup_tail_bound(t) * t ** (1.0 / 24.0) for t in (1e2, 1e4, 1e6, 1e8)]
    assert all(s <= 25.0 for s in scaled)
    assert scaled[-1] == pytest.approx(16.0, rel=0.05)
    assert all(s2 < s1 for s1, s2 in zip(scaled, scaled[1:]))


def test_sup_moment_bound():
    bound = sup_moment_bound(1.0 / 48.0)
    assert math.isfinite(bound) and bound > 1.0
    # looser moment order, smaller bound contribution from the tail
    assert sup_moment_bound(1.0 / 96.0) < bound
    for bad in (0.0, 1.0 / 24.0, 0.5):
        with pytest.raises(BadIndexError, match="moment order"):
            sup_moment_bound(bad)
    # the bound dominates a finite-window Monte Carlo lower estimate, from the
    # per-trajectory sups of the engine's draws; a threshold below every
    # |b_n| = n^(-3/8) (0.137 at n = 200) places every count, so the sups are
    # those of the drawn trajectories
    from chaoslab import mc

    cfg = mc.SimConfig(example="poisson", n_max=200, replications=20_000, master_seed=53,
                       thresholds=(0.1,))
    window_max = dense_oracle.run(cfg)["window_max"]
    window_moment = float((window_max ** (1.0 / 48.0)).mean())
    assert window_moment <= bound


def test_first_chaos_closed_form():
    oracle = 16.0 ** (1.0 / 16.0) - 16.0 ** (-11.0 / 16.0)
    assert oracle == pytest.approx(1.0405, abs=1e-3)
    assert decompose_term(16, 1, 0).order1 == pytest.approx(oracle, rel=1e-10)
    assert first_chaos_at_one(16) == pytest.approx(oracle, rel=1e-12)
    assert decompose_term(1, 1, 0).order1 == 0.0
    n = 2**16
    assert first_chaos_at_one(n) == pytest.approx(2.0 - 2.0**-11.0, rel=1e-10)
    assert first_chaos_at_one(n) > first_chaos_at_one(16)


def test_first_chaos_two_forms_agree():
    for n in range(1, 10_001):
        closed = first_chaos_at_one(n)
        direct = decompose_term(n, 1, 0).order1
        assert abs(direct - closed) <= 1e-10 * max(1.0, abs(closed))


def test_first_chaos_growth_scan():
    values = first_chaos_at_one(np.arange(1, 10**6, dtype=np.int64))
    assert np.all(np.diff(values) > 0)
    n = 1
    while first_chaos_at_one(n) <= 10.0:  # the first doubling n past 10
        n *= 2
    assert n == 2**54
    assert first_chaos_at_one(n) == pytest.approx(10.3747, abs=1e-4)
    assert first_chaos_at_one(n // 2) == pytest.approx(9.9349, abs=1e-4)


def test_event_tables():
    n_values = np.array([1, 2, 16, 500])
    tables = pair_tables(n_values)
    lam_e = np.asarray(intensity(2 * n_values))
    # P(Y_2n = 1) = exp(-lam_2n) lam_2n, lam_32 = 1/8
    assert tables.event_prob[2] == pytest.approx(math.exp(-0.125) * 0.125, rel=1e-12)
    assert tables.event_prob[2] == pytest.approx(0.110312, abs=1e-5)
    # P(Y_2n != 0, Y_2n+1 != 0) <= lam_2n lam_2n+1 = n^(-17/16)
    assert np.all(tables.q_even * tables.q_odd <= n_values ** (-17.0 / 16.0) + 1e-14)
    # divergence driver: count-one probability dominates e^-1 * lam_even
    assert np.all(tables.event_prob >= math.exp(-1.0) * lam_e)


@given(st.integers(1, 10_000), st.integers(0, 50), st.integers(0, 50))
def test_collapse_property(n, ye, yo):
    collapsed = term(n, ye, yo)
    component_sum = decompose_term(n, ye, yo).total
    assert abs(collapsed - component_sum) <= 1e-10 * max(1.0, abs(collapsed))
