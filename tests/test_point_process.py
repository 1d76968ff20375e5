import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from chaoslab import streams
from chaoslab.errors import BadIndexError, DiagonalPairError, NonPositiveLengthError
from chaoslab.point_process import (
    ChaosParts,
    PpRealization,
    build_layout,
    decompose_term,
    example_layout,
    linear_integral,
    product_integral,
    realize,
)
from chaoslab.poisson_pair import intensity, term
from chaoslab.variables import poisson_from_uniform, sample_poisson


def pair_layout(n: int):
    return build_layout([intensity(2 * n), intensity(2 * n + 1)], start_index=2 * n)


def batch_counts(layout, rng, size: int) -> np.ndarray:
    """Counts of `size` realizations, shape (size, n_intervals): column i takes
    one uniform per realization, in interval order."""
    return np.column_stack([poisson_from_uniform(rng.random(size), lam) for lam in layout.lengths])


def pair_realization(n: int, ye: int, yo: int) -> PpRealization:
    return PpRealization(np.array([ye, yo], dtype=np.int64), pair_layout(n))


def test_build_layout_examples():
    layout = build_layout([1.0, 1.0])
    assert np.array_equal(layout.boundaries, [0.0, 1.0, 2.0])
    layout = example_layout(2)
    oracle = [1.0, 1.0, 2.0**-0.75, 2.0 ** (-5.0 / 16.0)]
    assert layout.lengths == pytest.approx(oracle, rel=1e-14)
    assert layout.boundaries[:4] == pytest.approx([0.0, 1.0, 2.0, 2.0 + 2.0**-0.75], rel=1e-14)
    assert layout.start_index == 2
    with pytest.raises(NonPositiveLengthError):
        build_layout([1.0, 0.0])
    with pytest.raises(NonPositiveLengthError):
        build_layout([])


def test_layout_lengths_match_boundaries():
    layout = example_layout(10_000)
    diffs = np.diff(layout.boundaries)
    assert np.max(np.abs(diffs - layout.lengths)) <= 1e-12


def test_layout_indexing():
    layout = pair_layout(16)
    assert layout.length_of(32) == intensity(32)
    assert layout.length_of(33) == intensity(33)
    for bad in (31, 34):
        with pytest.raises(BadIndexError):
            layout.position(bad)


def test_realize_provenance_and_reproducibility():
    layout = example_layout(5)
    r1 = realize(layout, 123)
    r2 = realize(layout, 123)
    assert r1.seed == 123
    assert np.array_equal(r1.counts, r2.counts)
    assert r1.counts.shape == (10,)
    gen = streams.generator(9, 0)
    assert realize(layout, gen).seed is None
    # an integer seed draws what a SeedSequence of it always drew
    for seed in (0, 5, 2**31 - 1, 2**40):
        legacy = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        assert np.array_equal(realize(layout, seed).counts, realize(layout, legacy).counts)


def test_realize_batch_moments():
    layout = example_layout(4)  # 8 intervals, rates 1..4^(-5/16)
    reps = 100_000
    counts = batch_counts(layout, streams.generator(31337, 0), reps)
    for i, lam in enumerate(layout.lengths):
        se = math.sqrt(lam / reps)
        assert abs(counts[:, i].mean() - lam) <= 3 * se
    # counts on disjoint intervals are uncorrelated
    a = counts[:, 0] - layout.lengths[0]
    b = counts[:, 1] - layout.lengths[1]
    cov = float((a * b).mean())
    se = math.sqrt(float(layout.lengths[0] * layout.lengths[1]) / reps)
    assert abs(cov) <= 3 * se


def test_realize_batch_chi_square_unit_interval():
    layout = build_layout([1.0])
    reps = 100_000
    counts = batch_counts(layout, streams.generator(4242, 0), reps)[:, 0]
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 2).astype(float)
    expected = reps * scipy.stats.poisson.pmf(np.arange(kmax + 2), 1.0)
    expected[-1] = reps * scipy.stats.poisson.sf(kmax, 1.0)
    while len(expected) > 2 and expected[-1] < 5.0:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected, observed = expected[:-1], observed[:-1]
    stat = ((observed - expected) ** 2 / expected).sum()
    assert scipy.stats.chi2.sf(stat, df=len(expected) - 1) > 1e-4


def test_realize_matches_direct_sampler_two_sample():
    layout = build_layout([0.5])
    reps = 20_000
    batch = batch_counts(layout, streams.generator(67, 0), reps)[:, 0]
    gen = streams.generator(68, 0)
    direct = np.array([sample_poisson(0.5, gen) for _ in range(reps)])
    kmax = int(max(batch.max(), direct.max()))
    table = np.array(
        [np.bincount(batch, minlength=kmax + 1), np.bincount(direct, minlength=kmax + 1)]
    )
    table = table[:, table.sum(axis=0) > 0]
    # merge rare tail columns so expected cell counts stay reasonable
    while table.shape[1] > 2 and table[:, -1].sum() < 10:
        table[:, -2] += table[:, -1]
        table = table[:, :-1]
    _, pvalue, _, _ = scipy.stats.chi2_contingency(table)
    assert pvalue > 1e-4


def test_linear_integral():
    rz = pair_realization(1, 1, 0)  # unit rate: count equals the mean
    assert linear_integral(rz.layout, rz, 2, 1.0) == 0.0
    rz = pair_realization(16, 2, 1)
    coeff = intensity(33) / math.sqrt(intensity(32))
    value = linear_integral(rz.layout, rz, 32, coeff)
    oracle = intensity(33) * (2 - 0.125) / math.sqrt(0.125)
    assert value == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(2.2297, abs=1e-3)
    assert linear_integral(rz.layout, rz, 32, 2 * coeff) == pytest.approx(2 * value, rel=1e-14)
    with pytest.raises(BadIndexError):
        linear_integral(rz.layout, rz, 30, 1.0)


def test_product_integral():
    rz = pair_realization(16, 2, 1)
    coeff = 0.5 / math.sqrt(intensity(32))
    value = product_integral(rz.layout, rz, (32, 33), coeff)
    oracle = (2 - 0.125) * (1 - intensity(33)) / math.sqrt(0.125)
    assert value == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(3.0735, abs=1e-3)
    # vanishing factor: unit rate with count one
    rz1 = pair_realization(1, 1, 3)
    assert product_integral(rz1.layout, rz1, (2, 3), 1.0) == 0.0
    with pytest.raises(DiagonalPairError):
        product_integral(rz.layout, rz, (32, 32), coeff)


def test_decompose_examples():
    rz = pair_realization(16, 2, 1)
    parts = decompose_term(16, rz)
    assert isinstance(parts, ChaosParts)
    assert parts.order0 == 0.0
    assert parts.order1 == pytest.approx(2.2297, abs=1e-3)
    assert parts.order2 == pytest.approx(3.0735, abs=1e-3)
    f = term(16, 2, 1)
    assert f == pytest.approx(5.3033, abs=1e-4)
    assert parts.total == pytest.approx(f, rel=1e-12)

    # zero odd count: order-2 cancels order-1 and the term vanishes
    rz = pair_realization(16, 5, 0)
    parts = decompose_term(16, rz)
    assert abs(parts.order1 + parts.order2) <= 1e-12 * max(1.0, abs(parts.order1))
    assert abs(parts.total) <= 1e-12 * max(1.0, abs(parts.order1))

    rz = pair_realization(1, 1, 0)
    parts = decompose_term(1, rz)
    assert parts == (0.0, 0.0, 0.0)


@given(st.integers(1, 10_000), st.integers(0, 50), st.integers(0, 50))
def test_decompose_reproduces_term(n, ye, yo):
    parts = decompose_term(n, pair_realization(n, ye, yo))
    f = term(n, ye, yo)
    assert abs(parts.total - f) <= 1e-10 * max(1.0, abs(f))


def test_chaos_component_moments_mc():
    n = 16
    lam_e, lam_o = intensity(32), intensity(33)
    reps = 10**6
    counts = batch_counts(pair_layout(n), streams.generator(2718, 0), reps)
    x_e = (counts[:, 0] - lam_e) / math.sqrt(lam_e)
    x_o = (counts[:, 1] - lam_o) / math.sqrt(lam_o)
    j1 = lam_o * x_e
    j2 = math.sqrt(lam_o) * x_e * x_o
    # the vectorized forms agree with the module integrals
    for row in range(25):
        rz = PpRealization(counts[row], pair_layout(n))
        parts = decompose_term(n, rz)
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
