"""Acceptance suite: every exit criterion at its stated tolerance.

Run as `pytest -s tests/test_acceptance.py` to see one line per criterion.
The two Monte Carlo fixtures are module-scoped; the full module finishes
in a couple of minutes on a laptop core.
"""

import math
import pickle
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

import dense_oracle
from chaoslab import mc, poisson_moments, poisson_pair, series, two_point
from chaoslab.cli import main
from chaoslab.point_process import decompose_term
from chaoslab.poisson_pair import intensity
from chaoslab.streams import BLOCK_SIZE

SEED = 20240601


@contextmanager
def criterion(name: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def l52_run():
    cfg = mc.SimConfig(example="poisson", n_max=256, replications=100_000, master_seed=SEED)
    return mc.run(cfg)


SUP_TAIL_T = (9.0, 16.0, 25.0, 100.0)


@pytest.fixture(scope="module")
def big_poisson_run():
    cfg = mc.SimConfig(example="poisson", n_max=10_000, replications=100_000, master_seed=SEED,
                       thresholds=SUP_TAIL_T)
    return mc.run(cfg)


def test_exact_identities_two_point():
    with criterion("two-point exact identities"):
        outcomes = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for n in range(2, 101):
            se, so = dense_oracle.even_spec(n), dense_oracle.odd_spec(n)
            mean_terms, sq_terms = [], []
            for ye, yo in outcomes:
                w = (se.p if ye == 1 else 1 - se.p) * (so.p if yo == 1 else 1 - so.p)
                xe = se.value(ye)
                f = dense_oracle.two_point_term(n, xe, so.value(yo))
                collapsed = xe if yo == 1 else 0.0
                assert abs(f - collapsed) <= 1e-12  # collapse on every outcome
                mean_terms.append(w * f)
                sq_terms.append(w * f * f)
            assert abs(math.fsum(mean_terms)) <= 1e-12
            assert abs(math.fsum(sq_terms) - two_point.second_moment(n)) <= 1e-12


def test_poisson_moment_grid():
    with criterion("Poisson tail/moment inequality grid"):
        slack = 1e-14
        for i in range(1, 101):
            lam = i / 100.0
            for j in range(21):
                tail = poisson_moments.poisson_tail(lam, j)
                assert tail.remainder_bound <= 1e-12
                bound = poisson_moments.tail_factorial_bound(lam, j)
                assert tail.value <= bound + tail.remainder_bound + slack
            abs52 = poisson_moments.abs_central_moment(lam, 2.5)
            assert abs52.remainder_bound <= 1e-12 * max(1.0, abs52.value)
            assert abs52.value <= math.sqrt(8.0) * lam + abs52.remainder_bound + slack
            raw52 = poisson_moments.raw_abs_moment(lam, 2.5)
            assert raw52.remainder_bound <= 1e-12 * max(1.0, raw52.value)
            assert raw52.value <= math.sqrt(15.0) * lam + raw52.remainder_bound + slack
            c4 = poisson_moments.abs_central_moment(lam, 4.0).value
            closed_c4 = poisson_moments.central_moment_4(lam)
            assert abs(c4 - closed_c4) <= 1e-12 * max(1.0, closed_c4)
            r4 = poisson_moments.raw_abs_moment(lam, 4.0).value
            closed_r4 = poisson_moments.raw_moment_4(lam)
            assert abs(r4 - closed_r4) <= 1e-12 * max(1.0, closed_r4)


def test_poisson_collapse_and_decomposition():
    with criterion("paired-Poisson collapse and chaos decomposition"):
        counts = np.arange(51, dtype=np.float64)
        worst_forms = worst_parts = 0.0
        for n in range(1, 10_001):
            lam_e, lam_o = intensity(2 * n), intensity(2 * n + 1)
            x_e = (counts - lam_e) / math.sqrt(lam_e)
            f_sum_form = lam_o * x_e[:, None] + math.sqrt(lam_o) * np.outer(
                x_e, (counts - lam_o) / math.sqrt(lam_o)
            )
            f_collapsed = np.outer(x_e, counts)
            scale = np.maximum(1.0, np.abs(f_collapsed))
            worst_forms = max(worst_forms, np.max(np.abs(f_sum_form - f_collapsed) / scale))
            j1 = lam_o * x_e
            j2 = np.outer(counts - lam_e, counts - lam_o) / math.sqrt(lam_e)
            worst_parts = max(
                worst_parts, np.max(np.abs(j1[:, None] + j2 - f_collapsed) / scale)
            )
        assert worst_forms <= 1e-10
        assert worst_parts <= 1e-10

        # the vectorized sweep reproduces the library operations
        rng = np.random.Generator(np.random.Philox(7))
        for _ in range(300):
            n = int(rng.integers(1, 10_001))
            ye, yo = (int(v) for v in rng.integers(0, 51, size=2))
            collapsed = poisson_pair.term(n, ye, yo)
            parts = decompose_term(n, ye, yo)
            assert parts.order0 == 0.0
            assert abs(parts.total - collapsed) <= 1e-10 * max(1.0, abs(collapsed))

        # degree-one closed form at count one
        n_arr = np.arange(1, 10_001)
        lam_e = np.asarray(intensity(2 * n_arr))
        lam_o = np.asarray(intensity(2 * n_arr + 1))
        direct = lam_o * (1.0 - lam_e) / np.sqrt(lam_e)
        closed = np.asarray(poisson_pair.first_chaos_at_one(n_arr))
        assert np.max(np.abs(direct - closed) / np.maximum(1.0, np.abs(closed))) <= 1e-10


def test_l52_decay_bound(l52_run):
    with criterion("5/2-moment decay bound"):
        for n in range(1, 1001):
            assert poisson_pair.moment52_exact(n) <= poisson_pair.moment52_bound(n)
        mean, se = l52_run.mean_with_stderr("f_abs52")
        # |F_n|^(5/2) is far from normal here: nonzero in 34% (n = 16) and 16%
        # (n = 256) of the trajectories, with E V^2 / (E V)^2 = 172 and 1080, so
        # the 3-sigma rate of 1.35e-3 per row, and the sample stderr, are not to
        # be trusted.  A row fails only if its mean exceeds the bound, which lies
        # 126 and 70 true stderrs above E|F_n|^(5/2) at 10^5 trajectories; by
        # Cantelli's inequality that has probability below 6.3e-5 and 2.1e-4, so
        # the two rows fail a correct engine at under 2.7e-4 together
        for n in (16, 256):
            i = n - 1
            assert mean[i] <= poisson_pair.moment52_bound(n) + 3 * se[i]


def test_sup_tail_bound(big_poisson_run):
    with criterion("supremum tail bound"):
        p_se = big_poisson_run.proportion(big_poisson_run.sup_hits[:, 0])
        # the paper's bound is above 1 at each t (25.6, 23.2, 21.8 and 18.5), so
        # none of the four one-sided rows can fail: their false-failure rate is
        # 0, and so is their power; test_sup_tail_matches_the_exact_law checks
        # these counts
        for t, p, se in zip(SUP_TAIL_T, *p_se):
            bound = poisson_pair.sup_tail_bound(t)
            assert p - 3 * se <= bound


def binomial_p(k, n: int, p) -> np.ndarray:
    """Exact two-sided p-values of Binomial(n, p) at k: twice the smaller tail, at most 1."""
    law = scipy.stats.binom(n, p)
    return np.minimum(1.0, 2.0 * np.minimum(law.cdf(k), law.sf(k - 1)))


def exact_sup_tail(t: float, n_max: int, cutoff: float = 1e-30) -> float:
    """P(sup_{n <= n_max} |F_n| > t) for the paired-Poisson F_n, from Poisson pmfs.

    Terms are independent across n, so the sup tail is 1 - prod(1 - p_n),
    summed as log1p terms; p_n = P(|X_2n| Y_2n+1 > t) sums the joint pmf of
    the two counts, each cut where its tail falls below `cutoff`.
    """
    n = np.arange(1, n_max + 1)
    lam_e, lam_o = np.asarray(intensity(2 * n)), np.asarray(intensity(2 * n + 1))

    def counts(lam):  # 0..K, with P(C > K) < cutoff at the largest rate
        top = next(k for k in range(100) if scipy.stats.poisson.sf(k, lam.max()) < cutoff)
        return np.arange(top + 1)

    c = counts(lam_o)[1:, None]
    pmf_o = scipy.stats.poisson.pmf(c, lam_o)  # [count, n]
    p = np.zeros(n.size)
    for k in counts(lam_e):
        x = np.abs((k - lam_e) / np.sqrt(lam_e))
        p += scipy.stats.poisson.pmf(k, lam_e) * (pmf_o * (x * c > t)).sum(axis=0)
    return -math.expm1(np.log1p(-p).sum())


def test_sup_tail_matches_the_exact_law(big_poisson_run):
    # The engine's count of trajectories with sup_{n <= 10^4} |F_n| > t against
    # Binomial(R, exact), by exact two-sided p-values; Bonferroni over the four
    # t keeps the family-wise false-failure rate at 2e-3.
    with criterion("supremum tail against the exact law"):
        r = big_poisson_run.replications
        for t, expected, hits in zip(SUP_TAIL_T, (0.880956, 0.674126, 0.329929, 1.13515e-5),
                                     big_poisson_run.sup_hits[:, 0]):
            exact = exact_sup_tail(t, big_poisson_run.config.n_max)
            assert exact == pytest.approx(expected, rel=1e-5)
            p_value = binomial_p(hits, r, exact)
            print(f"  t={t:g}: {hits}/{r} against exact {exact:.6g}, p = {p_value:.3g}")
            assert p_value >= 2e-3 / len(SUP_TAIL_T)


@pytest.mark.parametrize("example, n_max, thresholds", [("twopoint", 300, (1.0, 9.0, 16.0)),
                                                         ("poisson", 2000, (1.0, 9.0))])
def test_suffix_sups_follow_their_exact_law(example, n_max, thresholds):
    # simulate's rows P(sup_(n>=n0) |F| > t) and the CSV's sup_exceed_prob are
    # sup_hits / R: every count, over each t and each n0 in (start_n, *grid),
    # against Binomial(R, exact) with the exact law from the pair tables, by
    # exact two-sided p-values; Bonferroni over the 24 (two-point) or 22
    # (Poisson) counts keeps the family-wise false-failure rate at 1e-3
    with criterion(f"{example} suffix sups against their exact law"):
        cfg = mc.SimConfig(example=example, n_max=n_max, replications=1 << 16, master_seed=SEED,
                           thresholds=thresholds)
        stats = mc.run(cfg)
        rows = [n0 - cfg.start_n for n0 in (cfg.start_n, *stats.grid)]
        laws = [dense_oracle.suffix_sup_law(stats.tables, t) for t in thresholds]
        if example == "twopoint":  # the whole range at t = 16
            assert laws[2][0] == pytest.approx(0.0143016, rel=1e-5)
        else:  # the independent scipy evaluation of the whole range
            assert laws[1][0] == pytest.approx(exact_sup_tail(9.0, n_max), rel=1e-9)
        p_values = []
        for law, hits in zip(laws, stats.sup_hits):
            p_values += binomial_p(hits, cfg.replications, law[rows]).tolist()
        assert len(p_values) == {"twopoint": 24, "poisson": 22}[example]
        print(f"  smallest of {len(p_values)} p-values: {min(p_values):.3g}")
        assert min(p_values) >= 1e-3 / len(p_values)


# The smallest threshold, 0.5, places the rows with |b_n| > 0.5 (two-point,
# n <= 4) or 2 |b_n| > 0.5 (Poisson, n <= 40); the mixed-rate case has the
# Poisson tables of dense_oracle.mixed_rates.
CELL_LAW_CASES = {
    "two-point": mc.SimConfig(example="twopoint", n_max=300, replications=1 << 16,
                              master_seed=SEED, thresholds=(0.5,)),
    "Poisson": mc.SimConfig(example="poisson", n_max=2000, replications=1 << 16,
                            master_seed=SEED, thresholds=(0.5,)),
    "mixed-rate": mc.SimConfig(example="poisson", n_max=200, replications=1 << 16,
                               master_seed=SEED, thresholds=(0.5, 2.0)),
}


def cell_law_p_values(stats) -> tuple[np.ndarray, np.ndarray]:
    """A run's cells and window hits against their exact law, as two families
    of p-values (see test_cells_follow_their_exact_law)."""
    r, tables, start = stats.replications, stats.tables, stats.config.start_n
    law = dense_oracle.cell_law(tables)
    row, y, c = stats.cell_values()
    seen = np.zeros(law.shape, dtype=np.int64)
    np.add.at(seen, (row, np.minimum(y, law.shape[1] - 1), np.minimum(c, law.shape[2] - 1)),
              stats.cell_counts)
    assert not seen[law == 0].any()  # e.g. no two-point count of 2
    family_a = binomial_p(seen[law > 0], r, law[law > 0])
    pooled = law.sum(axis=0) > 0  # [y, c]
    p_event = dense_oracle.hurdle_pmf(tables.q_even, tables.rate_even)[:, 1]
    p_window = [1.0 - np.prod(1.0 - p_event[lo - start : hi - start]) for lo, hi in stats.windows]
    family_b = np.concatenate([
        binomial_p(seen.sum(axis=0)[pooled], r * law.shape[0], law.mean(axis=0)[pooled]),
        binomial_p(stats.win_hits, r, np.array(p_window))])
    return family_a, family_b


@pytest.mark.parametrize("case", [*CELL_LAW_CASES, "big Poisson"])
def test_cells_follow_their_exact_law(case, request, monkeypatch):
    # The engine's counts of the cells (n, Y_2n, C_2n+1), binned as y in
    # {0, 1, 2, >=3} x c in {0, 1, 2, 3, >=4}, against R times their exact law
    # from the run's own pair tables.  A bin of probability 0 must be empty.
    # Family A: one exact two-sided binomial p-value per (row, bin) of positive
    # probability.  Family B: one p-value per bin pooled over the rows, and
    # each window's hits against Binomial(R, 1 - prod(1 - P(Y_2n = 1))), with
    # P(Y_2n = 1) from the pmf, not tables.event_prob, which the mixed-rate
    # tables leave as the Poisson one.  A pooled count is a sum of R x rows
    # independent Bernoulli trials; beyond one trial of its mean, its tails lie
    # below those of the binomial law of as many trials with the same mean
    # (Hoeffding 1956, Ann. Math. Statist. 27:713-721, Theorem 4), whose
    # two-sided p-value is therefore valid at every expectation, the sparse
    # bins' (about 100 trajectories) included.  Holm's step-down
    # procedure at 5e-4 in each family, which rejects nothing exactly when the
    # smallest p-value is above 5e-4 over the family's size, keeps the
    # family-wise false-failure rate at 1e-3 per case.  big_poisson_run's
    # smallest threshold, 9, places no row.
    with criterion(f"{case} cells against their exact law"):
        if case == "big Poisson":
            stats = request.getfixturevalue("big_poisson_run")
        else:
            if case == "mixed-rate":
                mixed = dense_oracle.mixed_rates(mc.MODELS["poisson"])
                monkeypatch.setitem(mc.MODELS, "poisson", mixed)
            stats = mc.run(CELL_LAW_CASES[case])
        family_a, family_b = cell_law_p_values(stats)
        for name, p in (("A", family_a), ("B", family_b)):
            print(f"  family {name}: smallest of {p.size} p-values {p.min():.3g}")
            assert p.min() > 5e-4 / p.size


def test_hurdle_law_is_the_count_law():
    # the one oracle of the cell law: the Poisson hurdle rows are the Poisson
    # pmf of each count, and the two-point rows the +1 indicator's, with p_k
    # from two_point.prob; in both, the degree-one coefficient is E C_2n+1 and
    # the event probability P(Y_2n = 1)
    n = np.array([1, 2, 16, 500, 10_000])
    tables, k = poisson_pair.pair_tables(n), np.arange(41)
    for parity, q, rate in ((0, tables.q_even, tables.rate_even),
                            (1, tables.q_odd, tables.rate_odd)):
        pmf = dense_oracle.hurdle_pmf(q, rate)
        lam = np.asarray(intensity(2 * n + parity))[:, None]
        np.testing.assert_allclose(pmf, scipy.stats.poisson.pmf(k, lam), rtol=1e-12)
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=1e-12)
    n_tp = np.arange(2, 301)
    for tables in (tables, two_point.MODEL.tables(n_tp)):
        p_even, p_odd = (dense_oracle.hurdle_pmf(q, rate) for q, rate in (
            (tables.q_even, tables.rate_even), (tables.q_odd, tables.rate_odd)))
        np.testing.assert_allclose(p_even[:, 1], tables.event_prob, rtol=1e-12)
        np.testing.assert_allclose(p_odd @ np.arange(p_odd.shape[1]), tables.coef, rtol=1e-12)
    for parity, pmf in ((0, p_even), (1, p_odd)):  # the two-point rows
        p = two_point.prob(2 * n_tp + parity)
        assert np.array_equal(pmf[:, :2], np.column_stack([1.0 - p, p])) and not pmf[:, 2:].any()


@pytest.mark.parametrize("case", CELL_LAW_CASES)
def test_cell_law_is_the_binned_count_law(case):
    # cell_law's rows are laws whose y and c margins are the hurdle pmf, the
    # top bin taking the rest; a top bin that no count reaches (two-point, or
    # a rate-0 row) is exactly 0, as the empty-bin check of the cell test needs
    cfg = CELL_LAW_CASES[case]
    model = mc.MODELS[cfg.example]
    n = np.arange(cfg.start_n, cfg.n_max + 1)
    tables = (dense_oracle.mixed_rates(model) if case == "mixed-rate" else model).tables(n)
    law = dense_oracle.cell_law(tables)
    assert law.shape == (len(n), 4, 5) and (law >= 0).all()
    np.testing.assert_allclose(law.sum(axis=(1, 2)), 1.0, rtol=1e-12)
    for margin, q, rate, top in ((law.sum(axis=2), tables.q_even, tables.rate_even, 3),
                                 (law.sum(axis=1), tables.q_odd, tables.rate_odd, 4)):
        pmf = dense_oracle.hurdle_pmf(q, rate)
        np.testing.assert_allclose(margin[:, :top], pmf[:, :top], rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(margin[:, top], 1.0 - pmf[:, :top].sum(axis=1), atol=1e-12)
        assert np.array_equal(margin[:, top] == 0, rate == 0)


def test_a_run_result_does_not_grow_with_its_blocks(big_poisson_run):
    # its 7 blocks' cell counts add into one set of the distinct cells seen,
    # under twice the size of its first block's
    with criterion("run result flat in the number of blocks"):
        first = mc._walk_block(big_poisson_run.config, 0, BLOCK_SIZE)
        assert len(pickle.dumps(big_poisson_run)) < 2 * len(pickle.dumps(first))


def test_series_certificates():
    with criterion("series brackets and divergence"):
        convergent = (
            series.Series.TWO_POINT_JOINT,
            series.Series.INTENSITY_FOURTH,
            series.Series.INTENSITY_CROSS,
        )
        for s in convergent:
            for n1 in (10**3, 10**6):
                p1 = series.partial_sum(s, n1)
                p2 = series.partial_sum(s, 4 * n1)
                assert p1 <= p2 <= p1 + series.tail_bound(s, n1)
        # joint-sign partial sums stabilize within the certified tail
        p3 = series.partial_sum(series.Series.TWO_POINT_JOINT, 10**3)
        p6 = series.partial_sum(series.Series.TWO_POINT_JOINT, 10**6)
        v = math.log(10**3)
        assert p6 - p3 <= 2.0 * (math.sqrt(v) + 1.0) * math.exp(-math.sqrt(v))
        n_exceed = series.scan_partial_exceeds(series.Series.EVEN_HARMONIC, 5.0)
        assert series.partial_sum(series.Series.EVEN_HARMONIC, n_exceed) > 5.0
        print(f"  even-index harmonic sum exceeds 5 at N={n_exceed}")


def test_divergence_of_projection_evidence():
    with criterion("degree-one divergence evidence"):
        exact = 1 - math.prod(1 - Fraction(1, n) for n in range(10, 20))
        assert exact == Fraction(10, 19)
        cfg = mc.SimConfig(
            example="twopoint", n_max=20, replications=100_000, master_seed=SEED
        )
        stats = mc.run(cfg)
        exact_prob, deviation = stats.window_law()[0]
        p, se = (a[0] for a in stats.proportion(stats.win_hits))
        assert stats.windows[0] == (10, 20)
        assert abs(exact_prob - float(exact)) <= 1e-12
        # two-sided 3 sigma, with the sample stderr: the exact Binomial(10^5,
        # 10/19) rate is 2.7e-3 (normal: 2.7e-3); with the rows above, the
        # module's three 3-sigma checks fail a correct engine at under 3e-3
        assert abs(p - float(exact)) <= 3 * se
        assert stats.sums("events")[10 - 2 : 20 - 2].sum() > 0 and deviation <= 1e-9

        # the first doubling n where each closed form on the event exceeds 10
        n_tp, n_po = two_point.START_N, poisson_pair.START_N
        while two_point.first_chaos_on_plus(n_tp) <= 10.0:
            n_tp *= 2
        while poisson_pair.first_chaos_at_one(n_po) <= 10.0:
            n_po *= 2
        v_tp, v_po = two_point.first_chaos_on_plus(n_tp), poisson_pair.first_chaos_at_one(n_po)
        assert (n_tp, n_po) == (2**17, 2**54)
        assert v_tp == pytest.approx(11.6935, abs=1e-4)
        assert two_point.first_chaos_on_plus(n_tp // 2) == pytest.approx(9.1610, abs=1e-4)
        assert v_po == pytest.approx(10.3747, abs=1e-4)
        assert poisson_pair.first_chaos_at_one(n_po // 2) == pytest.approx(9.9349, abs=1e-4)
        print(
            f"  degree-one component exceeds 10: two-point at n={n_tp} "
            f"(value {v_tp:.3f}), paired-Poisson at n={n_po} (value {v_po:.3f})"
        )


def test_determinism_contract(tmp_path, capsys, monkeypatch):
    with criterion("byte-level determinism"):
        args = ["simulate", "--example", "poisson", "--n-max", "300", "--reps", "2000",
                "--seed", "31415", "--format", "json"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

        cfg = mc.SimConfig(
            example="poisson", n_max=100, replications=40_000, master_seed=SEED,
            thresholds=(0.5, 1.0, 9.0),
        )
        monkeypatch.setenv("CHAOSLAB_THREADS", "1")
        s1 = mc.run(cfg)
        monkeypatch.setenv("CHAOSLAB_THREADS", "8")
        s8 = mc.run(cfg)
        for stat in mc.STATS:
            assert np.array_equal(s1.sums(stat), s8.sums(stat))
        assert np.array_equal(s1.sup_hits, s8.sup_hits)
        assert np.array_equal(s1.win_hits, s8.win_hits)
