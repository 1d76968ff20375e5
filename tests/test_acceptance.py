"""Acceptance suite: every exit criterion at its stated tolerance.

Run as `pytest -s tests/test_acceptance.py` to see one line per criterion.
The two Monte Carlo fixtures are module-scoped; the full module finishes
in a couple of minutes on a laptop core.
"""

import math
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
        for n in (16, 256):
            i = n - 1
            assert mean[i] <= poisson_pair.moment52_bound(n) + 3 * se[i]


def test_sup_tail_bound(big_poisson_run):
    with criterion("supremum tail bound"):
        for t in SUP_TAIL_T:
            p, se = (a[0] for a in big_poisson_run.sup_exceedance(t))
            bound = poisson_pair.sup_tail_bound(t)
            assert p - 3 * se <= bound


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
            law = scipy.stats.binom(r, exact)
            p_value = min(1.0, 2.0 * min(law.cdf(hits), law.sf(hits - 1)))
            print(f"  t={t:g}: {hits}/{r} against exact {exact:.6g}, p = {p_value:.3g}")
            assert p_value >= 2e-3 / len(SUP_TAIL_T)


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
        for stat in mc.STAT_NAMES:
            assert np.array_equal(s1.sums(stat), s8.sums(stat))
        assert np.array_equal(s1.sup_hits, s8.sup_hits)
        assert np.array_equal(s1.win_hits, s8.win_hits)
