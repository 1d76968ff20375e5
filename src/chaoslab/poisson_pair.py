"""The paired-Poisson counterexample construction.

Counts Y_k ~ Poisson(lambda_k) with lambda_2n = n^(-3/4) and
lambda_(2n+1) = n^(-5/16) are paired as (Y_2n, Y_2n+1); the study sequence

    F_n = lambda_(2n+1) X_2n + sqrt(lambda_(2n+1)) X_2n X_2n+1

collapses per realization to X_2n Y_2n+1.  Its 5/2-moment decays like
sqrt(120) n^(-1/8), the running supremum M has an explicit polynomial tail
bound for t >= 9, and the degree-one component lambda_(2n+1) X_2n equals
n^(1/16) - n^(-11/16) on the recurrent event {Y_2n = 1}, hence diverges.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadIndexError
from .pair_model import PairModel, PairTables
from .poisson_moments import abs_central_moment, raw_abs_moment, raw_moment_4
from .series import Series, limit_constant

START_N = 1


def intensity(k) -> np.ndarray | float:
    """Poisson intensity lambda_k for variable index k >= 2, by parity of k."""
    k_arr = np.asarray(k, dtype=np.int64)
    if np.any(k_arr < 2 * START_N):
        raise BadIndexError(f"intensities are defined for k >= {2 * START_N}")
    n = (k_arr // 2).astype(np.float64)
    out = np.where((k_arr % 2) == 0, np.power(n, -0.75), np.power(n, -5.0 / 16.0))
    return out[()]


def term(n: int, y_even: int, y_odd: int) -> float:
    """F_n in collapsed form X_2n * Y_2n+1; a zero F_n is 0.0, never -0.0."""
    lam = intensity(2 * n)
    x_even = (float(y_even) - lam) / math.sqrt(lam)
    return x_even * y_odd if y_odd else 0.0


def second_moment(n: int) -> float:
    """E(F_n^2) = lambda_(2n+1)(1 + lambda_(2n+1)), by independence."""
    lam_odd = intensity(2 * n + 1)
    return lam_odd * (1.0 + lam_odd)


def fourth_moment(n: int) -> float:
    """E(F_n^4) = E(X_2n^4) E(Y_2n+1^4), with E(X^4) = 3 + 1/lambda_2n."""
    return (3.0 + 1.0 / intensity(2 * n)) * raw_moment_4(intensity(2 * n + 1))


def moment52_bound(n) -> np.ndarray | float:
    """Decay bound sqrt(120) n^(-1/8) on E|F_n|^(5/2)."""
    x = np.asarray(n, dtype=np.float64)
    if np.any(x < START_N):
        raise BadIndexError(f"pair index must be >= {START_N}")
    out = math.sqrt(120.0) * np.power(x, -0.125)
    return out[()]


def moment52_exact(n: int) -> float:
    """E|F_n|^(5/2) by independence factorization of the collapsed form.

    Equals E|Y_2n - lambda_2n|^(5/2) / lambda_2n^(5/4) * E(Y_2n+1^(5/2)),
    each factor a certified truncated series.
    """
    lam_even = intensity(2 * n)
    lam_odd = intensity(2 * n + 1)
    centered = abs_central_moment(lam_even, 2.5).value
    raw = raw_abs_moment(lam_odd, 2.5).value
    return centered / lam_even**1.25 * raw


def sup_tail_bound(t: float) -> float:
    """Upper bound on P(sup_n |F_n| > t), valid for t >= 9.

    Three terms: b t^(-1/4) from the thin-intensity regime, the
    cross-intensity tail 16 (t^(2/3)-1)^(-1/16), and a (sqrt(t)-1)^(-2)
    from the factorial tail of the odd counts; a and b are the certified
    upper brackets of the two intensity series.
    """
    if t < 9.0:
        raise BadIndexError(f"sup tail bound is stated for t >= 9, got {t}")
    a = limit_constant(Series.INTENSITY_FOURTH).upper
    b = limit_constant(Series.INTENSITY_CROSS).upper
    return (
        b * t**-0.25
        + 16.0 * (t ** (2.0 / 3.0) - 1.0) ** (-1.0 / 16.0)
        + a / (math.sqrt(t) - 1.0) ** 2
    )


def sup_moment_bound(delta: float = 1.0 / 48.0) -> float:
    """Certified finite upper bound on E(M^delta), M = sup_n |F_n|.

    E(M^delta) = int_0^inf P(M > u^(1/delta)) du; splitting at u = 9^delta
    and substituting t = u^(1/delta) leaves delta * int_9^inf B(t) t^(delta-1) dt
    with B the three-term sup tail bound.  Each term is majorized by a pure
    power of t on t >= 9 (using t^(2/3)-1 >= t^(2/3)(1-9^(-2/3)) and
    sqrt(t)-1 >= (2/3) sqrt(t)), so the integral has a closed form.  Needs
    delta < 1/24 for the middle term to be integrable.
    """
    if not 0.0 < delta < 1.0 / 24.0:
        raise BadIndexError(f"moment order must lie in (0, 1/24), got {delta}")
    a = limit_constant(Series.INTENSITY_FOURTH).upper
    b = limit_constant(Series.INTENSITY_CROSS).upper
    first = b * 9.0 ** (delta - 0.25) / (0.25 - delta)
    c2 = (1.0 - 9.0 ** (-2.0 / 3.0)) ** (-1.0 / 16.0)
    middle = 16.0 * c2 * 9.0 ** (delta - 1.0 / 24.0) / (1.0 / 24.0 - delta)
    last = a * 2.25 * 9.0 ** (delta - 1.0) / (1.0 - delta)
    return 9.0**delta + delta * (first + middle + last)


def first_chaos_at_one(n) -> np.ndarray | float:
    """Closed form of the degree-one component on {Y_2n = 1}.

    lambda_(2n+1)(1 - lambda_2n)/sqrt(lambda_2n) = n^(1/16) - n^(-11/16).
    """
    x = np.asarray(n, dtype=np.float64)
    if np.any(x < START_N):
        raise BadIndexError(f"pair index must be >= {START_N}")
    out = np.power(x, 1.0 / 16.0) - np.power(x, -11.0 / 16.0)
    return out[()]


def pair_tables(n: np.ndarray) -> PairTables:
    """Engine tables; the event is {Y_2n = 1} and C_2n+1 = Y_2n+1."""
    lam_even = intensity(2 * n)
    lam_odd = intensity(2 * n + 1)
    sqrt_lam_even = np.sqrt(lam_even)
    cond_obs = lam_odd * ((1.0 - lam_even) / sqrt_lam_even)
    closed = first_chaos_at_one(n)
    safe = np.where(closed == 0.0, 1.0, closed)  # the closed form vanishes at n = 1
    return PairTables(
        n_values=n, coef=lam_odd, rel_dev=np.abs(np.abs(cond_obs) - closed) / np.abs(safe),
        event_prob=np.exp(-lam_even) * lam_even,
        q_even=-np.expm1(-lam_even), q_odd=-np.expm1(-lam_odd),
        rate_even=lam_even, rate_odd=lam_odd, x_loc=lam_even, x_scale=sqrt_lam_even,
    )


MODEL = PairModel(
    start_n=START_N, tables=pair_tables, second_moment=second_moment,
    fourth_moment=fourth_moment, moment52_bound=moment52_bound,
)
