"""The two-point counterexample construction.

Signs Y_k with P(Y_k = 1) = p_k are paired as (Y_2n, Y_2n+1); the study
sequence is built from the normalized variables,

    F_n = p_(2n+1) X_2n + sqrt(p_(2n+1)(1 - p_(2n+1))) X_2n X_2n+1,

with p_(2n) = 1/n and p_(2n+1) = n^(-1/sqrt(log n)) for n >= 2.  The
bracket multiplying X_2n equals the indicator of {Y_2n+1 = 1}, so per
realization F_n collapses to X_2n 1{Y_2n+1 = 1}: the sequence dies in
second moment while its degree-one component p_(2n+1) X_2n blows up along
the recurrent event {Y_2n = 1}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadIndexError
from .pair_model import PairModel, PairTables
from .variables import TwoPointSpec, two_point_from_p

START_N = 2


def prob(k) -> np.ndarray | float:
    """Sign probability p_k for variable index k >= 4, by parity of k."""
    k_arr = np.asarray(k, dtype=np.int64)
    if np.any(k_arr < 2 * START_N):
        raise BadIndexError(f"sign probabilities are defined for k >= {2 * START_N}")
    n = k_arr // 2
    even = (k_arr % 2) == 0
    x = n.astype(np.float64)
    out = np.where(even, 1.0 / x, np.exp(-np.sqrt(np.log(x))))
    if out.ndim == 0:
        return float(out)
    return out


def even_spec(n: int) -> TwoPointSpec:
    return two_point_from_p(prob(2 * n))


def odd_spec(n: int) -> TwoPointSpec:
    return two_point_from_p(prob(2 * n + 1))


def term(n: int, x_even: float, x_odd: float) -> float:
    """F_n evaluated from the two normalized values."""
    if n < START_N:
        raise BadIndexError(f"pair index must be >= {START_N}")
    p = prob(2 * n + 1)
    return p * x_even + math.sqrt(p * (1.0 - p)) * x_even * x_odd


def second_moment(n: int) -> float:
    """E(F_n^2); equals the odd sign probability p_(2n+1)."""
    if n < START_N:
        raise BadIndexError(f"pair index must be >= {START_N}")
    return prob(2 * n + 1)


def fourth_moment(n: int) -> float:
    """E(F_n^4) = E(X_2n^4) p_(2n+1), with E(X^4) = (1-p)^2/p + p^2/(1-p) at p = p_2n."""
    if n < START_N:
        raise BadIndexError(f"pair index must be >= {START_N}")
    p = prob(2 * n)
    return ((1.0 - p) ** 2 / p + p * p / (1.0 - p)) * prob(2 * n + 1)


def first_chaos(n: int, x_even: float) -> float:
    """Degree-one chaos component of F_n: p_(2n+1) * X_2n."""
    if n < START_N:
        raise BadIndexError(f"pair index must be >= {START_N}")
    return prob(2 * n + 1) * x_even


def first_chaos_on_plus(n) -> np.ndarray | float:
    """Closed form of the degree-one component on {Y_2n = 1}.

    p_(2n+1) sqrt((1-p_2n)/p_2n) = sqrt(n-1) n^(-1/sqrt(log n)); unbounded.
    """
    x = np.asarray(n, dtype=np.float64)
    if np.any(x < START_N):
        raise BadIndexError(f"pair index must be >= {START_N}")
    out = np.sqrt(x - 1.0) * np.exp(-np.sqrt(np.log(x)))
    if out.ndim == 0:
        return float(out)
    return out


def scan_first_chaos_exceeds(threshold: float, n_cap: int = 2**62) -> tuple[int, float]:
    """First doubling index where the on-plus closed form exceeds the threshold."""
    n = START_N
    while n <= n_cap:
        value = first_chaos_on_plus(n)
        if value > threshold:
            return n, value
        n *= 2
    raise BadIndexError(f"closed form stayed <= {threshold} up to n={n_cap}")


def pair_tables(n: np.ndarray) -> PairTables:
    """Engine tables; the counts are the indicators of +1 signs, so the event
    is {Y_2n = 1} and C_2n+1 = 1{Y_2n+1 = 1}."""
    p_even = np.asarray(prob(2 * n))
    p_odd = np.asarray(prob(2 * n + 1))
    cond_obs = p_odd * np.sqrt((1.0 - p_even) / p_even)
    closed = np.asarray(first_chaos_on_plus(n))
    one = np.zeros_like(p_even)  # truncated-Poisson rate 0: a nonzero count is 1
    return PairTables(
        n_values=n, coef=p_odd, rel_dev=np.abs(cond_obs - closed) / closed, event_prob=p_even,
        q_even=p_even, q_odd=p_odd, rate_even=one, rate_odd=one,
        x_loc=p_even, x_scale=np.sqrt(p_even * (1.0 - p_even)),
    )


MODEL = PairModel(
    start_n=START_N, tables=pair_tables, second_moment=second_moment,
    fourth_moment=fourth_moment,
)
