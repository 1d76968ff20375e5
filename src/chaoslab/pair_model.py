"""The shape both counterexamples share, as seen by the Monte Carlo engine.

Each construction pairs its variables as (Y_2n, Y_2n+1) and studies
F_n = c_n X_2n + d_n X_2n X_2n+1, which collapses per realization to
X_2n C_2n+1 with C_2n+1 a count; its degree-one part c_n X_2n has a closed
form on a recurrent event.  A construction module describes itself once as
a PairModel; the Monte Carlo engine and `simulate` reach it only that way.

The engine sees each variable as a count that is zero except on a rare
event: a Poisson count itself, or the indicator of a +1 sign.  A count is
nonzero with probability q_n, and a nonzero count follows a zero-truncated
Poisson law of rate nu_n, where nu_n = 0 is the point mass at 1; the rates
of one parity are all 0 or all positive.  The even
count Y maps to X_2n = (Y - x_loc_n) / x_scale_n, the odd count is C_2n+1,
and the recurrence event is {Y = 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class PairTables:
    """Per-n arrays, built once per run; rows are n - start_n."""

    n_values: np.ndarray
    coef: np.ndarray          # degree-one coefficient: p_(2n+1) or lambda_(2n+1)
    rel_dev: np.ndarray       # |degree-one part on the event - closed form| / closed form
    event_prob: np.ndarray    # exact probability of the recurrence event
    q_even: np.ndarray        # P(even count != 0)
    q_odd: np.ndarray         # P(odd count != 0)
    rate_even: np.ndarray     # zero-truncated Poisson rate of a nonzero even count
    rate_odd: np.ndarray      # the same for the odd count
    x_loc: np.ndarray         # X_2n = (even count - x_loc) / x_scale
    x_scale: np.ndarray


@dataclass(frozen=True)
class PairModel:
    start_n: int
    tables: Callable[[np.ndarray], PairTables]  # pair indices start_n..n_max
    second_moment: Callable[[int], float]       # exact E(F_n^2)
    fourth_moment: Callable[[int], float]       # exact E(F_n^4)
    # Decay bound on E|F_n|^(5/2), where the paper states one.
    moment52_bound: Callable[[int], float] | None = None
