"""The shape both counterexamples share, as seen by the Monte Carlo engine.

Each construction pairs its variables as (Y_2n, Y_2n+1) and studies
F_n = c_n X_2n + d_n X_2n X_2n+1, which collapses per realization to
X_2n g(Y_2n+1); its degree-one part c_n X_2n has a closed form on a
recurrent event.  A construction module describes itself once as a
PairModel; the Monte Carlo engine and `simulate` reach it only that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# (row, u_even, u_odd) -> (x_even, idx, f_nz, event): X_2n for every
# trajectory, the trajectories where F_n may be nonzero, F_n there, and the
# recurrence indicator; row is n - start_n.
Draw = Callable[[int, np.ndarray, np.ndarray], tuple[np.ndarray, ...]]


@dataclass(frozen=True)
class PairTables:
    """Per-n scalars and the per-row draw, built once per run; rows are n - start_n."""

    n_values: np.ndarray
    coef: np.ndarray          # degree-one coefficient: p_(2n+1) or lambda_(2n+1)
    cond_obs: np.ndarray      # engine value of |degree-one part| on the event
    closed_form: np.ndarray   # analytic closed form of the same quantity
    rel_dev: np.ndarray       # |cond_obs - closed_form| / closed_form
    event_prob: np.ndarray    # exact probability of the recurrence event
    draw: Draw


@dataclass(frozen=True)
class PairModel:
    start_n: int
    tables: Callable[[np.ndarray], PairTables]  # pair indices start_n..n_max
    second_moment: Callable[[int], float]       # exact E(F_n^2)
    # Decay bound on E|F_n|^(5/2), where the paper states one.
    moment52_bound: Callable[[int], float] | None = None
