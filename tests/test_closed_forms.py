"""The per-n closed forms of both constructions and of the proof series: where
each one's domain starts, and that a scalar index gives the array result."""

import numpy as np
import pytest

from chaoslab import poisson_pair, series, two_point
from chaoslab.errors import BadIndexError

# (function, first valid index, whether it takes an array of indices); prob
# and intensity take the variable index k, the others the pair index n
CLOSED_FORMS = {
    "two_point.prob": (two_point.prob, 4, True),
    "two_point.second_moment": (two_point.second_moment, 2, False),
    "two_point.fourth_moment": (two_point.fourth_moment, 2, False),
    "two_point.first_chaos_on_plus": (two_point.first_chaos_on_plus, 2, True),
    "poisson_pair.intensity": (poisson_pair.intensity, 2, True),
    "poisson_pair.term": (lambda n: poisson_pair.term(n, 1, 1), 1, False),
    "poisson_pair.second_moment": (poisson_pair.second_moment, 1, False),
    "poisson_pair.fourth_moment": (poisson_pair.fourth_moment, 1, False),
    "poisson_pair.moment52_bound": (poisson_pair.moment52_bound, 1, True),
    "poisson_pair.first_chaos_at_one": (poisson_pair.first_chaos_at_one, 1, True),
    **{f"series.term[{s.value}]": (lambda n, s=s: series.term(s, n), series.START[s], True)
       for s in series.Series},
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_domain_starts_at_the_first_index_and_scalars_match_arrays(name):
    f, first, takes_arrays = CLOSED_FORMS[name]
    with pytest.raises(BadIndexError):
        f(first - 1)
    assert isinstance(f(first), float)
    if not takes_arrays:
        return
    with pytest.raises(BadIndexError):
        f(np.array([first - 1, first]))
    idx = np.arange(first, first + 6)
    values = f(idx)
    for j, k in enumerate(idx):
        scalar = f(int(k))
        assert isinstance(scalar, float)
        assert np.float64(scalar).tobytes() == values[j].tobytes()
