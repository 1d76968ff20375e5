"""chaoslab: desk-scale verification of two chaos-sum convergence counterexamples.

Two explicit constructions - a paired two-point chaos and a paired-Poisson
chaos - have terms that converge to zero in moment norms and almost surely,
while their degree-one chaos components diverge along a recurrent event.
This package makes every desk-checkable claim about them executable:
moment identities by enumeration, tail and decay bounds by certified
truncated series, series convergence by integral-test brackets, and the
stochastic claims by reproducible Monte Carlo.
"""

__version__ = "0.1.0"
