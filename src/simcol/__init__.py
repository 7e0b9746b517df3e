"""Samplers and certified couplings for simultaneous edge colorings.

A coloring here assigns one of k colors to every edge of a pair of
graphs on a shared vertex set, and must be proper within each graph
separately.  The package provides the union-line-graph representation,
single-site and cluster-flip Markov chains, exact rational couplings
with per-move distance accounting, closed-form contraction certificates
for the flip parameters, and brute-force oracles for desk-scale
verification.  Import each name from its module (``simcol.dynamics``
and so on): the package itself loads none of them.
"""

__version__ = "0.1.0"
