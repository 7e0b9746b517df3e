"""Samplers and certified couplings for simultaneous edge colorings.

A coloring here assigns one of k colors to every edge of a pair of
graphs on a shared vertex set, and must be proper within each graph
separately.  The package provides the union-line-graph representation,
single-site and cluster-flip Markov chains, exact rational couplings
with per-move distance accounting, closed-form contraction certificates
for the flip parameters, and brute-force oracles for desk-scale
verification.
"""

from .certify import certify_report, rate_maxima, threshold_ratio, verify_flip_properties
from .coupling import (AdjacentPair, build_flip_coupling_table, coupled_flip_step,
                       coupled_glauber_step, estimate_contraction, flip_exact_drift,
                       glauber_exact_drift, sample_adjacent_pairs, weighted_hamming)
from .dynamics import (Coloring, FlipParams, flip_step, glauber_step,
                       greedy_coloring, is_proper, run_chain)
from .graphs import (GraphPair, ParseError, UnionLineGraph,
                     build_union_line_graph, random_graph_pair, read_instance,
                     write_instance)
from .oracle import (CapExceeded, StateIndex, build_transition_matrix,
                     count_proper, oracle_report, stationary_check,
                     tv_mixing_time)

__version__ = "0.1.0"

__all__ = [
    "AdjacentPair", "CapExceeded", "Coloring", "FlipParams", "GraphPair",
    "ParseError", "StateIndex", "UnionLineGraph",
    "build_flip_coupling_table", "build_transition_matrix",
    "build_union_line_graph", "certify_report", "count_proper",
    "coupled_flip_step", "coupled_glauber_step",
    "estimate_contraction", "flip_exact_drift", "flip_step",
    "glauber_exact_drift", "glauber_step", "greedy_coloring", "is_proper",
    "oracle_report", "random_graph_pair", "rate_maxima",
    "read_instance", "run_chain", "sample_adjacent_pairs",
    "stationary_check", "threshold_ratio",
    "tv_mixing_time", "verify_flip_properties", "weighted_hamming",
    "write_instance",
]
