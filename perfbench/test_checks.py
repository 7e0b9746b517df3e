"""The benchmark's checks accept real outputs and reject corrupted ones.

Run from the repository root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from simcol import coupling, dynamics, graphs, oracle  # noqa: E402
from simcol.certify import frac_str  # noqa: E402
from simcol.dynamics import FlipParams  # noqa: E402

DEFAULT = FlipParams.default()


@pytest.fixture(scope="module")
def instance():
    gp = graphs.random_graph_pair(12, 3, 0.5, 4)
    G = graphs.build_union_line_graph(gp)
    return gp, G


def test_improper_coloring_rejected(instance):
    gp, G = instance
    sigma = dynamics.greedy_coloring(G, 12)
    checks.proper_on_edge_lists(gp, G.verts, sigma.assign, 12)
    v = 0
    w = G.nbrs[v][0]
    bad = list(sigma.assign)
    bad[v] = bad[w]
    with pytest.raises(checks.CheckFailed, match="meet at"):
        checks.proper_on_edge_lists(gp, G.verts, bad, 12)


def test_generated_pair_overlap_rejected(instance):
    gp, _ = instance
    checks.generated_pair(gp, 3, 0.5)
    dropped = next(iter(gp.shared_edges))
    fewer = dataclasses.replace(gp, edges2=gp.edges2 - {dropped})
    with pytest.raises(checks.CheckFailed, match="shared edges"):
        checks.generated_pair(fewer, 3, 0.5)


def test_chain_tally_rejected():
    checks.chain_tally(5, {1: 4, 2: 1}, 6)
    with pytest.raises(checks.CheckFailed):
        checks.chain_tally(6, {1: 4, 2: 1}, 6)
    with pytest.raises(checks.CheckFailed):
        checks.chain_tally(5, {1: 4, 7: 1}, 6)


def _certificate_payload(threshold: Fraction) -> dict:
    """The fields the checks read, filled with independently derived values."""
    dc1 = checks.dc1_closed_form_max(DEFAULT.probs)
    return {
        "threshold": frac_str(threshold),
        "all_properties_hold": True,
        "properties": {"p": {"holds": True, "witnesses": []}},
        "maxima": {"dc1": {"enumerated_max": frac_str(dc1), "bound_holds": True}},
    }


def test_threshold_off_by_one_325th_rejected():
    good = checks.weight2_threshold(DEFAULT.probs)
    assert good == Fraction(1933, 325) == checks.weight1_threshold(DEFAULT.probs)
    forms = [checks.weight2_threshold(DEFAULT.probs), checks.weight1_threshold(DEFAULT.probs)]
    checks.certificate(_certificate_payload(good), DEFAULT.probs, forms)
    with pytest.raises(checks.CheckFailed, match="threshold"):
        checks.certificate(_certificate_payload(good + Fraction(1, 325)),
                           DEFAULT.probs, forms)


def test_dc1_maximum_mismatch_rejected():
    payload = _certificate_payload(Fraction(1933, 325))
    payload["maxima"]["dc1"]["enumerated_max"] = "1/2"
    with pytest.raises(checks.CheckFailed, match="dc1"):
        checks.certificate(payload, DEFAULT.probs, [])


def test_failed_branch_bound_rejected():
    payload = _certificate_payload(Fraction(1933, 325))
    checks.branch_bounds_hold(payload)
    payload["maxima"]["dc1"]["bound_holds"] = False
    with pytest.raises(checks.CheckFailed, match="bound"):
        checks.branch_bounds_hold(payload)


@pytest.fixture(scope="module")
def small_kernels():
    gp = graphs.GraphPair(3, frozenset({(1, 2), (2, 3)}), frozenset({(1, 2)}))
    G = graphs.build_union_line_graph(gp)
    return gp, G, {mode: oracle.build_transition_matrix(G, 3, kind="flip", fp=DEFAULT,
                                                        mode=mode)
                   for mode in ("float", "rational")}


def test_rational_row_not_summing_to_one_rejected(small_kernels):
    _, _, P = small_kernels
    checks.kernel_rows(P["rational"])
    rows = [dict(r) for r in P["rational"].rows]
    t = next(iter(rows[5]))
    rows[5][t] += Fraction(1, 7)
    with pytest.raises(checks.CheckFailed, match="row 5 sums"):
        checks.kernel_rows(dataclasses.replace(P["rational"], rows=rows))


def test_float_row_not_summing_to_one_rejected(small_kernels):
    _, _, P = small_kernels
    checks.kernel_rows(P["float"])
    mat = P["float"].rows.copy()
    mat.data[0] += 1e-6
    with pytest.raises(checks.CheckFailed, match="row 0 sums"):
        checks.kernel_rows(dataclasses.replace(P["float"], rows=mat))


def test_brute_force_count_matches_backtracking(small_kernels):
    gp, G, P = small_kernels
    count = checks.brute_force_proper_count(gp, 3)
    assert count == oracle.count_proper(G, 3) == sum(P["rational"].proper)
    # the two edges meet at vertex 2 in g1: 3 * 2 proper colorings
    assert count == 6


def test_stationary_flag_rejected(small_kernels):
    _, _, P = small_kernels
    report = oracle.stationary_check(P["rational"])
    checks.stationary(report, "rational")
    with pytest.raises(checks.CheckFailed, match="aperiodic"):
        checks.stationary(dataclasses.replace(report, aperiodic=False), "rational")


@pytest.fixture(scope="module")
def coupled(instance):
    gp, G = instance
    k = 12
    pair = coupling.sample_adjacent_pairs(G, k, DEFAULT, 1, random.Random(3))[0]
    table = coupling.build_flip_coupling_table(pair, G, k, DEFAULT)
    adj = checks.line_graph_adjacency(gp, G.verts)
    laws = (checks.plain_flip_law(adj, pair.x.assign, k, DEFAULT.probs),
            checks.plain_flip_law(adj, pair.y.assign, k, DEFAULT.probs))
    return G, k, pair, table, laws


def test_shifted_table_mass_rejected(coupled):
    _, _, _, table, (law_x, law_y) = coupled
    checks.marginals_match(table.entries, law_x, law_y)
    first = table.entries[0]
    shifted = (dataclasses.replace(first, mass=first.mass + Fraction(1, 10 ** 6)),
               *table.entries[1:])
    with pytest.raises(checks.CheckFailed, match="marginal"):
        checks.marginals_match(shifted, law_x, law_y)


def test_drift_above_bound_rejected():
    m, k, delta, w = 180, 18, 3, 2
    ratio = checks.weight2_threshold(DEFAULT.probs)
    bound = Fraction(w, m * k) * (ratio * delta - k)
    checks.drift_within_bound(bound, 2, w, m, k, delta, ratio)
    with pytest.raises(checks.CheckFailed, match="above bound"):
        checks.drift_within_bound(bound + Fraction(1, 10 ** 9), 2, w, m, k, delta, ratio)
    # pairs with three same-colored neighbors are outside the certified lemma
    checks.drift_within_bound(bound + 1, 3, w, m, k, delta, ratio)
