"""Release gate: one test per certified claim, run with ``pytest -v``.

Each test pins exact rational values or an explicit numeric tolerance
and prints as its own pass/fail line.  Nothing here is tuned to turn a
red bar green: where a closed form is a slack bound that no shape
reaches, it is pinned as a bound (lemma_value and bound_holds), and the
measured maximum together with attained is asserted next to it, so the
gap stays visible.
"""

import math
import random
from fractions import Fraction

import numpy as np

from helpers import brute_flip_law, numpy_brute_count
from simcol.certify import (
    TARGET_RATIO,
    certify_report,
    rate_maxima,
    threshold_identities,
    threshold_ratio,
    verify_flip_properties,
)
from simcol.coupling import (
    build_flip_coupling_table,
    flip_exact_drift,
    sample_adjacent_pairs,
)
from simcol.dynamics import FlipParams
from simcol.graphs import GraphPair, build_union_line_graph, count_proper, random_graph_pair
from simcol.oracle import build_transition_matrix, stationary_check

DEFAULT = FlipParams.default()
GLAUBER = FlipParams.glauber()
VIOLATION = FlipParams((Fraction(1), Fraction(1, 2), Fraction(1, 2)))

THRESHOLD = Fraction(1933, 325)


def _instance(n, delta, overlap, seed):
    return build_union_line_graph(random_graph_pair(n, delta, overlap, seed))


def _instances_with_degree(delta, count, n, overlap=0.5):
    """First `count` seeds whose generated pair attains max degree delta."""
    found = []
    seed = 1
    while len(found) < count:
        G = _instance(n, delta, overlap, seed)
        if G.delta == delta:
            found.append((seed, G))
        seed += 1
        if seed > 500:
            raise RuntimeError("degree target never attained")
    return found


def test_criterion_01_threshold_identities():
    ids = threshold_identities(DEFAULT)
    assert ids["weight1_direct"] == THRESHOLD
    assert ids["weight2_direct"] == THRESHOLD
    # each branch's enumerated assembly meets its own closed form, so the
    # weight-1 branch is checked even where the weight-2 branch sets the max
    branches = certify_report(DEFAULT)["branch_thresholds"]
    assert {name: Fraction(value) for name, value in branches.items()} == {
        "weight1": ids["weight1_direct"], "weight2": ids["weight2_direct"]}
    # the same two closed forms evaluated from the raw acceptance numbers
    p1, p2, p3 = DEFAULT.p(1), DEFAULT.p(2), DEFAULT.p(3)
    assert 4 + 2 * (p1 + p2 - 2 * p3) == THRESHOLD
    assert 2 + 4 * (Fraction(3, 4) + 2 * p3) == THRESHOLD
    assert threshold_ratio(DEFAULT) == THRESHOLD
    assert threshold_ratio(DEFAULT) < TARGET_RATIO
    assert float(THRESHOLD) < 5.948


def test_criterion_02_flip_parameter_properties():
    good = verify_flip_properties(DEFAULT)
    assert set(good) == {"scaled_gap_bounded", "weighted_gap_bounded",
                         "dominates_next_two", "scaled_mass_nonincreasing"}
    assert all(entry["holds"] for entry in good.values())
    assert all(entry["witnesses"] == [] for entry in good.values())

    bad = verify_flip_properties(VIOLATION)
    assert not bad["scaled_mass_nonincreasing"]["holds"]
    assert {"i": 2} in bad["scaled_mass_nonincreasing"]["witnesses"]


def test_criterion_03_rate_maxima_enumeration():
    maxima = rate_maxima(DEFAULT)

    dc1 = maxima["dc1"]
    assert dc1.enumerated == Fraction(633, 650)
    assert dc1.bound_holds and dc1.attained
    assert any(cfg.x_branch_sizes == (3,) and cfg.y_branch_sizes == (1,)
               for cfg in dc1.maximizers)

    w1 = maxima["w1dc2"]
    assert w1.enumerated == Fraction(1283, 1300)
    assert w1.bound_holds and w1.attained
    shapes = {(cfg.x_branch_sizes, cfg.y_branch_sizes)
              for cfg in w1.maximizers}
    assert shapes == {((3, 3), (1, 1)), ((1, 1), (3, 3))}

    w2 = maxima["w2dc2"]
    # 8*p_3 is a valid upper bound for the weight-2 double-conflict
    # branch, but no shape reaches it; the measured maximum is pinned next
    # to it so the gap stays visible
    assert w2.lemma_value == Fraction(308, 325)
    assert w2.bound_holds
    assert w2.enumerated == Fraction(479, 650)
    assert not w2.attained
    shapes = {(cfg.neighbor_weights, cfg.x_branch_sizes, cfg.y_branch_sizes)
              for cfg in w2.maximizers}
    assert len(w2.maximizers) == len(shapes) == 2
    assert shapes == {((2, 2), (3, 3), (1, 1)), ((2, 2), (1, 1), (3, 3))}
    # the certified ratio is set by dc1 and w1dc2, whichever value this
    # branch takes
    assert max(w2.lemma_value, w2.enumerated) < dc1.enumerated


def test_criterion_04_glauber_is_the_trivial_flip_chain():
    assert threshold_ratio(GLAUBER) == 6

    # exact kernels on a 5-edge path at k=4: 1024 states
    G = build_union_line_graph(GraphPair(
        6, {(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)}, set()))
    Pg = build_transition_matrix(G, 4, kind="glauber", mode="rational")
    Pf = build_transition_matrix(G, 4, kind="flip", fp=GLAUBER,
                                 mode="rational")
    assert Pg.rows == Pf.rows

    # float kernels at the 10^4-state scale: 4-edge path at k=10
    G2 = build_union_line_graph(GraphPair(
        5, {(1, 2), (2, 3), (3, 4), (4, 5)}, set()))
    Qg = build_transition_matrix(G2, 10, kind="glauber", mode="float")
    Qf = build_transition_matrix(G2, 10, kind="flip", fp=GLAUBER,
                                 mode="float")
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(Qg.rows, part), getattr(Qf.rows, part))


def test_criterion_05_coupling_marginals_match_single_chain_law():
    cases = [(6, 2, 0.0), (6, 2, 0.5), (7, 2, 1.0), (7, 3, 0.3),
             (8, 3, 0.5), (8, 3, 0.8), (7, 4, 0.2), (8, 4, 0.5),
             (8, 4, 0.9), (6, 3, 0.6)]
    checked = 0
    for seed, (n, delta, overlap) in enumerate(cases, start=1):
        G = _instance(n, delta, overlap, seed)
        k = 4 * G.delta - 2
        pairs = sample_adjacent_pairs(G, k, DEFAULT, 10, random.Random(seed))
        for pair in pairs:
            table = build_flip_coupling_table(pair, G, k, DEFAULT)
            assert table.total_mass() == 1
            for side, chain in (("x", pair.x), ("y", pair.y)):
                law = brute_flip_law(G, chain.assign, k, DEFAULT)
                agg = {}
                for e in table.entries:
                    mv = e.move_x if side == "x" else e.move_y
                    if mv is None:
                        continue
                    key = (mv.members, mv.colors)
                    agg[key] = agg.get(key, Fraction(0)) + e.mass
                assert agg == law, (seed, side)
            checked += 1
    assert checked >= 100


def test_criterion_06_contraction_at_the_certified_ratio():
    excluded = 0
    in_scope = 0
    for delta in (2, 3, 4):
        k = math.ceil(5.948 * delta)
        assert Fraction(1933 * delta, 325) < k  # ratio sits below k/delta
        n = 10 if delta < 4 else 12
        for seed, G in _instances_with_degree(delta, count=4, n=n):
            mk = G.m * k
            pairs = sample_adjacent_pairs(G, k, DEFAULT, 96,
                                          random.Random(1000 + seed))
            for pair in pairs:
                rep = flip_exact_drift(pair, G, k, DEFAULT)
                if rep.dc_max > 2:
                    excluded += 1
                    continue
                wstar = G.weight[pair.vstar]
                bound = Fraction(wstar, mk) * (Fraction(1933 * delta, 325) - k)
                assert rep.exact_drift <= bound, (delta, seed, pair.vstar)
                in_scope += 1
    assert in_scope >= 1000
    print(f"\ncriterion 6: {in_scope} pairs within the two-conflict scope, "
          f"{excluded} excluded")

    # single-site chain contracts at k = 6*delta + 1 with no exclusions
    for delta in (2, 3, 4):
        k = 6 * delta + 1
        seed, G = _instances_with_degree(delta, count=1, n=10)[0]
        pairs = sample_adjacent_pairs(G, k, DEFAULT, 40, random.Random(seed))
        for pair in pairs:
            rep = flip_exact_drift(pair, G, k, GLAUBER)
            wstar = G.weight[pair.vstar]
            assert rep.exact_drift <= Fraction(-wstar, G.m * k)


def test_criterion_07_uniform_stationarity_on_tiny_instances():
    tiny = [
        (GraphPair(3, {(1, 2), (2, 3)}, set()), 6),            # 36 states
        (GraphPair(4, {(1, 2), (2, 3), (3, 4)}, {(2, 3)}), 6),  # 216
        (GraphPair(5, {(1, 2), (2, 3), (3, 4), (4, 5)},
                   {(3, 4), (4, 5)}), 6),                       # 1296
        (GraphPair(4, {(1, 2), (1, 3), (1, 4)}, set()), 10),    # 1000
        (GraphPair(3, {(1, 2), (2, 3), (1, 3)},
                   {(1, 2), (2, 3), (1, 3)}), 6),               # 216
    ]
    assert len(tiny) >= 5
    for gp, k in tiny:
        G = build_union_line_graph(gp)
        assert k >= 4 * G.delta - 2
        assert k ** G.m <= 10 ** 4
        kernels = [
            build_transition_matrix(G, k, kind="glauber", mode="rational"),
            build_transition_matrix(G, k, kind="flip", fp=DEFAULT,
                                    mode="rational"),
        ]
        for P in kernels:
            rep = stationary_check(P)
            assert rep.proper_closed, (gp, P.mode)
            assert rep.uniform_ok and rep.max_error == 0
            assert rep.irreducible


def test_criterion_08_proper_counts_against_brute_force():
    # closed forms first: one edge, two disjoint edges, two sharing a vertex
    one = build_union_line_graph(GraphPair(2, {(1, 2)}, set()))
    two = build_union_line_graph(GraphPair(4, {(1, 2), (3, 4)}, set()))
    adj = build_union_line_graph(GraphPair(3, {(1, 2), (2, 3)}, set()))
    for k in (2, 3, 7):
        assert count_proper(one, k) == k
        assert count_proper(two, k) == k ** 2
        assert count_proper(adj, k) == k * (k - 1)

    rng = random.Random(8)
    for trial in range(20):
        n = rng.randrange(4, 7)
        delta = rng.randrange(2, 4)
        G = _instance(n, delta, overlap=rng.random(), seed=100 + trial)
        k = 2
        while (k + 1) ** G.m <= 10 ** 6:
            k += 1
        assert count_proper(G, k) == numpy_brute_count(G, k, perm_seed=trial)


def test_criterion_09_sampled_coupling_drift_matches_exact():
    G = _instance(10, 3, 0.5, seed=21)
    k = 18
    pair = sample_adjacent_pairs(G, k, DEFAULT, 1, random.Random(5))[0]
    table = build_flip_coupling_table(pair, G, k, DEFAULT)
    exact = flip_exact_drift(pair, G, k, DEFAULT).exact_drift

    masses = np.array([float(e.mass) for e in table.entries])
    deltas = np.array([e.delta for e in table.entries], dtype=np.float64)
    cum = np.cumsum(masses)
    assert cum[-1] < 1  # the residual is the jointly-null tail

    rng = np.random.default_rng(12345)
    draws = np.searchsorted(cum, rng.random(10 ** 6))
    # residual draws index past the last entry and change nothing
    stepped = np.where(draws < len(deltas),
                       deltas[np.minimum(draws, len(deltas) - 1)], 0.0)
    mean = stepped.mean()
    se = stepped.std(ddof=1) / math.sqrt(len(stepped))
    assert se > 0
    assert abs(mean - float(exact)) <= 3 * se, (mean, float(exact), se)
