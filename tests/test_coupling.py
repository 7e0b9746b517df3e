import dataclasses
import random
import re
from fractions import Fraction

import pytest

import simcol.coupling as coupling
from helpers import (apply_move, brute_flip_law, brute_glauber_drift, jerrum_partner_color,
                     reference_adjacent_pairs)
from simcol.certify import rate_maxima, threshold_ratio
from simcol.coupling import (AdjacentPair, _assemble_flip_table,
                             build_flip_coupling_table, estimate_contraction,
                             flip_exact_drift, flip_move_law,
                             sample_adjacent_pairs, weighted_hamming)
from simcol.dynamics import Coloring, FlipParams, alternating_component, is_proper
from simcol.graphs import GraphPair, build_union_line_graph, random_graph_pair
from simcol.matching import MatchedPair

DEFAULT = FlipParams.default()
GLAUBER = FlipParams.glauber()

# Worked instance: a 4-edge path whose last two edges repeat in the
# second graph, so the union line graph is a weighted 4-path with
# weights (1, 1, 2, 2).  All quantities below were derived by hand.
WORKED_GP = GraphPair(5, frozenset({(1, 2), (2, 3), (3, 4), (4, 5)}),
                      frozenset({(3, 4), (4, 5)}))
WORKED_G = build_union_line_graph(WORKED_GP)


def worked_pair(k=6):
    x = Coloring(assign=[1, 3, 1, 3], k=k)
    y = Coloring(assign=[2, 3, 1, 3], k=k)
    return AdjacentPair(x=x, y=y, vstar=0)


def random_pairs(n, delta, k, seed, count):
    gp = random_graph_pair(n=n, delta=delta, overlap=0.5, seed=seed)
    G = build_union_line_graph(gp)
    pairs = sample_adjacent_pairs(G, k, DEFAULT, count, random.Random(seed + 1))
    return G, pairs


SCHEDULES = (
    DEFAULT,
    FlipParams.glauber(),
    FlipParams((Fraction(1), Fraction(1, 2), Fraction(1, 2))),
    FlipParams((Fraction(1), Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))),
)


def three_conflict_pair():
    # the pair `simcol drift --k 24 --pairs 1 --seed 78` samples on
    # `simcol gen --n 10 --delta 4 --overlap 0.6 --seed 78`; one color
    # has three neighbors of vstar
    G = build_union_line_graph(random_graph_pair(n=10, delta=4, overlap=0.6, seed=78))
    return G, sample_adjacent_pairs(G, 24, DEFAULT, 1, random.Random(78))[0]


def doubled_path_pair():
    # every edge of the 7-edge path is carried by both graphs, so all
    # weights are 2; color 3 sits on both neighbors of vstar = (4, 5)
    E = {(i, i + 1) for i in range(1, 8)}
    G = build_union_line_graph(GraphPair(8, E, E))
    vstar = G.verts.index((4, 5))
    x = Coloring(assign=[3, 1, 3, 1, 3, 1, 3], k=6)
    y = Coloring(assign=[3, 1, 3, 2, 3, 1, 3], k=6)
    return G, AdjacentPair(x=x, y=y, vstar=vstar)


def extremal_pair(delta, k):
    """A shared edge with delta - 1 pendant edges of each graph at each end.

    The disagreement sits on the shared edge (weight 2); its 4(delta - 1)
    neighbors, all weight 1, hold the distinct colors 1..4(delta - 1), and
    x, y put the next two colors on it.
    """
    n, e1, e2 = 2, {(1, 2)}, {(1, 2)}
    for end in (1, 2):
        for edges in (e1, e2):
            for _ in range(delta - 1):
                n += 1
                edges.add((end, n))
    G = build_union_line_graph(GraphPair(n, frozenset(e1), frozenset(e2)))
    vstar = G.verts.index((1, 2))
    assign = [0] * G.m
    for c, w in enumerate(G.nbrs[vstar], start=1):
        assign[w] = c
    assign[vstar] = 4 * (delta - 1) + 1
    x = Coloring(assign=list(assign), k=k)
    assign[vstar] += 1
    return G, AdjacentPair(x=x, y=Coloring(assign=assign, k=k), vstar=vstar)


def full_table_drift(pair, G, k, fp):
    """Drift, per-color numerators, dc_max and clamps from the full table."""
    table, alphas = _assemble_flip_table(pair, G, k, fp)
    drift = sum((e.mass * e.delta for e in table.entries), Fraction(0))
    return drift, alphas, table


def sampled_cases():
    """(fp, G, k, pair) for the pairs of the sampled local-vs-full test."""
    for fp in SCHEDULES:
        for delta in (2, 3, 4):
            gp = random_graph_pair(n=10, delta=delta, overlap=0.6, seed=78 + delta)
            G = build_union_line_graph(gp)
            for k in (4 * G.delta - 2, 6 * G.delta):
                for pr in sample_adjacent_pairs(G, k, fp, 9, random.Random(delta + k)):
                    yield fp, G, k, pr


def constructed_cases():
    """(fp, G, k, pair) for the constructed pairs, every schedule."""
    for fp in SCHEDULES:
        G, pr = doubled_path_pair()
        yield fp, G, 6, pr
        for delta in (2, 3):
            k = 4 * (delta - 1) + 2
            G, pr = extremal_pair(delta, k)
            yield fp, G, k, pr
    G, pr = three_conflict_pair()
    yield DEFAULT, G, 24, pr


def region_of(pair, G, k, fp):
    """The consumed moves on each side and the closed neighborhood of their members."""
    used_x, used_y = coupling._consumed(coupling._color_moves(pair, G, k, fp)[0])
    touched = set().union(*(mv.members for mv in (*used_x, *used_y)))
    return used_x, used_y, touched.union(*(G.nbrs[u] for u in touched))


class TestBasics:
    def test_weighted_hamming(self):
        x = Coloring(assign=[1, 3, 1, 3], k=6)
        y = Coloring(assign=[2, 3, 2, 3], k=6)
        assert weighted_hamming(x, y, WORKED_G) == 1 + 2

    def test_weighted_hamming_rejects_mismatch(self):
        with pytest.raises(ValueError):
            weighted_hamming(Coloring(assign=[1, 2], k=3),
                             Coloring(assign=[1, 2, 3], k=3), WORKED_G)

    def test_adjacent_pair_validates_single_difference(self):
        with pytest.raises(ValueError):
            AdjacentPair(x=Coloring(assign=[1, 3, 1, 3], k=6),
                         y=Coloring(assign=[2, 4, 1, 3], k=6), vstar=0)

    @pytest.mark.parametrize("y", [Coloring(assign=[2, 3, 1], k=6),
                                   Coloring(assign=[2, 3, 1, 3], k=7)], ids=["m", "k"])
    def test_adjacent_pair_refuses_another_state_space(self, y):
        with pytest.raises(ValueError, match="^chains must share the state space$"):
            AdjacentPair(x=Coloring(assign=[1, 3, 1, 3], k=6), y=y, vstar=0)

    def test_drift_refuses_a_pair_at_another_k(self):
        with pytest.raises(ValueError, match="^pair and k disagree$"):
            flip_exact_drift(worked_pair(k=6), WORKED_G, 7, DEFAULT)

    def test_adjacent_pair_exposes_disagreement_colors(self):
        pr = worked_pair()
        assert (pr.xstar, pr.ystar) == (1, 2)


class TestFlipMoveLaw:
    def test_matches_brute_enumeration(self):
        for seed in range(6):
            gp = random_graph_pair(n=8, delta=3, overlap=0.5, seed=seed)
            G = build_union_line_graph(gp)
            k = 4 * G.delta - 2
            G_pairs = sample_adjacent_pairs(G, k, DEFAULT, 1, random.Random(seed))
            sigma = G_pairs[0].x
            law = flip_move_law(G, sigma, DEFAULT)
            brute = brute_flip_law(G, sigma.assign, k, DEFAULT)
            den = G.m * k * DEFAULT.units.den
            as_tuples = {(mv.members, mv.colors): Fraction(n, den)
                         for mv, n in law.items()}
            assert as_tuples == brute

    def test_total_mass_at_most_one(self):
        sigma = worked_pair().x
        law = flip_move_law(WORKED_G, sigma, DEFAULT)
        total = sum(law.values())
        assert 0 < total <= WORKED_G.m * sigma.k * DEFAULT.units.den


class TestWorkedInstance:
    """Frozen hand-derived values for the weighted 4-path pair."""

    def test_structure(self):
        assert WORKED_G.verts == ((1, 2), (2, 3), (3, 4), (4, 5))
        assert WORKED_G.weight == (1, 1, 2, 2)
        assert WORKED_G.delta == 2

    def test_exact_drift(self):
        rep = flip_exact_drift(worked_pair(), WORKED_G, 6, DEFAULT)
        assert rep.exact_drift == Fraction(-2617, 15600)
        assert rep.dc_max == 1
        assert rep.clamp_events == 0

    def test_single_disagreement_color_term_attains_branch_max(self):
        # color 3 is the one color held by a neighbor of the disagreement
        # vertex; its shape is the (3, 1)-branch maximizer, so its term
        # must equal the certified branch maximum exactly
        rep = flip_exact_drift(worked_pair(), WORKED_G, 6, DEFAULT)
        term = rep.per_color[3]
        mk = WORKED_G.m * 6
        assert term.dc == 1 and term.weight == 1
        assert term.alpha * mk == Fraction(633, 650)

    def test_coalescing_colors_contribute_minus_weight(self):
        rep = flip_exact_drift(worked_pair(), WORKED_G, 6, DEFAULT)
        mk = WORKED_G.m * 6
        for c, term in rep.per_color.items():
            if term.dc == 0:
                assert term.alpha == Fraction(-1, mk)

    def test_drift_decomposition(self):
        rep = flip_exact_drift(worked_pair(), WORKED_G, 6, DEFAULT)
        # five colors coalesce at -W(v*)/(mk), one runs the matched
        # branch shape
        mk = WORKED_G.m * 6
        expect = 5 * Fraction(-1, mk) + Fraction(633, 650) / mk
        assert rep.exact_drift == expect

    def test_table_masses_and_marginals(self):
        pr = worked_pair()
        table = build_flip_coupling_table(pr, WORKED_G, 6, DEFAULT)
        assert table.total_mass() == 1  # entries plus jointly-null residual
        assert all(e.mass > 0 for e in table.entries)
        for side, chain in (("x", pr.x), ("y", pr.y)):
            law = brute_flip_law(WORKED_G, chain.assign, 6, DEFAULT)
            agg = {}
            for e in table.entries:
                mv = e.move_x if side == "x" else e.move_y
                if mv is None:
                    continue
                key = (mv.members, mv.colors)
                agg[key] = agg.get(key, Fraction(0)) + e.mass
            assert agg == law, side

    def test_entry_deltas_match_move_application(self):
        pr = worked_pair()
        table = build_flip_coupling_table(pr, WORKED_G, 6, DEFAULT)
        for e in table.entries:
            xa = list(pr.x.assign)
            ya = list(pr.y.assign)
            if e.move_x is not None:
                xa = apply_move(xa, e.move_x.members, e.move_x.colors)
            if e.move_y is not None:
                ya = apply_move(ya, e.move_y.members, e.move_y.colors)
            after = sum(WORKED_G.weight[v] for v in range(WORKED_G.m)
                        if xa[v] != ya[v])
            assert after - 1 == e.delta


class TestGlauberCoupling:
    """Glauber's drift is the flip coupling at p = (1,); the reference is
    Jerrum's transposition coupling, enumerated over all m*k proposals."""

    def test_partner_map_is_identity_off_neighborhood(self):
        pr = worked_pair()
        for c in range(1, 7):
            assert jerrum_partner_color(WORKED_G, pr, 2, c) == c
            assert jerrum_partner_color(WORKED_G, pr, 0, c) == c

    def test_partner_map_transposes_on_neighborhood(self):
        pr = worked_pair()
        v = 1  # the only neighbor of vstar = 0
        assert jerrum_partner_color(WORKED_G, pr, v, 1) == 2
        assert jerrum_partner_color(WORKED_G, pr, v, 2) == 1
        assert jerrum_partner_color(WORKED_G, pr, v, 5) == 5

    def test_partner_map_is_bijection_everywhere(self):
        G, pairs = random_pairs(n=9, delta=3, k=11, seed=5, count=3)
        for pr in pairs:
            for v in range(G.m):
                image = {jerrum_partner_color(G, pr, v, c)
                         for c in range(1, 12)}
                assert image == set(range(1, 12))

    @pytest.mark.parametrize("metric", ["weighted", "unit"])
    def test_exact_drift_matches_brute_enumeration(self, metric):
        cases = []
        for seed in range(8):
            G, pairs = random_pairs(n=8, delta=3, k=12, seed=seed, count=2)
            cases += [(G, pr, 12) for pr in pairs]
        cases.append((*three_conflict_pair(), 24))
        over_2 = 0
        for G, pr, k in cases:
            if metric == "unit":
                G = dataclasses.replace(G, weight=(1,) * G.m)
            rep = flip_exact_drift(pr, G, k, GLAUBER)
            assert rep.exact_drift == brute_glauber_drift(G, pr, k)
            over_2 += rep.dc_max > 2
        assert over_2 >= 1

    def test_structured_bound_holds(self):
        for seed in range(6):
            G, pairs = random_pairs(n=8, delta=3, k=6 * 3 + 1, seed=seed, count=3)
            mk = G.m * 19
            for pr in pairs:
                rep = flip_exact_drift(pr, G, 19, GLAUBER)
                wstar = G.weight[pr.vstar]
                nbrs = G.nbrs[pr.vstar]
                # Jerrum's per-pair bound: vstar coalesces on every color
                # free at it, each neighbor can disagree anew
                bound = Fraction(-wstar * (19 - len(nbrs))
                                 + sum(G.weight[w] for w in nbrs), mk)
                assert rep.exact_drift <= bound
                assert bound <= Fraction(-wstar, mk)


class TestFlipCouplingDrift:
    def test_flip_with_singleton_probabilities_equals_glauber(self):
        for seed in range(6):
            G, pairs = random_pairs(n=8, delta=3, k=12, seed=seed + 20, count=2)
            for pr in pairs:
                fg = flip_exact_drift(pr, G, 12, FlipParams((Fraction(1),)))
                assert fg.exact_drift == brute_glauber_drift(G, pr, 12)

    def test_per_color_terms_respect_certified_branch_maxima(self):
        maxima = rate_maxima(DEFAULT)
        checked = 0
        for seed in range(10):
            G, pairs = random_pairs(n=9, delta=3, k=12, seed=seed + 40, count=3)
            for pr in pairs:
                rep = flip_exact_drift(pr, G, 12, DEFAULT)
                mk = G.m * 12
                wstar = G.weight[pr.vstar]
                for term in rep.per_color.values():
                    if term.dc == 0 or term.dc > 2:
                        continue
                    if term.dc == 1:
                        cap = maxima["dc1"].enumerated
                    else:
                        key = "w1dc2" if wstar == 1 else "w2dc2"
                        cap = maxima[key].enumerated
                    rate = (term.alpha * mk - (term.dc - 1) * wstar) / term.weight
                    assert rate <= cap
                    checked += 1
        assert checked > 30

    def test_doubled_path_reaches_weight2_double_disagreement_maximum(self):
        # color 3's branches through the two neighbors of vstar have size
        # 3 in the {1, 3} component of x and size 1 in the {2, 3}
        # component of y
        G, pr = doubled_path_pair()
        rep = flip_exact_drift(pr, G, 6, DEFAULT)
        term = rep.per_color[3]
        wstar = G.weight[pr.vstar]
        assert term.dc == 2 and wstar == 2
        rate = (term.alpha * G.m * 6 - (term.dc - 1) * wstar) / term.weight
        assert rate == rate_maxima(DEFAULT)["w2dc2"].enumerated == Fraction(479, 650)

    @pytest.mark.parametrize("fp, drift, alpha, tight", [
        (DEFAULT, Fraction(-17, 7800), Fraction(211, 10400), Fraction(1933, 325)),
        (GLAUBER, Fraction(0), Fraction(1, 48), Fraction(6)),
    ], ids=["default", "glauber"])
    def test_drift_bound_is_tight_with_delta_minus_one(self, fp, drift, alpha, tight):
        # a weight-2 vstar whose four weight-1 neighbors hold four distinct
        # colors, each a dc1 color at the dc1 maximum: the k at which this
        # pair's drift would reach 0 is threshold_ratio * (delta - 1)
        # exactly, while the bound itself is still priced at delta
        G = build_union_line_graph(random_graph_pair(6, 2, 0.5, 1))
        assert (G.m, G.delta, G.weight[0]) == (8, 2, 2)
        k = 6
        x = [1, 2, 3, 4, 5, 1, 1, 6]
        pr = AdjacentPair(x=Coloring(assign=x, k=k), y=Coloring(assign=[6] + x[1:], k=k),
                          vstar=0)
        rep = flip_exact_drift(pr, G, k, fp)
        assert rep.exact_drift == drift
        assert {c: (t.dc, t.alpha) for c, t in rep.per_color.items() if t.dc} == {
            c: (1, alpha) for c in (2, 3, 4, 5)}
        assert rep.exact_drift * G.m * k / rep.vstar_weight + k == tight
        assert tight == threshold_ratio(fp) * (G.delta - 1)
        assert rep.bound == Fraction(2, 8 * k) * (threshold_ratio(fp) * G.delta - k)

    def test_delta_range(self):
        G, pairs = random_pairs(n=9, delta=3, k=12, seed=77, count=3)
        cap = 2 * sum(G.weight)
        for pr in pairs:
            table = build_flip_coupling_table(pr, G, 12, DEFAULT)
            for e in table.entries:
                assert -cap <= e.delta <= cap


class TestLocalDrift:
    """flip_exact_drift reads only the moves near vstar; the table reads all."""

    def assert_local_equals_full(self, pair, G, k, fp):
        rep = flip_exact_drift(pair, G, k, fp)
        drift, alphas, table = full_table_drift(pair, G, k, fp)
        assert rep.exact_drift == drift
        assert {c: (t.alpha * G.m * k * fp.units.den, t.weight, t.dc)
                for c, t in rep.per_color.items()} == alphas
        assert rep.dc_max == table.dc_max
        assert rep.clamp_events == table.clamp_events
        return rep

    def test_equals_full_table_on_sampled_pairs(self):
        checked = over_2 = 0
        for fp in SCHEDULES:
            for delta in (2, 3, 4):
                gp = random_graph_pair(n=10, delta=delta, overlap=0.6, seed=78 + delta)
                G = build_union_line_graph(gp)
                for k in (4 * G.delta - 2, 6 * G.delta):
                    pairs = sample_adjacent_pairs(G, k, fp, 9, random.Random(delta + k))
                    for pr in pairs:
                        rep = self.assert_local_equals_full(pr, G, k, fp)
                        over_2 += rep.dc_max > 2
                        checked += 1
        assert checked >= 200 and over_2 >= 2

    def test_equals_full_table_on_constructed_pairs(self):
        G, pr = doubled_path_pair()
        for fp in SCHEDULES:
            assert self.assert_local_equals_full(pr, G, 6, fp).dc_max == 2
        for delta in (2, 3):
            k = 4 * (delta - 1) + 2
            G, pr = extremal_pair(delta, k)
            for fp in SCHEDULES:
                self.assert_local_equals_full(pr, G, k, fp)

    def test_equals_full_table_on_three_conflict_pair(self):
        G, pr = three_conflict_pair()
        assert self.assert_local_equals_full(pr, G, 24, DEFAULT).dc_max == 3

    def test_improper_pairs_rejected(self):
        # x improper away from vstar, and y improper at vstar only
        pairs = [AdjacentPair(x=Coloring(assign=[1, 3, 3, 4], k=6),
                              y=Coloring(assign=[2, 3, 3, 4], k=6), vstar=0),
                 AdjacentPair(x=Coloring(assign=[1, 3, 1, 3], k=6),
                              y=Coloring(assign=[3, 3, 1, 3], k=6), vstar=0)]
        for pr in pairs:
            for route in (flip_exact_drift, build_flip_coupling_table):
                with pytest.raises(ValueError, match="proper states"):
                    route(pr, WORKED_G, 6, DEFAULT)

    def test_does_not_build_the_laws(self, monkeypatch):
        def refuse(*args):
            raise RuntimeError("flip_move_law called")

        monkeypatch.setattr(coupling, "flip_move_law", refuse)
        G, pairs = random_pairs(n=9, delta=3, k=12, seed=5, count=3)
        for pr in pairs:
            flip_exact_drift(pr, G, 12, DEFAULT)
        with pytest.raises(RuntimeError, match="flip_move_law"):
            build_flip_coupling_table(pairs[0], G, 12, DEFAULT)

    @pytest.mark.parametrize("build, calls", [
        (lambda: (WORKED_G, worked_pair()), 32),
        (doubled_path_pair, 52),
    ], ids=["worked", "doubled_path"])
    def test_one_pass_over_the_region(self, monkeypatch, build, calls):
        # the proof walks, once per side, every color at a region vertex
        # holding a split color and only the two split colors elsewhere;
        # here the region is the whole path
        seen = []
        original = coupling.alternating_component

        def counted(*args):
            seen.append(args)
            return original(*args)

        G, pr = build()
        region = region_of(pr, G, 6, DEFAULT)[2]
        assert region == set(range(G.m))
        split = {pr.xstar, pr.ystar}
        rule = sum(2 * (6 if pr.x.assign[v] in split else 2) for v in region)
        monkeypatch.setattr(coupling, "alternating_component", counted)
        flip_exact_drift(pr, G, 6, DEFAULT)
        assert len(seen) == rule == calls < 2 * 6 * len(region)

    def test_skipped_proposals_agree_and_are_never_consumed(self):
        # the proof skips each region proposal (v, c) whose colors avoid
        # {xstar, ystar}: its walks must agree, capped or not, and no
        # consumed move may swap its two colors
        skipped = 0
        for fp, G, k, pr in (*sampled_cases(), *constructed_cases()):
            used_x, used_y, region = region_of(pr, G, k, fp)
            consumed = {mv.colors for mv in (*used_x, *used_y)}
            split = {pr.xstar, pr.ystar}
            xa, ya = pr.x.assign, pr.y.assign
            for v in region:
                for c in range(1, k + 1):
                    if {xa[v], c} & split:
                        continue
                    for cap in (fp.locality, None):
                        assert alternating_component(xa, G.nbrs, v, c, cap) == \
                            alternating_component(ya, G.nbrs, v, c, cap)
                    assert frozenset((xa[v], c)) not in consumed
                    skipped += 1
        assert skipped > 40_000

    def test_consumed_move_off_the_split_colors_is_caught(self, monkeypatch):
        # a real single-vertex move of both laws in colors {3, 4}, while
        # the worked pair's split colors are {1, 2}
        off_split = coupling.Move(frozenset((1,)), frozenset((3, 4)))
        original = coupling.match_color_moves

        def add_off_split(*args):
            matched, clamped = original(*args)
            return [*matched, MatchedPair(off_split, off_split, DEFAULT.units.den)], clamped

        monkeypatch.setattr(coupling, "match_color_moves", add_off_split)
        with pytest.raises(AssertionError, match="avoids both colors at vstar"):
            flip_exact_drift(worked_pair(), WORKED_G, 6, DEFAULT)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_shared_move_consumed_on_one_side_is_named(self, side):
        # on an 8-vertex path, the null move at vertex 6 (holding xstar, far
        # from vstar = 0) walks alike on x and y, so it rides as a shared
        # entry; consumed on one side only, even at its full law mass, the
        # pass must still build it and name the proposal
        G = build_union_line_graph(
            GraphPair(9, frozenset((i, i + 1) for i in range(1, 9)), frozenset()))
        pair = AdjacentPair(x=Coloring([1, 3, 4, 5, 6, 4, 1, 5], 6),
                            y=Coloring([2, 3, 4, 5, 6, 4, 1, 5], 6), vstar=0)
        used_x, used_y = coupling._consumed(coupling._color_moves(pair, G, 6, DEFAULT)[0])
        assert all(6 not in mv.members for mv in (*used_x, *used_y))
        shared = coupling.Move(frozenset((6,)), frozenset((pair.xstar,)))
        (used_x if side == "x" else used_y)[shared] = DEFAULT.units.accept[1]
        with pytest.raises(AssertionError, match=r"proposal \(6, 1\) not consumed"):
            coupling._check_local_marginals(pair, G, DEFAULT, used_x, used_y)

    @pytest.mark.parametrize("route", [flip_exact_drift, build_flip_coupling_table],
                             ids=["drift", "table"])
    def test_pair_mutated_after_construction_is_refused(self, route):
        # both colorings stay proper; each mutation breaks "differ
        # exactly at vstar" after AdjacentPair checked it
        G, (pr,) = random_pairs(n=9, delta=3, k=12, seed=5, count=1)
        far = next(v for v in range(G.m)
                   if v != pr.vstar and v not in G.nbrs[pr.vstar])
        free = next(c for c in range(1, 13) if c != pr.y.assign[far]
                    and all(pr.y.assign[w] != c for w in G.nbrs[far]))
        pr.y.assign[far] = free
        with pytest.raises(ValueError, match=rf"differ exactly at {pr.vstar}, "
                                             rf"differ at \[.*{far}.*\]"):
            route(pr, G, 12, DEFAULT)
        pr = worked_pair()
        pr.y.assign[0] = pr.x.assign[0]
        with pytest.raises(ValueError, match=r"differ exactly at 0, differ at \[\]"):
            route(pr, WORKED_G, 6, DEFAULT)

    def test_shifted_matched_mass_fails_the_mass_check(self, monkeypatch):
        shifted = []
        original = coupling.match_color_moves

        def shift_first(*args):
            matched, clamped = original(*args)
            if not shifted:
                first = matched[0]
                shifted.append(first)
                matched = [first._replace(mass=first.mass + 1), *matched[1:]]
            return matched, clamped

        monkeypatch.setattr(coupling, "match_color_moves", shift_first)
        with pytest.raises(AssertionError, match="marginal off at") as ei:
            flip_exact_drift(worked_pair(), WORKED_G, 6, DEFAULT)
        assert str(shifted[0].x) in str(ei.value)

    def test_dropped_pair_fails_the_neighborhood_check(self, monkeypatch):
        # drop a matched pair whose moves no other pair consumes: each of
        # its moves then differs between the chains and is consumed nowhere
        dropped = []
        original = coupling.match_color_moves

        def drop_exclusive(*args):
            matched, clamped = original(*args)
            for i, p in enumerate(matched):
                others = matched[:i] + matched[i + 1:]
                shared = any((p.x is not None and o.x == p.x)
                             or (p.y is not None and o.y == p.y) for o in others)
                if dropped or shared:
                    continue
                dropped.append(p)
                matched = others
                break
            return matched, clamped

        monkeypatch.setattr(coupling, "match_color_moves", drop_exclusive)
        G, pairs = random_pairs(n=9, delta=3, k=12, seed=5, count=6)
        msg = None
        for pr in pairs:
            dropped.clear()
            try:
                flip_exact_drift(pr, G, 12, DEFAULT)
            except AssertionError as exc:
                msg = str(exc)
                break
            assert not dropped, "a dropped pair went unnoticed"
        assert msg is not None and dropped, "no pair had a matched pair to drop"
        seed = re.match(r"proposal \((\d+), (\d+)\) not consumed: ", msg)
        assert seed, msg
        members = set().union(*(mv.members for mv in (dropped[0].x, dropped[0].y)
                                 if mv is not None))
        assert int(seed.group(1)) in members
        assert "Move(members=" in msg


class TestMetricComparison:
    """The paper's metric claim on the extremal family, Glauber chain.

    Plain Hamming needs k > 8(delta - 1) here and the weighted metric only
    k > 6(delta - 1): drift*m*k is 12(delta - 1) - 2k weighted and
    8(delta - 1) - k under unit weights.
    """

    @pytest.mark.parametrize("delta", [2, 3, 4, 5])
    def test_drift_closed_forms_and_crossovers(self, delta):
        first = 4 * (delta - 1) + 2  # the neighbors and x*, y* all distinct
        negative = {"weighted": [], "unit": []}
        for k in range(first, 8 * (delta - 1) + 3):
            G, pr = extremal_pair(delta, k)
            assert G.delta == delta and G.m == 4 * delta - 3
            assert G.weight[pr.vstar] == 2
            unit = dataclasses.replace(G, weight=(1,) * G.m)
            mk = G.m * k
            weighted = flip_exact_drift(pr, G, k, GLAUBER).exact_drift * mk
            plain = flip_exact_drift(pr, unit, k, GLAUBER).exact_drift * mk
            assert weighted == 12 * (delta - 1) - 2 * k
            assert plain == 8 * (delta - 1) - k
            negative["weighted"].append(weighted < 0)
            negative["unit"].append(plain < 0)
        for name, crossover in (("weighted", 6 * (delta - 1) + 1),
                                ("unit", 8 * (delta - 1) + 1)):
            assert negative[name].index(True) + first == crossover
            assert all(negative[name][crossover - first:])


class TestSampling:
    def test_pairs_are_adjacent_and_proper(self):
        G, pairs = random_pairs(n=9, delta=3, k=11, seed=3, count=12)
        for pr in pairs:
            diffs = [v for v in range(G.m) if pr.x.assign[v] != pr.y.assign[v]]
            assert diffs == [pr.vstar]
            assert is_proper(G, pr.x) and is_proper(G, pr.y)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_is_refused_before_burn_in(self, monkeypatch, count):
        def refuse(*args):
            raise RuntimeError("burn-in started")

        monkeypatch.setattr(coupling, "greedy_coloring", refuse)
        G = build_union_line_graph(random_graph_pair(n=9, delta=3, overlap=0.5, seed=3))
        with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
            sample_adjacent_pairs(G, 11, DEFAULT, count, random.Random(0))

    def test_requires_enough_colors(self):
        gp = random_graph_pair(n=9, delta=3, overlap=0.5, seed=3)
        G = build_union_line_graph(gp)
        with pytest.raises(ValueError):
            sample_adjacent_pairs(G, 4 * G.delta - 3, DEFAULT, 1, random.Random(0))

    def test_deterministic_for_fixed_seed(self):
        G, pairs_a = random_pairs(n=9, delta=3, k=11, seed=6, count=4)
        _, pairs_b = random_pairs(n=9, delta=3, k=11, seed=6, count=4)
        for a, b in zip(pairs_a, pairs_b):
            assert a.x.assign == b.x.assign and a.vstar == b.vstar

    @pytest.mark.parametrize("fp", [SCHEDULES[0], SCHEDULES[1], SCHEDULES[3]],
                             ids=["default", "glauber", "nondyadic"])
    def test_equals_single_step_reference(self, fp):
        # the burn-in walks through run_chain; one flip_step per proposal
        # must give the same pairs and leave the RNG in the same state
        G = build_union_line_graph(random_graph_pair(n=10, delta=3, overlap=0.5, seed=4))
        assert 2 in G.weight
        k = 4 * G.delta - 1
        ra, rb = random.Random(17), random.Random(17)
        got = sample_adjacent_pairs(G, k, fp, 5, ra)
        want = reference_adjacent_pairs(G, k, fp, 5, rb)
        assert [(p.x.assign, p.y.assign, p.vstar) for p in got] == \
            [(p.x.assign, p.y.assign, p.vstar) for p in want]
        assert ra.getstate() == rb.getstate()

    def test_rng_must_draw_integers_through_getrandbits(self):
        # run_chain's contract: an rng whose randrange draws otherwise is
        # refused before the first burn-in proposal consumes anything
        class OwnRandbelow(random.Random):
            def _randbelow(self, n):
                return int(self.random() * n)

        G = build_union_line_graph(random_graph_pair(n=9, delta=3, overlap=0.5, seed=3))
        rng = OwnRandbelow(5)
        with pytest.raises(TypeError, match="getrandbits"):
            sample_adjacent_pairs(G, 11, DEFAULT, 1, rng)
        assert rng.getstate() == random.Random(5).getstate()


class TestContractionSummary:
    def test_summary_fields(self):
        gp = random_graph_pair(n=9, delta=3, overlap=0.5, seed=8)
        G = build_union_line_graph(gp)
        summary = estimate_contraction(G, 18, DEFAULT, pairs=12, seed=4)
        assert len(summary.records) == 12
        assert all(r.vstar_weight == G.weight[r.vstar] for r in summary.records)
        assert summary.all_bounds_hold
        assert summary.beta < 1

    def test_records_are_the_pairs_drift_reports(self):
        # one record per sampled pair, in sampling order, per_color terms kept
        G = build_union_line_graph(random_graph_pair(n=9, delta=3, overlap=0.5, seed=8))
        summary = estimate_contraction(G, 18, DEFAULT, pairs=5, seed=4)
        pairs = sample_adjacent_pairs(G, 18, DEFAULT, 5, random.Random(4))
        assert list(summary.records) == [flip_exact_drift(p, G, 18, DEFAULT)
                                         for p in pairs]

    def test_zero_pairs_rejected(self):
        G = build_union_line_graph(random_graph_pair(n=9, delta=3, overlap=0.5, seed=8))
        with pytest.raises(ValueError, match="pairs"):
            estimate_contraction(G, 18, DEFAULT, pairs=0, seed=4)

    def test_bound_margin_positive_above_threshold(self):
        gp = random_graph_pair(n=9, delta=3, overlap=0.5, seed=8)
        G = build_union_line_graph(gp)
        # k/delta = 6 > 1933/325, so every weight class contracts
        summary = estimate_contraction(G, 18, DEFAULT, pairs=8, seed=4)
        assert summary.bound_margin > 0
