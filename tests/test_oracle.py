import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcol.dynamics import FlipParams
from simcol.graphs import GraphPair, build_union_line_graph, random_graph_pair
from simcol.oracle import (TMIX_STATE_CAP, CapExceeded, StateIndex,
                           build_transition_matrix, count_proper,
                           oracle_report, stationary_check, tv_mixing_time)

from helpers import numpy_brute_count


def pair(n, e1, e2=()):
    return GraphPair(n, frozenset(map(tuple, e1)), frozenset(map(tuple, e2)))


NONDYADIC = FlipParams((1, Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)))


class TestCounting:
    def test_shared_edge_closed_form(self):
        G = build_union_line_graph(pair(2, [(1, 2)], [(1, 2)]))
        for k in (1, 4, 9):
            assert count_proper(G, k) == k

    def test_independent_edges_closed_form(self):
        G = build_union_line_graph(pair(3, [(1, 2)], [(2, 3)]))
        for k in (1, 3, 7):
            assert count_proper(G, k) == k * k

    def test_adjacent_edges_closed_form(self):
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)]))
        for k in (2, 3, 6):
            assert count_proper(G, k) == k * (k - 1)

    def test_against_numpy_brute_force(self):
        for seed in range(6):
            gp = random_graph_pair(n=6, delta=3, overlap=0.5, seed=seed)
            G = build_union_line_graph(gp)
            k = 4
            if k ** G.m > 10 ** 6:
                continue
            got = count_proper(G, k)
            assert got == numpy_brute_count(G, k, perm_seed=seed)
            assert got == numpy_brute_count(G, k, perm_seed=seed + 100)

    def test_cap_enforced(self):
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)]))
        with pytest.raises(CapExceeded):
            count_proper(G, 100, cap=1000)


class TestStateIndex:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(2, 5), st.data())
    def test_roundtrip(self, m, k, data):
        idx = StateIndex(m, k)
        s = data.draw(st.integers(0, idx.size - 1))
        assert idx.encode(idx.decode(s)) == s

    def test_digit_layout(self):
        idx = StateIndex(3, 4)
        assert idx.decode(0) == [1, 1, 1]
        assert idx.decode(1) == [2, 1, 1]  # vertex 0 is the least digit
        assert idx.decode(4) == [1, 2, 1]

    def test_proper_mask_total(self):
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        idx = StateIndex(G.m, 3)
        assert sum(idx.proper_mask(G)) == count_proper(G, 3)


class TestTransitionMatrix:
    def test_single_edge_k2_kernel(self):
        G = build_union_line_graph(pair(2, [(1, 2)]))
        P = build_transition_matrix(G, 2, kind="glauber", mode="rational")
        assert P.size == 2
        half = Fraction(1, 2)
        assert P.rows[0] == {0: half, 1: half}
        assert P.rows[1] == {0: half, 1: half}
        tmix, curve = tv_mixing_time(P, 0.25)
        assert tmix == 1

    def test_hand_built_pair_of_edges_kernel(self):
        # two adjacent union-line-graph vertices, k = 3; written out from
        # the definition without touching the builder internals
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)]))
        k = 3
        sixth = Fraction(1, 6)
        hand = [dict() for _ in range(9)]
        for a in range(1, 4):
            for b in range(1, 4):
                s = (a - 1) + 3 * (b - 1)
                for c in range(1, 4):
                    t = (c - 1) + 3 * (b - 1) if c != b else s
                    hand[s][t] = hand[s].get(t, Fraction(0)) + sixth
                    t = (a - 1) + 3 * (c - 1) if c != a else s
                    hand[s][t] = hand[s].get(t, Fraction(0)) + sixth
        P = build_transition_matrix(G, k, kind="glauber", mode="rational")
        assert P.rows == hand
        tmix, curve = tv_mixing_time(P, 0.25)
        assert tmix == 6
        assert curve[0] == [0, pytest.approx(5 / 6)]
        assert curve[1] == [1, pytest.approx(0.5)]

    def test_flip_singleton_equals_glauber_entrywise(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        Pg = build_transition_matrix(G, 4, kind="glauber", mode="rational")
        Pf = build_transition_matrix(G, 4, kind="flip",
                                     fp=FlipParams.glauber(), mode="rational")
        assert Pg.rows == Pf.rows

    @pytest.mark.parametrize("fp, den, digest", [
        (FlipParams.default(), 624000,
         "e92108b459c902e661ddfd4ed0f0240f5e14843e2f820d4f3b0b4ab1d54855dd"),
        (NONDYADIC, 14784,
         "41f71a4e78522c95bd18766a6901ea5f53541fb9ec8549ff00a37f0817a507b8"),
    ], ids=["default", "nondyadic"])
    def test_flip_kernel_integers_pinned(self, fp, den, digest):
        # the integer kernel of the flip chain on the weighted 4-edge path
        # at k = 4, pinned entry by entry: a proposal mapped to the wrong
        # color or component moves numerators between columns
        G = build_union_line_graph(pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)],
                                        [(3, 4), (4, 5)]))
        P = build_transition_matrix(G, 4, kind="flip", fp=fp)
        h = hashlib.sha256()
        for part in (P.num.data, P.num.indices, P.num.indptr):
            h.update(part.astype("<i8").tobytes())
        assert P.den == den
        assert h.hexdigest() == digest

    def test_float_and_rational_agree(self):
        # every float entry is the correctly rounded rational, no tolerance
        G = build_union_line_graph(pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)],
                                        [(3, 4), (4, 5)]))
        for kind, fp in (("glauber", None), ("flip", FlipParams.default()),
                         ("flip", NONDYADIC)):
            Pr = build_transition_matrix(G, 5, kind=kind, fp=fp, mode="rational")
            Pf = build_transition_matrix(G, 5, kind=kind, fp=fp, mode="float")
            F = Pf.rows
            for s, row in enumerate(Pr.rows):
                lo, hi = F.indptr[s], F.indptr[s + 1]
                got = dict(zip(F.indices[lo:hi].tolist(), F.data[lo:hi].tolist()))
                assert got == {t: float(q) for t, q in row.items()}, (kind, fp, s)

    def test_state_caps(self):
        # the first sizes past each cap
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        with pytest.raises(CapExceeded):
            build_transition_matrix(G, 11, mode="rational")  # 11^3 > 1300
        G = build_union_line_graph(pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
        with pytest.raises(CapExceeded):
            build_transition_matrix(G, 12, mode="float")  # 12^4 > 20000

    def test_denominator_past_int64_is_a_cap(self):
        # p_2 / 2 = 2^-62 puts the row denominator at m * k * 2^62
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)]))
        fp = FlipParams((1, Fraction(1, 2 ** 61)))
        with pytest.raises(CapExceeded):
            build_transition_matrix(G, 3, kind="flip", fp=fp)


class TestStationarity:
    def test_uniform_exact_on_rational(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        for kind, fp in (("glauber", None), ("flip", FlipParams.default())):
            P = build_transition_matrix(G, 5, kind=kind, fp=fp, mode="rational")
            rep = stationary_check(P)
            assert rep.uniform_ok and rep.max_error == 0
            assert rep.proper_closed and rep.irreducible and rep.aperiodic
            assert rep.violating_pair is None

    def test_uniform_within_tolerance_on_float(self):
        gp = pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)], [(3, 4), (4, 5)])
        G = build_union_line_graph(gp)
        k = 4 * G.delta - 2  # 6^4 states
        P = build_transition_matrix(G, k, kind="flip", mode="float")
        rep = stationary_check(P)
        assert rep.uniform_ok and rep.max_error <= 1e-10

    def test_frozen_chain_reports_reducible_with_witness(self):
        # a triangle pair at k = 3: every proper state is frozen, so the
        # proper set splits into six singleton classes
        tri = [(1, 2), (2, 3), (1, 3)]
        G = build_union_line_graph(pair(3, tri, tri))
        P = build_transition_matrix(G, 3, kind="glauber", mode="rational")
        rep = stationary_check(P)
        assert rep.uniform_ok  # each frozen state is its own fixed mass
        assert not rep.irreducible
        a, b = rep.violating_pair
        assert P.proper[a] and P.proper[b] and a != b

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_moved_mass_breaks_uniformity(self, mode):
        # shift one unit of a proper state's self-loop to another target:
        # the row still sums to den, but uP != u
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        P = build_transition_matrix(G, 5, kind="flip", mode=mode)
        assert stationary_check(P).uniform_ok
        s = P.proper.index(True)
        inside = next(t for t in P.num.getrow(s).indices.tolist() if t != s)
        outside = P.proper.index(False)
        for t, closed in ((inside, True), (outside, False)):
            num = P.num.tolil()
            num[s, s] -= 1
            num[s, t] += 1
            num = num.tocsr()
            assert num.getrow(s).sum() == P.den
            rep = stationary_check(dataclasses.replace(P, num=num))
            assert not rep.uniform_ok and rep.max_error > 0
            assert rep.proper_closed is closed


class TestMixing:
    def test_curve_monotone_and_report_shape(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        rep = oracle_report(G, 5, kind="glauber", mode="rational")
        assert set(rep) == {"count", "uniform_ok", "tv_curve", "tmix"}
        assert rep["count"] == count_proper(G, 5)
        assert rep["uniform_ok"] is True
        dists = [d for _, d in rep["tv_curve"]]
        assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        assert rep["tv_curve"][rep["tmix"]][1] <= 0.25
        if rep["tmix"] > 0:
            assert rep["tv_curve"][rep["tmix"] - 1][1] > 0.25

    def test_tmix_cap(self):
        gp = random_graph_pair(n=8, delta=3, overlap=0.5, seed=0)
        G = build_union_line_graph(gp)
        k = 2
        while k ** G.m <= 2 * 10 ** 4:
            k += 1
        with pytest.raises(CapExceeded):
            build_transition_matrix(G, k, mode="float")
        # under the build cap, past the mixing cap: 9^4 states, 9 * 8^3 proper
        G = build_union_line_graph(pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
        P = build_transition_matrix(G, 9, mode="float")
        assert sum(P.proper) == 9 * 8 ** 3 > TMIX_STATE_CAP
        with pytest.raises(CapExceeded):
            tv_mixing_time(P)

    def test_rational_sweep_matches_fraction_propagation(self):
        # reference: propagate each proper start's law as Fraction dicts
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        P = build_transition_matrix(G, 4, kind="flip", fp=NONDYADIC, mode="rational")
        assert P.den % 3 == 0 and P.den % 7 == 0 and P.den % 11 == 0
        proper = [s for s in range(P.size) if P.proper[s]]
        pos = {s: i for i, s in enumerate(proper)}
        Q = [{pos[t]: q for t, q in P.rows[s].items()} for s in proper]
        n = len(proper)
        eps = Fraction(0.25)
        dist = [{i: Fraction(1)} for i in range(n)]
        want = []
        while True:
            d = max(sum(abs(row.get(j, 0) - Fraction(1, n)) for j in range(n)) / 2
                    for row in dist)
            want.append([len(want), float(d)])
            if d <= eps:
                break
            nxt = []
            for row in dist:
                out = {}
                for i, mass in row.items():
                    for j, q in Q[i].items():
                        out[j] = out.get(j, 0) + mass * q
                nxt.append(out)
            dist = nxt
        tmix, curve = tv_mixing_time(P, eps=0.25)
        assert tmix == len(want) - 1 > 1
        assert curve == want
