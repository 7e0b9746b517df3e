import dataclasses
import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from simcol import oracle
from simcol.dynamics import FlipParams
from simcol.graphs import (GraphPair, _backtrack_count, build_union_line_graph,
                           count_proper, random_graph_pair)
from simcol.oracle import (TMIX_ENTRY_CAP, CapExceeded, RationalRows, StateIndex,
                           _orbit_starts, build_transition_matrix,
                           oracle_report, stationary_check, tv_mixing_time)
from simcol.sparse import Csr

from helpers import apply_move, brute_flip_law, numpy_brute_count, scalar_flip_kernel


def pair(n, e1, e2=()):
    return GraphPair(n, frozenset(map(tuple, e1)), frozenset(map(tuple, e2)))


NONDYADIC = FlipParams((1, Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)))


def path(length):
    return [(i, i + 1) for i in range(1, length + 1)]


def first_occurrence_starts(P, proper):
    """Positions in proper of the least state of each color pattern, a
    state's pattern being where each vertex's color first occurs."""
    starts, seen = [], set()
    for i, s in enumerate(proper):
        a = P.index.decode(int(s))
        pattern = tuple(a.index(c) for c in a)
        if pattern not in seen:
            seen.add(pattern)
            starts.append(i)
    return starts


def moved(num, s, src, dst, q):
    """num with q of row s's numerators moved from column src to column
    dst, an entry left at 0 dropped."""
    A = Csr.from_coo(np.r_[num.row_ids, s, s], np.r_[num.indices, src, dst],
                     np.r_[num.data, -q, q], num.shape)
    keep = A.data != 0
    return Csr.from_coo(A.row_ids[keep], A.indices[keep], A.data[keep], A.shape)


def fraction_curve(P, starts, eps=Fraction(1, 4)):
    """(tmix, curve) over the given starts (positions among the proper
    states), each start's law propagated as Fraction dicts through num."""
    proper = np.flatnonzero(P.proper).tolist()
    pos = {s: i for i, s in enumerate(proper)}
    ptr, cols, nums = P.num.indptr, P.num.indices.tolist(), P.num.data.tolist()
    Q = [{pos[t]: Fraction(q, P.den) for t, q in zip(cols[ptr[s]:ptr[s + 1]],
                                                     nums[ptr[s]:ptr[s + 1]])}
         for s in proper]
    n = len(proper)
    dist = [{i: Fraction(1)} for i in starts]
    curve = []
    while True:
        d = max(sum(abs(row.get(j, 0) - Fraction(1, n)) for j in range(n)) / 2
                for row in dist)
        curve.append([len(curve), float(d)])
        if d <= eps:
            return len(curve) - 1, curve
        nxt = []
        for row in dist:
            out = {}
            for i, mass in row.items():
                for j, q in Q[i].items():
                    out[j] = out.get(j, 0) + mass * q
            nxt.append(out)
        dist = nxt


class TestCounting:
    def test_oracle_binds_the_graphs_counter(self):
        assert oracle.count_proper is count_proper

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

    def test_components_against_whole_graph_backtracking(self):
        # with no shared edge the two graphs' line graphs stay apart, so
        # each pair has 2 to 4 components; their product must equal one
        # backtracking pass over every vertex
        for seed in range(8):
            gp = random_graph_pair(n=6, delta=2, overlap=0.0, seed=seed)
            G = build_union_line_graph(gp)
            for k in (2, 3):
                assert count_proper(G, k) == _backtrack_count(G, range(G.m), k)

    def test_cap_enforced(self):
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)]))
        with pytest.raises(CapExceeded):
            count_proper(G, 100, cap=1000)

    def test_cap_is_the_sum_over_components(self):
        # three disjoint edges are three components of one vertex: the
        # cap bounds 3 * k leaves, not k^3 assignments
        G = build_union_line_graph(pair(6, [(1, 2), (3, 4), (5, 6)]))
        assert count_proper(G, 5, cap=15) == 5 ** 3
        with pytest.raises(CapExceeded, match="sum to 15"):
            count_proper(G, 5, cap=14)


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

    def test_digits_table_matches_decode(self):
        idx = StateIndex(3, 4)
        assert idx.digits.shape == (64, 3)
        assert [[c + 1 for c in row] for row in idx.digits.tolist()] == \
            [idx.decode(s) for s in range(idx.size)]

    def test_proper_mask_matches_per_state_loop(self):
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4), (1, 4)],
                                        [(1, 2), (2, 3)]))
        idx = StateIndex(G.m, 3)
        want = tuple(all(a[v] != a[w] for v in range(G.m) for w in G.nbrs[v])
                     for a in map(idx.decode, range(idx.size)))
        got = idx.proper_mask(G)
        assert got == want and all(type(b) is bool for b in got)

    def test_proper_mask_total(self):
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        idx = StateIndex(G.m, 3)
        assert sum(idx.proper_mask(G)) == count_proper(G, 3)


class TestTransitionMatrix:
    def test_unknown_mode_is_refused(self):
        G = build_union_line_graph(pair(2, [(1, 2)]))
        with pytest.raises(ValueError, match="^unknown mode 'exact'$"):
            build_transition_matrix(G, 2, mode="exact")

    def test_single_edge_k2_kernel(self):
        G = build_union_line_graph(pair(2, [(1, 2)]))
        P = build_transition_matrix(G, 2, kind="glauber", mode="rational")
        assert P.size == 2
        half = Fraction(1, 2)
        assert P.rows[0] == {0: half, 1: half}
        assert P.rows[1] == {0: half, 1: half}
        tmix, curve = tv_mixing_time(P, 0.25)
        assert tmix == 1

    @pytest.mark.parametrize("eps", [0, 1, -1, 1.5, float("nan")])
    def test_eps_outside_unit_interval_rejected(self, eps):
        G = build_union_line_graph(pair(2, [(1, 2)]))
        for mode in ("float", "rational"):
            P = build_transition_matrix(G, 2, kind="glauber", mode=mode)
            with pytest.raises(ValueError, match="eps"):
                tv_mixing_time(P, eps)
        with pytest.raises(ValueError, match="eps"):
            oracle_report(G, 2, eps=eps)

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

    @pytest.mark.parametrize("kind, fp, den, digest", [
        ("flip", FlipParams.default(), 624000,
         "e92108b459c902e661ddfd4ed0f0240f5e14843e2f820d4f3b0b4ab1d54855dd"),
        ("flip", NONDYADIC, 14784,
         "41f71a4e78522c95bd18766a6901ea5f53541fb9ec8549ff00a37f0817a507b8"),
        ("glauber", None, 16,
         "889dce0dc759661e10c36ca3381e7e3b7e22a2fe40f53c21240301289b0e06f4"),
    ], ids=["default", "nondyadic", "glauber"])
    def test_flip_kernel_integers_pinned(self, kind, fp, den, digest):
        # the integer kernel of the flip chain on the weighted 4-edge path
        # at k = 4, pinned entry by entry over every state, improper ones
        # included: a proposal mapped to the wrong color or component
        # moves numerators between columns
        G = build_union_line_graph(pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)],
                                        [(3, 4), (4, 5)]))
        P = build_transition_matrix(G, 4, kind=kind, fp=fp)
        h = hashlib.sha256()
        for part in (P.num.data, P.num.indices, P.num.indptr):
            h.update(part.astype("<i8").tobytes())
        assert P.den == den
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("fp", [FlipParams.glauber(), FlipParams.default(),
                                    FlipParams((1, Fraction(1, 2))), NONDYADIC],
                             ids=["glauber", "default", "half", "nondyadic"])
    @pytest.mark.parametrize("gp, k", [
        # improper states, and components past locality 2
        (pair(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]), 3),
        (pair(8, path(7)), 4),
        (pair(5, path(4), [(3, 4), (4, 5)]), 6),
        (pair(15, path(14)), 2),
    ], ids=["chorded-4-cycle", "7-path", "weighted-4-path", "14-path"])
    def test_batched_kernel_equals_scalar_route(self, gp, k, fp):
        # every row, improper ones included, equals the per-state loop
        # over alternating_component; every proper row also equals the
        # independent {a, c} BFS of brute_flip_law
        G = build_union_line_graph(gp)
        P = build_transition_matrix(G, k, kind="flip", fp=fp)
        want = scalar_flip_kernel(G, k, fp)
        got = [getattr(P.num, part).tolist() for part in ("data", "indices", "indptr")]
        assert got == [want.data.tolist(), want.indices.tolist(), want.indptr.tolist()]
        data, indices, indptr = got
        for s in np.flatnonzero(P.proper).tolist():
            assign = P.index.decode(s)
            law = {s: Fraction(1)}
            for (members, colors), q in brute_flip_law(G, assign, k, fp).items():
                t = P.index.encode(apply_move(assign, members, colors))
                law[s] -= q
                law[t] = law.get(t, 0) + q
            lo, hi = indptr[s], indptr[s + 1]
            assert {t: q for t, q in law.items() if q} == {
                t: Fraction(q, P.den) for t, q in zip(indices[lo:hi], data[lo:hi])}

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
        # the first size past the kernel cap, the same in either mode
        G = build_union_line_graph(pair(5, [(1, 2), (2, 3), (3, 4), (4, 5)]))
        for mode in ("float", "rational"):
            with pytest.raises(CapExceeded):
                build_transition_matrix(G, 13, mode=mode)  # 4 * 13 * 13^4 > 10^6

    def test_rational_mode_admits_what_float_mode_does(self):
        # 11^3 = 1 331 states: no cap reads the mode, so both modes build
        # the same integer kernel
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        Pr = build_transition_matrix(G, 11, kind="flip", mode="rational")
        Pf = build_transition_matrix(G, 11, kind="flip", mode="float")
        assert Pr.size == 1331 and Pr.den == Pf.den
        for a, b in zip((Pr.num.data, Pr.num.indices, Pr.num.indptr),
                        (Pf.num.data, Pf.num.indices, Pf.num.indptr)):
            assert np.array_equal(a, b)

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
        # the least proper state, and the least one it cannot reach
        assert rep.violating_pair == (5, 7)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_no_proper_state_is_a_value_error(self, mode):
        # two adjacent edges at k = 1: the only state is improper
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)]))
        P = build_transition_matrix(G, 1, mode=mode)
        assert not any(P.proper)
        for check in (stationary_check, tv_mixing_time):
            with pytest.raises(ValueError, match="^no proper states at this k$"):
                check(P)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_moved_mass_breaks_uniformity(self, mode):
        # shift one unit of a proper state's self-loop to another target:
        # the row still sums to den, but uP != u
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        P = build_transition_matrix(G, 5, kind="flip", mode=mode)
        assert stationary_check(P).uniform_ok
        s = P.proper.index(True)
        row = P.num.indices[P.num.indptr[s]:P.num.indptr[s + 1]].tolist()
        inside = next(t for t in row if t != s)
        outside = P.proper.index(False)
        for t, closed in ((inside, True), (outside, False)):
            num = moved(P.num, s, s, t, 1)
            assert num.sum(axis=1)[s] == P.den
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

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_entry_cap_is_proper_states_times_starts(self, monkeypatch, mode):
        # the sweep holds proper-by-starts arrays: a cap of n * r entries
        # admits it, one less refuses it
        G = build_union_line_graph(pair(6, [(1, 2), (3, 4), (5, 6)]))
        P = build_transition_matrix(G, 3, mode=mode)
        proper_states, _ = P._proper_block
        n, r = len(proper_states), len(_orbit_starts(P, proper_states))
        assert (n, r) == (27, 5)
        monkeypatch.setattr(oracle, "TMIX_ENTRY_CAP", n * r)
        assert tv_mixing_time(P)[0] > 1
        monkeypatch.setattr(oracle, "TMIX_ENTRY_CAP", n * r - 1)
        with pytest.raises(CapExceeded, match="27 proper states by 5 orbit starts"):
            tv_mixing_time(P)

    def test_entry_cap_refuses_before_any_law_exists(self):
        # twelve disjoint edges at k = 2: 4 096 states, all proper, in
        # 2 048 orbits; a float law over them would take 64 MiB
        G = build_union_line_graph(pair(24, [(2 * i + 1, 2 * i + 2) for i in range(12)]))
        P = build_transition_matrix(G, 2, mode="float")
        P._proper_block  # built before the trace: the kernel is not the law
        assert 4096 * 2048 > TMIX_ENTRY_CAP
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="4096 proper states by 2048 orbit starts"):
                tv_mixing_time(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_reducible_chain_runs_to_the_step_cap(self, monkeypatch, mode):
        # the frozen triangle pair of test_frozen_chain_reports_reducible_with_witness:
        # every start keeps its distance 5/6 to uniform
        monkeypatch.setattr(oracle, "TMIX_MAX_STEPS", 5)
        tri = [(1, 2), (2, 3), (1, 3)]
        G = build_union_line_graph(pair(3, tri, tri))
        P = build_transition_matrix(G, 3, kind="glauber", mode=mode)
        with pytest.raises(CapExceeded, match="^no mixing within 5 steps$"):
            tv_mixing_time(P)

    def test_rational_sweep_compares_with_the_exact_eps(self, monkeypatch):
        # an eps rounded to a denominator of 10^9 reads 1e-10 as 0, which an
        # exact distance never reaches: the sweep would run to the step cap
        monkeypatch.setattr(oracle, "TMIX_MAX_STEPS", 150)
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)], [(1, 2)]))
        tmix = {mode: tv_mixing_time(build_transition_matrix(G, 3, kind="flip", mode=mode),
                                     1e-10)[0]
                for mode in ("float", "rational")}
        assert tmix == {"float": 84, "rational": 84}

    def test_rational_sweep_cap_stops_the_first_step_past_it(self, monkeypatch):
        # each exact step is priced nnz * starts * (bits(den**t) + the fixed
        # cost of a product) for the law at time t it makes: a cap at the
        # summed price of the 84 steps to eps admits the sweep, one less
        # refuses its 84th step, and the float sweep is not priced
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)], [(1, 2)]))
        P = build_transition_matrix(G, 3, kind="flip", mode="rational")
        proper_states, Q = P._proper_block
        r = len(_orbit_starts(P, proper_states))
        cost = sum(Q.nnz * r * ((P.den ** t).bit_length() + oracle.RATIONAL_PRODUCT_BITS)
                   for t in range(1, 85))
        monkeypatch.setattr(oracle, "RATIONAL_SWEEP_CAP", cost)
        assert tv_mixing_time(P, 1e-10)[0] == 84
        monkeypatch.setattr(oracle, "RATIONAL_SWEEP_CAP", cost - 1)
        with pytest.raises(CapExceeded, match=f"cost to {cost}, over"):
            tv_mixing_time(P, 1e-10)
        monkeypatch.setattr(oracle, "RATIONAL_SWEEP_CAP", 0)
        assert tv_mixing_time(build_transition_matrix(G, 3, kind="flip"), 1e-10)[0] == 84

    def test_rational_sweep_prices_the_fixed_cost_of_short_ints(self, monkeypatch):
        # six disjoint edges at k = 2: den 12, 32 starts, 8 steps of ints of
        # at most 29 bits; a cap at the bits-only sum refuses the sweep
        G = build_union_line_graph(pair(12, [(2 * i + 1, 2 * i + 2) for i in range(6)]))
        P = build_transition_matrix(G, 2, mode="rational")
        proper_states, Q = P._proper_block
        r = len(_orbit_starts(P, proper_states))
        bits = [Q.nnz * r * (P.den ** t).bit_length() for t in range(1, 9)]
        full = sum(bits) + 8 * Q.nnz * r * oracle.RATIONAL_PRODUCT_BITS
        assert (P.den, r, sum(bits), full) == (12, 32, 1906688, 75307008)
        monkeypatch.setattr(oracle, "RATIONAL_SWEEP_CAP", full)
        assert tv_mixing_time(P)[0] == 8
        monkeypatch.setattr(oracle, "RATIONAL_SWEEP_CAP", (sum(bits) + full) // 2)
        with pytest.raises(CapExceeded, match="over the rational sweep cap"):
            tv_mixing_time(P)

    def test_first_exact_mixing_times_in_the_certified_regime(self):
        # the weighted 4-edge path (delta = 2) at k = 12 >= 5.948 * delta:
        # 15 972 proper states, swept from 5 orbit starts
        G = build_union_line_graph(pair(5, path(4), [(3, 4), (4, 5)]))
        for kind in ("flip", "glauber"):
            rep = oracle_report(G, 12, kind=kind)
            assert (rep["count"], rep["uniform_ok"], rep["tmix"]) == (15972, True, 10), kind

    @pytest.mark.parametrize("kind, tmix", [("flip", 10), ("glauber", 11)])
    def test_rational_tmix_equals_float_tmix_at_k8(self, kind, tmix):
        # 2 744 proper states in 5 orbits: the exact sweep takes about 0.2 s
        G = build_union_line_graph(pair(5, path(4), [(3, 4), (4, 5)]))
        got = {mode: tv_mixing_time(build_transition_matrix(G, 8, kind=kind, mode=mode))
               for mode in ("float", "rational")}
        assert got["rational"][0] == got["float"][0] == tmix
        assert np.allclose(got["rational"][1], got["float"][1], rtol=0, atol=1e-12)

    def test_float_mode_refuses_an_eps_it_cannot_resolve(self, monkeypatch):
        # float distances here stall near 1e-14, and the sweep counts two
        # within 1e-12 as equal: at 1e-300 it ran all 10^5 steps to the cap
        G = build_union_line_graph(pair(3, [(1, 2), (2, 3)], [(1, 2)]))
        P = build_transition_matrix(G, 3, kind="flip")
        assert tv_mixing_time(P, oracle.FLOAT_EPS_FLOOR)[0] == 101
        with pytest.raises(ValueError, match="--mode rational"):
            tv_mixing_time(P, 1e-300)
        exact = build_transition_matrix(G, 3, kind="flip", mode="rational")
        assert tv_mixing_time(exact, 1e-300)[0] == 2554
        monkeypatch.setattr(oracle, "build_transition_matrix", None)  # refused before any work
        with pytest.raises(ValueError, match="--mode rational"):
            oracle_report(G, 3, kind="flip", eps=1e-300)

    @pytest.mark.parametrize("n, e1, e2, k, mode", [
        (4, [(1, 2), (2, 3), (3, 4), (1, 4)], [(1, 2), (2, 3)], 7, "float"),
        (3, [(1, 2), (2, 3), (1, 3)], [(1, 2), (1, 3)], 6, "rational"),
    ], ids=["float", "rational"])
    def test_sweep_matrix_pads_little(self, n, e1, e2, k, mode):
        # `Csr.dot` pads every row of the swept transpose to its longest
        # row; on the benchmark's two oracle instances that adds at most a
        # quarter to the stored entries (1.05x and 1.00x when written)
        P = build_transition_matrix(build_union_line_graph(pair(n, e1, e2)), k,
                                    kind="flip", mode=mode)
        QT = P._proper_block[1].T
        assert QT._layout[0].size <= 1.25 * QT.nnz

    def test_float_curve_equals_the_two_temporary_expression(self):
        # the sweep propagates one start per color orbit and takes
        # |dt - 1/n| in one preallocated buffer; each kept start's distance
        # must equal, bit for bit, its column of the every-start sweep
        # written as one expression, and the every-start curve must agree
        # to rounding with the same tmix (the benchmark's 4-cycle instance,
        # 1 302 proper states in 4 orbits)
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4), (1, 4)],
                                        [(1, 2), (2, 3)]))
        P = build_transition_matrix(G, 7, kind="flip", mode="float")
        proper = np.flatnonzero(P.proper)
        num = sp.csr_matrix((P.num.data, P.num.indices, P.num.indptr), shape=P.num.shape)
        Q = num[proper][:, proper]
        Q.eliminate_zeros()
        n = len(proper)
        assert n == 1302
        reps = first_occurrence_starts(P, proper)
        assert len(reps) == 4
        QT = sp.csr_matrix((Q.data / P.den, Q.indices, Q.indptr), shape=Q.shape).T.tocsr()
        dt, want, every = np.eye(n), [], []
        while not every or every[-1][1] > 0.25:
            dist = 0.5 * np.abs(dt - 1.0 / n).sum(axis=0)
            want.append([len(want), float(dist[reps].max())])
            every.append([len(every), float(dist.max())])
            dt = QT.dot(dt)
        tmix, curve = tv_mixing_time(P)
        assert tmix == len(every) - 1 > 1
        assert curve == want
        assert np.allclose(curve, every, rtol=0, atol=1e-12)

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


class TestColorOrbits:
    @pytest.mark.parametrize("edges, k, orbits", [
        # three disjoint edges: three conflict vertices with no edge, so
        # the orbits are the partitions of 3 vertices into at most k blocks
        ([(1, 2), (3, 4), (5, 6)], 1, 1),
        ([(1, 2), (3, 4), (5, 6)], 2, 4),
        ([(1, 2), (3, 4), (5, 6)], 3, 5),
        ([(1, 2), (3, 4), (5, 6)], 5, 5),
        # a 3-edge path: a path of 3 conflict vertices, ends equal or not
        ([(1, 2), (2, 3), (3, 4)], 2, 1),
        ([(1, 2), (2, 3), (3, 4)], 3, 2),
        ([(1, 2), (2, 3), (3, 4)], 5, 2),
    ])
    def test_one_least_start_per_color_pattern(self, edges, k, orbits):
        G = build_union_line_graph(pair(6, edges))
        P = build_transition_matrix(G, k, mode="rational")
        proper = np.flatnonzero(P.proper)
        least = {}  # brute force: a state's color classes as vertex sets
        for s in proper.tolist():
            a = P.index.decode(s)
            classes = frozenset(frozenset(v for v in range(G.m) if a[v] == c)
                                for c in set(a))
            least.setdefault(classes, s)
        assert len(least) == orbits
        assert proper[_orbit_starts(P, proper)].tolist() == sorted(least.values())

    def test_glauber_rational_sweep_matches_every_start(self):
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        P = build_transition_matrix(G, 4, kind="glauber", mode="rational")
        proper = np.flatnonzero(P.proper)
        assert len(first_occurrence_starts(P, proper)) == 2
        tmix, curve = tv_mixing_time(P)
        assert tmix > 1
        assert (tmix, curve) == fraction_curve(P, range(len(proper)))

    def test_asymmetric_kernel_is_refused(self):
        # make the last proper state lazier: its mass to one proper target
        # moves to its self-loop, so its row still sums to den but renaming
        # the colors no longer maps the kernel to itself
        G = build_union_line_graph(pair(4, [(1, 2), (2, 3), (3, 4)]))
        P = build_transition_matrix(G, 3, kind="flip", fp=NONDYADIC, mode="rational")
        proper = np.flatnonzero(P.proper)
        starts = first_occurrence_starts(P, proper)
        assert len(starts) == 2
        every = range(len(proper))
        assert tv_mixing_time(P) == fraction_curve(P, starts) == fraction_curve(P, every)

        s = int(proper[-1])
        lo, hi = P.num.indptr[s], P.num.indptr[s + 1]
        t, q = next((t, q) for t, q in zip(P.num.indices[lo:hi].tolist(),
                                           P.num.data[lo:hi].tolist())
                    if t != s and P.proper[t])
        num = moved(P.num, s, t, s, q)
        assert (num.sum(axis=1) == P.den).all()
        tampered = dataclasses.replace(P, num=num, rows=RationalRows(num, P.den))
        # the orbits' least states alone would miss the answer, so the
        # sweep refuses the kernel rather than pick them
        assert fraction_curve(tampered, starts) != fraction_curve(tampered, every)
        refusal = "renaming the colors by the cycle .* does not map the kernel to itself"
        with pytest.raises(AssertionError, match=refusal):
            _orbit_starts(tampered, proper)
        with pytest.raises(AssertionError, match=refusal):
            tv_mixing_time(tampered)
