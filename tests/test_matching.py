import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcol.dynamics import FlipParams, FlipUnits
from simcol.matching import MatchedPair, match_color_moves, pick_anchor

from helpers import scalar_match_color_moves


class TestPickAnchor:
    def test_largest_size_wins(self):
        assert pick_anchor([1, 3, 2], [2, 1, 2]) == 1

    def test_weight_breaks_size_ties(self):
        assert pick_anchor([3, 3], [1, 2]) == 1
        assert pick_anchor([3, 3], [2, 1]) == 0

    def test_first_index_on_full_tie(self):
        assert pick_anchor([2, 2, 2], [1, 1, 1]) == 0
        assert pick_anchor([2, 2], [2, 2]) == 0

    def test_arrays_pick_each_entry_like_the_scalar_call(self):
        # every size tuple in 1..3 at every weight vector, d = 1..3: size
        # ties broken by weight, and full ties by index, included
        for d in (1, 2, 3):
            rows = np.indices((3,) * d).reshape(d, -1) + 1
            for weights in np.indices((2,) * d).reshape(d, -1).T + 1:
                got = pick_anchor(list(rows), list(weights))
                assert isinstance(got, np.ndarray)
                assert got.tolist() == [pick_anchor(list(r), list(weights))
                                        for r in rows.T.tolist()]


def run_matcher(t_sizes, u_sizes, units):
    # sizes mirror the coupling's usage: each side's big component is the
    # disagreement vertex plus the other chain's branches, so its size is
    # 1 + the sum of the opposite sizes
    big_x, big_y = "X", "Y"
    x_ids = [f"t{i}" for i in range(len(t_sizes))]
    y_ids = [f"u{i}" for i in range(len(u_sizes))]
    size = {big_x: 1 + sum(u_sizes), big_y: 1 + sum(t_sizes),
            **dict(zip(x_ids, t_sizes)), **dict(zip(y_ids, u_sizes))}
    pairs, clamped = match_color_moves(big_x, big_y, x_ids, y_ids, size,
                                       [1] * len(t_sizes), units)
    return pairs, clamped, {i: units.mass(s) for i, s in size.items()}


# the default schedule in its integer unit; sizes past 6 have mass 0
DEFAULT_UNITS = FlipParams.default().units


class TestMatchColorMoves:
    def test_marginals_conserved(self):
        pairs, clamped, mass = run_matcher([2, 1], [3, 1], DEFAULT_UNITS)
        assert clamped == 0
        for side, pick in (("x", lambda pr: pr.x), ("y", lambda pr: pr.y)):
            used = {}
            for pr in pairs:
                ident = pick(pr)
                if ident is not None:
                    used[ident] = used.get(ident, Fraction(0)) + pr.mass
            for ident, total in used.items():
                assert total == mass[ident], (side, ident)
        # nothing left unpaired on either side
        assert sum((pr.mass for pr in pairs if pr.x is not None), Fraction(0)) \
            == sum(mass[i] for i in ("X", "t0", "t1"))
        assert sum((pr.mass for pr in pairs if pr.y is not None), Fraction(0)) \
            == sum(mass[i] for i in ("Y", "u0", "u1"))

    def test_unequal_id_lists_are_refused(self):
        with pytest.raises(ValueError, match="^need one branch id per neighbor on both sides$"):
            match_color_moves("X", "Y", ["t0", "t1"], ["u0"],
                              {"X": 2, "Y": 3, "t0": 1, "t1": 1, "u0": 1}, [1, 1],
                              DEFAULT_UNITS)

    def test_big_pairs_with_anchor_branch(self):
        pairs, _, mass = run_matcher([3, 1], [2, 1], DEFAULT_UNITS)
        big_partner = [pr for pr in pairs if pr.x == "X"]
        # the big component couples to the anchored opposite branch first
        assert big_partner[0].y == "u0"
        assert big_partner[0].mass == mass["X"]

    def test_masses_positive_and_no_zero_pairs(self):
        pairs, _, _ = run_matcher([2, 2, 1], [1, 1, 3], DEFAULT_UNITS)
        assert all(pr.mass > 0 for pr in pairs)

    def test_repeated_ids_share_one_ledger_slot(self):
        # merged branches present the same id twice; its mass must be
        # spent once, not once per mention.  Over den 10 a size-1
        # component has mass 2/10 and a size-2 one 1/10
        units = FlipUnits(den=10, p=(0, 2, 1), accept=(0, 2, 0))
        size = {"X": 2, "Y": 2, "u0": 1, "t0": 1}
        pairs, clamped = match_color_moves("X", "Y", ["u0", "u0"], ["t0", "t0"],
                                           size, [1, 1], units)
        spent_u = sum((pr.mass for pr in pairs if pr.x == "u0"), Fraction(0))
        spent_t = sum((pr.mass for pr in pairs if pr.y == "t0"), Fraction(0))
        assert spent_u / units.den == Fraction(2, 10)
        assert spent_t / units.den == Fraction(2, 10)
        assert clamped == 0

    def test_each_anchor_reads_the_opposite_sizes(self):
        # X branches [1, 3] and Y branches [2, 1]: big_x rides with the
        # largest Y branch u0, big_y with the largest X branch t1
        pairs, clamped, mass = run_matcher([1, 3], [2, 1], DEFAULT_UNITS)
        assert clamped == 0
        assert pairs[0] == MatchedPair(x="X", y="u0", mass=mass["X"])
        assert pairs[1] == MatchedPair(x="t1", y="Y", mass=mass["Y"])

    def test_no_clamping_for_nonincreasing_masses(self):
        # with p nonincreasing in size, the big component is never
        # lighter than the branch it anchors to
        rng = random.Random(0)
        for _ in range(200):
            a = [rng.randint(1, 4) for _ in range(rng.randint(1, 4))]
            b = [rng.randint(1, 4) for _ in range(len(a))]
            _, clamped, _ = run_matcher(a, b, DEFAULT_UNITS)
            assert clamped == 0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
    def test_exhaustive_pairing_property(self, a_sizes, data):
        b_sizes = data.draw(st.lists(st.integers(1, 5),
                                     min_size=len(a_sizes), max_size=len(a_sizes)))
        pairs, clamped, mass = run_matcher(a_sizes, b_sizes, DEFAULT_UNITS)
        assert clamped == 0
        # every identity is fully spent across the pair list
        spend = {ident: Fraction(0) for ident in mass}
        for pr in pairs:
            if pr.x is not None:
                spend[pr.x] += pr.mass
            if pr.y is not None:
                spend[pr.y] += pr.mass
        assert spend == mass


def test_matched_pair_allows_idle_side():
    pr = MatchedPair(x="u0", y=None, mass=Fraction(1, 7))
    assert pr.y is None and pr.mass == Fraction(1, 7)


def test_leftovers_cross_pair_by_the_northwest_corner_rule():
    # the big components have no mass; after the per-neighbor pairs t0
    # keeps 2 and u1 keeps 3, so t0 and u1 pair 2 and u1 moves 1 alone
    units = FlipUnits(den=6, p=(0, 6, 4, 3), accept=(0, 6, 2, 1))
    size = {"X": 4, "Y": 4, "t0": 1, "t1": 3, "u0": 2, "u1": 1}
    pairs, clamped = match_color_moves("X", "Y", ["t0", "t1"], ["u0", "u1"], size,
                                       [1, 1], units)
    assert clamped == 0
    assert pairs == [MatchedPair("t0", "u0", 4), MatchedPair("t1", "u1", 3),
                     MatchedPair("t0", "u1", 2), MatchedPair(None, "u1", 1)]


class TestArrayLedger:
    """The same ledger over a batch of shapes, as the certifier runs it."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_array_ledger_equals_scalar_calls(self, data):
        d = data.draw(st.integers(1, 4))
        weights = [data.draw(st.sampled_from((1, 2))) for _ in range(d)]
        # a neighbor's branch may be another's too: ids repeat
        x_ids = [f"t{data.draw(st.integers(0, d - 1))}" for _ in range(d)]
        y_ids = [f"u{data.draw(st.integers(0, d - 1))}" for _ in range(d)]
        ids = list(dict.fromkeys(("X", "Y", *x_ids, *y_ids)))
        # masses need not fall with the size, so big components clamp; a
        # scale past 2^63 puts the ledger in Python ints
        p = data.draw(st.lists(st.integers(0, 12), min_size=2, max_size=8))
        scale = data.draw(st.sampled_from((1, 2 ** 60)))
        units = FlipUnits(den=12 * scale, p=(0, *(q * scale for q in p)),
                          accept=(0,) * (len(p) + 1))
        shapes = data.draw(st.lists(
            st.fixed_dictionaries({i: st.integers(1, 9) for i in ids}),
            min_size=1, max_size=12))

        # one batch of every drawn shape, whatever anchors each picks
        arrays = {i: np.array([size[i] for size in shapes]) for i in ids}
        pairs, clamped = match_color_moves("X", "Y", x_ids, y_ids, arrays,
                                           weights, units)
        for e, size in enumerate(shapes):
            want, want_clamped = match_color_moves("X", "Y", x_ids, y_ids, size,
                                                   weights, units)
            # the coupling's tables hold Python ints, not numpy scalars
            assert all(type(v) is int for v in (want_clamped, *(pr.mass for pr in want)))
            # the scalar call against the two-pointer reference
            assert ([tuple(pr) for pr in want], want_clamped) == scalar_match_color_moves(
                "X", "Y", x_ids, y_ids, size, weights, units)
            got = [MatchedPair(pr.x, pr.y, pr.mass[e]) for pr in pairs
                   if pr.mass[e] > 0]
            assert (got, clamped[e]) == (want, want_clamped)
