import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from simcol.dynamics import FlipParams, FlipUnits
from simcol.matching import MatchedPair, match_color_moves, pick_anchor


class TestPickAnchor:
    def test_largest_size_wins(self):
        assert pick_anchor([1, 3, 2], [2, 1, 2]) == 1

    def test_weight_breaks_size_ties(self):
        assert pick_anchor([3, 3], [1, 2]) == 1
        assert pick_anchor([3, 3], [2, 1]) == 0

    def test_first_index_on_full_tie(self):
        assert pick_anchor([2, 2, 2], [1, 1, 1]) == 0
        assert pick_anchor([2, 2], [2, 2]) == 0


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
