import random
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simcol import certify
from simcol.certify import (ClusterConfig, TARGET_RATIO, certify_report,
                            color_rate, frac_str, rate_maxima,
                            threshold_identities, threshold_ratio,
                            verify_flip_properties)
from simcol.cli import main
from simcol.dynamics import FlipParams, FlipUnits

from helpers import scalar_matcher_grid

DEFAULT = FlipParams.default()
GLAUBER = FlipParams.glauber()
VIOLATION = FlipParams((Fraction(1), Fraction(1, 2), Fraction(1, 2)))
# coprime denominators: the flip masses' common denominator D is the lcm
# of the p_s / s denominators, 924
MIXED = FlipParams((Fraction(1), Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)))
# p_2 < p_3: the big components outweigh their anchors on some shapes, so
# the matcher clamps there and the closed form does not apply
CLAMPING = FlipParams((Fraction(1), Fraction(1, 10), Fraction(1, 2), Fraction(1, 2)))
# every dc1 maximizer clamps, so the ranking needs the matcher's values
CLAMPED_MAX = FlipParams((Fraction(1), Fraction(0), Fraction(1, 4), Fraction(1, 10)))
# D is about 6.0e18: the grids and the matcher's ledger hold Python ints
PAST_INT64 = FlipParams.from_text("1\n1/1000000007\n1/1000000009\n")


class TestProperties:
    def test_default_parameters_satisfy_all_four(self):
        props = verify_flip_properties(DEFAULT)
        assert all(p["holds"] for p in props.values())
        assert set(props) == {"scaled_gap_bounded", "weighted_gap_bounded",
                              "dominates_next_two", "scaled_mass_nonincreasing"}

    def test_violation_example_fails_mass_monotonicity_at_two(self):
        props = verify_flip_properties(VIOLATION)
        bad = props["scaled_mass_nonincreasing"]
        assert not bad["holds"]
        assert {"i": 2} in bad["witnesses"]

    def test_glauber_satisfies_all_four(self):
        props = verify_flip_properties(GLAUBER)
        assert all(p["holds"] for p in props.values())

    def test_gap_properties_reach_the_locality(self):
        # 7-local: the gap p_6 - p_7 = 1/10 breaks both gap properties at
        # i = 7, past the rows i <= 6 every schedule gets
        fp = FlipParams((Fraction(1),) + (Fraction(1, 10),) * 6)
        assert fp.locality == 7
        props = verify_flip_properties(fp)
        assert props["scaled_gap_bounded"]["witnesses"] == [{"i": 7}]
        assert props["weighted_gap_bounded"]["witnesses"] == [
            {"i": 7, "W": 1, "l": 1}, {"i": 7, "W": 1, "l": 2},
            {"i": 7, "W": 2, "l": 2}]


class TestRateMaxima:
    """Frozen outputs of the exhaustive configuration search.

    The three branch maxima below were obtained by enumerating every
    neighborhood shape up to the size cap and are pinned here as plain
    numbers; any change to the matcher or the anchor rule that moves
    them is a real behavior change.
    """

    def test_default_single_disagreement_branch(self):
        res = rate_maxima(DEFAULT)["dc1"]
        assert res.lemma_value == Fraction(633, 650)
        assert res.enumerated == Fraction(633, 650)
        assert res.bound_holds and res.attained
        assert any(cfg.x_branch_sizes == (3,) and cfg.y_branch_sizes == (1,)
                   for cfg in res.maximizers)

    def test_default_weight1_double_disagreement_branch(self):
        res = rate_maxima(DEFAULT)["w1dc2"]
        assert res.lemma_value == Fraction(1283, 1300)
        assert res.enumerated == Fraction(1283, 1300)
        assert res.bound_holds and res.attained
        shapes = {(cfg.x_branch_sizes, cfg.y_branch_sizes)
                  for cfg in res.maximizers}
        assert shapes == {((3, 3), (1, 1)), ((1, 1), (3, 3))}

    def test_default_weight2_double_disagreement_branch(self):
        # the closed form 8*p_3 = 308/325 upper-bounds this branch but
        # nothing realizes it; the true maximum is driven by the same
        # shapes as the weight-1 case and sits strictly below
        res = rate_maxima(DEFAULT)["w2dc2"]
        assert res.lemma_value == Fraction(308, 325)
        assert res.enumerated == Fraction(479, 650)
        assert res.bound_holds
        assert not res.attained

    def test_glauber_maxima(self):
        res = rate_maxima(GLAUBER)
        assert res["dc1"].enumerated == Fraction(1)
        assert res["dc1"].attained
        assert res["w1dc2"].enumerated == Fraction(3, 4)
        assert res["w2dc2"].enumerated == Fraction(1, 2)

    def test_size_cap_does_not_move_the_maxima(self):
        # the module docstring's lemma: sizes past the locality + 1 add
        # nothing, so caps L + 1, 8 and 9 find the same branch maxima and
        # the same bound verdicts
        at_cap = {name: (bm.enumerated, bm.bound_holds)
                  for name, bm in rate_maxima(DEFAULT).items()}
        for cap in (DEFAULT.locality + 1, 8, 9):
            got = {name: (bm.enumerated, bm.bound_holds)
                   for name, bm in certify._maxima_at_cap(DEFAULT, cap).items()}
            assert got == at_cap, cap

    @pytest.mark.parametrize("fp, every_shape", [
        (DEFAULT, 2 * 7 ** 2 + 4 * 7 ** 4),
        (GLAUBER, 2 * 2 ** 2 + 4 * 2 ** 4),
    ], ids=["default", "glauber"])
    def test_one_matcher_call_per_shape(self, monkeypatch, fp, every_shape):
        # a cold ranked certificate and a cold certify_report each run one
        # enumeration, which prices each shape once through the matcher,
        # sizes up to the locality + 1 and one pricing per d = 2 shape for
        # both v* weights: 2 weight vectors times cap^2 shapes at d = 1, 4
        # times cap^4 at d = 2.  The matcher and the closed form each run
        # once per weight vector, 2 + 4.
        priced, grids = [], []
        matcher, grid = certify.match_color_moves, certify._closed_form_grid

        def counted(*args):
            pairs, clamped = matcher(*args)
            priced.append(clamped.size)
            return pairs, clamped

        def counted_grid(*args):
            grids.append(args)
            return grid(*args)

        monkeypatch.setattr(certify, "match_color_moves", counted)
        monkeypatch.setattr(certify, "_closed_form_grid", counted_grid)
        rate_maxima.cache_clear()
        try:
            threshold_ratio(fp)
            ranked = (len(priced), sum(priced), len(grids))
            priced.clear()
            grids.clear()
            rate_maxima.cache_clear()
            certify_report(fp)
        finally:
            monkeypatch.undo()
            rate_maxima.cache_clear()
        assert ranked == (len(priced), sum(priced), len(grids)) == (6, every_shape, 6)

    @pytest.mark.parametrize("fp", [
        DEFAULT, GLAUBER, CLAMPING, VIOLATION, MIXED, CLAMPED_MAX,
    ], ids=["default", "glauber", "clamping", "violation", "mixed", "clamped_max"])
    def test_ranked_maxima_equal_the_every_shape_pass(self, monkeypatch, fp):
        # the maxima of the batched pass against those of a pass that the
        # per-shape scalar reference prices, shape by shape
        batched = rate_maxima(fp)
        monkeypatch.setattr(certify, "_matcher_grid", scalar_matcher_grid)
        assert certify._maxima_at_cap(fp, fp.locality + 1) == batched

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.fractions(0, 1, max_denominator=60), max_size=2))
    def test_ranked_maxima_equal_the_every_shape_pass_drawn(self, tail):
        # schedules of locality <= 3, clamping ones among them
        fp = FlipParams((Fraction(1), *tail))
        cap = fp.locality + 1
        batched = certify._maxima_at_cap(fp, cap)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "_matcher_grid", scalar_matcher_grid)
            assert certify._maxima_at_cap(fp, cap) == batched

    def test_locality_cap(self):
        fp = FlipParams(tuple([Fraction(1)] + [Fraction(1, 100)] * 6))
        assert fp.locality == 7
        with pytest.raises(ValueError):
            rate_maxima(fp)


class TestClampPath:
    def test_clamping_schedule_maxima(self, monkeypatch):
        # count the shapes where each route sees a clamp, on a cold ranked
        # certificate and then on certify_report's pass; both assert the
        # two verdicts agree shape by shape
        grid_clamps, matcher_clamps, priced = {}, [], []
        grid, matcher = certify._closed_form_grid, certify.match_color_moves

        def counted_grid(units, weights, xs, ys):
            num, clampable = grid(units, weights, xs, ys)
            key = len(weights)
            grid_clamps[key] = grid_clamps.get(key, 0) + int(clampable.sum())
            return num, clampable

        def counted_matcher(*args):
            pairs, clamped = matcher(*args)
            matcher_clamps.append(int((clamped > 0).sum()))
            priced.append(clamped.size)
            return pairs, clamped

        monkeypatch.setattr(certify, "_closed_form_grid", counted_grid)
        monkeypatch.setattr(certify, "match_color_moves", counted_matcher)
        rate_maxima.cache_clear()
        try:
            mx = rate_maxima(CLAMPING)
            ratio = threshold_ratio(CLAMPING)
            # sizes run to the locality + 1 = 5, and the matcher prices
            # every shape once for both v* weights
            assert grid_clamps == {1: 18, 2: 384}
            assert sum(matcher_clamps) == 18 + 384
            assert sum(priced) == 2 * 5 ** 2 + 4 * 5 ** 4
            grid_clamps.clear()
            matcher_clamps.clear()
            priced.clear()
            rate_maxima.cache_clear()
            certify_report(CLAMPING)
        finally:
            monkeypatch.undo()
            rate_maxima.cache_clear()
        assert grid_clamps == {1: 18, 2: 384}
        assert sum(matcher_clamps) == 18 + 384
        assert sum(priced) == 2 * 5 ** 2 + 4 * 5 ** 4
        assert {name: bm.enumerated for name, bm in mx.items()} == {
            "dc1": Fraction(13, 2), "w1dc2": Fraction(6), "w2dc2": Fraction(11, 2)}
        assert ratio == 28

    def test_clamped_maximizers_take_the_matcher_value(self):
        # ranked on the closed form alone, dc1 would read 8/5 with 4
        # maximizers
        dc1 = rate_maxima(CLAMPED_MAX)["dc1"]
        assert (dc1.enumerated, len(dc1.maximizers)) == (Fraction(7, 4), 2)
        assert all(color_rate(cfg, CLAMPED_MAX) == Fraction(7, 4)
                   for cfg in dc1.maximizers)

    def test_clamped_shape_takes_the_matcher_value(self):
        # a big X component of size 3 against its anchor branch of size 2:
        # mass(3) = D/2 > mass(2) = D/10, so the closed form goes negative
        cfg = ClusterConfig(vstar_weight=1, neighbor_weights=(1,),
                            x_branch_sizes=(2,), y_branch_sizes=(1,))
        num, clampable = certify._closed_form_grid(
            CLAMPING.units, (1,), np.array([(2,)]), np.array([(1,)]))
        assert clampable[0, 0]
        matched, clamped = certify._matcher_grid(CLAMPING.units, (1,),
                                                 np.array([(2,)]), np.array([(1,)]))
        assert clamped[0, 0] == 1
        den = cfg.color_weight * CLAMPING.units.den
        closed = Fraction(int(num[0, 0]), den)
        assert color_rate(cfg, CLAMPING) == Fraction(int(matched[0, 0]), den) != closed


class TestSizeCapLemma:
    """The module docstring's lemma: clipping every branch size s to
    min(s, L + 1) moves no shape's value or clamp verdict on either route,
    so an enumeration capped at L + 1 loses nothing."""

    SCHEDULES = {"default": DEFAULT, "glauber": GLAUBER, "clamping": CLAMPING,
                 "mixed": MIXED}

    @staticmethod
    def size_rows(fp, d):
        """Size tuples in 1..L+3: every one for d <= 2, 200 seeded draws past."""
        top = fp.locality + 3
        if d <= 2:
            return certify._size_grid(d, top)
        return np.random.default_rng(d).integers(1, top + 1, size=(200, d))

    @classmethod
    def check_grid(cls, fp, d):
        rows = cls.size_rows(fp, d)
        clipped = np.minimum(rows, fp.locality + 1)
        for weights in product((1, 2), repeat=d):
            num, clamp = certify._closed_form_grid(fp.units, weights, rows, rows)
            cnum, cclamp = certify._closed_form_grid(fp.units, weights,
                                                     clipped, clipped)
            moved = np.argwhere((num != cnum) | (clamp != cclamp))
            assert not len(moved), (
                f"grid moves under clipping: weights {weights}, "
                f"x {rows[moved[0][0]]}, y {rows[moved[0][1]]}")

    @classmethod
    def check_matcher(cls, fp, d):
        rows = cls.size_rows(fp, d)
        clipped = np.minimum(rows, fp.locality + 1)
        for weights in product((1, 2), repeat=d):
            num, clamps = certify._matcher_grid(fp.units, weights, rows, rows)
            cnum, cclamps = certify._matcher_grid(fp.units, weights, clipped, clipped)
            moved = np.argwhere((num != cnum) | (clamps != cclamps))
            assert not len(moved), (
                f"matcher moves under clipping: weights {weights}, "
                f"x {rows[moved[0][0]]}, y {rows[moved[0][1]]}")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_clipping_moves_nothing(self, name, d):
        fp = self.SCHEDULES[name]
        self.check_grid(fp, d)
        self.check_matcher(fp, d)

    @pytest.mark.parametrize("wstar, weights, x, y", [
        (1, (1,), (9,), (1,)), (1, (2, 1), (9, 2), (1, 9)),
        (2, (1, 2, 2), (3, 9, 1), (9, 9, 2)),
    ], ids=["d1", "d2", "d3"])
    def test_color_rate_past_the_cap(self, wstar, weights, x, y):
        # sizes up to L + 3 = 9 price as the same shape clipped to L + 1
        cap = DEFAULT.locality + 1
        got = color_rate(ClusterConfig(wstar, weights, x, y), DEFAULT)
        clipped = ClusterConfig(wstar, weights, tuple(min(s, cap) for s in x),
                                tuple(min(s, cap) for s in y))
        assert got == color_rate(clipped, DEFAULT)

    @pytest.mark.parametrize("route", ["grid", "matcher"])
    def test_mass_past_the_locality_is_caught(self, monkeypatch, route):
        # a flip mass that does not vanish past L: then a size past L + 1
        # moves its shape's value, and the clipping check must say so
        def leaky(units, size):
            return units.p[size] if size < len(units.p) else size - len(units.p) + 1

        monkeypatch.setattr(FlipUnits, "mass", leaky)
        with pytest.raises(AssertionError, match=f"{route} moves"):
            getattr(self, f"check_{route}")(DEFAULT, 2)


class TestDualCheckCoverage:
    """The closed form stays a second route on every shape, not only on
    the maximizers: a wrong value anywhere must stop `certify_report` and
    `simcol certify`, and one lifted to a maximum must stop the ranked
    certificate too."""

    # unclamped under the default schedule (no shape clamps there) and far
    # below the w1dc2 maximum
    TARGET = ClusterConfig(vstar_weight=1, neighbor_weights=(1, 2),
                           x_branch_sizes=(2, 1), y_branch_sizes=(1, 4))
    # how a mismatch names it: the check runs before v*'s offset
    NAMED = re.escape("weights (1, 2), x sizes (2, 1), y sizes (1, 4)")

    def test_target_is_unclamped_and_not_maximal(self):
        assert color_rate(self.TARGET, DEFAULT) < rate_maxima(DEFAULT)["w1dc2"].enumerated
        _, clampable = certify._closed_form_grid(
            DEFAULT.units, (1, 2), np.array([(2, 1)]), np.array([(1, 4)]))
        assert not clampable.any()

    @classmethod
    def mispriced(cls, monkeypatch, price):
        """Patch the closed form to give TARGET price(num, units) instead."""
        grid = certify._closed_form_grid
        t = cls.TARGET

        def mutated(units, weights, xs, ys):
            num, clampable = grid(units, weights, xs, ys)
            if tuple(weights) == t.neighbor_weights:
                rows = np.nonzero((xs == t.x_branch_sizes).all(axis=1))[0]
                cols = np.nonzero((ys == t.y_branch_sizes).all(axis=1))[0]
                at = np.ix_(rows, cols)
                num[at] = price(num[at], units)
            return num, clampable

        monkeypatch.setattr(certify, "_closed_form_grid", mutated)

    @pytest.mark.parametrize("entry", [lambda: certify_report(DEFAULT),
                                       lambda: main(["certify"])],
                             ids=["certify_report", "simcol_certify"])
    def test_one_mispriced_shape_is_caught(self, monkeypatch, entry):
        self.mispriced(monkeypatch, lambda num, units: num + 1)
        rate_maxima.cache_clear()
        try:
            with pytest.raises(AssertionError, match=self.NAMED):
                entry()
        finally:
            monkeypatch.undo()
            rate_maxima.cache_clear()

    def test_shape_lifted_to_the_maximum_is_caught_by_the_ranking(self, monkeypatch):
        # value 2 before v*'s offset, 5/3 after it, over the w1dc2 maximum
        # 1283/1300: TARGET would become the one maximizer, and the
        # matcher's pricing of it, before the ranking, must disagree
        cw = self.TARGET.color_weight
        self.mispriced(monkeypatch, lambda num, units: 2 * cw * units.den)
        rate_maxima.cache_clear()
        try:
            with pytest.raises(AssertionError, match=self.NAMED):
                threshold_ratio(DEFAULT)
        finally:
            monkeypatch.undo()
            rate_maxima.cache_clear()


def test_one_mismatched_matcher_shape_is_caught(monkeypatch):
    # the matcher route's mirror of TestDualCheckCoverage: one d = 2 shape
    # priced wrong inside its weight vector's grid, which both v* weights
    # share, stops the ranked certificate and certify_report alike
    grid = certify._matcher_grid
    t = TestDualCheckCoverage.TARGET

    def mutated(units, weights, xs, ys):
        num, clamped = grid(units, weights, xs, ys)
        if weights == t.neighbor_weights:
            num[np.ix_((xs == t.x_branch_sizes).all(axis=1),
                       (ys == t.y_branch_sizes).all(axis=1))] += 1
        return num, clamped

    monkeypatch.setattr(certify, "_matcher_grid", mutated)
    for entry in (lambda: rate_maxima(DEFAULT), lambda: certify_report(DEFAULT)):
        rate_maxima.cache_clear()
        try:
            with pytest.raises(AssertionError, match=TestDualCheckCoverage.NAMED):
                entry()
        finally:
            rate_maxima.cache_clear()


class TestBatchedMatcher:
    """The certificate's matcher pass, one call per weight vector, against
    the per-shape scalar reference in tests/helpers.py."""

    SCHEDULES = {"default": DEFAULT, "glauber": GLAUBER, "violation": VIOLATION,
                 "mixed": MIXED, "clamping": CLAMPING, "past_int64": PAST_INT64}

    @pytest.mark.parametrize("name", list(SCHEDULES))
    def test_every_shape_equals_the_scalar_reference(self, monkeypatch, name):
        # the six schedules `simcol certify` output is pinned on: every
        # shape's value and clamp count, and the ledger's width
        fp = self.SCHEDULES[name]
        ledgers = set()
        matcher = certify.match_color_moves

        def recorded(*args):
            pairs, clamped = matcher(*args)
            ledgers.update(p.mass.dtype for p in pairs)
            return pairs, clamped

        monkeypatch.setattr(certify, "match_color_moves", recorded)
        grid_dtype = np.int64
        for d in (1, 2):
            grid = certify._size_grid(d, fp.locality + 1)
            for weights in product((1, 2), repeat=d):
                num, clamps = certify._matcher_grid(fp.units, weights, grid, grid)
                ref, ref_clamps = scalar_matcher_grid(fp.units, weights, grid, grid)
                wrong = np.argwhere((num != ref) | (clamps != ref_clamps))
                assert not len(wrong), (weights, grid[wrong[0][0]], grid[wrong[0][1]])
                grid_dtype = num.dtype
        wide = name == "past_int64"
        assert ledgers == {np.dtype(object if wide else np.int64)}
        assert grid_dtype == (object if wide else np.int64)


class TestGridWidth:
    def test_int64_grid_below_the_bound_object_past_it(self):
        # the last schedule of tests/test_cli.py's certify pins: D is about
        # 6.0e18, and an int64 grid would wrap
        assert certify._grid_dtype(650, 2, 8) is np.int64
        huge = FlipParams.from_text("1\n1/1000000007\n1/1000000009\n")
        assert certify._grid_dtype(huge.units.den, 1, 8) is object

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grid_matches_per_shape_color_rate(self, data):
        # a 3x2 grid against color_rate's 1x1 grids, d = 1..4
        d = data.draw(st.integers(1, 4))
        weights = tuple(data.draw(st.sampled_from((1, 2))) for _ in range(d))
        xs = [tuple(data.draw(st.integers(1, 8)) for _ in range(d)) for _ in range(3)]
        ys = [tuple(data.draw(st.integers(1, 8)) for _ in range(d)) for _ in range(2)]
        units = MIXED.units
        num, _ = certify._closed_form_grid(units, weights, np.array(xs), np.array(ys))
        offset = (d - 1) * 2 * units.den  # v* of weight 2
        for (i, x), (j, y) in product(enumerate(xs), enumerate(ys)):
            cfg = ClusterConfig(vstar_weight=2, neighbor_weights=weights,
                                x_branch_sizes=x, y_branch_sizes=y)
            den = cfg.color_weight * units.den
            assert Fraction(int(num[i, j]) - offset, den) == color_rate(cfg, MIXED)


class TestThreshold:
    def test_default_threshold_exact(self):
        assert threshold_ratio(DEFAULT) == Fraction(1933, 325)

    def test_both_branch_thresholds_coincide(self):
        th = certify_report(DEFAULT)["branch_thresholds"]
        assert th == {"weight1": "1933/325", "weight2": "1933/325"}

    def test_identities(self):
        p = DEFAULT.p
        ids = threshold_identities(DEFAULT)
        assert ids["weight1_direct"] == 2 + 4 * (Fraction(3, 4) + 2 * p(3))
        assert ids["weight2_direct"] == 4 + 2 * (p(1) + p(2) - 2 * p(3))
        assert ids["weight1_direct"] == ids["weight2_direct"] == Fraction(1933, 325)

    def test_below_target(self):
        assert threshold_ratio(DEFAULT) < TARGET_RATIO
        assert float(threshold_ratio(DEFAULT)) < 5.948

    def test_glauber_threshold_is_six(self):
        assert threshold_ratio(GLAUBER) == 6


class TestColorRate:
    def test_matcher_and_closed_form_agree_on_worked_shape(self):
        cfg = ClusterConfig(vstar_weight=1, neighbor_weights=(1,),
                            x_branch_sizes=(3,), y_branch_sizes=(1,))
        assert color_rate(cfg, DEFAULT) == Fraction(633, 650)

    def test_weight1_maximizer_value(self):
        cfg = ClusterConfig(vstar_weight=1, neighbor_weights=(2, 2),
                            x_branch_sizes=(3, 3), y_branch_sizes=(1, 1))
        assert color_rate(cfg, DEFAULT) == Fraction(1283, 1300)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dual_evaluation_agrees_everywhere(self, data):
        # the closed form and the concrete matcher must price every
        # configuration identically; color_rate asserts that internally,
        # so surviving the call is the test
        wstar = data.draw(st.sampled_from((1, 2)))
        d = data.draw(st.integers(1, 2 if wstar == 1 else 4))
        weights = tuple(data.draw(st.sampled_from((1, 2))) for _ in range(d))
        xs = tuple(data.draw(st.integers(1, 6)) for _ in range(d))
        ys = tuple(data.draw(st.integers(1, 6)) for _ in range(d))
        cfg = ClusterConfig(vstar_weight=wstar, neighbor_weights=weights,
                            x_branch_sizes=xs, y_branch_sizes=ys)
        color_rate(cfg, DEFAULT)
        color_rate(cfg, GLAUBER)

    @pytest.mark.parametrize("weights, x_sizes, y_sizes, message", [
        ((), (), (), "between 1 and 4 neighbors share a color"),
        ((1,) * 5, (1,) * 5, (1,) * 5, "between 1 and 4 neighbors share a color"),
        ((1, 1), (1,), (1, 1), "need one branch size per neighbor on both sides"),
        ((1, 1), (1, 1), (1, 0), "branch sizes are at least 1"),
    ], ids=["no-neighbor", "five-neighbors", "short-sizes", "size-0"])
    def test_config_refusals(self, weights, x_sizes, y_sizes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClusterConfig(vstar_weight=2, neighbor_weights=weights,
                          x_branch_sizes=x_sizes, y_branch_sizes=y_sizes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(vstar_weight=1, neighbor_weights=(1, 1, 1),
                          x_branch_sizes=(1, 1, 1), y_branch_sizes=(1, 1, 1))
        with pytest.raises(ValueError):
            ClusterConfig(vstar_weight=3, neighbor_weights=(1,),
                          x_branch_sizes=(1,), y_branch_sizes=(1,))


class TestReport:
    def test_report_shape_and_values(self):
        rep = certify_report(DEFAULT)
        assert rep["threshold"] == "1933/325"
        assert rep["below_target"] is True
        assert rep["all_properties_hold"] is True
        assert rep["maxima"]["dc1"]["enumerated_max"] == "633/650"
        assert rep["maxima"]["w1dc2"]["argmax_count"] == 2
        assert rep["flip_params"] == ["1/1", "137/650", "77/650",
                                      "47/650", "27/650", "6/325"]

    def test_mixed_denominator_report(self):
        rep = certify_report(MIXED)
        assert rep["threshold"] == "226/33"
        assert rep["branch_thresholds"] == {"weight1": "226/33", "weight2": "212/33"}
        got = {name: (b["enumerated_max"], b["bound_holds"], b["argmax_count"])
               for name, b in rep["maxima"].items()}
        assert got == {"dc1": ("40/33", False, 2),
                       "w1dc2": ("7/6", False, 3),
                       "w2dc2": ("5/6", True, 4)}

    def test_violation_report(self):
        rep = certify_report(VIOLATION)
        assert rep["all_properties_hold"] is False
        assert not rep["properties"]["scaled_mass_nonincreasing"]["holds"]


def test_frac_str():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(Fraction(6)) == "6/1"
