"""Exact rational certification of the contraction threshold.

Everything here is abstract: no graph instances, only the shape of a
disagreement neighborhood for one color (how many neighbors carry the
color, their weights, and the sizes of the alternating components hanging
off them).  For each shape the expected weighted-Hamming change of one
coupled step is evaluated two independent ways: by `match_color_moves`,
handed sizes and weights as the concrete coupling tables hand them, and
by closed-form expressions that pick their own anchors; the two must
agree.  Exhaustive enumeration of shapes
then yields the per-branch maxima that assemble into the k/Delta
threshold ratio certifying contraction.

Both evaluations run in the schedule's integer unit: with D =
`FlipParams.units.den`, every flip mass is the integer p_s * D (0 past
the locality), and every shape value is num / (color_weight * D) with an
integer num.  The dual check compares two integers, shapes are ranked by
cross-multiplication, and a Fraction is built only for what the report
exposes (a branch maximum, a single color_rate value).

The closed form is one numpy broadcast per weight vector over the whole
(x sizes) x (y sizes) grid: each side's big mass, its anchor (the first
argmax of size*4 + weight, `pick_anchor`'s rule) and its leftovers are
computed once per row or column, and the per-neighbor max terms pair
them up.  The same broadcast marks where a clamp is possible: a big
component heavier than its anchor branch on either side.

Both routes price a shape without v*, whose weight adds the same
(d-1) * wstar * D to every d-neighbor shape: the offset is taken off
only where shapes are ranked and in `color_rate`, so one grid per
weight vector serves both v* weights.  The matcher route is one numpy
pass per weight vector: `match_color_moves` runs its ledger once on
arrays that hold one entry per shape, each shape picking its own
anchors.  Every enumeration prices every shape both ways before the
ranking, so `rate_maxima`, the drift bound read from it and
`certify_report` all fail on a shape the two routes price differently,
wherever it lies.

Branch sizes are enumerated up to cap = L + 1, L the locality, and
nothing is lost by the cap.  A branch size s enters a shape's value only
through three terms, and each carries a flip mass that is 0 once s > L:
the branch's own mass(s), the big component's mass(1 + sum of sizes),
which is past L too, and the (s-1) * mass(s) term.  The matcher never
pairs a component of zero mass, and the anchor choice then moves only a
big mass of 0.  So a shape's value and clamp mask are unchanged when
every size s is replaced by min(s, L + 1), on both routes; the tests
clip sizes up to L + 3 and check exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from .dynamics import FlipParams, FlipUnits
from .matching import match_color_moves

TARGET_RATIO = Fraction(5948, 1000)
# maximizer shapes listed per branch in certify_report
MAX_ARGMAX = 8

def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class ClusterConfig:
    """Abstract disagreement neighborhood for one color.

    neighbor_weights: weights of the neighbors carrying the color.
    x_branch_sizes[i]: size of the branch through neighbor i inside the
    big X-side component (the piece the Y chain flips on its own).
    y_branch_sizes[i]: the mirror image.  Non-neighbor branch members are
    counted at weight 2, the heaviest they can be.
    """

    vstar_weight: int
    neighbor_weights: tuple[int, ...]
    x_branch_sizes: tuple[int, ...]
    y_branch_sizes: tuple[int, ...]

    def __post_init__(self):
        d = len(self.neighbor_weights)
        if not (1 <= d <= 4):
            raise ValueError("between 1 and 4 neighbors share a color")
        if len(self.x_branch_sizes) != d or len(self.y_branch_sizes) != d:
            raise ValueError("need one branch size per neighbor on both sides")
        if self.vstar_weight not in (1, 2) or any(
                w not in (1, 2) for w in self.neighbor_weights):
            raise ValueError("weights are 1 or 2")
        if self.vstar_weight == 1 and d > 2:
            raise ValueError("a weight-1 vertex meets a color at most twice")
        if min(self.x_branch_sizes + self.y_branch_sizes) < 1:
            raise ValueError("branch sizes are at least 1")

    @property
    def d(self) -> int:
        return len(self.neighbor_weights)

    @property
    def color_weight(self) -> int:
        return sum(self.neighbor_weights)

    def as_dict(self) -> dict:
        return {
            "vstar_weight": self.vstar_weight,
            "neighbor_weights": list(self.neighbor_weights),
            "x_branch_sizes": list(self.x_branch_sizes),
            "y_branch_sizes": list(self.y_branch_sizes),
        }


def _grid_dtype(den: int, d: int, cap: int):
    """int64 when no value of a d-neighbor grid with sizes up to cap can
    leave it, else exact Python ints (dtype=object).

    Every mass lies in [0, D] and every weighted size w + 2*(s-1) in
    [1, 2*cap].  Per neighbor the closed form adds at most two weighted
    sizes times a big mass (2*cap*D each), a max term (2*D) and two
    (size-1) terms (2*(cap-1)*D each); every partial sum, and a sum less
    v*'s (d-1)*wstar*D offset, stays within 8*d*cap*D in absolute value.
    The matcher's numerator sums paired amounts times deltas, each delta
    within its two partners' weighted sizes, and spends every mass once,
    so its partial sums stay within D times twice both sides' weighted
    sizes, 8*d*cap*D too; its ledger (amounts in [0, D], cumulative
    leftovers within d*D) is int64 at least wherever the grid is.  The
    ranking multiplies a numerator by a color weight of at most 2*d.
    """
    return np.int64 if 16 * d * d * cap * den < 2 ** 63 else object


def _size_grid(d: int, cap: int) -> np.ndarray:
    """Every size tuple in 1..cap, one per row, in `product` order."""
    return np.indices((cap,) * d).reshape(d, -1).T + 1


def _closed_form_grid(units: FlipUnits, weights, xs: np.ndarray,
                      ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form numerators over color_weight * D for every (x, y) shape,
    without v*'s offset.

    xs (rows) and ys (columns) hold one tuple of branch sizes per row.
    Returns (num, clampable), both of shape (len(xs), len(ys)).  Each side
    picks its own anchor as the first argmax of size*4 + weight (sizes
    first, ties to the heavier neighbor, then to the lower index: the rule
    `pick_anchor` states).  A clamp is possible exactly where a big
    component outweighs its anchor branch, mass(1 + sum) > mass(anchor
    size), on either side; there the closed form's leftovers go negative.
    """
    d = len(weights)
    cap = int(max(xs.max(), ys.max()))
    dtype = _grid_dtype(units.den, d, cap)
    mass = np.array([units.mass(s) for s in range(d * cap + 2)], dtype=dtype)
    w = np.array(weights, dtype=dtype)

    def side(sizes):
        rows = np.arange(len(sizes))
        anchor = np.argmax(sizes * 4 + np.asarray(weights), axis=1)
        big = mass[1 + sizes.sum(axis=1)]
        q = mass[sizes]
        lead = q[rows, anchor]
        q[rows, anchor] -= big
        extra = (sizes - 1).astype(dtype)
        wsize = w + 2 * extra
        fixed = (big * (wsize.sum(axis=1) - wsize[rows, anchor])
                 + (2 * q * extra).sum(axis=1))
        return fixed, q, big > lead

    fixed_a, q, clamp_a = side(xs)
    fixed_b, qp, clamp_b = side(ys)
    num = fixed_a[:, None] + fixed_b[None, :]
    for i in range(d):
        num += w[i] * np.maximum(q[:, None, i], qp[None, :, i])
    return num, clamp_a[:, None] | clamp_b[None, :]


def _matcher_grid(units: FlipUnits, weights, xs: np.ndarray,
                  ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Price every (x, y) shape through the coupling's own mass matching,
    in one ledger pass.

    xs (rows) and ys (columns) hold one tuple of branch sizes per row.
    Component ids: 0 is the big X component, 1 the big Y one, then the
    X-side branches (Y sizes), then the Y-side branches (X sizes).
    Returns (numerators over color_weight * D without v*'s offset, clamp
    counts), both of shape (len(xs), len(ys)).
    """
    d = len(weights)
    dtype = _grid_dtype(units.den, d, int(max(xs.max(), ys.max())))
    # per neighbor, an (R, 1) array of X sizes and a (1, C) one of Y sizes
    rows, cols = xs.T[:, :, None], ys.T[:, None, :]
    x_ids, y_ids = tuple(range(2, 2 + d)), tuple(range(2 + d, 2 + 2 * d))
    pairs, clamped = match_color_moves(0, 1, x_ids, y_ids,
                                       (1 + rows.sum(0), 1 + cols.sum(0), *cols, *rows),
                                       weights, units)
    # metric weight each component's flip moves, by id
    w = np.array(weights, dtype=dtype)[:, None, None]
    uw, tw = w + 2 * (rows - 1), w + 2 * (cols - 1)
    gain = (uw.sum(0), tw.sum(0), *tw, *uw)

    num = np.zeros(clamped.shape, dtype=dtype)
    for p in pairs:
        x, y = p.x, p.y
        if y is None:
            delta = gain[x]
        elif x is None:
            delta = gain[y]
        elif x == 0 or y == 1:
            # the big component minus the branch riding with it
            delta = gain[x] - gain[y] if x == 0 else gain[y] - gain[x]
        elif y - x == d:
            # the two branches at one neighbor overlap exactly in the neighbor
            delta = gain[x] + gain[y] - weights[x - 2]
        else:
            delta = gain[x] + gain[y]
        num += p.mass * delta
    return num, clamped


def _dual_check(units: FlipUnits, weights, xs: np.ndarray, ys: np.ndarray,
                num: np.ndarray, clampable: np.ndarray) -> None:
    """Price every (x, y) shape by the matcher too and check it against
    the closed form num; xs (rows) and ys (columns) hold size tuples.

    Where no clamp is possible the two routes must agree; where one is,
    the closed form's leftover expressions go negative and only the
    matching is meaningful, so the shape takes the matcher's value in
    num.  Both routes must see the same clamps.
    """
    matched, clamped = _matcher_grid(units, weights, xs, ys)
    clamped = clamped > 0
    bad = (clamped != clampable) | (~clampable & (matched != num))
    if bad.any():
        i, j = (int(k) for k in np.argwhere(bad)[0])
        raise AssertionError(
            f"evaluation mismatch at weights {weights}, x sizes {tuple(xs[i].tolist())}, "
            f"y sizes {tuple(ys[j].tolist())}: matching {matched[i, j]} (clamped "
            f"{bool(clamped[i, j])}) vs closed form {num[i, j]} (clampable "
            f"{bool(clampable[i, j])}), over {sum(weights) * units.den}, before v*'s offset")
    num[clampable] = matched[clampable]


def color_rate(cfg: ClusterConfig, fp: FlipParams) -> Fraction:
    """Normalized expected metric change charged to one color, times m*k.

    Computed through the mass matching; cross-checked against the closed
    form (a 1x1 grid) wherever no clamp is possible.
    """
    xs, ys = np.array([cfg.x_branch_sizes]), np.array([cfg.y_branch_sizes])
    weights, units = cfg.neighbor_weights, fp.units
    num, clampable = _closed_form_grid(units, weights, xs, ys)
    _dual_check(units, weights, xs, ys, num, clampable)
    offset = (cfg.d - 1) * cfg.vstar_weight * units.den
    return Fraction(int(num[0, 0]) - offset, cfg.color_weight * units.den)


@dataclass(frozen=True)
class BranchMaximum:
    lemma_value: Fraction
    enumerated: Fraction
    maximizers: tuple[ClusterConfig, ...]
    bound_holds: bool
    attained: bool


def _enumerate_branches(units: FlipUnits, d: int, cap: int,
                        lemma_values: dict[int, Fraction]) -> dict[int, BranchMaximum]:
    """The branch maxima over every d-neighbor shape with sizes in 1..cap,
    for each v* weight in lemma_values.

    One closed-form grid per weight vector serves every v* weight, and
    the matcher prices the same grid in one pass; the clampable shapes
    take the matcher's value.  A shape's value is (num -
    offset) / (color_weight * D), offset = (d-1) * wstar * D, so shapes
    are ranked by cross-multiplication.
    """
    grid = _size_grid(d, cap)
    groups = []
    for weights in product((1, 2), repeat=d):
        num, clampable = _closed_form_grid(units, weights, grid, grid)
        _dual_check(units, weights, grid, grid, num, clampable)
        groups.append((weights, num))

    # per v* weight: the largest value, and each group's maximizer mask
    best, tops = {}, {}
    for wstar in lemma_values:
        offset = (d - 1) * wstar * units.den
        top, cw = max(((int(num.max()) - offset, sum(weights))
                       for weights, num in groups),
                      key=lambda top: Fraction(*top))
        best[wstar] = Fraction(top, cw * units.den)
        tops[wstar] = [(num - offset) * cw == top * sum(weights)
                       for weights, num in groups]
    tuples = [tuple(row) for row in grid.tolist()]

    return {wstar: BranchMaximum(
        lemma_value=lemma_value, enumerated=best[wstar],
        maximizers=tuple(
            ClusterConfig(vstar_weight=wstar, neighbor_weights=weights,
                          x_branch_sizes=tuples[i], y_branch_sizes=tuples[j])
            for (weights, _), top in zip(groups, tops[wstar])
            for i, j in zip(*np.nonzero(top))),
        bound_holds=best[wstar] <= lemma_value,
        attained=best[wstar] == lemma_value)
        for wstar, lemma_value in lemma_values.items()}


def _maxima_at_cap(fp: FlipParams, cap: int) -> dict[str, BranchMaximum]:
    """`rate_maxima` with branch sizes enumerated up to cap."""
    if fp.locality > 6:
        raise ValueError(f"size cap {fp.locality + 1} (the locality + 1) is "
                         f"past 7: certification covers 6-local chains")
    p1, p2, p3 = fp.p(1), fp.p(2), fp.p(3)
    units = fp.units
    dc1 = _enumerate_branches(units, 1, cap, {1: p1 + p2 - 2 * p3})
    dc2 = _enumerate_branches(units, 2, cap, {1: Fraction(3, 4) + 2 * p3,
                                              2: 8 * p3})
    return {"dc1": dc1[1], "w1dc2": dc2[1], "w2dc2": dc2[2]}


@lru_cache(maxsize=None)
def rate_maxima(fp: FlipParams) -> dict[str, BranchMaximum]:
    """Exhaustive per-branch maxima of color_rate over abstract shapes.

    Branch keys: "dc1" (one neighbor, any weights), "w1dc2" and "w2dc2"
    (two neighbors at a weight-1 resp. weight-2 disagreement vertex).
    Branch sizes run up to the locality + 1, which the module docstring's
    lemma shows loses nothing.  One enumeration prices every shape by
    both routes and ranks them.  The lemma_value fields are the
    closed-form bounds the threshold identities quote; bound_holds
    records whether enumeration stayed under them, attained whether it
    reached them.
    """
    return _maxima_at_cap(fp, fp.locality + 1)


def _thresholds(mx: dict[str, BranchMaximum]) -> dict[str, Fraction]:
    return {
        "weight1": 2 + 4 * max(mx["w1dc2"].enumerated, mx["dc1"].enumerated),
        "weight2": 4 + 2 * max(mx["w2dc2"].enumerated, mx["dc1"].enumerated),
    }


def threshold_ratio(fp: FlipParams) -> Fraction:
    """The certified k/Delta ratio above which adjacent pairs contract."""
    return max(_thresholds(rate_maxima(fp)).values())


def threshold_identities(fp: FlipParams) -> dict[str, Fraction]:
    """Direct closed-form expressions for the two weight branches."""
    p1, p2, p3 = fp.p(1), fp.p(2), fp.p(3)
    return {
        "weight1_direct": 2 + 4 * (Fraction(3, 4) + 2 * p3),
        "weight2_direct": 4 + 2 * (p1 + p2 - 2 * p3),
    }


def verify_flip_properties(fp: FlipParams) -> dict[str, dict]:
    """The four structural inequalities the drift lemmas lean on.

    Each entry carries every witness tuple violating the inequality, so a
    clean report has empty witness lists throughout.
    """
    loc = fp.locality
    report: dict[str, dict] = {}

    # through i = 6 at least: below locality 6 those rows encode p2 >= p3
    gaps = range(2, max(loc, 6) + 1)
    witnesses = [{"i": i} for i in gaps if (i - 1) * fp.diff(i) > fp.diff(2)]
    report["scaled_gap_bounded"] = {"holds": not witnesses, "witnesses": witnesses}

    witnesses = [
        {"i": i, "W": w, "l": l}
        for i, w, l in product(gaps, (1, 2), (1, 2))
        if (w + 2 * l * (i - 1)) * fp.diff(i) > w * fp.diff(1)
    ]
    report["weighted_gap_bounded"] = {"holds": not witnesses, "witnesses": witnesses}

    witnesses = [{"i": i} for i in range(1, loc + 1)
                 if fp.p(i) < fp.p(i + 1) + fp.p(i + 2)]
    report["dominates_next_two"] = {"holds": not witnesses, "witnesses": witnesses}

    witnesses = [{"i": i} for i in range(1, loc + 1)
                 if i * fp.p(i) < (i + 1) * fp.p(i + 1)]
    report["scaled_mass_nonincreasing"] = {"holds": not witnesses,
                                           "witnesses": witnesses}
    return report


def certify_report(fp: FlipParams) -> dict:
    """JSON-ready certification summary; rationals as "num/den" strings.

    The maxima are `rate_maxima`'s, whose one enumeration prices every
    shape by both routes, so a shape the two routes price differently
    fails the report wherever it lies.
    """
    mx = rate_maxima(fp)
    branches = _thresholds(mx)
    ratio = max(branches.values())
    identities = threshold_identities(fp)
    properties = verify_flip_properties(fp)
    return {
        "flip_params": [frac_str(p) for p in fp.probs],
        "properties": properties,
        "maxima": {
            name: {
                "lemma_value": frac_str(bm.lemma_value),
                "enumerated_max": frac_str(bm.enumerated),
                "bound_holds": bm.bound_holds,
                "attained": bm.attained,
                "argmax": [c.as_dict() for c in bm.maximizers[:MAX_ARGMAX]],
                "argmax_count": len(bm.maximizers),
            }
            for name, bm in mx.items()
        },
        "branch_thresholds": {k: frac_str(v) for k, v in branches.items()},
        "threshold": frac_str(ratio),
        "identities": {k: frac_str(v) for k, v in identities.items()},
        "target_ratio": frac_str(TARGET_RATIO),
        "below_target": ratio < TARGET_RATIO,
        "all_properties_hold": all(p["holds"] for p in properties.values()),
    }
