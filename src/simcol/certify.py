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

Component sizes are capped at 8: under a 6-local chain any size past the
locality carries zero flip mass, and sizes only enter the formulas
through flip probabilities and through (size-1) factors multiplied by
probability differences that vanish past the cap, so larger shapes are
equivalence-classed by the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .dynamics import FlipParams, FlipUnits
from .matching import match_color_moves, pick_anchor

SIZE_CAP = 8
TARGET_RATIO = Fraction(5948, 1000)
# maximizer shapes listed per branch in certify_report
MAX_ARGMAX = 8

_BIG_X = "big_x"
_BIG_Y = "big_y"


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
        for s in (*self.x_branch_sizes, *self.y_branch_sizes):
            if not (1 <= s <= SIZE_CAP):
                raise ValueError(f"branch sizes lie in 1..{SIZE_CAP}")

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


def _matcher_rate(cfg: ClusterConfig, units: FlipUnits) -> tuple[int, int]:
    """Evaluate the shape through the coupling's own mass matching.

    Returns (numerator over color_weight * D, clamp count).
    """
    d = cfg.d
    t_ids = [("t", i) for i in range(d)]
    u_ids = [("u", i) for i in range(d)]
    size = {_BIG_X: 1 + sum(cfg.x_branch_sizes),
            _BIG_Y: 1 + sum(cfg.y_branch_sizes)}
    for i in range(d):
        size[t_ids[i]] = cfg.y_branch_sizes[i]
        size[u_ids[i]] = cfg.x_branch_sizes[i]
    pairs, clamped = match_color_moves(_BIG_X, _BIG_Y, t_ids, u_ids, size,
                                       cfg.neighbor_weights, units)

    uw = [w + 2 * (s - 1) for w, s in zip(cfg.neighbor_weights, cfg.x_branch_sizes)]
    tw = [w + 2 * (s - 1) for w, s in zip(cfg.neighbor_weights, cfg.y_branch_sizes)]

    def delta(x, y) -> int:
        if x == _BIG_X:
            return sum(uw) if y is None else sum(uw) - uw[y[1]]
        if y == _BIG_Y:
            return sum(tw) if x is None else sum(tw) - tw[x[1]]
        if x is None:
            return uw[y[1]]
        if y is None:
            return tw[x[1]]
        i, j = x[1], y[1]
        if i == j:
            # the two branches at one neighbor overlap exactly in the neighbor
            return uw[i] + tw[i] - cfg.neighbor_weights[i]
        return tw[i] + uw[j]

    raw = sum(p.mass * delta(p.x, p.y) for p in pairs)
    return raw - (d - 1) * cfg.vstar_weight * units.den, clamped


def _closed_form_rate(cfg: ClusterConfig, units: FlipUnits) -> int:
    """The same numerator from the per-neighbor leftover expressions."""
    d = cfg.d
    mass = units.mass
    big_a = mass(1 + sum(cfg.x_branch_sizes))
    big_b = mass(1 + sum(cfg.y_branch_sizes))
    uw = [w + 2 * (s - 1) for w, s in zip(cfg.neighbor_weights, cfg.x_branch_sizes)]
    tw = [w + 2 * (s - 1) for w, s in zip(cfg.neighbor_weights, cfg.y_branch_sizes)]
    m_a = pick_anchor(cfg.x_branch_sizes, cfg.neighbor_weights)
    m_b = pick_anchor(cfg.y_branch_sizes, cfg.neighbor_weights)
    total = big_a * (sum(uw) - uw[m_a]) + big_b * (sum(tw) - tw[m_b])
    for i in range(d):
        q = mass(cfg.x_branch_sizes[i]) - (big_a if i == m_a else 0)
        qp = mass(cfg.y_branch_sizes[i]) - (big_b if i == m_b else 0)
        total += (max(q, qp) * cfg.neighbor_weights[i]
                  + 2 * q * (cfg.x_branch_sizes[i] - 1)
                  + 2 * qp * (cfg.y_branch_sizes[i] - 1))
    return total - (d - 1) * cfg.vstar_weight * units.den


def color_rate(cfg: ClusterConfig, fp: FlipParams,
               units: FlipUnits | None = None) -> Fraction | int:
    """Normalized expected metric change charged to one color, times m*k.

    Computed through the mass matching; cross-checked against the closed
    form whenever no clamping occurred (with clamping the closed form's
    leftover expressions go negative and only the matching is meaningful).
    Returns the exact Fraction.  A caller pricing many shapes passes
    units = fp.units and gets instead the integer numerator over
    cfg.color_weight * units.den, so no Fraction is made per shape.
    """
    scale = fp.units if units is None else units
    value, clamped = _matcher_rate(cfg, scale)
    if clamped == 0:
        check = _closed_form_rate(cfg, scale)
        if check != value:
            raise AssertionError(
                f"evaluation mismatch on {cfg}: matching {value} vs closed form "
                f"{check}, over {cfg.color_weight * scale.den}")
    if units is not None:
        return value
    return Fraction(value, cfg.color_weight * scale.den)


@dataclass(frozen=True)
class BranchMaximum:
    lemma_value: Fraction
    enumerated: Fraction
    maximizers: tuple[ClusterConfig, ...]
    bound_holds: bool
    attained: bool


def _enumerate_branch(fp: FlipParams, units: FlipUnits, wstar: int, d: int,
                      lemma_value: Fraction) -> BranchMaximum:
    """Every shape of one branch, compared as integer numerators.

    A shape's value is num / (color_weight * D) with D shared by all
    shapes, so values compare by cross-multiplying num with color_weight.
    """
    sizes = range(1, SIZE_CAP + 1)
    best_num, best_cw = None, 1
    argmax: list[ClusterConfig] = []
    for weights in product((1, 2), repeat=d):
        cw = sum(weights)
        for xs in product(sizes, repeat=d):
            for ys in product(sizes, repeat=d):
                cfg = ClusterConfig(vstar_weight=wstar, neighbor_weights=weights,
                                    x_branch_sizes=xs, y_branch_sizes=ys)
                num = color_rate(cfg, fp, units)
                if best_num is None or num * best_cw > best_num * cw:
                    best_num, best_cw, argmax = num, cw, [cfg]
                elif num * best_cw == best_num * cw:
                    argmax.append(cfg)
    best = Fraction(best_num, best_cw * units.den)
    return BranchMaximum(lemma_value=lemma_value, enumerated=best,
                         maximizers=tuple(argmax),
                         bound_holds=best <= lemma_value,
                         attained=best == lemma_value)


@lru_cache(maxsize=None)
def rate_maxima(fp: FlipParams) -> dict[str, BranchMaximum]:
    """Exhaustive per-branch maxima of color_rate over abstract shapes.

    Branch keys: "dc1" (one neighbor, any weights), "w1dc2" and "w2dc2"
    (two neighbors at a weight-1 resp. weight-2 disagreement vertex).
    The lemma_value fields are the closed-form bounds the threshold
    identities quote; bound_holds records whether enumeration stayed
    under them, attained whether it reached them.
    """
    if fp.locality > 6:
        raise ValueError(f"size cap {SIZE_CAP} is tuned to 6-local chains")
    p1, p2, p3 = fp.p(1), fp.p(2), fp.p(3)
    units = fp.units
    return {
        "dc1": _enumerate_branch(fp, units, wstar=1, d=1,
                                 lemma_value=p1 + p2 - 2 * p3),
        "w1dc2": _enumerate_branch(fp, units, wstar=1, d=2,
                                   lemma_value=Fraction(3, 4) + 2 * p3),
        "w2dc2": _enumerate_branch(fp, units, wstar=2, d=2, lemma_value=8 * p3),
    }


def branch_thresholds(fp: FlipParams) -> dict[str, Fraction]:
    mx = rate_maxima(fp)
    return {
        "weight1": 2 + 4 * max(mx["w1dc2"].enumerated, mx["dc1"].enumerated),
        "weight2": 4 + 2 * max(mx["w2dc2"].enumerated, mx["dc1"].enumerated),
    }


def threshold_ratio(fp: FlipParams) -> Fraction:
    """The certified k/Delta ratio above which adjacent pairs contract."""
    return max(branch_thresholds(fp).values())


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

    witnesses = [{"i": i} for i in range(2, 7)
                 if (i - 1) * fp.diff(i) > fp.diff(2)]
    report["scaled_gap_bounded"] = {"holds": not witnesses, "witnesses": witnesses}

    witnesses = [
        {"i": i, "W": w, "l": l}
        for i, w, l in product(range(2, 7), (1, 2), (1, 2))
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
    """JSON-ready certification summary; rationals as "num/den" strings."""
    mx = rate_maxima(fp)
    branches = branch_thresholds(fp)
    ratio = threshold_ratio(fp)
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
