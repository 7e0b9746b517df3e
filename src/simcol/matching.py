"""Greedy mass matching for one disagreement color.

When two colorings differ at a single vertex v*, the component flips that
behave differently in the two chains come in two families per color c: on
the X side the big component through v* plus one branch per c-colored
neighbor, and symmetrically on the Y side.  A coupling must pair up this
probability mass so that each side's marginal stays intact.

The pairing implemented here, in order, with every amount capped by the
mass still unspent on both participants:

1. the big X component rides with the Y branch `pick_anchor` picks
   from the Y branch sizes,
2. the big Y component rides with the mirror-image X branch,
3. the two branches at each neighbor ride together,
4. leftover branch mass is cross-paired by the northwest-corner rule:
   with X_i and Y_j the cumulative leftovers of the distinct X and Y
   branches in neighbor order, the i-th X and the j-th Y leftover pair
   max(0, min(X_i, Y_j) - max(X_{i-1}, Y_{j-1})), the overlap of their
   intervals when both sides' leftovers are laid end to end,
5. anything left moves alone.

The coupling and the certifier hand over component sizes and neighbor
weights; each mass is the integer `FlipUnits.mass(size)` (the flip
mass times m*k*D), so min and subtraction stay exact.
Branches of distinct neighbors may be one and the same component (the
ids then repeat); the shared ledger makes the pairing well defined in
that case too.  `clamped` counts big components whose designated
partner could not absorb them fully, which cannot happen when the flip
probabilities are nonincreasing in the component size.

The ledger runs on Python ints, one shape per call (the coupling), or
unchanged on a batch of shapes (the certifier): every size is then an
integer array, the arrays broadcast against each other with one entry
per shape, each pair carries a mass array (0 where a shape lacks that
pair), and `clamped` is an array of counts.  Each shape brings its own
anchors: steps 1 and 2 offer the big component every branch, and a
shape takes only its anchor's offer.  The array ledger is int64 while
the number of ids times D stays below 2^63, which bounds every amount
and every cumulative leftover, and exact Python ints (dtype=object)
past that.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np


class MatchedPair(NamedTuple):
    """One coupled table row: component ids (None = that side idles)."""

    x: object | None
    y: object | None
    mass: int


def _choose(cond, a, b):
    """np.where over a batch's arrays, a plain conditional for one shape."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def pick_anchor(sizes, weights):
    """Index of the branch that absorbs the opposing big component.

    Largest branch first; among equal sizes the one at the heavier
    neighbor, then the lower index: a later branch wins only by a
    strictly larger (size, weight).  The weight tie rule matters:
    anchoring the big component at the heavier of two equal-size branches
    is what keeps the leftover single flips light, and the certified
    per-branch maxima assume it.  An int for one shape's sizes; for a
    batch's size arrays, the index array of every shape's anchor.
    """
    anchor = np.zeros_like(sizes[0]) if isinstance(sizes[0], np.ndarray) else 0
    top, heavy = sizes[0], weights[0]
    for j in range(1, len(sizes)):
        s, w = sizes[j], weights[j]
        wins = (s > top) | ((s == top) & (w > heavy))
        anchor = _choose(wins, j, anchor)
        top, heavy = _choose(wins, s, top), _choose(wins, w, heavy)
    return anchor


def match_color_moves(big_x, big_y, x_ids, y_ids, size, weights, units):
    """Pair the differing component flips for one color.

    big_x/big_y: ids of the through-v* components; x_ids/y_ids: branch ids
    per neighbor index; size: component size per id (a dict, or any
    sequence the ids index), ints or a batch's integer arrays; weights:
    neighbor weight per index; units: the schedule's `FlipUnits`.
    Returns (pairs, clamped).
    """
    if len(x_ids) != len(y_ids) or not x_ids:
        raise ValueError("need one branch id per neighbor on both sides")
    ids = dict.fromkeys((big_x, big_y, *x_ids, *y_ids))
    if isinstance(size[big_x], np.ndarray):
        top = max(int(size[i].max()) for i in ids)
        mass = np.array([units.mass(s) for s in range(top + 1)],
                        dtype=np.int64 if len(ids) * units.den < 2 ** 63 else object)
        rem = {i: mass[size[i]] for i in ids}
        least, most, some = np.minimum, np.maximum, np.count_nonzero
    else:
        rem = {i: units.mass(size[i]) for i in ids}
        least, most, some = min, max, bool
    pairs: list[MatchedPair] = []

    def emit(x, y, amount) -> None:
        pairs.append(MatchedPair(x, y, amount))
        if x is not None:
            rem[x] = rem[x] - amount
        if y is not None:
            rem[y] = rem[y] - amount

    # steps 1 and 2: each branch is offered the big component, and only
    # the shapes that anchor there take the offer
    clamped = 0
    anchor = pick_anchor([size[i] for i in y_ids], weights)
    for j, yi in enumerate(y_ids):
        take = _choose(anchor == j, least(rem[big_x], rem[yi]), 0)
        if some(take > 0):
            emit(big_x, yi, take)
    clamped = clamped + (rem[big_x] > 0)

    anchor = pick_anchor([size[i] for i in x_ids], weights)
    for j, xi in enumerate(x_ids):
        take = _choose(anchor == j, least(rem[xi], rem[big_y]), 0)
        if some(take > 0):
            emit(xi, big_y, take)
    clamped = clamped + (rem[big_y] > 0)

    for xi, yi in zip(x_ids, y_ids):
        take = least(rem[xi], rem[yi])
        if some(take > 0):
            emit(xi, yi, take)

    xs, ys = list(dict.fromkeys(x_ids)), list(dict.fromkeys(y_ids))
    cum_x = list(accumulate((rem[i] for i in xs), initial=0))
    cum_y = list(accumulate((rem[j] for j in ys), initial=0))
    for a, i in enumerate(xs):
        for b, j in enumerate(ys):
            take = most(0, least(cum_x[a + 1], cum_y[b + 1]) - most(cum_x[a], cum_y[b]))
            if some(take > 0):
                emit(i, j, take)

    for i in dict.fromkeys((big_x, *x_ids)):
        if some(rem[i] > 0):
            emit(i, None, rem[i])
    for i in dict.fromkeys((big_y, *y_ids)):
        if some(rem[i] > 0):
            emit(None, i, rem[i])

    assert not any(some(r) for r in rem.values())
    return pairs, clamped
