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
4. leftover branch mass is cross-paired in increasing neighbor order,
5. anything left moves alone.

The coupling and the certifier hand over component sizes and neighbor
weights; each mass is the integer `FlipUnits.mass(size)` (the flip
mass times m*k*D), so min and subtraction stay exact.
Branches of distinct neighbors may be one and the same component (the
ids then repeat); the shared ledger makes the pairing well defined in
that case too.  `clamped` counts big components whose designated
partner could not absorb them fully, which cannot happen when the flip
probabilities are nonincreasing in the component size.
"""

from __future__ import annotations

from typing import NamedTuple


class MatchedPair(NamedTuple):
    """One coupled table row: component ids (None = that side idles)."""

    x: object | None
    y: object | None
    mass: int


def pick_anchor(sizes, weights) -> int:
    """Index of the branch that absorbs the opposing big component.

    Largest branch first; among equal sizes the one at the heavier
    neighbor.  The weight tie rule matters: anchoring the big component
    at the heavier of two equal-size branches is what keeps the leftover
    single flips light, and the certified per-branch maxima assume it.
    """
    pairs = list(zip(sizes, weights))
    return pairs.index(max(pairs))  # the first of the largest pairs


def match_color_moves(big_x, big_y, x_ids, y_ids, size, weights, units):
    """Pair the differing component flips for one color.

    big_x/big_y: ids of the through-v* components; x_ids/y_ids: branch ids
    per neighbor index; size: component size per id (a dict, or any
    sequence the ids index); weights: neighbor weight per index; units:
    the schedule's `FlipUnits`.
    Returns (pairs, clamped).
    """
    if len(x_ids) != len(y_ids) or not x_ids:
        raise ValueError("need one branch id per neighbor on both sides")
    mass = units.mass
    rem = {i: mass(size[i]) for i in (big_x, big_y, *x_ids, *y_ids)}
    m_a = pick_anchor([size[i] for i in y_ids], weights)
    m_b = pick_anchor([size[i] for i in x_ids], weights)
    pairs: list[MatchedPair] = []

    def emit(x, y, amount) -> None:
        pairs.append(MatchedPair(x, y, amount))
        if x is not None:
            rem[x] -= amount
        if y is not None:
            rem[y] -= amount

    clamped = 0
    anchor = y_ids[m_a]
    take = min(rem[big_x], rem[anchor])
    if take < rem[big_x]:
        clamped += 1
    if take > 0:
        emit(big_x, anchor, take)

    anchor = x_ids[m_b]
    take = min(rem[anchor], rem[big_y])
    if take < rem[big_y]:
        clamped += 1
    if take > 0:
        emit(anchor, big_y, take)

    for xi, yi in zip(x_ids, y_ids):
        take = min(rem[xi], rem[yi])
        if take > 0:
            emit(xi, yi, take)

    xs = [i for i in dict.fromkeys(x_ids) if rem[i] > 0]
    ys = [i for i in dict.fromkeys(y_ids) if rem[i] > 0]
    a = b = 0
    while a < len(xs) and b < len(ys):
        emit(xs[a], ys[b], min(rem[xs[a]], rem[ys[b]]))
        if rem[xs[a]] == 0:
            a += 1
        if rem[ys[b]] == 0:
            b += 1

    for i in dict.fromkeys((big_x, *x_ids)):
        if rem[i] > 0:
            emit(i, None, rem[i])
    for i in dict.fromkeys((big_y, *y_ids)):
        if rem[i] > 0:
            emit(None, i, rem[i])

    assert not any(rem.values())
    return pairs, clamped
