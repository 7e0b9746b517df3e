"""Output checks that do not trust the code they check.

Each check recomputes what it needs from the generated inputs (edge
lists, the flip schedule) or tests a property the method must have, and
raises CheckFailed on the first disagreement.  None compares against a
stored copy of earlier output.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _p(probs, size: int) -> Fraction:
    return Fraction(probs[size - 1]) if 1 <= size <= len(probs) else Fraction(0)


def line_graph_adjacency(gp, verts) -> list[set[int]]:
    """Union-line-graph adjacency rebuilt from the two edge lists.

    Two edges are adjacent when they share an endpoint inside one graph.
    """
    index = {e: i for i, e in enumerate(verts)}
    adj = [set() for _ in verts]
    for edges in (gp.edges1, gp.edges2):
        at: dict[int, list[int]] = {}
        for e in edges:
            for x in e:
                at.setdefault(x, []).append(index[e])
        for ids in at.values():
            for a in ids:
                adj[a].update(b for b in ids if b != a)
    return adj


# --- sample -------------------------------------------------------------

def generated_pair(gp, delta: int, overlap: float) -> None:
    for name, edges in (("g1", gp.edges1), ("g2", gp.edges2)):
        deg: dict[int, int] = {}
        for e in edges:
            for x in e:
                deg[x] = deg.get(x, 0) + 1
        worst = max(deg.values(), default=0)
        _require(worst <= delta, f"{name} has degree {worst} > {delta}")
    shared = len(gp.edges1 & gp.edges2)
    want = round(overlap * len(gp.edges1))
    _require(shared == want, f"{shared} shared edges, expected {want}")


def proper_on_edge_lists(gp, verts, assign, k: int) -> None:
    """No two edges meeting at a vertex of one graph share a color."""
    _require(len(assign) == len(verts), "coloring and edge list differ in length")
    _require(all(1 <= c <= k for c in assign), f"a color lies outside 1..{k}")
    color = dict(zip(verts, assign))
    for name, edges in (("g1", gp.edges1), ("g2", gp.edges2)):
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for e in sorted(edges):
            for x in e:
                key = (x, color[e])
                _require(key not in seen,
                         f"{name}: edges {seen.get(key)} and {e} meet at {x} "
                         f"with color {color[e]}")
                seen[key] = e


def chain_tally(accepted: int, by_size: dict[int, int], locality: int) -> None:
    _require(accepted == sum(by_size.values()),
             f"accepted {accepted} != sum of flips by size {sum(by_size.values())}")
    _require(all(1 <= s <= locality for s in by_size),
             f"flip sizes {sorted(by_size)} exceed locality {locality}")


def same_coloring(a, b) -> None:
    diff = sum(x != y for x, y in zip(a, b))
    _require(len(a) == len(b) and diff == 0, f"colorings differ at {diff} vertices")


# --- drift --------------------------------------------------------------

def plain_flip_law(adj, assign, k: int, probs) -> dict:
    """Single-chain flip law by a two-color BFS from every proposal (v, c).

    Keys are (members, colors); a proposal of the current color is the
    null move on {v}.  Components past the schedule's length never flip.
    """
    m = len(assign)
    law: dict = {}
    for v, c in product(range(m), range(1, k + 1)):
        a = assign[v]
        members = {v}
        if c != a:
            queue = deque([v])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in members and assign[w] in (a, c):
                        members.add(w)
                        queue.append(w)
        s = len(members)
        mass = _p(probs, s) / (s * m * k)
        if mass:
            key = (frozenset(members), frozenset((a, c)))
            law[key] = law.get(key, Fraction(0)) + mass
    return law


def marginals_match(entries, law_x: dict, law_y: dict) -> None:
    """Summing a coupling table's entries per move gives each chain's own law."""
    mx: dict = {}
    my: dict = {}
    for e in entries:
        for move, marg in ((e.move_x, mx), (e.move_y, my)):
            if move is not None:
                key = (move.members, move.colors)
                marg[key] = marg.get(key, Fraction(0)) + e.mass
    for side, marg, law in (("X", mx, law_x), ("Y", my, law_y)):
        marg = {key: q for key, q in marg.items() if q}
        _require(marg == law, f"{side} marginal differs from the BFS law at "
                 f"{len(set(marg.items()) ^ set(law.items()))} moves")


def weight2_threshold(probs) -> Fraction:
    """4 + 2(p1 + p2 - 2 p3): the weight-2 branch's closed form."""
    return 4 + 2 * (_p(probs, 1) + _p(probs, 2) - 2 * _p(probs, 3))


def weight1_threshold(probs) -> Fraction:
    """2 + 4(3/4 + 2 p3): the weight-1 branch's closed form."""
    return 2 + 4 * (Fraction(3, 4) + 2 * _p(probs, 3))


def drift_within_bound(exact_drift: Fraction, dc_max: int, wstar: int,
                       m: int, k: int, delta: int, ratio: Fraction) -> None:
    if dc_max > 2:
        return
    bound = Fraction(wstar, m * k) * (ratio * delta - k)
    _require(exact_drift <= bound, f"drift {exact_drift} above bound {bound}")


# --- certify ------------------------------------------------------------

def dc1_closed_form_max(probs, size_cap: int = 8) -> Fraction:
    """Max over the 128 one-neighbor shapes of the one-neighbor closed form.

    With branch sizes a (X side) and b (Y side) at a neighbor of weight w,
    q = p_a - p_{a+1}, q' = p_b - p_{b+1} and the rate is
    (max(q, q') w + 2 q (a - 1) + 2 q' (b - 1)) / w.
    """
    best = None
    for w, a, b in product((1, 2), range(1, size_cap + 1), range(1, size_cap + 1)):
        q = _p(probs, a) - _p(probs, a + 1)
        qp = _p(probs, b) - _p(probs, b + 1)
        rate = (max(q, qp) * w + 2 * q * (a - 1) + 2 * qp * (b - 1)) / w
        best = rate if best is None else max(best, rate)
    return best


def certificate(payload: dict, probs, thresholds) -> None:
    """A certify report: threshold, properties and dc1 maximum re-derived."""
    threshold = Fraction(payload["threshold"])
    for expect in thresholds:
        _require(threshold == expect, f"threshold {threshold} != {expect}")
    _require(payload["all_properties_hold"], "a flip property fails")
    _require(all(p["holds"] for p in payload["properties"].values()),
             "a flip property has witnesses")
    dc1 = Fraction(payload["maxima"]["dc1"]["enumerated_max"])
    own = dc1_closed_form_max(probs)
    _require(dc1 == own, f"dc1 maximum {dc1} != closed-form maximum {own}")


def branch_bounds_hold(payload: dict) -> None:
    for name, branch in payload["maxima"].items():
        _require(branch["bound_holds"], f"branch {name} exceeds its bound")


# --- oracle -------------------------------------------------------------

def brute_force_proper_count(gp, k: int) -> int:
    """Proper colorings of the union line graph, by testing all k^m."""
    verts = sorted(gp.edges1 | gp.edges2)
    adj = line_graph_adjacency(gp, verts)
    m = len(verts)
    digits = np.indices((k,) * m).reshape(m, -1)
    ok = np.ones(digits.shape[1], dtype=bool)
    for a in range(m):
        for b in adj[a]:
            if b > a:
                ok &= digits[a] != digits[b]
    return int(ok.sum())


def kernel_rows(P) -> None:
    """Every row of a transition kernel is a probability distribution."""
    if P.mode == "rational":
        for s, row in enumerate(P.rows):
            _require(all(q >= 0 for q in row.values()), f"row {s} has a negative entry")
            total = sum(row.values(), Fraction(0))
            _require(total == 1, f"row {s} sums to {total}")
        return
    _require(P.rows.data.min() >= 0, "a negative kernel entry")
    sums = np.asarray(P.rows.sum(axis=1)).ravel()
    worst = int(np.argmax(np.abs(sums - 1.0)))
    _require(abs(sums[worst] - 1.0) <= 1e-12, f"row {worst} sums to {sums[worst]!r}")


def stationary(report, what: str) -> None:
    for flag in ("uniform_ok", "proper_closed", "irreducible", "aperiodic"):
        _require(getattr(report, flag), f"{what}: stationary check reports {flag} false")
