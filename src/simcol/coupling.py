"""Coupled moves for pairs of colorings that differ at one vertex.

One coupling lives here, and it serves both chains.  It is an explicit
table: per proposed color, the components that behave differently in
the two chains are paired up mass-for-mass by the greedy matching in
`matching`, which prices them from their sizes; components the chains
agree on ride together unchanged, and the leftover proposal mass is
jointly null.  Glauber is the flip chain at `FlipParams.glauber()`
(p = (1,)), so its drift is `flip_exact_drift` at that schedule, and
its bound is the certified w*(6*delta - k)/(m*k).  Only single
vertices recolor there, and the drift equals that of Jerrum's coupling,
which swaps the proposals x* and y* at the neighbors of vstar.

Drift and tables take separate routes.  `flip_exact_drift` builds only
the per-color matched moves and proves the marginals from the proposals
near the disagreement: x and y differ only at vstar, so a proposal whose
outcome differs has, on one side, an alternating component through
vstar, which the matching already builds; every other move rides as a
shared identity entry with delta 0.  The matching and the proof read
only the components through vstar and the nearby proposals that use
xstar or ystar; the steps that grow with m are the O(m*delta) check
that x is proper and the O(m) check that x and y differ only at vstar.
`build_flip_coupling_table` assembles the whole table against both full
single-chain laws (`flip_move_law`, all m*k proposals), the oracle the
local route is tested against.

Everything downstream of a table is exact.  Move laws, entry masses,
the marginal ledger and the per-color drift shares are integer
numerators over m*k*D, D = `FlipParams.units.den`; Fractions are
built only for what a report exposes, and the one-step expected change
of the weighted disagreement metric is compared against the certified
threshold without tolerance.  That threshold is `threshold_ratio`, read
from the certificate (`certify.rate_maxima`), which prices every shape
by both the matcher and the closed form, as `simcol certify` does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import ne
from typing import NamedTuple

from .certify import threshold_ratio
from .dynamics import (Coloring, FlipParams, _plain_mt19937, alternating_component,
                       compute_cluster, greedy_coloring, is_proper, run_chain)
from .dynamics import flip_step  # noqa: F401  perfbench/tracing.py patches it here by name
from .graphs import UnionLineGraph
from .matching import match_color_moves


def weighted_hamming(x: Coloring, y: Coloring, G: UnionLineGraph) -> int:
    """Total weight of the vertices where the two colorings disagree."""
    if len(x.assign) != G.m or len(y.assign) != G.m or x.k != y.k:
        raise ValueError("colorings must live on the same graph with the same k")
    return sum(G.weight[v] for v in range(G.m) if x.assign[v] != y.assign[v])


@dataclass(frozen=True)
class AdjacentPair:
    """Two colorings equal everywhere except at vstar."""

    x: Coloring
    y: Coloring
    vstar: int

    def __post_init__(self):
        self.check_differ_at_vstar()

    def check_differ_at_vstar(self) -> None:
        """Raise ValueError unless x and y differ at vstar and nowhere else.

        The colorings are mutable, so routes that rely on this re-check it.
        """
        if len(self.x.assign) != len(self.y.assign) or self.x.k != self.y.k:
            raise ValueError("chains must share the state space")
        xa, ya = self.x.assign, self.y.assign
        diffs = list(compress(range(len(xa)), map(ne, xa, ya)))
        if diffs != [self.vstar]:
            raise ValueError(f"states must differ exactly at {self.vstar}, differ at {diffs}")

    @property
    def xstar(self) -> int:
        return self.x.assign[self.vstar]

    @property
    def ystar(self) -> int:
        return self.y.assign[self.vstar]


class Move(NamedTuple):
    """One component flip: swap the two colors on the members.

    colors has one element for the null proposal at a vertex already
    carrying the proposed color; applying that move changes nothing but
    it owns real proposal mass, so tables track it like any other.
    """

    members: frozenset
    colors: frozenset

    @property
    def size(self) -> int:
        return len(self.members)

    def color_after(self, current: int) -> int:
        if len(self.colors) == 2 and current in self.colors:
            a, b = self.colors
            return b if current == a else a
        return current


@dataclass(frozen=True)
class TableEntry:
    mass: Fraction
    move_x: Move | None
    move_y: Move | None
    delta: int


@dataclass(frozen=True)
class CouplingTable:
    """Joint move distribution; the residual mass is jointly null."""

    entries: tuple[TableEntry, ...]
    residual: Fraction
    clamp_events: int
    dc_max: int

    def total_mass(self) -> Fraction:
        return sum((e.mass for e in self.entries), Fraction(0)) + self.residual


@dataclass(frozen=True)
class ColorTerm:
    """Per-color share of the expected metric change, times nothing: exact."""

    alpha: Fraction
    weight: int
    dc: int


@dataclass(frozen=True)
class DriftReport:
    vstar: int
    vstar_weight: int
    exact_drift: Fraction
    per_color: dict[int, ColorTerm]
    bound: Fraction
    beta: Fraction
    dc_max: int
    clamp_events: int


def _as_move(assign, v: int, c: int, members: list[int] | None, acc) -> Move | None:
    """The move proposal (v, c) makes, or None if it has no mass.

    members is the proposal's `alternating_component` capped at the
    locality: None past it, and a size the schedule never accepts is
    None too.
    """
    if members is None or acc[len(members)] == 0:
        return None
    return Move(frozenset(members), frozenset((assign[v], c)))


def flip_move_law(G: UnionLineGraph, sigma: Coloring, fp: FlipParams) -> dict[Move, int]:
    """Exact move distribution of one flip proposal, over m*k*D.

    Each proposal of a flippable component adds fp.units.accept[size] to
    its move, so a component of size s totals p_s * D; the complement of
    the total m*k*D is the null mass.  Zero-probability moves are omitted.
    """
    acc = fp.units.accept
    assign, nbrs, cap = sigma.assign, G.nbrs, fp.locality
    law: dict[Move, int] = {}
    for v in range(G.m):
        for c in range(1, sigma.k + 1):
            mv = _as_move(assign, v, c, alternating_component(assign, nbrs, v, c, cap),
                          acc)
            if mv is not None:
                law[mv] = law.get(mv, 0) + acc[mv.size]
    return law


def _coupled_delta(G: UnionLineGraph, pair: AdjacentPair,
                   move_x: Move | None, move_y: Move | None) -> int:
    touched: set[int] = set()
    if move_x is not None:
        touched |= move_x.members
    if move_y is not None:
        touched |= move_y.members
    d = 0
    for v in touched:
        cx, cy = pair.x.assign[v], pair.y.assign[v]
        nx = move_x.color_after(cx) if move_x is not None and v in move_x.members else cx
        ny = move_y.color_after(cy) if move_y is not None and v in move_y.members else cy
        d += G.weight[v] * ((nx != ny) - (cx != cy))
    return d


def _color_moves(pair: AdjacentPair, G: UnionLineGraph, k: int, fp: FlipParams):
    """The per-color matched moves around the disagreement.

    Returns (rows, alphas, clamp_events, dc_max).  rows are (mass,
    move_x, move_y, delta) in integer numerators over m*k*D; alphas[c] is
    (color c's share of the drift, its neighbor weight, dc).  Every move
    in rows lies inside a component through vstar.
    """
    x, y, vs = pair.x, pair.y, pair.vstar
    if x.k != k or y.k != k:
        raise ValueError("pair and k disagree")
    pair.check_differ_at_vstar()
    xstar, ystar = pair.xstar, pair.ystar
    # y equals x off vstar: it is proper iff x is and no neighbor holds ystar
    if not is_proper(G, x) or any(x.assign[w] == ystar for w in G.nbrs[vs]):
        raise ValueError("coupled tables are defined for proper states")
    D = fp.units.den
    rows: list[tuple[int, Move | None, Move | None, int]] = []
    alphas: dict[int, tuple[int, int, int]] = {}
    clamp_events = 0
    dc_max = 0
    for c in range(1, k + 1):
        nbrs_c = [w for w in G.nbrs[vs] if x.assign[w] == c]
        dc = len(nbrs_c)
        dc_max = max(dc_max, dc)
        if dc == 0:
            # both chains recolor vstar toward c and coalesce; for
            # c = xstar or ystar one side's move is its null proposal
            mv_x = Move(frozenset((vs,)), frozenset((xstar, c)))
            mv_y = Move(frozenset((vs,)), frozenset((ystar, c)))
            delta = _coupled_delta(G, pair, mv_x, mv_y)
            assert delta == -G.weight[vs]
            rows.append((D, mv_x, mv_y, delta))
            alphas[c] = (D * delta, 0, 0)
            continue

        big_x = Move(compute_cluster(G, x, vs, c), frozenset((xstar, c)))
        big_y = Move(compute_cluster(G, y, vs, c), frozenset((ystar, c)))
        u_moves = [Move(compute_cluster(G, y, w, xstar), frozenset((xstar, c)))
                   for w in nbrs_c]
        t_moves = [Move(compute_cluster(G, x, w, ystar), frozenset((ystar, c)))
                   for w in nbrs_c]
        assert big_x.members == frozenset((vs,)).union(*(u.members for u in u_moves))
        assert big_y.members == frozenset((vs,)).union(*(t.members for t in t_moves))

        weights = [G.weight[w] for w in nbrs_c]
        size = {mv: mv.size for mv in (big_x, big_y, *t_moves, *u_moves)}
        matched, clamped = match_color_moves(big_x, big_y, t_moves, u_moves,
                                             size, weights, fp.units)
        clamp_events += clamped
        alpha = 0
        for p in matched:
            delta = _coupled_delta(G, pair, p.x, p.y)
            rows.append((p.mass, p.x, p.y, delta))
            alpha += p.mass * delta
        alphas[c] = (alpha, sum(weights), dc)
    return rows, alphas, clamp_events, dc_max


def _consumed(rows) -> tuple[dict[Move, int], dict[Move, int]]:
    """Mass each side's moves receive from the rows."""
    used_x: dict[Move, int] = {}
    used_y: dict[Move, int] = {}
    for q, mx, my, _ in rows:
        if mx is not None:
            used_x[mx] = used_x.get(mx, 0) + q
        if my is not None:
            used_y[my] = used_y.get(my, 0) + q
    return used_x, used_y


def _assemble_flip_table(pair: AdjacentPair, G: UnionLineGraph, k: int,
                         fp: FlipParams):
    """Build the coupled table and the per-color drift terms together.

    Returns (table, alphas): the `CouplingTable`, and alphas[c], color
    c's share of the drift in integer numerators over m*k*D, its
    neighbor weight and dc.

    Construction doubles as a proof of marginal correctness against both
    full single-chain laws: every move of either law must be consumed
    exactly, either by the per-color matching around the disagreement or
    as a shared identity entry, and the leftover asserts below fail
    loudly otherwise.
    """
    rows, alphas, clamp_events, dc_max = _color_moves(pair, G, k, fp)
    law_x = flip_move_law(G, pair.x, fp)
    law_y = flip_move_law(G, pair.y, fp)
    used_x, used_y = _consumed(rows)
    for mv, q in used_x.items():
        assert law_x.get(mv) == q, f"X marginal off at {mv}: used {q}, law {law_x.get(mv)}"
    for mv, q in used_y.items():
        assert law_y.get(mv) == q, f"Y marginal off at {mv}: used {q}, law {law_y.get(mv)}"
    for mv, q in law_x.items():
        if mv in used_x:
            continue
        assert pair.vstar not in mv.members and mv not in used_y and law_y.get(mv) == q, \
            f"unshared leftover {mv}"
        rows.append((q, mv, mv, 0))
        used_y[mv] = q
    leftover_y = [mv for mv in law_y if mv not in used_y]
    assert not leftover_y, f"Y moves never consumed: {leftover_y}"
    den = G.m * k * fp.units.den
    null = den - sum(r[0] for r in rows)
    assert 0 <= null <= den
    return CouplingTable(
        entries=tuple(TableEntry(Fraction(q, den), mx, my, d) for q, mx, my, d in rows),
        residual=Fraction(null, den), clamp_events=clamp_events, dc_max=dc_max), alphas


def build_flip_coupling_table(pair: AdjacentPair, G: UnionLineGraph, k: int,
                              fp: FlipParams) -> CouplingTable:
    return _assemble_flip_table(pair, G, k, fp)[0]


def _check_local_marginals(pair: AdjacentPair, G: UnionLineGraph, fp: FlipParams,
                           used_x: dict[Move, int], used_y: dict[Move, int]) -> None:
    """Prove the matched rows extend to a coupling, from proposals near vstar.

    One pass over the proposals seeded in the closed neighborhood of the
    touched set (the members of all consumed moves, that is of every
    component through vstar).  Each proposal either has the same outcome
    on both sides and is consumed on neither, so it rides as a shared
    identity entry, or has each of its outcomes consumed on its side.
    Along the way each consumed outcome collects its law mass: a move's
    seeds are its members, all in the touched set, so after the pass
    every consumed mass must equal the mass collected.  Only proposals
    that use a split color, xstar or ystar, are walked: all k colors at
    a vertex holding one, those two elsewhere, 2*(k or 2) walks a vertex.
    """
    acc, cap, nbrs = fp.units.accept, fp.locality, G.nbrs
    xa, ya = pair.x.assign, pair.y.assign
    law_x = dict.fromkeys(used_x, 0)
    law_y = dict.fromkeys(used_y, 0)
    # Skipping (v, c) with {xa[v], c} disjoint from split is exact.  Its
    # walks agree: vstar, the one vertex where x and y differ, holds a
    # split color on both sides, so a walk in two other colors never
    # enters it.  And no consumed move is over {xa[v], c}: each swaps
    # xstar or ystar (dc = 0 rows, big_x/big_y, t/u moves), as asserted.
    # So (v, c) would reach a `continue` below.
    split = {pair.xstar, pair.ystar}
    assert all(mv.colors & split for mv in (*used_x, *used_y)), \
        "a consumed move avoids both colors at vstar"
    every = range(1, pair.x.k + 1)
    touched = set().union(*(mv.members for mv in (*used_x, *used_y)))
    region = touched.union(*(nbrs[u] for u in touched))
    # Where the walks agree and x and y agree at v, (v, c) makes one move
    # on both sides, over {xa[v], c} and holding v; it can be consumed only
    # if some consumed move holds v and swaps c, so no key here means the
    # move rides as a shared identity entry, and none is built.
    consumed_at = {(u, c) for mv in (*used_x, *used_y) for u in mv.members for c in mv.colors}
    for v in region:
        for c in every if xa[v] in split else split:
            mx = alternating_component(xa, nbrs, v, c, cap)
            my = alternating_component(ya, nbrs, v, c, cap)
            if mx == my and xa[v] == ya[v] and (v, c) not in consumed_at:
                continue
            ox, oy = _as_move(xa, v, c, mx, acc), _as_move(ya, v, c, my, acc)
            in_x, in_y = ox in law_x, oy in law_y
            if in_x:
                law_x[ox] += acc[ox.size]
            if in_y:
                law_y[oy] += acc[oy.size]
            if ox == oy and not in_x and not in_y:
                continue
            assert (ox is None or in_x) and (oy is None or in_y), \
                f"proposal ({v}, {c}) not consumed: X {ox}, Y {oy}"
    for side, used, law in (("X", used_x, law_x), ("Y", used_y, law_y)):
        for mv, q in used.items():
            assert law[mv] == q, f"{side} marginal off at {mv}: consumed {q}, law {law[mv]}"


def flip_exact_drift(pair: AdjacentPair, G: UnionLineGraph, k: int,
                     fp: FlipParams) -> DriftReport:
    """Exact one-step expectation of the metric change under the table.

    Computed from the per-color matched moves alone, never from the full
    laws: past the O(m*delta) properness check of the input, the work is
    local to vstar.  This is path coupling's locality (Bubley-Dyer;
    Vigoda for the flip chain): a proposal (v, c) whose capped outcome
    differs between x and y has, on one side, an uncapped alternating
    component containing vstar, because x and y differ only there and a
    walk that never meets vstar reads the same colors on both sides.
    That component is vstar's own between its color and the other color
    of (v, c), which is {vstar} or a `compute_cluster` through vstar
    that the per-color matching already builds, so v lies in the touched
    set.  Every other move has the same mass on both sides and rides as
    a shared identity entry with delta 0: the drift is the sum of the
    per-color alphas, and `_check_local_marginals` proves the marginals
    in one pass over the closed neighborhood of the touched set, walking
    all k colors at a vertex holding xstar or ystar, those two elsewhere.
    `build_flip_coupling_table` keeps the full-law proof of the same
    table.
    """
    rows, alphas, clamp_events, dc_max = _color_moves(pair, G, k, fp)
    _check_local_marginals(pair, G, fp, *_consumed(rows))
    den = G.m * k * fp.units.den
    drift = Fraction(sum(a for a, _, _ in alphas.values()), den)
    wstar = G.weight[pair.vstar]
    bound = Fraction(wstar, G.m * k) * (threshold_ratio(fp) * G.delta - k)
    per_color = {c: ColorTerm(alpha=Fraction(a, den), weight=w, dc=dc)
                 for c, (a, w, dc) in alphas.items()}
    return DriftReport(vstar=pair.vstar, vstar_weight=wstar, exact_drift=drift,
                       per_color=per_color, bound=bound, beta=1 + drift / wstar,
                       dc_max=dc_max, clamp_events=clamp_events)


def sample_adjacent_pairs(G: UnionLineGraph, k: int, fp: FlipParams,
                          count: int, rng: random.Random) -> list[AdjacentPair]:
    """Proper adjacent pairs from a warmed-up chain plus one perturbation.

    The walk is `run_chain`'s flip chain at fp: burn-in is 20*m*k
    proposals from the greedy start, with m*k more before each pair.  The
    perturbed vertex is the first of a shuffle of all m; its new color is
    uniform among the colors neither it nor its at most 4(delta - 1)
    neighbors hold (`UnionLineGraph.validate`), one at least at
    k >= 4*delta - 2.  rng must draw its integers through `getrandbits`,
    as `random.Random` does (`run_chain`'s contract); any other raises
    TypeError before the first proposal.

    The sampler has two bodies with this one contract.  `_chain.c`'s
    walks, shuffles and perturbs on rng's MT19937 state, in calls of
    about 4M proposals; it runs where `run_chain` would run its native
    loop and rng's class keeps random.Random's shuffle and randrange.
    The Python loop below, the reference and the fallback, walks through
    `run_chain` and draws through `rng.shuffle` and `rng.randrange`.
    Both draw the same words, so which body ran never shows in a pair or
    in rng's state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if k < 4 * G.delta - 2:
        raise ValueError("pair sampling expects k >= 4*delta - 2")
    if not G.m:
        raise ValueError("no proper single-vertex perturbation exists")
    sigma = greedy_coloring(G, k)
    burn_in = 20 * G.m * k
    if max(G.m, k) < 2 ** 31 and _plain_mt19937(rng, ("shuffle", "randrange")):
        from . import _native  # loaded on the first walk: certify never pays for it
        sampler = _native.pair_sampler()
        if sampler is not None:
            colorings, vstars, colors = sampler(G, sigma.assign, k, fp.locality, fp.cut,
                                                burn_in, count, rng)
            m, pairs = G.m, []
            for p, (v, c) in enumerate(zip(vstars, colors)):
                x = Coloring(colorings[p * m:(p + 1) * m].tolist(), k)
                y = x.copy()
                y.assign[v] = c
                pairs.append(AdjacentPair(x=x, y=y, vstar=v))
            return pairs
    run_chain(G, sigma, burn_in, rng, kind="flip", fp=fp)
    pairs: list[AdjacentPair] = []
    while len(pairs) < count:
        run_chain(G, sigma, G.m * k, rng, kind="flip", fp=fp)
        order = list(range(G.m))
        rng.shuffle(order)
        v = order[0]
        taken = {sigma.assign[w] for w in (v, *G.nbrs[v])}
        free = [c for c in range(1, k + 1) if c not in taken]
        assert free, "k >= 4*delta - 2 leaves every vertex a color no neighbor holds"
        y = sigma.copy()
        y.assign[v] = free[rng.randrange(len(free))]
        pairs.append(AdjacentPair(x=sigma.copy(), y=y, vstar=v))
    return pairs


@dataclass(frozen=True)
class ContractionSummary:
    records: tuple[DriftReport, ...]
    max_drift: Fraction
    mean_drift: Fraction
    beta: Fraction
    bound_margin: Fraction | None
    dc_over_2: int
    clamp_events: int
    all_bounds_hold: bool


def estimate_contraction(G: UnionLineGraph, k: int, fp: FlipParams,
                         pairs: int, seed: int) -> ContractionSummary:
    """Exact drift over sampled adjacent pairs, worst case summarized.

    The certified bound is asserted only over pairs whose colors all have
    at most two same-colored neighbors at the disagreement; the others
    are counted in dc_over_2 and reported, not judged.
    """
    if pairs < 1:
        raise ValueError(f"pairs must be >= 1, got {pairs}")
    # a schedule the certificate cannot cover fails here, before burn-in
    threshold_ratio(fp)
    rng = random.Random(seed)
    sampled = sample_adjacent_pairs(G, k, fp, pairs, rng)
    records = tuple(flip_exact_drift(p, G, k, fp) for p in sampled)
    in_scope = [r for r in records if r.dc_max <= 2]
    margins = [r.bound - r.exact_drift for r in in_scope]
    return ContractionSummary(
        records=records,
        max_drift=max(r.exact_drift for r in records),
        mean_drift=sum((r.exact_drift for r in records), Fraction(0)) / len(records),
        beta=max(r.beta for r in records),
        bound_margin=min(margins) if margins else None,
        dc_over_2=len(records) - len(in_scope),
        clamp_events=sum(r.clamp_events for r in records),
        all_bounds_hold=all(m >= 0 for m in margins),
    )

