"""Coupled moves for pairs of colorings that differ at one vertex.

Two couplings live here.  The single-site chain couples through a color
relabeling: both chains draw the same vertex, and the proposed color is
passed through a transposition of the two disagreement colors when the
vertex neighbors the disagreement.  The component-swap chain couples
through an explicit table: per proposed color, the components that behave
differently in the two chains are paired up mass-for-mass by the greedy
matching in `matching`, components the chains agree on ride together
unchanged, and the leftover proposal mass is jointly null.

Everything downstream of a table is exact.  Move laws, entry masses,
the marginal ledger and the per-color drift shares are integer
numerators over m*k*D, D = `FlipParams.units.den`; Fractions are built
only for what a report exposes, and the one-step expected change of the
weighted disagreement metric is compared against the certified
threshold without tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .certify import threshold_ratio
from .dynamics import (Coloring, FlipParams, alternating_component,
                       compute_cluster, flip_step, greedy_coloring, is_proper,
                       swap_colors)
from .graphs import UnionLineGraph
from .matching import match_color_moves, pick_anchor


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
        if len(self.x.assign) != len(self.y.assign) or self.x.k != self.y.k:
            raise ValueError("chains must share the state space")
        diffs = [v for v in range(len(self.x.assign))
                 if self.x.assign[v] != self.y.assign[v]]
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

    def apply(self, sigma: Coloring) -> None:
        if len(self.colors) == 2:
            swap_colors(sigma.assign, self.members, *self.colors)


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


class _IntTable(NamedTuple):
    """A coupling table in integers, masses over den = m*k*D.

    entries are (mass, move_x, move_y, delta); the rest of den is null.
    """

    entries: list[tuple[int, Move | None, Move | None, int]]
    den: int
    clamp_events: int
    dc_max: int


@dataclass(frozen=True)
class ColorTerm:
    """Per-color share of the expected metric change, times nothing: exact."""

    alpha: Fraction
    weight: int
    dc: int


@dataclass(frozen=True)
class DriftReport:
    exact_drift: Fraction
    per_color: dict[int, ColorTerm]
    bound: Fraction
    beta: Fraction
    dc_max: int
    clamp_events: int = 0


def flip_move_law(G: UnionLineGraph, sigma: Coloring, fp: FlipParams,
                  k: int | None = None) -> dict[Move, int]:
    """Exact move distribution of one flip proposal, over m*k*D.

    Each proposal of a flippable component adds fp.units.accept[size] to
    its move, so a component of size s totals p_s * D; the complement of
    the total m*k*D is the null mass.  Zero-probability moves are omitted.
    """
    k = sigma.k if k is None else k
    acc = fp.units.accept
    assign, nbrs, cap = sigma.assign, G.nbrs, fp.locality
    law: dict[Move, int] = {}
    for v in range(G.m):
        for c in range(1, k + 1):
            members = alternating_component(assign, nbrs, v, c, cap)
            if members is None:
                continue
            q = acc[len(members)]
            if q == 0:
                continue
            mv = Move(frozenset(members), frozenset((assign[v], c)))
            law[mv] = law.get(mv, 0) + q
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


def _assemble_flip_table(pair: AdjacentPair, G: UnionLineGraph, k: int,
                         fp: FlipParams):
    """Build the coupled table and the per-color drift terms together.

    Returns (table, alphas), both in integer numerators over m*k*D:
    alphas[c] is (color c's share of the drift, its neighbor weight, dc).

    Construction doubles as a proof of marginal correctness: every move
    of either single-chain law must be consumed exactly, either by the
    per-color matching around the disagreement or as a shared identity
    entry, and the leftover asserts below fail loudly otherwise.
    """
    x, y, vs = pair.x, pair.y, pair.vstar
    if x.k != k or y.k != k:
        raise ValueError("pair and k disagree")
    if not is_proper(G, x) or not is_proper(G, y):
        raise ValueError("coupled tables are defined for proper states")
    xstar, ystar = pair.xstar, pair.ystar
    D, P = fp.units.den, fp.units.p
    law_x = flip_move_law(G, x, fp, k)
    law_y = flip_move_law(G, y, fp, k)

    rows: list[tuple] = []
    alphas: dict[int, tuple[int, int, int]] = {}
    used_x: dict[Move, int] = {}
    used_y: dict[Move, int] = {}
    clamp_events = 0
    dc_max = 0

    def consume(mass: int, move_x: Move | None, move_y: Move | None,
                delta: int) -> None:
        rows.append((mass, move_x, move_y, delta))
        if move_x is not None:
            used_x[move_x] = used_x.get(move_x, 0) + mass
        if move_y is not None:
            used_y[move_y] = used_y.get(move_y, 0) + mass

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
            consume(D, mv_x, mv_y, delta)
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

        mass_map = {mv: P[mv.size] if mv.size < len(P) else 0
                    for mv in (big_x, big_y, *t_moves, *u_moves)}
        weights = [G.weight[w] for w in nbrs_c]
        m_a = pick_anchor([u.size for u in u_moves], weights)
        m_b = pick_anchor([t.size for t in t_moves], weights)
        matched, clamped = match_color_moves(big_x, big_y, t_moves, u_moves,
                                             mass_map, m_a, m_b)
        clamp_events += clamped
        alpha = 0
        for p in matched:
            delta = _coupled_delta(G, pair, p.x, p.y)
            consume(p.mass, p.x, p.y, delta)
            alpha += p.mass * delta
        alphas[c] = (alpha, sum(weights), dc)

    for mv, q in used_x.items():
        assert law_x.get(mv) == q, f"X marginal off at {mv}: used {q}, law {law_x.get(mv)}"
    for mv, q in used_y.items():
        assert law_y.get(mv) == q, f"Y marginal off at {mv}: used {q}, law {law_y.get(mv)}"
    for mv, q in law_x.items():
        if mv in used_x:
            continue
        assert vs not in mv.members and law_y.get(mv) == q, f"unshared leftover {mv}"
        consume(q, mv, mv, 0)
    leftover_y = [mv for mv in law_y if mv not in used_y]
    assert not leftover_y, f"Y moves never consumed: {leftover_y}"
    den = G.m * k * D
    assert 0 <= sum(r[0] for r in rows) <= den
    return _IntTable(rows, den, clamp_events, dc_max), alphas


def build_flip_coupling_table(pair: AdjacentPair, G: UnionLineGraph, k: int,
                              fp: FlipParams) -> CouplingTable:
    table, _ = _assemble_flip_table(pair, G, k, fp)
    den = table.den
    return CouplingTable(
        entries=tuple(TableEntry(Fraction(q, den), mx, my, d)
                      for q, mx, my, d in table.entries),
        residual=Fraction(den - sum(e[0] for e in table.entries), den),
        clamp_events=table.clamp_events, dc_max=table.dc_max)


def flip_exact_drift(pair: AdjacentPair, G: UnionLineGraph, k: int,
                     fp: FlipParams) -> DriftReport:
    """Exact one-step expectation of the metric change under the table."""
    table, alphas = _assemble_flip_table(pair, G, k, fp)
    den = table.den
    num = sum(q * d for q, _, _, d in table.entries)
    assert num == sum(a for a, _, _ in alphas.values())
    drift = Fraction(num, den)
    wstar = G.weight[pair.vstar]
    bound = Fraction(wstar, G.m * k) * (threshold_ratio(fp) * G.delta - k)
    per_color = {c: ColorTerm(alpha=Fraction(a, den), weight=w, dc=dc)
                 for c, (a, w, dc) in alphas.items()}
    return DriftReport(exact_drift=drift, per_color=per_color, bound=bound,
                       beta=1 + drift / wstar, dc_max=table.dc_max,
                       clamp_events=table.clamp_events)


def coupled_flip_step(pair: AdjacentPair, G: UnionLineGraph, k: int,
                      fp: FlipParams, rng: random.Random,
                      table: CouplingTable | None = None):
    """Sample one entry (or the null residual) and apply it to copies."""
    if table is None:
        table = build_flip_coupling_table(pair, G, k, fp)
    u = rng.random()
    acc = Fraction(0)
    x2, y2 = pair.x.copy(), pair.y.copy()
    for e in table.entries:
        acc += e.mass
        if u < acc:
            if e.move_x is not None:
                e.move_x.apply(x2)
            if e.move_y is not None:
                e.move_y.apply(y2)
            break
    return x2, y2


def glauber_partner_color(pair: AdjacentPair, G: UnionLineGraph, v: int,
                          c: int) -> int:
    """Color the mirror chain attempts when the first draws (v, c).

    The transposition of the two disagreement colors on the neighbors of
    vstar, the identity everywhere else; a bijection on colors for every
    vertex, which is what makes the coupling valid.
    """
    if v != pair.vstar and v in G.nbrs[pair.vstar]:
        if c == pair.xstar:
            return pair.ystar
        if c == pair.ystar:
            return pair.xstar
    return c


def coupled_glauber_step(pair: AdjacentPair, G: UnionLineGraph, k: int,
                         rng: random.Random):
    v = rng.randrange(G.m)
    c = rng.randrange(k) + 1
    cp = glauber_partner_color(pair, G, v, c)
    x2, y2 = pair.x.copy(), pair.y.copy()
    if all(x2.assign[w] != c for w in G.nbrs[v]):
        x2.assign[v] = c
    if all(y2.assign[w] != cp for w in G.nbrs[v]):
        y2.assign[v] = cp
    return x2, y2


def glauber_exact_drift(pair: AdjacentPair, G: UnionLineGraph, k: int) -> DriftReport:
    """Exact drift of the coupled single-site step, by direct accounting.

    Proposals at vstar coalesce when the color is free in the common
    neighborhood; proposals at a neighbor can create a new disagreement
    only when the drawn color is the Y-side disagreement color and at
    least one chain accepts; everything else leaves the metric alone.
    """
    if pair.x.k != k or pair.y.k != k:
        raise ValueError("pair and k disagree")
    if not is_proper(G, pair.x) or not is_proper(G, pair.y):
        raise ValueError("drift accounting assumes proper states")
    vs = pair.vstar
    xstar, ystar = pair.xstar, pair.ystar
    mk = G.m * k
    nbr_colors = {pair.x.assign[w] for w in G.nbrs[vs]}
    per_color: dict[int, ColorTerm] = {}
    dc_max = 0
    for c in range(1, k + 1):
        alpha = Fraction(0)
        nbrs_c = [w for w in G.nbrs[vs] if pair.x.assign[w] == c]
        dc_max = max(dc_max, len(nbrs_c))
        if c not in nbr_colors:
            alpha += Fraction(-G.weight[vs], mk)
        if c == ystar:
            for w in G.nbrs[vs]:
                others = {pair.x.assign[u] for u in G.nbrs[w] if u != vs}
                if ystar not in others or xstar not in others:
                    alpha += Fraction(G.weight[w], mk)
        per_color[c] = ColorTerm(alpha=alpha,
                                 weight=sum(G.weight[w] for w in nbrs_c),
                                 dc=len(nbrs_c))
    drift = sum((t.alpha for t in per_color.values()), Fraction(0))
    wstar = G.weight[vs]
    deg = len(G.nbrs[vs])
    bound = Fraction(-wstar * (k - deg) + sum(G.weight[w] for w in G.nbrs[vs]), mk)
    return DriftReport(exact_drift=drift, per_color=per_color, bound=bound,
                       beta=1 + drift / wstar, dc_max=dc_max)


def sample_adjacent_pairs(G: UnionLineGraph, k: int, fp: FlipParams,
                          count: int, rng: random.Random) -> list[AdjacentPair]:
    """Proper adjacent pairs from a warmed-up chain plus one perturbation.

    Burn-in is 20*m*k proposals from the greedy start, with m*k more
    between consecutive pairs; the perturbed vertex and its new color are
    drawn uniformly among the proper choices.
    """
    if k < 4 * G.delta - 2:
        raise ValueError("pair sampling expects k >= 4*delta - 2")
    sigma = greedy_coloring(G, k)
    for _ in range(20 * G.m * k):
        flip_step(G, sigma, fp, rng)
    pairs: list[AdjacentPair] = []
    while len(pairs) < count:
        for _ in range(G.m * k):
            flip_step(G, sigma, fp, rng)
        order = list(range(G.m))
        rng.shuffle(order)
        for v in order:
            taken = {sigma.assign[w] for w in G.nbrs[v]}
            free = [c for c in range(1, k + 1)
                    if c != sigma.assign[v] and c not in taken]
            if not free:
                continue
            c = free[rng.randrange(len(free))]
            y = sigma.copy()
            y.assign[v] = c
            pairs.append(AdjacentPair(x=sigma.copy(), y=y, vstar=v))
            break
        else:
            raise RuntimeError("no proper single-vertex perturbation exists")
    return pairs


@dataclass(frozen=True)
class PairRecord:
    pair_id: int
    vstar: int
    vstar_weight: int
    exact_drift: Fraction
    bound: Fraction
    beta: Fraction
    dc_max: int
    clamp_events: int


@dataclass(frozen=True)
class ContractionSummary:
    records: tuple[PairRecord, ...]
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
    rng = random.Random(seed)
    sampled = sample_adjacent_pairs(G, k, fp, pairs, rng)
    records = []
    for i, pair in enumerate(sampled):
        rep = flip_exact_drift(pair, G, k, fp)
        records.append(PairRecord(
            pair_id=i, vstar=pair.vstar, vstar_weight=G.weight[pair.vstar],
            exact_drift=rep.exact_drift, bound=rep.bound, beta=rep.beta,
            dc_max=rep.dc_max, clamp_events=rep.clamp_events))
    in_scope = [r for r in records if r.dc_max <= 2]
    margins = [r.bound - r.exact_drift for r in in_scope]
    return ContractionSummary(
        records=tuple(records),
        max_drift=max(r.exact_drift for r in records),
        mean_drift=sum((r.exact_drift for r in records), Fraction(0)) / len(records),
        beta=max(r.beta for r in records),
        bound_margin=min(margins) if margins else None,
        dc_over_2=len(records) - len(in_scope),
        clamp_events=sum(r.clamp_events for r in records),
        all_bounds_hold=all(m >= 0 for m in margins),
    )


def records_to_csv(records) -> str:
    """Drift records in the export schema, one row per pair."""
    lines = ["pair_id,vstar_weight,exact_drift_num,exact_drift_den,"
             "bound_num,bound_den,beta,dc_max"]
    for r in records:
        lines.append(f"{r.pair_id},{r.vstar_weight},"
                     f"{r.exact_drift.numerator},{r.exact_drift.denominator},"
                     f"{r.bound.numerator},{r.bound.denominator},"
                     f"{float(r.beta)!r},{r.dc_max}")
    return "\n".join(lines) + "\n"
