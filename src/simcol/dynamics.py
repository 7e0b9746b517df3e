"""Colorings of the union line graph and the chains that move them.

Two chains, both driven by uniform proposals (vertex v, color c):

* Glauber: recolor v to c iff no neighbor holds it.
* Flip: swap v's color and c on the two-colored component through v
  with probability p_s / s, s the component size; components larger
  than the locality never move.

The flip rule is written once, as `alternating_component` capped at the
locality plus the acceptance tables of `FlipParams`; the sampler, the
coupling's move law and the exact kernel all use it.  The sampler
compares u < p_s / s exactly.  Exact flip masses are integers over one
common denominator, owned by `FlipParams.units`; the coupling, the
certifier and the exact kernel all count in that unit.

Colors are 1-based.  The RNG contract, which the trajectory-equivalence
tests rely on, is exactly: one `randrange(m)` for the vertex, one
`randrange(k)` for the color, then one `random()` for acceptance drawn
only when the acceptance probability lies strictly between 0 and 1.  A
flip chain with probabilities (1, 0, ...) therefore consumes the same
draw sequence as Glauber and realizes the same walk.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .graphs import UnionLineGraph

DEFAULT_FLIP_NUMERATORS = (650, 137, 77, 47, 27, 12)
FLIP_DENOMINATOR = 650


def _float_cut(q: Fraction) -> float:
    """Largest double below q; -1.0 for q = 0 and 1.0 for q = 1 (no draw)."""
    if q == 0:
        return -1.0
    if q == 1:
        return 1.0
    t = float(q)
    while t >= q:  # a float against a Fraction compares exactly
        t = math.nextafter(t, 0.0)
    return t


class FlipUnits(NamedTuple):
    """A schedule's exact flip masses as integers over one denominator.

    den is D, the lcm of the denominators of p_s / s; p[s] = p_s * D is
    the mass of a component of size s (times m*k), accept[s] = (p_s / s)
    * D that of one proposal of it.  Both run over s = 0..locality and
    are 0 at s = 0; every size past the locality has mass 0 too.
    """

    den: int
    p: tuple[int, ...]
    accept: tuple[int, ...]


@dataclass(frozen=True)
class FlipParams:
    """Component-size flip probabilities p_1..p_locality (exact rationals)."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        probs = tuple(Fraction(p) for p in self.probs)
        while probs and probs[-1] == 0:
            probs = probs[:-1]
        if not probs or probs[0] != 1:
            raise ValueError("p_1 must equal 1")
        for i, p in enumerate(probs, start=1):
            if not (0 <= p <= 1):
                raise ValueError(f"p_{i} = {p} outside [0, 1]")
        object.__setattr__(self, "probs", probs)

    @property
    def locality(self) -> int:
        return len(self.probs)

    @functools.cached_property
    def accept(self) -> tuple[Fraction, ...]:
        """accept[s] = p_s / s exactly, per component size s (entry 0 unused)."""
        return (Fraction(0),) + tuple(p / s for s, p in enumerate(self.probs, start=1))

    @functools.cached_property
    def units(self) -> FlipUnits:
        """The exact flip masses in integer units; see `FlipUnits`."""
        den = math.lcm(*(q.denominator for q in self.accept))
        return FlipUnits(den, (0,) + tuple(int(p * den) for p in self.probs),
                         tuple(int(q * den) for q in self.accept))

    @functools.cached_property
    def cut(self) -> tuple[float, ...]:
        """cut[s]: a float u has u < p_s / s iff u <= cut[s]."""
        return tuple(_float_cut(q) for q in self.accept)

    def p(self, size: int) -> Fraction:
        if 1 <= size <= len(self.probs):
            return self.probs[size - 1]
        return Fraction(0)

    def diff(self, size: int) -> Fraction:
        """p_size - p_{size+1}."""
        return self.p(size) - self.p(size + 1)

    @classmethod
    def default(cls) -> "FlipParams":
        return cls(tuple(Fraction(n, FLIP_DENOMINATOR) for n in DEFAULT_FLIP_NUMERATORS))

    @classmethod
    def glauber(cls) -> "FlipParams":
        return cls((Fraction(1),))

    @classmethod
    def from_text(cls, text: str) -> "FlipParams":
        """Parse one probability per line, each written as "num/den" or "num"."""
        probs = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            probs.append(Fraction(line))
        return cls(tuple(probs))


@dataclass
class Coloring:
    """Assignment of 1-based colors to union-line-graph vertices.

    Properness is not required; the chains are defined on the full product
    space and merely preserve properness once reached.
    """

    assign: list[int]
    k: int

    def __post_init__(self):
        for v, c in enumerate(self.assign):
            if not (1 <= c <= self.k):
                raise ValueError(f"vertex {v} holds color {c} outside 1..{self.k}")

    def copy(self) -> "Coloring":
        return Coloring(assign=list(self.assign), k=self.k)


def alternating_component(assign, nbrs, v: int, c: int, cap) -> list[int] | None:
    """v's component under strict alternation between assign[v] and c, v first.

    Returns None as soon as the component exceeds cap members (the flip
    probability is 0 there, so callers never need the full set); cap None
    grows the whole component.
    """
    a = assign[v]
    if a == c:
        return [v]
    members = [v]
    seen = {v}
    i = 0
    while i < len(members):
        u = members[i]
        want = c if assign[u] == a else a
        for w in nbrs[u]:
            if assign[w] == want and w not in seen:
                seen.add(w)
                members.append(w)
                if cap is not None and len(members) > cap:
                    return None
        i += 1
    return members


def compute_cluster(G: UnionLineGraph, sigma: Coloring, v: int, c: int) -> frozenset[int]:
    """The whole alternating component of v between its color and c."""
    return frozenset(alternating_component(sigma.assign, G.nbrs, v, c, None))


def swap_colors(assign: list[int], members, a: int, b: int) -> None:
    for u in members:
        if assign[u] == a:
            assign[u] = b
        elif assign[u] == b:
            assign[u] = a


def glauber_step(G: UnionLineGraph, sigma: Coloring, rng: random.Random) -> int:
    """One proposal; returns 1 if the recoloring was applied, else 0."""
    v = rng.randrange(G.m)
    c = rng.randrange(sigma.k) + 1
    assign = sigma.assign
    for w in G.nbrs[v]:
        if assign[w] == c:
            return 0
    assign[v] = c
    return 1


def flip_step(G: UnionLineGraph, sigma: Coloring, fp: FlipParams,
              rng: random.Random) -> int:
    """One proposal; returns the flipped component size, 0 on a null move."""
    v = rng.randrange(G.m)
    c = rng.randrange(sigma.k) + 1
    assign = sigma.assign
    members = alternating_component(assign, G.nbrs, v, c, fp.locality)
    if members is None:
        return 0
    s = len(members)
    cut = fp.cut[s]
    if cut < 0.0 or (cut < 1.0 and rng.random() > cut):
        return 0
    swap_colors(assign, members, assign[v], c)
    return s


def is_proper(G: UnionLineGraph, sigma: Coloring) -> bool:
    assign = sigma.assign
    for v in range(G.m):
        cv = assign[v]
        for w in G.nbrs[v]:
            if w > v and assign[w] == cv:
                return False
    return True


def greedy_coloring(G: UnionLineGraph, k: int) -> Coloring:
    """First-available color in vertex-id order; proper whenever it returns."""
    assign = [0] * G.m
    for v in range(G.m):
        used = {assign[w] for w in G.nbrs[v] if w < v}
        for c in range(1, k + 1):
            if c not in used:
                assign[v] = c
                break
        else:
            raise ValueError(f"greedy coloring stuck at vertex {v} with k={k}")
    return Coloring(assign=assign, k=k)


@dataclass
class ChainStats:
    steps: int
    accepted: int
    flips_by_size: dict[int, int]


def run_chain(G: UnionLineGraph, sigma: Coloring, steps: int, rng: random.Random,
              kind: str = "glauber", fp: FlipParams | None = None) -> ChainStats:
    """Advance sigma in place for `steps` proposals, tallying acceptances."""
    if kind == "glauber":
        step = functools.partial(glauber_step, G, sigma, rng)
    elif kind == "flip":
        if fp is None:
            raise ValueError("flip chain needs flip parameters")
        step = functools.partial(flip_step, G, sigma, fp, rng)
    else:
        raise ValueError(f"unknown chain kind {kind!r}")
    by_size: dict[int, int] = {}
    for _ in range(steps):
        s = step()
        if s:
            by_size[s] = by_size.get(s, 0) + 1
    return ChainStats(steps=steps, accepted=sum(by_size.values()), flips_by_size=by_size)
