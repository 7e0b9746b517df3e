"""Colorings of the union line graph and the chains that move them.

The flip chain draws uniform proposals (vertex v, color c) and swaps
v's color and c on the two-colored component through v with probability
p_s / s, s the component size; components past the locality never move.
Glauber (recolor v to c iff no neighbor holds it) is the flip chain at
p = (1,): proposing v's own color is an accepted size-1 null flip in
both, also where a neighbor holds it (on improper states).

The flip rule is written once, as `alternating_component` capped at the
locality plus the acceptance tables of `FlipParams`; the sampler and the
coupling's move law use it.  The exact kernel applies the same rule to
all states at once, and is tested equal to it.  The sampler
compares u < p_s / s exactly.  Exact flip masses are integers over one
common denominator, owned by `FlipParams.units`; the coupling, the
certifier and the exact kernel all count in that unit.

Colors are 1-based.  `run_chain` is the one chain loop; every walk in
the package, the pair sampler's burn-in included, goes through it.  Its
RNG contract, which the trajectory-equivalence tests rely on, is
exactly: one `randrange(m)` for the vertex, one `randrange(k)` for the
color, then one `random()` for acceptance drawn only when the acceptance
probability lies strictly between 0 and 1.  A flip chain with
probabilities (1, 0, ...) therefore consumes the same draw sequence as
Glauber and realizes the same walk.  `run_chain` draws v as
`getrandbits(m.bit_length())` redrawn while >= m, which is how
`random.Random.randrange(m)` draws it, and c likewise.  `flip_step`, one
proposal making exactly these calls, is the reference the tests compare
`run_chain` against: for `random.Random` the stream, walk and final RNG
state of `steps` calls of it equal those of one `run_chain` call.

The loop has a native body, `_chain.c`, with the same RNG contract: it
draws the same MT19937 words in the same order from the state that
`getstate()` hands it, and hands the state back through `setstate()`.
It runs for a `random.Random` that overrides none of its draw or state
methods, once `_native` has compiled it; any other run, or a machine
with no C compiler, takes the Python loop, which is the reference.
Which body ran never shows in a walk, a tally or the final RNG state.
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

    def mass(self, size: int) -> int:
        """p[size], and 0 for a size past the locality."""
        return self.p[size] if size < len(self.p) else 0


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
    def for_chain(cls, kind: str, fp: "FlipParams | None" = None) -> "FlipParams":
        """The schedule chain `kind` runs at: "glauber" is the flip chain at
        p = (1,), and "flip" runs fp, the default schedule when fp is None.
        A glauber chain refuses any other schedule rather than drop it."""
        if kind == "glauber":
            if fp is not None and fp != cls.glauber():
                probs = ", ".join(map(str, fp.probs))
                raise ValueError(f"chain 'glauber' runs at p = (1,), not at {probs}")
            return cls.glauber()
        if kind != "flip":
            raise ValueError(f"unknown chain kind {kind!r}")
        return cls.default() if fp is None else fp

    @classmethod
    def from_text(cls, text: str) -> "FlipParams":
        """Parse one probability per line, each written as "num/den" or "num"
        in decimal digits; no sign, point or exponent."""
        probs = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            num, slash, den = line.partition("/")
            if not num.isdecimal() or slash and not den.isdecimal():
                raise ValueError(f"{line!r} is not written as num/den or num")
            try:
                n, d = int(num), int(den) if slash else 1
            except ValueError as e:  # past Python's int-digit limit
                raise ValueError(f"{line!r}: {e}") from None
            if not d:
                raise ValueError(f"zero denominator in {line!r}")
            probs.append(Fraction(n, d))
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
            raise ValueError(f"greedy coloring stuck at vertex {v} with k={k}; "
                             "a greedy start needs more colors")
    return Coloring(assign=assign, k=k)


@dataclass
class ChainStats:
    """Outcome counts of a run: accepted + over_locality + rejected == steps.

    over_locality counts proposals whose component outgrew the locality
    (for Glauber, locality 1: a neighbor held c and v did not); rejected
    counts the rest of the null moves, declined by p_s / s.  A proposal
    of v's own color is an accepted size-1 flip that changes nothing,
    in either chain, even where a neighbor also holds that color.
    """

    steps: int
    accepted: int
    flips_by_size: dict[int, int]
    over_locality: int
    rejected: int


def _plain_mt19937(rng) -> bool:
    """True iff rng draws and keeps its state only through random.Random's
    own methods, so that a loop on its MT19937 state stands in for them."""
    own = getattr(rng, "__dict__", {})
    return isinstance(rng, random.Random) and all(
        getattr(type(rng), name) is getattr(random.Random, name) and name not in own
        for name in ("getrandbits", "random", "getstate", "setstate", "_randbelow"))


def _chain_stats(steps: int, counts: list[int], rejected: int) -> ChainStats:
    accepted = sum(counts)
    # every proposal not accepted or rejected ended over the locality
    return ChainStats(steps=steps, accepted=accepted,
                      flips_by_size={s: n for s, n in enumerate(counts) if n},
                      over_locality=steps - accepted - rejected, rejected=rejected)


def run_chain(G: UnionLineGraph, sigma: Coloring, steps: int, rng: random.Random,
              kind: str = "glauber", fp: FlipParams | None = None) -> ChainStats:
    """Advance sigma in place for `steps` proposals, tallying their outcomes.

    The schedule is `FlipParams.for_chain(kind, fp)`: kind "glauber" runs
    the flip chain at p = (1,), kind "flip" runs it at fp, or at the
    default schedule when fp is None.  Same walk, tallies and final RNG
    state as `steps` calls of `flip_step` at that schedule, written as one
    loop: v and c come from `getrandbits` redrawn while out of range,
    which is how `random.Random.randrange` draws them, so rng must draw
    its integers that way (TypeError otherwise).

    The loop has two bodies with this one contract.  A `random.Random`
    that overrides none of getrandbits, random, getstate, setstate and
    _randbelow runs the compiled `_chain.c` on its MT19937 state, read
    through getstate() and handed back through setstate(), when m and k
    are below 2**31 and a C compiler was found (`_native`), in calls of
    about 4M proposals.  Every other run takes the Python loop below,
    which is also the reference.  On either body, an exception between
    proposals or native calls (a Ctrl-C) leaves sigma and rng at the
    walk done so far.
    """
    fp = FlipParams.for_chain(kind, fp)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if getattr(type(rng), "_randbelow", None) is not random.Random._randbelow_with_getrandbits:
        raise TypeError(f"{type(rng).__name__} does not draw integers through getrandbits; "
                        "run_chain needs random.Random's randrange")
    m, k = G.m, sigma.k
    if steps and not m:
        raise ValueError("no vertex to propose")
    if len(sigma.assign) != m:
        raise ValueError(f"the coloring has {len(sigma.assign)} vertices, the graph {m}")
    locality, cut = fp.locality, fp.cut
    if steps and max(m, k) < 2 ** 31 and _plain_mt19937(rng):
        from . import _native  # loaded on the first walk: certify never pays for it
        loop = _native.chain_loop()
        if loop is not None:
            counts, rejected = _native.run(loop, G, sigma.assign, k, steps, locality, cut, rng)
            return _chain_stats(steps, counts, rejected)
    mbits, kbits = m.bit_length(), k.bit_length()
    nbrs, assign = G.nbrs, sigma.assign
    getrandbits, uniform = rng.getrandbits, rng.random
    counts = [0] * (locality + 1)
    free = rejected = 0
    for _ in range(steps):
        v = getrandbits(mbits)
        while v >= m:
            v = getrandbits(mbits)
        c = getrandbits(kbits)
        while c >= k:
            c = getrandbits(kbits)
        c += 1
        for w in nbrs[v]:
            if assign[w] == c:
                break
        else:
            # no neighbor holds c, so the component is {v}; p_1 = 1 (a
            # FlipParams invariant) accepts it without a uniform draw
            assign[v] = c
            free += 1
            continue
        if locality == 1 and assign[v] != c:
            # the neighbor holding c joins v's component, which is then
            # past locality 1 whatever else it would grow into
            continue
        members = alternating_component(assign, nbrs, v, c, locality)
        if members is None:
            continue
        s = len(members)
        q = cut[s]
        if q < 0.0 or (q < 1.0 and uniform() > q):
            rejected += 1
            continue
        swap_colors(assign, members, assign[v], c)
        counts[s] += 1
    counts[1] += free
    return _chain_stats(steps, counts, rejected)
