"""Graph pairs and their union line graph.

An instance is a pair of simple undirected graphs on a common vertex set
``{1..n}``.  The sampling chains do not act on the graphs directly but on
the union line graph: one vertex per distinct edge of either graph, two
vertices adjacent exactly when the corresponding edges share an endpoint
*within the same source graph*.  A vertex whose edge belongs to both
graphs carries weight 2, all others weight 1.

Instance file format (UTF-8, lines starting with ``#`` are comments,
tokens are whitespace separated)::

    simcol 1
    n <N>
    g1 <m1>
    <u> <v>        (m1 lines, endpoints in 1..N)
    g2 <m2>
    <u> <v>        (m2 lines)

Edges may be written in either endpoint order and are canonicalized to
(min, max).  A repeated edge inside one block is an error.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]


class ParseError(ValueError):
    """Input file rejected; carries the 1-based offending line number.

    line is None for errors no line locates (a JSON schema error, a
    schedule value); the message then names the offending item itself.
    """

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.message = message


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class GraphPair:
    """Two simple graphs on the shared vertex set {1..n}."""

    n: int
    edges1: frozenset[Edge]
    edges2: frozenset[Edge]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be positive")
        for name, edges in (("g1", self.edges1), ("g2", self.edges2)):
            for (u, v) in edges:
                if u >= v:
                    raise ValueError(f"{name}: edge {(u, v)} not canonical")
                if not (1 <= u <= self.n and 1 <= v <= self.n):
                    raise ValueError(f"{name}: edge {(u, v)} out of range 1..{self.n}")

    @cached_property
    def delta(self) -> int:
        """Largest vertex degree over both graphs."""
        best = 0
        for edges in (self.edges1, self.edges2):
            deg: dict[int, int] = {}
            for (u, v) in edges:
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
            if deg:
                best = max(best, max(deg.values()))
        return best

    @cached_property
    def shared_edges(self) -> frozenset[Edge]:
        return self.edges1 & self.edges2


@dataclass(frozen=True)
class UnionLineGraph:
    """Weighted adjacency structure the chains run on.

    Vertices are indexed 0..m-1 in sorted canonical edge order, so ids are
    reproducible for a given pair.  ``nbrs[i]`` holds i's neighbor ids in
    ascending order.
    """

    verts: tuple[Edge, ...]
    weight: tuple[int, ...]
    nbrs: tuple[tuple[int, ...], ...]
    delta: int

    @property
    def m(self) -> int:
        return len(self.verts)

    @cached_property
    def index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.verts)}

    def validate(self) -> None:
        """Check the structural bounds implied by the construction."""
        d = self.delta
        for i in range(self.m):
            degree = len(self.nbrs[i])
            if self.weight[i] == 1 and degree > 2 * d:
                raise AssertionError(f"weight-1 vertex {i} has degree {degree} > {2 * d}")
            if self.weight[i] == 2 and degree > 4 * d - 4:
                raise AssertionError(f"weight-2 vertex {i} has degree {degree} > {4 * d - 4}")
            wsum = sum(self.weight[j] for j in self.nbrs[i])
            if wsum > 4 * d:
                raise AssertionError(f"vertex {i} neighborhood weight {wsum} > {4 * d}")


def build_union_line_graph(gp: GraphPair) -> UnionLineGraph:
    """Construct the union line graph of a pair.

    Deterministic: vertex ids follow sorted canonical edge order.
    """
    verts = tuple(sorted(gp.edges1 | gp.edges2))
    index = {e: i for i, e in enumerate(verts)}
    weight = tuple(2 if e in gp.edges1 and e in gp.edges2 else 1 for e in verts)

    adj: list[set[int]] = [set() for _ in verts]
    for edges in (gp.edges1, gp.edges2):
        at_vertex: dict[int, list[int]] = {}
        for e in edges:
            for endpoint in e:
                at_vertex.setdefault(endpoint, []).append(index[e])
        for ids in at_vertex.values():
            for i in ids:
                adj[i].update(ids)
    nbrs = tuple(tuple(sorted(row - {i})) for i, row in enumerate(adj))
    return UnionLineGraph(verts=verts, weight=weight, nbrs=nbrs, delta=gp.delta)


def random_graph_pair(n: int, delta: int, overlap: float, seed: int) -> GraphPair:
    """Deterministically sample a pair with max degree <= delta.

    The first graph is filled greedily from a shuffled candidate list.  A
    round(overlap * |E1|) subset of it is copied into the second graph,
    which is then topped up with fresh (non-E1) edges toward |E1| edges,
    so the realized overlap count is exact.
    """
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if delta < 1:
        raise ValueError("delta must be positive")
    if delta >= n:
        raise ValueError(f"delta {delta} impossible on {n} vertices")
    if not (0.0 <= overlap <= 1.0):
        raise ValueError("overlap must lie in [0, 1]")

    rng = random.Random(seed)
    candidates = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(candidates)

    deg1: dict[int, int] = {}
    e1: list[Edge] = []
    for (u, v) in candidates:
        if deg1.get(u, 0) < delta and deg1.get(v, 0) < delta:
            e1.append((u, v))
            deg1[u] = deg1.get(u, 0) + 1
            deg1[v] = deg1.get(v, 0) + 1

    shared = rng.sample(sorted(e1), round(overlap * len(e1)))
    deg2: dict[int, int] = {}
    e2: list[Edge] = list(shared)
    for (u, v) in e2:
        deg2[u] = deg2.get(u, 0) + 1
        deg2[v] = deg2.get(v, 0) + 1
    in_e1 = set(e1)
    fresh = [e for e in candidates if e not in in_e1]
    for (u, v) in fresh:
        if len(e2) >= len(e1):
            break
        if deg2.get(u, 0) < delta and deg2.get(v, 0) < delta:
            e2.append((u, v))
            deg2[u] = deg2.get(u, 0) + 1
            deg2[v] = deg2.get(v, 0) + 1

    return GraphPair(n=n, edges1=frozenset(e1), edges2=frozenset(e2))


def read_instance(text: str) -> GraphPair:
    """Parse the instance format; raises ParseError with a line number."""
    lines = text.splitlines()
    stream: list[tuple[int, list[str]]] = []
    for no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        stream.append((no, stripped.split()))

    pos = 0

    def next_line(expect: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(stream):
            last = stream[-1][0] if stream else 0
            raise ParseError(last + 1, f"unexpected end of file, expected {expect}")
        item = stream[pos]
        pos += 1
        return item

    no, toks = next_line("'simcol 1' header")
    if toks != ["simcol", "1"]:
        raise ParseError(no, "malformed header, expected 'simcol 1'")

    no, toks = next_line("'n <N>'")
    if len(toks) != 2 or toks[0] != "n" or not toks[1].isdigit() or int(toks[1]) < 1:
        raise ParseError(no, "malformed vertex count, expected 'n <N>'")
    n = int(toks[1])

    def read_block(tag: str) -> frozenset[Edge]:
        no, toks = next_line(f"'{tag} <count>'")
        if len(toks) != 2 or toks[0] != tag or not toks[1].isdigit():
            raise ParseError(no, f"malformed block header, expected '{tag} <count>'")
        count = int(toks[1])
        edges: set[Edge] = set()
        for _ in range(count):
            no, toks = next_line(f"edge line under {tag}")
            if len(toks) != 2:
                raise ParseError(no, f"expected 'u v', got {len(toks)} tokens")
            try:
                u, v = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError(no, "edge endpoints must be integers") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(no, f"vertex out of range 1..{n}")
            if u == v:
                raise ParseError(no, "self-loops are not allowed")
            e = canonical_edge(u, v)
            if e in edges:
                raise ParseError(no, f"duplicate edge {e[0]} {e[1]} under {tag}")
            edges.add(e)
        return frozenset(edges)

    edges1 = read_block("g1")
    edges2 = read_block("g2")
    if pos < len(stream):
        raise ParseError(stream[pos][0], "trailing content after g2 block")
    return GraphPair(n=n, edges1=edges1, edges2=edges2)


def write_instance(gp: GraphPair) -> str:
    """Serialize canonically; read_instance(write_instance(gp)) == gp."""
    out = ["simcol 1", f"n {gp.n}", f"g1 {len(gp.edges1)}"]
    out.extend(f"{u} {v}" for u, v in sorted(gp.edges1))
    out.append(f"g2 {len(gp.edges2)}")
    out.extend(f"{u} {v}" for u, v in sorted(gp.edges2))
    return "\n".join(out) + "\n"
