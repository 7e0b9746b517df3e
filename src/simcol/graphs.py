"""Graph pairs, their union line graph, and its exact proper-coloring count.

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

import math
import random
from dataclasses import dataclass
from functools import cached_property

Edge = tuple[int, int]

# random_graph_pair shuffles all n(n-1)/2 candidate edges, 8 bytes each,
# quadratic in time and memory: n = 3 000 takes about 3.5 s and 37 MB on
# a 2-CPU Xeon, and n = 20 000 would need an estimated 2.5 minutes and
# 1.6 GB.  Past this cap it refuses before it builds the array.
GEN_MAX_N = 3000
# count_proper's default cap: the k^m_c leaves of the components, summed
DEFAULT_COUNT_CAP = 10 ** 7


class CapExceeded(Exception):
    """The requested computation is past the configured desk-scale cap."""


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

    @cached_property
    def csr(self):
        """nbrs as int32 arrays (indptr, indices), row i being
        indices[indptr[i]:indptr[i + 1]]: what the native chain loop reads."""
        from array import array  # lazily: certify never needs the module
        indptr, indices = array("i", [0]), array("i")
        for row in self.nbrs:
            indices.extend(row)
            indptr.append(len(indices))
        if indices and not 0 <= min(indices) <= max(indices) < self.m:
            raise ValueError(f"a neighbor id lies outside 0..{self.m - 1}")
        return indptr, indices

    def validate(self) -> None:
        """Check the structural bounds implied by the construction.

        A neighbor shares one of the edge's two endpoints in a source graph
        holding both, and each endpoint has at most delta - 1 other edges
        there.  So a weight-1 edge has at most 2(delta - 1) neighbors, of
        weight at most 2 each, and a weight-2 edge at most 2(delta - 1) per
        graph, a neighbor's weight being the number of graphs it is one in:
        4(delta - 1) neighbors at weight 2, and a neighborhood weight of
        4(delta - 1) at either.
        """
        d = self.delta - 1
        for i in range(self.m):
            degree = len(self.nbrs[i])
            if self.weight[i] == 1 and degree > 2 * d:
                raise AssertionError(f"weight-1 vertex {i} has degree {degree} > {2 * d}")
            if self.weight[i] == 2 and degree > 4 * d:
                raise AssertionError(f"weight-2 vertex {i} has degree {degree} > {4 * d}")
            wsum = sum(self.weight[j] for j in self.nbrs[i])
            if wsum > 4 * d:
                raise AssertionError(f"vertex {i} neighborhood weight {wsum} > {4 * d}")


def count_proper(G: UnionLineGraph, k: int, cap: int = DEFAULT_COUNT_CAP) -> int:
    """Proper colorings with k colors: the product over the connected
    components of G of each component's count by backtracking, refused
    before any backtracking if their k^m_c leaves sum past cap."""
    comps = []
    seen = [False] * G.m
    for root in range(G.m):
        if seen[root]:
            continue
        seen[root] = True
        comp, stack = [], [root]
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in G.nbrs[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    leaves = sum(k ** len(comp) for comp in comps)
    if leaves > cap:
        raise CapExceeded(f"the components' k^m_c sum to {leaves}, "
                          f"over the counting cap {cap}")
    return math.prod(_backtrack_count(G, comp, k) for comp in comps)


def _backtrack_count(G: UnionLineGraph, verts, k: int) -> int:
    """Proper colorings of G restricted to verts, ascending vertex ids
    closed under neighbors (a union of components, or all of G), by
    backtracking in that order."""
    m = len(verts)
    if m < 2:
        return k ** m  # no edge: every assignment is proper
    pos = {v: i for i, v in enumerate(verts)}
    earlier = [tuple(pos[w] for w in G.nbrs[v] if w < v) for v in verts]
    colors = range(1, k + 1)
    assign = [0] * m
    last = m - 1

    def free(i: int) -> list[int]:
        used = {assign[j] for j in earlier[i]}
        return [c for c in colors if c not in used]

    # the colors still to try at positions 0..len(stack)-1, held on an
    # explicit stack so that no recursion limit bounds m; the last
    # position's free colors are counted rather than tried
    count = 0
    stack = [iter(colors)]
    while stack:
        i = len(stack) - 1
        c = next(stack[i], 0)
        if not c:
            stack.pop()
            continue
        assign[i] = c
        if i + 1 == last:
            count += len(free(last))
        else:
            stack.append(iter(free(i + 1)))
    return count


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

    The first graph is filled greedily from the shuffled candidate edges.  A
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
    if n > GEN_MAX_N:
        raise CapExceeded(f"n = {n} exceeds the generator cap {GEN_MAX_N}: "
                          f"the candidate list grows as n^2")

    from array import array  # here, not at the top: only gen builds one

    # Candidate (u, v), u < v, is stored as the code u*(n+1) + v, in
    # lexicographic (u, v) order.
    stride = n + 1
    candidates = array("q")
    for u in range(1, n):
        row = u * stride
        candidates.extend(range(row + u + 1, row + n + 1))

    # random.shuffle's Fisher-Yates, inlined: slot i swaps with
    # Random._randbelow(i + 1), which redraws getrandbits((i + 1).bit_length())
    # while it exceeds i.  The draws, and so every seeded pair, are the
    # ones rng.shuffle makes on the (u, v) tuple list.
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    for i in range(len(candidates) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        candidates[i], candidates[j] = candidates[j], candidates[i]

    deg1 = [0] * stride
    e1: list[Edge] = []
    for code in candidates:
        u, v = divmod(code, stride)
        if deg1[u] < delta and deg1[v] < delta:
            e1.append((u, v))
            deg1[u] += 1
            deg1[v] += 1

    shared = rng.sample(sorted(e1), round(overlap * len(e1)))
    deg2 = [0] * stride
    e2: list[Edge] = list(shared)
    for (u, v) in e2:
        deg2[u] += 1
        deg2[v] += 1
    in_e1 = {u * stride + v for (u, v) in e1}
    for code in candidates:
        if len(e2) >= len(e1):
            break
        if code in in_e1:
            continue
        u, v = divmod(code, stride)
        if deg2[u] < delta and deg2[v] < delta:
            e2.append((u, v))
            deg2[u] += 1
            deg2[v] += 1

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
    if len(toks) != 2 or toks[0] != "n" or not toks[1].isdecimal() or int(toks[1]) < 1:
        raise ParseError(no, "malformed vertex count, expected 'n <N>'")
    n = int(toks[1])

    def read_block(tag: str) -> frozenset[Edge]:
        no, toks = next_line(f"'{tag} <count>'")
        if len(toks) != 2 or toks[0] != tag or not toks[1].isdecimal():
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
