"""Independent brute-force reimplementations used as test oracles.

Nothing here imports the move-law or table code under test; component
growth is a plain two-color BFS, which provably coincides with the
chains' alternating closure on proper colorings (the only states the
couplings ever see).  The single-step walks are the references that
`run_chain` and the pair sampler built on it are compared against, the
per-state kernel loop is the reference for the oracle's batched kernel,
and the tuple-list generator is the reference for `random_graph_pair`.
`run_fresh` runs code in a fresh interpreter, for what a process loads.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import simcol
from simcol.coupling import AdjacentPair
from simcol.dynamics import alternating_component, flip_step, greedy_coloring
from simcol.graphs import GraphPair
from simcol.oracle import StateIndex

# the directory that holds the simcol package under test
SRC = str(Path(simcol.__file__).resolve().parents[1])


def run_fresh(code: str, cwd) -> dict:
    """Run code in a fresh interpreter that imports this simcol; its JSON stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def reference_graph_pair(n, delta, overlap, seed):
    """`random_graph_pair` on a list of (u, v) tuples, shuffled by random.shuffle."""
    rng = random.Random(seed)
    candidates = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    rng.shuffle(candidates)

    deg1 = {}
    e1 = []
    for (u, v) in candidates:
        if deg1.get(u, 0) < delta and deg1.get(v, 0) < delta:
            e1.append((u, v))
            deg1[u] = deg1.get(u, 0) + 1
            deg1[v] = deg1.get(v, 0) + 1

    shared = rng.sample(sorted(e1), round(overlap * len(e1)))
    deg2 = {}
    e2 = list(shared)
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


def glauber_step(G, sigma, rng):
    """One proposal; returns 1 if v now holds c (its own color counts), else 0."""
    v = rng.randrange(G.m)
    c = rng.randrange(sigma.k) + 1
    assign = sigma.assign
    if assign[v] != c and any(assign[w] == c for w in G.nbrs[v]):
        return 0
    assign[v] = c
    return 1


def reference_adjacent_pairs(G, k, fp, count, rng):
    """`sample_adjacent_pairs` walked one `flip_step` call per proposal."""
    if k < 4 * G.delta - 2:
        raise ValueError("pair sampling expects k >= 4*delta - 2")
    sigma = greedy_coloring(G, k)
    for _ in range(20 * G.m * k):
        flip_step(G, sigma, fp, rng)
    pairs = []
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
            raise ValueError("no proper single-vertex perturbation exists")
    return pairs


def numpy_brute_count(G, k, perm_seed=0):
    """Order-permuted vectorized proper-coloring count.

    Vertex v is assigned digit position perm[v]; the count is invariant
    under the relabeling, so agreement across seeds is part of the check.
    """
    m = G.m
    perm = list(range(m))
    random.Random(perm_seed).shuffle(perm)
    states = np.arange(k ** m, dtype=np.int64)
    digits = [((states // (k ** perm[v])) % k).astype(np.int8) for v in range(m)]
    ok = np.ones(k ** m, dtype=bool)
    for v in range(m):
        for w in G.nbrs[v]:
            if w > v:
                ok &= digits[v] != digits[w]
    return int(ok.sum())


def two_color_component(G, assign, v, c):
    a = assign[v]
    if a == c:
        return frozenset({v})
    seen = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for w in G.nbrs[u]:
            if w not in seen and assign[w] in (a, c):
                seen.add(w)
                stack.append(w)
    return frozenset(seen)


def brute_flip_law(G, assign, k, fp):
    """Move distribution of one flip proposal from a proper coloring.

    Keys are (members, frozenset of the two colors); the missing mass is
    the null move.
    """
    mk = G.m * k
    law = {}
    for v in range(G.m):
        for c in range(1, k + 1):
            members = two_color_component(G, assign, v, c)
            s = len(members)
            q = fp.p(s)
            if q == 0:
                continue
            key = (members, frozenset((assign[v], c)))
            law[key] = law.get(key, Fraction(0)) + Fraction(q, s * mk)
    return law


def apply_move(assign, members, colors):
    if len(colors) < 2:
        return list(assign)
    a, b = sorted(colors)
    out = list(assign)
    for u in members:
        if out[u] == a:
            out[u] = b
        elif out[u] == b:
            out[u] = a
    return out


def jerrum_partner_color(G, pair, v, c):
    """Color Y proposes at v when X proposes c, in Jerrum's coupling.

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


def brute_glauber_drift(G, pair, k):
    """Exact one-step drift of Jerrum's coupling for the single-site chain.

    Enumerates all m*k proposals: X draws (v, c), Y draws (v, c') with
    c' from `jerrum_partner_color`, each recolors v when no neighbor
    holds its color, and the weighted disagreement is recounted.
    """
    xa0, ya0 = pair.x.assign, pair.y.assign
    before = sum(G.weight[u] for u in range(G.m) if xa0[u] != ya0[u])
    total = 0
    for v in range(G.m):
        for c in range(1, k + 1):
            cp = jerrum_partner_color(G, pair, v, c)
            xa, ya = list(xa0), list(ya0)
            if all(xa[w] != c for w in G.nbrs[v]):
                xa[v] = c
            if all(ya[w] != cp for w in G.nbrs[v]):
                ya[v] = cp
            total += sum(G.weight[u] for u in range(G.m) if xa[u] != ya[u]) - before
    return Fraction(total, G.m * k)


def scalar_flip_kernel(G, k, fp):
    """The flip chain's int64 numerators over m * k * fp.units.den, one
    state and one proposal at a time: `alternating_component` capped at
    the locality, priced by fp.units."""
    idx = StateIndex(G.m, k)
    powers = [k ** v for v in range(G.m)]
    unit, _, acc = fp.units
    indptr, indices, data = [0], [], []
    for s in range(idx.size):
        assign = idx.decode(s)
        row = {}
        for v in range(G.m):
            a = assign[v]
            for c in range(1, k + 1):
                members = alternating_component(assign, G.nbrs, v, c, fp.locality)
                n = 0 if members is None else acc[len(members)]
                if n:
                    t = s + sum(((c if assign[w] == a else a) - assign[w]) * powers[w]
                                for w in members)
                    row[t] = row.get(t, 0) + n
                if n < unit:
                    row[s] = row.get(s, 0) + unit - n
        targets = sorted(row)
        indices += targets
        data += [row[t] for t in targets]
        indptr.append(len(indices))
    return sp.csr_matrix((np.array(data, dtype=np.int64), np.array(indices),
                          np.array(indptr)), shape=(idx.size, idx.size))


def scalar_match_color_moves(big_x, big_y, x_ids, y_ids, size, weights, units):
    """`match_color_moves` for one shape, its step 4 a two-pointer walk
    over the positive leftovers; returns (pairs as (x, y, mass), clamped)."""
    rem = {i: units.mass(size[i]) for i in (big_x, big_y, *x_ids, *y_ids)}

    def anchor(ids):
        # the largest branch, ties to the heavier neighbor, then the first
        keys = [(size[i], w) for i, w in zip(ids, weights)]
        return ids[keys.index(max(keys))]

    pairs = []

    def emit(x, y, amount):
        pairs.append((x, y, amount))
        if x is not None:
            rem[x] -= amount
        if y is not None:
            rem[y] -= amount

    clamped = 0
    for x, y, big in ((big_x, anchor(y_ids), big_x), (anchor(x_ids), big_y, big_y)):
        take = min(rem[x], rem[y])
        clamped += take < rem[big]
        if take > 0:
            emit(x, y, take)
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


def scalar_matcher_grid(units, weights, xs, ys):
    """The certificate's matcher route one shape at a time: for every (x,
    y) pair of size rows, the numerator over color_weight * D without v*'s
    offset (exact ints) and the clamp count, as (len(xs), len(ys)) arrays.

    Component ids: 0 and 1 the big X and Y components, then the X-side
    branches (Y sizes), then the Y-side branches (X sizes)."""
    d = len(weights)
    x_ids, y_ids = tuple(range(2, 2 + d)), tuple(range(2 + d, 2 + 2 * d))
    num = np.zeros((len(xs), len(ys)), dtype=object)
    clamps = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for (i, x), (j, y) in product(enumerate(np.asarray(xs).tolist()),
                                  enumerate(np.asarray(ys).tolist())):
        pairs, clamps[i, j] = scalar_match_color_moves(
            0, 1, x_ids, y_ids, (1 + sum(x), 1 + sum(y), *y, *x), weights, units)
        # metric weight each component's flip moves, by id
        tw = [w + 2 * (s - 1) for w, s in zip(weights, y)]
        uw = [w + 2 * (s - 1) for w, s in zip(weights, x)]
        gain = (sum(uw), sum(tw), *tw, *uw)
        for a, b, mass in pairs:
            if b is None:
                delta = gain[a]
            elif a is None:
                delta = gain[b]
            elif a == 0:
                delta = gain[a] - gain[b]
            elif b == 1:
                delta = gain[b] - gain[a]
            elif b - a == d:
                # the two branches at one neighbor overlap in the neighbor
                delta = gain[a] + gain[b] - weights[a - 2]
            else:
                delta = gain[a] + gain[b]
            num[i, j] += mass * delta
    return num, clamps
