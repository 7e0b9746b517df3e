"""Ground truth on small instances.

Proper colorings are enumerated by backtracking; chains become explicit
transition matrices over the full product state space (all assignments,
proper or not), either double-precision sparse or exact rational.  On
top of those: uniform-stationarity verification, reachability checks,
exact worst-start total-variation mixing curves, and an absorption
diagnostic for improper starts.

All of it is gated by explicit caps and raises CapExceeded rather than
grinding: these tools exist to certify the desk-scale claims, not to
scale.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .dynamics import FlipParams, ListAssignment, propose_flip
from .graphs import GraphPair, UnionLineGraph, build_union_line_graph

DEFAULT_COUNT_CAP = 10 ** 7
FLOAT_STATE_CAP = 2 * 10 ** 4
RATIONAL_STATE_CAP = 3 * 10 ** 3
TMIX_STATE_CAP = 3 * 10 ** 3


class CapExceeded(Exception):
    """The requested computation is past the configured desk-scale cap."""


@dataclass(frozen=True)
class StateIndex:
    """Mixed-radix bijection between assignments and [0, k^m).

    The vertex id is the digit position: state // k**v % k is vertex v's
    color minus one.  Test fixtures rely on this layout.
    """

    m: int
    k: int

    @property
    def size(self) -> int:
        return self.k ** self.m

    def decode(self, state: int) -> list[int]:
        out = []
        for _ in range(self.m):
            state, r = divmod(state, self.k)
            out.append(r + 1)
        return out

    def encode(self, assign) -> int:
        state = 0
        for c in reversed(assign):
            state = state * self.k + (c - 1)
        return state

    def proper_mask(self, G: UnionLineGraph) -> tuple[bool, ...]:
        mask = []
        for s in range(self.size):
            a = self.decode(s)
            mask.append(all(a[v] != a[w]
                            for v in range(self.m) for w in G.nbrs[v] if w > v))
        return tuple(mask)


def _backtrack(G: UnionLineGraph, k: int, collect: bool):
    earlier = [tuple(w for w in G.nbrs[v] if w < v) for v in range(G.m)]
    assign = [0] * G.m
    found: list[tuple[int, ...]] = []
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v == G.m:
            count += 1
            if collect:
                found.append(tuple(assign))
            return
        for c in range(1, k + 1):
            if all(assign[w] != c for w in earlier[v]):
                assign[v] = c
                rec(v + 1)
        assign[v] = 0

    rec(0)
    return count, found


def count_proper(G: UnionLineGraph, k: int, cap: int = DEFAULT_COUNT_CAP) -> int:
    if k ** G.m > cap:
        raise CapExceeded(f"k^m = {k ** G.m} exceeds the counting cap {cap}")
    return _backtrack(G, k, collect=False)[0]


def enumerate_proper(G: UnionLineGraph, k: int,
                     cap: int = DEFAULT_COUNT_CAP) -> list[tuple[int, ...]]:
    if k ** G.m > cap:
        raise CapExceeded(f"k^m = {k ** G.m} exceeds the enumeration cap {cap}")
    return _backtrack(G, k, collect=True)[1]


def simultaneous_chromatic_index(gp: GraphPair, kmax: int | None = None,
                                 cap: int = DEFAULT_COUNT_CAP) -> int:
    """Smallest k admitting a proper coloring of the edge pair.

    Greedy on the union line graph succeeds with 4*delta - 3 colors, so
    the default search is bounded there.
    """
    G = build_union_line_graph(gp)
    if kmax is None:
        kmax = max(1, 4 * G.delta - 3)
    for k in range(1, kmax + 1):
        if count_proper(G, k, cap=cap) > 0:
            return k
    raise ValueError(f"no proper coloring with up to {kmax} colors")


@dataclass(frozen=True)
class TransitionMatrix:
    """One-step kernel over every assignment, proper or not."""

    index: StateIndex
    proper: tuple[bool, ...]
    mode: str
    rows: object  # csr_matrix in float mode, list[dict[int, Fraction]] in rational

    @property
    def size(self) -> int:
        return self.index.size

    def row_items(self, s: int):
        if self.mode == "rational":
            return self.rows[s].items()
        r = self.rows.getrow(s)
        return zip(r.indices.tolist(), r.data.tolist())


def _state_transitions(G: UnionLineGraph, k: int, kind: str, assign,
                       powers, fp: FlipParams | None, lists):
    """Yield (target_state_delta, probability) per proposal; rest is lazy self-mass."""
    base = Fraction(1, G.m * k)
    for v in range(G.m):
        for i in range(k):
            if kind == "glauber":
                c = i + 1
                if all(assign[w] != c for w in G.nbrs[v]):
                    yield (c - assign[v]) * powers[v], base
                else:
                    yield 0, base
                continue
            proposal = propose_flip(assign, G.nbrs, v, i, fp.locality, lists)
            if proposal is None:
                yield 0, base
                continue
            c, members = proposal
            a = assign[v]
            acc = fp.accept[len(members)]
            if acc > 0:
                delta = sum(((c if assign[w] == a else a) - assign[w]) * powers[w]
                            for w in members)
                yield delta, base * acc
                if acc < 1:
                    yield 0, base * (1 - acc)
            else:
                yield 0, base


def build_transition_matrix(G: UnionLineGraph, k: int, kind: str = "glauber",
                            fp: FlipParams | None = None,
                            lists: ListAssignment | None = None,
                            mode: str = "float") -> TransitionMatrix:
    if kind not in ("glauber", "flip"):
        raise ValueError(f"unknown chain kind {kind!r}")
    if lists is not None and (kind != "flip" or lists.k != k):
        raise ValueError(f"lists need the flip chain over k={k}")
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    idx = StateIndex(G.m, k)
    cap = RATIONAL_STATE_CAP if mode == "rational" else FLOAT_STATE_CAP
    if idx.size > cap:
        raise CapExceeded(f"{idx.size} states exceed the {mode} cap {cap}")
    if kind == "flip" and fp is None:
        fp = FlipParams.default()
    powers = [k ** v for v in range(G.m)]
    proper = idx.proper_mask(G)

    rational = mode == "rational"
    rows: list[dict[int, Fraction]] = []
    coo_r: list[int] = []
    coo_c: list[int] = []
    coo_v: list[float] = []
    for s in range(idx.size):
        assign = idx.decode(s)
        row: dict[int, Fraction] = {}
        for delta, prob in _state_transitions(G, k, kind, assign, powers, fp, lists):
            t = s + delta
            row[t] = row.get(t, Fraction(0)) + prob
        assert sum(row.values()) == 1
        if rational:
            rows.append(row)
        else:
            for t, prob in row.items():
                coo_r.append(s)
                coo_c.append(t)
                coo_v.append(float(prob))
    if rational:
        return TransitionMatrix(index=idx, proper=proper, mode=mode, rows=rows)
    mat = sp.coo_matrix((coo_v, (coo_r, coo_c)), shape=(idx.size, idx.size)).tocsr()
    return TransitionMatrix(index=idx, proper=proper, mode=mode, rows=mat)


@dataclass(frozen=True)
class StationaryReport:
    uniform_ok: bool
    max_error: float
    proper_closed: bool
    irreducible: bool
    violating_pair: tuple[int, int] | None
    aperiodic: bool


def _reachability(P: TransitionMatrix, proper_states: list[int], reverse: bool):
    """BFS over positive transitions among proper states."""
    pos = set(proper_states)
    adj: dict[int, list[int]] = {s: [] for s in proper_states}
    for s in proper_states:
        for t, prob in P.row_items(s):
            if prob and t in pos:
                if reverse:
                    adj[t].append(s)
                else:
                    adj[s].append(t)
    start = proper_states[0]
    seen = {start}
    q = deque([start])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                q.append(w)
    return seen


def stationary_check(P: TransitionMatrix) -> StationaryReport:
    """Verify the uniform-on-proper row vector is a fixed point.

    Also checks that proper states only transition to proper states, that
    they are mutually reachable (both directions, so the restriction is
    irreducible as a directed chain), and that every proper state holds a
    self-loop (aperiodicity).
    """
    proper_states = [s for s in range(P.size) if P.proper[s]]
    if not proper_states:
        raise ValueError("no proper states at this k")
    n = len(proper_states)

    proper_closed = True
    aperiodic = True
    if P.mode == "rational":
        acc: dict[int, Fraction] = {}
        for s in proper_states:
            diag = Fraction(0)
            for t, prob in P.rows[s].items():
                if not P.proper[t] and prob:
                    proper_closed = False
                acc[t] = acc.get(t, Fraction(0)) + prob
                if t == s:
                    diag = prob
            if diag == 0:
                aperiodic = False
        # acc[t] = n * (uP)[t]; the fixed point needs acc = 1 on proper states
        err = Fraction(0)
        for t, total in acc.items():
            expect = Fraction(1) if P.proper[t] else Fraction(0)
            err = max(err, abs(total - expect))
        max_error = float(err)
        uniform_ok = err == 0
    else:
        mat = P.rows
        u = np.zeros(P.size)
        u[proper_states] = 1.0 / n
        up = mat.T.dot(u)
        max_error = float(np.max(np.abs(up - u)))
        uniform_ok = max_error <= 1e-10
        diag = mat.diagonal()
        for s in proper_states:
            if diag[s] <= 0:
                aperiodic = False
            row = mat.getrow(s)
            for t, prob in zip(row.indices.tolist(), row.data.tolist()):
                if prob and not P.proper[t]:
                    proper_closed = False

    forward = _reachability(P, proper_states, reverse=False)
    backward = _reachability(P, proper_states, reverse=True)
    irreducible = len(forward) == n and len(backward) == n
    violating_pair = None
    if not irreducible:
        missing = forward if len(forward) < n else backward
        bad = next(s for s in proper_states if s not in missing)
        violating_pair = (proper_states[0], bad)

    return StationaryReport(uniform_ok=uniform_ok, max_error=max_error,
                            proper_closed=proper_closed, irreducible=irreducible,
                            violating_pair=violating_pair, aperiodic=aperiodic)


def _restrict_to_proper(P: TransitionMatrix):
    proper_states = [s for s in range(P.size) if P.proper[s]]
    pos = {s: i for i, s in enumerate(proper_states)}
    if P.mode == "rational":
        rows = []
        for s in proper_states:
            row = {pos[t]: prob for t, prob in P.rows[s].items() if t in pos}
            assert sum(row.values()) == 1, "proper states must stay proper"
            rows.append(row)
        return proper_states, rows
    mat = P.rows[proper_states][:, proper_states].tocsr()
    sums = np.asarray(mat.sum(axis=1)).ravel()
    assert np.max(np.abs(sums - 1.0)) < 1e-12, "proper states must stay proper"
    return proper_states, mat


def tv_mixing_time(P: TransitionMatrix, eps: float = 0.25,
                   max_steps: int = 10 ** 5):
    """Least t with worst-start total variation (from proper starts) <= eps.

    Returns (tmix, curve) with curve = [[t, distance], ...] starting at
    t = 0.  Exact in rational mode; distances are reported as floats
    either way.  The distance must be non-increasing in t, and the sweep
    asserts that as it goes.

    The chain restricted to proper states must be irreducible (see
    `stationary_check`): a reducible one never mixes, and the sweep then
    runs all max_steps before it raises CapExceeded.
    """
    proper_states, Q = _restrict_to_proper(P)
    n = len(proper_states)
    if n > TMIX_STATE_CAP:
        raise CapExceeded(f"{n} proper states exceed the mixing-curve cap")

    curve: list[list[float]] = []
    if P.mode == "rational":
        target = Fraction(1, n)
        dist = [{i: Fraction(1)} for i in range(n)]
        prev = None
        for t in range(max_steps + 1):
            d = max(
                sum((abs(row.get(j, Fraction(0)) - target) for j in range(n)),
                    Fraction(0)) / 2
                for row in dist)
            curve.append([t, float(d)])
            assert prev is None or d <= prev
            prev = d
            if d <= Fraction(eps).limit_denominator(10 ** 9):
                return t, curve
            nxt = []
            for row in dist:
                out: dict[int, Fraction] = {}
                for i, mass in row.items():
                    for j, prob in Q[i].items():
                        out[j] = out.get(j, Fraction(0)) + mass * prob
                nxt.append(out)
            dist = nxt
    else:
        QT = Q.T.tocsr()
        dt = np.eye(n)
        prev = None
        for t in range(max_steps + 1):
            d = float(0.5 * np.abs(dt - 1.0 / n).sum(axis=0).max())
            curve.append([t, d])
            assert prev is None or d <= prev + 1e-12
            prev = d
            if d <= eps:
                return t, curve
            dt = QT.dot(dt)
    raise CapExceeded(f"no mixing within {max_steps} steps")


def absorption_curve(P: TransitionMatrix, steps: int = 50) -> list[float]:
    """Mass still outside the proper set, from the uniform improper start."""
    improper = [s for s in range(P.size) if not P.proper[s]]
    if not improper:
        return [0.0] * (steps + 1)
    if P.mode == "rational":
        mu = {s: Fraction(1, len(improper)) for s in improper}
        out = []
        for _ in range(steps + 1):
            out.append(float(sum((mu.get(s, Fraction(0)) for s in improper),
                                 Fraction(0))))
            nxt: dict[int, Fraction] = {}
            for s, mass in mu.items():
                for t, prob in P.rows[s].items():
                    nxt[t] = nxt.get(t, Fraction(0)) + mass * prob
            mu = nxt
        return out
    mu = np.zeros(P.size)
    mu[improper] = 1.0 / len(improper)
    mat_t = P.rows.T.tocsr()
    out = []
    mask = np.array([not p for p in P.proper])
    for _ in range(steps + 1):
        out.append(float(mu[mask].sum()))
        mu = mat_t.dot(mu)
    return out


def oracle_report(G: UnionLineGraph, k: int, kind: str = "glauber",
                  fp: FlipParams | None = None, eps: float = 0.25,
                  mode: str = "float") -> dict:
    """The JSON-shaped summary: count, stationarity, mixing curve.

    A reducible chain has no mixing time: tmix is None, the curve empty.
    """
    count = count_proper(G, k)
    P = build_transition_matrix(G, k, kind=kind, fp=fp, mode=mode)
    report = stationary_check(P)
    tmix, curve = tv_mixing_time(P, eps=eps) if report.irreducible else (None, [])
    return {
        "count": count,
        "uniform_ok": bool(report.uniform_ok and report.irreducible
                           and report.proper_closed),
        "tv_curve": curve,
        "tmix": tmix,
    }
