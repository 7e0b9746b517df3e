"""Ground truth on small instances.

Proper colorings are counted by backtracking; chains become explicit
transition matrices over the full product state space (all assignments,
proper or not).  Each is built once as integers: an int64 sparse matrix
of numerators over one row denominator.  It has two views, a
double-precision sparse matrix (each entry correctly rounded) and exact
rationals; the mode picks which one a caller reads.  On top of the
integers: exact uniform-stationarity verification, reachability checks,
and worst-start total-variation mixing curves (exact in rational mode,
by integer propagation over powers of the denominator).

All of it is gated by explicit caps and raises CapExceeded rather than
grinding: these tools exist to certify the desk-scale claims, not to
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .dynamics import FlipParams, alternating_component
from .graphs import UnionLineGraph

DEFAULT_COUNT_CAP = 10 ** 7
FLOAT_STATE_CAP = 2 * 10 ** 4
# the exact mixing sweep grows with the square of the proper count: 1296
# states, all proper, take about 30 s and 240 MB on a 2-CPU machine
RATIONAL_STATE_CAP = 1300
# a float sweep holds a few dense proper-by-proper arrays: 230 MB at 2744
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


def count_proper(G: UnionLineGraph, k: int, cap: int = DEFAULT_COUNT_CAP) -> int:
    """Proper colorings with k colors, by backtracking in vertex-id order."""
    if k ** G.m > cap:
        raise CapExceeded(f"k^m = {k ** G.m} exceeds the counting cap {cap}")
    earlier = [tuple(w for w in G.nbrs[v] if w < v) for v in range(G.m)]
    assign = [0] * G.m
    count = 0

    def rec(v: int) -> None:
        nonlocal count
        if v == G.m:
            count += 1
            return
        for c in range(1, k + 1):
            if all(assign[w] != c for w in earlier[v]):
                assign[v] = c
                rec(v + 1)
        assign[v] = 0

    rec(0)
    return count


@dataclass(frozen=True)
class TransitionMatrix:
    """One-step kernel over every assignment, proper or not: num / den.

    `num` holds int64 numerators over the single row denominator `den`.
    `rows` is the same kernel in the mode's view: a float csr whose
    entries are num / den, each correctly rounded, or in rational mode
    one {target: Fraction} dict per state.
    """

    index: StateIndex
    proper: tuple[bool, ...]
    mode: str
    num: sp.csr_matrix
    den: int
    rows: object

    @property
    def size(self) -> int:
        return self.index.size


def _state_transitions(G: UnionLineGraph, k: int, kind: str, assign,
                       powers, fp: FlipParams | None, unit: int, acc):
    """Yield (target_state_delta, numerator) per proposal, each worth `unit`.

    For the flip chain unit and acc come from `FlipParams.units`: acc[s]
    is the acceptance p_s / s in the same units.
    """
    for v in range(G.m):
        a = assign[v]
        for c in range(1, k + 1):
            if kind == "glauber":
                if all(assign[w] != c for w in G.nbrs[v]):
                    yield (c - a) * powers[v], unit
                else:
                    yield 0, unit
                continue
            members = alternating_component(assign, G.nbrs, v, c, fp.locality)
            if members is None:
                yield 0, unit
                continue
            n = acc[len(members)]
            if n:
                yield sum(((c if assign[w] == a else a) - assign[w]) * powers[w]
                          for w in members), n
            if n < unit:
                yield 0, unit - n


def build_transition_matrix(G: UnionLineGraph, k: int, kind: str = "glauber",
                            fp: FlipParams | None = None,
                            mode: str = "float") -> TransitionMatrix:
    if kind not in ("glauber", "flip"):
        raise ValueError(f"unknown chain kind {kind!r}")
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    idx = StateIndex(G.m, k)
    cap = RATIONAL_STATE_CAP if mode == "rational" else FLOAT_STATE_CAP
    if idx.size > cap:
        raise CapExceeded(f"{idx.size} states exceed the {mode} cap {cap}")
    if kind == "flip" and fp is None:
        fp = FlipParams.default()
    unit, acc = 1, None
    if kind == "flip":
        unit, _, acc = fp.units
    den = G.m * k * unit
    if den * idx.size > np.iinfo(np.int64).max:  # bounds every column sum of num
        raise CapExceeded(f"kernel denominator {den} overflows int64 at {idx.size} states")
    powers = [k ** v for v in range(G.m)]

    indptr, indices, data = [0], [], []
    for s in range(idx.size):
        row: dict[int, int] = {}
        for delta, n in _state_transitions(G, k, kind, idx.decode(s), powers,
                                           fp, unit, acc):
            row[s + delta] = row.get(s + delta, 0) + n
        assert sum(row.values()) == den
        targets = sorted(row)
        indices += targets
        data += [row[t] for t in targets]
        indptr.append(len(indices))
    shape = (idx.size, idx.size)
    num = sp.csr_matrix((np.array(data, dtype=np.int64), np.array(indices),
                         np.array(indptr)), shape=shape)
    if mode == "float":
        # divide the data array: scipy's `/ den` multiplies by 1/den and can
        # land an ulp away from the correctly rounded quotient
        rows = sp.csr_matrix((num.data / den, num.indices, num.indptr), shape=shape)
    else:
        rows = [{t: Fraction(n, den) for t, n in zip(indices[lo:hi], data[lo:hi])}
                for lo, hi in zip(indptr, indptr[1:])]
    return TransitionMatrix(index=idx, proper=idx.proper_mask(G), mode=mode,
                            num=num, den=den, rows=rows)


@dataclass(frozen=True)
class StationaryReport:
    uniform_ok: bool
    max_error: float
    proper_closed: bool
    irreducible: bool
    violating_pair: tuple[int, int] | None
    aperiodic: bool


def _reached(Q: sp.csr_matrix) -> list[bool]:
    """Which states a walk from state 0 reaches along nonzero entries of Q."""
    indptr, indices = Q.indptr.tolist(), Q.indices.tolist()
    seen = [False] * Q.shape[0]
    seen[0] = True
    stack = [0]
    while stack:
        u = stack.pop()
        for w in indices[indptr[u]:indptr[u + 1]]:
            if not seen[w]:
                seen[w] = True
                stack.append(w)
    return seen


def _proper_block(P: TransitionMatrix):
    """The proper states and the numerators among them, zeros dropped."""
    proper_states = np.flatnonzero(P.proper)
    Q = P.num[proper_states][:, proper_states]
    Q.eliminate_zeros()
    return proper_states, Q


def stationary_check(P: TransitionMatrix) -> StationaryReport:
    """Verify, exactly, that the uniform-on-proper row vector u is a fixed point.

    uP = u iff the proper rows of num sum to den in each proper column and
    to 0 in each improper one; max_error is max |uP - u|.  Also checks
    that proper states only transition to proper states, that they are
    mutually reachable (both directions, so the restriction is irreducible
    as a directed chain), and that every proper state holds a self-loop
    (aperiodicity).
    """
    proper_states, Q = _proper_block(P)
    n = len(proper_states)
    if not n:
        raise ValueError("no proper states at this k")
    is_proper = np.asarray(P.proper)
    top = P.num[proper_states]
    proper_closed = not top.data[~is_proper[top.indices]].any()
    aperiodic = bool((P.num.diagonal()[proper_states] > 0).all())
    colsum = np.zeros(P.size, dtype=np.int64)
    np.add.at(colsum, top.indices, top.data)
    err = int(np.abs(colsum - P.den * is_proper).max())

    forward = _reached(Q)
    backward = _reached(Q.T.tocsr())
    irreducible = all(forward) and all(backward)
    violating_pair = None
    if not irreducible:
        missing = forward if not all(forward) else backward
        bad = proper_states[missing.index(False)]
        violating_pair = (int(proper_states[0]), int(bad))

    return StationaryReport(uniform_ok=err == 0, max_error=err / (n * P.den),
                            proper_closed=proper_closed, irreducible=irreducible,
                            violating_pair=violating_pair, aperiodic=aperiodic)


def _times(N: np.ndarray, cols) -> np.ndarray:
    """N @ Q in Python integers, Q given column by column as (rows, values)."""
    out = np.empty_like(N)
    for j, (i, q) in enumerate(cols):
        out[:, j] = N[:, i].dot(q)
    return out


def _columns(Q: sp.csr_matrix):
    """Q's columns as (row indices, Python-int values), the form `_times` reads."""
    Qc = Q.tocsc()
    ptr = Qc.indptr
    return [(Qc.indices[lo:hi], Qc.data[lo:hi].astype(object))
            for lo, hi in zip(ptr, ptr[1:])]


def tv_mixing_time(P: TransitionMatrix, eps: float = 0.25,
                   max_steps: int = 10 ** 5):
    """Least t with worst-start total variation (from proper starts) <= eps.

    Returns (tmix, curve) with curve = [[t, distance], ...] starting at
    t = 0.  Exact in rational mode, where start i's law at time t is row i
    of an integer matrix N over den**t, so its distance is
    sum_j |n N_ij - den**t| / (2 n den**t) for n proper states; distances
    are reported as floats either way, in rational mode correctly rounded.
    The distance must be non-increasing in t, and the sweep asserts that as
    it goes.

    The chain restricted to proper states must be irreducible (see
    `stationary_check`): a reducible one never mixes, and the sweep then
    runs all max_steps before it raises CapExceeded.
    """
    proper_states, Q = _proper_block(P)
    n = len(proper_states)
    assert (np.asarray(Q.sum(axis=1)).ravel() == P.den).all(), \
        "proper states must stay proper"
    if n > TMIX_STATE_CAP:
        raise CapExceeded(f"{n} proper states exceed the mixing-curve cap")

    curve: list[list[float]] = []
    if P.mode == "rational":
        e = Fraction(eps).limit_denominator(10 ** 9)
        cols = _columns(Q)
        N = np.identity(n, dtype=object)
        scale = 1  # den**t
        prev = None
        for t in range(max_steps + 1):
            d = max(np.abs(row * n - scale).sum() for row in N)  # over 2 n scale
            curve.append([t, d / (2 * n * scale)])
            assert prev is None or d <= prev * P.den
            prev = d
            if d * e.denominator <= e.numerator * 2 * n * scale:
                return t, curve
            N = _times(N, cols)
            scale *= P.den
    else:
        QT = sp.csr_matrix((Q.data / P.den, Q.indices, Q.indptr), shape=Q.shape).T.tocsr()
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
