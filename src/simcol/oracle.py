"""Ground truth on small instances, on numpy.

Chains become explicit transition matrices over the full product state
space (all assignments, proper or not), through the flip rule of
`dynamics`: Glauber's kernel is the flip chain's at p = (1,).
Each is built once as integers: an int64 sparse matrix (`sparse.Csr`, on
numpy alone) of numerators over one row denominator, one numpy pass over
every state's digits per vertex and block of proposed colors, which the
tests hold equal, entry for entry, to the per-state route through
`alternating_component`.  It has two views, a double-precision sparse
matrix (each entry correctly rounded) and exact rationals, built on
first read; the mode picks which one a caller reads.  On top of the
integers: exact uniform-stationarity verification, reachability checks
by breadth-first passes over the stored arcs, and worst-start
total-variation mixing curves (exact in rational mode, by integer
propagation over powers of the denominator through the same sparse
product as the float curves), swept from one start per
color orbit once the kernel among the proper states is checked to
commute with renaming colors.

All of it is gated by caps on what it costs, the same in both modes,
and raises CapExceeded rather than grinding: these tools exist to
certify the desk-scale claims, not to scale.  The exact proper-coloring count is `graphs.count_proper`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .dynamics import FlipParams
from .graphs import CapExceeded, UnionLineGraph
from .graphs import count_proper  # noqa: F401  perfbench/workloads.py reads it here by name
from .sparse import Csr

# the kernel build walks every (state, proposal) pair, m * k * k^m of them;
# its time and memory grow with that, whatever the shape of the instance
KERNEL_PAIR_CAP = 10 ** 6
# the exact sweep's step t multiplies each of Q's nnz entries into each
# start's column of ints over den**t, a product priced at bits(den**t) +
# RATIONAL_PRODUCT_BITS, so a sweep of T steps costs about the square of T;
# the sum runs at about 1e10 a second on a shared 2-CPU machine, long ints
# or short: 5.3e10 (the flip chain on a 4-edge pair at k = 4, eps 1e-60,
# 1 653 steps) took 4.4-6.3 s, and eps 1e-120 (22 s uncapped) is refused
RATIONAL_SWEEP_CAP = 10 ** 11
# one product's fixed cost in those units: 45-98 ns at up to 112 bits, 434
# ns at 4 111 and 783 ns at 8 192 fit about 0.09 ns a bit plus 60 ns
RATIONAL_PRODUCT_BITS = 640
# a sweep holds a few dense arrays of proper states by orbit starts; at
# k >= 2 an orbit holds at least k states, so 3 000 proper states take at
# most 1 500 starts: 2048 states, all proper in 1024 orbits, take a float
# sweep to an 88 MB peak in 1.3 s on a 2-CPU machine, an exact one to 130
# MB before its price refuses it
TMIX_ENTRY_CAP = 3000 * 1500
# the longest mixing sweep, in steps of the chain
TMIX_MAX_STEPS = 10 ** 5
# float sweeps treat distances within this of each other as equal, and
# reach about 1e-14 on kernels of 6 to 1 512 proper states, never 1e-15;
# an eps below it is refused in float mode
FLOAT_EPS_FLOOR = 1e-12


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

    @cached_property
    def digits(self) -> np.ndarray:
        """The (size, m) table of every state's digits: digits[s, v] is
        vertex v's color minus one in state s."""
        return np.arange(self.size)[:, None] // self.k ** np.arange(self.m) % self.k

    def proper_mask(self, G: UnionLineGraph) -> tuple[bool, ...]:
        ok = np.ones(self.size, dtype=bool)
        for v in range(self.m):
            for w in G.nbrs[v]:
                if w > v:
                    ok &= self.digits[:, v] != self.digits[:, w]
        return tuple(ok.tolist())


class RationalRows(Sequence):
    """num / den as one {target: Fraction} dict per state, built on the
    first read; the oracle's own routines read num."""

    def __init__(self, num: Csr, den: int):
        self.num, self.den = num, den

    @cached_property
    def _rows(self) -> list[dict[int, Fraction]]:
        num, den = self.num, self.den
        indptr, indices, data = num.indptr.tolist(), num.indices.tolist(), num.data.tolist()
        return [{t: Fraction(n, den) for t, n in zip(indices[lo:hi], data[lo:hi])}
                for lo, hi in zip(indptr, indptr[1:])]

    def __len__(self) -> int:
        return self.num.shape[0]

    def __getitem__(self, s):
        return self._rows[s]

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._rows == list(other)

    __hash__ = None


@dataclass(frozen=True)
class TransitionMatrix:
    """One-step kernel over every assignment, proper or not: num / den.

    `num` holds int64 numerators over the single row denominator `den`,
    as a `Csr`.  `rows` is the same kernel in the mode's view: a float
    `Csr` whose entries are num / den, each correctly rounded, or in
    rational mode the `RationalRows` of num / den.
    """

    index: StateIndex
    proper: tuple[bool, ...]
    mode: str
    num: Csr
    den: int
    rows: object

    @property
    def size(self) -> int:
        return self.index.size

    @cached_property
    def _proper_block(self) -> tuple[np.ndarray, Csr]:
        """The proper states and the numerators among them, zeros dropped,
        built once for `stationary_check` and `tv_mixing_time`; ValueError
        if there is no proper state."""
        proper_states = np.flatnonzero(self.proper)
        if not len(proper_states):
            raise ValueError("no proper states at this k")
        return proper_states, self.num.submatrix(proper_states)


def _flip_kernel(G: UnionLineGraph, idx: StateIndex, fp: FlipParams) -> Csr:
    """The flip chain's numerators over m * k * fp.units.den, every state at once.

    Each proposal (v, c) applies the flip rule of `alternating_component`
    to the whole digits table: v's component under strict alternation
    between its color a and c grows one step along G's arcs per round,
    to a fixed point or for `locality` rounds, after which a component
    still growing is past the locality.  Each proposal is worth D =
    fp.units.den; a component of size s moves to the state with a and c
    swapped on it with accept[s] = (p_s / s) * D of that, and the rest
    stays on the diagonal.
    """
    m, k, size = G.m, idx.k, idx.size
    unit, _, accept = fp.units
    # sizes past the locality price 0: their proposals stay
    price = np.zeros(max(m, fp.locality) + 1, dtype=np.int64)
    price[:len(accept)] = accept
    # vertex-major digits, one row per vertex, and a pad row m that holds
    # no color: nbr[w] lists w's neighbors padded with m, so a pad slot
    # never joins a component, and its power is 0
    digits = np.full((m + 1, size), -1)
    digits[:m] = idx.digits.T
    powers = np.append(k ** np.arange(m), 0)
    width = max(map(len, G.nbrs))
    nbr = np.array([list(ns) + [m] * (width - len(ns)) for ns in G.nbrs], dtype=np.intp)
    differ = digits[nbr] != digits[:m, None]  # strict alternation
    states = np.arange(size)

    # the colors of one vertex's proposals go through together, as many as
    # keep a color-by-state array within 10^4 entries: at 2401 states on a
    # 2-CPU machine one color at a time built in about 10 ms, blocks of 2
    # to 7 colors in 8 to 9 ms
    chunk = max(1, 10 ** 4 // size)
    diag = np.zeros(size, dtype=np.int64)
    rows, cols, vals = [], [], []
    for v in range(m):
        a = digits[v]
        # swapping a and c on a component moves each of its a digits by
        # c - a and each c digit by a - c: delta is c - a times the
        # component's place values, signed + at a and - at c
        signed = powers[:, None] * np.where(digits == a, 1, -1)
        for lo in range(0, k, chunk):
            c = np.arange(lo, min(k, lo + chunk))[:, None]
            in_ac = (digits == a) | (digits == c[:, None])
            live = differ & in_ac[:, nbr] & in_ac[:, :m, None]
            comp = np.zeros_like(in_ac)
            comp[:, v] = True
            for _ in range(fp.locality):
                grown = comp.copy()
                grown[:, :m] |= (comp[:, nbr] & live).any(axis=2)
                if (grown == comp).all():
                    break
                comp = grown
            n = price[comp.sum(axis=1)]
            delta = (c - a) * (comp * signed).sum(axis=1)
            moved = (n > 0) & (delta != 0)  # delta is 0 only for c = a
            diag += (unit - np.where(moved, n, 0)).sum(axis=0)
            at = np.broadcast_to(states, moved.shape)[moved]
            rows.append(at)
            cols.append(at + delta[moved])
            vals.append(n[moved])
    rows.append(states[diag > 0])
    cols.append(states[diag > 0])
    vals.append(diag[diag > 0])
    return Csr.from_coo(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                        (size, size))


def build_transition_matrix(G: UnionLineGraph, k: int, kind: str = "glauber",
                            fp: FlipParams | None = None,
                            mode: str = "float") -> TransitionMatrix:
    """The exact one-step kernel of chain `kind` over all k^m assignments.

    The schedule is `FlipParams.for_chain(kind, fp)`: "glauber" is the flip
    chain at p = (1,), and "flip" without fp runs the default schedule.
    """
    fp = FlipParams.for_chain(kind, fp)
    if mode not in ("float", "rational"):
        raise ValueError(f"unknown mode {mode!r}")
    if not G.m:
        raise ValueError("no vertex to propose")
    idx = StateIndex(G.m, k)
    pairs = G.m * k * idx.size
    if pairs > KERNEL_PAIR_CAP:
        raise CapExceeded(f"{pairs} (state, proposal) pairs exceed the kernel cap "
                          f"{KERNEL_PAIR_CAP}")
    den = G.m * k * fp.units.den
    if den * idx.size > np.iinfo(np.int64).max:  # bounds every column sum of num
        raise CapExceeded(f"kernel denominator {den} overflows int64 at {idx.size} states")
    num = _flip_kernel(G, idx, fp)
    assert (num.sum(axis=1) == den).all()
    if mode == "float":
        # each entry the correctly rounded quotient, not num * (1 / den)
        rows = Csr(num.data / den, num.indices, num.indptr, num.shape)
    else:
        rows = RationalRows(num, den)
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


def _reached(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Which of n states a walk from state 0 reaches along the arcs
    src[e] -> dst[e], breadth first: one pass over the arcs per frontier."""
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        step = np.zeros(n, dtype=bool)
        step[dst[frontier[src]]] = True
        frontier = step & ~seen
        seen |= frontier
    return seen


def stationary_check(P: TransitionMatrix) -> StationaryReport:
    """Verify, exactly, that the uniform-on-proper row vector u is a fixed point.

    uP = u iff the proper rows of num sum to den in each proper column and
    to 0 in each improper one; max_error is max |uP - u|.  Also checks
    that proper states only transition to proper states, that they are
    mutually reachable (both directions, so the restriction is irreducible
    as a directed chain), and that every proper state holds a self-loop
    (aperiodicity).
    """
    proper_states, Q = P._proper_block
    n = len(proper_states)
    is_proper = np.asarray(P.proper)
    num = P.num
    top = is_proper[num.row_ids]  # the entries of proper rows
    proper_closed = not num.data[top & ~is_proper[num.indices]].any()
    aperiodic = bool((num.diagonal()[proper_states] > 0).all())
    colsum = np.zeros(P.size, dtype=np.int64)
    np.add.at(colsum, num.indices[top], num.data[top])
    err = int(np.abs(colsum - P.den * is_proper).max())

    forward = _reached(Q.row_ids, Q.indices, n)
    backward = _reached(Q.indices, Q.row_ids, n)
    irreducible = bool(forward.all() and backward.all())
    violating_pair = None
    if not irreducible:
        missing = forward if not forward.all() else backward
        bad = proper_states[np.argmin(missing)]
        violating_pair = (int(proper_states[0]), int(bad))

    return StationaryReport(uniform_ok=err == 0, max_error=err / (n * P.den),
                            proper_closed=proper_closed, irreducible=irreducible,
                            violating_pair=violating_pair, aperiodic=aperiodic)


def _commutes(Q: Csr, perm: np.ndarray) -> bool:
    """Whether Q[perm][:, perm] == Q, Q holding no stored zero: the images
    (perm[s], perm[t]) of Q's entries, sorted, must be Q's own positions,
    and each position must hold the value of the entry mapped onto it."""
    rows, cols, data = Q.row_ids, Q.indices, Q.data
    size = Q.shape[0]
    moved = perm[rows] * size + perm[cols]
    at = np.argsort(moved)  # the entries in the order of their images
    return bool((moved[at] == rows * size + cols).all() and (data[at] == data).all())


def _orbit_starts(P: TransitionMatrix, proper_states: np.ndarray) -> np.ndarray:
    """Positions in proper_states of one start per color orbit, ascending.

    Renaming the colors maps proper states to proper states, and the chain
    to itself, as the proposed color is uniform and the flip rule reads
    colors only through equality; so the starts of one orbit share their
    distance curve, and the orbits' least states hold the worst.  That is
    asserted: the proper mask and the numerators among proper states, the
    only ones the sweep reads, are invariant, exactly, under the
    transposition (1 2) and the cycle (1 2 ... k), which generate every
    renaming.  An orbit's least state reads, from the last vertex (the
    most significant digit) down, as a restricted-growth string: the
    first digit 0, and every digit at most 1 + the largest digit above it.
    """
    idx = P.index
    colors = np.arange(idx.k)
    # at k = 1 both are the identity
    generators = (np.roll(colors, -1), np.r_[colors[1::-1], colors[2:]])
    powers = idx.k ** np.arange(idx.m)
    proper = np.asarray(P.proper)
    _, Q = P._proper_block
    pos = np.cumsum(proper) - 1  # a proper state's position among them
    for g, name in zip(generators, ("the cycle (1 2 ... k)", "the transposition (1 2)")):
        perm = g[idx.digits] @ powers
        assert (proper[perm] == proper).all() and _commutes(Q, pos[perm[proper_states]]), \
            f"renaming the colors by {name} does not map the kernel to itself"
    down = idx.digits[proper_states][:, ::-1]  # from the top vertex down
    above = np.maximum.accumulate(down, axis=1)[:, :-1]
    least = (down[:, 0] == 0) & (down[:, 1:] <= above + 1).all(axis=1)
    return np.flatnonzero(least)


def _check_eps(eps: float, mode: str) -> None:
    if not 0 < eps < 1:
        raise ValueError(f"eps {eps} outside (0, 1)")
    if mode == "float" and eps < FLOAT_EPS_FLOOR:
        raise ValueError(f"eps {eps} is below {FLOAT_EPS_FLOOR}, which a float sweep "
                         "cannot resolve; use --mode rational")


def tv_mixing_time(P: TransitionMatrix, eps: float = 0.25):
    """Least t with worst-start total variation (from proper starts) <= eps.

    Returns (tmix, curve) with curve = [[t, distance], ...] starting at
    t = 0.  One loop serves both modes: each step is one `Csr.dot` of the
    kernel's transpose with the starts' laws, doubles in float mode and
    Python ints in rational mode.  Exact in rational mode, where start
    j's law at time t is column j of an integer matrix N over den**t, so
    its distance is sum_i |n N_ij - den**t| / (2 n den**t) for n proper
    states; distances are reported as floats either way, in rational mode
    correctly rounded.
    The distance must be non-increasing in t, and the sweep asserts that as
    it goes.  It propagates only the starts `_orbit_starts` picks, one per
    color orbit on a kernel asserted to be color-symmetric.

    The chain restricted to proper states must be irreducible (see
    `stationary_check`): a reducible one never mixes, and the sweep then
    runs all TMIX_MAX_STEPS before it raises CapExceeded.  It raises
    CapExceeded before any law exists if the laws would hold more than
    TMIX_ENTRY_CAP entries, and in rational mode before the step that
    takes its summed price past RATIONAL_SWEEP_CAP.  An eps outside
    (0, 1) raises ValueError: the distance in general reaches 0 only in
    the limit, and at 1 or more t = 0 already qualifies.  So does an eps
    below FLOAT_EPS_FLOOR in float mode, which rounding keeps out of reach.
    """
    _check_eps(eps, P.mode)
    proper_states, Q = P._proper_block
    n = len(proper_states)
    assert (Q.sum(axis=1) == P.den).all(), \
        "proper states must stay proper"
    reps = _orbit_starts(P, proper_states)
    r = len(reps)
    if n * r > TMIX_ENTRY_CAP:
        raise CapExceeded(f"{n} proper states by {r} orbit starts exceed the mixing-curve "
                          f"cap of {TMIX_ENTRY_CAP} entries")

    exact = P.mode == "rational"
    QT = (Q if exact else Csr(Q.data / P.den, Q.indices, Q.indptr, Q.shape)).T
    law = np.zeros((n, r), dtype=object if exact else np.float64)
    law[reps, np.arange(r)] = 1
    e = Fraction(eps)  # exactly the float that float mode compares with
    buf = np.empty((n, r))  # |law - 1/n| in float mode, in place each step
    scale = 1  # den**t
    cost = 0  # the exact steps' nnz * starts * (bits(den**t) + fixed), summed
    curve: list[list[float]] = []
    prev = None
    for t in range(TMIX_MAX_STEPS + 1):
        if exact:
            d = max(np.abs(col * n - scale).sum() for col in law.T)  # over 2 n scale
            curve.append([t, d / (2 * n * scale)])
            assert prev is None or d <= prev * P.den
            done = d * e.denominator <= e.numerator * 2 * n * scale
            scale *= P.den
            cost += Q.nnz * r * (scale.bit_length() + RATIONAL_PRODUCT_BITS)
        else:
            np.subtract(law, 1.0 / n, out=buf)
            np.abs(buf, out=buf)
            d = float(0.5 * buf.sum(axis=0).max())
            curve.append([t, d])
            assert prev is None or d <= prev + FLOAT_EPS_FLOOR
            done = d <= eps
        if done:
            return t, curve
        if cost > RATIONAL_SWEEP_CAP:
            raise CapExceeded(f"the exact sweep's next step would take its cost to {cost}, "
                              f"over the rational sweep cap {RATIONAL_SWEEP_CAP}")
        prev = d
        law = QT.dot(law)
    raise CapExceeded(f"no mixing within {TMIX_MAX_STEPS} steps")


def oracle_report(G: UnionLineGraph, k: int, kind: str = "glauber",
                  fp: FlipParams | None = None, eps: float = 0.25,
                  mode: str = "float") -> dict:
    """The JSON-shaped summary: count, stationarity, mixing curve.

    The count is the kernel's proper mask summed.  A reducible chain has
    no mixing time: tmix is None, the curve empty.  eps is checked before
    any work, as `tv_mixing_time` checks it.
    """
    _check_eps(eps, mode)
    P = build_transition_matrix(G, k, kind=kind, fp=fp, mode=mode)
    report = stationary_check(P)
    tmix, curve = tv_mixing_time(P, eps=eps) if report.irreducible else (None, [])
    return {
        "count": sum(P.proper),
        "uniform_ok": bool(report.uniform_ok and report.irreducible
                           and report.proper_closed),
        "tv_curve": curve,
        "tmix": tmix,
    }
