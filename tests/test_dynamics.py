import dataclasses
import functools
import hashlib
import math
import os
import random
import re
import shutil
import subprocess
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import glauber_step
from simcol import _native
from simcol.coupling import sample_adjacent_pairs
from simcol.dynamics import (Coloring, FlipParams, compute_cluster, flip_step,
                             greedy_coloring, is_proper, run_chain, swap_colors)
from simcol.graphs import GraphPair, build_union_line_graph, random_graph_pair


def line_graph(n, e1, e2=()):
    gp = GraphPair(n, frozenset(map(tuple, e1)), frozenset(map(tuple, e2)))
    return build_union_line_graph(gp)


PATH4 = line_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])


def untemper(y):
    """The MT19937 state word that random.Random tempers into output y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xefc60000
    x = y
    for _ in range(4):
        x = y ^ ((x << 7) & 0x9d2c5680)
    y = x & 0xffffffff
    x = y
    for _ in range(2):
        x = y ^ (x >> 11)
    return x & 0xffffffff


class TestFlipParams:
    def test_default_values(self):
        fp = FlipParams.default()
        assert fp.locality == 6
        assert fp.probs == tuple(Fraction(n, 650) for n in (650, 137, 77, 47, 27, 12))
        assert fp.p(1) == 1 and fp.p(7) == 0 and fp.p(0) == 0

    def test_glauber_special_case(self):
        fp = FlipParams.glauber()
        assert fp.locality == 1 and fp.p(1) == 1 and fp.p(2) == 0

    def test_builtin_schedules_are_built_once(self):
        # run_chain reads one on every call with kind "glauber" or fp None,
        # so its cut table must not be rebuilt per call
        assert FlipParams.default() is FlipParams.default()
        assert FlipParams.glauber() is FlipParams.glauber()
        assert FlipParams.for_chain("glauber") is FlipParams.for_chain("glauber")
        assert FlipParams.for_chain("flip") is FlipParams.for_chain("flip")

    def test_trailing_zeros_trimmed(self):
        fp = FlipParams((Fraction(1), Fraction(1, 3), Fraction(0), Fraction(0)))
        assert fp.locality == 2

    def test_for_chain(self):
        nondyadic = FlipParams((1, Fraction(1, 3)))
        assert FlipParams.for_chain("glauber") == FlipParams.glauber()
        assert FlipParams.for_chain("glauber", FlipParams.glauber()) == FlipParams.glauber()
        with pytest.raises(ValueError, match=r"runs at p = \(1,\), not at 1, 1/3"):
            FlipParams.for_chain("glauber", nondyadic)
        assert FlipParams.for_chain("flip") == FlipParams.default()
        assert FlipParams.for_chain("flip", nondyadic) is nondyadic
        with pytest.raises(ValueError, match="unknown chain kind"):
            FlipParams.for_chain("metropolis")

    def test_p1_must_be_one(self):
        with pytest.raises(ValueError):
            FlipParams((Fraction(1, 2),))

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            FlipParams((Fraction(1), Fraction(3, 2)))

    def test_from_text(self):
        fp = FlipParams.from_text("# comment\n1/1\n137/650\n\n77/650\n")
        assert fp.probs == (Fraction(1), Fraction(137, 650), Fraction(77, 650))

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            FlipParams.from_text("1/1\nnot a number\n")

    @pytest.mark.parametrize("line", ["1e-10000000", "1e-3", "0.5", "-1/2", "+1", "1/-2",
                                      "1_0/20", "1 / 2", "1/2/3", "/2", "1/"])
    def test_from_text_takes_only_digits(self, line):
        # no decimal, exponent or sign: an exponent must not turn into a
        # ten-million-digit denominator before the line is refused
        start = time.perf_counter()
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            FlipParams.from_text(f"1\n{line}\n")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("line", ["1/" + "9" * 5000, "9" * 5000 + "/1"])
    def test_from_text_names_a_line_past_the_digit_limit(self, line):
        with pytest.raises(ValueError, match=re.escape(repr(line)) + ".*digits"):
            FlipParams.from_text(f"1\n{line}\n")

    @pytest.mark.parametrize("fp, den", [
        (FlipParams.default(), 39000),
        (FlipParams.glauber(), 1),
        (FlipParams((1, Fraction(1, 3), Fraction(1, 7), Fraction(1, 11))), 924),
    ])
    def test_units_are_exact_integers(self, fp, den):
        units = fp.units
        assert units.den == den == math.lcm(*(q.denominator for q in fp.accept))
        assert len(units.p) == len(units.accept) == fp.locality + 1
        assert units.p[0] == units.accept[0] == 0
        for s in range(1, fp.locality + 1):
            assert type(units.p[s]) is int and type(units.accept[s]) is int
            assert units.p[s] == fp.p(s) * den
            assert units.accept[s] == fp.p(s) / s * den
        # mass reads p inside the locality and 0 past it, where p stops
        for s in range(1, fp.locality + 34):
            assert type(units.mass(s)) is int
            assert units.mass(s) == fp.p(s) * den

    def test_units_leave_identity_alone(self):
        # two fresh instances: default() hands out one shared instance,
        # whose units an earlier caller may already have read
        a, b = (FlipParams(FlipParams.default().probs) for _ in range(2))
        before = repr(a)
        assert "units" not in vars(b)  # computed on first use, not at construction
        a.units
        assert a == b and hash(a) == hash(b) and repr(a) == before
        assert "units" not in {f.name for f in dataclasses.fields(FlipParams)}


def test_coloring_refuses_a_color_outside_1_to_k():
    with pytest.raises(ValueError, match=r"^vertex 1 holds color 4 outside 1\.\.3$"):
        Coloring(assign=[1, 4], k=3)


class TestGreedy:
    def test_proper_and_first_available(self):
        sigma = greedy_coloring(PATH4, k=3)
        assert is_proper(PATH4, sigma)
        assert sigma.assign[0] == 1  # vertex 0 always takes color 1

    def test_always_succeeds_at_4delta_minus_3(self):
        for seed in range(10):
            gp = random_graph_pair(n=10, delta=3, overlap=0.5, seed=seed)
            G = build_union_line_graph(gp)
            sigma = greedy_coloring(G, k=4 * G.delta - 3)
            assert is_proper(G, sigma)

    def test_raises_when_stuck(self):
        tri = line_graph(3, [(1, 2), (2, 3), (1, 3)], [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError):
            greedy_coloring(tri, k=2)


def random_proper(G, k, seed):
    sigma = greedy_coloring(G, k)
    rng = random.Random(seed)
    for _ in range(20 * G.m):
        glauber_step(G, sigma, rng)
    assert is_proper(G, sigma)
    return sigma


class TestClusters:
    def brute_component(self, G, assign, v, c):
        # connected component of v in the subgraph induced by colors
        # {assign[v], c}; on a proper coloring this is exactly the
        # alternating closure the chain uses
        a = assign[v]
        seen = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in G.nbrs[u]:
                if w not in seen and assign[w] in (a, c):
                    seen.add(w)
                    stack.append(w)
        return seen

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 10 ** 6), st.data())
    def test_cluster_matches_brute_component(self, seed, data):
        gp = random_graph_pair(n=7, delta=3, overlap=0.5, seed=seed)
        G = build_union_line_graph(gp)
        k = 4 * G.delta - 2
        sigma = random_proper(G, k, seed + 1)
        v = data.draw(st.integers(0, G.m - 1))
        c = data.draw(st.integers(1, k))
        cl = compute_cluster(G, sigma, v, c)
        assert cl == frozenset(self.brute_component(G, sigma.assign, v, c))

    def test_improper_growth_alternates_strictly(self):
        # two adjacent vertices sharing a color: the closure steps only
        # into the opposite color, so the clashing neighbor stays out
        sigma = Coloring(assign=[1, 1, 2, 3], k=3)
        cl = compute_cluster(PATH4, sigma, 0, 2)
        assert cl == frozenset({0})

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10 ** 6), st.data())
    def test_flip_is_involutive(self, seed, data):
        gp = random_graph_pair(n=7, delta=3, overlap=0.5, seed=seed)
        G = build_union_line_graph(gp)
        k = 4 * G.delta - 2
        sigma = random_proper(G, k, seed + 2)
        assign = list(sigma.assign)
        v = data.draw(st.integers(0, G.m - 1))
        c = data.draw(st.integers(1, k))
        cl = compute_cluster(G, sigma, v, c)
        swap_colors(sigma.assign, cl, assign[v], c)
        if c != assign[v]:
            # the flipped cluster regrows identically and swaps back
            back = compute_cluster(G, sigma, v, assign[v])
            assert back == cl
            swap_colors(sigma.assign, back, c, assign[v])
        assert sigma.assign == assign

    def test_same_color_cluster_is_seed_only(self):
        sigma = Coloring(assign=[1, 2, 1, 2], k=3)
        cl = compute_cluster(PATH4, sigma, 1, 2)
        assert cl == frozenset({1})


class TestSteps:
    def test_glauber_only_accepts_free_colors(self):
        sigma = Coloring(assign=[1, 2, 1, 2], k=3)

        class Fixed:
            def __init__(self, v, c):
                self.v, self.c = v, c

            def randrange(self, n):
                return self.v if n == PATH4.m else self.c

        # vertex 1 has neighbors colored 1 and 1; proposing color 1 must
        # be rejected, color 3 accepted
        assert not glauber_step(PATH4, sigma, Fixed(1, 0))
        assert sigma.assign[1] == 2
        assert glauber_step(PATH4, sigma, Fixed(1, 2))
        assert sigma.assign[1] == 3

    def test_flip_acceptance_never_draws_on_sure_moves(self):
        # singleton clusters are accepted with p_1/1 = 1 and must not
        # consume a uniform; that is what keeps flip with p = (1, 0, ...)
        # on the same random stream as the single-site chain
        class Strict:
            def __init__(self, v, c):
                self.v, self.c = v, c

            def randrange(self, n):
                return self.v if n == PATH4.m else self.c

            def random(self):  # pragma: no cover - failure path
                raise AssertionError("acceptance uniform drawn for p in {0,1}")

        sigma = Coloring(assign=[1, 3, 2, 1], k=3)
        # vertex 0 toward color 2: neighbor holds 3, so the cluster is {0}
        moved = flip_step(PATH4, sigma, FlipParams.default(), Strict(0, 1))
        assert moved == 1
        assert sigma.assign == [2, 3, 2, 1]

    def test_flip_acceptance_draws_exactly_one_uniform_otherwise(self):
        fp = FlipParams.default()

        class Counted:
            def __init__(self, v, c, u):
                self.v, self.c, self.u = v, c, u
                self.uniforms = 0

            def randrange(self, n):
                return self.v if n == PATH4.m else self.c

            def random(self):
                self.uniforms += 1
                return self.u

        # cluster {0, 1} at acceptance p_2/2 = 137/1300
        accept = Counted(0, 1, 0.0001)
        sigma = Coloring(assign=[1, 2, 3, 1], k=3)
        assert flip_step(PATH4, sigma, fp, accept) == 2
        assert accept.uniforms == 1 and sigma.assign == [2, 1, 3, 1]

        reject = Counted(0, 1, 0.9)
        sigma = Coloring(assign=[1, 2, 3, 1], k=3)
        assert flip_step(PATH4, sigma, fp, reject) == 0
        assert reject.uniforms == 1 and sigma.assign == [1, 2, 3, 1]

    @pytest.mark.parametrize("probs", [
        (1, Fraction(1, 2)),
        (1, Fraction(1, 3)),
        (1, 0, Fraction(1, 5)),
        FlipParams.default().probs,
    ], ids=["half", "third", "zero-p2", "default"])
    def test_acceptance_exact_at_float_boundaries(self, probs):
        # a 7-vertex path colored 1,2,1,2,... on its first s vertices and 3
        # after: the proposal (0, color 2) grows a component of size s, and
        # the drawn uniform sits on or next to the double nearest p_s / s
        fp = FlipParams(probs)
        path7 = line_graph(8, [(i, i + 1) for i in range(1, 8)])

        class Counted:
            def __init__(self, u):
                self.u = u
                self.uniforms = 0

            def randrange(self, n):
                return 0 if n == path7.m else 1

            def random(self):
                self.uniforms += 1
                return self.u

        for s in range(1, fp.locality + 1):
            q = fp.p(s) / s
            near = float(q)
            for u in {0.0, near, math.nextafter(near, 0.0), math.nextafter(near, 1.0)}:
                if not 0.0 <= u < 1.0:
                    continue
                assign = [1 + j % 2 for j in range(s)] + [3] * (7 - s)
                sigma = Coloring(assign=list(assign), k=3)
                rng = Counted(u)
                moved = flip_step(path7, sigma, fp, rng)
                assert rng.uniforms == (1 if 0 < q < 1 else 0), (s, u)
                accepted = q == 1 or (rng.uniforms == 1 and Fraction(u) < q)
                assert moved == (s if accepted else 0), (s, u, q)
                assert (sigma.assign != assign) == accepted, (s, u)
        if fp.probs == (1, Fraction(1, 2)):
            # p_2 / 2 = 1/4 is a double: u = 1/4 rejects, the one below accepts
            for u, want in ((0.25, 0), (math.nextafter(0.25, 0.0), 2)):
                sigma = Coloring(assign=[1, 2, 3, 3, 3, 3, 3], k=3)
                assert flip_step(path7, sigma, fp, Counted(u)) == want

    def test_flip_size_zero_when_cluster_exceeds_locality(self):
        fp = FlipParams.glauber()  # locality 1
        sigma = Coloring(assign=[1, 2, 1, 2], k=3)

        class Fixed:
            def randrange(self, n):
                return 0 if n == PATH4.m else 1  # vertex 0, color 2

            def random(self):  # pragma: no cover
                raise AssertionError("no acceptance draw expected")

        assert flip_step(PATH4, sigma, fp, Fixed()) == 0
        assert sigma.assign == [1, 2, 1, 2]

    def test_trajectory_equivalence_flip_1_vs_glauber(self):
        for seed in (0, 1, 7):
            gp = random_graph_pair(n=9, delta=3, overlap=0.5, seed=seed)
            G = build_union_line_graph(gp)
            k = 4 * G.delta - 2
            a = greedy_coloring(G, k)
            b = a.copy()
            ra, rb = random.Random(99), random.Random(99)
            for _ in range(400):
                glauber_step(G, a, ra)
                flip_step(G, b, FlipParams.glauber(), rb)
                assert a.assign == b.assign
            # and run_chain tallies the same outcomes, a blocked Glauber
            # proposal being a component over locality 1
            assert (run_chain(G, a, 400, random.Random(5), kind="glauber")
                    == run_chain(G, b, 400, random.Random(5), kind="flip",
                                 fp=FlipParams.glauber()))
            assert a.assign == b.assign

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_properness_preserved(self, seed):
        gp = random_graph_pair(n=8, delta=3, overlap=0.5, seed=seed)
        G = build_union_line_graph(gp)
        k = 4 * G.delta - 2
        sigma = greedy_coloring(G, k)
        rng = random.Random(seed)
        for _ in range(60):
            flip_step(G, sigma, FlipParams.default(), rng)
        assert is_proper(G, sigma)


def no_native_loop(monkeypatch):
    """Force the Python loops of run_chain and sample_adjacent_pairs, as
    where no compiler is found."""
    monkeypatch.setattr(_native, "chain_loop", lambda: None)
    monkeypatch.setattr(_native, "pair_sampler", lambda: None)


def native_loop_or_skip():
    if shutil.which("cc") is None:
        pytest.skip("no C compiler found: the native chain loop is not built")
    assert _native.chain_loop() is not None, "cc was found, but the native loop did not build"


class TestRunChain:
    """run_chain on its native loop; TestRunChainFallback reruns every
    test on the Python loop."""

    @pytest.fixture(autouse=True)
    def loop_mode(self):
        native_loop_or_skip()

    def test_stats_shape(self):
        gp = random_graph_pair(n=8, delta=3, overlap=0.5, seed=6)
        G = build_union_line_graph(gp)
        sigma = greedy_coloring(G, 12)
        stats = run_chain(G, sigma, 500, random.Random(0), kind="flip",
                          fp=FlipParams.default())
        assert stats.steps == 500
        assert stats.accepted == sum(stats.flips_by_size.values())
        assert stats.accepted + stats.over_locality + stats.rejected == 500
        assert stats.rejected
        assert all(1 <= s <= 6 for s in stats.flips_by_size)

    @pytest.mark.parametrize("kind, fp", [
        ("glauber", None),
        ("flip", FlipParams.default()),
        ("flip", FlipParams((1, Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)))),
        ("flip", FlipParams((1, 0, Fraction(1, 5)))),
        ("flip", FlipParams.glauber()),
    ], ids=["glauber", "flip-default", "flip-nondyadic", "flip-gap", "flip-1"])
    def test_equals_single_steps(self, kind, fp):
        # run_chain draws v and c through getrandbits itself; it must make
        # the walk, tallies and RNG state of one step function per proposal,
        # also where the rejection draw redraws most (m or k one past a
        # power of two) or never (powers of two, m = 1, k = 1)
        over_locality = 0
        for m in (1, 2, 4, 5, 8, 9, 16, 17):
            # a path in g1, every third edge shared with g2
            e1 = [(i, i + 1) for i in range(1, m + 1)]
            G = line_graph(m + 1, e1, e1[::3])
            for k in (1, 2, 3, 4, 5, 8, 9, 16, 17):
                start = Coloring([v % k + 1 for v in range(G.m)], k)
                a, b = start.copy(), start.copy()
                ra, rb = random.Random(m * 100 + k), random.Random(m * 100 + k)
                stats = run_chain(G, a, 200, ra, kind=kind, fp=fp)
                by_size = {}
                for _ in range(200):
                    s = (glauber_step(G, b, rb) if kind == "glauber"
                         else flip_step(G, b, fp, rb))
                    if s:
                        by_size[s] = by_size.get(s, 0) + 1
                assert a.assign == b.assign, (m, k)
                assert stats.flips_by_size == by_size, (m, k)
                assert stats.accepted == sum(by_size.values())
                assert stats.accepted + stats.over_locality + stats.rejected == 200
                assert ra.getstate() == rb.getstate(), (m, k)
                over_locality += stats.over_locality
        assert over_locality

    def test_glauber_tallies_as_flip_1_from_improper_start(self):
        # at k = 1 every proposal is v's own color with the neighbor
        # holding it too: an accepted size-1 null flip in both chains
        G = line_graph(3, [(1, 2), (2, 3)])
        a, b = Coloring([1, 1], 1), Coloring([1, 1], 1)
        glauber = run_chain(G, a, 1000, random.Random(3), kind="glauber")
        flip_1 = run_chain(G, b, 1000, random.Random(3), kind="flip",
                           fp=FlipParams.glauber())
        assert glauber == flip_1
        assert glauber.flips_by_size == {1: 1000} and glauber.over_locality == 0
        assert a.assign == b.assign == [1, 1]
        assert glauber_step(G, a, random.Random(3)) == 1

    def test_rng_must_draw_integers_through_getrandbits(self):
        class Plain(random.Random):
            pass

        class OwnUniform(random.Random):
            def random(self):
                return super().random()

        a, b = greedy_coloring(PATH4, 3), greedy_coloring(PATH4, 3)
        assert (run_chain(PATH4, a, 100, Plain(3), kind="flip", fp=FlipParams.default())
                == run_chain(PATH4, b, 100, random.Random(3), kind="flip",
                             fp=FlipParams.default()))
        assert a.assign == b.assign
        # OwnUniform's randrange draws through random(), off run_chain's stream
        with pytest.raises(TypeError):
            run_chain(PATH4, a, 1, OwnUniform(3))

    def test_flip_without_fp_runs_default_schedule(self):
        a, b = greedy_coloring(PATH4, 5), greedy_coloring(PATH4, 5)
        assert (run_chain(PATH4, a, 300, random.Random(2), kind="flip")
                == run_chain(PATH4, b, 300, random.Random(2), kind="flip",
                             fp=FlipParams.default()))
        assert a.assign == b.assign

    def test_negative_steps_and_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            run_chain(PATH4, greedy_coloring(PATH4, 3), -5, random.Random(0))
        empty = line_graph(2, [])
        assert run_chain(empty, Coloring([], 3), 0, random.Random(0)).steps == 0
        # getrandbits(0) is always 0, so a draw below m = 0 would never end
        with pytest.raises(ValueError, match="vertex"):
            run_chain(empty, Coloring([], 3), 1, random.Random(0))

    @pytest.mark.parametrize("above, moved", [(0, 2), (1, 0)], ids=["on", "above"])
    def test_uniform_on_the_cut_accepts(self, above, moved):
        # an MT state whose next four outputs propose v = 0 and color 2 on
        # a 7-vertex path, a component of size 2, and then a uniform u on
        # cut[2] (accepted) or one step of 2**-53 above it (rejected)
        fp = FlipParams((1, Fraction(5, 6)))
        n = int(fp.cut[2] * 2 ** 53) + above
        assert n == fp.cut[2] * 2 ** 53 + above  # this cut is a reachable u
        outputs = (0, 1 << 30, (n >> 26) << 5, (n & (2 ** 26 - 1)) << 6)
        version, internal, gauss = random.Random(0).getstate()
        state = (version, (*map(untemper, outputs), *internal[4:624], 0), gauss)
        path7 = line_graph(8, [(i, i + 1) for i in range(1, 8)])
        start = Coloring([1, 2, 3, 3, 3, 3, 3], 3)
        a, b = start.copy(), start.copy()
        ra, rb = random.Random(), random.Random()
        ra.setstate(state)
        rb.setstate(state)
        stats = run_chain(path7, a, 1, ra, kind="flip", fp=fp)
        assert flip_step(path7, b, fp, rb) == moved
        assert stats.flips_by_size == ({2: 1} if moved else {})
        assert stats.rejected == (not moved)
        assert a.assign == b.assign and ra.getstate() == rb.getstate()

    @pytest.mark.parametrize("assign", [[1, 2, 1], [1, 2, 1, 2, 1]])
    def test_coloring_of_another_length_rejected(self, assign):
        with pytest.raises(ValueError, match="the coloring has"):
            run_chain(PATH4, Coloring(assign, 3), 10, random.Random(0))

    @pytest.mark.parametrize("kind, probs, digest, accepted, by_size", [
        ("flip", FlipParams.default().probs,
         "544404bae5524e3e8d9d29309d4aa99a509593f40a9075cd15db6c95b43e437f",
         39327, {1: 38273, 2: 957, 3: 91, 4: 6}),
        ("flip", (1, Fraction(1, 3), Fraction(1, 7), Fraction(1, 11)),
         "bc33ae7ccc5a2281e24578494c2a86a92e8c360e81ec1a74dd6cefdd97497ee0",
         39775, {1: 38127, 2: 1553, 3: 85, 4: 10}),
        ("glauber", None,
         "9640a5894adb3de473c0f56beb92d7298d141320e289e23ccd361a5bd8574807",
         38197, {1: 38197}),
    ], ids=["flip-default", "flip-nondyadic", "glauber"])
    def test_seeded_trajectories_pinned(self, kind, probs, digest, accepted, by_size):
        # the RNG contract end to end: these values were taken from the
        # chains that accepted by comparing the uniform against the exact
        # Fraction p_s / s, so any other acceptance decision, draw order or
        # proposal rule moves the final coloring
        G = build_union_line_graph(random_graph_pair(40, 3, .5, 7))
        sigma = greedy_coloring(G, 18)
        fp = FlipParams(probs) if probs is not None else None
        stats = run_chain(G, sigma, 50_000, random.Random(2024), kind=kind, fp=fp)
        assert hashlib.sha256(bytes(sigma.assign)).hexdigest() == digest
        assert stats.accepted == accepted
        assert stats.flips_by_size == by_size

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            run_chain(PATH4, greedy_coloring(PATH4, 3), 1, random.Random(0),
                      kind="metropolis")

    def test_glauber_refuses_another_schedule(self):
        # the schedule would go unread: refused before any draw or move
        sigma, rng = greedy_coloring(PATH4, 3), random.Random(0)
        start = list(sigma.assign)
        with pytest.raises(ValueError, match="chain 'glauber'"):
            run_chain(PATH4, sigma, 10, rng, kind="glauber", fp=FlipParams.default())
        assert sigma.assign == start
        assert rng.getstate() == random.Random(0).getstate()
        assert run_chain(PATH4, sigma, 10, rng, kind="glauber",
                         fp=FlipParams.glauber()).steps == 10

    def test_rng_overriding_getrandbits_is_drawn_through(self):
        # the native loop would read the MT state directly and bypass the
        # override, so this RNG must take the Python loop
        class OwnBits(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        G = build_union_line_graph(random_graph_pair(12, 3, .5, 4))
        fp = FlipParams.default()
        a, b = greedy_coloring(G, 10), greedy_coloring(G, 10)
        ra, rb = OwnBits(8), random.Random(8)
        stats = run_chain(G, a, 300, ra, kind="flip", fp=fp)
        by_size = {}
        for _ in range(300):
            if s := flip_step(G, b, fp, rb):
                by_size[s] = by_size.get(s, 0) + 1
        assert ra.calls >= 600  # at least one v and one c per proposal
        assert a.assign == b.assign and stats.flips_by_size == by_size
        assert ra.getstate() == rb.getstate()

    @pytest.mark.parametrize("k", [2 ** 31, 2 ** 40])
    def test_colors_past_31_bits_take_the_python_loop(self, k, monkeypatch):
        def refused(*args):  # pragma: no cover - failure path
            raise AssertionError("k >= 2**31 reached the native loop")

        monkeypatch.setattr(_native, "run", refused)
        start = Coloring([1, 2, 1, k], k)
        a, b = start.copy(), start.copy()
        ra, rb = random.Random(k), random.Random(k)
        stats = run_chain(PATH4, a, 50, ra, kind="flip")
        moved = sum(bool(flip_step(PATH4, b, FlipParams.default(), rb)) for _ in range(50))
        assert a.assign == b.assign and stats.accepted == moved
        assert ra.getstate() == rb.getstate()


class TestRunChainFallback(TestRunChain):
    """Every TestRunChain test on the Python loop, forced by the loader."""

    @pytest.fixture(autouse=True)
    def loop_mode(self, monkeypatch):
        no_native_loop(monkeypatch)


class TestNativeLoop:
    @pytest.fixture(autouse=True)
    def native(self):
        native_loop_or_skip()

    def spy(self, monkeypatch) -> list:
        calls, run = [], _native.run

        def counted(*args):
            calls.append(args[3])  # k
            return run(*args)

        monkeypatch.setattr(_native, "run", counted)
        return calls

    @pytest.mark.parametrize("k", [3, 2 ** 31 - 1])
    def test_plain_rngs_take_it(self, k, monkeypatch):
        # k = 2**31 - 1 draws 31 bits, the widest the native loop takes
        class Plain(random.Random):
            pass

        calls = self.spy(monkeypatch)
        start = Coloring([1, 2, 1, 3], k)
        for rng in (random.Random(5), Plain(5)):
            a, b = start.copy(), start.copy()
            stats = run_chain(PATH4, a, 100, rng, kind="flip")
            ref = random.Random(5)
            moved = sum(bool(flip_step(PATH4, b, FlipParams.default(), ref))
                        for _ in range(100))
            assert a.assign == b.assign and stats.accepted == moved
            assert rng.getstate() == ref.getstate()
        assert calls == [k, k]

    @pytest.mark.parametrize("names", [("getrandbits",), ("getrandbits", "random"),
                                       ("getstate",), ("setstate",)], ids="+".join)
    def test_rngs_with_their_own_methods_do_not(self, names, monkeypatch):
        # (an own random() alone, or an own _randbelow, is a TypeError)
        calls = self.spy(monkeypatch)

        def delegate(name):
            method = getattr(random.Random, name)
            return lambda self, *args: method(self, *args)

        Own = type("Own", (random.Random,), {name: delegate(name) for name in names})
        a, b = greedy_coloring(PATH4, 3), greedy_coloring(PATH4, 3)
        run_chain(PATH4, a, 100, Own(2), kind="flip")
        rng = random.Random(2)
        rng.getrandbits = rng.getrandbits  # an instance's own method counts too
        run_chain(PATH4, b, 100, rng, kind="flip")
        assert calls == [] and a.assign == b.assign

    def test_pair_sampler_pairs_equal_on_both_loops(self, monkeypatch):
        # the native pair body against the Python loop: at the certified
        # ratio, at k = 4*delta - 2 where the fewest colors are free, at
        # count = 1, and in calls small enough that the burn-in and the
        # pairs span several of them
        sampler = _native._loaded().simcol_sample_pairs
        cases = [((24, 3, .5, 11), "certified", 6, 401, None),
                 ((40, 3, .5, 9), "certified", 5, 7, None),
                 ((30, 4, .3, 5), "fewest", 7, 12, None),
                 ((12, 2, 1., 3), "fewest", 1, 3, None),
                 ((9, 3, .5, 8), "certified", 1, 0, None),
                 ((24, 3, .5, 11), "certified", 6, 401, 500),
                 ((12, 2, 1., 3), "fewest", 4, 3, 7)]
        for args, ratio, count, seed, call_steps in cases:
            G = build_union_line_graph(random_graph_pair(*args))
            k = math.ceil(Fraction(5948, 1000) * G.delta) if ratio == "certified" \
                else 4 * G.delta - 2
            sides, calls = [], []
            with monkeypatch.context() as patch:
                if call_steps is not None:
                    patch.setattr(_native, "_CALL_STEPS", call_steps)

                def counted(*call):
                    calls.append(call[7] + (call[9] - 1) * call[8])  # proposals
                    return sampler(*call)

                patch.setattr(_native, "pair_sampler",
                              lambda: functools.partial(_native.sample_pairs, counted))
                for forced in (False, True):
                    if forced:
                        no_native_loop(patch)
                    rng = random.Random(seed)
                    pairs = sample_adjacent_pairs(G, k, FlipParams.default(), count, rng)
                    sides.append(([(p.x.assign, p.y.assign, p.vstar) for p in pairs],
                                  rng.getstate()))
            assert sides[0] == sides[1], (args, k, count, call_steps)
            if call_steps is None:
                assert len(calls) == 1
            else:
                assert len(calls) > 2 and max(calls) <= call_steps

    @pytest.mark.parametrize("name", ["shuffle", "randrange"])
    def test_pair_sampler_draws_through_an_rngs_own_method(self, name, monkeypatch):
        # the native pair body would bypass a subclass's own shuffle or
        # randrange, so such an rng takes the Python loop
        def refused(*args):  # pragma: no cover - failure path
            raise AssertionError(f"an rng with its own {name} reached the native pair body")

        method = getattr(random.Random, name)

        def own(self, *args):
            self.calls += 1
            return method(self, *args)

        G = build_union_line_graph(random_graph_pair(12, 3, .5, 4))
        fp = FlipParams.default()
        ref = random.Random(6)
        want = sample_adjacent_pairs(G, 10, fp, 3, ref)
        monkeypatch.setattr(_native, "sample_pairs", refused)
        rng = type("Own", (random.Random,), {name: own, "calls": 0})(6)
        got = sample_adjacent_pairs(G, 10, fp, 3, rng)
        assert [(p.x.assign, p.y.assign, p.vstar) for p in got] == \
            [(p.x.assign, p.y.assign, p.vstar) for p in want]
        assert rng.calls == 3 and rng.getstate() == ref.getstate()

    def native_calls(self, monkeypatch, interrupt_at=None) -> list:
        """The step count of every native call; the call numbered
        interrupt_at (from 1) raises KeyboardInterrupt instead of running."""
        calls, loop = [], _native.chain_loop()
        monkeypatch.setattr(_native, "_CALL_STEPS", 50)

        def counted(*args):
            calls.append(args[5])  # steps
            if len(calls) == interrupt_at:
                raise KeyboardInterrupt
            return loop(*args)

        monkeypatch.setattr(_native, "chain_loop", lambda: counted)
        return calls

    def test_bounded_calls_make_one_walk(self, monkeypatch):
        # three full calls and a remainder on the same buffers: the walk,
        # the tallies summed over the calls and the RNG state of one loop
        calls = self.native_calls(monkeypatch)
        G = build_union_line_graph(random_graph_pair(12, 3, .5, 4))
        a, b = greedy_coloring(G, 8), greedy_coloring(G, 8)
        ra, rb = random.Random(8), random.Random(8)
        stats = run_chain(G, a, 170, ra, kind="flip")
        assert calls == [50, 50, 50, 20]
        no_native_loop(monkeypatch)
        assert stats == run_chain(G, b, 170, rb, kind="flip")
        assert a.assign == b.assign and ra.getstate() == rb.getstate()
        assert stats.rejected and stats.over_locality

    def test_an_interrupt_between_calls_keeps_the_walk_so_far(self, monkeypatch):
        # a step count past int64 goes in calls of 50: nothing is tallied
        # that did not run, and a Ctrl-C before the second call leaves
        # sigma and rng where the first call left them
        calls = self.native_calls(monkeypatch, interrupt_at=2)
        G = build_union_line_graph(random_graph_pair(12, 3, .5, 4))
        a, b = greedy_coloring(G, 8), greedy_coloring(G, 8)
        ra, rb = random.Random(3), random.Random(3)
        with pytest.raises(KeyboardInterrupt):
            run_chain(G, a, 2 ** 64 + 5, ra, kind="flip")
        assert calls == [50, 50]
        no_native_loop(monkeypatch)
        run_chain(G, b, 50, rb, kind="flip")
        assert a.assign == b.assign and ra.getstate() == rb.getstate()

    def test_a_failed_allocation_keeps_the_walk_so_far(self, monkeypatch):
        # the loop returns -1 when it cannot allocate, before it moves
        # anything: run raises MemoryError, and assign and rng stand where
        # the call before the failed one left them
        monkeypatch.setattr(_native, "_CALL_STEPS", 50)
        loop, calls = _native.chain_loop(), []

        def fails_second(*args):
            calls.append(args[5])  # steps
            return -1 if len(calls) == 2 else loop(*args)

        G = build_union_line_graph(random_graph_pair(12, 3, .5, 4))
        fp = FlipParams.default()
        a, b = greedy_coloring(G, 8), greedy_coloring(G, 8)
        ra, rb = random.Random(3), random.Random(3)
        with pytest.raises(MemoryError):
            _native.run(fails_second, G, a.assign, 8, 170, fp.locality, fp.cut, ra)
        assert calls == [50, 50]
        no_native_loop(monkeypatch)
        run_chain(G, b, 50, rb, kind="flip")
        assert a.assign == b.assign and ra.getstate() == rb.getstate()
        assert a.assign != greedy_coloring(G, 8).assign

    def test_the_library_is_loaded_once_per_process(self, monkeypatch):
        # the chain loop, the pair sampler and the generator share one load
        _native._loaded.cache_clear()
        loaded, cdll = [], _native.ctypes.CDLL
        monkeypatch.setattr(_native.ctypes, "CDLL", lambda path: loaded.append(path) or cdll(path))
        assert None not in (_native.chain_loop(), _native.pair_sampler(), _native.generator())
        assert _native.chain_loop() is _native.chain_loop() and len(loaded) == 1

    def test_neighbor_ids_are_checked_before_it_reads_them(self):
        bad = dataclasses.replace(PATH4, nbrs=((1,), (0, 2), (1, 4), (2,)))
        with pytest.raises(ValueError, match="neighbor id"):
            run_chain(bad, Coloring([1, 2, 1, 2], 3), 10, random.Random(0))

    def test_source_compiles_cleanly(self, tmp_path):
        cc = shutil.which("cc")
        done = subprocess.run([cc, "-O2", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
                               "-o", str(tmp_path / "chain.so"), _native.SOURCE],
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_cache_loads_only_a_matching_build(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        build = _native._load
        assert build() is not None
        cache = tmp_path / "simcol"
        names = sorted(p.name for p in cache.iterdir())
        assert len(names) == 2 and names[0].endswith(".c") and names[1].endswith(".so")
        copy, lib = cache / names[0], cache / names[1]
        source = Path(_native.SOURCE).read_bytes()
        assert copy.read_bytes() == source
        built = lib.stat().st_mtime_ns
        assert build() is not None and lib.stat().st_mtime_ns == built  # a hit
        copy.write_bytes(b"/* another source */\n")
        assert build() is not None and lib.stat().st_mtime_ns != built  # rebuilt
        assert copy.read_bytes() == source
        assert sorted(p.name for p in cache.iterdir()) == names  # no temporary left


needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler found: the native chain loop is not built")


class TestNativeBuild:
    """The library's build paths, through the uncached loader `_load`, with
    both cache directories (`$XDG_CACHE_HOME/simcol` and the temp-dir
    fallback) under tmp_path."""

    @pytest.fixture
    def caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path / "tmp"))
        return tmp_path / "xdg" / "simcol", tmp_path / "tmp" / f"simcol-{os.getuid()}"

    @pytest.mark.skipif(os.name != "posix", reason="the native loop is built on POSIX only")
    def test_a_failed_compile_leaves_no_loop_and_no_file(self, caches, tmp_path, monkeypatch):
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        log = tmp_path / "cc.log"
        cc = bin_dir / "cc"
        cc.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\nexit 1\n')
        cc.chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        assert _native._load() is None
        assert len(log.read_text().splitlines()) == 2  # one try per cache directory
        for cache in caches:
            assert list(cache.iterdir()) == []  # its temporary .c and .so removed

    @needs_cc
    def test_a_cache_home_that_is_a_file_falls_back_to_the_temp_dir(self, caches, tmp_path):
        (tmp_path / "xdg").write_text("not a directory\n")
        assert _native._load() is not None
        assert sorted(p.suffix for p in caches[1].iterdir()) == [".c", ".so"]

    @needs_cc
    def test_a_library_that_does_not_load_is_skipped(self, caches, tmp_path, monkeypatch):
        assert _native._load() is not None
        source, library = sorted(caches[0].iterdir())
        # the same names in another cache home: a matching source copy
        # beside a library that is not one
        other = tmp_path / "other" / "simcol"
        other.mkdir(parents=True)
        (other / source.name).write_bytes(source.read_bytes())
        (other / library.name).write_bytes(b"\x7fELF, but no more of it\n")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "other"))
        assert _native._load() is not None
        assert sorted(p.suffix for p in caches[1].iterdir()) == [".c", ".so"]
        assert (other / library.name).read_bytes() == b"\x7fELF, but no more of it\n"

    @needs_cc
    def test_a_cache_home_others_can_write_is_neither_written_nor_loaded(
            self, caches, monkeypatch):
        # a matching source copy beside a library in a directory at mode
        # 0777: another local user could have put both there
        shared = caches[0]
        shared.mkdir(parents=True)
        shared.chmod(0o777)
        assert _native._load() is not None
        assert list(shared.iterdir()) == []
        source, library = sorted(caches[1].iterdir())
        planted = {p.name: p.read_bytes() for p in (source, library)}
        for name, data in planted.items():
            (shared / name).write_bytes(data)
        loaded = []
        cdll = _native.ctypes.CDLL
        monkeypatch.setattr(_native.ctypes, "CDLL", lambda path: loaded.append(path) or cdll(path))
        lib = _native._load()
        assert lib is not None and loaded == [str(library)]
        fn = lib.simcol_run_chain
        assert {p.name: p.read_bytes() for p in shared.iterdir()} == planted
        G = build_union_line_graph(random_graph_pair(12, 3, .5, 4))
        walks = []
        for loop in (fn, None):
            monkeypatch.setattr(_native, "chain_loop", lambda: loop)
            sigma, rng = greedy_coloring(G, 8), random.Random(5)
            run_chain(G, sigma, 2000, rng, kind="flip")
            walks.append((sigma.assign, rng.getstate()))
        assert walks[0] == walks[1]
