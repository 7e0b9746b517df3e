import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simcol
from simcol import _native
from helpers import reference_graph_pair
from simcol.cli import main
from simcol.graphs import (GraphPair, ParseError, UnionLineGraph,
                           build_union_line_graph, canonical_edge,
                           random_graph_pair, read_instance, write_instance)


PEAK_GROWTH = """
from simcol.graphs import random_graph_pair

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status
                    if line.startswith("VmHWM:"))

before = peak()
random_graph_pair(1000, 4, 0.5, 1)
print(peak() - before)
"""


@st.composite
def generator_args(draw):
    """(n, delta, overlap, seed) that random_graph_pair runs on."""
    n = draw(st.integers(2, 60), label="n")
    delta = draw(st.integers(1, min(n - 1, 8)), label="delta")
    overlap = draw(st.floats(0.0, 1.0), label="overlap")
    seed = draw(st.integers(0, 2 ** 32), label="seed")
    return n, delta, overlap, seed


def pair(n, e1, e2):
    return GraphPair(n, frozenset(map(tuple, e1)), frozenset(map(tuple, e2)))


class TestGraphPair:
    def test_shared_edges(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        assert gp.shared_edges == frozenset({(2, 3)})

    def test_delta_is_max_over_both(self):
        gp = pair(4, [(1, 2), (1, 3), (1, 4)], [(2, 3)])
        assert gp.delta == 3

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            pair(3, [(1, 4)], [])

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            pair(3, [(2, 2)], [])

    def test_rejects_no_vertices(self):
        with pytest.raises(ValueError, match="^vertex count must be positive$"):
            pair(0, [], [])


class TestUnionLineGraph:
    def test_vertices_are_sorted_distinct_edges(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        assert G.verts == ((1, 2), (2, 3), (3, 4))
        assert G.m == 3

    def test_weights_flag_shared_edges(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        assert G.weight == (1, 2, 1)

    def test_adjacency_requires_same_source_graph(self):
        # (1,2) in g1 only and (2,3) in g2 only share vertex 2 but never
        # constrain each other
        gp = pair(3, [(1, 2)], [(2, 3)])
        G = build_union_line_graph(gp)
        assert G.nbrs[0] == () and G.nbrs[1] == ()

    def test_shared_edge_connects_through_both(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        G = build_union_line_graph(gp)
        i = G.index[(2, 3)]
        assert set(G.nbrs[i]) == {G.index[(1, 2)], G.index[(3, 4)]}

    def test_degree_bounds_by_weight(self):
        # the largest degree at weight 1 and at weight 2, and the largest
        # neighborhood weight, over the family: each bound in delta - 1 is
        # attained at every delta, so a bound one lower fails here
        for d in range(2, 6):
            bounds = {1: 2 * (d - 1), 2: 4 * (d - 1), "weight": 4 * (d - 1)}
            seen = dict.fromkeys(bounds, 0)
            for seed in range(1, 21):
                for overlap in (0, 0.5, 1):
                    G = build_union_line_graph(random_graph_pair(20, d, overlap, seed))
                    assert G.delta == d
                    for v in range(G.m):
                        w = G.weight[v]
                        seen[w] = max(seen[w], len(G.nbrs[v]))
                        seen["weight"] = max(seen["weight"],
                                             sum(G.weight[u] for u in G.nbrs[v]))
                    G.validate()
            assert seen == bounds

    def test_validate_passes_on_generated(self):
        gp = random_graph_pair(n=8, delta=3, overlap=0.7, seed=5)
        build_union_line_graph(gp).validate()

    @pytest.mark.parametrize("weight, nbrs, message", [
        ((1, 1, 1, 1), ((1, 2, 3), (0,), (0,), (0,)), "weight-1 vertex 0 has degree 3 > 2"),
        ((2, 1, 1, 1, 1, 1), ((1, 2, 3, 4, 5),) + ((0,),) * 5,
         "weight-2 vertex 0 has degree 5 > 4"),
        ((2, 2, 2, 1), ((1, 2, 3), (0,), (0,), (0,)), "vertex 0 neighborhood weight 5 > 4"),
    ])
    def test_validate_refuses_one_past_each_bound(self, weight, nbrs, message):
        verts = tuple((1, i) for i in range(2, len(weight) + 2))
        G = UnionLineGraph(verts=verts, weight=weight, nbrs=nbrs, delta=2)
        with pytest.raises(AssertionError, match=message):
            G.validate()


class TestRandomGraphPair:
    """random_graph_pair on the native body where a C compiler is found;
    TestRandomGraphPairPythonBody reruns its reference tests on the Python
    body."""

    def test_native_body_builds_where_cc_is_found(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler found: the native body is not built")
        assert _native.generator() is not None

    def test_deterministic(self):
        a = random_graph_pair(n=9, delta=3, overlap=0.5, seed=11)
        b = random_graph_pair(n=9, delta=3, overlap=0.5, seed=11)
        assert a == b

    def test_seed_changes_output(self):
        a = random_graph_pair(n=9, delta=3, overlap=0.5, seed=11)
        b = random_graph_pair(n=9, delta=3, overlap=0.5, seed=12)
        assert a != b

    def test_degree_cap_respected(self):
        gp = random_graph_pair(n=12, delta=3, overlap=0.3, seed=2)
        assert gp.delta <= 3

    @pytest.mark.parametrize("n, delta, overlap, message", [
        (1, 1, 0.5, "need at least 2 vertices"),
        (4, 0, 0.5, "delta must be positive"),
        (4, 2, 1.5, "overlap must lie in [0, 1]"),
    ], ids=["n", "delta", "overlap"])
    def test_refuses_arguments_it_cannot_run_on(self, capsys, n, delta, overlap, message):
        with pytest.raises(ValueError) as ei:
            random_graph_pair(n, delta, overlap, 1)
        assert str(ei.value) == message
        assert main(["gen", "--n", str(n), "--delta", str(delta),
                     "--overlap", str(overlap), "--seed", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_overlap_count_exact(self):
        gp = random_graph_pair(n=12, delta=3, overlap=0.5, seed=2)
        assert len(gp.shared_edges) == round(0.5 * len(gp.edges1))


    def test_seeded_edges_pinned(self):
        # sorted edge lists of one larger seeded pair, pinned by digest so
        # that speed work on the generator cannot move seeded instances
        gp = random_graph_pair(n=300, delta=4, overlap=0.5, seed=401)
        e1, e2 = sorted(gp.edges1), sorted(gp.edges2)
        assert (len(e1), len(e2), len(gp.shared_edges)) == (600, 599, 300)
        assert e1[:3] == [(1, 105), (1, 183), (1, 254)]
        assert e2[:3] == [(1, 5), (1, 228), (1, 254)]
        assert hashlib.sha256(repr(e1).encode()).hexdigest() == (
            "c04c08bdae87f361424cdd5743f7174eb60ad812e530ece560c8afd872d7baaa")
        assert hashlib.sha256(repr(e2).encode()).hexdigest() == (
            "12b28c02444a832e6abe5120684779ae57761393df801c4a0e233e97d959537f")

    @settings(max_examples=150, deadline=None)
    @given(generator_args())
    def test_matches_tuple_list_reference(self, args):
        assert random_graph_pair(*args) == reference_graph_pair(*args)

    @pytest.mark.parametrize("n, delta, overlap, seed", [
        (300, 4, 0.5, 401), (300, 8, 0.0, 7), (300, 1, 1.0, 3), (1000, 4, 0.5, 1),
    ])
    def test_matches_reference_at_scale(self, n, delta, overlap, seed):
        assert (random_graph_pair(n, delta, overlap, seed)
                == reference_graph_pair(n, delta, overlap, seed))

    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="reads the peak resident set from /proc")
    def test_peak_memory_is_linear_in_candidates(self):
        # n = 1000 has 499 500 candidates: 4 MiB as 8-byte codes, tens of
        # MiB as (u, v) tuples.  tracemalloc would slow the shuffle, which
        # allocates on every draw, about fortyfold, so the peak is read as
        # VmHWM in a fresh process.  A fresh address space starts its own
        # VmHWM, where ru_maxrss would carry over this process's peak.
        env = {**os.environ, "PYTHONPATH": str(Path(simcol.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", PEAK_GROWTH], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        assert int(proc.stdout) < 8 * 2 ** 20


class TestRandomGraphPairPythonBody:
    """The reference tests on the Python body, as where no compiler is found."""

    @pytest.fixture(autouse=True)
    def python_body(self, monkeypatch):
        monkeypatch.setattr(_native, "generator", lambda: None)

    test_seeded_edges_pinned = TestRandomGraphPair.test_seeded_edges_pinned
    test_matches_reference_at_scale = TestRandomGraphPair.test_matches_reference_at_scale

    # its own @given test: hypothesis refuses one test method run from two classes
    @settings(max_examples=150, deadline=None)
    @given(generator_args())
    def test_matches_tuple_list_reference(self, args):
        assert random_graph_pair(*args) == reference_graph_pair(*args)


class TestInstanceFormat:
    def test_roundtrip(self):
        gp = pair(4, [(1, 2), (2, 3)], [(2, 3), (3, 4)])
        assert read_instance(write_instance(gp)) == gp

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\nsimcol 1\n\nn 3\ng1 1\n2 3\n# trailing\ng2 0\n"
        gp = read_instance(text)
        assert gp.edges1 == frozenset({(2, 3)})

    def test_edges_canonicalized(self):
        text = "simcol 1\nn 3\ng1 1\n3 1\ng2 0\n"
        assert read_instance(text).edges1 == frozenset({(1, 3)})

    def test_parse_error_carries_line_number(self):
        text = "simcol 1\nn 3\ng1 2\n1 2\nbogus line\ng2 0\n"
        with pytest.raises(ParseError) as ei:
            read_instance(text)
        assert ei.value.line == 5

    def test_bad_header_is_line_one(self):
        with pytest.raises(ParseError) as ei:
            read_instance("nope\n")
        assert ei.value.line == 1

    @pytest.mark.parametrize("text, line", [
        ("simcol 1\nn \u00b2\ng1 0\ng2 0\n", 2),
        ("simcol 1\nn 3\ng1 \u00b2\ng2 0\n", 3),
    ], ids=["n", "g1"])
    def test_superscript_count_is_parse_error(self, text, line):
        # str.isdigit accepts a superscript two, which int() then rejects
        with pytest.raises(ParseError) as ei:
            read_instance(text)
        assert ei.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ("simcol 1\nn 3\ng1 2\n1 2\n", 5,
         "unexpected end of file, expected edge line under g1"),
        ("simcol 1\nn 3\ng1 1\n1 2 3\ng2 0\n", 4, "expected 'u v', got 3 tokens"),
        ("simcol 1\nn 3\ng1 1\n1 4\ng2 0\n", 4, "vertex out of range 1..3"),
        ("simcol 1\nn 3\ng1 1\n2 2\ng2 0\n", 4, "self-loops are not allowed"),
        ("simcol 1\nn 3\ng1 0\ng2 2\n1 2\n2 1\n", 6, "duplicate edge 1 2 under g2"),
        ("simcol 1\nn 3\ng1 0\ng2 0\n\n# note\n1 2\n", 7,
         "trailing content after g2 block"),
    ], ids=["eof", "tokens", "range", "loop", "duplicate", "trailing"])
    def test_each_refusal_names_its_line(self, tmp_path, capsys, text, line, message):
        with pytest.raises(ParseError) as ei:
            read_instance(text)
        assert (ei.value.line, ei.value.message) == (line, message)
        graph = tmp_path / "bad.txt"
        graph.write_text(text)
        assert main(["count", "--graph", str(graph), "--k", "3"]) == 2
        assert capsys.readouterr() == ("", f"parse error: line {line}: {message}\n")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_roundtrip_random(self, seed):
        gp = random_graph_pair(n=8, delta=3, overlap=0.5, seed=seed)
        assert read_instance(write_instance(gp)) == gp


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)
