import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from helpers import SRC, run_fresh
from simcol import coupling, oracle
from simcol.cli import _read_coloring, build_parser, main
from simcol.graphs import GEN_MAX_N, ParseError, build_union_line_graph, read_instance

SHARED_EDGE = "simcol 1\nn 2\ng1 1\n1 2\ng2 1\n1 2\n"
TWO_EDGES = "simcol 1\nn 3\ng1 2\n1 2\n2 3\ng2 0\n"
NO_EDGES = "simcol 1\nn 3\ng1 0\ng2 0\n"


def one_error_line(err: str) -> bool:
    lines = err.strip().split("\n")
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.fixture
def instance(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


class TestGen:
    def test_deterministic_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        for out in (a, b):
            assert main(["gen", "--n", "8", "--delta", "3", "--seed", "7",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        read_instance(a.read_text())  # parses back

    def test_summary_lists_sizes(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        main(["gen", "--n", "8", "--delta", "3", "--seed", "7", "--out", str(out)])
        fields = dict(zip(*[iter(capsys.readouterr().out.split())] * 2))
        assert fields["n"] == "8" and int(fields["m"]) > 0
        assert int(fields["delta"]) <= 3

    def test_delta_at_least_n_rejected(self, tmp_path):
        assert main(["gen", "--n", "4", "--delta", "4", "--seed", "1",
                     "--out", str(tmp_path / "x")]) == 1

    def test_n_past_the_cap_exits_before_building_candidates(self, tmp_path, capsys):
        # the candidate array at GEN_MAX_N + 1 would take 36 MB (4.5 million
        # 8-byte codes); the refusal must come before it is built
        out = tmp_path / "x.txt"
        tracemalloc.start()
        try:
            code = main(["gen", "--n", str(GEN_MAX_N + 1), "--delta", "3",
                         "--seed", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2 ** 20
        err = capsys.readouterr().err
        assert len(err.strip().split("\n")) == 1 and err.startswith("cap exceeded: ")
        assert not out.exists()

    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit) as ei:
            main(["gen", "--n", "6", "--delta", "2", "--out", str(tmp_path / "x")])
        assert ei.value.code == 1


class TestSample:
    def test_emits_coloring_json(self, instance, tmp_path, capsys):
        g = instance("inst.txt", TWO_EDGES)
        out = tmp_path / "col.json"
        assert main(["sample", "--graph", g, "--k", "6", "--chain", "flip",
                     "--steps", "200", "--seed", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["k"] == 6 and data["steps"] == 200 and data["seed"] == 3
        assert data["proper"] is True
        rows = {(r["u"], r["v"]): r for r in data["colors"]}
        assert set(rows) == {(1, 2), (2, 3)}
        assert rows[(1, 2)]["in_g1"] and not rows[(1, 2)]["in_g2"]
        assert rows[(1, 2)]["color"] != rows[(2, 3)]["color"]
        assert data["accepted"] == sum(data["accepted_by_size"].values())

    def test_zero_steps_emits_greedy_start(self, instance, tmp_path):
        g = instance("inst.txt", TWO_EDGES)
        out = tmp_path / "c.json"
        main(["sample", "--graph", g, "--k", "6", "--steps", "0", "--seed", "1",
              "--out", str(out)])
        data = json.loads(out.read_text())
        colors = {(r["u"], r["v"]): r["color"] for r in data["colors"]}
        assert colors == {(1, 2): 1, (2, 3): 2}
        assert data["accepted"] == 0

    def test_start_file_roundtrip(self, instance, tmp_path):
        g = instance("inst.txt", TWO_EDGES)
        first = tmp_path / "first.json"
        main(["sample", "--graph", g, "--k", "6", "--steps", "0", "--seed", "1",
              "--out", str(first)])
        second = tmp_path / "second.json"
        assert main(["sample", "--graph", g, "--k", "6", "--steps", "0",
                     "--seed", "2", "--start", str(first),
                     "--out", str(second)]) == 0
        a = json.loads(first.read_text())["colors"]
        b = json.loads(second.read_text())["colors"]
        assert a == b

    @pytest.mark.parametrize("bad_entry, reason", [
        ({"u": 1, "v": 3, "color": 2}, "edge (1, 3) not in instance"),
        ({"u": 2, "v": 3}, "missing key 'color'"),
        ({"u": 2, "v": 3, "color": "red"}, "needs integer"),
        ({"u": 2, "v": 3, "color": 7}, "color 7 outside 1..6"),
    ])
    def test_start_file_error_names_entry(self, instance, tmp_path, capsys,
                                          bad_entry, reason):
        g = instance("inst.txt", TWO_EDGES)
        start = tmp_path / "start.json"
        start.write_text(json.dumps(
            {"k": 6, "colors": [{"u": 1, "v": 2, "color": 1}, bad_entry]}))
        code = main(["sample", "--graph", g, "--k", "6", "--steps", "0",
                     "--seed", "1", "--start", str(start)])
        assert code == 2
        err = capsys.readouterr().err
        assert "colors[1]" in err and reason in err
        assert "line 0" not in err

    @pytest.mark.parametrize("field, value, where", [
        ("k", 6.9, "'k'"),
        ("k", "6", "'k'"),
        ("u", 1.4, "colors[0]"),
        ("color", True, "colors[0]"),
    ])
    def test_start_file_non_integer_is_parse_error(self, instance, tmp_path, capsys,
                                                   field, value, where):
        g = instance("inst.txt", TWO_EDGES)
        data = {"k": 6, "colors": [{"u": 1, "v": 2, "color": 1},
                                   {"u": 2, "v": 3, "color": 2}]}
        if field == "k":
            data["k"] = value
        else:
            data["colors"][0][field] = value
        start = tmp_path / "start.json"
        start.write_text(json.dumps(data))
        out = tmp_path / "c.json"
        assert main(["sample", "--graph", g, "--k", "6", "--steps", "0",
                     "--seed", "1", "--start", str(start), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and where in err and "integer" in err
        assert not out.exists()

    def test_start_file_edge_listed_twice_is_parse_error(self, instance, tmp_path,
                                                        capsys):
        g = instance("inst.txt", TWO_EDGES)
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"k": 6, "colors": [
            {"u": 1, "v": 2, "color": 1}, {"u": 2, "v": 3, "color": 2},
            {"u": 3, "v": 2, "color": 3}]}))
        out = tmp_path / "c.json"
        assert main(["sample", "--graph", g, "--k", "6", "--steps", "0",
                     "--seed", "1", "--start", str(start), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "colors[2]" in err and "edge (2, 3) listed twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, line, message", [
        ('{"k": 6,\n "colors": [}', 2, "Expecting value"),
        ('{"k": 5, "colors": []}', None, "coloring has k=5, expected 6"),
        ('{"k": 6, "colors": {}}', None, "'colors' is not a list"),
        ('{"k": 6, "colors": [{"u": 1, "v": 2, "color": 1}]}', None,
         "no color for edge (2, 3)"),
    ], ids=["json", "k", "list", "uncolored"])
    def test_start_file_refusals(self, instance, tmp_path, capsys, text, line, message):
        g = instance("inst.txt", TWO_EDGES)
        start = instance("start.json", text)
        with pytest.raises(ParseError) as ei:
            _read_coloring(start, build_union_line_graph(read_instance(TWO_EDGES)), 6)
        assert (ei.value.line, ei.value.message) == (line, f"{start}: {message}")
        out = tmp_path / "c.json"
        assert main(["sample", "--graph", g, "--k", "6", "--steps", "0",
                     "--seed", "1", "--start", start, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {ei.value}\n")
        assert not out.exists()

    def test_low_k_warns_but_proceeds(self, instance, tmp_path, capsys):
        g = instance("inst.txt", TWO_EDGES)
        code = main(["sample", "--graph", g, "--k", "3", "--steps", "10",
                     "--seed", "1", "--out", str(tmp_path / "c.json")])
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_greedy_failure_reported(self, instance, tmp_path, capsys):
        tri = ("simcol 1\nn 3\ng1 3\n1 2\n1 3\n2 3\ng2 3\n1 2\n1 3\n2 3\n")
        g = instance("tri.txt", tri)
        code = main(["sample", "--graph", g, "--k", "2", "--steps", "1",
                     "--seed", "1", "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert "greedy" in capsys.readouterr().err

    def test_null_moves_by_reason(self, instance, tmp_path):
        g = instance("inst.txt", TWO_EDGES)
        out = tmp_path / "c.json"
        assert main(["sample", "--graph", g, "--k", "6", "--steps", "300",
                     "--seed", "4", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["accepted"] + data["over_locality"] + data["rejected"] == 300
        assert data["rejected"] > 0

    def test_negative_steps_is_usage_error(self, instance, tmp_path, capsys):
        g = instance("inst.txt", TWO_EDGES)
        out = tmp_path / "c.json"
        with pytest.raises(SystemExit) as ei:
            main(["sample", "--graph", g, "--k", "6", "--steps", "-5",
                  "--seed", "1", "--out", str(out)])
        assert ei.value.code == 1
        assert "--steps" in capsys.readouterr().err
        assert not out.exists()

    def test_singleton_flip_matches_glauber_trajectory(self, instance, tmp_path):
        g = instance("inst.txt", TWO_EDGES)
        fp = tmp_path / "fp.txt"
        fp.write_text("1/1\n")
        outs = []
        for chain, extra in (("glauber", []), ("flip", ["--fp", str(fp)])):
            out = tmp_path / f"{chain}.json"
            main(["sample", "--graph", g, "--k", "6", "--chain", chain,
                  "--steps", "300", "--seed", "11", "--out", str(out)] + extra)
            outs.append(json.loads(out.read_text())["colors"])
        assert outs[0] == outs[1]

    def test_glauber_output_equals_flip_1_from_improper_start(self, instance, tmp_path):
        # both edges hold the one color; proposing an edge its own color
        # is an accepted size-1 flip in both chains, clash or not
        g = instance("inst.txt", TWO_EDGES)
        start = tmp_path / "start.json"
        start.write_text(json.dumps({"k": 1, "colors": [
            {"u": 1, "v": 2, "color": 1}, {"u": 2, "v": 3, "color": 1}]}))
        fp = instance("fp.txt", "1\n")
        outs = []
        for chain, extra in (("glauber", []), ("flip", ["--fp", fp])):
            out = tmp_path / f"{chain}.json"
            assert main(["sample", "--graph", g, "--k", "1", "--chain", chain,
                         "--steps", "40", "--seed", "5", "--start", str(start),
                         "--out", str(out)] + extra) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]
        data = json.loads(outs[0])
        assert (data["accepted"], data["over_locality"], data["rejected"]) == (40, 0, 0)

    def test_fp_with_glauber_is_usage_error(self, instance, tmp_path, capsys):
        g = instance("inst.txt", TWO_EDGES)
        fp = instance("fp.txt", "1\n1/2\n")
        out = tmp_path / "c.json"
        assert main(["sample", "--graph", g, "--k", "6", "--chain", "glauber",
                     "--fp", fp, "--steps", "10", "--seed", "1", "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and one_error_line(err)
        assert err == "error: chain 'glauber' runs at p = (1,), not at 1, 1/2\n"
        assert not out.exists()

    def test_glauber_takes_the_fp_file_holding_1(self, instance, tmp_path):
        g = instance("inst.txt", TWO_EDGES)
        fp = instance("one.txt", "1\n")
        outs = []
        for extra in ([], ["--fp", fp]):
            out = tmp_path / f"c{len(outs)}.json"
            assert main(["sample", "--graph", g, "--k", "6", "--chain", "glauber",
                         "--steps", "300", "--seed", "11", "--out", str(out)] + extra) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_no_edges_is_usage_error(self, instance, capsys):
        g = instance("empty.txt", NO_EDGES)
        assert main(["sample", "--graph", g, "--k", "3", "--steps", "5",
                     "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and one_error_line(err)

    def test_no_edges_zero_steps_emits_empty_coloring(self, instance, capsys):
        g = instance("empty.txt", NO_EDGES)
        assert main(["sample", "--graph", g, "--k", "3", "--steps", "0",
                     "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["colors"] == []


class TestCertify:
    def test_default_parameters_pass(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["certify", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["threshold"] == "1933/325"
        assert rep["below_target"] is True

    def test_violating_parameters_exit_bound_code(self, instance, tmp_path):
        fp = instance("fp.txt", "1/1\n1/2\n1/2\n")
        out = tmp_path / "cert.json"
        assert main(["certify", "--fp", fp, "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep["all_properties_hold"] is False
        bad = rep["properties"]["scaled_mass_nonincreasing"]
        assert not bad["holds"] and {"i": 2} in bad["witnesses"]

    def test_malformed_fp_file_is_parse_error(self, instance):
        fp = instance("fp.txt", "1/1\nnonsense\n")
        assert main(["certify", "--fp", fp]) == 2

    @pytest.mark.parametrize("command", [
        ["certify"],
        ["drift", "--k", "6", "--seed", "1"],
        ["sample", "--k", "6", "--seed", "1"],
        ["oracle", "--k", "3", "--chain", "flip"],
    ], ids=lambda c: c[0])
    def test_zero_denominator_fp_is_parse_error(self, instance, capsys, command):
        fp = instance("fp.txt", "1\n1/0\n")
        if command[0] != "certify":
            command = command + ["--graph", instance("two.txt", TWO_EDGES)]
        assert main(command + ["--fp", fp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "'1/0'" in err
        assert len(err.strip().split("\n")) == 1

    def test_exponent_fp_is_parse_error(self, instance, capsys):
        # the schedule grammar is num/den or num in digits; an exponent
        # would otherwise parse and fail later as a certify run error
        fp = instance("fp.txt", "1\n1e-3\n")
        assert main(["certify", "--fp", fp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "'1e-3'" in err

    def test_fp_past_the_digit_limit_is_parse_error(self, instance, capsys):
        fp = instance("fp.txt", "1\n1/" + "9" * 5000 + "\n")
        assert main(["certify", "--fp", fp]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "'1/" + "9" * 5000 + "'" in err
        assert len(err.strip().split("\n")) == 1

    @pytest.mark.parametrize("schedule, code, digest", [
        (None, 0, "bd186531263d62358797bbaceb156667f14320ba18182aa87f67e5c48acf7f71"),
        ("1\n", 3, "720b97527961894ffbb915366034256e2205f063efa6030ea6731bc2c16ef5cd"),
        ("1\n1/2\n1/2\n", 3,
         "e7876f9d360a6cd81567a776c6dbd40502e616d3214d4b4733eb84b5ef3f81ca"),
        ("1\n1/3\n1/7\n1/11\n", 3,
         "dc0df98ac60733efaf704d86a5afca9db1bafae73412690a191e0e0442149c3f"),
        # p_2 < p_3: the matcher clamps on 402 shapes
        ("1\n1/10\n1/2\n1/2\n", 3,
         "a2f4bd392397b09631dc7a52807ff17aa2c206b43a82a4fc5bf8c761e3f05f22"),
        # D is about 6.0e18, past what an int64 grid holds
        ("1\n1/1000000007\n1/1000000009\n", 3,
         "4bb8f7188b2fe672046b8edf801e8884d94c9c1dbad96a120056cf16a60da4d8"),
    ], ids=["default", "glauber", "violation", "mixed", "clamping", "past_int64"])
    def test_stdout_bytes_pinned(self, instance, capsys, schedule, code, digest):
        # every maximum, maximizer list and verdict of the report, byte for byte
        args = ["certify"]
        if schedule is not None:
            args += ["--fp", instance("fp.txt", schedule)]
        assert main(args) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_schedule_past_size_cap_is_usage_error(self, instance, tmp_path, capsys):
        fp = instance("fp.txt", "1\n1/2\n1/3\n1/4\n1/5\n1/6\n1/7\n")
        out = tmp_path / "cert.json"
        assert main(["certify", "--fp", fp, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert one_error_line(err) and "size cap" in err
        assert not out.exists()


class TestOracleAndCount:
    def test_count_shared_edge(self, instance, capsys):
        g = instance("shared.txt", SHARED_EDGE)
        assert main(["count", "--graph", g, "--k", "5"]) == 0
        assert capsys.readouterr().out.strip() == "5"

    def test_report_keys(self, instance, tmp_path):
        g = instance("two.txt", TWO_EDGES)
        out = tmp_path / "rep.json"
        assert main(["oracle", "--graph", g, "--k", "3", "--chain", "glauber",
                     "--mode", "rational", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == {"count", "uniform_ok", "tv_curve", "tmix"}
        assert rep["count"] == 6 and rep["tmix"] == 6

    def test_fp_with_glauber_is_usage_error(self, instance, tmp_path, capsys):
        g = instance("two.txt", TWO_EDGES)
        fp = instance("fp.txt", "1\n1/2\n")
        out = tmp_path / "rep.json"
        assert main(["oracle", "--graph", g, "--k", "3", "--fp", fp, "--out", str(out)]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and one_error_line(err)
        assert err == "error: chain 'glauber' runs at p = (1,), not at 1, 1/2\n"
        assert not out.exists()

    def test_reducible_chain_exits_bound_without_mixing_sweep(self, tmp_path):
        # the single-site chain is frozen on this instance's g1 triangle at
        # k = 3, so it has no mixing time; the sweep would run 10^5 steps
        tiny = str(tmp_path / "tiny.txt")
        assert main(["gen", "--n", "4", "--delta", "2", "--overlap", "0.5",
                     "--seed", "5", "--out", tiny]) == 0
        out = tmp_path / "rep.json"
        assert main(["oracle", "--graph", tiny, "--k", "3", "--mode", "rational",
                     "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep == {"count": 12, "uniform_ok": False, "tv_curve": [], "tmix": None}

    def test_readme_instance_at_k6(self, tmp_path):
        # the README's example: 600 of 6^4 = 1 296 states proper, swept
        # exactly from one start per color orbit, and in doubles
        tiny = str(tmp_path / "tiny.txt")
        assert main(["gen", "--n", "4", "--delta", "2", "--overlap", "0.5",
                     "--seed", "5", "--out", tiny]) == 0
        rep = {}
        for mode in ("rational", "float"):
            out = tmp_path / f"{mode}.json"
            assert main(["oracle", "--graph", tiny, "--k", "6", "--mode", mode,
                         "--out", str(out)]) == 0
            rep[mode] = json.loads(out.read_text())
        assert rep["rational"]["count"] == 600
        assert rep["rational"]["uniform_ok"] is True
        assert rep["rational"]["tmix"] == rep["float"]["tmix"] == 14

    def test_weighted_path_at_k12_runs_in_both_modes(self, instance, tmp_path):
        # the 4-edge path with two shared edges (delta = 2) at k = 12, in the
        # certified regime: 15 972 proper states in 5 orbits; a loose eps
        # keeps the exact sweep to 3 steps
        g = instance("path.txt", "simcol 1\nn 5\ng1 4\n1 2\n2 3\n3 4\n4 5\ng2 2\n3 4\n4 5\n")
        rep = {}
        for mode in ("float", "rational"):
            out = tmp_path / f"{mode}.json"
            assert main(["oracle", "--graph", g, "--k", "12", "--chain", "flip",
                         "--mode", mode, "--eps", "0.9", "--out", str(out)]) == 0
            rep[mode] = json.loads(out.read_text())
        for r in rep.values():
            assert (r["count"], r["uniform_ok"], r["tmix"]) == (15972, True, 3)

    @pytest.mark.parametrize("mode", ["float", "rational"])
    def test_oracle_on_no_edges_is_usage_error(self, instance, capsys, mode):
        g = instance("empty.txt", NO_EDGES)
        assert main(["oracle", "--graph", g, "--k", "3", "--mode", mode]) == 1
        out, err = capsys.readouterr()
        assert out == "" and one_error_line(err)

    @pytest.mark.parametrize("eps, mode", [("0", "float"), ("1", "float"),
                                           ("-1", "rational")])
    def test_eps_outside_unit_interval_is_usage_error(self, instance, tmp_path,
                                                      capsys, eps, mode):
        # the mixing sweep would never stop below eps = 0 (it ran to the
        # 10^5-step cap in float mode, unbounded in rational mode)
        g = instance("two.txt", TWO_EDGES)
        out = tmp_path / "rep.json"
        assert main(["oracle", "--graph", g, "--k", "3", "--eps", eps,
                     "--mode", mode, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert one_error_line(err) and "eps" in err
        assert not out.exists()

    def test_eps_past_float_resolution_is_usage_error(self, instance, capsys):
        g = instance("two.txt", TWO_EDGES)
        assert main(["oracle", "--graph", g, "--k", "3", "--chain", "flip",
                     "--eps", "1e-300"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and one_error_line(err) and "--mode rational" in err

    def test_count_cap_below_one_is_usage_error(self, instance, capsys):
        g = instance("two.txt", TWO_EDGES)
        with pytest.raises(SystemExit) as ei:
            main(["count", "--graph", g, "--k", "3", "--cap", "-5"])
        assert ei.value.code == 1
        assert "--cap" in capsys.readouterr().err

    def test_count_on_no_edges_is_one(self, instance, capsys):
        g = instance("empty.txt", NO_EDGES)
        assert main(["count", "--graph", g, "--k", "3"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_cap_exit_code(self, instance, tmp_path):
        code = main(["gen", "--n", "10", "--delta", "3", "--seed", "1",
                     "--out", str(tmp_path / "big.txt")])
        assert code == 0
        assert main(["oracle", "--graph", str(tmp_path / "big.txt"),
                     "--k", "4"]) == 4

    def test_single_edge_past_the_kernel_cap_exits_before_building(self, instance,
                                                                   capsys):
        # one edge at k = 2000 has only 2000 states, but the build would walk
        # 4 * 10^6 (state, proposal) pairs; the refusal must come before any
        # array of them exists
        g = instance("shared.txt", SHARED_EDGE)
        tracemalloc.start()
        try:
            code = main(["oracle", "--graph", g, "--k", "2000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 2 ** 20
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("cap exceeded: ")

    def test_rational_sweep_past_its_cap_exits_4(self, instance, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "RATIONAL_SWEEP_CAP", 10 ** 4)
        g = instance("two.txt", TWO_EDGES)
        assert main(["oracle", "--graph", g, "--k", "3", "--chain", "flip",
                     "--mode", "rational", "--eps", "1e-10"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("cap exceeded: ")
        assert "over the rational sweep cap 10000" in err

    def test_count_cap_exit_code(self, instance, tmp_path):
        g = instance("two.txt", TWO_EDGES)
        assert main(["count", "--graph", g, "--k", "100", "--cap", "10"]) == 4

    def test_count_without_recursion_limit(self, instance, capsys):
        # a 2 400-edge path is one component, a path of 2 400 vertices in
        # the union line graph: the backtracking goes 2 400 deep, past
        # Python's default recursion limit, to its 2 proper 2-colorings
        edges = "".join(f"{i} {i + 1}\n" for i in range(1, 2401))
        g = instance("path.txt", f"simcol 1\nn 2401\ng1 2400\n{edges}g2 0\n")
        assert main(["count", "--graph", g, "--k", "2", "--cap", str(10 ** 800)]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_count_multiplies_components(self, instance, capsys):
        # 2 400 disjoint edges are 2 400 components of one vertex each:
        # their product is 2^2400, where leaf-by-leaf counting never ends
        edges = "".join(f"{2 * i - 1} {2 * i}\n" for i in range(1, 2401))
        g = instance("matching.txt", f"simcol 1\nn 4800\ng1 2400\n{edges}g2 0\n")
        assert main(["count", "--graph", g, "--k", "2", "--cap", str(10 ** 800)]) == 0
        assert capsys.readouterr().out == f"{2 ** 2400}\n"

    def test_count_caps_the_components_not_the_product(self, instance, capsys):
        # two perfect matchings on 12 vertices share no endpoint within a
        # graph: 12 isolated conflict vertices, 6^12 colorings, and 12 * 6
        # backtracking leaves, far below the default cap
        g = instance("matchings.txt", "simcol 1\nn 12\n"
                     "g1 6\n1 2\n3 4\n5 6\n7 8\n9 10\n11 12\n"
                     "g2 6\n1 3\n2 4\n5 7\n6 8\n9 11\n10 12\n")
        assert main(["count", "--graph", g, "--k", "6"]) == 0
        assert capsys.readouterr().out == f"{6 ** 12}\n"

    def test_parse_error_exit_code(self, instance):
        g = instance("bad.txt", "not an instance\n")
        assert main(["count", "--graph", g, "--k", "3"]) == 2

    def test_missing_file_is_usage_error(self):
        assert main(["count", "--graph", "/nonexistent/x.txt", "--k", "3"]) == 1


class TestDrift:
    def test_json_and_exit_zero(self, tmp_path):
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "9", "--delta", "3", "--seed", "8",
              "--out", str(g)])
        out = tmp_path / "drift.json"
        assert main(["drift", "--graph", str(g), "--k", "18", "--pairs", "6",
                     "--seed", "2", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["all_bounds_hold"] is True
        assert [r["pair_id"] for r in rep["pairs"]] == list(range(6))
        assert float(rep["beta"]) < 1

    def test_bound_margin_null_when_no_pair_in_scope(self, tmp_path):
        # the one sampled pair has three same-colored neighbors at the
        # disagreement, so no pair is judged and there is no margin
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "10", "--delta", "4", "--overlap", "0.6",
              "--seed", "78", "--out", str(g)])
        out = tmp_path / "drift.json"
        assert main(["drift", "--graph", str(g), "--k", "24", "--pairs", "1",
                     "--seed", "78", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["dc_over_2"] == 1 and rep["pairs"][0]["dc_max"] == 3
        assert rep["bound_margin"] is None
        assert rep["all_bounds_hold"] is True

    @pytest.mark.parametrize("pairs, warned", [(1, True), (3, False)])
    def test_warns_when_no_pair_is_judged(self, tmp_path, capsys, pairs, warned):
        # the first sampled pair has dc_max 3, the second dc_max 1: one pair
        # leaves nothing judged, three judge one
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "6", "--delta", "2", "--overlap", "0.5",
              "--seed", "13", "--out", str(g)])
        capsys.readouterr()
        assert main(["drift", "--graph", str(g), "--k", "6", "--pairs", str(pairs),
                     "--seed", "13"]) == 0
        out, err = capsys.readouterr()
        rep = json.loads(out)
        assert (rep["bound_margin"] is None) == warned
        assert err == ("warning: no bound was checked: 1 of 1 sampled pairs have "
                       "dc_max > 2, outside the drift bound's scope\n" if warned else "")

    def test_csv_header(self, tmp_path, capsys):
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "9", "--delta", "3", "--seed", "8", "--out", str(g)])
        capsys.readouterr()
        assert main(["drift", "--graph", str(g), "--k", "18", "--pairs", "3",
                     "--seed", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == ("pair_id,vstar_weight,exact_drift_num,"
                            "exact_drift_den,bound_num,bound_den,beta,dc_max")
        assert len(lines) == 4

    @pytest.mark.parametrize("schedule, digest", [
        (None, "2a1b54f02ce0c63235ffa5b80bd100ac64c4b2ca34e83ca526835b871f5c652a"),
        ("1\n1/3\n1/7\n1/11\n",
         "7abc6cea79bad84ae13043719979232c03f4d791fd367ea0da4af381a37a9e9a"),
    ])
    def test_csv_bytes_pinned(self, tmp_path, schedule, digest):
        # a mis-scaled flip mass anywhere in the exact drift moves these bytes
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "16", "--delta", "3", "--seed", "8", "--out", str(g)])
        out = tmp_path / "drift.csv"
        args = ["drift", "--graph", str(g), "--k", "18", "--pairs", "10",
                "--seed", "2", "--format", "csv", "--out", str(out)]
        if schedule is not None:
            fp = tmp_path / "fp.txt"
            fp.write_text(schedule)
            args += ["--fp", str(fp)]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_zero_pairs_is_usage_error(self, instance, capsys):
        g = instance("inst.txt", TWO_EDGES)
        with pytest.raises(SystemExit) as ei:
            main(["drift", "--graph", g, "--k", "6", "--pairs", "0", "--seed", "2"])
        assert ei.value.code == 1
        assert "--pairs" in capsys.readouterr().err

    def test_no_edges_is_usage_error(self, instance, capsys):
        g = instance("empty.txt", NO_EDGES)
        assert main(["drift", "--graph", g, "--k", "3", "--pairs", "2",
                     "--seed", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and one_error_line(err)

    def test_schedule_past_size_cap_exits_before_burn_in(self, tmp_path, capsys,
                                                         monkeypatch):
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "9", "--delta", "3", "--seed", "8", "--out", str(g)])
        fp = tmp_path / "fp.txt"
        fp.write_text("1\n1/2\n1/3\n1/4\n1/5\n1/6\n1/7\n")
        capsys.readouterr()

        def no_burn_in(*args):
            raise AssertionError("pairs sampled for a schedule past the size cap")

        monkeypatch.setattr(coupling, "sample_adjacent_pairs", no_burn_in)
        assert main(["drift", "--graph", str(g), "--k", "18", "--pairs", "2",
                     "--seed", "2", "--fp", str(fp)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and one_error_line(err) and "size cap 8" in err

    def test_too_few_colors_is_usage_error(self, tmp_path, capsys):
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "9", "--delta", "3", "--seed", "8", "--out", str(g)])
        assert main(["drift", "--graph", str(g), "--k", "9", "--pairs", "2",
                     "--seed", "2"]) == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1


@pytest.mark.parametrize("command", ["sample", "drift", "oracle", "count"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_k_below_one_is_usage_error(instance, capsys, command, k):
    args = [command, "--graph", instance("two.txt", TWO_EDGES), "--k", k]
    if command in ("sample", "drift"):
        args += ["--seed", "1"]
    with pytest.raises(SystemExit) as ei:
        main(args)
    assert ei.value.code == 1
    out, err = capsys.readouterr()
    errors = [line for line in err.splitlines() if "error:" in line]
    assert out == "" and len(errors) == 1
    assert errors[0].startswith(f"simcol {command}: error: argument --k: ")


@pytest.mark.parametrize("argv, keys", [
    (["gen", "--n", "4", "--delta", "2", "--seed", "1"],
     {"delta", "n", "out", "overlap", "seed"}),
    (["sample", "--graph", "g", "--k", "3", "--seed", "1"],
     {"chain", "fp", "graph", "k", "out", "seed", "start", "steps"}),
    (["drift", "--graph", "g", "--k", "3", "--seed", "1"],
     {"format", "fp", "graph", "k", "out", "pairs", "seed"}),
    (["certify"], {"fp", "out"}),
    (["oracle", "--graph", "g", "--k", "3"],
     {"chain", "eps", "fp", "graph", "k", "mode", "out"}),
    (["count", "--graph", "g", "--k", "3"], {"cap", "graph", "k", "out"}),
], ids=lambda a: a[0] if isinstance(a, list) else None)
def test_each_subcommand_parses_exactly_its_options(argv, keys):
    args = build_parser().parse_args(argv)
    assert set(vars(args)) == keys | {"command", "func"}


# every subcommand in one fresh interpreter, on the README's tiny instance;
# prints which of the heavy modules it loaded
NO_HEAVY_IMPORTS = """
import contextlib, io, json, sys
import simcol
from simcol import cli
runs = [["gen", "--n", "4", "--delta", "2", "--overlap", "0.5", "--seed", "5",
         "--out", "tiny.txt"],
        ["certify"],
        ["sample", "--graph", "tiny.txt", "--k", "6", "--steps", "200", "--seed", "1"],
        ["drift", "--graph", "tiny.txt", "--k", "6", "--pairs", "3", "--seed", "1"],
        ["count", "--graph", "tiny.txt", "--k", "6"],
        ["oracle", "--graph", "tiny.txt", "--k", "5"],
        ["oracle", "--graph", "tiny.txt", "--k", "4", "--mode", "rational"]]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes,
                  "loaded": [m for m in ("scipy", "numpy.ma", "hashlib") if m in sys.modules]}))
"""


def test_no_subcommand_loads_scipy_or_numpy_ma(tmp_path):
    # scipy is a test-only dependency, numpy.ma loads lazily on a first
    # np.unique call, and hashlib loads OpenSSL (+3.5 MB peak RSS): none
    # may ride along on any command
    assert run_fresh(NO_HEAVY_IMPORTS, tmp_path) == {"codes": [0] * 7, "loaded": []}


# gen builds its candidates in an array.array; no other command needs one
NO_ARRAY_IMPORT = """
import contextlib, io, json, sys
import simcol.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = simcol.cli.main(["certify"])
print(json.dumps({"code": code, "array": "array" in sys.modules}))
"""


def test_certify_does_not_load_array(tmp_path):
    assert run_fresh(NO_ARRAY_IMPORT, tmp_path) == {"code": 0, "array": False}


# gen, count and sample on what gen wrote: none needs numpy, and none
# may load it, or a module that does; the simcol modules loaded so far
# are listed after each run
NO_NUMPY = """
import contextlib, io, json, sys
from simcol import cli
runs = [["gen", "--n", "30", "--delta", "3", "--seed", "5", "--out", "g.txt"],
        ["gen", "--n", "4", "--delta", "2", "--seed", "5", "--out", "tiny.txt"],
        ["count", "--graph", "tiny.txt", "--k", "6"],
        ["sample", "--graph", "g.txt", "--k", "12", "--steps", "2000", "--seed", "1"]]
codes, loaded = [], []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
    loaded.append(sorted(m for m in sys.modules if m.startswith("simcol.")))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules, "simcol": loaded}))
"""


def test_gen_and_sample_load_no_numpy(tmp_path):
    base = ["simcol.cli", "simcol.dynamics", "simcol.graphs"]
    assert run_fresh(NO_NUMPY, tmp_path) == {
        "codes": [0, 0, 0, 0], "numpy": False,
        "simcol": [base, base, base, ["simcol._native"] + base]}


@pytest.mark.skipif(shutil.which("cc") is None,
                    reason="no C compiler found: the native chain loop is not built")
def test_sample_without_a_compiler_makes_the_native_walk(tmp_path):
    # one fresh `simcol sample` builds the native loop into its own cache
    # home; the other finds no cc on PATH and runs the Python loop
    g = tmp_path / "g.txt"
    assert main(["gen", "--n", "40", "--delta", "3", "--seed", "2", "--out", str(g)]) == 0
    no_cc = tmp_path / "no-cc"
    no_cc.mkdir()
    argv = [sys.executable, "-m", "simcol.cli", "sample", "--graph", str(g), "--k", "12",
            "--steps", "50000", "--seed", "9"]
    stdout = {}
    for side, path in (("native", os.environ["PATH"]), ("python", str(no_cc))):
        env = {**os.environ, "PATH": path, "XDG_CACHE_HOME": str(tmp_path / side),
               "PYTHONPATH": SRC}
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        stdout[side] = proc.stdout
    assert stdout["native"] == stdout["python"]
    assert json.loads(stdout["python"])["accepted"]
    assert sorted(p.suffix for p in (tmp_path / "native" / "simcol").iterdir()) == [".c", ".so"]
    assert not (tmp_path / "python").exists()


@pytest.mark.parametrize("option", ["--graph", "--fp", "--start"])
def test_a_file_not_in_utf8_is_parse_error(instance, tmp_path, capsys, option):
    # the codec's error is a ValueError, which would exit 1 as a usage error
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("# caf\u00e9\n".encode("latin-1"))
    paths = {"--graph": instance("two.txt", TWO_EDGES), option: str(bad)}
    argv = ["sample", "--k", "6", "--seed", "1", *(a for kv in paths.items() for a in kv)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().split("\n")) == 1
    assert err.startswith(f"parse error: {bad}: 'utf-8' codec can't decode byte 0xe9")


@pytest.mark.parametrize("option", ["--graph", "--fp", "--start", "--out"])
def test_a_directory_given_as_a_file_is_usage_error(instance, tmp_path, capsys, option):
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {"--graph": instance("two.txt", TWO_EDGES), option: str(folder)}
    argv = ["sample", "--k", "6", "--seed", "1", *(a for kv in paths.items() for a in kv)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and one_error_line(err) and str(folder) in err
