import hashlib
import json

import pytest

from simcol.cli import main
from simcol.graphs import read_instance

SHARED_EDGE = "simcol 1\nn 2\ng1 1\n1 2\ng2 1\n1 2\n"
TWO_EDGES = "simcol 1\nn 3\ng1 2\n1 2\n2 3\ng2 0\n"


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

    def test_cap_exit_code(self, instance, tmp_path):
        code = main(["gen", "--n", "10", "--delta", "3", "--seed", "1",
                     "--out", str(tmp_path / "big.txt")])
        assert code == 0
        assert main(["oracle", "--graph", str(tmp_path / "big.txt"),
                     "--k", "4"]) == 4

    def test_count_cap_exit_code(self, instance, tmp_path):
        g = instance("two.txt", TWO_EDGES)
        assert main(["count", "--graph", g, "--k", "100", "--cap", "10"]) == 4

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

    def test_too_few_colors_is_usage_error(self, tmp_path, capsys):
        g = tmp_path / "inst.txt"
        main(["gen", "--n", "9", "--delta", "3", "--seed", "8", "--out", str(g)])
        assert main(["drift", "--graph", str(g), "--k", "9", "--pairs", "2",
                     "--seed", "2"]) == 1


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 1
