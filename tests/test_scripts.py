"""The experiment runner, scripts/experiments.py: its tables, its JSON
line and its refusals, and the scripts/ directory it keeps small."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from simcol import oracle

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
_spec = importlib.util.spec_from_file_location("experiments", SCRIPTS / "experiments.py")
experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(experiments)


def run_experiment(*args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, str(SCRIPTS / "experiments.py"), *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def table(stdout):
    """The printed table's rows, split on blanks, keyed by their first cell,
    after checking that the JSON last line holds the same rows."""
    *lines, last = stdout.splitlines()
    payload = json.loads(last)
    rows = payload["rows"]
    printed = [line.split() for line in lines[len(lines) - len(rows):]]
    assert lines[:len(lines) - len(rows) - 1] == payload["notes"]
    assert len(printed) == len(rows) and len(payload["columns"]) == len(rows[0])
    for cells, row in zip(printed, rows):
        for text, value in zip(cells, row, strict=True):
            places = len(text.partition(".")[2])
            assert text == ("-" if value is None else f"{float(Fraction(value)):.{places}f}")
    return {cells[0]: cells for cells in printed}


def test_contraction_study_prints_a_k_with_no_pair_in_scope():
    # at k = 8 the one sampled pair has a color at three neighbors of the
    # disagreement, so that row has a dc>2 count and no drift
    proc = run_experiment("contraction_study", "--delta", "2", "--n", "6",
                          "--pairs", "1", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    rows = table(proc.stdout)
    assert list(rows) == [str(k) for k in range(6, 15)]
    assert rows["8"][2:] == ["-", "-", "1"]
    exact = json.loads(proc.stdout.splitlines()[-1])["rows"]
    assert exact[0] == [6, "3/1", "-137/7800", "-137/7800", 0]


@pytest.mark.parametrize("args", [("--k", "3"), ("--k", "3", "--mode", "rational")])
def test_mixing_curves(args):
    proc = run_experiment("mixing_curves", *args)
    assert proc.returncode == 0, proc.stderr
    assert "single-site: tmix(eps=0.25) = 36 steps" in proc.stdout
    assert len(table(proc.stdout)) == 37


@pytest.mark.parametrize("args, code, prefix", [
    # 13^4 states by 4 * 13 proposals is past the kernel cap
    (("mixing_curves", "--k", "13"), 4, "cap exceeded: "),
    (("mixing_curves", "--k", "12", "--eps", "1e-13"), 1, "error: "),
    (("contraction_study", "--delta", "0"), 1, "error: "),
    (("contraction_study", "--pairs", "0"), 1, "error: "),
])
def test_experiments_exit_as_the_cli_does(args, code, prefix):
    proc = run_experiment(*args)
    assert proc.returncode == code and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr


def test_a_refused_eps_builds_no_kernel(monkeypatch, capsys):
    def build(*args, **kwargs):
        raise AssertionError("a kernel was built for a refused eps")

    monkeypatch.setattr(oracle, "build_transition_matrix", build)
    assert experiments.main(["mixing_curves", "--k", "12", "--eps", "1e-13"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: eps 1e-13 is below") and err.count("\n") == 1


def test_mixing_curves_exits_3_when_a_stationarity_check_fails(monkeypatch, capsys):
    # the flip chain's report says its uniform law is not stationary: the
    # table still prints, the notes say which check failed, and the run
    # exits 3 as `simcol oracle` does
    report = experiments.oracle_report

    def failing(G, k, kind, **kwargs):
        return {**report(G, k, kind=kind, **kwargs), "uniform_ok": kind == "glauber"}

    monkeypatch.setattr(experiments, "oracle_report", failing)
    assert experiments.main(["mixing_curves", "--k", "3"]) == 3
    out = capsys.readouterr().out
    assert len(table(out)) == 37
    notes = json.loads(out.splitlines()[-1])["notes"]
    assert notes[1].endswith(", count = 24, uniform_ok = True")
    assert notes[2].endswith(", count = 24, uniform_ok = False")


def test_every_experiment_runs_at_its_smoke_parameters(capsys):
    start = time.perf_counter()
    for name, (fn, smoke) in experiments.EXPERIMENTS.items():
        flags = [arg for key, value in smoke.items() for arg in (f"--{key}", str(value))]
        assert experiments.main([name, *flags]) == 0
        out = capsys.readouterr().out
        table(out)
        payload = json.loads(out.splitlines()[-1])
        assert payload["experiment"] == name and payload["params"] == {
            key: smoke.get(key, param.default)
            for key, param in inspect.signature(fn).parameters.items()}
    assert time.perf_counter() - start < 5


def test_scripts_are_the_runner_and_the_mutation_script():
    names = sorted(p.name for p in SCRIPTS.glob("*.py"))
    assert names == ["experiments.py", "mutants.py"], (
        "a new experiment is a function registered in EXPERIMENTS in "
        "scripts/experiments.py, not a script of its own")
