"""The experiment scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))


def test_contraction_study_prints_a_k_with_no_pair_in_scope():
    # at k = 8 the one sampled pair has a color at three neighbors of the
    # disagreement, so that row has a dc>2 count and no drift
    proc = run_script("contraction_study.py", "--delta", "2", "--n", "6",
                      "--pairs", "1", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[2:]}
    assert list(rows) == [str(k) for k in range(6, 15)]
    assert rows["8"][2:] == ["-", "-", "1"]


@pytest.mark.parametrize("args", [("--k", "3"), ("--k", "3", "--mode", "rational")])
def test_mixing_curves(args):
    proc = run_script("mixing_curves.py", *args)
    assert proc.returncode == 0, proc.stderr
    assert "single-site: tmix(eps=0.25) = 36 steps" in proc.stdout


@pytest.mark.parametrize("script, args, code, prefix", [
    # 13^4 states by 4 * 13 proposals is past the kernel cap
    ("mixing_curves.py", ("--k", "13"), 4, "cap exceeded: "),
    ("mixing_curves.py", ("--k", "6", "--eps", "1e-13"), 1, "error: "),
    ("contraction_study.py", ("--delta", "0"), 1, "error: "),
])
def test_scripts_exit_as_the_cli_does(script, args, code, prefix):
    proc = run_script(script, *args)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr
