"""Run one research experiment and print its table.

Each experiment is a function registered in EXPERIMENTS with its smoke
parameters; its keyword defaults are its flags.  It works through the
library's own entry points, which refuse their arguments before any
work, and returns notes, columns as (name, format spec), rows, and
whether every check it made held.  The runner prints them, then one JSON
line, the last on stdout: experiment, params, commit (null outside a git
checkout), wall_s, notes, columns and rows, exact values as "num/den".
It exits 3 when a check failed, as `simcol oracle` does.  Errors exit as
in `simcol`, through `simcol.cli.run_command`: one stderr line, 1 for
arguments an experiment cannot run on, 4 past a cap.
"""

import inspect
import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from simcol.certify import threshold_ratio
from simcol.cli import EXIT_BOUND, EXIT_OK, _Parser, run_command
from simcol.coupling import estimate_contraction
from simcol.dynamics import FlipParams
from simcol.graphs import GraphPair, build_union_line_graph, random_graph_pair
from simcol.oracle import oracle_report


def mixing_curves(k=6, mode="float", eps=0.25):
    """Exact total-variation mixing curves of both chains on a 4-edge path.

    `oracle_report`'s worst distance to uniform over proper starts after
    each step, single-site and flip chain, on the weighted 4-edge path
    (delta = 2).  k = 12 is the largest k the kernel cap admits, and in
    the certified regime k >= 5.948 * delta.  Each chain's note carries its
    proper-state count and uniform_ok, the exact check that the uniform
    law on proper states is its one stationary law; the run fails when
    either check does.
    """
    G = build_union_line_graph(GraphPair(5, {(1, 2), (2, 3), (3, 4), (4, 5)},
                                         {(3, 4), (4, 5)}))
    notes = [f"path instance: m={G.m} delta={G.delta} k={k} ({k ** G.m} states, {mode} mode)"]
    curves, holds = {}, True
    for label, kind, fp in (("single-site", "glauber", None),
                            ("flip", "flip", FlipParams.default())):
        report = oracle_report(G, k, kind=kind, fp=fp, eps=eps, mode=mode)
        curves[label] = dict(report["tv_curve"])
        notes.append(f"{label}: tmix(eps={eps}) = {report['tmix']} steps, "
                     f"count = {report['count']}, uniform_ok = {report['uniform_ok']}")
        holds = holds and report["uniform_ok"]
    steps = sorted(set().union(*curves.values()))
    rows = [[t, *(curve.get(t) for curve in curves.values())] for t in steps]
    return notes, (("t", "5"), ("single-site", "12.6f"), ("flip", "12.6f")), rows, holds


def contraction_study(delta=3, n=10, pairs=60, seed=1):
    """Sweep k and report the worst exact one-step drift of the flip coupling.

    `estimate_contraction` at each k from 4*delta - 2 to 6*delta + 2, on
    the first instance from seed on with max degree exactly delta.  Worst
    and mean drift cover the judged pairs only: a pair with a color at
    more than two neighbors of the disagreement counts under dc>2, and a
    k with no judged pair shows "-".  The certified k bounds every shape
    a neighborhood can take, so sampled pairs contract well below it.
    """
    fp = FlipParams.default()
    while (G := build_union_line_graph(random_graph_pair(n, delta, 0.5, seed))).delta != delta:
        seed += 1
    rows = []
    for k in range(4 * delta - 2, 6 * delta + 3):
        records = estimate_contraction(G, k, fp, pairs, seed).records
        drifts = [r.exact_drift for r in records if r.dc_max <= 2]
        worst = max(drifts) if drifts else None
        mean = sum(drifts, Fraction(0)) / len(drifts) if drifts else None
        rows.append([k, Fraction(k, delta), worst, mean, len(records) - len(drifts)])
    notes = [f"instance seed {seed}: m={G.m} delta={delta} (certified ratio crosses "
             f"at k={math.ceil(threshold_ratio(fp) * delta)})"]
    return notes, (("k", "4"), ("k/delta", "8.3f"), ("worst drift", "14.6f"),
                   ("mean drift", "14.6f"), ("dc>2", "5")), rows, True


# name -> (experiment, its smoke parameters, which tests/test_scripts.py runs)
EXPERIMENTS = {"mixing_curves": (mixing_curves, {"k": 3}),
               "contraction_study": (contraction_study, {"delta": 2, "n": 6, "pairs": 1})}


def _cell(value, spec: str) -> str:
    """value right-aligned by spec; a name, or "-" for None, by its width alone."""
    if value is None or isinstance(value, str):
        return format("-" if value is None else value, ">" + spec.split(".")[0])
    return format(float(value) if isinstance(value, Fraction) else value, ">" + spec)


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True, cwd=Path(__file__).resolve().parent).stdout.strip()
    except (OSError, subprocess.CalledProcessError):  # no git, or not a checkout
        return None


def _report(name: str, params: dict) -> int:
    start = time.perf_counter()
    notes, columns, rows, holds = EXPERIMENTS[name][0](**params)
    wall_s = time.perf_counter() - start
    names = [col for col, _ in columns]
    table = [" ".join(_cell(v, spec) for v, (_, spec) in zip(row, columns))
             for row in (names, *rows)]
    exact = [[f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v for v in row]
             for row in rows]
    print(*notes, *table, json.dumps({"experiment": name, "params": params, "commit": _commit(),
                                      "wall_s": wall_s, "notes": notes, "columns": names,
                                      "rows": exact}), sep="\n")
    return EXIT_OK if holds else EXIT_BOUND


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="name", required=True, parser_class=_Parser)
    for name, (fn, _) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0], description=fn.__doc__)
        for param in inspect.signature(fn).parameters.values():
            p.add_argument(f"--{param.name}", type=type(param.default), default=param.default)
    params = vars(parser.parse_args(argv))
    name = params.pop("name")
    return run_command(lambda: _report(name, params))


if __name__ == "__main__":
    sys.exit(main())
