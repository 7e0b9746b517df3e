"""Sweep k and watch the one-step contraction of the coupled flip chain.

For each k the script samples adjacent proper pairs on a few random
instances at the requested max degree and reports the worst exact drift
together with the certified per-pair bound.  Pairs where some color sits
at more than two neighbors of the disagreement are outside the
certificate; they are counted in the dc>2 column, and a k where every
pair is such a pair prints no drift.  The certified k is an upper
bound over every shape a neighborhood can take; sampled pairs contract
well below it (on the default instance, seed 1 with m = 21 and
delta = 3, the worst drift is already negative at k = 11, k/delta
about 3.67, against a certified k of 18).

An error exits as in `simcol` (`simcol.cli.run_command`): one line on
stderr, exit 1 for arguments the script cannot run on, 4 past a cap.

Usage: python3 scripts/contraction_study.py --delta 3 --pairs 60
"""

import argparse
import math
import sys
from fractions import Fraction

from simcol.certify import threshold_ratio
from simcol.cli import EXIT_OK, run_command
from simcol.coupling import estimate_contraction
from simcol.dynamics import FlipParams
from simcol.graphs import build_union_line_graph, random_graph_pair


def find_instance(delta, n, seed0):
    seed = seed0
    while True:
        G = build_union_line_graph(random_graph_pair(n, delta, 0.5, seed))
        if G.delta == delta:
            return seed, G
        seed += 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delta", type=int, default=3)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--pairs", type=int, default=60)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    fp = FlipParams.default()
    seed, G = find_instance(args.delta, args.n, args.seed)
    kmin = 4 * G.delta - 2
    kcert = math.ceil(threshold_ratio(fp) * G.delta)
    print(f"instance seed {seed}: m={G.m} delta={G.delta} "
          f"(certified ratio crosses at k={kcert})")
    print(f"{'k':>4} {'k/delta':>8} {'worst drift':>14} {'mean drift':>14} "
          f"{'dc>2':>5}")
    for k in range(kmin, 6 * G.delta + 3):
        records = estimate_contraction(G, k, fp, args.pairs, seed).records
        drifts = [r.exact_drift for r in records if r.dc_max <= 2]
        skipped = len(records) - len(drifts)
        if not drifts:  # every pair has a color at more than two neighbors
            print(f"{k:>4} {k / G.delta:>8.3f} {'-':>14} {'-':>14} {skipped:>5}")
            continue
        worst = max(drifts)
        mean = sum(drifts, Fraction(0)) / len(drifts)
        mark = "  <- contracting" if worst < 0 else ""
        print(f"{k:>4} {k / G.delta:>8.3f} {float(worst):>14.6f} "
              f"{float(mean):>14.6f} {skipped:>5}{mark}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(run_command(main))
