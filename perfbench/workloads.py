"""The four benchmark workloads.

Each workload function takes a Run, sets its inputs up from the run's
seed, times the program on them and checks the outputs.  Times are
wall-clock ``perf_counter`` seconds:

* ``setup_s``: the median over repeats of the workload's set-up.
* ``work_s``: the total time of the workload's timed program calls, the
  time a user waits for its results (see the README per workload).

Program calls go through the module objects (``graphs.random_graph_pair``)
so that the tracer's wrappers are seen when tracing is on.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
import traceback
from fractions import Fraction
from time import perf_counter

from simcol import certify, cli, coupling, dynamics, graphs, oracle
from simcol.dynamics import FlipParams

import checks

SAMPLE_SETUPS = 3

# sample: a bounded-degree pair big enough that the chains' hot loops dominate
SAMPLE_N, SAMPLE_DELTA, SAMPLE_OVERLAP = 300, 4, 0.5
SAMPLE_K = 6 * SAMPLE_DELTA
FLIP_STEPS_PER_S = 40_000       # steps per second of --seconds, run in chunks
GLAUBER_STEPS_PER_S = 200_000
FLIP_CHUNK, GLAUBER_CHUNK = 40_000, 200_000
EQUIVALENCE_STEPS = 20_000

# drift: what `simcol drift` does at the certified ratio
DRIFT_N, DRIFT_DELTA, DRIFT_OVERLAP = 80, 3, 0.5
DRIFT_RATIO = Fraction(5948, 1000)
DRIFT_PAIRS_PER_S = 2
DRIFT_SETUPS = 5

# certify: the default schedule as `--fp` text, and the Glauber schedule
DEFAULT_SCHEDULE = "1\n137/650\n77/650\n47/650\n27/650\n12/650\n"
GLAUBER_SCHEDULE = "1\n"
CERTIFY_BATCH = 200

# oracle: fixed isomorphism classes, relabeled by the seed
FLOAT_TEMPLATE = (4, ((1, 2), (2, 3), (3, 4), (1, 4)), ((1, 2), (2, 3)))
FLOAT_K = 7
SMALL_TEMPLATE = (3, ((1, 2), (2, 3), (1, 3)), ((1, 2), (1, 3)))
SMALL_K = 6
ORACLE_BATCH = 200

SECONDS_PER_ROUND = 10  # certify and oracle repeat one round per 10 s of --seconds


class Run:
    """Counters, checks and metrics of one benchmark run."""

    def __init__(self, seed: int, seconds: int, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}

    def timed(self, fn, *args, **kwargs):
        """Run one program operation; (seconds, result), or (None, None) if it raised."""
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None, None
        return perf_counter() - start, result

    @contextlib.contextmanager
    def labelled(self, label: str):
        """Suffix traced calls of the labelled targets with label."""
        if self.tracer is not None:
            self.tracer.label = label
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.label = None

    def timed_work_done(self) -> None:
        """Stop tracing, so per-layer numbers cover the timed work only."""
        if self.tracer is not None:
            self.tracer.restore()

    def check(self, what: str, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.problems.append(f"{what}: {exc}")

    @property
    def rounds(self) -> int:
        return max(1, self.seconds // SECONDS_PER_ROUND)


def _median(times, what: str) -> float:
    times = [t for t in times if t is not None]
    if not times:
        raise RuntimeError(f"every {what} operation failed")
    return statistics.median(times)


class Setup:
    """A workload's set-up, timed at every call; ``setup_s`` is the median
    time of one set-up.  Set-ups far shorter than the machine's swings are
    timed in batches, and repeated between the timed operations so that the
    median samples the whole run rather than one moment of it."""

    def __init__(self, run: Run, fn, batch: int = 1):
        self.run, self.fn, self.batch = run, fn, batch
        self.times: list[float] = []

    def _batch(self):
        for _ in range(self.batch):
            out = self.fn()
        return out

    def __call__(self):
        dt, out = self.run.timed(self._batch)
        if dt is None:
            raise RuntimeError("a set-up failed")
        self.times.append(dt / self.batch)
        self.run.e2e["setup_s"] = statistics.median(self.times)
        return out


def _chain_phase(run: Run, G, sigma, rng, kind, fp, total, chunk):
    """Advance one chain in fixed chunks; (seconds, accepted, flips by size)."""
    seconds, accepted, by_size = 0.0, 0, {}
    for _ in range(total // chunk):
        with run.labelled(kind):
            dt, stats = run.timed(dynamics.run_chain, G, sigma, chunk, rng, kind=kind, fp=fp)
        if dt is None:
            raise RuntimeError(f"a {kind} chunk failed")
        seconds += dt
        accepted += stats.accepted
        for s, n in stats.flips_by_size.items():
            by_size[s] = by_size.get(s, 0) + n
    return seconds, accepted, by_size


def sample(run: Run) -> None:
    def make():
        gp = graphs.random_graph_pair(SAMPLE_N, SAMPLE_DELTA, SAMPLE_OVERLAP, run.seed)
        G = graphs.build_union_line_graph(gp)
        return gp, G, dynamics.greedy_coloring(G, SAMPLE_K)

    setup = Setup(run, make)
    for _ in range(SAMPLE_SETUPS):
        gp, G, start = setup()
    fp = FlipParams.default()

    flip = start.copy()
    f_s, f_acc, f_sizes = _chain_phase(
        run, G, flip, random.Random(run.seed), "flip", fp,
        FLIP_STEPS_PER_S * run.seconds, FLIP_CHUNK)
    glauber = start.copy()
    g_s, g_acc, g_sizes = _chain_phase(
        run, G, glauber, random.Random(run.seed + 1), "glauber", None,
        GLAUBER_STEPS_PER_S * run.seconds, GLAUBER_CHUNK)
    run.e2e["work_s"] = f_s + g_s
    run.timed_work_done()

    run.check("generated pair", checks.generated_pair, gp, SAMPLE_DELTA, SAMPLE_OVERLAP)
    for what, sigma in (("flip", flip), ("glauber", glauber)):
        run.check(f"{what} final coloring", checks.proper_on_edge_lists,
                  gp, G.verts, sigma.assign, SAMPLE_K)
    run.check("flip tally", checks.chain_tally, f_acc, f_sizes, fp.locality)
    run.check("glauber tally", checks.chain_tally, g_acc, g_sizes, 1)

    # untimed: the flip chain with p = (1,) realizes the Glauber walk
    a, b = start.copy(), start.copy()
    dynamics.run_chain(G, a, EQUIVALENCE_STEPS, random.Random(run.seed + 2),
                       kind="flip", fp=FlipParams.glauber())
    dynamics.run_chain(G, b, EQUIVALENCE_STEPS, random.Random(run.seed + 2), kind="glauber")
    run.check("flip(1) vs glauber", checks.same_coloring, a.assign, b.assign)

    run.layer["graphs.m"] = G.m
    run.layer["dynamics.flip_accepted"] = f_acc
    run.layer["dynamics.glauber_accepted"] = g_acc
    for s, n in f_sizes.items():
        run.layer[f"dynamics.flips_by_size.{s}"] = n


def drift(run: Run) -> None:
    fp = FlipParams.default()
    count = DRIFT_PAIRS_PER_S * run.seconds

    def make():
        gp = graphs.random_graph_pair(DRIFT_N, DRIFT_DELTA, DRIFT_OVERLAP, run.seed)
        G = graphs.build_union_line_graph(gp)
        k = math.ceil(DRIFT_RATIO * G.delta)
        pairs = coupling.sample_adjacent_pairs(G, k, fp, count, random.Random(run.seed))
        return gp, G, k, pairs

    setup = Setup(run, make)
    for _ in range(DRIFT_SETUPS):
        gp, G, k, pairs = setup()
    times, reports = [], []
    for pair in pairs:
        dt, rep = run.timed(coupling.flip_exact_drift, pair, G, k, fp)
        times.append(dt)
        reports.append(rep)
    if None in times:
        raise RuntimeError("an exact-drift call failed")
    run.e2e["work_s"] = sum(times)
    run.timed_work_done()

    run.check("generated pair", checks.generated_pair, gp, DRIFT_DELTA, DRIFT_OVERLAP)
    ratio = checks.weight2_threshold(fp.probs)
    for i, (pair, rep) in enumerate(zip(pairs, reports)):
        for side in (pair.x, pair.y):
            run.check(f"pair {i} coloring", checks.proper_on_edge_lists,
                      gp, G.verts, side.assign, k)
        if rep is not None:
            run.check(f"pair {i} drift", checks.drift_within_bound, rep.exact_drift,
                      rep.dc_max, G.weight[pair.vstar], G.m, k, G.delta, ratio)

    # untimed: the table's marginals are the single-chain laws
    table = coupling.build_flip_coupling_table(pairs[0], G, k, fp)
    adj = checks.line_graph_adjacency(gp, G.verts)
    run.check("pair 0 marginals", checks.marginals_match, table.entries,
              checks.plain_flip_law(adj, pairs[0].x.assign, k, fp.probs),
              checks.plain_flip_law(adj, pairs[0].y.assign, k, fp.probs))

    run.layer["graphs.m"] = G.m
    run.layer["coupling.dc_over_2_pairs"] = sum(r.dc_max > 2 for r in reports if r)


def _certify_cli():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["certify"])
    return code, json.loads(out.getvalue())


def certify_workload(run: Run) -> None:
    # the one input made here is the Glauber schedule the second certificate
    # is for; `simcol certify` builds the default schedule itself
    setup = Setup(run, lambda: FlipParams.from_text(GLAUBER_SCHEDULE), CERTIFY_BATCH)
    glauber_fp = setup()
    default = FlipParams.from_text(DEFAULT_SCHEDULE)
    if default != FlipParams.default():
        run.problems.append("the written-out default schedule parses differently")

    round_times, outputs = [], []
    for _ in range(run.rounds):
        certify.rate_maxima.cache_clear()  # every round starts cold
        dt, out = run.timed(_certify_cli)
        setup()
        dt2, report = run.timed(certify.certify_report, glauber_fp)
        setup()
        round_times.append(None if None in (dt, dt2) else dt + dt2)
        outputs.append((out, report))
    run.e2e["work_s"] = _median(round_times, "certify round")
    run.timed_work_done()

    for i, (out, report) in enumerate(outputs):
        if out is not None:
            code, payload = out
            if code != 0:
                run.problems.append(f"round {i}: simcol certify exited {code}")
            run.check(f"round {i} default certificate", checks.certificate, payload,
                      default.probs, [checks.weight2_threshold(default.probs),
                                      checks.weight1_threshold(default.probs)])
            run.check(f"round {i} default branches", checks.branch_bounds_hold, payload)
        if report is not None:
            # not branch_bounds_hold: w2dc2's closed form 8*p3 = 0 sits below
            # the enumerated 1/2 at this schedule while the threshold is 6
            run.check(f"round {i} Glauber certificate", checks.certificate, report,
                      glauber_fp.probs, [Fraction(6)])


def _relabeled(template, rng: random.Random):
    n, e1, e2 = template
    perm = list(range(1, n + 1))
    rng.shuffle(perm)

    def relabel(edges):
        return frozenset(graphs.canonical_edge(perm[u - 1], perm[v - 1]) for u, v in edges)

    return graphs.GraphPair(n=n, edges1=relabel(e1), edges2=relabel(e2))


def _oracle_path(G, k, fp, mode):
    P = oracle.build_transition_matrix(G, k, kind="flip", fp=fp, mode=mode)
    report = oracle.stationary_check(P)
    tmix, _ = oracle.tv_mixing_time(P)
    return P, report, tmix


def oracle_workload(run: Run) -> None:
    fp = FlipParams.default()

    def make():
        rng = random.Random(run.seed)
        big, small = _relabeled(FLOAT_TEMPLATE, rng), _relabeled(SMALL_TEMPLATE, rng)
        return (big, graphs.build_union_line_graph(big),
                small, graphs.build_union_line_graph(small))

    setup = Setup(run, make, ORACLE_BATCH)
    big, G_big, small, G_small = setup()
    round_times, results = [], []
    for _ in range(run.rounds):
        with run.labelled("float"):
            dt, fl = run.timed(_oracle_path, G_big, FLOAT_K, fp, "float")
        setup()
        with run.labelled("rational"):
            dt2, ra = run.timed(_oracle_path, G_small, SMALL_K, fp, "rational")
        setup()
        round_times.append(None if None in (dt, dt2) else dt + dt2)
        results.append((fl, ra))
    run.e2e["work_s"] = _median(round_times, "oracle round")
    run.timed_work_done()

    # untimed: the float curve on the small instance, and the backtracking count
    _, _, small_float_tmix = _oracle_path(G_small, SMALL_K, fp, "float")
    counts = {"float": checks.brute_force_proper_count(big, FLOAT_K),
              "rational": checks.brute_force_proper_count(small, SMALL_K)}
    backtracked = {"float": oracle.count_proper(G_big, FLOAT_K),
                   "rational": oracle.count_proper(G_small, SMALL_K)}
    for i, pair in enumerate(results):
        for mode, res in zip(("float", "rational"), pair):
            if res is None:
                continue
            P, report, tmix = res
            proper = sum(P.proper)
            if proper != counts[mode] or backtracked[mode] != counts[mode]:
                run.problems.append(f"round {i} {mode}: {proper} proper states, "
                                    f"backtracking {backtracked[mode]}, "
                                    f"brute force {counts[mode]}")
            run.check(f"round {i} {mode} kernel", checks.kernel_rows, P)
            run.check(f"round {i} {mode} stationarity", checks.stationary, report, mode)
            if mode == "rational" and tmix != small_float_tmix:
                run.problems.append(f"round {i}: rational tmix {tmix} != float "
                                    f"tmix {small_float_tmix} on the small instance")
            run.layer[f"oracle.states.{mode}"] = P.size
            run.layer[f"oracle.nnz.{mode}"] = (
                P.rows.nnz if mode == "float" else sum(len(r) for r in P.rows))
            run.layer[f"oracle.proper_states.{mode}"] = proper
            run.layer[f"oracle.tmix_steps.{mode}"] = tmix
    run.layer["graphs.m"] = G_big.m


WORKLOADS = {
    "sample": sample,
    "drift": drift,
    "certify": certify_workload,
    "oracle": oracle_workload,
}
