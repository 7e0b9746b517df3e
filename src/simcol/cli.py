"""Command line front end.

Subcommands: gen, sample, drift, certify, oracle, count.  Every
randomized command takes an explicit --seed and produces byte-identical
output for identical arguments.

Exit codes: 0 success (and, where applicable, all asserted bounds
hold), 1 usage or arguments a command cannot run on, 2 input file parse
failure, 3 a certified bound or target is violated, 4 a desk-scale cap
was exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .dynamics import Coloring, FlipParams, greedy_coloring, is_proper, run_chain
from .graphs import (DEFAULT_COUNT_CAP, CapExceeded, GraphPair, ParseError,
                     build_union_line_graph, canonical_edge, count_proper,
                     random_graph_pair, read_instance, write_instance)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_BOUND = 3
EXIT_CAP = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2
    for file parse failures, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _at_least(low: int):
    """argparse type: an int no smaller than low."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path}: {exc}") from exc


def _load_graph(path: str) -> GraphPair:
    return read_instance(_read_text(path))


def _load_fp(path: str | None) -> FlipParams:
    if path is None:
        return FlipParams.default()
    text = _read_text(path)
    try:
        return FlipParams.from_text(text)
    except ValueError as exc:
        raise ParseError(None, f"{path}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _coloring_payload(gp: GraphPair, G, sigma: Coloring, seed: int,
                      steps: int) -> dict:
    colors = [{
        "u": e[0],
        "v": e[1],
        "in_g1": e in gp.edges1,
        "in_g2": e in gp.edges2,
        "color": sigma.assign[vid],
    } for vid, e in enumerate(G.verts)]
    return {"k": sigma.k, "colors": colors, "seed": seed, "steps": steps}


def _json_int(value) -> int:
    """value if it is a JSON integer; floats, strings and booleans are not."""
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def _read_coloring(path: str, G, k: int) -> Coloring:
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, f"{path}: {exc.msg}") from exc
    try:
        file_k, entries = _json_int(data["k"]), data["colors"]
    except (KeyError, TypeError) as exc:
        raise ParseError(None, f"{path}: malformed coloring file, needs "
                               f"an integer 'k' and a 'colors' list") from exc
    if file_k != k:
        raise ParseError(None, f"{path}: coloring has k={file_k}, expected {k}")
    if not isinstance(entries, list):
        raise ParseError(None, f"{path}: 'colors' is not a list")
    assign = [0] * G.m
    for i, entry in enumerate(entries):
        where = f"{path}: colors[{i}]"
        try:
            e = canonical_edge(_json_int(entry["u"]), _json_int(entry["v"]))
            color = _json_int(entry["color"])
        except KeyError as exc:
            raise ParseError(None, f"{where}: missing key {exc}") from exc
        except TypeError as exc:
            raise ParseError(None, f"{where}: needs integer 'u', 'v' "
                                   f"and 'color'") from exc
        if e not in G.index:
            raise ParseError(None, f"{where}: edge {e} not in instance")
        if not 1 <= color <= k:
            raise ParseError(None, f"{where}: color {color} outside 1..{k}")
        if assign[G.index[e]]:
            raise ParseError(None, f"{where}: edge {e} listed twice")
        assign[G.index[e]] = color
    if 0 in assign:
        raise ParseError(None, f"{path}: no color for edge {G.verts[assign.index(0)]}")
    return Coloring(assign=assign, k=k)


def cmd_gen(args) -> int:
    gp = random_graph_pair(args.n, args.delta, args.overlap, args.seed)
    text = write_instance(gp)
    summary = (f"n {gp.n}  m {len(gp.edges1 | gp.edges2)}  delta {gp.delta}  "
               f"shared {len(gp.shared_edges)}")
    if args.out is None:
        sys.stdout.write(text)
        sys.stderr.write(summary + "\n")
    else:
        _emit(text, args.out)
        print(summary)
    return EXIT_OK


def cmd_sample(args) -> int:
    gp = _load_graph(args.graph)
    G = build_union_line_graph(gp)
    k = args.k
    if k < 4 * G.delta - 2:
        sys.stderr.write(f"warning: k={k} is below 4*delta-2={4 * G.delta - 2}; "
                         "the sampled chain may not be rapidly mixing\n")
    fp = None if args.fp is None else _load_fp(args.fp)
    sigma = greedy_coloring(G, k) if args.start is None else _read_coloring(args.start, G, k)
    rng = random.Random(args.seed)
    stats = run_chain(G, sigma, args.steps, rng, kind=args.chain, fp=fp)
    payload = _coloring_payload(gp, G, sigma, args.seed, args.steps)
    payload["proper"] = is_proper(G, sigma)
    payload["accepted"] = stats.accepted
    payload["accepted_by_size"] = {
        str(s): stats.flips_by_size[s] for s in sorted(stats.flips_by_size)}
    payload["over_locality"] = stats.over_locality
    payload["rejected"] = stats.rejected
    _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK


def _drift_csv(records) -> str:
    """Drift records in the export schema, one row per pair."""
    lines = ["pair_id,vstar_weight,exact_drift_num,exact_drift_den,"
             "bound_num,bound_den,beta,dc_max"]
    for i, r in enumerate(records):
        lines.append(f"{i},{r.vstar_weight},"
                     f"{r.exact_drift.numerator},{r.exact_drift.denominator},"
                     f"{r.bound.numerator},{r.bound.denominator},"
                     f"{float(r.beta)!r},{r.dc_max}")
    return "\n".join(lines) + "\n"


def cmd_drift(args) -> int:
    from .coupling import estimate_contraction
    gp = _load_graph(args.graph)
    G = build_union_line_graph(gp)
    fp = _load_fp(args.fp)
    summary = estimate_contraction(G, args.k, fp, args.pairs, args.seed)
    if summary.bound_margin is None:
        sys.stderr.write(f"warning: no bound was checked: {summary.dc_over_2} of "
                         f"{len(summary.records)} sampled pairs have dc_max > 2, outside "
                         "the drift bound's scope\n")
    if args.format == "csv":
        _emit(_drift_csv(summary.records), args.out)
    else:
        payload = {
            "k": args.k,
            "pairs": [{
                "pair_id": i,
                "vstar": r.vstar,
                "vstar_weight": r.vstar_weight,
                "exact_drift": str(r.exact_drift),
                "bound": str(r.bound),
                "beta": float(r.beta),
                "dc_max": r.dc_max,
                "clamp_events": r.clamp_events,
            } for i, r in enumerate(summary.records)],
            "max_drift": str(summary.max_drift),
            "mean_drift": float(summary.mean_drift),
            "beta": float(summary.beta),
            "bound_margin": (None if summary.bound_margin is None
                             else str(summary.bound_margin)),
            "dc_over_2": summary.dc_over_2,
            "clamp_events": summary.clamp_events,
            "all_bounds_hold": summary.all_bounds_hold,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return EXIT_OK if summary.all_bounds_hold else EXIT_BOUND


def cmd_certify(args) -> int:
    from .certify import certify_report
    fp = _load_fp(args.fp)
    report = certify_report(fp)
    _emit(json.dumps(report, indent=2), args.out)
    ok = (report["all_properties_hold"] and report["below_target"]
          and all(m["bound_holds"] for m in report["maxima"].values()))
    return EXIT_OK if ok else EXIT_BOUND


def cmd_oracle(args) -> int:
    from .oracle import oracle_report
    gp = _load_graph(args.graph)
    G = build_union_line_graph(gp)
    fp = None if args.fp is None else _load_fp(args.fp)
    report = oracle_report(G, args.k, kind=args.chain, fp=fp,
                           eps=args.eps, mode=args.mode)
    _emit(json.dumps(report, indent=2), args.out)
    return EXIT_OK if report["uniform_ok"] else EXIT_BOUND


def cmd_count(args) -> int:
    gp = _load_graph(args.graph)
    G = build_union_line_graph(gp)
    n = count_proper(G, args.k, cap=args.cap)
    _emit(str(n), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="simcol",
                     description="simultaneous edge coloring samplers and "
                                 "certified contraction checks")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    # options several subcommands share, each defined once in a parent parser
    graph, fp, seed, out = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    graph.add_argument("--graph", required=True)
    graph.add_argument("--k", type=_at_least(1), required=True)
    fp.add_argument("--fp", help="flip probabilities, one num/den per line")
    seed.add_argument("--seed", type=int, required=True)
    out.add_argument("--out")

    p = sub.add_parser("gen", parents=[seed, out],
                       help="generate a random bounded-degree instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--overlap", type=float, default=0.5)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sample", parents=[graph, fp, seed, out],
                       help="run a chain and emit the final coloring")
    p.add_argument("--chain", choices=("glauber", "flip"), default="flip")
    p.add_argument("--steps", type=_at_least(0), default=0)
    p.add_argument("--start", help="initial coloring JSON (default: greedy)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("drift", parents=[graph, fp, seed, out],
                       help="exact coupled drift on sampled adjacent pairs")
    p.add_argument("--pairs", type=_at_least(1), default=100)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_drift)

    p = sub.add_parser("certify", parents=[fp, out],
                       help="verify flip-parameter properties and "
                            "per-branch contraction maxima")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("oracle", parents=[graph, fp, out],
                       help="exact kernel diagnostics on a small instance")
    p.add_argument("--chain", choices=("glauber", "flip"), default="glauber")
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--mode", choices=("float", "rational"), default="float")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("count", parents=[graph, out],
                       help="count proper colorings by backtracking")
    p.add_argument("--cap", type=_at_least(1), default=DEFAULT_COUNT_CAP)
    p.set_defaults(func=cmd_count)

    return parser


def run_command(command) -> int:
    """command()'s exit code, or that of the error it raises, told in one line."""
    try:
        return command()
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        # arguments the command cannot run on (the README's exit-code list
        # names them); a file that is missing, unreadable or a directory
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return EXIT_CAP


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
