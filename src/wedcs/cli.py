"""Command-line front end: gen / build / stream / verify.

Exit codes: 0 success, 1 guarantee-check failure, 2 input error.
Verbosity comes from the EDCS_LOG environment variable (debug/info/...).
All randomness flows from explicit --seeds values; `stream` refuses to run
without them so results always replay.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import functools
import json
import logging
import os
import sys
from fractions import Fraction

from .edcs import EdcsParams, _checked_epsilon, build_wb_edcs, parameters_for, validate
from .generators import GenSpec, multicopy_instance, random_instance, tight_instance
from .graph import Capacities, MultiGraph, Subgraph, _pair_caps, _reject_crowded
from .graph_io import (GraphFormatError, match_subgraph_edges, read_graph, write_graph,
                       write_subgraph)
from .matching import DEFAULT_ORACLE_BUDGET, OracleBudgetExceeded, max_weight_b_matching_exact
from .streaming import file_order_stream, make_stream, run_with_fallbacks

log = logging.getLogger("wedcs")

EXIT_OK = 0
EXIT_GUARANTEE = 1
EXIT_INPUT = 2


class InputError(ValueError):
    """Bad command input; :func:`main` reports it as any ``ValueError``."""


def _configure_logging() -> None:
    # a logging attribute that is not an int (BASIC_FORMAT, say) names no level
    level = getattr(logging, os.environ.get("EDCS_LOG", "warning").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


def _params_from_args(args, graph_W: int) -> EdcsParams:
    W = graph_W
    if getattr(args, "W", None) is not None:
        if args.W < graph_W:
            raise InputError(f"--W {args.W} is below the graph's weight cap {graph_W}")
        W = args.W
    if getattr(args, "theorem_params", False):
        if args.epsilon is None:
            raise InputError("--theorem-params requires --epsilon")
        return parameters_for(args.epsilon, W)
    if args.beta is None:
        raise InputError("give --beta (with optional --beta-minus) or --theorem-params")
    beta_minus = args.beta_minus if args.beta_minus is not None else args.beta - 2
    epsilon = _checked_epsilon(args.epsilon) if args.epsilon is not None else None
    return EdcsParams(W=W, beta=args.beta, beta_minus=beta_minus, epsilon=epsilon)


def _load_graph(path: str) -> tuple[MultiGraph, Capacities]:
    try:
        return read_graph(path)
    except (OSError, GraphFormatError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", help="approximation slack, e.g. 0.1 or 1/10")
    p.add_argument("--W", type=int,
                   help="weight cap for parameter derivation (defaults to the graph's)")
    p.add_argument("--beta", type=int, help="practical-mode beta")
    p.add_argument("--beta-minus", type=int, help="defaults to beta - 2")
    p.add_argument("--theorem-params", action="store_true",
                   help="derive (beta, beta_minus) from --epsilon and the weight cap")


def cmd_gen(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = GenSpec.from_json_dict(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"{args.spec}: {exc}") from exc

    reference = None
    if spec.kind == "random":
        graph, caps = random_instance(spec)
    elif spec.kind == "tight":
        inst = tight_instance(k=spec.k, W=spec.W, beta_minus=spec.beta_minus)
        graph, caps, reference = inst.graph, inst.capacities, inst.edcs
    else:
        inst = multicopy_instance(k=spec.k or 1, W=spec.W)
        graph, caps, reference = inst.graph, inst.capacities, inst.union_edcs
    write_graph(args.out, graph, caps)
    log.info("wrote %s (%s)", args.out, graph)
    if args.ref_out:
        if reference is None:
            raise InputError("--ref-out only applies to tight/multicopy specs")
        write_subgraph(args.ref_out, reference, caps)
    return EXIT_OK


def cmd_build(args) -> int:
    graph, caps = _load_graph(args.graph)
    params = _params_from_args(args, graph.W)
    H, trace = build_wb_edcs(graph, caps, params)
    report = validate(graph, caps, H, params)
    if args.out:
        write_subgraph(args.out, H, caps)
    payload = {
        "params": {"W": params.W, "beta": params.beta, "beta_minus": params.beta_minus},
        "edges_kept": len(H),
        "build": trace.to_json_dict(),
        "validator": report.to_json_dict(),
    }
    _emit_json(payload, args.report)
    return EXIT_OK if report.is_clean else EXIT_GUARANTEE


def cmd_verify(args) -> int:
    graph, caps = _load_graph(args.graph)
    try:
        sub_graph, _ = read_graph(args.subgraph)
    except (OSError, GraphFormatError) as exc:
        raise InputError(f"{args.subgraph}: {exc}") from exc
    member_ids = match_subgraph_edges(graph, sub_graph)
    params = _params_from_args(args, graph.W)
    report = validate(graph, caps, Subgraph(graph, member_ids), params)
    _emit_json(report.to_json_dict(), args.report)
    return EXIT_OK if report.is_clean else EXIT_GUARANTEE


def _stream_one(graph: MultiGraph, caps: Capacities, params: EdcsParams,
                epsilon: str, variant: int, budget: int, ready, solved, seed) -> dict:
    # the order needs only m; the pass waits for G's pair numbering and caps
    stream = file_order_stream(graph) if seed == "as-is" else make_stream(graph, int(seed))
    ready.result()
    result = run_with_fallbacks(stream, caps, params, epsilon,
                                variant=variant, oracle_budget=budget, solved=solved)
    record = result.stats.to_json_dict()
    record["matching"] = result.matching.to_json_dict(graph)
    return record


def _oracle_weight(graph: MultiGraph, caps: Capacities, args) -> int | None:
    """The exact optimum, or None when the oracle's budget runs out."""
    try:
        return max_weight_b_matching_exact(graph, caps, args.oracle_budget).weight
    except OracleBudgetExceeded:
        log.info("exact oracle infeasible for %s; ratios omitted", args.graph)
        return None


def cmd_stream(args) -> int:
    if args.jobs < 1:
        raise InputError("--jobs must be >= 1")
    seeds = _parse_seeds(args.seeds)
    graph, caps = _load_graph(args.graph)
    # a bad epsilon or a crowded pair under variant 1 fails here, before
    # the oracle and any stream
    params = _params_from_args(args, graph.W)
    if params.epsilon is None:
        raise InputError("stream requires --epsilon")
    if args.variant == 1:
        _reject_crowded(graph, caps, "use --variant 3 for raw multiplicity streams")
    # one writer for the graph's caches: the pool's streams draw their
    # orders while this thread numbers G's pairs and fills its pair caps,
    # and wait for ``ready`` before their passes read them; this thread
    # then solves the oracle, keeping the exact answer, which a stream
    # waits for through ``solved``.  An error cancels the queued seeds
    # before it frees the waiting ones
    ready, solved = concurrent.futures.Future(), concurrent.futures.Future()
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=min(args.jobs, len(seeds)))
    try:
        pending = pool.map(functools.partial(_stream_one, graph, caps, params, args.epsilon,
                                             args.variant, args.oracle_budget, ready, solved),
                           seeds)
        _pair_caps(graph, caps)
        ready.set_result(None)
        oracle_weight = _oracle_weight(graph, caps, args)
        solved.set_result(oracle_weight)
        runs = list(pending)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
        ready.cancel()  # after an error, the waiting streams stop
        solved.cancel()
        pool.shutdown()

    threshold = 1.0 / float(2 - Fraction(1, 2 * params.W) + params.epsilon)
    ratios = []
    for run in runs:
        if oracle_weight is None:
            run["ratio"] = None
        elif oracle_weight == 0:
            run["ratio"] = 1.0
        else:
            run["ratio"] = run["result_weight"] / oracle_weight
        if run["ratio"] is not None:
            ratios.append(run["ratio"])
    report = {
        "graph": args.graph,
        "params": {"W": params.W, "beta": params.beta, "beta_minus": params.beta_minus},
        "epsilon": args.epsilon,
        "variant": args.variant,
        "oracle_weight": oracle_weight,
        "ratio_threshold": threshold,
        "runs": runs,
        "aggregate": {
            "ratio_min": min(ratios) if ratios else None,
            "ratio_mean": sum(ratios) / len(ratios) if ratios else None,
            "below_threshold": sum(1 for r in ratios if r < threshold),
            "peak_stored_edges": [run["peak_stored_edges"] for run in runs],
        },
    }
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["seed", "ratio", "peak_memory", "phase1_edges",
                             "underfull_collected", "fallback", "extraction"])
            for seed, run in zip(seeds, runs):
                writer.writerow([
                    seed,
                    "" if run["ratio"] is None else repr(run["ratio"]),
                    run["peak_stored_edges"],
                    run["phase1_edges_consumed"],
                    run["underfull_collected"],
                    run["fallback_used"],
                    run["extraction"],
                ])
    else:
        _emit_json(report, None)
    if args.fail_below is not None and any(r < args.fail_below for r in ratios):
        return EXIT_GUARANTEE
    return EXIT_OK


def _parse_seeds(spec: str) -> list:
    """``as-is``, or a comma list of seeds (non-negative integers) and
    ascending ranges lo-hi of them, both ends included.  A chunk that is
    none of these raises ``InputError`` naming it."""
    if spec == "as-is":
        return ["as-is"]
    seeds: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        lo, sep, hi = chunk.partition("-")
        if sep and not lo.strip() and hi.strip().isdecimal():
            raise InputError(f"--seeds: {chunk!r} is negative")
        try:
            first = int(lo)
            last = int(hi) if sep else first
        except ValueError:
            raise InputError(
                f"--seeds: {chunk!r} is neither a seed nor a range lo-hi of seeds") from None
        if last < first:
            raise InputError(f"--seeds: range {chunk!r} is descending")
        seeds.extend(range(first, last + 1))
    return seeds


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedcs",
        description="Degree-constrained sparsifiers and streaming for weighted b-matching")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance from a JSON spec")
    p.add_argument("--spec", required=True, help="JSON GenSpec file")
    p.add_argument("--out", required=True, help="graph file to write")
    p.add_argument("--ref-out", help="write the reference sparsifier (tight/multicopy)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build a sparsifier offline")
    p.add_argument("graph")
    _add_param_flags(p)
    p.add_argument("--out", help="write the sparsifier as a graph file")
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="validate a sparsifier against its graph")
    p.add_argument("graph")
    p.add_argument("subgraph")
    _add_param_flags(p)
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stream", help="run seeded random-order stream trials")
    p.add_argument("graph")
    _add_param_flags(p)
    p.add_argument("--seeds", required=True,
                   help="e.g. '7', '0-99', '1,5,9', or 'as-is' for file order")
    p.add_argument("--variant", type=int, choices=(1, 3), default=1,
                   help="3 = replacement rule for raw-multiplicity streams")
    p.add_argument("--jobs", type=int, default=1, help="parallel threads")
    p.add_argument("--oracle-budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    p.add_argument("--out", help="prefix for <out>.json and <out>.csv")
    p.add_argument("--fail-below", type=float,
                   help="exit 1 when any ratio falls below this value")
    p.set_defaults(func=cmd_stream)
    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
