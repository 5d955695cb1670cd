"""Command line front end.

Exit codes: 0 success, 2 parse or usage error, 3 template conflict,
4 verification failed, 5 size guard tripped.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
import time

import numpy as np

from .compose import ComposeState, add_objective, compose_templates
from .fault import (CSV_HEADER, FaultStats, fault_correction, gaf_tolerant,
                    simulate_fault_conflicts)
from .gameio import (ParseError, _EDGE_RE, emit_game, parse_game,
                     parse_strategy, parse_template, resolve_edges,
                     resolve_vertices, strategy_text, template_text,
                     vertex_text)
from .generator import GeneratorConfig, generate
from .graph import GameGraph, GraphBuildError
from .oracle import OracleSizeError, brute_force_gen_parity_region, zielonka_regions
from .solvers import parity_template
from .strategy import extract_strategy, verify_strategy
from .template import ConflictError


def _read(path: str) -> str:
    """The text of a file, one character per byte, so that the parsers
    report the line and column of a non-ASCII byte."""
    with open(path, "r", encoding="latin-1") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _load_game(path: str):
    return parse_game(_read(path))


def _vertex_args(g: GameGraph, text: str):
    """Vertex ids of a comma-separated vertex list."""
    ids, bad, why = resolve_vertices(g, [tok.strip() for tok in text.split(",")])
    if bad >= 0:
        raise ValueError(why)
    return ids.tolist()


def _region(g: GameGraph, mask) -> str:
    """The vertices of a boolean mask, ascending by id, or (empty)."""
    return vertex_text(g, np.flatnonzero(mask)) or "(empty)"


def _sorted_ids(ids) -> np.ndarray:
    """A collection of vertex ids the program produced, ascending."""
    return np.sort(np.fromiter(ids, dtype=np.int64, count=len(ids)))


_EDGE_ARG = re.compile(r"[ ,\t]*" + _EDGE_RE.pattern)
_SEPARATORS = re.compile(r"[ ,\t]*")


def _edge_list_arg(g: GameGraph, text: str):
    """Edge ids of an edge list such as "(u,v),(u,w)"."""
    us, vs = [], []
    pos = 0
    for m in _EDGE_ARG.finditer(text):
        if m.start() != pos:
            break
        us.append(m.group(1))
        vs.append(m.group(2))
        pos = m.end()
    ids, bad, why = resolve_edges(g, us, vs)
    if bad >= 0:
        raise ValueError(why)
    pos = _SEPARATORS.match(text, pos).end()
    if pos < len(text):
        raise ValueError("expected an edge of the form (u,v) at %r" % text[pos:])
    return ids


def _pick_objective(objectives, index: int):
    if not 0 <= index < len(objectives):
        raise ValueError("objective index %d out of range (file has %d)"
                         % (index, len(objectives)))
    return objectives[index]


def _emit(lines: str, text: str, output: str | None) -> None:
    """Write text to the output file, when one is given, then lines and
    text to standard output.  Callers render all of it first, and the
    file goes first, so a command that fails writes nothing to standard
    output."""
    if output is not None:
        _write(output, text)
    sys.stdout.write(lines)
    sys.stdout.write(text)


def _cmd_solve(args) -> int:
    g, objectives = _load_game(args.file)
    pf = _pick_objective(objectives, args.objective)
    result = parity_template(g, pf)
    _emit("W0: %s\n" % _region(g, result.w0_mask), template_text(result.template),
          args.output)
    return 0


GAP_NOTE = ("note: composition is sound but not complete; an empty region "
            "may still be winnable (see README, 'Incompleteness of "
            "composition').")


def _cmd_compose(args) -> int:
    g, objectives = _load_game(args.file)
    state = ComposeState.initial(g)
    lines = []
    if args.incremental:
        t0 = time.perf_counter()
        template = None
        for step, pf in enumerate(objectives, 1):
            state, template = add_objective(g, state, pf)
            elapsed = time.perf_counter() - t0
            lines.append("step %d: W0 = %s (cumulative %.3fs)\n"
                         % (step, _region(g, state.w0_mask), elapsed))
    else:
        state, template = compose_templates(g, state, objectives)
        lines.append("W0: %s\n" % _region(g, state.w0_mask))
    if not state.w0_mask.any():
        lines.append(GAP_NOTE + "\n")
    _emit("".join(lines), template_text(template), args.output)
    return 0


def _cmd_extract(args) -> int:
    g, _ = _load_game(args.file)
    t = parse_template(_read(args.template), g)
    s = extract_strategy(g, t)
    _emit("", strategy_text(s), args.output)
    return 0


def _cmd_verify(args) -> int:
    g, objectives = _load_game(args.file)
    if args.template is not None:
        t = parse_template(_read(args.template), g)
        s = extract_strategy(g, t)
    else:
        s = parse_strategy(_read(args.strategy), g)
    start = None
    if args.start is not None:
        start = _vertex_args(g, args.start)
    verdict = verify_strategy(g, s, objectives, start=start)
    if verdict.is_winning:
        print("winning from: " + vertex_text(g, _sorted_ids(verdict.queried)))
        return 0
    print("not winning from: " + vertex_text(g, _sorted_ids(verdict.losing_from)))
    lasso = verdict.counterexample
    if lasso is not None:
        print("counterexample prefix: " + vertex_text(g, lasso.prefix))
        print("counterexample cycle: " + vertex_text(g, lasso.cycle))
    return 4


def _cmd_fault(args) -> int:
    g, objectives = _load_game(args.file)
    t = parse_template(_read(args.template), g)
    faulty = _edge_list_arg(g, args.faulty)
    if args.gaf:
        ok, offenders = gaf_tolerant(g, t, faulty)
        if ok:
            print("tolerant: every region vertex keeps a usable edge")
            return 0
        print("vulnerable at: " + vertex_text(g, _sorted_ids(offenders)))
        return 4
    pf = _pick_objective(objectives, args.objective)
    adapted = fault_correction(g, pf, t, faulty)
    if adapted.graph is g:
        message = "adapted by marking the faulty edges unsafe\n"
    else:
        message = "conflict; re-solved on the graph without the faulty edges\n"
    _emit(message, template_text(adapted), args.output)
    return 0


def _cmd_gen(args) -> int:
    config = GeneratorConfig(objective_count=args.objectives,
                             max_priority=args.max_priority, seed=args.seed,
                             vertex_count=args.vertices, edge_count=args.edges)
    g, objectives = generate(config)
    text = emit_game(g, objectives)
    if args.output is not None:
        _write(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args) -> int:
    g, objectives = _load_game(args.file)
    if len(objectives) == 1:
        regions = zielonka_regions(g, objectives[0])
        w0 = regions.w0_mask
    else:
        w0 = brute_force_gen_parity_region(g, objectives)
    print("W0: " + _region(g, w0))
    print("W1: " + _region(g, ~w0))
    return 0


def _cmd_bench_fault(args) -> int:
    fractions = [float(tok) for tok in args.fraction.split(",")]
    for f in fractions:
        if not 0.0 <= f <= 1.0:
            raise ValueError("fault fraction %g outside [0, 1]" % f)
    per_fraction = {f: [0, 0, 0.0] for f in fractions}  # conflicts, trials, vf sum
    for i in range(args.games):
        config = GeneratorConfig(objective_count=1,
                                 max_priority=args.max_priority,
                                 seed=args.seed + i,
                                 vertex_count=args.vertices,
                                 edge_count=args.edges)
        g, objectives = generate(config)
        template = parity_template(g, objectives[0]).template
        for f in fractions:
            stats = simulate_fault_conflicts(g, objectives[0], f, args.trials,
                                             seed=args.seed + i,
                                             template=template)
            acc = per_fraction[f]
            acc[0] += round(stats.conflict_rate * stats.trials)
            acc[1] += stats.trials
            acc[2] += stats.mean_conflict_vertex_fraction * stats.trials
    print(CSV_HEADER)
    for f in fractions:
        conflicts, trials, vf_sum = per_fraction[f]
        print(FaultStats(f, trials, conflicts / max(trials, 1),
                         vf_sum / max(trials, 1)).csv_row())
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The pgt argument parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="pgt",
        description="Permissive strategy templates for games on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one parity objective")
    p.add_argument("file")
    p.add_argument("--objective", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("compose", help="combine all objectives of the file")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--one-shot", dest="incremental", action="store_false")
    mode.add_argument("--incremental", dest="incremental", action="store_true")
    p.set_defaults(incremental=False)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("extract", help="turn a template into a strategy")
    p.add_argument("file")
    p.add_argument("--template", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("verify", help="check a template or strategy")
    p.add_argument("file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--template")
    src.add_argument("--strategy")
    p.add_argument("--from", dest="start",
                   help="comma-separated start vertices (default: whole domain)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fault", help="adapt a template to faulty edges")
    p.add_argument("file")
    p.add_argument("--template", required=True)
    p.add_argument("--faulty", required=True,
                   help="edge list such as \"(u,v),(u,w)\"")
    p.add_argument("--gaf", action="store_true",
                   help="only check tolerance against intermittent faults")
    p.add_argument("--objective", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fault)

    p = sub.add_parser("gen", help="generate a random game file")
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--objectives", type=int, default=1)
    p.add_argument("--max-priority", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("oracle", help="reference regions (small games only)")
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="benchmarks")
    bench_sub = p.add_subparsers(dest="benchmark", required=True)
    b = bench_sub.add_parser("fault", help="fault conflict statistics as CSV")
    b.add_argument("--fraction", default="0.05,0.1,0.2,0.3",
                   help="comma-separated fault fractions")
    b.add_argument("--trials", type=int, default=20)
    b.add_argument("--games", type=int, default=50)
    b.add_argument("--vertices", type=int, default=30)
    b.add_argument("--edges", type=int, default=90)
    b.add_argument("--max-priority", type=int, default=3)
    b.add_argument("--seed", type=int, default=1)
    b.set_defaults(func=_cmd_bench_fault)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ConflictError as exc:
        print("conflict: %s" % exc, file=sys.stderr)
        return 3
    except OracleSizeError as exc:
        print("size guard: %s" % exc, file=sys.stderr)
        return 5
    except (OSError, GraphBuildError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
