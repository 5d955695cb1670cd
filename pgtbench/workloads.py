"""The four workloads: inputs made from the seed, the `pgt` commands of
one pass, and the checks on their outputs.

Every workload runs all five commands, because every end-to-end metric
is reported on every workload.  The commands a workload is about run on
its whole instance set; the others run on instances of the same family,
so that a regression there still shows.

A workload function `(seed, indir)` writes the inputs and returns the
list of Op of one pass.  Paths in an Op's argv that start with "@/" name
files in the pass's own output directory.  Each Op's check reads the
outputs of the first pass and raises reference.CheckFailed when one is
wrong.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import games
import reference as ref
from games import Game, edge_list_arg, parse_strategy, parse_template, template_part

COMMAND_METRICS = ("solve_s", "compose_s", "extract_s", "verify_s", "fault_s")


class Op:
    __slots__ = ("metric", "argv", "out", "check")

    def __init__(self, metric, argv, out, check):
        self.metric = metric
        self.argv = argv
        self.out = out
        self.check = check


def _write(indir: Path, name: str, g: Game) -> str:
    path = indir / name
    path.write_text(games.game_text(g), encoding="ascii")
    return str(path)


def _read(pdir: Path, name: str) -> str:
    return (pdir / name).read_text(encoding="ascii")


def _solve(key: str, path: str, g: Game, w0: set, *extra: str) -> Op:
    """pgt solve, writing @/<key>.tpl; w0 is the reference region of the
    objective solved."""

    def check(pdir):
        out = _read(pdir, key + ".solve.out")
        ref.check_region("pgt solve W0", games.vertex_line(out, "W0:"), w0)
        text = template_part(out)
        if _read(pdir, key + ".tpl") != text:
            raise ref.CheckFailed("template file differs from the printed one")
        t = parse_template(text)
        ref.check_region("template", t.region, w0)
        ref.check_unsafe_exact(g, t)
        ref.check_conflict_free(g, t)

    return Op("solve_s", ["solve", path, *extra, "-o", "@/%s.tpl" % key],
              key + ".solve.out", check)


def _use(key: str, path: str, g: Game, tpl_key: str) -> list:
    """pgt extract and pgt verify on the template @/<tpl_key>.tpl: the
    strategy follows the template and is winning on its whole region."""

    def check_extract(pdir):
        out = _read(pdir, key + ".extract.out")
        if out != _read(pdir, key + ".strat"):
            raise ref.CheckFailed("strategy file differs from the printed one")
        t = parse_template(_read(pdir, tpl_key + ".tpl"))
        ref.check_strategy(g, t, parse_strategy(out))

    def check_verify(pdir):
        t = parse_template(_read(pdir, tpl_key + ".tpl"))
        ref.check_verify_output(_read(pdir, key + ".verify.out"), t.region)

    tpl = "@/%s.tpl" % tpl_key
    return [
        Op("extract_s", ["extract", path, "--template", tpl, "-o", "@/%s.strat" % key],
           key + ".extract.out", check_extract),
        Op("verify_s", ["verify", path, "--template", tpl], key + ".verify.out",
           check_verify),
    ]


def _compose(key: str, path: str, g: Game, refs: list, winner: set | None = None) -> Op:
    """pgt compose --incremental, writing @/<key>.tpl; refs are the
    single-objective reference regions, `winner` the closed-form winner
    of all objectives together, which every step must keep."""

    def check(pdir):
        out = _read(pdir, key + ".compose.out")
        text = template_part(out)
        if _read(pdir, key + ".tpl") != text:
            raise ref.CheckFailed("template file differs from the printed one")
        t = parse_template(text)
        ref.check_compose(games.compose_steps(out), t.region, refs,
                          keep=winner or set(), exact=winner)
        ref.check_unsafe_exact(g, t)
        ref.check_conflict_free(g, t)

    return Op("compose_s", ["compose", "--incremental", path, "-o", "@/%s.tpl" % key],
              key + ".compose.out", check)


def _fault(key: str, path: str, g: Game, base_key: str, faulty: set,
           fast: bool) -> Op:
    """pgt fault for objective 0 on the template @/<base_key>.tpl,
    writing @/<key>.tpl; `fast` is the path the fault set was built to
    take."""

    def check(pdir):
        out = _read(pdir, key + ".out")
        text = template_part(out)
        if _read(pdir, key + ".tpl") != text:
            raise ref.CheckFailed("adapted template file differs from the printed one")
        base = parse_template(_read(pdir, base_key + ".tpl"))
        conflicted = ref.conflicts(g, games.Template(
            base.region, base.unsafe | faulty, base.colive, base.groups))
        if bool(conflicted) == fast:
            raise ref.CheckFailed("fault set built for the %s path does not take it "
                                  "on the template" % ("fast" if fast else "slow"))
        ref.check_fault(g, g.prios[0], base, faulty, fast,
                        out.startswith("adapted by marking"), parse_template(text))

    argv = ["fault", path, "--template", "@/%s.tpl" % base_key,
            "--faulty", edge_list_arg(faulty), "-o", "@/%s.tpl" % key]
    return Op("fault_s", argv, key + ".out", check)


# -- fault sets built from the game and its reference region only --------


def fast_faults(rng, g: Game, w0: set, size: int) -> set:
    """Player-0 edges no template of the exact region can need: edges
    from losing vertices, and edges leaving the region (already unsafe).
    Marking them unsafe never causes a conflict."""
    pool = [(u, v) for u in range(g.n) if g.owner[u] == 0 for v in g.succ[u]
            if u not in w0 or v not in w0]
    pick = rng.choice(len(pool), size=min(size, len(pool)), replace=False)
    return {pool[int(i)] for i in pick}


def slow_faults(rng, g: Game, w0: set, killed: int, extra: int,
                among: set | None = None) -> set:
    """All region-internal edges of `killed` player-0 region vertices
    (each is left without a move in the region, a conflict for every
    template of the exact region), plus `extra` random internal edges
    from player-0 region vertices; all drawn from `among` if given."""
    cands = [u for u in sorted(w0 if among is None else w0 & among) if g.owner[u] == 0]
    faulty = set()
    for i in rng.choice(len(cands), size=killed, replace=False):
        u = cands[int(i)]
        faulty.update((u, v) for v in g.succ[u] if v in w0)
    internal = [(u, v) for u in cands for v in g.succ[u] if v in w0]
    for i in rng.choice(len(internal), size=extra, replace=False):
        faulty.add(internal[int(i)])
    return faulty


# -- workloads --------------------------------------------------------------


RANDOM_N = 25_000


def random_large(seed: int, indir: Path) -> list:
    rng = np.random.default_rng([seed, 1])
    g = games.random_game(rng, RANDOM_N, 4 * RANDOM_N, 4)
    w0 = ref.zielonka_w0(g, g.prios[0])
    path = _write(indir, "big.gpg", g)
    return ([_solve("big", path, g, w0)] + _use("big", path, g, "big")
            + [_compose("big.c", path, g, [w0]),
               _fault("big.f", path, g, "big", slow_faults(rng, g, w0, 1, 20), fast=False)])


# eight sparse games rather than one of 8000 vertices: who wins a sparse
# random game, and so its solve and verify time, swings with the seed,
# and the sum over eight swings less
CHAIN, LADDER, SPARSE_N, SPARSE_GAMES, TWO_GOAL = 3000, 1200, 1000, 8, 800


def deep(seed: int, indir: Path) -> list:
    rng = np.random.default_rng([seed, 2])
    chain = games.chain_game(rng, CHAIN)
    ladder = games.ladder_game(rng, LADDER)
    two_chain = games.second_goal(games.chain_game(rng, TWO_GOAL), TWO_GOAL // 2)
    two_ladder = games.second_goal(games.ladder_game(rng, TWO_GOAL // 2),
                                   2 * (TWO_GOAL // 4) + 1)
    for g in (chain, ladder):
        ref.check_region("closed-form winner", ref.zielonka_w0(g, g.prios[0]), g.w0)
    sparse = []
    for i in range(SPARSE_GAMES):
        g = games.random_game(rng, SPARSE_N, SPARSE_N * 3 // 2, 64)
        g.w0 = ref.zielonka_w0(g, g.prios[0])
        sparse.append(("sparse%d" % i, g))
    ops = []
    for key, g in [("chain", chain), ("ladder", ladder)] + sparse:
        path = _write(indir, key + ".gpg", g)
        ops += [_solve(key, path, g, g.w0)] + _use(key, path, g, key)
    for key, g in (("two.chain", two_chain), ("two.ladder", two_ladder)):
        ops.append(_compose(key, _write(indir, key + ".gpg", g), g, [g.w0, g.w0], g.w0))
    # fixed break points: a re-solve costs about (CHAIN - k)^2
    for k in (CHAIN // 2, 3 * CHAIN // 4):
        faulty, w_broken = games.chain_break(CHAIN, k)
        ops.append(_closed_form_fault("chain.f%d" % k, str(indir / "chain.gpg"), chain,
                                      faulty, w_broken))
    return ops


def _closed_form_fault(key: str, path: str, chain: Game, faulty: set, w_broken: set) -> Op:
    op = _fault(key, path, chain, "chain", faulty, fast=False)
    inner = op.check

    def check(pdir):
        inner(pdir)
        adapted = parse_template(template_part(_read(pdir, op.out)))
        ref.check_region("broken chain (closed form)", adapted.region, w_broken)

    op.check = check
    return op


# (core, filler, objectives) per instance
COMPOSE_SIZES = ((200, 2000, 8), (200, 2000, 12), (200, 2000, 16), (200, 2000, 16))


def compose_incremental(seed: int, indir: Path) -> list:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for i, (core, filler, k) in enumerate(COMPOSE_SIZES):
        g = games.compose_game(rng, core, filler, k, 3, 2)
        # faults in the filler only: a broken core cycle would make the
        # re-solve, and so its time, depend on the seed
        filler_vs = set(range(core, core + filler))
        refs = [ref.zielonka_w0(g, p) for p in g.prios]
        for r in refs:
            ref.check_region("closed-form winner within an objective", g.w0 & r, g.w0)
        key = "gp%d" % i
        path = _write(indir, key + ".gpg", g)
        ops += ([_compose(key, path, g, refs, g.w0)] + _use(key, path, g, key)
                + [_solve(key + ".s", path, g, refs[0], "--objective", "0"),
                   _fault(key + ".f", path, g, key + ".s",
                          slow_faults(rng, g, refs[0], 1, 5, filler_vs), fast=False)])
    return ops


# a pass short enough that a run holds at least two even when the VM is slow
FAULT_N, FAULT_SETS = 10_000, 8


def fault_adapt(seed: int, indir: Path) -> list:
    rng = np.random.default_rng([seed, 4])
    g = games.random_game(rng, FAULT_N, 4 * FAULT_N, 4)
    w0 = ref.zielonka_w0(g, g.prios[0])
    path = _write(indir, "base.gpg", g)
    ops = [_solve("base", path, g, w0)]
    fast_keys = []
    for i in range(FAULT_SETS):
        fast = i % 2 == 0
        faulty = fast_faults(rng, g, w0, 40) if fast else slow_faults(rng, g, w0, 2, 10)
        ops.append(_fault("f%02d" % i, path, g, "base", faulty, fast))
        if fast:
            fast_keys.append("f%02d" % i)
    # strategies from the base template and from two fast-path
    # templates, which are bound to the same graph
    for key in ["base"] + fast_keys[:2]:
        ops += _use(key, path, g, key)
    ops.append(_compose("base.c", path, g, [w0]))
    # two more games of the family, so that solve_s and compose_s here
    # sum three commands: one command of 0.35 s spread 0.10 over ten seeds
    for i in range(2):
        h = games.random_game(rng, FAULT_N, 4 * FAULT_N, 4)
        wh = ref.zielonka_w0(h, h.prios[0])
        key = "more%d" % i
        hpath = _write(indir, key + ".gpg", h)
        ops += [_solve(key, hpath, h, wh), _compose(key + ".c", hpath, h, [wh])]
    return ops


WORKLOADS = {
    "random-large": random_large,
    "deep": deep,
    "compose-incremental": compose_incremental,
    "fault-adapt": fault_adapt,
}
