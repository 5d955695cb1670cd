"""Reference solver and output checks, independent of pgtemplates.

The solver is a plain recursive Zielonka algorithm over Python lists
with a counter-based attractor; it shares no code with the program.
Each check raises CheckFailed with a message naming what is wrong.
"""
from __future__ import annotations

import sys

from games import Game, Template, vertex_line

sys.setrecursionlimit(20000)


class CheckFailed(Exception):
    pass


def _attractor(g: Game, inside: bytearray, target: list, player: int) -> bytearray:
    """Vertices of the subgame `inside` from which `player` forces a visit
    to `target`."""
    succ, pred, owner = g.succ, g.preds(), g.owner
    attr = bytearray(g.n)
    for v in target:
        attr[v] = 1
    left = {}
    queue = list(target)
    for v in queue:
        for u in pred[v]:
            if not inside[u] or attr[u]:
                continue
            if owner[u] == player:
                attr[u] = 1
                queue.append(u)
                continue
            c = left.get(u)
            if c is None:
                c = sum(1 for w in succ[u] if inside[w])
            c -= 1
            left[u] = c
            if c == 0:
                attr[u] = 1
                queue.append(u)
    return attr


def zielonka_w0(g: Game, prio: list) -> set:
    """Player-0 winning region of the max-parity game (even wins)."""

    def solve(vs: list) -> tuple[list, list]:
        if not vs:
            return [], []
        d = max(prio[v] for v in vs)
        p = d % 2
        inside = bytearray(g.n)
        for v in vs:
            inside[v] = 1
        a = _attractor(g, inside, [v for v in vs if prio[v] == d], p)
        w = solve([v for v in vs if not a[v]])
        if not w[1 - p]:
            return (vs, []) if p == 0 else ([], vs)
        b = _attractor(g, inside, w[1 - p], 1 - p)
        w2 = list(solve([v for v in vs if not b[v]]))
        w2[1 - p] = w2[1 - p] + [v for v in vs if b[v]]
        return w2[0], w2[1]

    return set(solve(list(range(g.n)))[0])


def pruned(g: Game, prio: list, faulty: set) -> tuple[Game, list]:
    """The game without the faulty edges; a vertex left without successors
    gets a self-loop and an odd priority no lower than any other, so it
    is lost, as having no move is."""
    top = max(prio) | 1
    succ, p2 = [], list(prio)
    for u, ss in enumerate(g.succ):
        keep = [v for v in ss if (u, v) not in faulty]
        if not keep:
            keep = [u]
            p2[u] = top
        succ.append(keep)
    return Game(g.owner, succ, [p2]), p2


# -- checks --------------------------------------------------------------


def check_region(what: str, got: set, want: set) -> None:
    if got != want:
        extra = sorted(got - want)[:5]
        missing = sorted(want - got)[:5]
        raise CheckFailed("%s: region differs from the reference (extra %s, "
                          "missing %s)" % (what, extra, missing))


def check_unsafe_exact(g: Game, t: Template) -> None:
    """Unsafe edges are exactly the player-0 edges leaving the region."""
    want = {(u, v) for u in t.region if g.owner[u] == 0
            for v in g.succ[u] if v not in t.region}
    if t.unsafe != want:
        raise CheckFailed("unsafe set is not the player-0 boundary of the "
                          "region (extra %s, missing %s)"
                          % (sorted(t.unsafe - want)[:5], sorted(want - t.unsafe)[:5]))


def allowed_edges(g: Game, t: Template, u: int) -> list:
    """Edges a template lets player 0 take at u: inside the region,
    neither unsafe nor co-live."""
    return [(u, v) for v in g.succ[u] if v in t.region
            and (u, v) not in t.unsafe and (u, v) not in t.colive]


def conflicts(g: Game, t: Template) -> set:
    """Region vertices the template over-constrains: a player-0 vertex
    with no allowed edge, or a source of a live-group none of whose
    edges from it is allowed."""
    edges = g.edges()
    bad = set()
    for u in t.region:
        if g.owner[u] == 0 and not allowed_edges(g, t, u):
            bad.add(u)
    for group in t.groups:
        served = {}
        for (u, v) in group:
            if (u, v) not in edges or g.owner[u] != 0:
                raise CheckFailed("live-group edge (%d,%d) is not a player-0 "
                                  "edge of the game" % (u, v))
            ok = v in t.region and (u, v) not in t.unsafe and (u, v) not in t.colive
            served[u] = served.get(u, False) or ok
        bad.update(u for u, ok in served.items() if u in t.region and not ok)
    return bad


def check_conflict_free(g: Game, t: Template) -> None:
    bad = conflicts(g, t)
    if bad:
        raise CheckFailed("template has conflicts at %s" % sorted(bad)[:5])


def check_strategy(g: Game, t: Template, strat: dict) -> None:
    """Every line plays only allowed edges, every player-0 region vertex
    has a line, and no other vertex has one."""
    want = {u for u in t.region if g.owner[u] == 0}
    if set(strat) != want:
        raise CheckFailed("strategy lines for %s, expected the player-0 region "
                          "(extra %s, missing %s)" % (
                              len(strat), sorted(set(strat) - want)[:5],
                              sorted(want - set(strat))[:5]))
    for u, moves in strat.items():
        ok = set(allowed_edges(g, t, u))
        if not moves:
            raise CheckFailed("empty strategy line at %d" % u)
        for e in moves:
            if e not in ok:
                raise CheckFailed("strategy plays %s, which the template does "
                                  "not allow" % (e,))


def check_verify_output(stdout: str, region: set) -> None:
    if not stdout.startswith("winning from:"):
        raise CheckFailed("pgt verify did not report winning: %r" % stdout[:80])
    check_region("pgt verify", vertex_line(stdout, "winning from:"), region)


def check_compose(steps: list, final: set, refs: list, keep: set = frozenset(),
                  exact: set | None = None) -> None:
    """Composed regions never grow from step to step, the first step's
    region is the reference region of the first objective, each step's
    region lies inside the reference region of every objective folded so
    far and contains `keep` (vertices known to win every objective at
    once), and the template's region is the last step's, equal to
    `exact` when the composed winner is known."""
    if len(steps) != len(refs):
        raise CheckFailed("compose printed %d steps for %d objectives"
                          % (len(steps), len(refs)))
    check_region("compose step 1", steps[0], refs[0])
    for i in range(1, len(steps)):
        if not steps[i] <= steps[i - 1]:
            raise CheckFailed("composed region grew at step %d" % (i + 1))
    if steps[-1] != final:
        raise CheckFailed("template region differs from the last step")
    if exact is not None:
        check_region("composed (closed form)", final, exact)
    for i, step in enumerate(steps):
        if not keep <= step:
            raise CheckFailed("step %d gave up vertices that win every objective: %s"
                              % (i + 1, sorted(keep - step)[:5]))
        for j, ref in enumerate(refs[:i + 1]):
            if not step <= ref:
                raise CheckFailed("step %d leaves the reference region of "
                                  "objective %d at %s"
                                  % (i + 1, j, sorted(step - ref)[:5]))


def check_fault(g: Game, prio: list, base: Template, faulty: set,
                fast: bool, said_fast: bool, adapted: Template) -> None:
    """A fault-adapted template: the path matches the one predicted from
    the base template, its region is the reference region of the pruned
    game, and its constraints are those of that path."""
    if said_fast != fast:
        raise CheckFailed("pgt fault took the %s path where the %s one was "
                          "expected" % ("fast" if said_fast else "slow",
                                        "fast" if fast else "slow"))
    g2, p2 = pruned(g, prio, faulty)
    check_region("fault-adapted", adapted.region, zielonka_w0(g2, p2))
    if fast:
        if (adapted.unsafe != base.unsafe | faulty or adapted.colive != base.colive
                or adapted.region != base.region
                or sorted(map(sorted, adapted.groups)) != sorted(map(sorted, base.groups))):
            raise CheckFailed("fast path changed more than the unsafe set")
    else:
        check_unsafe_exact(g2, adapted)
        check_conflict_free(g2, adapted)
