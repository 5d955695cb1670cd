"""Reference implementations used only by the test-suite.

Everything here trades speed for obviousness and stays independent of
the solvers module, so agreement between the two is meaningful.  Only
the graph model and the set transformers are shared.

The brute-force generalized-parity region enumerates player-1
positional strategies.  That is sufficient because player 1's
objective is a disjunction of parity complements, for which positional
strategies suffice.  With player 1 fixed, player 0 wins from v iff it
can reach a vertex subset it can cycle through forever whose maxima
are even for every objective; any strongly connected subgraph can be
traversed so that all its vertices recur.

The exact strategy verdict unrolls an extracted strategy into its
(vertex, cursor vector) product and solves that with Zielonka; it is
exponential in the strategy's domain and checks the limit analysis of
strategy.verify_strategy on small games.
"""
from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .graph import GameGraph, PLAYER0, PLAYER1, PriorityFunction
from .strategy import (Lasso, Strategy, StrategyDomainError, Verdict,
                       _checked_args)
from .transformers import attr_mask


class OracleSizeError(ValueError):
    """The instance is too large for brute-force checking."""


class ProductLimitError(RuntimeError):
    """The reachable strategy product exceeded the state limit."""


class OracleRegions(NamedTuple):
    w0_mask: np.ndarray
    w1_mask: np.ndarray


def zielonka_regions(g: GameGraph, priorities: PriorityFunction) -> OracleRegions:
    """Classical recursive Zielonka winning regions, no template bookkeeping."""
    if len(priorities) != g.vertex_count:
        raise ValueError("priority function does not cover the vertex set")
    vals = priorities.values

    def solve(universe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nothing = np.zeros(len(universe), dtype=np.bool_)
        if not universe.any():
            return nothing, nothing
        d = int(vals[universe].max())
        player = d % 2
        top = universe & (vals == d)
        a = attr_mask(g, top, player, universe)
        sub = solve(universe & ~a)
        opponent_part = sub[1 - player]
        if not opponent_part.any():
            mine = universe.copy()
            return (mine, nothing) if player == PLAYER0 else (nothing, mine)
        b = attr_mask(g, opponent_part, 1 - player, universe)
        r0, r1 = solve(universe & ~b)
        if player == PLAYER0:
            return r0, r1 | b
        return r0 | b, r1

    w0, w1 = solve(np.ones(g.vertex_count, dtype=np.bool_))
    return OracleRegions(w0, w1)


def _player1_strategies(g: GameGraph) -> Iterable[dict[int, int]]:
    p1 = [v for v in g.vertices() if g.owner_of(v) == PLAYER1]
    pools = [[int(t) for t in g.successors(v)] for v in p1]
    for picks in itertools.product(*pools):
        yield dict(zip(p1, picks))


def _even_max_subsets(
        n: int, objectives: Sequence[PriorityFunction]) -> list[tuple[int, list[int]]]:
    """Bitmask subsets whose max priority is even for every objective,
    paired with their member lists."""
    good = []
    for bits in range(1, 1 << n):
        members = [v for v in range(n) if bits >> v & 1]
        if all(max(pf.of(v) for v in members) % 2 == 0 for pf in objectives):
            good.append((bits, members))
    return good


def brute_force_gen_parity_region(
        g: GameGraph, objectives: Sequence[PriorityFunction]) -> np.ndarray:
    """Player-0 region for a conjunction of parity objectives, by brute
    force; see the module docstring for the construction."""
    n = g.vertex_count
    if n > 12:
        raise OracleSizeError("brute-force oracle capped at 12 vertices, got %d" % n)
    if isinstance(objectives, PriorityFunction):
        objectives = [objectives]
    objectives = list(objectives)
    if not objectives:
        raise ValueError("need at least one objective")
    for pf in objectives:
        if len(pf) != n:
            raise ValueError("priority function does not cover the vertex set")

    candidate_subsets = _even_max_subsets(n, objectives)
    region = np.ones(n, dtype=np.bool_)
    for tau in _player1_strategies(g):
        succ_bits = [0] * n
        for v in g.vertices():
            if g.owner_of(v) == PLAYER1:
                succ_bits[v] = 1 << tau[v]
            else:
                for t in g.successors(v):
                    succ_bits[v] |= 1 << int(t)
        good_vertices = 0
        for bits, members in candidate_subsets:
            if bits & good_vertices == bits:
                continue  # members all marked already; nothing to gain
            if any(succ_bits[v] & bits == 0 for v in members):
                continue
            # strong connectivity of the induced subgraph: everything
            # reachable from one member, forwards and backwards
            start = members[0]
            fwd = 1 << start
            while True:
                grown = fwd
                for v in members:
                    if fwd >> v & 1:
                        grown |= succ_bits[v] & bits
                if grown == fwd:
                    break
                fwd = grown
            bwd = 1 << start
            while True:
                grown = bwd
                for v in members:
                    if succ_bits[v] & bwd and bits >> v & 1:
                        grown |= 1 << v
                if grown == bwd:
                    break
                bwd = grown
            if fwd == bits and bwd == bits:
                good_vertices |= bits
        # player 0 wins from v iff some good subset is reachable in the
        # fixed graph (every path is realizable: only player 0 branches)
        win = good_vertices
        while True:
            grown = win
            for v in range(n):
                if succ_bits[v] & win:
                    grown |= 1 << v
            if grown == win:
                break
            win = grown
        region &= np.array([bool(win >> v & 1) for v in range(n)])
        if not region.any():
            break
    return region


def _plays_all_satisfy(g: GameGraph, sigma: dict[int, int],
                       objective) -> np.ndarray:
    """Vertices from which every play under the fixed player-0 strategy
    satisfies the objective (a PriorityFunction, or a safe vertex mask)."""
    n = g.vertex_count
    owners = [PLAYER1] * n
    succs = []
    for v in g.vertices():
        if g.owner_of(v) == PLAYER0:
            succs.append([sigma[v]])
        else:
            succs.append([int(t) for t in g.successors(v)])
    fixed = GameGraph.from_lists(owners, succs)
    if isinstance(objective, PriorityFunction):
        return zielonka_regions(fixed, objective).w0_mask
    safe = g.mask_of(objective)
    bad = ~safe
    reach_bad = bad.copy()
    changed = True
    while changed:
        changed = False
        for v in range(n):
            if not reach_bad[v] and any(reach_bad[t] for t in succs[v]):
                reach_bad[v] = True
                changed = True
    return ~reach_bad


def enumerate_winning_positional(
        g: GameGraph, objective) -> tuple[np.ndarray, frozenset]:
    """All winning player-0 positional strategies, by enumeration.

    objective: a PriorityFunction (parity) or a vertex set (safety).
    Returns (w0_mask, strategies) where each strategy is the frozenset
    of its (vertex, successor) choices restricted to W0; choices outside
    the winning region never matter for plays that start inside it.
    """
    n = g.vertex_count
    if n > 7:
        raise OracleSizeError("strategy enumeration capped at 7 vertices, got %d" % n)
    p0 = [v for v in g.vertices() if g.owner_of(v) == PLAYER0]
    pools = [[int(t) for t in g.successors(v)] for v in p0]
    results: list[tuple[dict[int, int], np.ndarray]] = []
    w0 = np.zeros(n, dtype=np.bool_)
    for picks in itertools.product(*pools):
        sigma = dict(zip(p0, picks))
        wins = _plays_all_satisfy(g, sigma, objective)
        results.append((sigma, wins))
        w0 |= wins
    winning = set()
    for sigma, wins in results:
        if np.all(wins[w0]):
            winning.add(frozenset((v, sigma[v]) for v in p0 if w0[v]))
    return w0, frozenset(winning)


def _build_product(g: GameGraph, s: Strategy, start: Sequence[int],
                   state_limit: int):
    """Reachable (vertex, cursor vector) product under the strategy.

    Returns (states, succs, initial) where states[i] = (v, cursors),
    succs[i] lists successor state indices, and initial maps each start
    vertex to its state index.
    """
    dom = [int(v) for v in s.domain_vertices()]
    dom_index = {v: i for i, v in enumerate(dom)}
    base = s.cursor_state()
    dst = g.edge_targets

    states: list[tuple[int, tuple[int, ...]]] = []
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    succs: list[list[int]] = []

    def intern(v: int, cursors: tuple[int, ...]) -> int:
        key = (v, cursors)
        got = index.get(key)
        if got is not None:
            return got
        if len(states) >= state_limit:
            raise ProductLimitError(
                "strategy product exceeded %d states" % state_limit)
        index[key] = len(states)
        states.append(key)
        succs.append([])
        return index[key]

    initial = {int(v): intern(int(v), base) for v in start}
    frontier = list(initial.values())
    seen_expanded = set()
    while frontier:
        i = frontier.pop()
        if i in seen_expanded:
            continue
        seen_expanded.add(i)
        v, cursors = states[i]
        if g.owner_of(v) == PLAYER0:
            ids = s.allowed_ids(v)
            if ids.size == 0:
                raise StrategyDomainError(
                    "reachable player-0 vertex %s has no move" % g.name_of(v))
            k = cursors[dom_index[v]] % ids.size
            target = int(dst[ids[k]])
            nxt = list(cursors)
            nxt[dom_index[v]] = (k + 1) % ids.size
            j = intern(target, tuple(nxt))
            succs[i].append(j)
            frontier.append(j)
        else:
            for t_ in g.successors(v):
                j = intern(int(t_), cursors)
                succs[i].append(j)
                frontier.append(j)
    return states, succs, initial


def _find_odd_lasso(states, succs, init: int, prios: list[int]) -> Lasso:
    """A reachable cycle whose maximal priority is odd, as a lasso."""
    # BFS tree from the initial state
    parent = {init: -1}
    queue = [init]
    order = []
    while queue:
        i = queue.pop(0)
        order.append(i)
        for j in succs[i]:
            if j not in parent:
                parent[j] = i
                queue.append(j)

    def path_to(i: int) -> list[int]:
        out = []
        while i != -1:
            out.append(i)
            i = parent[i]
        return out[::-1]

    for pivot in order:
        p = prios[pivot]
        if p % 2 == 0:
            continue
        # cycle through pivot using only states of priority <= p
        seen = {pivot: -1}
        q = [pivot]
        hit = None
        while q and hit is None:
            i = q.pop(0)
            for j in succs[i]:
                if prios[j] > p:
                    continue
                if j == pivot:
                    hit = i
                    break
                if j not in seen:
                    seen[j] = i
                    q.append(j)
        if hit is None:
            continue
        back = []
        i = hit
        while i != -1:
            back.append(i)
            i = seen[i]
        cycle = back[::-1]  # pivot ... hit
        prefix = path_to(pivot)[:-1]
        return Lasso(tuple(states[i][0] for i in prefix),
                     tuple(states[i][0] for i in cycle))
    raise AssertionError("losing verdict without an odd reachable cycle")


def _exact_verdict(g: GameGraph, s: Strategy, objectives,
                   start=None, state_limit: int = 100_000) -> Verdict:
    """verify_strategy by brute force on the (vertex, cursor vector)
    product.  Exponential in the domain size; only for small instances
    and for cross-checking the limit analysis.
    """
    objectives, start_ids = _checked_args(g, s, objectives, start)
    states, succs, initial = _build_product(g, s, start_ids, state_limit)
    product = GameGraph.from_lists([1] * len(states),
                                   [sorted(set(js)) for js in succs])
    win_all = np.ones(len(states), dtype=np.bool_)
    per_objective = []
    for pf in objectives:
        prod_pf = PriorityFunction([pf.of(v) for v, _ in states],
                                   max_priority=pf.max_priority)
        w0 = zielonka_regions(product, prod_pf).w0_mask
        per_objective.append((prod_pf, w0))
        win_all &= w0

    winning = frozenset(v for v in start_ids if win_all[initial[v]])
    counterexample = None
    for v in start_ids:
        if v in winning:
            continue
        for prod_pf, w0 in per_objective:
            if not w0[initial[v]]:
                counterexample = _find_odd_lasso(
                    states, succs, initial[v],
                    [prod_pf.of(i) for i in range(len(states))])
                break
        break
    return Verdict(frozenset(start_ids), winning, counterexample)
