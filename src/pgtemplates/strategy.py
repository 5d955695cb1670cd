"""Strategy extraction from conflict-free templates, plus a verifier
that checks extracted strategies against parity objectives.

An extracted strategy keeps, for every player-0 vertex of the winning
region, the template-allowed edges in a fixed rotation order
(live-group edges first) and one cursor per vertex.  Each visit plays
the cursor edge and advances the cursor, so every allowed edge recurs
on every vertex that recurs; that is the only memory a template needs.

verify_strategy analyzes limit behavior instead of unrolling cursor
states.  In any infinite play of the rotation, the set I of vertices
visited infinitely often is a strongly connected player-0 trap of the
allowed-edge graph: rotation fairness forces every allowed edge out of
I to be taken again and again, so all its targets lie in I.
Conversely, every reachable such trap is realizable in the limit,
whatever the cursors say, because round-robin walks cover strongly
connected graphs.  The strategy therefore wins an objective from a
vertex exactly when no trap with an odd maximal priority is reachable
from it; that is decided per objective by peeling SCCs, in linear time
and without the exponential cursor product.

A "not winning" verdict comes with a lasso over allowed edges.  The
lasso always witnesses a violation by some strategy that obeys the same
edge constraints; the exact rotation order could dodge a particular
lasso only by never reaching it, which cannot happen when the template
behind the strategy is sound.  The exact cursor product, exponential
in the domain size, is reference code and lives in the oracle module
(``oracle._exact_verdict``), which the tests compare this verifier
against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Edge, GameGraph, PLAYER0, PriorityFunction
from .template import ConflictError, StrategyTemplate, find_conflicts


class StrategyDomainError(ValueError):
    """A reachable player-0 vertex has no move under the strategy."""


class Strategy:
    """Round-robin strategy over template-allowed edges.

    Mutable only through move/reset/set_cursor_state; everything else
    is fixed at extraction time.
    """

    __slots__ = ("graph", "region_mask", "_off", "_order", "_live", "_cursor")

    def __init__(self, graph: GameGraph, off: np.ndarray, order: np.ndarray,
                 live: np.ndarray, region_mask: np.ndarray):
        self.graph = graph
        self.region_mask = region_mask
        self._off = off
        self._order = order
        self._live = live
        self._cursor = np.zeros(graph.vertex_count, dtype=np.int64)

    def domain_vertices(self) -> np.ndarray:
        """Vertices with at least one allowed edge, ascending."""
        return np.flatnonzero(np.diff(self._off) > 0)

    def has_move(self, v: int) -> bool:
        return self._off[v + 1] > self._off[v]

    def allowed_ids(self, v: int) -> np.ndarray:
        """Allowed edge ids at v in rotation order."""
        return self._order[self._off[v]:self._off[v + 1]]

    def allowed(self, v: int) -> list[Edge]:
        return [self.graph.edge_of(int(e)) for e in self.allowed_ids(v)]

    def live_flags(self, v: int) -> np.ndarray:
        """Parallel to allowed_ids(v): True where the edge is in a live-group."""
        return self._live[self._off[v]:self._off[v + 1]]

    def peek(self, v: int) -> Edge:
        """The edge the next move(v) will play, without advancing."""
        ids = self.allowed_ids(v)
        if ids.size == 0:
            raise StrategyDomainError("no move at vertex %s" % self.graph.name_of(v))
        return self.graph.edge_of(int(ids[self._cursor[v] % ids.size]))

    def move(self, v: int) -> Edge:
        """Play the cursor edge at v and advance the cursor."""
        ids = self.allowed_ids(v)
        if ids.size == 0:
            raise StrategyDomainError("no move at vertex %s" % self.graph.name_of(v))
        k = int(self._cursor[v]) % ids.size
        self._cursor[v] = (k + 1) % ids.size
        return self.graph.edge_of(int(ids[k]))

    def reset(self) -> None:
        self._cursor[:] = 0

    def cursor_state(self) -> tuple[int, ...]:
        """Cursors of the domain vertices, in domain order."""
        return tuple(int(c) for c in self._cursor[self.domain_vertices()])

    def set_cursor_state(self, state: Sequence[int]) -> None:
        dom = self.domain_vertices()
        if len(state) != len(dom):
            raise ValueError("cursor state length does not match domain size")
        self._cursor[dom] = np.asarray(state, dtype=np.int64)

    def __repr__(self) -> str:
        return "Strategy(domain=%d vertices)" % len(self.domain_vertices())


def _rotation(g: GameGraph, t: StrategyTemplate):
    """The template's allowed edges as a CSR by source, in rotation
    order: live-group edges first, then by edge id.

    Returns (offsets, ordered edge ids, live flag per ordered edge).
    """
    src = g.edge_sources()
    live_edge = np.zeros(g.edge_count, dtype=np.bool_)
    live_edge[t.group_ids] = True
    ids = np.flatnonzero(t.allowed_mask())
    not_live = (~live_edge[ids]).astype(np.int8)
    order = ids[np.lexsort((ids, not_live, src[ids]))]
    counts = np.bincount(src[ids], minlength=g.vertex_count)
    off = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off, order, live_edge[order]


def extract_strategy(g: GameGraph, t: StrategyTemplate) -> Strategy:
    """Turn a conflict-free template into an executable strategy.

    Allowed edges per player-0 vertex of the region are those of
    StrategyTemplate.allowed_mask, live-group edges first.  Raises
    ConflictError (carrying the report) when the template has a stuck
    or starved vertex.
    """
    report = find_conflicts(g, t)
    if not report.is_conflict_free:
        raise ConflictError(report)
    off, order, live = _rotation(g, t)
    return Strategy(g, off, order, live, t.region_mask.copy())


@dataclass(frozen=True)
class Lasso:
    """A concrete losing play: follow prefix, then repeat cycle forever."""
    prefix: tuple[int, ...]
    cycle: tuple[int, ...]


@dataclass(frozen=True)
class Verdict:
    """Outcome of verify_strategy for a set of queried start vertices."""
    queried: frozenset[int]
    winning_from: frozenset[int]
    counterexample: Lasso | None

    @property
    def is_winning(self) -> bool:
        return self.counterexample is None

    @property
    def losing_from(self) -> frozenset[int]:
        return self.queried - self.winning_from


def _checked_args(g: GameGraph, s: Strategy, objectives, start):
    if isinstance(objectives, PriorityFunction):
        objectives = [objectives]
    objectives = list(objectives)
    if not objectives:
        raise ValueError("need at least one objective")
    for pf in objectives:
        if len(pf) != g.vertex_count:
            raise ValueError("priority function does not cover the vertex set")
    if start is None:
        start_ids = sorted(int(v) for v in np.flatnonzero(s.region_mask))
    else:
        start_ids = sorted(int(v) for v in np.flatnonzero(g.mask_of(start)))
    return objectives, start_ids


def _allowed_successors(g: GameGraph, s: Strategy) -> list[list[int]]:
    """Successor lists of the allowed-edge graph: the strategy's edges
    for player 0, every graph edge for player 1."""
    dst = g.edge_targets
    out: list[list[int]] = []
    for v in range(g.vertex_count):
        if g.owner_of(v) == PLAYER0:
            out.append([int(dst[e]) for e in s.allowed_ids(v)])
        else:
            out.append([int(t) for t in g.successors(v)])
    return out


def _reachable_allowed(g: GameGraph, succ, start_ids) -> set[int]:
    seen = set(start_ids)
    stack = list(start_ids)
    while stack:
        v = stack.pop()
        if g.owner_of(v) == PLAYER0 and not succ[v]:
            raise StrategyDomainError(
                "reachable player-0 vertex %s has no move" % g.name_of(v))
        for t in succ[v]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _components(succ, sub: set) -> list[list[int]]:
    """Strongly connected components of the subgraph induced by sub
    (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on: set[int] = set()
    trail: list[int] = []
    comps: list[list[int]] = []
    for root in sub:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, next_child = work[-1]
            if next_child == 0:
                index[v] = low[v] = len(index)
                trail.append(v)
                on.add(v)
            descended = False
            kids = succ[v]
            while next_child < len(kids):
                t = kids[next_child]
                next_child += 1
                if t not in sub:
                    continue
                if t not in index:
                    work[-1] = (v, next_child)
                    work.append((t, 0))
                    descended = True
                    break
                if t in on:
                    low[v] = min(low[v], index[t])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = trail.pop()
                    on.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                comps.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def _bad_limit_sets(succ, owners, pf: PriorityFunction, sub: set):
    """Strongly connected player-0 traps of the allowed-edge graph with
    an odd maximal priority, within sub.

    Returns (bad, witnesses) where bad is the union of the maximal such
    traps and witnesses lists (members, pivot) pairs, the pivot being a
    vertex of maximal (odd) priority in its trap.  Every violating trap
    is contained in one of the recorded ones, so reaching bad is
    necessary and sufficient for losing.
    """
    bad: set[int] = set()
    witnesses: list[tuple[set[int], int]] = []
    queue: list[set[int]] = [set(sub)]
    while queue:
        for comp in _components(succ, queue.pop()):
            members = set(comp)
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            escaping = [v for v in comp
                        if owners[v] == PLAYER0
                        and any(t not in members for t in succ[v])]
            if escaping:
                rest = members.difference(escaping)
                if rest:
                    queue.append(rest)
                continue
            top = max(pf.of(v) for v in comp)
            if top % 2 == 1:
                bad |= members
                pivot = min(v for v in comp if pf.of(v) == top)
                witnesses.append((members, pivot))
            else:
                rest = {v for v in comp if pf.of(v) < top}
                if rest:
                    queue.append(rest)
    return bad, witnesses


def _limit_lasso(succ, start: int, witnesses) -> Lasso:
    """A lasso from start into a recorded trap, cycling through its
    pivot; the cycle's maximal priority is the pivot's, which is odd."""
    parent = {start: -1}
    order = [start]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for t in succ[v]:
            if t not in parent:
                parent[t] = v
                order.append(t)
    hit = next((w for w in witnesses if w[1] in parent), None)
    if hit is None:
        raise AssertionError("losing start does not reach any trap")
    members, pivot = hit

    path = []
    v = pivot
    while v != -1:
        path.append(v)
        v = parent[v]
    prefix = path[::-1][:-1]

    back = {pivot: -1}
    q = [pivot]
    i = 0
    while i < len(q):
        v = q[i]
        i += 1
        for t in succ[v]:
            if t == pivot:
                cyc = [v]
                while back[v] != -1:
                    v = back[v]
                    cyc.append(v)
                return Lasso(tuple(prefix), tuple(cyc[::-1]))
            if t in members and t not in back:
                back[t] = v
                q.append(t)
    raise AssertionError("trap pivot is not on a cycle")


def verify_strategy(g: GameGraph, s: Strategy, objectives,
                    start=None) -> Verdict:
    """Check that the strategy wins every given parity objective from
    every start vertex (default: the strategy's whole region).

    Decision: a start vertex loses an objective exactly when it reaches,
    along allowed edges, a strongly connected player-0 trap whose
    maximal priority is odd; the module docstring explains why those
    traps are precisely the limit sets the rotation can be forced into.
    On failure the verdict carries a lasso over allowed edges that
    violates some objective.
    """
    objectives, start_ids = _checked_args(g, s, objectives, start)
    succ = _allowed_successors(g, s)
    reach = _reachable_allowed(g, succ, start_ids)
    owners = g.owners

    preds: dict[int, list[int]] = {v: [] for v in reach}
    for v in reach:
        for t in succ[v]:
            preds[t].append(v)

    per_objective = []
    for pf in objectives:
        bad, witnesses = _bad_limit_sets(succ, owners, pf, reach)
        losing = set(bad)
        stack = list(bad)
        while stack:
            v = stack.pop()
            for u in preds[v]:
                if u not in losing:
                    losing.add(u)
                    stack.append(u)
        per_objective.append((losing, witnesses))

    winning = frozenset(v for v in start_ids
                        if all(v not in losing for losing, _ in per_objective))
    counterexample = None
    for v in start_ids:
        if v in winning:
            continue
        for losing, witnesses in per_objective:
            if v in losing:
                counterexample = _limit_lasso(succ, v, witnesses)
                break
        break
    return Verdict(frozenset(start_ids), winning, counterexample)
