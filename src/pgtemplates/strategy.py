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
from it; that is decided by peeling SCCs, without the exponential
cursor product.

The peeling has two steps.  The escape peel takes the SCCs, drops the
player-0 vertices with an allowed edge leaving their SCC (they cannot
recur in a limit set inside it) and repeats on the rest, until every
SCC left is closed.  It never reads a priority, so the closed traps it
yields are the same for every objective, and verify_strategy computes
them once per call.  Per objective only the priority step remains: a
closed trap whose top priority is odd is bad; one whose top priority
is even loses its top-priority vertices (a limit set through one of
them has an even top and is won), and the rest goes through both
steps again.  A start
vertex loses exactly when it reaches a bad trap of some objective.

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

from .graph import Edge, GameGraph, PLAYER0, PriorityFunction, _csr_order
from .template import ConflictError, StrategyTemplate, find_conflicts


class StrategyDomainError(ValueError):
    """A reachable player-0 vertex has no move under the strategy."""


class Strategy:
    """Round-robin strategy over template-allowed edges.

    Mutable only through move/reset/set_cursor_state; everything else
    is fixed at extraction time.
    """

    __slots__ = ("graph", "region_mask", "_off", "_order", "_cursor")

    def __init__(self, graph: GameGraph, off: np.ndarray, order: np.ndarray,
                 region_mask: np.ndarray):
        self.graph = graph
        self.region_mask = region_mask
        self._off = off
        self._order = order
        self._cursor = np.zeros(graph.vertex_count, dtype=np.int64)

    def domain_vertices(self) -> np.ndarray:
        """Vertices with at least one allowed edge, ascending."""
        return np.flatnonzero(np.diff(self._off) > 0)

    def allowed_ids(self, v: int) -> np.ndarray:
        """Allowed edge ids at v in rotation order."""
        return self._order[self._off[v]:self._off[v + 1]]

    def allowed(self, v: int) -> list[Edge]:
        return [self.graph.edge_of(int(e)) for e in self.allowed_ids(v)]

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
    off, order, _ = _rotation(g, t)
    return Strategy(g, off, order, t.region_mask.copy())


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
    mask = s.region_mask if start is None else g.mask_of(start)
    return objectives, np.flatnonzero(mask).tolist()


class _AllowedGraph:
    """The allowed-edge graph as flat Python lists, plus the scratch
    arrays of its SCC search, built once per verify_strategy call.

    A player-0 vertex keeps the strategy's edges in rotation order, a
    player-1 vertex every graph edge.  off/dst are the successor CSR;
    the SCC search marks the vertex set it works on with a fresh tag and
    tells visited vertices by an index at or above the search's base, so
    no per-search array is cleared or allocated.
    """

    __slots__ = ("off", "dst", "player0", "loop", "_src", "_targets",
                 "_tag", "_tags", "_index", "_low", "_on", "_next_edge",
                 "_clock")

    def __init__(self, g: GameGraph, s: Strategy):
        n = g.vertex_count
        p0 = g.owners == PLAYER0
        s_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(s._off))
        g_src = g.edge_sources()
        mine = p0[s_src]
        theirs = ~p0[g_src]
        src = np.concatenate((s_src[mine], g_src[theirs]))
        ids = np.concatenate((s._order[mine], np.flatnonzero(theirs)))
        by_source = np.argsort(src, kind="stable")
        self._src = src[by_source]
        self._targets = g.edge_targets[ids[by_source]]
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._src, minlength=n), out=off[1:])
        loop = np.zeros(n, dtype=np.bool_)
        loop[self._src[self._src == self._targets]] = True
        self.off = off.tolist()
        self.dst = self._targets.tolist()
        self.player0 = p0.tolist()
        self.loop = loop.tolist()
        self._tag = [0] * n
        self._tags = 0
        self._index = [-1] * n
        self._low = [0] * n
        self._on = [False] * n
        self._next_edge = [0] * n
        self._clock = 0

    def reach(self, g: GameGraph, start_ids) -> list[int]:
        """Vertices reachable from start_ids.  Raises StrategyDomainError
        at the first reached player-0 vertex without a move, in
        depth-first order."""
        off, dst, p0 = self.off, self.dst, self.player0
        seen = [False] * len(p0)
        for v in start_ids:
            seen[v] = True
        reached = list(start_ids)
        stack = list(start_ids)
        while stack:
            v = stack.pop()
            lo, hi = off[v], off[v + 1]
            if p0[v] and lo == hi:
                raise StrategyDomainError(
                    "reachable player-0 vertex %s has no move" % g.name_of(v))
            for t in dst[lo:hi]:
                if not seen[t]:
                    seen[t] = True
                    reached.append(t)
                    stack.append(t)
        return reached

    def _fresh_tag(self, vertices) -> int:
        self._tags += 1
        tag = self._tag
        for v in vertices:
            tag[v] = self._tags
        return self._tags

    def _components(self, part, mark: int) -> list[list[int]]:
        """Strongly connected components of the subgraph induced by the
        vertices tagged mark (iterative Tarjan, roots taken from part)."""
        off, dst, tag = self.off, self.dst, self._tag
        index, low, on, nxt = self._index, self._low, self._on, self._next_edge
        base = clock = self._clock
        trail: list[int] = []
        comps: list[list[int]] = []
        for root in part:
            if index[root] >= base:
                continue
            index[root] = low[root] = clock
            clock += 1
            nxt[root] = off[root]
            trail.append(root)
            on[root] = True
            work = [root]
            while work:
                v = work[-1]
                i, end, lv = nxt[v], off[v + 1], low[v]
                while i < end:
                    t = dst[i]
                    i += 1
                    if tag[t] != mark:
                        continue
                    it = index[t]
                    if it < base:
                        nxt[v] = i
                        low[v] = lv
                        index[t] = low[t] = clock
                        clock += 1
                        nxt[t] = off[t]
                        trail.append(t)
                        on[t] = True
                        work.append(t)
                        break
                    if on[t] and it < lv:
                        lv = it
                else:
                    work.pop()
                    low[v] = lv
                    if lv == index[v]:
                        comp = []
                        while True:
                            u = trail.pop()
                            on[u] = False
                            comp.append(u)
                            if u == v:
                                break
                        comps.append(comp)
                    if work and lv < low[work[-1]]:
                        low[work[-1]] = lv
        self._clock = clock
        return comps

    def closed_traps(self, part) -> list[list[int]]:
        """The escape peel: the strongly connected player-0 traps within
        the vertex list part.  Takes the SCCs (dropping single vertices
        without a self-loop), removes the player-0 vertices with an
        allowed edge leaving their SCC, and repeats on what is left; an
        SCC without such a vertex is a trap.  Reads no priority."""
        off, dst, p0, loop, tag = self.off, self.dst, self.player0, self.loop, self._tag
        traps: list[list[int]] = []
        queue = [part]
        while queue:
            part = queue.pop()
            for comp in self._components(part, self._fresh_tag(part)):
                if len(comp) == 1 and not loop[comp[0]]:
                    continue
                mark = self._fresh_tag(comp)
                rest = []
                for v in comp:
                    if p0[v]:
                        for t in dst[off[v]:off[v + 1]]:
                            if tag[t] != mark:
                                break
                        else:
                            rest.append(v)
                    else:
                        rest.append(v)
                if len(rest) == len(comp):
                    traps.append(comp)
                elif rest:
                    queue.append(rest)
        return traps

    def reach_back(self, targets) -> list[bool]:
        """Membership list of the vertices with an allowed path to
        targets (targets included), over a predecessor CSR."""
        n = len(self.player0)
        pred_off, by_target = _csr_order(self._targets, n)
        pred_off = pred_off.tolist()
        pred_src = self._src[by_target].tolist()
        hit = [False] * n
        for v in targets:
            hit[v] = True
        stack = list(targets)
        while stack:
            v = stack.pop()
            for u in pred_src[pred_off[v]:pred_off[v + 1]]:
                if not hit[u]:
                    hit[u] = True
                    stack.append(u)
        return hit


def _bad_traps(graph: _AllowedGraph, traps, prio: list[int]):
    """The priority step of one objective on the shared closed traps.

    A trap with an odd top priority is bad, with pivot its least vertex
    of that priority; from a trap with an even top priority the
    top-priority vertices are removed and the rest is peeled again.
    Returns (members, pivot) pairs.  Every trap that violates the
    objective lies inside one of them, so reaching one is necessary
    and sufficient for losing.
    """
    witnesses: list[tuple[list[int], int]] = []
    queue = list(traps)
    while queue:
        trap = queue.pop()
        top = max(prio[v] for v in trap)
        if top % 2 == 1:
            witnesses.append((trap, min(v for v in trap if prio[v] == top)))
        else:
            rest = [v for v in trap if prio[v] < top]
            if rest:
                queue.extend(graph.closed_traps(rest))
    return witnesses


def _limit_lasso(graph: _AllowedGraph, start: int, witnesses) -> Lasso:
    """A lasso from start into the first recorded trap it reaches,
    cycling through that trap's pivot; the cycle's maximal priority is
    the pivot's, which is odd."""
    off, dst = graph.off, graph.dst
    parent = [-2] * len(graph.player0)
    parent[start] = -1
    order = [start]
    i = 0
    while i < len(order):
        v = order[i]
        i += 1
        for t in dst[off[v]:off[v + 1]]:
            if parent[t] == -2:
                parent[t] = v
                order.append(t)
    hit = next((w for w in witnesses if parent[w[1]] != -2), None)
    if hit is None:
        raise RuntimeError("losing start does not reach any trap")
    members, pivot = hit

    path = []
    v = pivot
    while v != -1:
        path.append(v)
        v = parent[v]
    prefix = path[::-1][:-1]

    inside = set(members)
    back = {pivot: -1}
    q = [pivot]
    i = 0
    while i < len(q):
        v = q[i]
        i += 1
        for t in dst[off[v]:off[v + 1]]:
            if t == pivot:
                cyc = [v]
                while back[v] != -1:
                    v = back[v]
                    cyc.append(v)
                return Lasso(tuple(prefix), tuple(cyc[::-1]))
            if t in inside and t not in back:
                back[t] = v
                q.append(t)
    raise RuntimeError("trap pivot is not on a cycle")


def verify_strategy(g: GameGraph, s: Strategy, objectives,
                    start=None) -> Verdict:
    """Check that the strategy wins every given parity objective from
    every start vertex (default: the strategy's whole region).

    Decision: a start vertex loses an objective exactly when it reaches,
    along allowed edges, a strongly connected player-0 trap whose
    maximal priority is odd; the module docstring explains why those
    traps are precisely the limit sets the rotation can be forced into,
    and why one escape peel serves every objective.  On failure the
    verdict carries a lasso over allowed edges that violates some
    objective.
    """
    objectives, start_ids = _checked_args(g, s, objectives, start)
    graph = _AllowedGraph(g, s)
    reach = graph.reach(g, start_ids)
    traps = graph.closed_traps(reach)
    witnesses = [w for pf in objectives
                 for w in _bad_traps(graph, traps, pf.values.tolist())]
    queried = frozenset(start_ids)
    if not witnesses:
        return Verdict(queried, queried, None)
    losing = graph.reach_back([v for members, _ in witnesses for v in members])
    winning = frozenset(v for v in start_ids if not losing[v])
    first = next(v for v in start_ids if losing[v])
    return Verdict(queried, winning, _limit_lasso(graph, first, witnesses))
