"""Fault-tolerant strategy adaptation: react to player-0 edges that can
become unavailable at runtime.

The cheap path treats the faulty edges as unsafe: if the template stays
conflict-free, the old solution still works and nothing is re-solved.
Otherwise the faulty edges are deleted and the parity game is solved
again; vertices left without successors get a synthetic self-loop with
the top odd priority, which makes them losing, consistent with "no
action available".

For intermittent faults (edges that come and go), OnlineStrategy picks
moves per step from whatever is currently available, preferring
live-group edges in rotation; the guaranteed-availability check of
gaf_tolerant is the sufficient condition for it to never get stuck.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import Edge, GameGraph, PLAYER0, PriorityFunction
from .solvers import parity_template
from .strategy import StrategyDomainError, _rotation
from .template import StrategyTemplate, _edge_mask, find_conflicts

CSV_HEADER = "faultFraction,trials,conflictRate,meanConflictVertexFraction"


class OnlineStrategyError(RuntimeError):
    """No playable edge is available at the current step."""


def _fault_mask(g: GameGraph, faulty) -> np.ndarray:
    mask = _edge_mask(g, faulty)
    ids = np.flatnonzero(mask)
    bad = ids[g.owners[g.edge_sources()[ids]] != PLAYER0]
    if bad.size:
        raise ValueError(
            "faulty edges must be player-0-sourced: %s"
            % sorted(g.edge_of(int(e)) for e in bad))
    return mask


def _with_unsafe(g: GameGraph, t: StrategyTemplate, unsafe: np.ndarray) -> StrategyTemplate:
    """The template with the edges of a mask added to its unsafe set."""
    return StrategyTemplate(g, t.unsafe_mask | unsafe, t.colive_mask,
                            t.group_off, t.group_ids, t.region_mask)


def delete_edges(g: GameGraph, priorities: PriorityFunction,
                 edges) -> tuple[GameGraph, PriorityFunction, np.ndarray]:
    """Remove edges; repair resulting dead ends with a losing self-loop.

    Returns (new graph, adjusted priorities, repaired vertex ids).  A
    repaired vertex keeps only a fresh self-loop and gets the top odd
    priority, so it is winning for player 1, matching the reading that
    a vertex with no action left is lost.
    """
    remove = _edge_mask(g, edges)
    keep = ~remove
    src = g.edge_sources()
    kept_src = src[keep]
    kept_dst = g.edge_targets[keep]
    deg = np.bincount(kept_src, minlength=g.vertex_count)
    dead = np.flatnonzero(deg == 0)
    if dead.size:
        starts = np.zeros(g.vertex_count, dtype=np.int64)
        np.cumsum(deg[:-1], out=starts[1:])
        kept_dst = np.insert(kept_dst, starts[dead], dead)
        deg = deg.copy()
        deg[dead] = 1
    off = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(deg, out=off[1:])
    g2 = GameGraph(g.owners, off, kept_dst, g.names)
    vals = priorities.values.copy()
    declared = priorities.max_priority
    if dead.size:
        top = priorities.odd_ceiling()
        vals[dead] = top
        declared = top
    return g2, PriorityFunction(vals, declared), dead


def fault_correction(g: GameGraph, priorities: PriorityFunction,
                     t: StrategyTemplate, faulty) -> StrategyTemplate:
    """Adapt a template to permanently faulty edges.

    Fast path: add the faulty edges to the unsafe set; if that stays
    conflict-free, return it (no re-solve, same region).  Slow path:
    delete the edges and solve the parity game again; the returned
    template is then bound to the pruned graph (template.graph).
    """
    mask = _fault_mask(g, faulty)
    if not mask.any():
        return t
    patched = _with_unsafe(g, t, mask)
    if find_conflicts(g, patched).is_conflict_free:
        return patched
    g2, p2, _ = delete_edges(g, priorities, mask)
    return parity_template(g2, p2).template


def gaf_tolerant(g: GameGraph, t: StrategyTemplate,
                 faulty) -> tuple[bool, frozenset[int]]:
    """Sufficient condition for surviving intermittent faults: every
    player-0 vertex of the region keeps an edge into the region that is
    neither unsafe, co-live, nor fallible: none is a dead vertex of the
    template with the fallible edges marked unsafe.  Returns (ok,
    offending vertices)."""
    dead = find_conflicts(g, _with_unsafe(g, t, _fault_mask(g, faulty))).dead_vertices
    return not dead, dead


class OnlineStrategy:
    """Per-step strategy under intermittent edge availability.

    At each visit of v, plays the next available live-group edge in
    rotation; when no live edge is available, any available allowed
    edge.  Construction requires the gaf_tolerant check to pass, which
    rules out getting permanently stuck on traces that only drop the
    declared faulty edges.
    """

    __slots__ = ("graph", "template", "_off", "_order", "_nlive", "_cursor")

    def __init__(self, g: GameGraph, t: StrategyTemplate, faulty=()):
        ok, offending = gaf_tolerant(g, t, faulty)
        if not ok:
            raise ValueError(
                "template cannot tolerate these faults; stuck at vertices %s"
                % sorted(offending))
        off, order, live = _rotation(g, t)
        nlive = np.bincount(g.edge_sources()[order[live]], minlength=g.vertex_count)
        self.graph = g
        self.template = t
        self._off = off
        self._order = order
        self._nlive = nlive
        self._cursor = np.zeros(g.vertex_count, dtype=np.int64)

    def allowed(self, v: int) -> list[Edge]:
        ids = self._order[self._off[v]:self._off[v + 1]]
        return [self.graph.edge_of(int(e)) for e in ids]

    def move(self, v: int, available=None) -> Edge:
        """Play one step from v given the currently available edges
        (None means all).  Raises OnlineStrategyError when nothing
        allowed is available."""
        g = self.graph
        ids = self._order[self._off[v]:self._off[v + 1]]
        if ids.size == 0:
            raise StrategyDomainError("no move at vertex %s" % g.name_of(v))
        if available is None:
            avail = None
        else:
            avail = _edge_mask(g, available)
        nlive = int(self._nlive[v])
        for k in range(nlive):
            idx = (int(self._cursor[v]) + k) % nlive
            eid = int(ids[idx])
            if avail is None or avail[eid]:
                self._cursor[v] = (idx + 1) % nlive
                return g.edge_of(eid)
        for eid in ids[nlive:] if nlive else ids:
            if avail is None or avail[int(eid)]:
                return g.edge_of(int(eid))
        raise OnlineStrategyError(
            "no allowed edge available at vertex %s" % g.name_of(v))

    def cursor_state(self) -> tuple[int, ...]:
        dom = np.flatnonzero(self._nlive > 0)
        return tuple(int(c) for c in self._cursor[dom])

    def set_cursor_state(self, state: Sequence[int]) -> None:
        dom = np.flatnonzero(self._nlive > 0)
        if len(state) != len(dom):
            raise ValueError("cursor state length does not match")
        self._cursor[dom] = np.asarray(state, dtype=np.int64)


@dataclass(frozen=True)
class FaultStats:
    """One Monte-Carlo row: how often random fault sets of a given size
    conflict with the template, and how much of the graph they hit."""
    fault_fraction: float
    trials: int
    conflict_rate: float
    mean_conflict_vertex_fraction: float

    def csv_row(self) -> str:
        return "%g,%d,%g,%g" % (self.fault_fraction, self.trials,
                                self.conflict_rate,
                                self.mean_conflict_vertex_fraction)


def simulate_fault_conflicts(g: GameGraph, priorities: PriorityFunction,
                             fault_fraction: float, trials: int, seed: int,
                             template: StrategyTemplate | None = None) -> FaultStats:
    """Sample fault sets of the given relative size among player-0 edges
    (without replacement) and report the conflict statistics.

    Each trial draws from its own substream, default_rng([seed, trial]),
    so results are reproducible and trials are order-independent.
    """
    if not 0.0 <= fault_fraction <= 1.0:
        raise ValueError("fault fraction must be within [0, 1]")
    if template is None:
        template = parity_template(g, priorities).template
    p0_edges = np.flatnonzero(g.owners[g.edge_sources()] == PLAYER0)
    k = math.ceil(fault_fraction * p0_edges.size)
    conflicts = 0
    vertex_fractions = []
    n = g.vertex_count
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        picked = np.zeros(g.edge_count, dtype=np.bool_)
        picked[rng.choice(p0_edges, size=k, replace=False)] = True
        hit = find_conflicts(g, _with_unsafe(g, template, picked)).all_vertices
        if hit:
            conflicts += 1
        vertex_fractions.append(len(hit) / n)
    return FaultStats(fault_fraction, trials, conflicts / max(trials, 1),
                      float(np.mean(vertex_fractions)) if vertex_fractions else 0.0)
