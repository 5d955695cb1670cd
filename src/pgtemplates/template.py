"""Strategy templates: edge predicates that carve out sets of winning
strategies, plus conjunction and conflict detection.

A template over a graph consists of

* unsafe edges, never to be taken,
* co-live edges, to be taken at most finitely often,
* live-groups: edge sets H such that whenever a play visits the
  sources of H infinitely often, it must take edges of H infinitely
  often,

together with the winning region the template was computed for.  Any
player-0 strategy obeying all three predicates from inside the region
wins the objective the producing solver was run with.

Templates from different objectives are combined with :func:`conjoin`;
the result may over-constrain some vertex, which :func:`find_conflicts`
detects (composition then resolves the conflicts by re-solving, see the
compose module).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import Edge, GameGraph, PLAYER0


def _checked_ids(g: GameGraph, ids: np.ndarray) -> np.ndarray:
    """The ids as int64, or ValueError if one lies outside [0, m)."""
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= g.edge_count):
        raise ValueError("edge id out of range")
    return ids


def _edge_ids(g: GameGraph, edges) -> np.ndarray:
    """Edge ids from (u, v) pairs, or from an integer id array.
    Raises KeyError for a pair that is no edge and ValueError for an id
    out of range."""
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu":
        return _checked_ids(g, edges)
    pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
    ids = g.edge_ids(pairs[:, 0], pairs[:, 1])
    missing = np.flatnonzero(ids < 0)
    if missing.size:
        u, v = pairs[missing[0]]
        raise KeyError((int(u), int(v)))
    return ids


def _edge_mask(g: GameGraph, edges) -> np.ndarray:
    """Boolean mask over edge ids from pairs, ids, or an existing mask."""
    if isinstance(edges, np.ndarray):
        if edges.dtype == np.bool_:
            if len(edges) != g.edge_count:
                raise ValueError("edge mask length does not match edge count")
            return edges.copy()
        ids = _edge_ids(g, edges)
    else:
        items = list(edges)
        pairs = [e for e in items if isinstance(e, tuple)]
        ids = _checked_ids(g, np.array(
            [int(e) for e in items if not isinstance(e, tuple)], dtype=np.int64))
        if pairs:
            ids = np.concatenate([ids, _edge_ids(g, pairs)])
    mask = np.zeros(g.edge_count, dtype=np.bool_)
    mask[ids] = True
    return mask


class LiveGroup:
    """A nonempty set of player-0 edges that must recur whenever their
    sources do.

    Edges with player-1 sources are dropped by :func:`live_group`
    before construction: player 0 cannot honor them, and the producing
    algorithms never need them.
    """

    __slots__ = ("graph", "_ids")

    def __init__(self, graph: GameGraph, edge_ids: np.ndarray):
        ids = np.unique(np.asarray(edge_ids, dtype=np.int64))
        if ids.size == 0:
            raise ValueError("a live-group needs at least one edge")
        src = graph.edge_sources()[ids]
        if not np.all(graph.owners[src] == PLAYER0):
            raise ValueError("live-group edges must have player-0 sources")
        ids.setflags(write=False)
        self.graph = graph
        self._ids = ids

    @property
    def edge_ids(self) -> np.ndarray:
        return self._ids

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self.graph.edge_of(int(e)) for e in self._ids)

    def source_mask(self) -> np.ndarray:
        mask = np.zeros(self.graph.vertex_count, dtype=np.bool_)
        mask[self.graph.edge_sources()[self._ids]] = True
        return mask

    @property
    def sources(self) -> frozenset[int]:
        return frozenset(int(v) for v in self.graph.edge_sources()[self._ids])

    def edges_from(self, v: int) -> list[Edge]:
        lo, hi = self.graph.edge_range(v)
        own = self._ids[(self._ids >= lo) & (self._ids < hi)]
        return [self.graph.edge_of(int(e)) for e in own]

    def __len__(self) -> int:
        return len(self._ids)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiveGroup):
            return NotImplemented
        return self.graph is other.graph and np.array_equal(self._ids, other._ids)

    __hash__ = None

    def __repr__(self) -> str:
        return "LiveGroup(%s)" % (sorted(self.edges),)


def live_group(g: GameGraph, edges) -> LiveGroup | None:
    """Build a live-group from edge pairs (or edge ids), dropping
    player-1-sourced edges; returns None when nothing remains."""
    ids = _edge_ids(g, edges)
    kept = ids[g.owners[g.edge_sources()[ids]] == PLAYER0]
    if not kept.size:
        return None
    return LiveGroup(g, kept)


class StrategyTemplate:
    """Immutable template value; combine with :func:`conjoin`."""

    __slots__ = ("graph", "_unsafe", "_colive", "_groups", "_region")

    def __init__(self, graph: GameGraph, unsafe: np.ndarray, colive: np.ndarray,
                 live_groups: Sequence[LiveGroup], region: np.ndarray):
        for lg in live_groups:
            if lg.graph is not graph:
                raise ValueError("live-group bound to a different graph")
        self.graph = graph
        self._unsafe = unsafe.copy()
        self._colive = colive.copy()
        self._groups = tuple(live_groups)
        self._region = region.copy()
        self._unsafe.setflags(write=False)
        self._colive.setflags(write=False)
        self._region.setflags(write=False)

    @classmethod
    def from_edges(cls, g: GameGraph, unsafe=(), colive=(), live_groups=(),
                   region=None) -> "StrategyTemplate":
        """Convenience constructor from edge pairs and a vertex set.

        region=None means the whole vertex set.  Live-groups may be
        given as LiveGroup values or as iterables of edge pairs
        (player-1-sourced edges are dropped, empty groups skipped).
        """
        groups: list[LiveGroup] = []
        for lg in live_groups:
            if not isinstance(lg, LiveGroup):
                lg = live_group(g, lg)
            if lg is not None:
                groups.append(lg)
        region_mask = (np.ones(g.vertex_count, dtype=np.bool_)
                       if region is None else g.mask_of(region))
        return cls(g, _edge_mask(g, unsafe), _edge_mask(g, colive),
                   groups, region_mask)

    @classmethod
    def unconstrained(cls, g: GameGraph) -> "StrategyTemplate":
        """The neutral template: no constraints, region = V."""
        return cls.from_edges(g)

    # -- mask views (kernel side) -----------------------------------------

    @property
    def unsafe_mask(self) -> np.ndarray:
        return self._unsafe

    @property
    def colive_mask(self) -> np.ndarray:
        return self._colive

    @property
    def region_mask(self) -> np.ndarray:
        return self._region

    def banned_mask(self) -> np.ndarray:
        return self._unsafe | self._colive

    def allowed_mask(self) -> np.ndarray:
        """The edges a compliant strategy may play: player-0 edges
        inside the region that are neither unsafe nor co-live.  The one
        definition that conflict checks, extraction and fault
        adaptation share."""
        g = self.graph
        src = g.edge_sources()
        return (self._region[src] & self._region[g.edge_targets]
                & ~self.banned_mask() & (g.owners[src] == PLAYER0))

    # -- value views --------------------------------------------------------

    @property
    def unsafe_edges(self) -> frozenset[Edge]:
        return frozenset(self.graph.edge_of(int(e))
                         for e in np.flatnonzero(self._unsafe))

    @property
    def colive_edges(self) -> frozenset[Edge]:
        return frozenset(self.graph.edge_of(int(e))
                         for e in np.flatnonzero(self._colive))

    @property
    def live_groups(self) -> tuple[LiveGroup, ...]:
        return self._groups

    @property
    def winning_region(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self._region))

    def __eq__(self, other) -> bool:
        """Content equality; live-group list order is irrelevant."""
        if not isinstance(other, StrategyTemplate):
            return NotImplemented
        if not (self.graph is other.graph or self.graph == other.graph):
            return False
        mine = {frozenset(int(e) for e in lg.edge_ids) for lg in self._groups}
        theirs = {frozenset(int(e) for e in lg.edge_ids) for lg in other._groups}
        return (np.array_equal(self._unsafe, other._unsafe)
                and np.array_equal(self._colive, other._colive)
                and np.array_equal(self._region, other._region)
                and mine == theirs)

    __hash__ = None

    def __repr__(self) -> str:
        return ("StrategyTemplate(|W0|=%d, unsafe=%d, colive=%d, groups=%d)"
                % (int(self._region.sum()), int(self._unsafe.sum()),
                   int(self._colive.sum()), len(self._groups)))


class ConflictError(ValueError):
    """Raised when an operation needs a conflict-free template but the
    template over-constrains some vertex.  Carries the report."""

    def __init__(self, report: "ConflictReport"):
        self.report = report
        super().__init__(
            "template has conflicts at vertices %s" % sorted(report.all_vertices))


class ConflictReport:
    """Outcome of a conflict-freeness check.

    dead_vertices: player-0 vertices inside the region whose every edge
    back into the region is unsafe or co-live (no move left at all).
    starved: vertices mapped to the live-groups they can no longer
    serve, i.e. every group edge from the vertex into the region is
    unsafe or co-live.
    """

    __slots__ = ("dead_vertices", "starved")

    def __init__(self, dead_vertices: frozenset[int],
                 starved: dict[int, tuple[LiveGroup, ...]]):
        self.dead_vertices = frozenset(dead_vertices)
        self.starved = dict(starved)

    @property
    def starved_vertices(self) -> frozenset[int]:
        return frozenset(self.starved)

    @property
    def all_vertices(self) -> frozenset[int]:
        return self.dead_vertices | self.starved_vertices

    @property
    def is_conflict_free(self) -> bool:
        return not self.dead_vertices and not self.starved

    def __repr__(self) -> str:
        return "ConflictReport(dead=%s, starved=%s)" % (
            sorted(self.dead_vertices), sorted(self.starved))


def find_conflicts(g: GameGraph, t: StrategyTemplate) -> ConflictReport:
    """Detect vertices the template over-constrains.

    A template is safe to execute iff the report is empty; conjunction
    of templates from different objectives can produce conflicts even
    though each input was conflict-free.
    """
    if t.graph is not g and t.graph != g:
        raise ValueError("template bound to a different graph")
    n = g.vertex_count
    src = g.edge_sources()
    region = t.region_mask
    allowed = t.allowed_mask()

    usable = np.bincount(src[allowed], minlength=n)
    dead = np.flatnonzero(region & (g.owners == PLAYER0) & (usable == 0))

    # one pass over all group edges, keyed group*n + source: a member
    # key (source in the region) is blocked when none of its edges is
    # allowed.  Group edge ids are sorted and edge ids ascend with the
    # source, so the keys already ascend; each run of equal keys is one
    # (group, source) pair, and the groups come out in order.
    groups = t.live_groups
    starved: dict[int, list[LiveGroup]] = {}
    if groups:
        ids = np.concatenate([lg.edge_ids for lg in groups])
        sizes = [len(lg) for lg in groups]
        keys = np.repeat(np.arange(len(groups), dtype=np.int64), sizes) * n + src[ids]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        served = np.logical_or.reduceat(allowed[ids], starts)
        blocked = keys[starts[region[src[ids[starts]]] & ~served]]
        for k, v in zip((blocked // n).tolist(), (blocked % n).tolist()):
            starved.setdefault(v, []).append(groups[k])

    return ConflictReport(frozenset(dead.tolist()),
                          {v: tuple(gs) for v, gs in starved.items()})


def conjoin(t1: StrategyTemplate, t2: StrategyTemplate) -> StrategyTemplate:
    """Conjunction of two templates over the same graph: union the edge
    predicates, intersect the regions.  Conflicts are not checked here;
    run find_conflicts on the result."""
    if not (t1.graph is t2.graph or t1.graph == t2.graph):
        raise ValueError("cannot conjoin templates over different graphs")
    groups: list[LiveGroup] = []
    seen: set[frozenset[int]] = set()
    for lg in (*t1.live_groups, *t2.live_groups):
        key = frozenset(int(e) for e in lg.edge_ids)
        if key not in seen:
            seen.add(key)
            groups.append(lg)
    return StrategyTemplate(
        t1.graph,
        t1.unsafe_mask | t2.unsafe_mask,
        t1.colive_mask | t2.colive_mask,
        groups,
        t1.region_mask & t2.region_mask,
    )
