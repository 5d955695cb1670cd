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

Unsafe and co-live edges are one boolean mask over edge ids each.  The
live-groups are one CSR over edge ids: group i is
``group_ids[group_off[i]:group_off[i + 1]]``, nonempty, ascending, and
made of player-0-sourced edges only (player 0 cannot honor an edge of
player 1).  :class:`StrategyTemplate` validates it once, in bulk, and
every other module reads or passes on the two arrays.

Templates from different objectives are combined with :func:`conjoin`;
the result may over-constrain some vertex, which :func:`find_conflicts`
detects (composition then resolves the conflicts by re-solving, see the
compose module).
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import Edge, GameGraph, PLAYER0, _offsets


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


def _group_csr(g: GameGraph, group: np.ndarray, ids: np.ndarray):
    """The live-group CSR of edge ids labelled with group numbers.

    Groups come out in ascending label order, each sorted and without
    duplicates; player-1-sourced edges are dropped (player 0 cannot
    honor them), and so are the groups they leave empty.
    """
    keep = g.owners[g.edge_sources()[ids]] == PLAYER0
    group, ids = group[keep], ids[keep]
    order = np.lexsort((ids, group))
    group, ids = group[order], ids[order]
    new = np.ones(len(ids), dtype=np.bool_)
    new[1:] = (group[1:] != group[:-1]) | (ids[1:] != ids[:-1])
    group, ids = group[new], ids[new]
    first = np.ones(len(ids), dtype=np.bool_)
    first[1:] = group[1:] != group[:-1]
    return np.append(np.flatnonzero(first), len(ids)), ids


def _group_keys(off: np.ndarray, ids: np.ndarray) -> list[bytes]:
    """One hashable key per group: the bytes of its id slice."""
    return [ids[a:b].tobytes() for a, b in zip(off[:-1].tolist(), off[1:].tolist())]


class StrategyTemplate:
    """Immutable template value; combine with :func:`conjoin`."""

    __slots__ = ("graph", "_unsafe", "_colive", "_group_off", "_group_ids",
                 "_region")

    def __init__(self, graph: GameGraph, unsafe: np.ndarray, colive: np.ndarray,
                 group_off: np.ndarray, group_ids: np.ndarray, region: np.ndarray):
        off = np.array(group_off, dtype=np.int64)
        ids = np.array(group_ids, dtype=np.int64)
        if (off.ndim != 1 or ids.ndim != 1 or off.size == 0 or off[0] != 0
                or off[-1] != ids.size or (off[1:] <= off[:-1]).any()):
            raise ValueError("live-group offsets must rise strictly from 0 to "
                             "the id count: every live-group needs an edge")
        _checked_ids(graph, ids)
        step = ids[1:] > ids[:-1]
        step[off[1:-1] - 1] = True
        if not step.all():
            raise ValueError("live-group edge ids must ascend within a group")
        if not (graph.owners[graph.edge_sources()[ids]] == PLAYER0).all():
            raise ValueError("live-group edges must have player-0 sources")
        self.graph = graph
        self._unsafe = unsafe.copy()
        self._colive = colive.copy()
        self._group_off = off
        self._group_ids = ids
        self._region = region.copy()
        for a in (self._unsafe, self._colive, off, ids, self._region):
            a.setflags(write=False)

    @classmethod
    def from_groups(cls, graph: GameGraph, unsafe: np.ndarray, colive: np.ndarray,
                    groups: Sequence[np.ndarray], region: np.ndarray) -> "StrategyTemplate":
        """From one edge-id array per live-group, each nonempty, ascending
        and player-0-sourced, as the solvers produce them."""
        off = _offsets([len(ids) for ids in groups])
        ids = np.concatenate(groups) if groups else np.empty(0, np.int64)
        return cls(graph, unsafe, colive, off, ids, region)

    @classmethod
    def from_edges(cls, g: GameGraph, unsafe=(), colive=(), live_groups=(),
                   region=None) -> "StrategyTemplate":
        """Convenience constructor from edge pairs and a vertex set.

        region=None means the whole vertex set.  Live-groups are
        iterables of edge pairs or edge ids; player-1-sourced edges and
        duplicates are dropped, empty groups skipped.
        """
        per_group = [_edge_ids(g, lg) for lg in live_groups]
        group = np.repeat(np.arange(len(per_group)), [len(ids) for ids in per_group])
        ids = np.concatenate(per_group) if per_group else np.empty(0, np.int64)
        region_mask = (np.ones(g.vertex_count, dtype=np.bool_)
                       if region is None else g.mask_of(region))
        return cls(g, _edge_mask(g, unsafe), _edge_mask(g, colive),
                   *_group_csr(g, group, ids), region_mask)

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

    @property
    def group_off(self) -> np.ndarray:
        """Live-group offsets into group_ids, length group count + 1."""
        return self._group_off

    @property
    def group_ids(self) -> np.ndarray:
        """The edge ids of all live-groups, group after group."""
        return self._group_ids

    def group_of_ids(self) -> np.ndarray:
        """The group index of each entry of group_ids."""
        return np.repeat(np.arange(len(self._group_off) - 1, dtype=np.int64),
                         np.diff(self._group_off))

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
    def live_groups(self) -> tuple[frozenset[Edge], ...]:
        g = self.graph
        pairs = list(zip(g.edge_sources()[self._group_ids].tolist(),
                         g.edge_targets[self._group_ids].tolist()))
        off = self._group_off.tolist()
        return tuple(frozenset(pairs[a:b]) for a, b in zip(off[:-1], off[1:]))

    @property
    def winning_region(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self._region))

    def __eq__(self, other) -> bool:
        """Content equality; live-group list order is irrelevant."""
        if not isinstance(other, StrategyTemplate):
            return NotImplemented
        if not (self.graph is other.graph or self.graph == other.graph):
            return False
        return (np.array_equal(self._unsafe, other._unsafe)
                and np.array_equal(self._colive, other._colive)
                and np.array_equal(self._region, other._region)
                and set(_group_keys(self._group_off, self._group_ids))
                == set(_group_keys(other._group_off, other._group_ids)))

    __hash__ = None

    def __repr__(self) -> str:
        return ("StrategyTemplate(|W0|=%d, unsafe=%d, colive=%d, groups=%d)"
                % (int(self._region.sum()), int(self._unsafe.sum()),
                   int(self._colive.sum()), len(self._group_off) - 1))


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
    starved: vertices mapped to the indices, ascending, of the
    live-groups they can no longer serve, i.e. every group edge from the
    vertex into the region is unsafe or co-live.
    """

    __slots__ = ("dead_vertices", "starved")

    def __init__(self, dead_vertices: frozenset[int],
                 starved: dict[int, tuple[int, ...]]):
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
    # allowed.  Group edge ids ascend and edge ids ascend with the
    # source, so the keys already ascend; each run of equal keys is one
    # (group, source) pair, and the groups come out in order.
    ids = t.group_ids
    starved: dict[int, list[int]] = {}
    if ids.size:
        keys = t.group_of_ids() * n + src[ids]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        served = np.logical_or.reduceat(allowed[ids], starts)
        blocked = keys[starts[region[src[ids[starts]]] & ~served]]
        for k, v in zip((blocked // n).tolist(), (blocked % n).tolist()):
            starved.setdefault(v, []).append(k)

    return ConflictReport(frozenset(dead.tolist()),
                          {v: tuple(ks) for v, ks in starved.items()})


def conjoin(t1: StrategyTemplate, t2: StrategyTemplate) -> StrategyTemplate:
    """Conjunction of two templates over the same graph: union the edge
    predicates, intersect the regions.  Live-groups keep their order,
    t1's first, and a group equal to an earlier one is dropped.
    Conflicts are not checked here; run find_conflicts on the result."""
    if not (t1.graph is t2.graph or t1.graph == t2.graph):
        raise ValueError("cannot conjoin templates over different graphs")
    off = np.concatenate([t1.group_off, t2.group_off[1:] + t1.group_off[-1]])
    ids = np.concatenate([t1.group_ids, t2.group_ids])
    first: dict[bytes, int] = {}
    keep = np.array([first.setdefault(key, i) == i
                     for i, key in enumerate(_group_keys(off, ids))], dtype=np.bool_)
    group = np.repeat(np.arange(len(keep)), np.diff(off))
    kept = keep[group]
    return StrategyTemplate(
        t1.graph,
        t1.unsafe_mask | t2.unsafe_mask,
        t1.colive_mask | t2.colive_mask,
        *_group_csr(t1.graph, group[kept], ids[kept]),
        t1.region_mask & t2.region_mask,
    )
