"""Game graph data model shared by all solver and template modules.

Vertices are dense integer ids.  Every vertex belongs to player 0 (the
system) or player 1 (the environment), and every vertex has at least
one outgoing edge, so plays never get stuck.  Graphs are immutable
after construction; build them with :class:`GraphBuilder` or
:meth:`GameGraph.from_lists`.

Successor lists are kept in CSR-style numpy arrays (offsets plus a flat
target array).  The fixpoint loops in the solver modules run directly
on these arrays, and an edge is identified internally by its position
in the flat array.
"""
from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

VertexId = int
Edge = tuple[int, int]

PLAYER0 = 0
PLAYER1 = 1


class GraphBuildError(ValueError):
    """Raised when a graph under construction violates a model invariant."""


def _vertex_mask(n: int, vertices) -> np.ndarray:
    """Boolean membership mask over the vertex range 0..n-1.

    Accepts an iterable of ids, or a boolean mask (copied): a numpy
    boolean array or an iterable of booleans only.  An iterable that
    mixes booleans and ids, a mask of another length and an id outside
    the range raise ValueError.
    """
    if not isinstance(vertices, np.ndarray):
        vertices = list(vertices)
        flags = sum(isinstance(v, (bool, np.bool_)) for v in vertices)
        if 0 < flags < len(vertices):
            raise ValueError("vertex set mixes booleans and vertex ids")
        if flags:
            vertices = np.array(vertices, dtype=np.bool_)
    if isinstance(vertices, np.ndarray) and vertices.dtype == np.bool_:
        if len(vertices) != n:
            raise ValueError("mask length does not match vertex count")
        return vertices.copy()
    mask = np.zeros(n, dtype=np.bool_)
    ids = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    if ids.size:
        if ids.min() < 0 or ids.max() >= n:
            raise ValueError("vertex id out of range")
        mask[ids] = True
    return mask


def _csr_order(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets and order of the CSR that groups the positions of keys by
    their key, a vertex id below n.

    Returns (off, order): the positions with key k are order[off[k]:
    off[k + 1]], in ascending order, as a stable argsort of keys gives
    them.  The values key*len(keys) + position are distinct, so numpy's
    unstable sort of them, done in place, yields that order, and their
    remainder by len(keys) the positions.  Needs n * len(keys) < 2**63.
    """
    m = keys.size
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=off[1:])
    order = np.multiply(keys, m, dtype=np.int64)
    order += np.arange(m, dtype=np.int64)
    order.sort()
    np.remainder(order, m, out=order)
    return off, order


class GameGraph:
    """Immutable two-player game graph over dense vertex ids."""

    __slots__ = (
        "_owner", "_succ_off", "_succ_dst", "_names",
        "_pred_off", "_pred_src", "_edge_src", "_edge_keys", "_name_index",
        "_label_table",
    )

    def __init__(self, owner: np.ndarray, succ_off: np.ndarray,
                 succ_dst: np.ndarray, names: Sequence[str] | None = None):
        self._owner = np.asarray(owner, dtype=np.int8)
        self._succ_off = np.asarray(succ_off, dtype=np.int64)
        self._succ_dst = np.asarray(succ_dst, dtype=np.int64)
        self._names = list(names) if names is not None else None
        for arr in (self._owner, self._succ_off, self._succ_dst):
            arr.setflags(write=False)
        # filled lazily
        self._pred_off = None
        self._pred_src = None
        self._edge_src = None
        self._edge_keys = None
        self._name_index = None
        self._label_table = None  # the writers' labels, built by gameio

    # -- construction ----------------------------------------------------

    @classmethod
    def from_lists(cls, owners: Sequence[int],
                   successors: Sequence[Sequence[int]],
                   names: Sequence[str] | None = None) -> "GameGraph":
        b = GraphBuilder()
        for i, owner in enumerate(owners):
            b.add_vertex(owner, None if names is None else names[i])
        for u, targets in enumerate(successors):
            for v in targets:
                b.add_edge(u, v)
        return b.build()

    # -- basic queries ----------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._owner)

    @property
    def edge_count(self) -> int:
        return len(self._succ_dst)

    def vertices(self) -> range:
        return range(self.vertex_count)

    def owner_of(self, v: int) -> int:
        return int(self._owner[v])

    @property
    def owners(self) -> np.ndarray:
        """Per-vertex owner array (read-only)."""
        return self._owner

    def successors(self, v: int) -> np.ndarray:
        """Targets of v's outgoing edges, in insertion order (read-only)."""
        return self._succ_dst[self._succ_off[v]:self._succ_off[v + 1]]

    def edges(self) -> Iterator[Edge]:
        """All edges as (source, target), grouped by source."""
        for u in self.vertices():
            for v in self.successors(u):
                yield (u, int(v))

    @property
    def names(self) -> list[str] | None:
        return self._names

    def name_of(self, v: int) -> str:
        """Display name of a vertex: its label when present, else the id."""
        if self._names is not None:
            return self._names[v]
        return str(v)

    def name_index(self) -> dict[str, int]:
        """Label -> vertex id (the first vertex with that label); empty
        for an unnamed graph.  Built once and cached."""
        if self._name_index is None:
            index: dict[str, int] = {}
            if self._names is not None:
                for i, nm in enumerate(self._names):
                    index.setdefault(nm, i)
            self._name_index = index
        return self._name_index

    def id_of(self, name: str) -> int:
        """Vertex id for a label.  Raises KeyError for unknown labels."""
        return self.name_index()[name]

    # -- edge addressing ---------------------------------------------------

    @property
    def edge_targets(self) -> np.ndarray:
        """Flat per-edge target array; index = internal edge id."""
        return self._succ_dst

    def edge_sources(self) -> np.ndarray:
        """Flat per-edge source array; index = internal edge id."""
        if self._edge_src is None:
            degrees = np.diff(self._succ_off)
            src = np.repeat(np.arange(self.vertex_count, dtype=np.int64), degrees)
            src.setflags(write=False)
            self._edge_src = src
        return self._edge_src

    def succ_offsets(self) -> np.ndarray:
        return self._succ_off

    def edge_ids(self, us, vs) -> np.ndarray:
        """Internal ids of the edges (us[i], vs[i]); -1 where there is no
        such edge.

        Looks the keys src*n+dst up in their sorted order, which is
        built once and cached.
        """
        n = self.vertex_count
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if self._edge_keys is None:
            keys = self.edge_sources() * n + self._succ_dst
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            keys.setflags(write=False)
            order.setflags(write=False)
            self._edge_keys = (keys, order)
        keys, order = self._edge_keys
        if keys.size == 0:
            return np.full(us.shape, -1, dtype=np.int64)
        q = us * n + vs
        pos = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        hit = (keys[pos] == q) & (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        return np.where(hit, order[pos], -1)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edge_ids([u], [v])[0] >= 0)

    def edge_of(self, eid: int) -> Edge:
        return (int(self.edge_sources()[eid]), int(self._succ_dst[eid]))

    def pred_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Predecessor CSR: (offsets indexed by target, flat source array).

        One entry per edge; built once and cached.
        """
        if self._pred_off is None:
            off, order = _csr_order(self._succ_dst, self.vertex_count)
            src = self.edge_sources()[order]
            off.setflags(write=False)
            src.setflags(write=False)
            self._pred_off = off
            self._pred_src = src
        return self._pred_off, self._pred_src

    # -- set helpers --------------------------------------------------------

    def mask_of(self, vertices) -> np.ndarray:
        """Boolean membership mask over the vertex range (see
        _vertex_mask)."""
        return _vertex_mask(self.vertex_count, vertices)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GameGraph):
            return NotImplemented
        return (
            np.array_equal(self._owner, other._owner)
            and np.array_equal(self._succ_off, other._succ_off)
            and np.array_equal(self._succ_dst, other._succ_dst)
            and self._names == other._names
        )

    __hash__ = None  # mutable caches inside; identity is not content

    def __repr__(self) -> str:
        return "GameGraph(n=%d, m=%d)" % (self.vertex_count, self.edge_count)


class GraphBuilder:
    """Accumulates vertices and edges, validating the model invariants."""

    def __init__(self):
        self._owners: list[int] = []
        self._succs: list[list[int]] = []
        self._names: list[str] | None = None
        self._seen: set[Edge] = set()

    def add_vertex(self, owner: int, name: str | None = None) -> int:
        if owner not in (PLAYER0, PLAYER1):
            raise GraphBuildError("owner must be 0 or 1, got %r" % (owner,))
        vid = len(self._owners)
        if name is not None:
            if self._names is None:
                if vid != 0:
                    raise GraphBuildError("either all vertices are named or none")
                self._names = []
            self._names.append(name)
        elif self._names is not None:
            raise GraphBuildError("either all vertices are named or none")
        self._owners.append(owner)
        self._succs.append([])
        return vid

    def add_edge(self, u: int, v: int) -> None:
        n = len(self._owners)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphBuildError("edge (%r, %r) references unknown vertex" % (u, v))
        if (u, v) in self._seen:
            raise GraphBuildError("duplicate edge (%d, %d)" % (u, v))
        self._seen.add((u, v))
        self._succs[u].append(v)

    def build(self) -> GameGraph:
        n = len(self._owners)
        if n == 0:
            raise GraphBuildError("graph needs at least one vertex")
        dead = [v for v in range(n) if not self._succs[v]]
        if dead:
            raise GraphBuildError("vertices without successors: %s" % (dead,))
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(s) for s in self._succs], out=off[1:])
        dst = np.fromiter(
            (t for succ in self._succs for t in succ), dtype=np.int64, count=off[-1]
        )
        return GameGraph(np.array(self._owners, dtype=np.int8), off, dst, self._names)


class PriorityFunction:
    """Per-vertex priorities in [0; max_priority] for one parity objective.

    max_priority is the declared bound of the range, which may exceed
    the largest priority actually used; composition relies on the
    declared bound when padding and relabeling.
    """

    __slots__ = ("_values", "_max")

    def __init__(self, values, max_priority: int | None = None):
        vals = np.asarray(values, dtype=np.int64).copy()
        if vals.ndim != 1 or len(vals) == 0:
            raise ValueError("priorities must be a non-empty 1-d sequence")
        if vals.min() < 0:
            raise ValueError("priorities must be non-negative")
        top = int(vals.max())
        if max_priority is None:
            max_priority = top
        if max_priority < top:
            raise ValueError(
                "declared max priority %d below stored priority %d" % (max_priority, top)
            )
        vals.setflags(write=False)
        self._values = vals
        self._max = int(max_priority)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def max_priority(self) -> int:
        return self._max

    def __len__(self) -> int:
        return len(self._values)

    def of(self, v: int) -> int:
        return int(self._values[v])

    def odd_ceiling(self) -> int:
        """The declared range padded up to an odd bound (2d+1 shape)."""
        return self._max if self._max % 2 == 1 else self._max + 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, PriorityFunction):
            return NotImplemented
        return self._max == other._max and np.array_equal(self._values, other._values)

    __hash__ = None

    def __repr__(self) -> str:
        return "PriorityFunction(%s, max_priority=%d)" % (
            self._values.tolist(), self._max)
