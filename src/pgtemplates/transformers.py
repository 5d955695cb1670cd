"""One-step and fixpoint set transformers over game graphs.

All operators take and return boolean vertex masks (see
:meth:`GameGraph.mask_of`).  The public functions ``upre``, ``cpre``,
``attr`` and ``uattr`` are the paper's one-step and attractor operators
on the whole graph.  Only the attractor kernel ``_attractor``, its
counter builder ``_restricted_degrees`` and ``attr_mask`` also accept a
``universe`` mask; they then behave as if the graph were restricted to
that universe, ignoring every edge with an endpoint outside it.
Solvers use them to work on subgames without copying the graph.

Inside a universe some vertices may have no remaining successors.  The
kernel uses worklist semantics for such vertices: a vertex with no
(restricted) successors is never pulled in by closure, only by being in
the seed set.  Full graphs are total, so the public operators match the
textbook definitions exactly.

Both attractors run on one counter-based worklist kernel, ``_attractor``.
Every vertex carries a counter of the edges into the set it still needs:
1 for the attracting player's vertices and the restricted out-degree
for the opponent's in ``attr``, the restricted out-degree for everyone
in ``uattr``.  A vertex joins the set when its counter reaches zero, so
one kernel round adds exactly one layer of the matching one-step
operator, taken inside the universe: with ``attr``'s counters, the
vertices of cpre(set) outside the set; with ``uattr``'s, those of
upre(set).  When given a ``rounds`` list, the kernel appends each
round's joined vertices (a list of ints or an int64 array), so that the
i-th entry is the i-th one-step layer around the set the call started
from.

The kernel grows a set mask in place from a frontier of vertices just
added to it, and leaves the counters where they stopped: a later call
with the same counters, from vertices the caller added to the set,
resumes the closure, at O(n + m) over all calls together.  With
``uattr``'s counters and a ``groups`` list, one call is the whole
distance layering of reach_template: whenever the closure stops, the
player-0 vertices outside the set whose counter has fallen, which are
exactly those with a (restricted) edge into the set, join as the next
layer, their edges into the set make one live-group, and the closure
resumes from them inside the same loop.

A round runs in one of two forms, chosen from its frontier size.  A
large frontier takes one numpy round: gather the predecessors, count
them with ``np.unique`` and subtract the counts.  A small one runs in
the scalar form, a worklist over one Python list: the loop walks each
frontier vertex's predecessor list and decrements counters one edge at
a time, appends a vertex to the list as soon as its counter reaches
zero (the round's later edges skip it), and keeps the index where the
current round ends, so the rounds stay exact layers.  The layer step of
reach_template runs in the same loop while it stays small.  The scalar form
reads the predecessor lists and the universe, and reads and writes the
set mask and the counters, through memoryviews of the same buffers, made
once per kernel call, so each step indexes in Python ints instead of
going through numpy scalars.  Deep graphs run thousands of rounds that
each move a vertex or two, where numpy's per-call dispatch would cost
far more than the work.  Both forms compute the same closure and leave
the same counters on every vertex outside the set, which is what a
resumption reads; counters of vertices inside the set may differ, and
nothing reads them.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .graph import GameGraph, PLAYER0, PLAYER1, _range_ids


# Attractor rounds whose frontier, and reach_template layer steps whose
# counter falls, number fewer than this run as scalar Python steps:
# below it numpy's per-call dispatch costs more than the work.  Measured
# on a random graph of n=25 000 and m=100 000 (in-degree 4), one round
# from k random vertices costs about 3 us plus 0.87 us per frontier
# vertex in the scalar worklist and 26-29 us in the numpy form for k of
# 8-32, so the two cross near 28 vertices.
_SCALAR_LIMIT = 32


def _check_player(player: int) -> None:
    if player not in (PLAYER0, PLAYER1):
        raise ValueError("player must be 0 or 1, got %r" % (player,))


def _restricted_degrees(g: GameGraph, universe: np.ndarray | None) -> np.ndarray:
    """Out-degrees within the universe, as a fresh array."""
    if universe is None:
        return np.diff(g.succ_offsets())
    src = g.edge_sources()
    ok = universe[src] & universe[g.edge_targets]
    return np.bincount(src[ok], minlength=g.vertex_count)


def _views(*arrays) -> list:
    """Memoryviews of the given arrays, None staying None.

    The scalar steps index these instead of the arrays: a view copies
    nothing, writes through to its array and reads and writes Python
    ints and bools, without numpy's scalar round trip.
    """
    return [None if x is None else memoryview(x) for x in arrays]


def _attractor(g: GameGraph, in_a: np.ndarray, counter: np.ndarray,
               frontier, universe: np.ndarray | None,
               rounds: list | None = None,
               groups: list | None = None) -> int:
    """Counter-based worklist shared by every attractor: grows in_a, in
    place, from a frontier and returns how many vertices joined.

    counter[v] is how many of v's (restricted) edges must lead into the
    set before v joins it.  The frontier (an id array or list, never
    written) holds vertices already in in_a whose predecessors have not
    been counted yet.  Each round decrements the counters of the
    frontier's predecessors once per edge and adds those that reach zero
    to in_a, so every edge is inspected a constant number of times and a
    call costs O(n + m); a round touches only the frontier's edges, not
    all n counters.  Each round's non-empty set of joined vertices (a
    list of ints or an int64 array) goes to ``rounds`` when given.

    A frontier of fewer than _SCALAR_LIMIT vertices is taken by the
    scalar form: one loop walks one Python list, to which each round's
    joined vertices are appended, and keeps the index where the current
    round ends, so each round still ends exactly there.  A vertex joins
    as soon as its counter reaches zero, and the round's later edges
    skip it.  Once a finished round leaves _SCALAR_LIMIT or more joined
    vertices pending, numpy rounds take over: gather the predecessors,
    count them with np.unique and subtract the counts; a round that
    leaves fewer goes back to the list.  The scalar form reads and
    writes the arrays through memoryviews made once per call (see
    _views).  Both forms add the same vertices and leave the same
    counters on the vertices outside the set.

    With a ``groups`` list the call is reach_template's layering.  Each
    counter that falls short of zero is recorded.  When the closure
    stops, the recorded player-0 vertices still outside the set join it
    as the next layer, their edges into the set before the layer joined
    go onto one flat id list, and the closure goes on from them, until a
    closure stops with no such vertex.  When fewer than _SCALAR_LIMIT
    falls were recorded since the last step, numpy rounds' included, the
    step is scalar, and inside the scalar loop it is just its next
    round; otherwise it runs with numpy.  At the end ``groups`` receives
    one ascending slice of one int64 array per layer, in layer order.
    """
    poff, psrc = g.pred_csr()
    inv, cntv, univ, poffv, psrcv = _views(in_a, counter, universe, poff, psrc)
    # at least 1, so that an empty frontier never takes a numpy round
    limit = max(_SCALAR_LIMIT, 1)
    layered = groups is not None
    if layered:
        off, dst, owners = g.succ_offsets(), g.edge_targets, g.owners
        ownv, offv, dstv = _views(owners, off, dst)
        # counters that fell short of zero since the last layer step: the
        # scalar rounds' vertices, and one array per numpy round holding
        # spread vertices in all
        fell: list = []
        fall = fell.append
        wide: list = []
        spread = 0
        # the layers' edge ids: arrays up to the last numpy step, then the
        # scalar steps' ints; ends[i] is where layer i's ids end, and base
        # how many the arrays hold
        parts: list = []
        ids: list = []
        ends: list = []
        base = 0

        def scalar_layer() -> list:
            """Join the next layer and record its edge ids into the set;
            returns the layer, ascending (empty when there is none)."""
            nonlocal spread
            for more in wide:
                fell.extend(more.tolist())
            wide.clear()
            spread = 0
            layer = []
            for u in fell:
                # a zero counter marks a vertex already taken; it joins
                # below, and counters inside the set are not read
                if not inv[u] and ownv[u] == PLAYER0 and cntv[u] > 0:
                    cntv[u] = 0
                    layer.append(u)
            fell.clear()
            if layer:
                layer.sort()
                for v in layer:
                    for e in range(offv[v], offv[v + 1]):
                        if inv[dstv[e]]:
                            ids.append(e)
                for v in layer:
                    inv[v] = True
                ends.append(base + len(ids))
            return layer

    joined = 0
    todo = frontier if isinstance(frontier, np.ndarray) else list(frontier)
    while True:
        while len(todo) >= limit:
            preds = psrc[_range_ids(poff, np.asarray(todo))]
            if universe is not None:
                preds = preds[universe[preds]]
            preds = preds[~in_a[preds]]
            cand, cnts = np.unique(preds, return_counts=True)
            counter[cand] -= cnts
            hit = counter[cand] <= 0
            if layered:
                wide.append(cand[~hit])
                spread += wide[-1].size
            todo = cand[hit]
            in_a[todo] = True
            joined += todo.size
            if rounds is not None and todo.size:
                rounds.append(todo)
        work = todo.tolist() if isinstance(todo, np.ndarray) else todo
        push = work.append
        start = end = len(work)
        i = 0
        for v in work:
            for u in psrcv[poffv[v]:poffv[v + 1]]:
                if inv[u] or (univ is not None and not univ[u]):
                    continue
                c = cntv[u] - 1
                cntv[u] = c
                if c <= 0:
                    inv[u] = True
                    push(u)
                elif layered:
                    fall(u)
            i += 1
            if i < end:
                continue
            if len(work) > end:
                # a round ends: work[end:] joined in it
                if rounds is not None:
                    rounds.append(work[end:])
            elif not layered or len(fell) + spread >= limit:
                break
            else:
                # the closure stopped: its next layer is the next round
                layer = scalar_layer()
                if not layer:
                    break
                work.extend(layer)
            end = len(work)
            if end - i >= limit:
                break
        joined += len(work) - start
        if i < end:
            todo = work[i:]
            continue
        if not layered:
            return joined
        # the closure stopped outside the loop's layer step
        if len(fell) + spread >= limit:
            cand = np.concatenate([np.array(fell, dtype=np.int64)] + wide)
            fell.clear()
            wide.clear()
            spread = 0
            cand = cand[~in_a[cand] & (owners[cand] == PLAYER0)]
            if not cand.size:
                break
            layer = np.unique(cand)
            into = _range_ids(off, layer)
            into = into[in_a[dst[into]]]
            in_a[layer] = True
            if ids:
                parts.append(np.array(ids, dtype=np.int64))
                base += len(ids)
                ids.clear()
            parts.append(into)
            base += into.size
            ends.append(base)
        else:
            layer = scalar_layer()
        if not len(layer):
            break
        joined += len(layer)
        todo = layer
    if ids:
        parts.append(np.array(ids, dtype=np.int64))
    flat = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    groups.extend(flat[lo:hi] for lo, hi in zip(chain((0,), ends), ends))
    return joined


def attr_mask(g: GameGraph, target: np.ndarray, player: int,
              universe: np.ndarray | None = None) -> np.ndarray:
    """Least fixpoint of cpre for the player, seeded with target.

    The player's vertices join after one edge into the set, the
    opponent's after all of their (restricted) edges.  A target that
    already covers the universe is the closure, and the call returns it
    before it builds any counter.
    """
    in_a = target.copy() if universe is None else (target & universe)
    if (in_a.all() if universe is None else np.array_equal(in_a, universe)):
        return in_a
    counter = _restricted_degrees(g, universe)
    counter[g.owners == player] = 1
    _attractor(g, in_a, counter, np.flatnonzero(in_a), universe)
    return in_a


# -- public, whole-graph operators --------------------------------------


def _edges_into(g: GameGraph, u) -> np.ndarray:
    """Per vertex, how many of its edges lead into u."""
    hit = g.mask_of(u)[g.edge_targets]
    return np.bincount(g.edge_sources()[hit], minlength=g.vertex_count)


def upre(g: GameGraph, u) -> np.ndarray:
    """{v | every successor of v is in u}."""
    return _edges_into(g, u) == np.diff(g.succ_offsets())


def cpre(g: GameGraph, u, player: int) -> np.ndarray:
    """Controllable predecessors: the player can force u in one step."""
    _check_player(player)
    cnt = _edges_into(g, u)
    return np.where(g.owners == player, cnt > 0,
                    cnt == np.diff(g.succ_offsets()))


def attr(g: GameGraph, u, player: int) -> np.ndarray:
    """Vertices from which the player can force at least one visit to u."""
    _check_player(player)
    return attr_mask(g, g.mask_of(u), player)


def uattr(g: GameGraph, u) -> np.ndarray:
    """Vertices from which every play reaches u, whoever moves."""
    in_a = g.mask_of(u)
    _attractor(g, in_a, _restricted_degrees(g, None), np.flatnonzero(in_a),
               None)
    return in_a
