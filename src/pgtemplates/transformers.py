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

Both attractors run on one counter-based worklist kernel.  Every vertex
carries a counter of the edges into the set it still needs: 1 for the
attracting player's vertices and the restricted out-degree for the
opponent's in ``attr``, the restricted out-degree for everyone in
``uattr``.  A vertex joins the set when its counter reaches zero, so
one kernel round adds exactly one layer of the matching one-step
operator, taken inside the universe: with ``attr``'s counters, the
vertices of cpre(set) outside the set; with ``uattr``'s, those of
upre(set).

The kernel grows a set mask in place from a frontier of vertices just
added to it, and leaves the counters where they stopped.  A caller may
therefore add vertices to the set itself and resume the kernel from
them with the same counters: ``_attractor_run`` starts a run and
returns the function that grows and resumes it, and ``_attractor`` is
a run grown once.  The result is the closure of everything added so
far, at O(n + m) over all resumptions together.  When given a
``touched`` list, the kernel appends to it, at most once per round, the
vertices whose counter fell without reaching zero (an int64 array, or a
non-empty list of ints), so that every vertex it leaves outside the set
with a (restricted) edge into the set is listed at least once (a listed
vertex may still join later).  When given a ``rounds`` list, it appends
each round's joined vertices, in the same forms, so that the i-th entry
is the i-th one-step layer around the set the call started from.

A round runs in one of two forms, chosen from its frontier size.  A
large frontier takes one numpy round: gather the predecessors, count
them with ``np.unique`` and subtract the counts.  A small one takes a
scalar round that walks each frontier vertex's predecessor list and
decrements counters one edge at a time; a vertex joins as soon as its
counter reaches zero and the round's later edges skip it.  The scalar
round reads the predecessor lists and the universe, and reads and
writes the set mask and the counters, through memoryviews of the same
buffers, made once per kernel run however often it is resumed, so each
step indexes in Python ints instead of going through numpy scalars.  Deep
graphs run thousands of rounds that each move a vertex or two, where
numpy's per-call dispatch would cost far more than the work.  Both forms
compute the same closure and leave the same counters on every vertex
outside the set, which is what a resumption reads; counters of vertices
inside the set may differ, and nothing reads them.
"""
from __future__ import annotations

import numpy as np

from .graph import GameGraph, PLAYER0, PLAYER1


# Attractor rounds whose frontier, and reach_template layers whose
# touched list, hold fewer vertices than this run as scalar Python
# steps: below it numpy's per-call dispatch costs more than the work.
# Measured on a random graph of n=25 000 and m=100 000 (in-degree 4),
# one round costs about 0.9 us per frontier vertex in the scalar form
# and 24-30 us in the numpy form, so the two cross near 28 vertices.
# In-process passes of the benchmark's solve and compose commands
# (minimum of five) moved by at most 2 % between 32 and 64: deep and
# compose-incremental 1-2 % faster, random-large 0.6 % slower.
_SCALAR_LIMIT = 32


def _check_player(player: int) -> None:
    if player not in (PLAYER0, PLAYER1):
        raise ValueError("player must be 0 or 1, got %r" % (player,))


def _range_ids(off: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Concatenate range(off[i], off[i+1]) for each i in idx, in order."""
    lens = off[idx + 1] - off[idx]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lens)
    pos = np.arange(total, dtype=np.int64)
    return pos + np.repeat(off[idx] - (ends - lens), lens)


def _gather_ranges(off: np.ndarray, flat: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Concatenate flat[off[i]:off[i+1]] for each i in idx, in order."""
    return flat[_range_ids(off, idx)]


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


def _attractor_run(g: GameGraph, in_a: np.ndarray, counter: np.ndarray,
                   universe: np.ndarray | None,
                   touched: list | None = None,
                   rounds: list | None = None):
    """Counter-based worklist shared by every attractor; returns a
    function that grows the set from a frontier and returns how many
    vertices joined.

    counter[v] is how many of v's (restricted) edges must lead into the
    set before v joins it.  The frontier (an id array or list) holds
    vertices already in in_a whose predecessors have not been counted
    yet.  Each round decrements the counters of the frontier's
    predecessors once per edge and adds those that reach zero to in_a,
    in place, so every edge is inspected a constant number of times and
    a call costs O(n + m); a round touches only the frontier's edges,
    not all n counters.  The rest of each round's counted predecessors
    go to ``touched`` when given, and each round's non-empty set of
    joined vertices (a list of ints or an int64 array) to ``rounds``.
    The returned function may be called again, from vertices the
    caller added to in_a, and resumes with the same counters.

    A frontier of fewer than _SCALAR_LIMIT vertices runs as a scalar
    round over the predecessor lists, which skips a vertex for the rest
    of the round once it joins; larger ones run as one numpy round.
    The scalar round reads and writes the arrays through memoryviews
    made once per run (see _views).  Both forms add the same vertices
    and leave the same counters on the vertices outside the set.
    """
    poff, psrc = g.pred_csr()
    inv, cntv, univ, poffv, psrcv = _views(in_a, counter, universe, poff, psrc)

    def grow(frontier) -> int:
        joined = 0
        while len(frontier):
            if len(frontier) < _SCALAR_LIMIT:
                if isinstance(frontier, np.ndarray):
                    frontier = frontier.tolist()
                nxt = []
                fell = []
                for v in frontier:
                    for u in psrcv[poffv[v]:poffv[v + 1]]:
                        if inv[u] or (univ is not None and not univ[u]):
                            continue
                        c = cntv[u] - 1
                        cntv[u] = c
                        if c <= 0:
                            inv[u] = True
                            nxt.append(u)
                        else:
                            fell.append(u)
                if touched is not None:
                    fell = [u for u in fell if not inv[u]]
                    if fell:
                        touched.append(fell)
                if rounds is not None and nxt:
                    rounds.append(nxt)
                frontier = nxt
                joined += len(nxt)
                continue
            preds = _gather_ranges(poff, psrc, np.asarray(frontier))
            if universe is not None:
                preds = preds[universe[preds]]
            preds = preds[~in_a[preds]]
            if preds.size == 0:
                break
            cand, cnts = np.unique(preds, return_counts=True)
            counter[cand] -= cnts
            hit = counter[cand] <= 0
            if touched is not None:
                touched.append(cand[~hit])
            frontier = cand[hit]
            in_a[frontier] = True
            joined += frontier.size
            if rounds is not None and frontier.size:
                rounds.append(frontier)
        return joined

    return grow


def _attractor(g: GameGraph, in_a: np.ndarray, counter: np.ndarray,
               frontier, universe: np.ndarray | None,
               touched: list | None = None,
               rounds: list | None = None) -> int:
    """One run of the kernel (see _attractor_run) from the frontier;
    returns how many vertices joined."""
    return _attractor_run(g, in_a, counter, universe, touched, rounds)(frontier)


def attr_mask(g: GameGraph, target: np.ndarray, player: int,
              universe: np.ndarray | None = None) -> np.ndarray:
    """Least fixpoint of cpre for the player, seeded with target.

    The player's vertices join after one edge into the set, the
    opponent's after all of their (restricted) edges.
    """
    counter = _restricted_degrees(g, universe)
    counter[g.owners == player] = 1
    in_a = target.copy() if universe is None else (target & universe)
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
