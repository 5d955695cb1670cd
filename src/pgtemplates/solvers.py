"""Template-synthesis solvers for safety, Büchi, co-Büchi, and parity
objectives, plus the classical region solvers they build on.

Every solver returns both winning regions and a strategy template whose
compliant player-0 strategies all win from the winning region.  The
parity solver follows the Zielonka divide-and-conquer scheme, peeling
the attractor of the highest priority present and recursing on the
rest; template edges are collected along the way.  A Büchi objective is
the parity objective with priority 2 on the goal and 1 elsewhere, and
buchi_template is the parity template of that encoding.  Every template
forbids the player-0 edges that leave its region; _solved builds that
unsafe set for each solver here and for composition.

Subgames are handled with universe masks (see transformers), never by
copying the graph, so reported edges and vertices are always in the
input graph's ids.  A recursion step reads nothing outside its
universe, so the parity solver keeps each step's result in a memo
under its universe mask and answers a step whose universe and
priorities inside it repeat from there.  The same memo keeps each
attractor and reach_template run of a step under its kind, player,
target and universe masks (n/8 bytes of result per attractor entry),
so objectives whose priorities differ elsewhere still share those
runs.  A memo lives for one parity_parts call, or for a whole
composition, whose ComposeState carries it from fold to fold and which
passes it to every call; there is no module-level cache.
"""
from __future__ import annotations

from itertools import chain

import numpy as np

from .graph import GameGraph, PLAYER0, PLAYER1, PriorityFunction, _range_ids
from .template import StrategyTemplate
from .transformers import _attractor, _restricted_degrees, attr_mask


class SolveResult:
    """Winning regions of both players plus the player-0 template.

    The two regions partition the vertex set; the template's region is
    always the player-0 region.
    """

    __slots__ = ("w0_mask", "w1_mask", "template")

    def __init__(self, w0_mask: np.ndarray, w1_mask: np.ndarray,
                 template: StrategyTemplate):
        self.w0_mask = w0_mask
        self.w1_mask = w1_mask
        self.template = template

    @property
    def winning_region0(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self.w0_mask))

    @property
    def winning_region1(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self.w1_mask))

    def __repr__(self) -> str:
        return "SolveResult(|W0|=%d, |W1|=%d, %r)" % (
            int(self.w0_mask.sum()), int(self.w1_mask.sum()), self.template)


def _crossing_edges(g: GameGraph, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Edge ids from xs into ys, player-0-sourced.

    On every solver path the source region is a trap for player 1, so
    no crossing edge has a player-1 source; RuntimeError if one does.
    """
    src = g.edge_sources()
    ids = np.flatnonzero(xs[src] & ys[g.edge_targets])
    if not np.all(g.owners[src[ids]] == PLAYER0):
        raise RuntimeError("player-1 edge escapes a region that should trap it")
    return ids


def _full(g: GameGraph) -> np.ndarray:
    return np.ones(g.vertex_count, dtype=np.bool_)


# -- classical region solvers ------------------------------------------


def _safety_region(g: GameGraph, stay: np.ndarray, player: int,
                   universe: np.ndarray) -> np.ndarray:
    """Vertices from which the player keeps the play inside stay forever."""
    bad = universe & ~stay
    return universe & ~attr_mask(g, bad, 1 - player, universe)


def _buchi_region(g: GameGraph, goal: np.ndarray, player: int,
                  universe: np.ndarray) -> np.ndarray:
    """Vertices from which the player forces infinitely many goal visits.

    Standard repeated-attractor loop: shrink the candidate set by
    removing what the opponent can steer away from the goal's attractor.
    """
    u = universe.copy()
    while True:
        r = attr_mask(g, goal & u, player, u)
        trapped = u & ~r
        if not trapped.any():
            return u
        u &= ~attr_mask(g, trapped, 1 - player, u)


def safety_win(g: GameGraph, safe) -> np.ndarray:
    """Player-0 region for: stay in the safe set forever."""
    return _safety_region(g, g.mask_of(safe), PLAYER0, _full(g))


def cobuchi_win(g: GameGraph, goal) -> np.ndarray:
    """Player-0 region for: eventually remain inside the goal set."""
    w1 = _buchi_region(g, ~g.mask_of(goal), PLAYER1, _full(g))
    return ~w1


# -- template synthesis --------------------------------------------------


def reach_template(g: GameGraph, goal, universe=None) -> list[np.ndarray]:
    """Live-groups forcing progress toward the goal set, one ascending
    edge-id array per group.

    Alternates two closures: vertices that cannot help reaching the
    goal in every continuation (both players dragged in), then the
    player-0 frontier that can step into the closed set.  Each frontier
    contributes one live-group: its edges into the closed set.  The
    universe, like the goal, may be given as vertex ids or as a mask.

    Both closures and every layer come from one call of the attractor
    kernel with one counter array (every vertex needs all of its
    restricted edges in the set; see transformers._attractor): the
    frontier is the touched player-0 vertices still outside the set,
    taken inside the kernel's loop whenever the closure stops.  Over the
    whole call every edge is counted once and scanned at most once for a
    group, so it costs O(n + m) however many layers there are.  The
    groups are slices of one int64 array.

    A goal that already covers the universe gives no group, and the
    call returns before it builds any counter.

    Requires that player 0 can attract the whole (restricted) graph to
    the goal; raises ValueError when the iteration stalls short of that.
    """
    universe = _full(g) if universe is None else g.mask_of(universe)
    a = g.mask_of(goal) & universe
    frontier = np.flatnonzero(a)
    outside = int(universe.sum()) - frontier.size
    if outside == 0:
        return []
    groups: list[np.ndarray] = []
    if _attractor(g, a, _restricted_degrees(g, universe), frontier, universe,
                  groups=groups) < outside:
        raise ValueError(
            "reach_template: goal is not player-0 attractable from the "
            "whole graph; restrict to the attractor first")
    return groups


def _reach_exits(g: GameGraph, goal: np.ndarray, universe: np.ndarray,
                 groups: list[np.ndarray], outer: np.ndarray) -> np.ndarray:
    """Edge ids that must be co-live for reach_template's groups to stay
    sound when plays may also move in ``outer`` (a superset of the
    universe).

    A player-0 vertex that the closure dragged in (neither goal nor the
    source of a live-group) makes progress only through its edges inside
    the universe; its edges into the rest of ``outer`` must be taken
    finitely often, or a play could leave the universe and come back
    forever without progress.
    """
    src = g.edge_sources()
    dragged = universe & ~goal & (g.owners == PLAYER0)
    if groups:
        dragged[src[np.concatenate(groups)]] = False
    return np.flatnonzero(dragged[src] & outer[g.edge_targets]
                          & ~universe[g.edge_targets])


def _solved(g: GameGraph, w0: np.ndarray, colive: np.ndarray,
            groups) -> SolveResult:
    """The result of a solve on the whole graph whose player-0 region is
    w0: player 1 wins the rest, and the template's unsafe set is the
    player-0 edges from w0 into the rest, besides the given co-live mask
    and live-groups (edge-id arrays)."""
    w1 = ~w0
    unsafe = np.zeros(g.edge_count, dtype=np.bool_)
    unsafe[_crossing_edges(g, w0, w1)] = True
    return SolveResult(w0, w1, StrategyTemplate.from_groups(
        g, unsafe, colive, groups, w0))


def safety_template(g: GameGraph, safe) -> SolveResult:
    """Template for staying in the safe set: forbid the region-leaving
    edges.  The unsafe set is exact, every winning positional strategy
    avoids exactly these edges."""
    return _solved(g, safety_win(g, safe),
                   np.zeros(g.edge_count, dtype=np.bool_), [])


def buchi_template(g: GameGraph, goal) -> SolveResult:
    """Template for visiting the goal infinitely often: the parity
    template of priority 2 on the goal and 1 elsewhere.  That is the
    region's boundary plus one live-group per distance layer toward the
    goal inside the region, and no co-live edge."""
    return parity_template(g, PriorityFunction(
        np.where(g.mask_of(goal), 2, 1), 2))


def cobuchi_template(g: GameGraph, goal) -> SolveResult:
    """Template for eventually staying in the goal set.

    Within the winning region, repeatedly peel: take the core where
    player 0 can stay in the goal forever, then the core's player-0
    attractor inside what is left of the region, layer by layer.  Rank
    the core 0, the i-th attractor layer i, and the rest of what is left
    infinity.  A player-0 edge (v, w) with v in the peel and w in what
    is left is co-live iff rank(w) > rank(v), or rank(w) == rank(v) > 0:
    it leaves the core, moves outward, or stays within one layer.  Edges
    into earlier peels are not co-live.  Remove the peel and repeat on
    the rest.

    The layers are the rounds of one attractor kernel run, and a peel
    reads only the successor ranges of its own player-0 vertices; peels
    are disjoint, so layering and marking cost O(n + m) over the whole
    call.  Each peel also takes a safety region and restricted degrees
    on the shrinking rest, O(n + m) apiece, and every peel removes at
    least one vertex, so a call costs O(peels * (n + m)) with at most
    |W0| peels.
    """
    goal_mask = g.mask_of(goal)
    w0 = cobuchi_win(g, goal_mask)
    colive = np.zeros(g.edge_count, dtype=np.bool_)
    off = g.succ_offsets()
    src = g.edge_sources()
    dst = g.edge_targets
    mine = g.owners == PLAYER0
    # the rank of every vertex not yet peeled is infinity, written n
    rank = np.full(g.vertex_count, g.vertex_count, dtype=np.int64)

    remaining = w0.copy()
    while remaining.any():
        core = _safety_region(g, goal_mask & remaining, PLAYER0, remaining)
        if not core.any():
            raise RuntimeError("co-Büchi region without a safety core")
        counter = _restricted_degrees(g, remaining)
        counter[mine] = 1
        peel = core.copy()
        rounds: list = []
        _attractor(g, peel, counter, np.flatnonzero(core), remaining,
                   rounds=rounds)
        rank[core] = 0
        # every layer's rank in one write: the i-th round's vertices get i
        sizes = [len(layer) for layer in rounds]
        rank[np.fromiter(chain.from_iterable(rounds), np.int64,
                         count=sum(sizes))] = np.repeat(
            np.arange(1, len(rounds) + 1), sizes)
        ids = _range_ids(off, np.flatnonzero(peel & mine))
        to = dst[ids]
        rv = rank[src[ids]]
        rw = rank[to]
        colive[ids[remaining[to] & ((rw > rv) | ((rw == rv) & (rv > 0)))]] = True
        remaining &= ~peel

    return _solved(g, w0, colive, [])


def _remembered(memo: dict, kind: str, g: GameGraph, target: np.ndarray,
                player: int, universe: np.ndarray, packed: bytes | None = None):
    """attr_mask(g, target, player, universe) for kind "attr", or
    reach_template(g, target, universe) for kind "reach" (player 0),
    each run at most once per memo.

    The entry is keyed on (kind, player, packed target, packed
    universe) and holds the packed result bits, or the tuple of group
    arrays, which are never written.  ``packed``, when given, is the
    universe's packed bits, which the caller already has; otherwise
    they are packed here.  A hit returns a fresh mask or list; a
    ValueError propagates and stores nothing.  The kernels are looked
    up as module globals at call time, so a wrapper put there sees
    every real run.
    """
    if packed is None:
        packed = np.packbits(universe).tobytes()
    key = (kind, player, np.packbits(target).tobytes(), packed)
    held = memo.get(key)
    if kind == "attr":
        if held is None:
            found = attr_mask(g, target, player, universe)
            memo[key] = np.packbits(found)
            return found
        return np.unpackbits(held, count=len(universe)).view(np.bool_)
    if held is None:
        groups = reach_template(g, target, universe=universe)
        memo[key] = tuple(groups)
        return groups
    return list(held)


def _parity_solve(g: GameGraph, vals: np.ndarray, universe: np.ndarray,
                  memo: dict, packed: bytes | None = None):
    """One recursion step of the parity solver, written as a generator.

    Yields the universe of a needed sub-solve and receives its result;
    returns (w0, w1, live-group id arrays, colive id arrays) for the
    given universe.  Run via _trampoline so recursion depth stays flat
    and repeated sub-solves come from its memo; the step's attractor
    and reach_template runs go through the same memo (_remembered).
    Those on the step's own universe take its packed bits from
    ``packed`` when the caller has them (the trampoline's step key).
    """
    nothing = np.zeros(len(universe), dtype=np.bool_)
    if not universe.any():
        return nothing, nothing.copy(), [], []
    # priorities are non-negative, so zeroing those outside the universe
    # keeps its top one, without gathering the universe's entries
    d = int((vals * universe).max())
    p_d = universe & (vals == d)

    if d % 2 == 1:
        a = _remembered(memo, "attr", g, p_d, PLAYER1, universe, packed)
        rest = universe & ~a
        if not rest.any():
            return nothing, universe.copy(), [], []
        w0, w1, groups, colive = yield rest
        if not w0.any():
            return nothing, universe.copy(), [], []
        b = _remembered(memo, "attr", g, w0, PLAYER0, universe, packed)
        colive.append(_crossing_edges(g, w0, universe & ~w0))
        reach = _remembered(memo, "reach", g, w0, PLAYER0, b)
        colive.append(_reach_exits(g, w0, b, reach, universe))
        groups.extend(reach)
        w0p, w1p, groups2, colive2 = yield (universe & ~b)
        return w0p | b, w1p, groups + groups2, colive + colive2

    a = _remembered(memo, "attr", g, p_d, PLAYER0, universe, packed)
    rest = universe & ~a
    if not rest.any():
        return (universe.copy(), nothing,
                _remembered(memo, "reach", g, p_d, PLAYER0, universe, packed), [])
    w0, w1, groups, colive = yield rest
    if not w1.any():
        reach = _remembered(memo, "reach", g, p_d, PLAYER0, a)
        colive.append(_reach_exits(g, p_d, a, reach, universe))
        groups.extend(reach)
        return universe.copy(), nothing, groups, colive
    b = _remembered(memo, "attr", g, w1, PLAYER1, universe, packed)
    # templates from the first sub-solve cover vertices that player 1
    # can now drag into b; drop them and re-solve the remainder
    w0p, w1p, groups2, colive2 = yield (universe & ~b)
    return w0p, w1p | b, groups2, colive2


def _recall(entries: list, vals: np.ndarray, universe: np.ndarray):
    """The entry among those solved on this universe whose priorities
    equal vals inside it, or None."""
    inside = None
    for entry in entries:
        held = entry[0]
        if held is not vals:
            if inside is None:
                inside = vals[universe]
            if not np.array_equal(held[universe], inside):
                continue
        return entry
    return None


def _trampoline(g: GameGraph, vals: np.ndarray, universe: np.ndarray,
                memo: dict):
    """Run _parity_solve steps on an explicit stack, looking every
    requested universe up in ``memo`` first.

    The memo holds two kinds of entries.  Step entries: a step reads
    nothing outside its universe, so its result depends only on the
    graph, the universe and the priorities inside it.  The memo maps
    the packed bits (bytes) of a universe to the steps finished on it,
    each stored as (priority array, packed w0 bits, live-group tuple,
    co-live tuple): w1 is the rest of the universe, and the id arrays
    are shared with the step's result.  A lookup compares the
    priorities inside the universe, so equal values of any integer
    dtype match.  A miss pushes a new step; a hit skips the whole
    subtree and returns a fresh w0 mask, w1 mask and lists, since
    callers extend the lists; the id arrays inside are never written.

    Kernel entries: every step is handed the memo and runs its
    attractors and reach_template layerings through _remembered, keyed
    on a tuple of (kind, player, packed target, packed universe).  These
    depend on no priority, so objectives that differ elsewhere in the
    universe share them.  An attractor entry holds n/8 bytes of result
    beside the two n/8-byte masks of its key.  A step's kernel runs on
    its own universe reuse the step's key as their packed universe.
    Both kinds live as long as the memo: one parity_parts call or one
    composition, which prunes it to the new region after each fold.
    """
    stack = []
    pending, result = universe, None
    while True:
        if pending is not None:
            key = np.packbits(pending).tobytes()
            entry = _recall(memo.get(key, ()), vals, pending)
            if entry is None:
                stack.append((_parity_solve(g, vals, pending, memo, key), key))
                result = None
            else:
                w0 = np.unpackbits(entry[1], count=len(pending)).view(np.bool_)
                result = (w0, pending & ~w0, list(entry[2]), list(entry[3]))
        if not stack:
            return result
        step, key = stack[-1]
        try:
            pending = step.send(result)
        except StopIteration as stop:
            result = stop.value
            stack.pop()
            pending = None
            memo.setdefault(key, []).append(
                (vals, np.packbits(result[0]), tuple(result[2]),
                 tuple(result[3])))


def _prune(memo: dict, region: np.ndarray) -> None:
    """Drop the memo entries whose universe reaches outside region.

    A step entry's key is its packed universe (bytes), a kernel entry's
    a tuple whose last element is; when every later solve runs inside
    the region, as a composition's do after a fold, such an entry can
    never hit again.  Each universe is tested as one integer, so the
    test copies one key at a time."""
    outside = int.from_bytes(np.packbits(~region).tobytes(), "big")
    for key in list(memo):
        if int.from_bytes(key if isinstance(key, bytes) else key[-1], "big") & outside:
            del memo[key]


def parity_parts(g: GameGraph, vals: np.ndarray, universe: np.ndarray,
                 memo: dict | None = None):
    """Solve a parity objective on the universe-restricted subgame; vals
    holds one non-negative priority per vertex, as PriorityFunction does.

    Returns (w0, w1, live-group id arrays, colive id arrays) without deriving
    unsafe edges; composition combines parts from several objectives
    before the boundary is known.

    Every recursion step's result is kept in ``memo`` under its universe,
    with a reference to its priority array, and a step whose universe
    and priorities inside it repeat is answered from there; every
    attractor and reach_template run of a step is kept there too, under
    its input masks, and answered from there whatever the priorities
    (see _trampoline; an attractor entry costs about 3n/8 bytes).
    Without a memo the call uses a fresh dict, dropped on return.  A
    caller may share one dict between calls on the same graph, as
    composition does over all of its folds; the entries are only valid
    for that graph.  The memo holds the priority arrays it saw: a
    writable vals is copied first, so that no later write to it changes
    what the memo holds, and a read-only one must not change while the
    memo is in use.
    """
    if vals.flags.writeable:
        vals = vals.copy()
        vals.setflags(write=False)
    return _trampoline(g, vals, universe, {} if memo is None else memo)


def parity_template(g: GameGraph, priorities: PriorityFunction) -> SolveResult:
    """Zielonka-style parity solve returning regions and a template.

    Max priority seen infinitely often must be even for player 0 to
    win.  Unsafe edges are exactly the player-0 edges from the winning
    region into the losing one; co-live edges and live-groups come from
    the recursion.
    """
    if len(priorities) != g.vertex_count:
        raise ValueError("priority function does not cover the vertex set")
    w0, _, groups, colive_ids = parity_parts(g, priorities.values, _full(g))
    colive = np.zeros(g.edge_count, dtype=np.bool_)
    for ids in colive_ids:
        colive[ids] = True
    return _solved(g, w0, colive, groups)
