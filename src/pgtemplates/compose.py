"""Composition of several parity objectives into one conflict-free
template, incrementally if desired.

Each objective is solved on its own, restricted to the running
intersection of winning regions, and the templates are conjoined.  A
conjunction can over-constrain a vertex (all its usable edges co-live,
or a live-group starved); such conflict vertices are then forced to be
visited only finitely often by raising their priority to the top odd
value in every objective, and everything is re-solved on the shrunken
region.  The loop terminates because (region size, region vertices not
yet top-odd, summed over the objectives) decreases lexicographically
between re-solve rounds; that is checked at runtime (RuntimeError).
When relabeling leaves the measure where it was (the conflict vertices
are top-odd everywhere already), the round gives them up, with their
player-1 attractor, so the region shrinks and stays a player-1 trap.

A composition keeps one parity-solver memo (see solvers.parity_parts)
on its ComposeState for all of its folds, solves and rounds, so a
subgame on which the objectives agree, or which a re-solve round or a
later fold visits again, is solved once.  The memo also keeps every
attractor and reach-template run under its input masks, so objectives
whose priorities differ on a few trap or gadget vertices still share
the runs on the subgames they reach alike.  Every later solve runs
inside the region a fold leaves, so after each fold the entries whose
universe reaches outside that region are dropped.

The procedure is sound but deliberately not complete: re-solving after
a conflict may give up vertices a cleverer coordination could keep.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import GameGraph, PLAYER1, PriorityFunction, _vertex_mask
from .solvers import _prune, _solved, parity_parts
from .template import StrategyTemplate, find_conflicts
from .transformers import attr_mask

# a conjunction of parity objectives, one priority function each
GeneralizedParityObjective = Sequence[PriorityFunction]


def pad_to_odd(pf: PriorityFunction) -> PriorityFunction:
    """Extend the declared range to an odd bound; values are unchanged,
    so the objective is unchanged.  Relabeling targets this bound."""
    if pf.max_priority % 2 == 1:
        return pf
    return PriorityFunction(pf.values, pf.max_priority + 1)


def relabel(pf: PriorityFunction, u) -> PriorityFunction:
    """Priorities with the vertices of u raised to the top odd value.

    The resulting objective is the original conjoined with "eventually
    avoid u forever": any play visiting u infinitely often now has an
    odd maximum.  u is read as GameGraph.mask_of reads a vertex set: a
    boolean mask over the vertices (a numpy array or a list of
    booleans) or an iterable of vertex ids; a mask of the wrong length,
    an id outside the vertex range or a mix of booleans and ids raises
    ValueError.
    """
    top = pf.odd_ceiling()
    vals = np.asarray(pf.values).copy()
    vals[_vertex_mask(len(vals), u)] = top
    return PriorityFunction(vals, top)


class ComposeState:
    """Carry-over between incremental composition calls: the current
    region, accumulated template parts (one edge-id array per
    live-group), and the (possibly relabeled) objectives so far.

    A state also holds the composition's parity-solver memo, private
    and empty in a new state; a fold hands it on to the state it
    returns.  A state extended twice, with different objectives, shares
    one memo between the branches.  That stays correct, since every
    entry is a function of the graph and its key masks alone; a prune
    for one branch only costs the other some hits.
    """

    __slots__ = ("graph", "w0_mask", "live_groups", "colive_mask", "objectives",
                 "_memo")

    def __init__(self, graph: GameGraph, w0_mask: np.ndarray,
                 live_groups: tuple[np.ndarray, ...], colive_mask: np.ndarray,
                 objectives: tuple[PriorityFunction, ...]):
        self.graph = graph
        self.w0_mask = w0_mask
        self.live_groups = live_groups
        self.colive_mask = colive_mask
        self.objectives = objectives
        self._memo: dict = {}

    @classmethod
    def initial(cls, g: GameGraph) -> "ComposeState":
        return cls(g, np.ones(g.vertex_count, dtype=np.bool_), (),
                   np.zeros(g.edge_count, dtype=np.bool_), ())

    @property
    def winning_region(self) -> frozenset[int]:
        return frozenset(int(v) for v in np.flatnonzero(self.w0_mask))

    def __repr__(self) -> str:
        return "ComposeState(|W0|=%d, objectives=%d)" % (
            int(self.w0_mask.sum()), len(self.objectives))


def _measure(w0: np.ndarray, objs: Sequence[PriorityFunction]) -> tuple[int, int]:
    below = sum(int((w0 & (pf.values != pf.odd_ceiling())).sum()) for pf in objs)
    return int(w0.sum()), below


def compose_templates(
        g: GameGraph, state: ComposeState,
        new_objectives: GeneralizedParityObjective,
) -> tuple[ComposeState, StrategyTemplate]:
    """Extend the composition with further parity objectives.

    Objectives are folded in one at a time, each solved within the
    region the earlier ones left, so a batch call and a chain of
    add_objective calls produce identical results.  Returns the new
    carry-over state and the combined template, whose unsafe set is
    the player-0 boundary of the final region.  Start from
    ComposeState.initial(g) for a one-shot solve.
    """
    if state.graph is not g and state.graph != g:
        raise ValueError("state was built for a different graph")
    new_objectives = list(new_objectives)
    for pf in new_objectives:
        if len(pf) != g.vertex_count:
            raise ValueError("priority function does not cover the vertex set")
    for pf in new_objectives:
        state = _fold_objective(g, state, pad_to_odd(pf))

    template = _solved(g, state.w0_mask, state.colive_mask,
                       state.live_groups).template
    if not find_conflicts(g, template).is_conflict_free:
        raise RuntimeError("composition returned a conflicted template")
    return state, template


def _fold_objective(g: GameGraph, state: ComposeState,
                    new_pf: PriorityFunction) -> ComposeState:
    objs = list(state.objectives) + [new_pf]
    w0 = state.w0_mask.copy()
    groups = list(state.live_groups)
    colive = state.colive_mask.copy()
    solve_from = len(state.objectives)
    no_unsafe = np.zeros(g.edge_count, dtype=np.bool_)
    # baseline for the termination check is the first re-solve round;
    # the entry round reuses the carried template parts and is not
    # comparable to a full solve
    prev = None
    memo = state._memo

    while True:
        new_w0 = w0.copy()
        for i in range(solve_from, len(objs)):
            wi, _, gi, ci = parity_parts(g, objs[i].values, w0, memo)
            new_w0 &= wi
            groups.extend(gi)
            for ids in ci:
                colive[ids] = True
        interim = StrategyTemplate.from_groups(g, no_unsafe, colive, groups, new_w0)
        report = find_conflicts(g, interim)
        if report.is_conflict_free:
            _prune(memo, new_w0)
            folded = ComposeState(g, new_w0, tuple(groups), colive, tuple(objs))
            folded._memo = memo
            return folded
        conflict = g.mask_of(report.all_vertices)
        objs = [relabel(pf, conflict) for pf in objs]
        measure = _measure(new_w0, objs)
        if prev is not None and not measure < prev:
            # relabeling changed nothing: give the conflict up
            new_w0 &= ~attr_mask(g, conflict, PLAYER1, new_w0)
            measure = _measure(new_w0, objs)
            if not measure < prev:
                raise RuntimeError("composition measure failed to decrease: %s -> %s"
                                   % (prev, measure))
        prev = measure
        w0 = new_w0
        groups = []
        colive = np.zeros(g.edge_count, dtype=np.bool_)
        solve_from = 0


def add_objective(g: GameGraph, state: ComposeState,
                  pf: PriorityFunction) -> tuple[ComposeState, StrategyTemplate]:
    """Incremental variant: fold one more parity objective into an
    existing composition."""
    return compose_templates(g, state, [pf])
