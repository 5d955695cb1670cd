"""Differential checks of verify_strategy against the verifier it
replaced.

The reference below is the earlier code, kept verbatim apart from its
names and type annotations: per-vertex successor lists, a dict-and-set
Tarjan, and an escape-and-priority peel rerun over the whole reachable
graph for every objective, with a predecessor dict for the backward
pass.  verify_strategy computes the escape peel once per call; the
verdicts must not differ.  Lassos may: both pick a reachable bad trap,
but not always the same one, so a lasso is checked for what it claims.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ComposeState, PriorityFunction, StrategyDomainError,
                         StrategyTemplate, compose_templates, extract_strategy,
                         parity_template, parse_strategy, verify_strategy)
from pgtemplates import strategy as strategy_module
from pgtemplates.graph import PLAYER0
from pgtemplates.strategy import Lasso, Verdict, _AllowedGraph, _checked_args
from conftest import pf_by_name, rand_game


def _allowed_successors(g, s) -> list[list[int]]:
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


def _reachable_allowed(g, succ, start_ids) -> set[int]:
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


def _bad_limit_sets(succ, owners, pf, sub: set):
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


def verify_strategy_reference(g, s, objectives, start=None):
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


def _outcome(verify, g, s, objectives, start):
    try:
        return verify(g, s, objectives, start=start)
    except StrategyDomainError as exc:
        return str(exc)


def _arbitrary_strategy(g, rng):
    """A random strategy text: most player-0 vertices get a nonempty
    subset of their edges, in random order; the rest get no line."""
    lines = []
    for v in g.vertices():
        if g.owner_of(v) != PLAYER0 or rng.random() < 0.15:
            continue
        succ = [int(t) for t in g.successors(v)]
        take = rng.permutation(succ)[:rng.integers(1, len(succ) + 1)]
        lines.append("%d: %s" % (v, " ".join("(%d,%d)" % (v, t) for t in take)))
    return parse_strategy("\n".join(lines) + "\n", g)


def _strategy(g, objectives, kind, rng):
    if kind == "solved":
        return extract_strategy(g, parity_template(g, objectives[0]).template)
    if kind == "composed":
        _, t = compose_templates(g, ComposeState.initial(g), objectives)
        return extract_strategy(g, t)
    return _arbitrary_strategy(g, rng)


def _assert_lasso(g, s, objectives, verdict):
    lasso = verdict.counterexample
    walk = list(lasso.prefix) + list(lasso.cycle) + [lasso.cycle[0]]
    assert walk[0] == min(verdict.losing_from)
    for u, v in zip(walk, walk[1:]):
        if g.owner_of(u) == PLAYER0:
            assert (u, v) in s.allowed(u)
        else:
            assert g.has_edge(u, v)
    assert any(max(pf.of(v) for v in lasso.cycle) % 2 == 1 for pf in objectives)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 100_000), st.integers(1, 4),
       st.sampled_from(["solved", "composed", "arbitrary"]), st.booleans())
def test_verify_agrees_with_reference(seed, k, kind, random_start):
    g, objectives = rand_game(seed, 30, 4, k=k)
    if k == 1:
        objectives = [objectives]
    rng = np.random.default_rng(seed)
    s = _strategy(g, objectives, kind, rng)
    start = None
    if random_start:
        start = [v for v in g.vertices() if rng.random() < 0.5]
    fast = _outcome(verify_strategy, g, s, objectives, start)
    slow = _outcome(verify_strategy_reference, g, s, objectives, start)
    if isinstance(slow, str):
        assert fast == slow
        return
    assert fast.queried == slow.queried
    assert fast.winning_from == slow.winning_from
    assert (fast.counterexample is None) == (slow.counterexample is None)
    if fast.counterexample is not None:
        _assert_lasso(g, s, objectives, fast)


def test_differential_inputs_reach_every_outcome():
    """The inputs of test_verify_agrees_with_reference cover winning and
    losing verdicts and domain errors."""
    seen = set()
    for seed in range(60):
        g, objectives = rand_game(seed, 30, 4, k=2)
        rng = np.random.default_rng(seed)
        s = _arbitrary_strategy(g, rng)
        start = [v for v in g.vertices() if rng.random() < 0.5]
        out = _outcome(verify_strategy, g, s, objectives, start)
        seen.add("error" if isinstance(out, str)
                 else "win" if out.is_winning else "lose")
    assert seen == {"error", "win", "lose"}


def _decompositions(monkeypatch, g, s, objectives):
    """Sizes of the vertex lists closed_traps peels in one call."""
    calls = []
    original = _AllowedGraph.closed_traps

    def counting(self, part):
        calls.append(len(part))
        return original(self, part)

    with monkeypatch.context() as patch:
        patch.setattr(_AllowedGraph, "closed_traps", counting)
        verify_strategy(g, s, objectives)
    return calls


def test_escape_peel_runs_once_per_call(monkeypatch, g6):
    s = extract_strategy(g6, StrategyTemplate.unconstrained(g6))
    # every trap has an odd top priority: only the shared peel runs
    odd = PriorityFunction([1] * 6)
    assert len(_decompositions(monkeypatch, g6, s, [odd])) == 1
    assert len(_decompositions(monkeypatch, g6, s, [odd] * 16)) == 1
    # with even tops each objective peels its remainders on its own,
    # but the first peel, over the whole reachable set, is shared
    even = pf_by_name(g6, 0, a=2, d=2, f=1)
    one = _decompositions(monkeypatch, g6, s, [even])
    many = _decompositions(monkeypatch, g6, s, [even] * 16)
    assert len(one) > 1
    assert many[0] == one[0] == 6
    assert len(many) - 1 == 16 * (len(one) - 1)


def test_limit_lasso_raises_real_exceptions(g6):
    s = extract_strategy(g6, StrategyTemplate.unconstrained(g6))
    graph = _AllowedGraph(g6, s)
    a, b = g6.id_of("a"), g6.id_of("b")
    with pytest.raises(RuntimeError, match="does not reach any trap"):
        strategy_module._limit_lasso(graph, a, [])
    # b has no self-loop, so the one-vertex "trap" {b} has no cycle
    with pytest.raises(RuntimeError, match="not on a cycle"):
        strategy_module._limit_lasso(graph, a, [([b], b)])
