"""Differential test of the CSRs built by graph's helpers against the
code they replaced.

graph._csr_order groups positions by key with one sort of the distinct
values key*len + position.  The references below are the earlier code:
a stable argsort of the keys next to their bincount.  GameGraph.pred_csr
and _AllowedGraph.reach_back must give identical arrays and membership
lists, and pred_csr may hold no more memory than the argsort did.

The strategy layer's CSRs had their own sorts: a three-key lexsort for
the rotation order and a stable argsort for the allowed-edge graph, and
gameio regrouped segments with its own copy of the range gather.  Those
bodies are kept below too; _rotation, _AllowedGraph and
_range_ids(_offsets(counts), order) must equal them exactly.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ComposeState, GeneratorConfig, PriorityFunction, Strategy,
                         StrategyDomainError, compose_templates, generate,
                         parity_template, verify_strategy)
from pgtemplates.fault import _with_unsafe
from pgtemplates.graph import PLAYER0, GameGraph, _csr_order, _offsets, _range_ids
from pgtemplates.strategy import _AllowedGraph, _rotation
from conftest import pf_by_name, rand_game, six_game
from test_verify_reference import _strategy


# -- reference: the stable argsort ----------------------------------------------------


def ref_pred_csr(g):
    n = g.vertex_count
    counts = np.bincount(g.edge_targets, minlength=n)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    order = np.argsort(g.edge_targets, kind="stable")
    src = g.edge_sources()[order]
    return off, np.ascontiguousarray(src)


def ref_reach_back(graph, targets):
    n = len(graph.player0)
    by_target = np.argsort(graph._targets, kind="stable")
    pred_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph._targets, minlength=n), out=pred_off[1:])
    pred_off = pred_off.tolist()
    pred_src = graph._src[by_target].tolist()
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


def ref_rotation(g, t):
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


def ref_allowed_csr(g, s):
    """off and dst of _AllowedGraph, as lists."""
    n = g.vertex_count
    p0 = g.owners == PLAYER0
    s_src = np.repeat(np.arange(n, dtype=np.int64), np.diff(s._off))
    g_src = g.edge_sources()
    mine = p0[s_src]
    theirs = ~p0[g_src]
    src = np.concatenate((s_src[mine], g_src[theirs]))
    ids = np.concatenate((s._order[mine], np.flatnonzero(theirs)))
    by_source = np.argsort(src, kind="stable")
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src[by_source], minlength=n), out=off[1:])
    return off.tolist(), g.edge_targets[ids[by_source]].tolist()


def _ref_starts(counts):
    starts = np.zeros(len(counts), dtype=np.int64)
    starts[1:] = np.cumsum(counts)[:-1]
    return starts


def ref_regroup(counts, order):
    """Index array that lays the consecutive segments of the given
    lengths out again in the given segment order."""
    starts = _ref_starts(counts)
    lens = counts[order]
    new_starts = _ref_starts(lens)
    return (np.repeat(starts[order] - new_starts, lens)
            + np.arange(int(lens.sum()), dtype=np.int64))


def _assert_same_csr(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def _fresh(g):
    return GameGraph(g.owners, g.succ_offsets(), g.edge_targets, g.names)


# -- the helper -----------------------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=60))))
def test_csr_order_is_the_stable_argsort(case):
    n, keys = case
    keys = np.array(keys, dtype=np.int64)
    off, order = _csr_order(keys, n)
    want = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=want[1:])
    _assert_same_csr((off, order), (want, np.argsort(keys, kind="stable")))


@settings(deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 4), max_size=12).flatmap(
    lambda counts: st.tuples(st.just(counts), st.permutations(range(len(counts))),
                             st.integers(0, len(counts)))))
def test_range_ids_of_offsets_is_the_regroup(case):
    """Segment lengths with zeros among them, in any order, and every
    prefix of that order down to the empty one."""
    counts, order, cut = case
    counts = np.array(counts, dtype=np.int64)
    order = np.array(order[:cut], dtype=np.int64)
    _assert_same_csr([_range_ids(_offsets(counts), order)], [ref_regroup(counts, order)])


@pytest.mark.parametrize("counts", [[], [0], [0, 0], [3, 0, 2]])
def test_range_ids_of_an_empty_order(counts):
    counts = np.array(counts, dtype=np.int64)
    order = np.empty(0, dtype=np.int64)
    _assert_same_csr([_range_ids(_offsets(counts), order)], [ref_regroup(counts, order)])


# -- GameGraph.pred_csr ---------------------------------------------------------------


@st.composite
def _graphs(draw):
    """Graphs of 1-12 vertices with unsorted successor lists; some send
    an edge from every vertex to one hub, some leave vertices without a
    predecessor."""
    n = draw(st.integers(1, 12))
    hub = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    unreached = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    targets = [t for t in range(n) if t not in unreached] or [0]
    succs = []
    for v in range(n):
        succ = draw(st.lists(st.sampled_from(targets), min_size=1, unique=True))
        if hub is not None and hub not in succ:
            succ.insert(draw(st.integers(0, len(succ))), hub)
        succs.append(succ)
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return GameGraph.from_lists(owners, succs)


@settings(deadline=None, max_examples=400)
@given(_graphs())
def test_pred_csr_is_the_stable_argsort(g):
    _assert_same_csr(g.pred_csr(), ref_pred_csr(_fresh(g)))


@pytest.mark.parametrize("owners, succs", [
    ([0], [[0]]),
    ([1], [[0]]),
    ([0, 1, 0, 1], [[0], [0], [0], [0]]),
    ([0, 1, 0, 1], [[3, 1, 2], [0], [3, 1], [2, 3]]),
    ([1, 0, 1], [[2, 1, 0], [2, 0], [1, 2]]),
], ids=["one-vertex-p0", "one-vertex-p1", "hub-self-loop", "in-degree-0", "unsorted"])
def test_pred_csr_edge_cases(owners, succs):
    g = GameGraph.from_lists(owners, succs)
    _assert_same_csr(g.pred_csr(), ref_pred_csr(_fresh(g)))


def test_pred_csr_on_a_generated_game():
    g, _ = generate(GeneratorConfig(objective_count=1, max_priority=3, seed=4,
                                    vertex_count=10_000, edge_count=40_000))
    _assert_same_csr(g.pred_csr(), ref_pred_csr(_fresh(g)))


# -- _AllowedGraph.reach_back ---------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 100_000), st.integers(1, 3),
       st.sampled_from(["solved", "composed", "arbitrary"]))
def test_reach_back_is_the_stable_argsort(seed, k, kind):
    """On random targets, and on the bad traps of every verify_strategy
    call that finds the strategy losing."""
    g, objectives = rand_game(seed, 30, 4, k=k)
    if k == 1:
        objectives = [objectives]
    rng = np.random.default_rng(seed)
    s = _strategy(g, objectives, kind, rng)
    graph = _AllowedGraph(g, s)
    targets = [v for v in g.vertices() if rng.random() < 0.2]
    assert graph.reach_back(targets) == ref_reach_back(graph, targets)

    calls = []
    reach_back = _AllowedGraph.reach_back

    def checked(self, targets):
        calls.append(targets)
        hit = reach_back(self, targets)
        assert hit == ref_reach_back(self, targets)
        return hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_AllowedGraph, "reach_back", checked)
        try:
            verdict = verify_strategy(g, s, objectives)
        except StrategyDomainError:
            return
    assert bool(calls) == (not verdict.is_winning)


def test_reach_back_inputs_include_losing_strategies():
    """The inputs of test_reach_back_is_the_stable_argsort reach the
    backward pass of verify_strategy: some arbitrary strategies lose."""
    losing = 0
    for seed in range(40):
        g, pf = rand_game(seed, 30, 4)
        s = _strategy(g, [pf], "arbitrary", np.random.default_rng(seed))
        try:
            losing += not verify_strategy(g, s, [pf]).is_winning
        except StrategyDomainError:
            pass
    assert losing >= 5


# -- the strategy layer: _rotation and _AllowedGraph ------------------------------------


def _template(g, objectives, kind, rng):
    """A solved, composed or fault-patched template of the game: the
    patched one marks a random fifth of the player-0 edges unsafe, as
    the fast path of fault_correction does, conflicts or not."""
    if kind == "composed":
        return compose_templates(g, ComposeState.initial(g), objectives)[1]
    t = parity_template(g, objectives[0]).template
    if kind == "patched":
        faulty = (g.owners[g.edge_sources()] == PLAYER0) & (rng.random(g.edge_count) < 0.2)
        t = _with_unsafe(g, t, faulty)
    return t


def _assert_same_strategy_csrs(g, t):
    got, want = _rotation(g, t), ref_rotation(g, t)
    _assert_same_csr(got, want)
    s = Strategy(g, want[0], want[1], t.region_mask.copy())
    graph = _AllowedGraph(g, s)
    assert (graph.off, graph.dst) == ref_allowed_csr(g, s)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 100_000), st.integers(1, 3),
       st.sampled_from(["solved", "composed", "patched"]))
def test_strategy_csrs_are_the_sorts_they_replace(seed, k, kind):
    g, objectives = rand_game(seed, 30, 4, k=k)
    if k == 1:
        objectives = [objectives]
    _assert_same_strategy_csrs(g, _template(g, objectives, kind,
                                            np.random.default_rng(seed)))


@pytest.mark.parametrize("kind", ["solved", "composed", "patched"])
def test_strategy_csrs_on_a_named_graph(kind):
    g = six_game()
    assert g.names is not None
    objectives = [pf_by_name(g, 0, b=1), PriorityFunction([0, 2, 1, 1, 1, 1])]
    _assert_same_strategy_csrs(g, _template(g, objectives, kind,
                                            np.random.default_rng(1)))


# -- memory ---------------------------------------------------------------------------


def _peak(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pred_csr_holds_no_more_memory_than_the_argsort():
    """tracemalloc peaks on a fresh graph of the benchmark's random-large
    size, so that each side also builds the edge sources, as the first
    attractor call of a command does."""
    g, _ = generate(GeneratorConfig(objective_count=1, max_priority=3, seed=5,
                                    vertex_count=25_000, edge_count=100_000))
    assert _peak(GameGraph.pred_csr, _fresh(g)) <= _peak(ref_pred_csr, _fresh(g))
