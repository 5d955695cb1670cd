"""Differential test of the predecessor CSRs against the stable argsort
they replaced.

graph._csr_order groups positions by key with one sort of the distinct
values key*len + position.  The references below are the earlier code:
a stable argsort of the keys next to their bincount.  GameGraph.pred_csr
and _AllowedGraph.reach_back must give identical arrays and membership
lists, and pred_csr may hold no more memory than the argsort did.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import GeneratorConfig, StrategyDomainError, generate, verify_strategy
from pgtemplates.graph import GameGraph, _csr_order
from pgtemplates.strategy import _AllowedGraph
from conftest import rand_game
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
