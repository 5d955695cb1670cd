import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pgtemplates import GameGraph, GraphBuildError, GraphBuilder, PriorityFunction
from conftest import edge, names_of, vset


def test_builder_round_trip(g6):
    assert g6.vertex_count == 6
    assert g6.edge_count == 14
    assert g6.owner_of(g6.id_of("a")) == 0
    assert g6.owner_of(g6.id_of("d")) == 0
    for name in "bcef":
        assert g6.owner_of(g6.id_of(name)) == 1
    assert names_of(g6, g6.successors(g6.id_of("a"))) == ["a", "b", "c", "d"]
    assert g6.has_edge(*edge(g6, "d", "e"))
    assert not g6.has_edge(g6.id_of("f"), g6.id_of("a"))


def test_builder_rejects_bad_owner():
    b = GraphBuilder()
    with pytest.raises(GraphBuildError, match="owner"):
        b.add_vertex(2)


def test_builder_rejects_duplicate_edge():
    b = GraphBuilder()
    v = b.add_vertex(0)
    b.add_edge(v, v)
    with pytest.raises(GraphBuildError, match="duplicate"):
        b.add_edge(v, v)


def test_builder_rejects_unknown_vertex():
    b = GraphBuilder()
    v = b.add_vertex(0)
    with pytest.raises(GraphBuildError, match="unknown"):
        b.add_edge(v, v + 1)


def test_builder_rejects_dead_end():
    b = GraphBuilder()
    b.add_vertex(0)
    b.add_vertex(1)
    b.add_edge(0, 1)
    with pytest.raises(GraphBuildError, match="without successors"):
        b.build()


def test_builder_rejects_partial_names():
    b = GraphBuilder()
    b.add_vertex(0, "a")
    with pytest.raises(GraphBuildError, match="named"):
        b.add_vertex(1)


def test_from_lists_matches_builder(g6):
    g = GameGraph.from_lists(
        [0, 1, 1, 0, 1, 1],
        [[0, 1, 2, 3], [0, 3], [0, 3], [0, 1, 4], [1, 5], [1]],
        names=list("abcdef"))
    assert g.vertex_count == g6.vertex_count
    assert sorted(g.edges()) == sorted(g6.edges())
    assert g.names == g6.names


def test_edge_ids_are_grouped_by_source(g6):
    src = g6.edge_sources()
    assert (np.diff(src) >= 0).all()
    for e in range(g6.edge_count):
        u, v = g6.edge_of(e)
        assert g6.edge_ids([u], [v]).tolist() == [e]


def test_edge_ids_resolves_pairs_in_bulk(g6):
    src, dst = g6.edge_sources(), g6.edge_targets
    assert list(g6.edge_ids(src[::-1], dst[::-1])) == list(range(g6.edge_count))[::-1]
    f, a = g6.id_of("f"), g6.id_of("a")
    # absent, negative and out-of-range ids all give -1
    assert list(g6.edge_ids([f, -1, a, 6, a], [a, a, -1, 0, 6])) == [-1] * 5


def test_pred_csr_inverts_successors(g6):
    poff, pdst = g6.pred_csr()
    preds = {v: sorted(int(u) for u in pdst[poff[v]:poff[v + 1]])
             for v in g6.vertices()}
    expect = {v: [] for v in g6.vertices()}
    for u, v in g6.edges():
        expect[v].append(u)
    assert preds == {v: sorted(us) for v, us in expect.items()}


def test_mask_and_set_round_trip(g6):
    m = g6.mask_of(vset(g6, "ad"))
    assert set(np.flatnonzero(m)) == vset(g6, "ad")
    with pytest.raises(ValueError, match="out of range"):
        g6.mask_of([99])
    # an iterable of booleans only, Python or numpy, is a mask
    flags = [True, False, False, True, False, False]
    assert names_of(g6, g6.mask_of(flags)) == ["a", "d"]
    assert names_of(g6, g6.mask_of(tuple(np.array(flags)))) == ["a", "d"]
    assert names_of(g6, g6.mask_of([np.True_] * 6)) == list("abcdef")
    with pytest.raises(ValueError, match="mask length"):
        g6.mask_of([True, True, True])
    for mixed in ([True, 1], [0, False], [np.True_, np.int64(2)]):
        with pytest.raises(ValueError, match="mixes booleans"):
            g6.mask_of(mixed)


def test_priority_function_basics():
    pf = PriorityFunction([0, 2, 1, 1, 1, 1])
    assert pf.max_priority == 2
    assert pf.of(1) == 2
    assert pf.odd_ceiling() == 3
    assert set(np.flatnonzero(pf.values == 1)) == {2, 3, 4, 5}
    assert pf == PriorityFunction([0, 2, 1, 1, 1, 1], 2)
    assert pf != PriorityFunction([0, 2, 1, 1, 1, 1], 4)


def test_priority_function_declared_max():
    pf = PriorityFunction([1, 1], 5)
    assert pf.max_priority == 5
    assert pf.odd_ceiling() == 5
    with pytest.raises(ValueError, match="below"):
        PriorityFunction([3], 2)
    with pytest.raises(ValueError, match="non-negative"):
        PriorityFunction([-1])
    with pytest.raises(ValueError, match="non-empty"):
        PriorityFunction([])


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 8))
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    succ = [sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
            for _ in range(n)]
    return GameGraph.from_lists(owners, succ)


@given(small_games())
def test_generated_graphs_are_total(g):
    for v in g.vertices():
        assert len(g.successors(v)) >= 1
        assert list(g.successors(v)) == sorted(set(g.successors(v)))
