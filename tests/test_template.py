from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ConflictReport, GameGraph, PriorityFunction,
                         StrategyTemplate, conjoin, fault_correction,
                         find_conflicts, parity_template)
from pgtemplates.template import _edge_mask
from conftest import edges, group_edge_sets, names_of, rand_game, vset


def conjoin_all(*ts):
    return reduce(conjoin, ts)


def psi1(g):
    return StrategyTemplate.from_edges(g, unsafe=edges(g, ("d", "e")))


def psi2(g):
    return StrategyTemplate.from_edges(
        g, live_groups=[edges(g, ("a", "c"), ("a", "d"))])


def psi3(g):
    return StrategyTemplate.from_edges(
        g, colive=edges(g, ("a", "b"), ("d", "b"), ("d", "e")))


def psi4(g):
    return StrategyTemplate.from_edges(
        g, live_groups=[edges(g, ("a", "b"), ("d", "b"), ("d", "e"))])


def with_groups(g, off, ids):
    return StrategyTemplate(g, np.zeros(g.edge_count, dtype=np.bool_),
                            np.zeros(g.edge_count, dtype=np.bool_), off, ids,
                            np.ones(g.vertex_count, dtype=np.bool_))


def test_constructor_rejects_malformed_group_csr(g6):
    ac, ad, da, ba = g6.edge_ids(*zip(*edges(
        g6, ("a", "c"), ("a", "d"), ("d", "a"), ("b", "a"))))
    t = with_groups(g6, [0, 2, 3], [ac, ad, da])
    assert t.live_groups == (frozenset(edges(g6, ("a", "c"), ("a", "d"))),
                             frozenset(edges(g6, ("d", "a"))))
    assert with_groups(g6, [0], np.empty(0, np.int64)).live_groups == ()
    # a later group may start below the end of the one before
    assert len(with_groups(g6, [0, 1, 2], [ad, ac]).live_groups) == 2
    bad = [
        ([0, 0, 1], [ac], "needs an edge"),  # an empty group
        ([0, 1], [ba], "player-0"),
        ([0, 1], [g6.edge_count], "out of range"),
        ([0, 1], [-1], "out of range"),
        ([1, 2], [ac, ad], "offsets"),
        ([0, 1], [ac, ad], "offsets"),
        ([0, 3], [ac, ad], "offsets"),
        ([[0, 1]], [ac], "offsets"),
        ([0, 2], [ad, ac], "ascend"),  # unsorted
        ([0, 2], [ac, ac], "ascend"),  # a duplicate
    ]
    for off, ids, why in bad:
        with pytest.raises(ValueError, match=why):
            with_groups(g6, off, ids)


def test_from_edges_normalizes_live_groups(g6):
    t = StrategyTemplate.from_edges(g6, live_groups=[
        edges(g6, ("d", "a"), ("a", "c"), ("b", "a"), ("a", "c")),
        edges(g6, ("b", "a")),
        edges(g6, ("a", "d"))])
    assert t.live_groups == (frozenset(edges(g6, ("a", "c"), ("d", "a"))),
                             frozenset(edges(g6, ("a", "d"))))
    assert t.group_off.tolist() == [0, 2, 3]
    assert t.group_of_ids().tolist() == [0, 0, 1]
    assert not t.group_ids.flags.writeable


def test_from_edges_defaults_to_full_region(g6):
    t = psi1(g6)
    assert t.region_mask.all()
    assert t.unsafe_edges == frozenset(edges(g6, ("d", "e")))
    assert t.colive_edges == frozenset()
    assert t.live_groups == ()


def test_unconstrained_is_conjoin_identity(g6):
    t = conjoin_all(psi1(g6), psi2(g6), psi3(g6))
    same = conjoin(t, StrategyTemplate.unconstrained(g6))
    assert same.unsafe_edges == t.unsafe_edges
    assert same.colive_edges == t.colive_edges
    assert group_edge_sets(same) == group_edge_sets(t)
    assert np.array_equal(same.region_mask, t.region_mask)


def test_conjoin_running_example(g6):
    t = conjoin_all(psi1(g6), psi2(g6), psi3(g6))
    assert t.unsafe_edges == frozenset(edges(g6, ("d", "e")))
    assert t.colive_edges == frozenset(
        edges(g6, ("a", "b"), ("d", "b"), ("d", "e")))
    assert group_edge_sets(t) == [frozenset(edges(g6, ("a", "c"), ("a", "d")))]
    assert find_conflicts(g6, t).is_conflict_free


def test_conjoin_dedups_equal_groups(g6):
    t = conjoin(psi2(g6), psi2(g6))
    assert len(t.live_groups) == 1
    both = conjoin(psi2(g6), psi4(g6))
    assert len(both.live_groups) == 2


def test_conjoin_is_commutative(g6):
    ab = conjoin(psi2(g6), psi3(g6))
    ba = conjoin(psi3(g6), psi2(g6))
    assert ab.unsafe_edges == ba.unsafe_edges
    assert ab.colive_edges == ba.colive_edges
    assert group_edge_sets(ab) == group_edge_sets(ba)


def test_conjoin_intersects_regions(g6):
    left = StrategyTemplate.from_edges(g6, region=vset(g6, "abcd"))
    right = StrategyTemplate.from_edges(g6, region=vset(g6, "bcde"))
    assert names_of(g6, conjoin(left, right).region_mask) == ["b", "c", "d"]


def test_conjoin_rejects_mixed_graphs(g6, g6_sink):
    with pytest.raises(ValueError, match="graph"):
        conjoin(psi1(g6), psi1(g6_sink))


def test_conflicts_stuck_vertex(g6):
    t = conjoin(
        StrategyTemplate.from_edges(
            g6, unsafe=edges(g6, ("a", "c"), ("a", "d"))),
        StrategyTemplate.from_edges(
            g6, colive=edges(g6, ("a", "a"), ("a", "b"))))
    report = find_conflicts(g6, t)
    assert not report.is_conflict_free
    assert names_of(g6, report.dead_vertices) == ["a"]
    assert names_of(g6, report.all_vertices) == ["a"]


def test_conflicts_starved_group(g6):
    t = conjoin(psi3(g6), psi4(g6))
    assert t.colive_edges == frozenset(
        edges(g6, ("a", "b"), ("d", "b"), ("d", "e")))
    assert group_edge_sets(t) == [
        frozenset(edges(g6, ("a", "b"), ("d", "b"), ("d", "e")))]
    report = find_conflicts(g6, t)
    assert not report.is_conflict_free
    assert names_of(g6, report.all_vertices) == ["a", "d"]
    assert names_of(g6, report.starved_vertices) == ["a", "d"]
    assert report.starved == {g6.id_of("a"): (0,), g6.id_of("d"): (0,)}


def test_conflicts_only_inside_region(g6):
    # the same contradictory constraints stop mattering once a leaves W0
    t = conjoin(
        StrategyTemplate.from_edges(
            g6, unsafe=edges(g6, ("a", "c"), ("a", "d")),
            region=vset(g6, "bcdef")),
        StrategyTemplate.from_edges(
            g6, colive=edges(g6, ("a", "a"), ("a", "b")),
            region=vset(g6, "bcdef")))
    assert find_conflicts(g6, t).is_conflict_free


def test_report_vertices_are_player0_region(g6):
    report = find_conflicts(g6, conjoin(psi3(g6), psi4(g6)))
    assert isinstance(report, ConflictReport)
    for v in report.all_vertices:
        assert g6.owner_of(v) == 0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_solver_outputs_never_conflict(seed):
    g, pf = rand_game(seed, 25, 4)
    result = parity_template(g, pf)
    report = find_conflicts(g, result.template)
    assert report.is_conflict_free
    # conflict-freeness leaves every region player-0 vertex an edge
    t = result.template
    banned = t.banned_mask()
    src = g.edge_sources()
    ok = ~banned & t.region_mask[src] & t.region_mask[g.edge_targets]
    free = np.bincount(src[ok], minlength=g.vertex_count)
    inside = t.region_mask & (g.owners == 0)
    assert (free[inside] >= 1).all()


def test_integer_edge_ids_are_range_checked():
    g = GameGraph.from_lists([0, 0, 1], [[0, 1], [2], [0, 2]])
    pf = PriorityFunction([0, 0, 0])
    t = parity_template(g, pf).template
    for bad in (-1, -4, -5, g.edge_count, 7):
        with pytest.raises(ValueError, match="edge id out of range"):
            _edge_mask(g, np.array([bad]))
        with pytest.raises(ValueError, match="edge id out of range"):
            _edge_mask(g, [bad])
        with pytest.raises(ValueError, match="edge id out of range"):
            StrategyTemplate.from_edges(g, live_groups=[np.array([bad])])
        with pytest.raises(ValueError, match="edge id out of range"):
            fault_correction(g, pf, t, np.array([bad]))
    with pytest.raises(ValueError, match="edge id out of range"):
        StrategyTemplate.from_edges(g, unsafe=[7])
    assert g.edge_of(int(np.flatnonzero(_edge_mask(g, np.array([1])))[0])) == (0, 1)
