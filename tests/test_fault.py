import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (GameGraph, OnlineStrategy, OnlineStrategyError,
                         PriorityFunction, StrategyTemplate, conjoin,
                         delete_edges, extract_strategy, fault_correction,
                         find_conflicts, gaf_tolerant, parity_template,
                         simulate_fault_conflicts, verify_strategy,
                         zielonka_regions)
from conftest import (buchi_pf, edge, edges, names_of, periodic_buchi_check,
                      rand_game, vset)


def psi2(g):
    return StrategyTemplate.from_edges(
        g, live_groups=[edges(g, ("a", "c"), ("a", "d"))])


def psi13(g):
    return conjoin(
        StrategyTemplate.from_edges(g, unsafe=edges(g, ("d", "e"))),
        StrategyTemplate.from_edges(
            g, colive=edges(g, ("a", "b"), ("d", "b"), ("d", "e"))))


def test_gaf_tolerant_rejects_player1_faulty_edges(g6):
    with pytest.raises(ValueError, match="player-0"):
        gaf_tolerant(g6, psi2(g6), edges(g6, ("b", "a")))


def test_delete_edges_repairs_dead_ends(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    g2, p2, repaired = delete_edges(
        g6, pf, edges(g6, ("d", "a"), ("d", "b"), ("d", "e")))
    d = g6.id_of("d")
    assert list(repaired) == [d]
    assert [int(t) for t in g2.successors(d)] == [d]
    assert p2.of(d) == pf.odd_ceiling()
    assert p2.of(g6.id_of("a")) == pf.of(g6.id_of("a"))
    # untouched vertices keep their successor lists
    assert [int(t) for t in g2.successors(g6.id_of("a"))] == \
        [int(t) for t in g6.successors(g6.id_of("a"))]


def test_fault_correction_empty_set_is_identity(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    t = psi2(g6)
    assert fault_correction(g6, pf, t, []) is t


def test_fault_correction_fast_path(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    t = parity_template(g6, pf).template
    fixed = fault_correction(g6, pf, t, edges(g6, ("a", "d")))
    assert fixed.graph is g6
    assert edge(g6, "a", "d") in fixed.unsafe_edges
    assert find_conflicts(g6, fixed).is_conflict_free
    # the patched template still wins on the pruned graph, a plays c
    g2, p2, repaired = delete_edges(g6, pf, edges(g6, ("a", "d")))
    assert repaired.size == 0
    surviving = StrategyTemplate.from_edges(
        g2,
        unsafe=[e for e in fixed.unsafe_edges if g2.has_edge(*e)],
        colive=[e for e in fixed.colive_edges if g2.has_edge(*e)],
        live_groups=[[e for e in group if g2.has_edge(*e)]
                     for group in fixed.live_groups],
        region=fixed.winning_region)
    s = extract_strategy(g2, surviving)
    a = g6.id_of("a")
    assert edge(g6, "a", "c") in s.allowed(a)
    assert edge(g6, "a", "d") not in s.allowed(a)
    assert verify_strategy(g2, s, p2).is_winning


def test_fault_correction_slow_path_matches_oracle(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    t = psi2(g6)
    faulty = edges(g6, ("a", "c"), ("a", "d"))
    fault_mask = np.zeros(g6.edge_count, dtype=np.bool_)
    fault_mask[g6.edge_ids(*zip(*faulty))] = True
    patched = StrategyTemplate(g6, t.unsafe_mask | fault_mask,
                               t.colive_mask, t.group_off, t.group_ids,
                               t.region_mask)
    assert not find_conflicts(g6, patched).is_conflict_free
    fixed = fault_correction(g6, pf, t, faulty)
    assert fixed.graph is not g6
    g2, p2, _ = delete_edges(g6, pf, faulty)
    oracle = zielonka_regions(g2, p2)
    assert np.array_equal(fixed.region_mask, oracle.w0_mask)
    # with both progress edges gone, a can no longer reach the goal
    assert not fixed.region_mask[g6.id_of("a")]


def test_gaf_tolerant_goldens(g6):
    ok, offending = gaf_tolerant(g6, psi2(g6), edges(g6, ("a", "d")))
    assert ok and offending == frozenset()
    ok, offending = gaf_tolerant(g6, psi2(g6), [])
    assert ok
    ok, offending = gaf_tolerant(
        g6, psi13(g6), edges(g6, ("a", "a"), ("a", "c"), ("a", "d")))
    assert not ok
    assert names_of(g6, offending) == ["a"]


def test_gaf_tolerant_ignores_edges_leaving_the_region():
    # vertex 0 keeps only (0,1), which leaves the region {0}: no usable edge
    g = GameGraph.from_lists([0, 1], [[0, 1], [1]])
    t = StrategyTemplate.from_edges(g, region={0})
    assert gaf_tolerant(g, t, [(0, 0)]) == (False, frozenset({0}))
    with pytest.raises(ValueError, match="stuck at vertices"):
        OnlineStrategy(g, t, [(0, 0)])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_gaf_tolerant_holds_without_faults(seed):
    g, pf = rand_game(seed, 15, 4)
    t = parity_template(g, pf).template
    ok, offending = gaf_tolerant(g, t, [])
    assert ok and offending == frozenset()


def test_online_strategy_full_availability_matches_extraction(g6):
    t = psi2(g6)
    online = OnlineStrategy(g6, t, edges(g6, ("a", "d")))
    static = extract_strategy(g6, t)
    a = g6.id_of("a")
    assert online.allowed(a) == static.allowed(a)
    got = [online.move(a) for _ in range(4)]
    want = [static.move(a) for _ in range(4)]
    # full availability: live edges rotate, then the free edges follow
    assert got[:2] == want[:2] == edges(g6, ("a", "c"), ("a", "d"))


def test_online_strategy_skips_unavailable_live_edge(g6):
    online = OnlineStrategy(g6, psi2(g6), edges(g6, ("a", "d")))
    a = g6.id_of("a")
    without_ad = [e for e in g6.edges() if e != edge(g6, "a", "d")]
    assert online.move(a, without_ad) == edge(g6, "a", "c")
    assert online.move(a, without_ad) == edge(g6, "a", "c")
    assert online.move(a) == edge(g6, "a", "d")


def test_online_strategy_requires_gaf(g6):
    with pytest.raises(ValueError, match="stuck at vertices"):
        OnlineStrategy(g6, psi13(g6),
                       edges(g6, ("a", "a"), ("a", "c"), ("a", "d")))


def test_online_strategy_errors_when_nothing_available(g6):
    online = OnlineStrategy(g6, psi2(g6), edges(g6, ("a", "d")))
    a = g6.id_of("a")
    none_from_a = [e for e in g6.edges() if e[0] != a]
    with pytest.raises(OnlineStrategyError, match="no allowed edge"):
        online.move(a, none_from_a)


def test_online_strategy_periodic_trace_keeps_winning(g6):
    # e_ad vanishes at every odd step; the rotation must still reach
    # the goal set infinitely often on every play
    online = OnlineStrategy(g6, psi2(g6), edges(g6, ("a", "d")))
    full = list(g6.edges())
    oddstep = [e for e in full if e != edge(g6, "a", "d")]
    assert periodic_buchi_check(g6, online, vset(g6, "cd"),
                                [full, oddstep])


def test_online_strategy_unfair_trace_can_starve(g6):
    # sanity check of the checker itself: a strategy pinned to e_ab
    # loops through a and b without ever visiting the goal
    t = StrategyTemplate.from_edges(
        g6, unsafe=edges(g6, ("a", "a"), ("a", "c"), ("a", "d"),
                           ("d", "b"), ("d", "e")))
    online = OnlineStrategy(g6, t, [])
    assert not periodic_buchi_check(g6, online, vset(g6, "cd"),
                                    [list(g6.edges())])


def test_simulate_zero_fraction_never_conflicts(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    stats = simulate_fault_conflicts(g6, pf, 0.0, 10, seed=7)
    assert stats.conflict_rate == 0.0
    assert stats.mean_conflict_vertex_fraction == 0.0


def test_simulate_full_fraction_always_conflicts(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    stats = simulate_fault_conflicts(g6, pf, 1.0, 8, seed=7,
                                     template=psi2(g6))
    assert stats.conflict_rate == 1.0
    # both of a and d lose every edge, over the six vertices
    assert stats.mean_conflict_vertex_fraction == pytest.approx(2 / 6)


def test_simulate_is_deterministic(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    a = simulate_fault_conflicts(g6, pf, 0.4, 30, seed=3)
    b = simulate_fault_conflicts(g6, pf, 0.4, 30, seed=3)
    assert a == b
    assert a.csv_row() == b.csv_row()
    assert a.csv_row().startswith("0.4,30,")


def test_simulate_rejects_bad_fraction(g6):
    pf = buchi_pf(g6, vset(g6, "cd"))
    with pytest.raises(ValueError, match="fraction"):
        simulate_fault_conflicts(g6, pf, 1.5, 5, seed=1)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000))
def test_fault_correction_region_matches_oracle(seed):
    g, pf = rand_game(seed, 12, 4)
    t = parity_template(g, pf).template
    src = g.edge_sources()
    p0_edges = np.flatnonzero(g.owners[src] == 0)
    if p0_edges.size == 0:
        return
    rng = np.random.default_rng(seed)
    k = max(1, p0_edges.size // 10)
    picked = [g.edge_of(int(e))
              for e in rng.choice(p0_edges, size=k, replace=False)]
    fixed = fault_correction(g, pf, t, picked)
    g2, p2, _ = delete_edges(g, pf, picked)
    oracle = zielonka_regions(g2, p2)
    assert np.array_equal(fixed.region_mask, oracle.w0_mask)
