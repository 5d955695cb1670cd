import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ConflictError, GameGraph, GeneratorConfig,
                         PriorityFunction, StrategyDomainError,
                         StrategyTemplate, conjoin,
                         extract_strategy, generate, parity_template,
                         parse_strategy, strategy_text, verify_strategy)
from pgtemplates.oracle import _build_product, _exact_verdict
from conftest import (buchi_pf, edge, edges, names_of, pf_by_name, rand_game,
                      vset)


def psi2(g):
    return StrategyTemplate.from_edges(
        g, live_groups=[edges(g, ("a", "c"), ("a", "d"))])


def running_conjunction(g):
    return conjoin(conjoin(
        StrategyTemplate.from_edges(
            g, unsafe=edges(g, ("d", "e")), region=vset(g, "abcd")),
        StrategyTemplate.from_edges(
            g, live_groups=[edges(g, ("a", "c"), ("a", "d"))])),
        StrategyTemplate.from_edges(
            g, colive=edges(g, ("a", "b"), ("d", "b"), ("d", "e"))))


def test_extract_live_edges_rotate_first(g6):
    s = extract_strategy(g6, psi2(g6))
    a = g6.id_of("a")
    assert s.allowed(a) == edges(g6, ("a", "c"), ("a", "d"),
                                 ("a", "a"), ("a", "b"))
    assert np.isin(s.allowed_ids(a), psi2(g6).group_ids).tolist() == [
        True, True, False, False]
    assert s.peek(a) == edge(g6, "a", "c")
    assert [s.move(a) for _ in range(5)] == edges(
        g6, ("a", "c"), ("a", "d"), ("a", "a"), ("a", "b"), ("a", "c"))
    s.reset()
    assert s.peek(a) == edge(g6, "a", "c")


def test_cursor_state_round_trip(g6):
    s = extract_strategy(g6, psi2(g6))
    a = g6.id_of("a")
    s.move(a)
    saved = s.cursor_state()
    nxt = s.peek(a)
    s.move(a)
    s.set_cursor_state(saved)
    assert s.peek(a) == nxt


def test_extract_empty_template_allows_everything(g6):
    s = extract_strategy(g6, StrategyTemplate.unconstrained(g6))
    assert names_of(g6, s.domain_vertices()) == ["a", "d"]
    a, d = g6.id_of("a"), g6.id_of("d")
    assert s.allowed(a) == edges(g6, ("a", "a"), ("a", "b"),
                                 ("a", "c"), ("a", "d"))
    assert s.allowed(d) == edges(g6, ("d", "a"), ("d", "b"), ("d", "e"))
    assert s.allowed_ids(g6.id_of("b")).size == 0


def test_extract_running_conjunction(g6):
    t = running_conjunction(g6)
    s = extract_strategy(g6, t)
    d = g6.id_of("d")
    assert s.allowed(d) == edges(g6, ("d", "a"))
    a = g6.id_of("a")
    assert s.allowed(a) == edges(g6, ("a", "c"), ("a", "d"), ("a", "a"))
    objectives = [pf_by_name(g6, 0, f=1),
                  buchi_pf(g6, vset(g6, "cd")),
                  pf_by_name(g6, 0, b=1)]
    verdict = verify_strategy(g6, s, objectives)
    assert verdict.is_winning
    assert verdict.winning_from == vset(g6, "abcd")


def test_extract_rejects_conflicts(g6):
    t = conjoin(
        StrategyTemplate.from_edges(
            g6, unsafe=edges(g6, ("a", "c"), ("a", "d"))),
        StrategyTemplate.from_edges(
            g6, colive=edges(g6, ("a", "a"), ("a", "b"))))
    with pytest.raises(ConflictError) as err:
        extract_strategy(g6, t)
    assert names_of(g6, err.value.report.all_vertices) == ["a"]


def test_verify_template_strategy_wins_buchi(g6):
    s = extract_strategy(g6, psi2(g6))
    verdict = verify_strategy(g6, s, buchi_pf(g6, vset(g6, "cd")))
    assert verdict.is_winning
    assert verdict.winning_from == set(g6.vertices())


def test_verify_reports_lasso_through_bad_cycle(g6):
    s = parse_strategy("a: (a,b)\nd: (d,a)\n", g6)
    verdict = verify_strategy(g6, s, buchi_pf(g6, vset(g6, "cd")),
                              start=[g6.id_of("a")])
    assert not verdict.is_winning
    assert verdict.losing_from == {g6.id_of("a")}
    lasso = verdict.counterexample
    cycle_names = {g6.name_of(v) for v in lasso.cycle}
    assert {"a", "b"} <= cycle_names
    assert "c" not in cycle_names and "d" not in cycle_names
    # the lasso is a real play: consecutive states are graph edges
    walk = list(lasso.prefix) + list(lasso.cycle) + [lasso.cycle[0]]
    for u, v in zip(walk, walk[1:]):
        assert g6.has_edge(u, v)
    # one large odd cycle, with chords i -> i+2 so the search for the
    # cycle through the pivot holds many vertices at once
    n = 20_000
    big = GameGraph.from_lists([0] * n, [[(i + 1) % n, (i + 2) % n] for i in range(n)])
    pf = PriorityFunction([1] + [0] * (n - 1))
    s = extract_strategy(big, StrategyTemplate.unconstrained(big))
    verdict = verify_strategy(big, s, pf, start=[n // 2])
    lasso = verdict.counterexample
    assert verdict.losing_from == {n // 2}
    walk = list(lasso.prefix) + list(lasso.cycle) + [lasso.cycle[0]]
    for u, v in zip(walk, walk[1:]):
        assert big.has_edge(u, v)
    assert walk[0] == n // 2 and len(set(lasso.cycle)) == len(lasso.cycle)
    assert max(pf.of(v) for v in lasso.cycle) == 1


def test_verify_all_zero_priorities_always_wins(g6):
    s = extract_strategy(g6, StrategyTemplate.unconstrained(g6))
    verdict = verify_strategy(g6, s, PriorityFunction([0] * 6))
    assert verdict.is_winning
    assert verdict.winning_from == set(g6.vertices())


def test_verify_needs_moves_on_reachable_vertices(g6):
    s = parse_strategy("d: (d,a)\n", g6)
    with pytest.raises(StrategyDomainError, match="no move"):
        verify_strategy(g6, s, PriorityFunction([0] * 6),
                        start=[g6.id_of("a")])


def test_verify_rejects_empty_objectives(g6):
    s = extract_strategy(g6, StrategyTemplate.unconstrained(g6))
    with pytest.raises(ValueError):
        verify_strategy(g6, s, [])


def test_round_robin_visits_every_cursor_state(g6):
    s = extract_strategy(g6, psi2(g6))
    states, succs, initial = _build_product(
        g6, s, [g6.id_of("a")], state_limit=10_000)
    # in the product, states sharing a vertex must sit in one cycle of
    # reachable-from-each-other states, otherwise rotation was unfair
    reach = {}
    for i in range(len(states)):
        seen = set()
        stack = [i]
        while stack:
            j = stack.pop()
            if j in seen:
                continue
            seen.add(j)
            stack.extend(succs[j])
        reach[i] = seen
    a = g6.id_of("a")
    a_states = [i for i, (v, _) in enumerate(states) if v == a]
    assert len(a_states) > 1
    for i in a_states:
        for j in a_states:
            assert j in reach[i]


def test_strategy_text_round_trip(g6):
    s = extract_strategy(g6, psi2(g6))
    text = strategy_text(s)
    back = parse_strategy(text, g6)
    assert strategy_text(back) == text
    for v in s.domain_vertices():
        assert back.allowed(int(v)) == s.allowed(int(v))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_kernel_agrees_with_product_on_template_strategies(seed):
    g, pf = rand_game(seed, 8, 4)
    result = parity_template(g, pf)
    if not result.w0_mask.any():
        return
    s = extract_strategy(g, result.template)
    fast = verify_strategy(g, s, pf)
    slow = _exact_verdict(g, s, pf)
    assert fast.winning_from == slow.winning_from == result.winning_region0


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(0, 3))
def test_kernel_never_overclaims_on_arbitrary_strategies(seed, salt):
    g, pf = rand_game(seed, 7, 4)
    rng = np.random.default_rng([seed, salt])
    # a random sub-strategy of the full edge relation
    lines = []
    for v in g.vertices():
        if g.owner_of(v) != 0:
            continue
        succ = [int(t) for t in g.successors(v)]
        take = sorted(rng.choice(succ, size=rng.integers(1, len(succ) + 1),
                                 replace=False))
        lines.append("%d: %s" % (v, " ".join("(%d,%d)" % (v, t) for t in take)))
    s = parse_strategy("\n".join(lines) + "\n", g)
    fast = verify_strategy(g, s, pf, start=g.vertices())
    slow = _exact_verdict(g, s, pf, start=g.vertices())
    assert fast.winning_from <= slow.winning_from
    if fast.counterexample is not None:
        lasso = fast.counterexample
        walk = list(lasso.prefix) + list(lasso.cycle) + [lasso.cycle[0]]
        for u, v in zip(walk, walk[1:]):
            assert g.has_edge(u, v)
        assert max(pf.of(v) for v in lasso.cycle) % 2 == 1


def _extract_time(n, seed):
    cfg = GeneratorConfig(objective_count=1, max_priority=4, seed=seed,
                          vertex_count=n, edge_count=4 * n)
    g, objectives = generate(cfg)
    result = parity_template(g, objectives[0])
    t0 = time.perf_counter()
    extract_strategy(g, result.template)
    return time.perf_counter() - t0


def test_extraction_time_trend_is_linear():
    small = min(_extract_time(20_000, s) for s in range(3))
    big = min(_extract_time(80_000, s) for s in range(3))
    assert big < 16 * max(small, 1e-3)
