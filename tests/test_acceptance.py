"""Acceptance suite: one test per shipped guarantee.

Every test prints a PASS line with its headline numbers, so
``pytest tests/test_acceptance.py -rA`` reads as a checklist.  The
random sweeps are seeded and therefore reproducible; the larger pools
are built once and shared between the tests that audit them.
"""
import functools
import itertools
import time

import numpy as np

from conftest import (buchi_pf, cobuchi_pf, edge, edges, six_game,
                      eight_game, group_edge_sets, names_of,
                      periodic_buchi_check, pf_by_name, rand_game, vset)
from pgtemplates.cli import main as cli_main
from pgtemplates.compose import ComposeState, add_objective, compose_templates
from pgtemplates.fault import (CSV_HEADER, OnlineStrategy, delete_edges,
                               fault_correction, gaf_tolerant)
from pgtemplates.generator import GeneratorConfig, generate
from pgtemplates.graph import PLAYER0, PriorityFunction
from pgtemplates.oracle import (brute_force_gen_parity_region,
                                enumerate_winning_positional,
                                zielonka_regions)
from pgtemplates.solvers import (buchi_template, cobuchi_template,
                                 parity_template, safety_template)
from pgtemplates.strategy import extract_strategy, verify_strategy
from pgtemplates.template import StrategyTemplate, find_conflicts


def best_of(fn, repeat=5):
    fn()  # warm-up, keeps one-time numpy dispatch out of the timing
    return min(timed(fn) for _ in range(repeat))


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@functools.lru_cache(maxsize=None)
def parity_pool():
    """1000 seeded parity games (n <= 50, m <= 4n, d <= 6), solved."""
    pool = []
    for i in range(1000):
        g, pf = rand_game(i, 50, 1 + i % 6)
        pool.append((g, pf, parity_template(g, pf)))
    return pool


@functools.lru_cache(maxsize=None)
def mixed_pool():
    """300 seeded small games split over the three simple objectives."""
    pool = []
    for i in range(300):
        kind = i % 3
        if kind == 2:
            g, pf = rand_game(i, 10, 1 + i % 5)
            res = parity_template(g, pf)
        else:
            g, _ = rand_game(i, 10, 1)
            rng = np.random.default_rng([404, i])
            picked = rng.choice(g.vertex_count,
                                size=int(rng.integers(1, g.vertex_count + 1)),
                                replace=False)
            subset = [int(v) for v in picked]
            if kind == 0:
                pf = buchi_pf(g, subset)
                res = buchi_template(g, subset)
            else:
                pf = cobuchi_pf(g, subset)
                res = cobuchi_template(g, subset)
        pool.append((g, pf, res))
    return pool


@functools.lru_cache(maxsize=None)
def compose_pool():
    """200 seeded generalized parity games (n <= 8, k <= 3, d <= 2)."""
    pool = []
    for i in range(200):
        k = 1 + i % 3
        got = rand_game(i, 8, 1 + (i // 3) % 2, k=k, density=3)
        g, objectives = got if k > 1 else (got[0], [got[1]])
        state, t = compose_templates(g, ComposeState.initial(g), objectives)
        pool.append((g, objectives, t))
    return pool


def test_01_fixed_game_safety_buchi_cobuchi_templates(g6):
    not_f = [v for v in g6.vertices() if v != g6.id_of("f")]
    safety = safety_template(g6, not_f)
    assert names_of(g6, safety.w0_mask) == ["a", "b", "c", "d"]
    assert safety.template.unsafe_edges == frozenset(edges(g6, ("d", "e")))
    assert not safety.template.colive_edges
    assert not safety.template.live_groups

    buchi = buchi_template(g6, vset(g6, "cd"))
    assert buchi.w0_mask.all()
    assert group_edge_sets(buchi.template) == [
        frozenset(edges(g6, ("a", "c"), ("a", "d")))]
    assert not buchi.template.unsafe_edges
    assert not buchi.template.colive_edges

    cobuchi = cobuchi_template(g6, vset(g6, "acd"))
    assert cobuchi.w0_mask.all()
    assert cobuchi.template.colive_edges == frozenset(
        edges(g6, ("a", "b"), ("d", "b"), ("d", "e")))
    assert not cobuchi.template.unsafe_edges
    assert not cobuchi.template.live_groups

    worst = max(best_of(lambda: safety_template(g6, not_f)),
                best_of(lambda: buchi_template(g6, vset(g6, "cd"))),
                best_of(lambda: cobuchi_template(g6, vset(g6, "acd"))))
    assert worst < 1e-3
    print("PASS 1: six-vertex safety/repeat/eventual-stay templates exact, "
          "slowest solve %.0f us" % (worst * 1e6))


def test_02_fixed_game_parity_template(g8):
    g3, pf = g8
    res = parity_template(g3, pf)
    assert res.w0_mask.all()
    assert res.template.colive_edges == frozenset(edges(g3, ("b", "c")))
    assert group_edge_sets(res.template) == sorted(
        (frozenset(edges(g3, pair)) for pair in
         [("a", "b"), ("h", "d"), ("g", "f")]), key=sorted)
    assert not res.template.unsafe_edges
    elapsed = best_of(lambda: parity_template(g3, pf))
    assert elapsed < 1e-3
    print("PASS 2: eight-vertex parity template exact, solve %.0f us"
          % (elapsed * 1e6))


def test_03_parity_regions_match_reference_solver():
    t0 = time.perf_counter()
    for i, (g, pf, res) in enumerate(parity_pool()):
        oracle = zielonka_regions(g, pf)
        assert np.array_equal(res.w0_mask, oracle.w0_mask), "game %d" % i
        assert np.array_equal(res.w1_mask, oracle.w1_mask), "game %d" % i
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    print("PASS 3: 1000 random parity games match the reference regions "
          "in %.1f s" % elapsed)


def test_04_extracted_strategies_win_from_whole_region():
    nonempty = 0
    for i, (g, pf, res) in enumerate(mixed_pool()):
        s = extract_strategy(g, res.template)
        verdict = verify_strategy(g, s, pf)
        assert verdict.is_winning, "game %d: %r" % (i, verdict.counterexample)
        nonempty += bool(res.w0_mask.any())
    assert nonempty > 100
    print("PASS 4: 300 extracted strategies verified winning from their "
          "whole region (%d nonempty)" % nonempty)


def test_05_solver_templates_are_conflict_free():
    checked = 0
    for g, _, res in parity_pool() + mixed_pool():
        assert find_conflicts(g, res.template).is_conflict_free
        checked += 1
    print("PASS 5: %d solver templates conflict-free" % checked)


def test_06_safety_template_is_maximally_permissive():
    for i in range(100):
        g, _ = rand_game(i, 7, 1, density=3)
        rng = np.random.default_rng([606, i])
        safe = [v for v in range(g.vertex_count) if rng.random() < 0.7]
        w0, enumerated = enumerate_winning_positional(g, safe)
        res = safety_template(g, safe)
        assert np.array_equal(w0, res.w0_mask), "game %d" % i
        unsafe = res.template.unsafe_edges
        pools = [[(v, int(t)) for t in g.successors(v)
                  if (v, int(t)) not in unsafe]
                 for v in map(int, np.flatnonzero(w0))
                 if g.owner_of(v) == PLAYER0]
        compliant = frozenset(frozenset(picks)
                              for picks in itertools.product(*pools))
        assert compliant == enumerated, "game %d" % i
    print("PASS 6: 100 safety games, winning strategies are exactly the "
          "unsafe-avoiding ones")


def test_07_composition_is_sound_and_strategies_verify():
    gaps = 0
    for i, (g, objectives, t) in enumerate(compose_pool()):
        oracle = brute_force_gen_parity_region(g, objectives)
        assert not (t.region_mask & ~oracle).any(), "game %d" % i
        gaps += not np.array_equal(t.region_mask, oracle)
        if t.region_mask.any():
            s = extract_strategy(g, t)
            assert verify_strategy(g, s, objectives).is_winning, "game %d" % i
    print("PASS 7: 200 compositions sound against the brute-force oracle, "
          "strategies verified; %d incomplete" % gaps)


def test_08_composition_gap_instance(g6):
    objectives = [pf_by_name(g6, 0, b=1),
                  PriorityFunction([0, 2, 1, 1, 1, 1])]
    state, t = compose_templates(g6, ComposeState.initial(g6), objectives)
    assert not state.w0_mask.any()
    assert not t.region_mask.any()
    oracle = brute_force_gen_parity_region(g6, objectives)
    assert oracle.all()
    print("PASS 8: known gap instance composes to the empty region while "
          "the oracle wins everywhere")


def test_09_incremental_composition_equals_batch():
    for i, (g, objectives, t) in enumerate(compose_pool()):
        state = ComposeState.initial(g)
        for pf in objectives:
            state, stepwise = add_objective(g, state, pf)
        assert np.array_equal(state.w0_mask, t.region_mask), "game %d" % i
        assert stepwise.unsafe_edges == t.unsafe_edges, "game %d" % i
        assert stepwise.colive_edges == t.colive_edges, "game %d" % i
    print("PASS 9: one-by-one objective folding equals the batch "
          "composition on all 200 instances")


def test_10_fault_correction_matches_resolving_the_pruned_game():
    fast = slow = 0
    for i in range(200):
        g, pf = rand_game(i, 30, 1 + i % 5, min_n=4)
        res = parity_template(g, pf)
        rng = np.random.default_rng([1010, i])
        p0_edges = np.flatnonzero(g.owners[g.edge_sources()] == PLAYER0)
        fmask = np.zeros(g.edge_count, dtype=np.bool_)
        if p0_edges.size:
            k = max(1, int(np.ceil(0.1 * p0_edges.size)))
            fmask[rng.choice(p0_edges, size=k, replace=False)] = True
        fixed = fault_correction(g, pf, res.template, fmask)
        g2, p2, _ = delete_edges(g, pf, fmask)
        oracle = zielonka_regions(g2, p2)
        assert np.array_equal(fixed.region_mask, oracle.w0_mask), "game %d" % i
        if fixed.graph is g:
            fast += 1
            surviving = StrategyTemplate.from_edges(
                g2,
                unsafe=[e for e in fixed.unsafe_edges if g2.has_edge(*e)],
                colive=[e for e in fixed.colive_edges if g2.has_edge(*e)],
                live_groups=[[e for e in group if g2.has_edge(*e)]
                             for group in fixed.live_groups],
                region=fixed.winning_region)
            s = extract_strategy(g2, surviving)
            assert verify_strategy(g2, s, p2).is_winning, "game %d" % i
        else:
            slow += 1
    print("PASS 10: 200 fault corrections equal re-solving the pruned "
          "game (%d fast path verified, %d re-solved)" % (fast, slow))


def test_11_availability_fault_checks(g6):
    for g, _, res in parity_pool()[:100]:
        assert gaf_tolerant(g, res.template, ()) == (True, frozenset())

    repeat_cd = buchi_template(g6, vset(g6, "cd")).template
    drop_ad = edges(g6, ("a", "d"))
    assert gaf_tolerant(g6, repeat_cd, drop_ad) == (True, frozenset())

    online = OnlineStrategy(g6, repeat_cd, drop_ad)
    full = list(g6.edges())
    oddstep = [e for e in full if e != edge(g6, "a", "d")]
    assert periodic_buchi_check(g6, online, vset(g6, "cd"),
                                [full, oddstep])
    print("PASS 11: fault-freeness on 100 templates, pinned single-fault "
          "case tolerant, periodic-availability play reaches the goal")


def test_12_large_game_within_time_budget():
    cfg = GeneratorConfig(objective_count=1, max_priority=4, seed=12,
                          vertex_count=100_000, edge_count=400_000)
    g, (pf,) = generate(cfg)
    t0 = time.perf_counter()
    res = parity_template(g, pf)
    solve = time.perf_counter() - t0
    assert res.w0_mask.any()
    t0 = time.perf_counter()
    extract_strategy(g, res.template)
    extraction = time.perf_counter() - t0
    assert solve < 10
    assert extraction < 0.2
    print("PASS 12: n=100000 m=400000 solved in %.2f s (<10 s), "
          "extraction %.3f s (<0.2 s)" % (solve, extraction))


def test_13_bench_fault_conflict_rate_is_monotone(capsys):
    assert cli_main(["bench", "fault"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.05", "0.1", "0.2", "0.3"]
    assert all(row[1] == "1000" for row in rows)
    rates = [float(row[2]) for row in rows]
    assert all(0.0 <= r <= 1.0 for r in rates)
    assert all(a <= b for a, b in zip(rates, rates[1:]))
    print("PASS 13: bench fault conflict rate monotone over fractions: "
          + " <= ".join("%.3f" % r for r in rates))
