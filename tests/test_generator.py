import numpy as np
import pytest

from pgtemplates import GeneratorConfig, emit_game, generate


def test_generation_is_deterministic():
    cfg = GeneratorConfig(objective_count=2, max_priority=3, seed=42,
                          vertex_count=40, edge_count=120)
    text_a = emit_game(*generate(cfg))
    text_b = emit_game(*generate(cfg))
    assert text_a == text_b
    other = GeneratorConfig(objective_count=2, max_priority=3, seed=43,
                            vertex_count=40, edge_count=120)
    assert emit_game(*generate(other)) != text_a


def test_graphs_are_total_with_exact_edge_count():
    for seed in range(10):
        cfg = GeneratorConfig(objective_count=1, max_priority=1, seed=seed,
                              vertex_count=17, edge_count=50)
        g, _ = generate(cfg)
        assert g.vertex_count == 17
        assert g.edge_count == 50
        assert len(set(g.edges())) == 50
        for v in g.vertices():
            assert len(g.successors(v)) >= 1
        assert set(np.unique(g.owners)) <= {0, 1}


def test_stratified_half_m1_n100():
    cfg = GeneratorConfig(objective_count=1, max_priority=1, seed=11,
                          vertex_count=100, edge_count=150)
    _, (pf,) = generate(cfg)
    zeros = int((pf.values == 0).sum())
    ones = int((pf.values == 1).sum())
    assert zeros + ones == 100
    # the stratified half contributes exactly 25/25, the uniform half
    # drifts around 25/25, so totals stay near 50/50
    assert 30 <= zeros <= 70
    assert pf.max_priority == 1


def test_stratification_remainder_goes_to_top_priority():
    # half = 7, strata of floor(7/3) = 2 per priority, one leftover
    # vertex lands on the highest priority
    counts = np.zeros(3, dtype=int)
    hits = 0
    for seed in range(60):
        cfg = GeneratorConfig(objective_count=1, max_priority=2, seed=seed,
                              vertex_count=15, edge_count=30)
        _, (pf,) = generate(cfg)
        for p in range(3):
            counts[p] += int((pf.values == p).sum())
        hits += 1
    # per draw: stratified 2,2,3 plus uniform 8/3 each; top priority
    # carries the remainder so it must dominate on average
    assert counts[2] > counts[0]
    assert counts[2] > counts[1]
    assert counts.sum() == hits * 15


def test_columns_are_independent_draws():
    cfg = GeneratorConfig(objective_count=3, max_priority=3, seed=9,
                          vertex_count=10_000, edge_count=30_000)
    _, objectives = generate(cfg)
    assert len(objectives) == 3
    for pf in objectives:
        counts = np.bincount(pf.values, minlength=4)
        # each priority holds about a quarter of the vertices
        assert (np.abs(counts - 2_500) < 250).all()
    for a in range(3):
        for b in range(a + 1, 3):
            assert not np.array_equal(objectives[a].values,
                                      objectives[b].values)
            # joint distribution factorizes for independent columns
            joint = float(np.mean((objectives[a].values == 0)
                                  & (objectives[b].values == 0)))
            assert abs(joint - 1 / 16) < 0.02


@pytest.mark.parametrize("kwargs,msg", [
    (dict(objective_count=0, max_priority=1, seed=0, vertex_count=2,
          edge_count=2), "objective count"),
    (dict(objective_count=1, max_priority=0, seed=0, vertex_count=2,
          edge_count=2), "max priority"),
    (dict(objective_count=1, max_priority=1, seed=0, vertex_count=1,
          edge_count=2), "at most 1 distinct"),
    (dict(objective_count=1, max_priority=1, seed=0, vertex_count=0,
          edge_count=0), "at least one vertex"),
    (dict(objective_count=1, max_priority=1, seed=0, vertex_count=5,
          edge_count=4), "totality"),
    (dict(objective_count=1, max_priority=1, seed=0, vertex_count=3,
          edge_count=10), "at most 9"),
])
def test_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        GeneratorConfig(**kwargs)
