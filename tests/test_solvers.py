import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgtemplates import (GeneratorConfig, buchi_template,
                         cobuchi_template, cobuchi_win, extract_strategy,
                         find_conflicts, generate, parity_template,
                         reach_template, safety_template, safety_win,
                         verify_strategy, zielonka_regions)
from pgtemplates import solvers, transformers
from pgtemplates.graph import GameGraph
from conftest import (buchi_pf, cobuchi_pf, counted_kernels, counted_steps,
                      edges, group_edge_sets, names_of, rand_game,
                      sample_compliant_strategy, vset)


def test_safety_win_and_template(g6):
    w0 = safety_win(g6, vset(g6, "abcd"))
    assert names_of(g6, w0) == ["a", "b", "c", "d"]
    result = safety_template(g6, vset(g6, "abcd"))
    assert names_of(g6, result.w0_mask) == ["a", "b", "c", "d"]
    assert result.template.unsafe_edges == frozenset(edges(g6, ("d", "e")))
    assert result.template.colive_edges == frozenset()
    assert result.template.live_groups == ()
    assert result.winning_region1 == vset(g6, "ef")


def test_safety_trivial_sets(g6):
    full = safety_template(g6, g6.vertices())
    assert full.w0_mask.all()
    assert full.template.unsafe_edges == frozenset()
    empty = safety_template(g6, [])
    assert not empty.w0_mask.any()
    assert empty.template.unsafe_edges == frozenset()


def test_buchi_win_and_template(g6):
    result = buchi_template(g6, vset(g6, "cd"))
    assert result.w0_mask.all()
    assert result.template.unsafe_edges == frozenset()
    assert result.template.colive_edges == frozenset()
    assert group_edge_sets(result.template) == [
        frozenset(edges(g6, ("a", "c"), ("a", "d")))]


def test_buchi_full_goal_is_trivial(g6):
    result = buchi_template(g6, g6.vertices())
    assert result.w0_mask.all()
    assert result.template.live_groups == ()


def test_buchi_empty_goal_loses_everywhere(g6):
    result = buchi_template(g6, [])
    assert not result.w0_mask.any()


def test_buchi_small_goal_matches_oracle(g6):
    result = buchi_template(g6, vset(g6, "f"))
    oracle = zielonka_regions(g6, buchi_pf(g6, vset(g6, "f")))
    assert np.array_equal(result.w0_mask, oracle.w0_mask)
    if result.w0_mask.any():
        s = extract_strategy(g6, result.template)
        verdict = verify_strategy(g6, s, buchi_pf(g6, vset(g6, "f")))
        assert verdict.is_winning


def edge_sets(g, groups):
    return [frozenset(map(g.edge_of, ids.tolist())) for ids in groups]


def test_reach_template_goldens(g6, g8):
    assert edge_sets(g6, reach_template(g6, vset(g6, "cd"))) == \
        list(buchi_template(g6, vset(g6, "cd")).template.live_groups)
    assert group_edge_sets(buchi_template(g6, vset(g6, "cd")).template) \
        == [frozenset(edges(g6, ("a", "c"), ("a", "d")))]
    assert reach_template(g6, g6.vertices()) == []
    g3, _ = g8
    groups = reach_template(g3, vset(g3, "d"),
                            universe=g3.mask_of(vset(g3, "dh")))
    assert edge_sets(g3, groups) == [frozenset(edges(g3, ("h", "d")))]


def test_reach_template_rejects_unattractable(g6):
    with pytest.raises(ValueError, match="attractable"):
        reach_template(g6, vset(g6, "f"))


def test_reach_template_reads_universe_as_ids_or_mask():
    g = GameGraph.from_lists([0, 0, 1], [[0, 1], [2], [0, 2]])
    want = [[(0, 1)]]

    def groups(universe=None):
        return [[g.edge_of(int(e)) for e in ids]
                for ids in reach_template(g, [2], universe)]

    assert groups() == want
    # a list of booleans is a mask, like a boolean array
    for universe in (np.array([0, 1, 2]), np.ones(3, dtype=np.bool_),
                     [True, True, True]):
        assert groups(universe) == want
    # ids 1, 1, 0: the universe {0, 1} leaves the goal out
    with pytest.raises(ValueError, match="attractable"):
        reach_template(g, [2], universe=np.array([1, 1, 0]))
    with pytest.raises(ValueError, match="attractable"):
        reach_template(g, [2], universe=[1])
    with pytest.raises(ValueError, match="mask length"):
        reach_template(g, [2], universe=np.ones(4, dtype=np.bool_))


def back_chain(length):
    """Player-0 chain: vertex i may step back to i-1 or wait, so the
    goal {0} lies length-1 attractor layers below the far end."""
    return GameGraph.from_lists([0] * length,
                                [[0]] + [[i - 1, i] for i in range(1, length)])


def count_reads(monkeypatch, name, counted):
    """Trace solvers.<name>: while it runs, count the calls of each
    function named in ``counted`` (looked up in transformers and
    solvers), the entries read through indexing the predecessor lists
    and the edge targets or through their memoryviews ("scanned"), and
    the fetches of a whole per-edge array, edge sources or targets
    ("fetched").  Returns the counts."""
    reads = dict.fromkeys(counted, 0)
    reads.update(scanned=0, fetched=0)
    inside = []

    class Scanned(np.ndarray):
        """Counts the entries read through indexing inside the call."""

        def __getitem__(self, key):
            out = super().__getitem__(key)
            if inside:
                reads["scanned"] += np.size(out)
            return out.view(np.ndarray) if isinstance(out, np.ndarray) else out

    class ScannedView:
        """A memoryview of a Scanned array that counts the entries read
        through it inside the call, as Scanned does for numpy indexing."""

        def __init__(self, array):
            self.view = memoryview(array)

        def __getitem__(self, key):
            out = self.view[key]
            if inside:
                reads["scanned"] += len(out) if isinstance(key, slice) else 1
            return out

    def counting_views(*arrays):
        return [ScannedView(x) if isinstance(x, Scanned) else view
                for x, view in zip(arrays, views(*arrays))]

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            if inside:
                reads[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (transformers, solvers):
        for key in counted:
            if hasattr(module, key):
                monkeypatch.setattr(module, key,
                                    counting(key, getattr(module, key)))
    # the predecessor lists the kernel walks, in either round form, and
    # the successor targets the layer and co-live steps read; the scalar
    # steps read them through the views transformers._views makes
    views = transformers._views
    monkeypatch.setattr(transformers, "_views", counting_views)
    pred_csr = GameGraph.pred_csr
    monkeypatch.setattr(GameGraph, "pred_csr", lambda self: (
        pred_csr(self)[0], pred_csr(self)[1].view(Scanned)))
    targets = GameGraph.edge_targets.fget
    sources = GameGraph.edge_sources

    def fetch(array):
        if inside:
            reads["fetched"] += 1
        return array

    monkeypatch.setattr(GameGraph, "edge_targets", property(
        lambda self: fetch(targets(self).view(Scanned))))
    monkeypatch.setattr(GameGraph, "edge_sources",
                        lambda self: fetch(sources(self)))
    real = getattr(solvers, name)

    def traced(*args, **kwargs):
        inside.append(True)
        try:
            return real(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(solvers, name, traced)
    return reads


def test_reach_template_work_is_linear_on_a_chain(monkeypatch):
    # every vertex is its own layer; re-running the closures per layer
    # would scan Θ(L·m) entries
    length = 3000
    g = back_chain(length)
    reads = count_reads(monkeypatch, "reach_template", ["_restricted_degrees"])
    # force every kernel round and layer onto the numpy form, then onto
    # the scalar form
    for limit in (0, length + 1):
        monkeypatch.setattr(transformers, "_SCALAR_LIMIT", limit)
        reads.update(dict.fromkeys(reads, 0))
        res = solvers.buchi_template(g, [0])
        assert res.w0_mask.all()
        assert len(res.template.live_groups) == length - 1
        assert reads["_restricted_degrees"] == 1
        # every predecessor list once, every layer's successors once
        assert g.edge_count <= reads["scanned"] <= 2 * g.edge_count


def test_cobuchi_template_work_is_linear_on_a_chain(monkeypatch):
    # one peel of length-1 layers; a full-edge pass per layer would
    # fetch the per-edge arrays Θ(L) times and read Θ(L·m) entries
    length = 3000
    g = back_chain(length)
    reads = count_reads(monkeypatch, "cobuchi_template", ["_safety_region"])
    for limit in (0, length + 1):
        monkeypatch.setattr(transformers, "_SCALAR_LIMIT", limit)
        reads.update(dict.fromkeys(reads, 0))
        res = solvers.cobuchi_template(g, [0])
        assert res.w0_mask.all()
        assert reads["_safety_region"] == 1
        # waiting is the only co-live move: every self-loop but the goal's
        assert res.template.colive_edges == frozenset(
            (i, i) for i in range(1, length))
        assert not res.template.unsafe_edges
        # five attractor runs (three for the region, one for the core,
        # one for the layers) read every predecessor list at most once
        # each, and the co-live step each peeled vertex's successors once
        assert reads["scanned"] <= 6 * g.edge_count, reads
        # a fixed number of whole-edge passes, not one per layer
        assert reads["fetched"] <= 20, reads


def test_cobuchi_win_and_template(g6):
    assert cobuchi_win(g6, vset(g6, "acd")).all()
    result = cobuchi_template(g6, vset(g6, "acd"))
    assert result.w0_mask.all()
    assert result.template.colive_edges == frozenset(
        edges(g6, ("a", "b"), ("d", "b"), ("d", "e")))
    assert result.template.unsafe_edges == frozenset()


def test_cobuchi_trivial_goal(g6):
    result = cobuchi_template(g6, g6.vertices())
    assert result.w0_mask.all()
    assert result.template.colive_edges == frozenset()


def test_cobuchi_singleton_goal_verifies(g6):
    result = cobuchi_template(g6, vset(g6, "a"))
    pf = cobuchi_pf(g6, vset(g6, "a"))
    oracle = zielonka_regions(g6, pf)
    assert np.array_equal(result.w0_mask, oracle.w0_mask)
    if result.w0_mask.any():
        s = extract_strategy(g6, result.template)
        assert verify_strategy(g6, s, pf).is_winning


def test_parity_eight_vertex_golden(g8):
    g3, pf = g8
    result = parity_template(g3, pf)
    assert result.w0_mask.all()
    assert not result.w1_mask.any()
    t = result.template
    assert t.unsafe_edges == frozenset()
    assert t.colive_edges == frozenset(edges(g3, ("b", "c")))
    assert group_edge_sets(t) == sorted([
        frozenset(edges(g3, ("g", "f"))),
        frozenset(edges(g3, ("a", "b"))),
        frozenset(edges(g3, ("h", "d")))], key=sorted)
    assert find_conflicts(g3, t).is_conflict_free


def test_parity_all_even_is_unconstrained(g6):
    pf = buchi_pf(g6, [])  # constant priority, here an odd one
    result = parity_template(
        g6, cobuchi_pf(g6, g6.vertices()))  # constant 0
    assert result.w0_mask.all()
    assert result.template.unsafe_edges == frozenset()
    assert result.template.colive_edges == frozenset()
    assert result.template.live_groups == ()
    # and the flip side: constant odd priority loses everywhere
    assert not parity_template(g6, pf).w0_mask.any()


def test_parity_regions_partition(g8):
    g3, pf = g8
    result = parity_template(g3, pf)
    assert not (result.w0_mask & result.w1_mask).any()
    assert (result.w0_mask | result.w1_mask).all()


@settings(deadline=None, max_examples=120)
@given(st.integers(0, 100_000))
def test_parity_regions_match_oracle(seed):
    g, pf = rand_game(seed, 50, 6)
    result = parity_template(g, pf)
    oracle = zielonka_regions(g, pf)
    assert np.array_equal(result.w0_mask, oracle.w0_mask)
    assert np.array_equal(result.w1_mask, oracle.w1_mask)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
# games where a player-0 vertex of an attractor could leave it and be
# brought back forever without progress
@example(seed=7)
@example(seed=232)
@example(seed=4203)
@example(seed=9179)
def test_compliant_samples_stay_winning(seed):
    g, pf = rand_game(seed, 10, 4)
    result = parity_template(g, pf)
    if not result.w0_mask.any():
        return
    rng = np.random.default_rng(seed)
    for _ in range(5):
        s = sample_compliant_strategy(g, result.template, rng)
        assert verify_strategy(g, s, pf).is_winning


def parts_lists(parts):
    w0, w1, groups, colive = parts
    return (w0.tolist(), w1.tolist(), [ids.tolist() for ids in groups],
            [ids.tolist() for ids in colive])


def test_memo_hits_return_fresh_masks_and_lists(monkeypatch):
    g, pf = rand_game(17, 20, 5)
    universe = np.ones(g.vertex_count, dtype=np.bool_)
    memo = {}
    first = solvers.parity_parts(g, pf.values, universe, memo)
    want = parts_lists(first)
    assert first[0].any() and first[1].any() and first[2] and first[3]
    steps = counted_steps(monkeypatch)
    for _ in range(2):
        w0, w1, groups, colive = first
        w0[:] = True
        w1[:] = True
        groups.append(np.arange(3))
        del colive[0]
        # a hit at the root: no step runs, and the answer is unchanged
        first = solvers.parity_parts(g, pf.values, universe, memo)
        assert steps[0] == 0
        assert parts_lists(first) == want


def test_memo_key_is_the_priorities_inside_the_universe(monkeypatch):
    g, pf = rand_game(17, 20, 5)
    n = g.vertex_count
    universe = np.ones(n, dtype=np.bool_)
    universe[0] = False
    memo = {}
    base = parts_lists(solvers.parity_parts(g, pf.values, universe, memo))
    steps = counted_steps(monkeypatch)
    changed = 0
    # one array, written between the calls that share the memo
    vals = pf.values.copy()
    for v in range(1, n):
        vals[v] ^= 1
        steps[0] = 0
        got = parts_lists(solvers.parity_parts(g, vals, universe, memo))
        # one vertex moved inside the universe: not an earlier root's input
        assert steps[0] > 0
        assert got == parts_lists(solvers.parity_parts(g, vals, universe))
        changed += got != base
        vals[v] ^= 1
    assert changed > 0
    # outside the universe the priorities are not part of the input
    vals = pf.values.copy()
    vals[0] += 1
    steps[0] = 0
    assert parts_lists(solvers.parity_parts(g, vals, universe, memo)) == base
    assert steps[0] == 0


def test_memo_key_ignores_the_integer_dtype(monkeypatch):
    g, pf = rand_game(17, 20, 5)
    universe = np.ones(g.vertex_count, dtype=np.bool_)
    memo = {}
    wide = parts_lists(solvers.parity_parts(g, pf.values, universe, memo))
    narrow = pf.values.astype(np.int32)
    assert parts_lists(solvers.parity_parts(g, narrow, universe)) == wide
    steps = counted_steps(monkeypatch)
    assert parts_lists(solvers.parity_parts(g, narrow, universe, memo)) == wide
    assert steps[0] == 0


def test_kernel_memo_hits_return_fresh_masks_and_lists(monkeypatch):
    # writing into what a hit returned leaves the next hit unchanged
    g, pf = rand_game(17, 20, 5)
    universe = np.ones(g.vertex_count, dtype=np.bool_)
    goal = pf.values == pf.max_priority
    runs = counted_kernels(monkeypatch)
    memo = {}
    area = solvers._remembered(memo, "attr", g, goal, 0, universe)
    groups = solvers._remembered(memo, "reach", g, goal, 0, area)
    want = (area.tolist(), [ids.tolist() for ids in groups])
    assert not area.all() and groups
    for _ in range(2):
        area[:] = True
        groups.append(np.arange(3))
        del groups[0]
        area = solvers._remembered(memo, "attr", g, goal, 0, universe)
        groups = solvers._remembered(memo, "reach", g, goal, 0, area)
        assert (area.tolist(), [ids.tolist() for ids in groups]) == want
    assert runs == {"attr_mask": 1, "reach_template": 1}
    # the other player, or another universe, is another run
    solvers._remembered(memo, "attr", g, goal, 1, universe)
    universe[0] = False
    solvers._remembered(memo, "attr", g, goal, 0, universe)
    assert runs == {"attr_mask": 3, "reach_template": 1}


def test_kernel_memo_stores_no_failed_run():
    # a goal player 0 cannot attract the universe to raises every time
    g = GameGraph.from_lists([0, 1], [[1], [1]])
    goal = np.array([True, False])
    memo = {}
    for _ in range(2):
        with pytest.raises(ValueError, match="not player-0 attractable"):
            solvers._remembered(memo, "reach", g, goal, 0,
                                np.ones(2, dtype=np.bool_))
    assert memo == {}


def test_empty_universe_gives_two_separate_regions():
    # writing one region of an empty universe leaves the other alone
    g, pf = rand_game(17, 20, 5)
    empty = np.zeros(g.vertex_count, dtype=np.bool_)
    w0, w1, groups, colive = solvers.parity_parts(g, pf.values, empty)
    assert not np.shares_memory(w0, w1)
    assert not w0.any() and not w1.any() and groups == [] and colive == []
    w0[0] = True
    assert not w1.any()


def _solve_time(n, seed):
    cfg = GeneratorConfig(objective_count=1, max_priority=3, seed=seed,
                          vertex_count=n, edge_count=4 * n)
    g, objectives = generate(cfg)
    goal = np.flatnonzero(objectives[0].values == objectives[0].max_priority)
    t0 = time.perf_counter()
    buchi_template(g, goal)
    cobuchi_template(g, goal)
    return time.perf_counter() - t0


def test_runtime_trend_stays_near_linear_per_size_step():
    # doubling n (and m with it) should not blow up much worse than the
    # n*m bound; allow a generous constant for noise
    small = min(_solve_time(2_000, s) for s in range(3))
    big = min(_solve_time(8_000, s) for s in range(3))
    assert big < 16 * 6 * max(small, 1e-3)


def _trap_breaking_call():
    # vertex 2 belongs to player 1 and has an edge into {0}, so {2} is
    # no player-1 trap
    g = GameGraph.from_lists([0, 0, 1], [[0, 1], [2], [0, 2]])
    return solvers._crossing_edges(g, g.mask_of([2]), g.mask_of([0]))


def test_crossing_edges_rejects_player1_escape():
    with pytest.raises(RuntimeError, match="player-1 edge escapes"):
        _trap_breaking_call()


def test_crossing_edges_check_survives_python_O():
    code = ("from pgtemplates import solvers\n"
            "from pgtemplates.graph import GameGraph\n"
            "g = GameGraph.from_lists([0, 0, 1], [[0, 1], [2], [0, 2]])\n"
            "try:\n"
            "    solvers._crossing_edges(g, g.mask_of([2]), g.mask_of([0]))\n"
            "except RuntimeError as e:\n"
            "    print('raised:', e)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, timeout=60, env={"PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("raised: player-1 edge escapes")


def test_cobuchi_without_safety_core_raises(g6, monkeypatch):
    monkeypatch.setattr(solvers, "_safety_region",
                        lambda g, stay, player, universe: np.zeros_like(universe))
    with pytest.raises(RuntimeError, match="without a safety core"):
        cobuchi_template(g6, vset(g6, "abcd"))
