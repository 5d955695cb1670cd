"""Differential checks of the attractor kernel, reach_template,
buchi_template, cobuchi_template, the parity solver's memo and the
conflict check against the implementations they replaced.

The kernel and reach_template run small rounds and layers as scalar
steps and large ones with numpy; the kernel checks run every case with
all steps forced onto each form and with the two mixed (see ``FORMS``).
The scalar steps read the arrays through memoryviews, so the public
entry points are also run on strided and read-only masks, int32
priorities and frontiers given as lists or int64 arrays.  Deep games
(chains and a ladder with one vertex per layer, and a sparse game of 64
priorities) check every form against the references at thousands of
layers.

The references below are the earlier code, kept verbatim apart from
their names: two separate worklist loops for attr and uattr, the
universe-restricted one-step operators upre and cpre, a reach_template
that re-runs uattr and a full-edge cpre for every layer (calling the
uattr reference, and building its full universe inline), a
cobuchi_template that takes each attractor layer with a full-edge cpre
and marks its co-live edges with two full-edge scans, and a
find_conflicts that scans the live-groups one at a time with a length-n
bincount each.  The last two now speak the template's live-group
format: reach_template gives one edge-id array per layer, and a starved
vertex maps to the indices of its groups.  parity_parts_reference runs
the parity solver's steps on the trampoline without a memo, so every
repeated subgame is solved again.  buchi_template_reference is the
Büchi solver's own region loop followed by one reach_template layering
inside the region, which buchi_template replaced by the parity template
of the Büchi encoding.
"""
import hashlib
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ComposeState, ConflictReport, GeneratorConfig,
                         PriorityFunction, StrategyTemplate, buchi_template,
                         compose, compose_templates, conjoin, find_conflicts,
                         generate, pad_to_odd, parity_template, reach_template,
                         relabel, solvers, template_text, transformers)
from pgtemplates.graph import GameGraph, PLAYER0
from pgtemplates.solvers import (SolveResult, _buchi_region, _crossing_edges,
                                 _safety_region, cobuchi_template, cobuchi_win,
                                 parity_parts)
from pgtemplates.transformers import (_attractor, _gather_ranges,
                                      _restricted_degrees, attr_mask)
from conftest import compose_shaped_game, counted_steps, rand_game


def attr_mask_reference(g, target, player, universe=None):
    owners = g.owners
    in_a = target.copy() if universe is None else (target & universe)
    counter = _restricted_degrees(g, universe).copy()
    poff, psrc = g.pred_csr()
    frontier = np.flatnonzero(in_a)
    while frontier.size:
        preds = _gather_ranges(poff, psrc, frontier)
        if universe is not None:
            preds = preds[universe[preds]]
        preds = preds[~in_a[preds]]
        if preds.size == 0:
            break
        newly = np.unique(preds[owners[preds] == player])
        opp = preds[owners[preds] != player]
        if opp.size:
            cand, cnts = np.unique(opp, return_counts=True)
            counter[cand] -= cnts
            hit = cand[counter[cand] == 0]
            if hit.size:
                newly = np.union1d(newly, hit)
        in_a[newly] = True
        frontier = newly
    return in_a


def uattr_mask_reference(g, target, universe=None):
    in_a = target.copy() if universe is None else (target & universe)
    counter = _restricted_degrees(g, universe).copy()
    poff, psrc = g.pred_csr()
    frontier = np.flatnonzero(in_a)
    while frontier.size:
        preds = _gather_ranges(poff, psrc, frontier)
        if universe is not None:
            preds = preds[universe[preds]]
        preds = preds[~in_a[preds]]
        if preds.size == 0:
            break
        cand, cnts = np.unique(preds, return_counts=True)
        counter[cand] -= cnts
        newly = cand[counter[cand] == 0]
        in_a[newly] = True
        frontier = newly
    return in_a


def upre_mask_reference(g: GameGraph, u: np.ndarray,
                        universe: np.ndarray | None = None) -> np.ndarray:
    """Vertices whose every (restricted) successor lies in u.

    Requires at least one restricted successor; see the transformers
    module note on worklist semantics for universe-internal dead ends.
    """
    src = g.edge_sources()
    dst = g.edge_targets
    if universe is None:
        deg = np.diff(g.succ_offsets())
        cnt = np.bincount(src[u[dst]], minlength=g.vertex_count)
        return cnt == deg
    ok = universe[src] & universe[dst]
    deg = np.bincount(src[ok], minlength=g.vertex_count)
    cnt = np.bincount(src[ok & u[dst]], minlength=g.vertex_count)
    return (deg > 0) & (cnt == deg) & universe


def cpre_mask_reference(g: GameGraph, u: np.ndarray, player: int,
                        universe: np.ndarray | None = None) -> np.ndarray:
    """Vertices from which the player forces a visit to u in one step."""
    src = g.edge_sources()
    dst = g.edge_targets
    if universe is None:
        hit = u[dst]
    else:
        hit = universe[src] & universe[dst] & u[dst]
    exists = np.zeros(g.vertex_count, dtype=np.bool_)
    exists[src[hit]] = True
    forall = upre_mask_reference(g, u, universe)
    mine = g.owners == player
    out = np.where(mine, exists, forall)
    if universe is not None:
        out &= universe
    return out


def reach_template_reference(g, goal, universe=None):
    if universe is None:
        universe = np.ones(g.vertex_count, dtype=np.bool_)
    goal_mask = g.mask_of(goal) & universe
    total = int(universe.sum())
    src = g.edge_sources()
    dst = g.edge_targets
    owners = g.owners
    groups = []
    a = uattr_mask_reference(g, goal_mask, universe)
    while int(a.sum()) != total:
        b = cpre_mask_reference(g, a, PLAYER0, universe) & ~a
        if not b.any():
            raise ValueError(
                "reach_template: goal is not player-0 attractable from the "
                "whole graph; restrict to the attractor first")
        ids = np.flatnonzero(b[src] & a[dst])
        ids = ids[owners[src[ids]] == PLAYER0]
        if ids.size:
            groups.append(ids)
        a = uattr_mask_reference(g, a | b, universe)
    return groups


def buchi_template_reference(g: GameGraph, goal) -> SolveResult:
    """Template for visiting the goal infinitely often: stay in the
    winning region, plus one live-group per distance layer."""
    goal_mask = g.mask_of(goal)
    w0 = _buchi_region(g, goal_mask, PLAYER0,
                       np.ones(g.vertex_count, dtype=np.bool_))
    w1 = ~w0
    unsafe = np.zeros(g.edge_count, dtype=np.bool_)
    unsafe[_crossing_edges(g, w0, w1)] = True
    groups = reach_template(g, goal_mask & w0, universe=w0) if w0.any() else []
    colive = np.zeros(g.edge_count, dtype=np.bool_)
    tpl = StrategyTemplate.from_groups(g, unsafe, colive, groups, w0)
    return SolveResult(w0, w1, tpl)


def cobuchi_template_reference(g: GameGraph, goal) -> SolveResult:
    """Template for eventually staying in the goal set.

    Within the winning region, repeatedly take the sub-region where
    player 0 can stay in the goal forever, mark every edge leaving it
    co-live, then walk the attractor layers toward it: layer edges that
    do not make progress (sideways or outward) are co-live too.  Peel
    the attractor and repeat on the rest.
    """
    goal_mask = g.mask_of(goal)
    w0 = cobuchi_win(g, goal_mask)
    w1 = ~w0
    unsafe = np.zeros(g.edge_count, dtype=np.bool_)
    unsafe[_crossing_edges(g, w0, w1)] = True
    colive = np.zeros(g.edge_count, dtype=np.bool_)
    src = g.edge_sources()
    dst = g.edge_targets
    owners = g.owners

    def mark(xs: np.ndarray, ys: np.ndarray) -> None:
        ids = np.flatnonzero(xs[src] & ys[dst])
        ids = ids[owners[src[ids]] == PLAYER0]
        colive[ids] = True

    remaining = w0.copy()
    while remaining.any():
        core = _safety_region(g, goal_mask & remaining, PLAYER0, remaining)
        if not core.any():
            raise RuntimeError("co-Büchi region without a safety core")
        mark(core, remaining & ~core)
        cur = core.copy()
        while True:
            layer = cpre_mask_reference(g, cur, PLAYER0, remaining) & ~cur
            if not layer.any():
                break
            mark(layer, remaining & ~(cur | layer))
            mark(layer, layer)
            cur |= layer
        remaining &= ~cur

    tpl = StrategyTemplate.from_groups(g, unsafe, colive, [], w0)
    return SolveResult(w0, w1, tpl)


def _trampoline_reference(step, root_universe: np.ndarray):
    stack = [step(root_universe)]
    result = None
    while stack:
        try:
            requested = stack[-1].send(result)
        except StopIteration as stop:
            result = stop.value
            stack.pop()
            continue
        stack.append(step(requested))
        result = None
    return result


def parity_parts_reference(g: GameGraph, vals: np.ndarray, universe: np.ndarray):
    return _trampoline_reference(lambda u: solvers._parity_solve(g, vals, u, {}),
                                 universe)


def find_conflicts_reference(g, t):
    n = g.vertex_count
    src = g.edge_sources()
    dst = g.edge_targets
    region = t.region_mask
    banned = t.banned_mask()

    into_region = region[src] & region[dst]
    usable = np.bincount(src[into_region & ~banned], minlength=n)
    candidates = region & (g.owners == PLAYER0)
    dead = np.flatnonzero(candidates & (usable == 0))

    starved = {}
    off = t.group_off
    for k in range(len(off) - 1):
        ids = t.group_ids[off[k]:off[k + 1]]
        g_src = src[ids]
        ok = region[dst[ids]] & ~banned[ids]
        served = np.bincount(g_src[ok], minlength=n)
        members = np.zeros(n, dtype=np.bool_)
        members[g_src] = True
        blocked = np.flatnonzero(members & region & (served == 0))
        for v in blocked:
            starved.setdefault(int(v), []).append(k)

    return ConflictReport(frozenset(int(v) for v in dead),
                          {v: tuple(gs) for v, gs in starved.items()})


def assert_same_report(got, want):
    assert got.dead_vertices == want.dead_vertices
    assert list(got.starved.items()) == list(want.starved.items())


@st.composite
def game_and_masks(draw):
    g, _ = rand_game(draw(st.integers(0, 10_000)), 40, 1)
    n = g.vertex_count
    target = g.mask_of(sorted(draw(st.sets(st.integers(0, n - 1)))))
    universe = draw(st.one_of(
        st.none(), st.sets(st.integers(0, n - 1)).map(lambda s: g.mask_of(sorted(s)))))
    return g, target, universe


def copies(*masks):
    return [None if mask is None else mask.copy() for mask in masks]


def assert_unchanged(masks, kept):
    """The kernel grows its mask in place; callers' masks must not move."""
    for mask, copy in zip(masks, kept):
        if mask is not None:
            assert np.array_equal(mask, copy)


# _SCALAR_LIMIT values that force every kernel round and reach_template
# layer onto the numpy form (0) or the scalar form (above any n drawn),
# or mix the two within one call (4); the differential tests run each
# case under all three
ALL_NUMPY = 0
MIXED = 4
ALL_SCALAR = 1 << 30
FORMS = (ALL_NUMPY, MIXED, ALL_SCALAR)


@contextmanager
def scalar_limit(limit):
    """Context in which steps of fewer than ``limit`` vertices are scalar.

    A context rather than the monkeypatch fixture, which hypothesis does
    not reset between examples.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transformers, "_SCALAR_LIMIT", limit)
        yield


@settings(deadline=None, max_examples=300)
@given(game_and_masks(), st.integers(0, 1))
def test_attr_mask_matches_reference(case, player):
    g, target, universe = case
    want = attr_mask_reference(g, target, player, universe)
    kept = copies(target, universe)
    for limit in FORMS:
        with scalar_limit(limit):
            got = attr_mask(g, target, player, universe)
        assert_unchanged([target, universe], kept)
        assert np.array_equal(got, want)


@settings(deadline=None, max_examples=100)
@given(game_and_masks(), st.integers(0, 1))
def test_attr_mask_returns_early_when_the_target_covers_the_universe(case, player):
    # no counters are built: the target is already the closure
    g, extra, universe = case
    target = extra | (np.ones(g.vertex_count, dtype=np.bool_) if universe is None
                      else universe)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transformers, "_restricted_degrees",
                   lambda *args: built.append(args) or _restricted_degrees(*args))
        got = attr_mask(g, target, player, universe)
    assert built == []
    assert np.array_equal(got, attr_mask_reference(g, target, player, universe))
    assert not any(np.shares_memory(got, mask) for mask in (target, universe)
                   if mask is not None)


@settings(deadline=None, max_examples=300)
@given(game_and_masks())
def test_uattr_mask_matches_reference(case):
    # the kernel with restricted out-degrees as every counter is uattr
    # inside the universe
    g, target, universe = case
    want = uattr_mask_reference(g, target, universe)
    inside = np.ones(g.vertex_count, dtype=np.bool_) if universe is None else universe
    for limit in FORMS:
        got = target & inside
        with scalar_limit(limit):
            _attractor(g, got, _restricted_degrees(g, universe),
                       np.flatnonzero(got), universe)
        assert np.array_equal(got, want)


def odd_layouts(mask):
    """The mask as a strided view (every other entry of an array twice
    its length) and as a read-only copy."""
    wide = np.zeros(2 * len(mask), dtype=np.bool_)
    wide[::2] = mask
    frozen = mask.copy()
    frozen.setflags(write=False)
    return wide[::2], frozen


@settings(deadline=None, max_examples=150)
@given(game_and_masks(), st.integers(0, 1))
def test_attr_mask_reads_strided_and_read_only_masks(case, player):
    g, target, universe = case
    want = attr_mask_reference(g, target, player, universe)
    universes = (None, None) if universe is None else odd_layouts(universe)
    for t, u in zip(odd_layouts(target), universes):
        kept = copies(t, u)
        for limit in FORMS:
            with scalar_limit(limit):
                got = attr_mask(g, t, player, u)
            assert_unchanged([t, u], kept)
            assert np.array_equal(got, want)


@settings(deadline=None, max_examples=150)
@given(game_and_masks())
def test_kernel_takes_a_frontier_as_a_list_or_an_int64_array(case):
    g, target, universe = case
    want = uattr_mask_reference(g, target, universe)
    inside = np.ones(g.vertex_count, dtype=np.bool_) if universe is None else universe
    start = target & inside
    for frontier in (np.flatnonzero(start), np.flatnonzero(start).tolist()):
        kept = list(frontier)
        for limit in FORMS:
            got = start.copy()
            with scalar_limit(limit):
                _attractor(g, got, _restricted_degrees(g, universe), frontier,
                           universe)
            assert np.array_equal(got, want)
            assert list(frontier) == kept


@settings(deadline=None, max_examples=300)
@given(game_and_masks(), st.integers(0, 1), st.booleans())
def test_kernel_rounds_are_one_step_layers(case, player, both_wait):
    # with attr's counters each recorded round is the next cpre layer
    # inside the universe; with uattr's (every vertex waits for all of
    # its edges), the next upre layer
    g, target, universe = case
    inside = np.ones(g.vertex_count, dtype=np.bool_) if universe is None else universe

    def layer_of(cur):
        if both_wait:
            return upre_mask_reference(g, cur, universe) & ~cur
        return cpre_mask_reference(g, cur, player, universe) & ~cur

    for limit in FORMS:
        counter = _restricted_degrees(g, universe)
        if not both_wait:
            counter[g.owners == player] = 1
        got = target & inside
        rounds = []
        with scalar_limit(limit):
            _attractor(g, got, counter, np.flatnonzero(got), universe,
                       rounds=rounds)
        cur = target & inside
        for layer in rounds:
            want = layer_of(cur)
            assert sorted(np.asarray(layer).tolist()) == np.flatnonzero(want).tolist()
            cur |= want
        assert np.array_equal(cur, got)
        assert not layer_of(cur).any()


def resumed(g, target, extra, universe, limit):
    """uattr closure of target, then of the extra vertices added to it,
    by resuming the kernel with the same counters in a second call."""
    inside = np.ones(g.vertex_count, dtype=np.bool_) if universe is None else universe
    counter = _restricted_degrees(g, universe)
    in_a = target & inside
    with scalar_limit(limit):
        _attractor(g, in_a, counter, np.flatnonzero(in_a), universe)
        more = extra & inside & ~in_a
        in_a |= more
        _attractor(g, in_a, counter, np.flatnonzero(more), universe)
    return in_a, counter


@settings(deadline=None, max_examples=300)
@given(game_and_masks(), st.data())
def test_resumed_attractor_counters_agree_across_forms(case, data):
    # counters of vertices left outside the set are what a resumption
    # reads, so both forms and any mix of them must leave them equal
    g, target, universe = case
    n = g.vertex_count
    extra = g.mask_of(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    want = uattr_mask_reference(g, target | extra, universe)
    results = [resumed(g, target, extra, universe, limit) for limit in FORMS]
    for in_a, counter in results:
        assert np.array_equal(in_a, want)
        assert np.array_equal(counter[~in_a], results[0][1][~in_a])


@st.composite
def reach_cases(draw):
    """A goal and a universe: either the goal's player-0 attractor inside
    an outer mask, where the layering succeeds, or an arbitrary mask,
    where it usually stalls."""
    g, goal, outer = draw(game_and_masks())
    if draw(st.booleans()):
        return g, goal, attr_mask(g, goal, PLAYER0, outer)
    return g, goal, outer


def outcome(fn, g, goal, universe):
    try:
        return [ids.tolist() for ids in fn(g, goal, universe)]
    except ValueError:
        return ValueError


@settings(deadline=None, max_examples=400)
@given(reach_cases())
def test_reach_template_matches_reference(case):
    g, goal, universe = case
    want = outcome(reach_template_reference, g, goal, universe)
    kept = copies(goal, universe)
    for limit in FORMS:
        with scalar_limit(limit):
            got = outcome(reach_template, g, goal, universe)
        assert_unchanged([goal, universe], kept)
        assert got == want


@settings(deadline=None, max_examples=150)
@given(reach_cases())
def test_reach_template_reads_strided_and_read_only_masks(case):
    g, goal, universe = case
    want = outcome(reach_template_reference, g, goal, universe)
    universes = (None, None) if universe is None else odd_layouts(universe)
    for gl, u in zip(odd_layouts(goal), universes):
        kept = copies(gl, u)
        for limit in FORMS:
            with scalar_limit(limit):
                got = outcome(reach_template, g, gl, u)
            assert_unchanged([gl, u], kept)
            assert got == want


def test_reach_template_mixes_forms_on_pinned_games():
    # games on which a layer was once taken by the numpy step after a
    # scalar round had listed no touched vertex, which turned the
    # layer's ids into floats
    for seed in (7, 501, 952, 974, 1543):
        g, _ = rand_game(seed, 40, 1)
        goal = np.random.default_rng(seed).random(g.vertex_count) < 0.1
        universe = attr_mask(g, goal, PLAYER0)
        want = outcome(reach_template_reference, g, goal, universe)
        with scalar_limit(MIXED):
            assert outcome(reach_template, g, goal, universe) == want


@settings(deadline=None, max_examples=100)
@given(game_and_masks())
def test_reach_template_returns_early_when_the_goal_covers_the_universe(case):
    # no counters are built: the goal is already the closure
    g, extra, universe = case
    goal = extra | (np.ones(g.vertex_count, dtype=np.bool_) if universe is None
                    else universe)
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_restricted_degrees",
                   lambda *args: built.append(args) or _restricted_degrees(*args))
        got = outcome(reach_template, g, goal, universe)
    assert built == []
    assert got == outcome(reach_template_reference, g, goal, universe) == []


def solve_bytes(result):
    """A solve result as bytes: the template's text, then both regions."""
    return (template_text(result.template).encode() + result.w0_mask.tobytes()
            + result.w1_mask.tobytes())


GOAL_DENSITIES = (0, 0.05, 0.3, 1)


def test_buchi_template_matches_reference():
    # seeded games of every edge density 1-5 with goals of every density
    # above, from empty to the whole vertex set
    for seed in range(3000):
        g, _ = rand_game(seed, 40, 1, density=1 + seed % 5)
        rng = np.random.default_rng([seed, 7])
        goal = rng.random(g.vertex_count) < GOAL_DENSITIES[seed % 4]
        want = solve_bytes(buchi_template_reference(g, goal))
        assert solve_bytes(buchi_template(g, goal)) == want, seed


def forward_chain(length):
    """Player-0 chain: vertex i steps to i-1, and 0 to itself."""
    return GameGraph.from_lists([0] * length,
                                [[0]] + [[i - 1] for i in range(1, length)])


def back_chain(length):
    """Player-0 chain: vertex i steps to i-1 or waits, and 0 waits."""
    return GameGraph.from_lists([0] * length,
                                [[0]] + [[i - 1, i] for i in range(1, length)])


def test_buchi_template_matches_reference_at_scale():
    # one layer per vertex on both chains (goal {0}); the random game's
    # goal is its top priority
    n = 100_000
    g, objectives = generate(GeneratorConfig(
        objective_count=1, max_priority=3, seed=1, vertex_count=n,
        edge_count=4 * n))
    cases = [(forward_chain(n), [0]), (back_chain(n), [0]),
             (g, objectives[0].values == 3)]
    for g, goal in cases:
        want = hashlib.md5(solve_bytes(buchi_template_reference(g, goal)))
        got = hashlib.md5(solve_bytes(buchi_template(g, goal)))
        assert got.hexdigest() == want.hexdigest()


def assert_same_cobuchi(g, goal):
    want = cobuchi_template_reference(g, goal)
    kept = copies(goal)
    for limit in FORMS:
        with scalar_limit(limit):
            got = cobuchi_template(g, goal)
        assert_unchanged([goal], kept)
        assert np.array_equal(got.w0_mask, want.w0_mask)
        assert np.array_equal(got.w1_mask, want.w1_mask)
        assert np.array_equal(got.template.unsafe_mask, want.template.unsafe_mask)
        assert np.array_equal(got.template.colive_mask, want.template.colive_mask)
        assert got.template.group_off.tolist() == [0]
        assert got.template.group_ids.size == 0


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 10_000), st.data())
def test_cobuchi_template_matches_reference(seed, data):
    g, _ = rand_game(seed, 40, 1)
    goal = g.mask_of(sorted(data.draw(st.sets(st.integers(0, g.vertex_count - 1)))))
    assert_same_cobuchi(g, goal)


def test_cobuchi_template_matches_reference_over_several_peels(monkeypatch):
    # pinned games whose co-Büchi region takes two, three and four peels,
    # counted as the safety cores the peel loop takes
    peels = [0]

    def counted(*args):
        peels[0] += 1
        return safety_region(*args)

    safety_region = solvers._safety_region
    monkeypatch.setattr(solvers, "_safety_region", counted)
    for seed, want in ((1, 2), (8, 2), (404, 3), (943, 3), (2794, 4)):
        g, _ = rand_game(seed, 40, 1)
        rng = np.random.default_rng(seed)
        goal = rng.random(g.vertex_count) < rng.random()
        peels[0] = 0
        cobuchi_template(g, goal)
        assert peels[0] == want
        assert_same_cobuchi(g, goal)


def ladder(rungs):
    """Rung i: a_i = 2i (player 0) waits or steps to b_i, and b_i = 2i + 1
    (player 1) steps to a_{i+1} or b_{i+1}; the last rung's b closes back
    to the first rung.  Player 0 attracts every vertex to the last b,
    one vertex per layer."""
    succs = []
    for i in range(rungs):
        succs += [[2 * i, 2 * i + 1],
                  [2 * i + 2, 2 * i + 3] if i + 1 < rungs else [0, 1]]
    return GameGraph.from_lists([0, 1] * rungs, succs)


def deep_case(name):
    """(graph, goal mask, priorities) of a deep-scale case: the goal is
    the top priority's vertices, and the chains and the ladder carry the
    Büchi encoding of their goal (2 on it, 1 elsewhere)."""
    if name == "sparse_64":
        g, pf = generate(GeneratorConfig(objective_count=1, max_priority=63,
                                         seed=5, vertex_count=2000,
                                         edge_count=3000))
        pf = pf[0]
        return g, pf.values == pf.values.max(), pf
    kind, size = name.rsplit("_", 1)
    g = back_chain(int(size)) if kind == "back_chain" else ladder(int(size))
    goal = np.zeros(g.vertex_count, dtype=np.bool_)
    goal[0 if kind == "back_chain" else -1] = True
    return g, goal, PriorityFunction(np.where(goal, 2, 1), 2)


def layers_reference(g, start, player):
    """One set per one-step layer around start, as the kernel's rounds:
    cpre layers for a player, upre layers for None."""
    cur = start.copy()
    layers = []
    while True:
        layer = ((upre_mask_reference(g, cur) if player is None
                  else cpre_mask_reference(g, cur, player)) & ~cur)
        if not layer.any():
            return layers, cur
        layers.append(set(np.flatnonzero(layer).tolist()))
        cur |= layer


def kernel_counters(g, player):
    """Counters that make the kernel attr for a player, or uattr for
    None."""
    counter = _restricted_degrees(g, None)
    if player is not None:
        counter[g.owners == player] = 1
    return counter


@pytest.mark.parametrize("name", ["back_chain_3000", "ladder_1200",
                                  "sparse_64", "back_chain_10000"])
def test_kernel_matches_reference_on_deep_games(name, monkeypatch):
    # hundreds to thousands of layers, most of one or two vertices; each
    # form must give the reference's groups, masks, layers, counters and
    # templates byte for byte
    g, goal, pf = deep_case(name)
    universe = attr_mask_reference(g, goal, PLAYER0)
    reach_want = reach_template_reference(g, goal, universe)
    assert reach_want
    masks_want = [attr_mask_reference(g, goal, player, u)
                  for player in (0, 1) for u in (None, universe)]
    rounds_want = {player: layers_reference(g, goal, player)
                   for player in (0, 1, None)}
    src = g.edge_sources()
    dst = g.edge_targets

    def counters_left(player, closure):
        # a vertex outside the closure still waits for its edges that do
        # not lead into the closure
        into = np.bincount(src[closure[dst]], minlength=g.vertex_count)
        return (kernel_counters(g, player) - into)[~closure]

    kept = {}

    def reach_kept(g, goal, universe=None):
        key = (goal.tobytes(), universe.tobytes())
        if key not in kept:
            kept[key] = reach_template_reference(g, goal, universe)
        return list(kept[key])

    kept[(goal.tobytes(), universe.tobytes())] = reach_want
    with monkeypatch.context() as mp:
        mp.setattr(solvers, "attr_mask", attr_mask_reference)
        mp.setattr(solvers, "reach_template", reach_kept)
        parity_want = solve_bytes(parity_template(g, pf))
    for limit in FORMS:
        with scalar_limit(limit):
            got = reach_template(g, goal, universe)
            assert [ids.tobytes() for ids in got] == [
                ids.tobytes() for ids in reach_want]
            assert [attr_mask(g, goal, player, u).tobytes()
                    for player in (0, 1) for u in (None, universe)] == [
                        mask.tobytes() for mask in masks_want]
            for player, (layers, closure) in rounds_want.items():
                counter = kernel_counters(g, player)
                got = goal.copy()
                rounds = []
                _attractor(g, got, counter, np.flatnonzero(goal), None,
                           rounds=rounds)
                assert [set(np.asarray(r).tolist()) for r in rounds] == layers
                assert np.array_equal(got, closure)
                assert np.array_equal(counter[~got],
                                      counters_left(player, closure))
            assert solve_bytes(parity_template(g, pf)) == parity_want
    assert_same_cobuchi(g, goal)


def assert_same_parts(got, want):
    """Equal regions, and equal live-group and co-live id arrays in the
    same order."""
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    for a, b in zip(got[2:], want[2:]):
        assert [ids.tolist() for ids in a] == [ids.tolist() for ids in b]


def drawn_mask(data, n):
    return np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=np.bool_)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000), st.data())
def test_parity_parts_matches_reference(seed, data):
    g, pf = rand_game(seed, 40, 6)
    universe = drawn_mask(data, g.vertex_count)
    want = parity_parts_reference(g, pf.values, universe)
    kept = copies(universe)
    for memo in (None, {}):
        assert_same_parts(parity_parts(g, pf.values, universe, memo), want)
        assert_unchanged([universe], kept)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000), st.data())
def test_parity_parts_reads_odd_layouts_and_int32_priorities(seed, data):
    g, pf = rand_game(seed, 40, 6)
    universe = drawn_mask(data, g.vertex_count)
    want = parity_parts_reference(g, pf.values, universe)
    for u in odd_layouts(universe):
        kept = copies(u)
        for vals in (pf.values, pf.values.astype(np.int32)):
            for limit in FORMS:
                with scalar_limit(limit):
                    assert_same_parts(parity_parts(g, vals, u), want)
                assert_unchanged([u], kept)


@settings(deadline=None, max_examples=100)
@given(st.integers(0, 10_000), st.integers(2, 4), st.data())
def test_parity_parts_with_a_shared_memo_matches_reference(seed, k, data):
    # as in a composition fold: the objectives agree outside a drawn
    # set, each round solves them all on one universe, and the next
    # round relabels a drawn set and solves again on what they all won
    g, objectives = rand_game(seed, 30, 5, k=k)
    n = g.vertex_count
    mixed = [objectives[0]] + [
        PriorityFunction(np.where(drawn_mask(data, n), pf.values,
                                  objectives[0].values))
        for pf in objectives[1:]]
    first = [pad_to_odd(pf) for pf in mixed]
    start = drawn_mask(data, n)
    bumps = [drawn_mask(data, n) for _ in range(2)]
    for limit in FORMS:
        objectives, universe, memo = first, start, {}
        with scalar_limit(limit):
            for bumped in bumps:
                won = universe.copy()
                for pf in objectives:
                    got = parity_parts(g, pf.values, universe, memo)
                    assert_same_parts(
                        got, parity_parts_reference(g, pf.values, universe))
                    won &= got[0]
                objectives = [relabel(pf, bumped) for pf in objectives]
                universe = won


def test_shared_memo_hits_on_a_compose_shaped_game(monkeypatch):
    # every solve of the composition is also run without a memo and with
    # a memo of its own; the composition's shared memo saves steps within
    # a call and across the calls, of one fold and of later folds
    g, objectives = compose_shaped_game(2, 16)
    steps = counted_steps(monkeypatch)

    def steps_of(fn, *args):
        steps[0] = 0
        out = fn(*args)
        return out, steps[0]

    taken = []

    def checked(g, vals, universe, memo):
        want, reference = steps_of(parity_parts_reference, g, vals, universe)
        _, own = steps_of(parity_parts, g, vals, universe)
        got, shared = steps_of(parity_parts, g, vals, universe, memo)
        assert_same_parts(got, want)
        taken.append((shared, own, reference))
        return got

    monkeypatch.setattr(compose, "parity_parts", checked)
    for limit in FORMS:
        taken.clear()
        with scalar_limit(limit):
            compose_templates(g, ComposeState.initial(g), objectives)
        shared, own, reference = map(sum, zip(*taken))
        assert (shared, own, reference) == (41, 52, 78)


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10_000), st.integers(2, 3))
def test_find_conflicts_matches_reference_on_conjunctions(seed, k):
    g, objectives = rand_game(seed, 25, 4, k=k)
    t = parity_template(g, objectives[0]).template
    for pf in objectives[1:]:
        t = conjoin(t, parity_template(g, pf).template)
    assert_same_report(find_conflicts(g, t), find_conflicts_reference(g, t))


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10_000), st.data())
def test_find_conflicts_matches_reference_on_patched_templates(seed, data):
    g, pf = rand_game(seed, 25, 4)
    t = parity_template(g, pf).template
    extra = data.draw(st.sets(st.integers(0, g.edge_count - 1)))
    unsafe = t.unsafe_mask.copy()
    unsafe[sorted(extra)] = True
    patched = StrategyTemplate(g, unsafe, t.colive_mask, t.group_off,
                               t.group_ids, t.region_mask)
    assert_same_report(find_conflicts(g, patched),
                       find_conflicts_reference(g, patched))


def test_find_conflicts_keeps_group_order_and_identity(g6):
    # two equal-content groups stay distinct indices in the report
    a = g6.id_of("a")
    lo, hi = g6.succ_offsets()[a:a + 2]
    t = StrategyTemplate.from_groups(
        g6, np.isin(np.arange(g6.edge_count), np.arange(lo, hi)),
        np.zeros(g6.edge_count, dtype=np.bool_), [np.arange(lo, hi)] * 2,
        np.ones(g6.vertex_count, dtype=np.bool_))
    got = find_conflicts(g6, t)
    assert_same_report(got, find_conflicts_reference(g6, t))
    assert got.starved[a] == (0, 1)
