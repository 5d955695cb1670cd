import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgtemplates import compose, solvers
from pgtemplates import (ComposeState, PriorityFunction, add_objective,
                         brute_force_gen_parity_region, compose_templates,
                         extract_strategy, find_conflicts, pad_to_odd,
                         parity_template, relabel, template_text,
                         verify_strategy)
from conftest import (buchi_pf, compose_shaped_game, counted_kernels,
                      counted_steps, edges, group_edge_sets, names_of,
                      pf_by_name, rand_game, vset)
from test_kernel_reference import parity_parts_reference


def phi3(g):
    return pf_by_name(g, 0, b=1)


def phi4(g):
    return PriorityFunction([0, 2, 1, 1, 1, 1])


def test_pad_to_odd():
    pf = PriorityFunction([0, 2, 1, 1, 1, 1])
    padded = pad_to_odd(pf)
    assert padded.max_priority == 3
    assert np.array_equal(padded.values, pf.values)
    odd = PriorityFunction([1, 3])
    assert pad_to_odd(odd) == odd


def test_relabel_goldens(g6):
    pf = pad_to_odd(phi4(g6))
    assert relabel(pf, []) == pf
    bumped = relabel(pf, vset(g6, "ad"))
    assert bumped.max_priority == 3
    assert list(bumped.values) == [3, 2, 1, 3, 1, 1]


def test_relabel_rejects_vertices_outside_the_range(g6):
    # -1 must not index from the end, nor n and a short mask reach
    # numpy's IndexError
    pf = pad_to_odd(phi4(g6))
    n = g6.vertex_count
    with pytest.raises(ValueError, match="out of range"):
        relabel(pf, [-1])
    with pytest.raises(ValueError, match="out of range"):
        relabel(pf, [n])
    with pytest.raises(ValueError, match="mask length"):
        relabel(pf, np.ones(n - 1, dtype=np.bool_))
    with pytest.raises(ValueError, match="mask length"):
        relabel(pf, [True] * (n - 1))


def test_relabel_reads_vertex_sets_as_mask_of_does(g6):
    # a list of booleans is a mask, not the ids 0 and 1
    pf = pad_to_odd(phi4(g6))
    flags = [True] + [False] * 5
    assert relabel(pf, flags) == relabel(pf, [0])
    assert relabel(pf, [False] * 6) == pf
    assert relabel(pf, np.array(flags)) == relabel(pf, [0])
    with pytest.raises(ValueError, match="mixes booleans"):
        relabel(pf, [True, 3])


def _simple_cycles(g, limit):
    out = []

    def walk(path):
        v = path[-1]
        for t in sorted(int(x) for x in g.successors(v)):
            if t == path[0]:
                out.append(tuple(path))
            elif t not in path and len(path) < limit:
                walk(path + [t])

    for v in g.vertices():
        walk([v])
    return out


def test_relabel_language_on_all_cycles(g6):
    # a lasso satisfies the relabeled objective exactly when it
    # satisfies the original one and its cycle avoids the bumped set
    pf = pad_to_odd(phi4(g6))
    cycles = _simple_cycles(g6, 6)
    assert len(cycles) > 20
    for bits in range(64):
        u = {v for v in range(6) if bits >> v & 1}
        bumped = relabel(pf, sorted(u))
        for cycle in cycles:
            orig_ok = max(pf.of(v) for v in cycle) % 2 == 0
            new_ok = max(bumped.of(v) for v in cycle) % 2 == 0
            assert new_ok == (orig_ok and not (set(cycle) & u))


def test_compose_documented_incompleteness(g6):
    state, t = compose_templates(
        g6, ComposeState.initial(g6), [phi3(g6), phi4(g6)])
    assert not state.w0_mask.any()
    assert not t.region_mask.any()
    # the exact region really is everything, so the gap is real
    oracle = brute_force_gen_parity_region(g6, [phi3(g6), phi4(g6)])
    assert oracle.all()


def test_compose_single_objective_matches_parity(g8):
    g3, pf = g8
    state, t = compose_templates(g3, ComposeState.initial(g3), [pf])
    direct = parity_template(g3, pf)
    assert np.array_equal(state.w0_mask, direct.w0_mask)
    assert t.unsafe_edges == direct.template.unsafe_edges
    assert t.colive_edges == direct.template.colive_edges
    assert group_edge_sets(t) == group_edge_sets(direct.template)


def test_compose_three_objectives_on_sink_variant(g6_sink):
    g = g6_sink
    objectives = [pf_by_name(g, 0, e=1, f=1),
                  buchi_pf(g, vset(g, "cd")),
                  pf_by_name(g, 0, b=1)]
    state, t = compose_templates(g, ComposeState.initial(g), objectives)
    assert names_of(g, state.w0_mask) == ["a", "b", "c", "d"]
    assert t.unsafe_edges == frozenset(edges(g, ("d", "e")))
    assert t.colive_edges == frozenset(
        edges(g, ("a", "b"), ("d", "b"), ("d", "e")))
    assert group_edge_sets(t) == [frozenset(edges(g, ("a", "c"), ("a", "d")))]
    assert find_conflicts(g, t).is_conflict_free
    s = extract_strategy(g, t)
    assert verify_strategy(g, s, objectives).is_winning


def test_compose_three_objectives_on_original_graph(g6):
    # with f -> b the detour through e, f is recoverable, so the same
    # objectives are winnable from everywhere
    objectives = [pf_by_name(g6, 0, e=1, f=1),
                  buchi_pf(g6, vset(g6, "cd")),
                  pf_by_name(g6, 0, b=1)]
    state, t = compose_templates(g6, ComposeState.initial(g6), objectives)
    assert state.w0_mask.all()
    s = extract_strategy(g6, t)
    assert verify_strategy(g6, s, objectives).is_winning


def test_add_objective_from_scratch_equals_one_shot(g6):
    state0 = ComposeState.initial(g6)
    one_shot, t1 = compose_templates(g6, state0, [phi3(g6)])
    step, t2 = add_objective(g6, state0, phi3(g6))
    assert np.array_equal(one_shot.w0_mask, step.w0_mask)
    assert t1.unsafe_edges == t2.unsafe_edges
    assert t1.colive_edges == t2.colive_edges


def test_add_objective_incremental_gap_instance(g6):
    state = ComposeState.initial(g6)
    state, _ = add_objective(g6, state, phi3(g6))
    assert state.w0_mask.all()
    state, _ = add_objective(g6, state, phi4(g6))
    assert not state.w0_mask.any()


def test_compose_rejects_foreign_state(g6, g6_sink):
    state = ComposeState.initial(g6_sink)
    with pytest.raises(ValueError, match="graph"):
        compose_templates(g6, state, [phi3(g6)])


def test_compose_rejects_wrong_priority_length(g6):
    with pytest.raises(ValueError, match="cover"):
        compose_templates(g6, ComposeState.initial(g6),
                          [PriorityFunction([0])])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_incremental_equals_one_shot(seed, k):
    g, objectives = rand_game(seed, 20, 3, k=k)
    one_shot, t1 = compose_templates(g, ComposeState.initial(g), objectives)
    state = ComposeState.initial(g)
    for pf in objectives:
        state, t2 = add_objective(g, state, pf)
    assert np.array_equal(one_shot.w0_mask, state.w0_mask)
    assert t1.unsafe_edges == t2.unsafe_edges
    assert t1.colive_edges == t2.colive_edges
    assert np.array_equal(t1.group_off, t2.group_off)
    assert np.array_equal(t1.group_ids, t2.group_ids)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_compose_region_sound_and_strategies_win(seed, k):
    g, objectives = rand_game(seed, 8, 2, k=k, density=3)
    if k == 1:
        objectives = [objectives]
    state, t = compose_templates(g, ComposeState.initial(g), objectives)
    oracle = brute_force_gen_parity_region(g, objectives)
    assert (state.w0_mask <= oracle).all()
    assert find_conflicts(g, t).is_conflict_free
    # the unsafe set is exactly the player-0 boundary of the region
    src = g.edge_sources()
    boundary = frozenset(
        g.edge_of(int(e)) for e in np.flatnonzero(
            state.w0_mask[src] & ~state.w0_mask[g.edge_targets]
            & (g.owners[src] == 0)))
    assert t.unsafe_edges == boundary
    if state.w0_mask.any():
        s = extract_strategy(g, t)
        verdict = verify_strategy(g, s, state.objectives)
        assert verdict.is_winning
        raw = verify_strategy(g, s, objectives,
                              start=np.flatnonzero(state.w0_mask))
        assert raw.is_winning


def test_compose_rejects_conflicted_result(g6, monkeypatch):
    # a state that leaves vertex a without any allowed edge
    colive = np.zeros(g6.edge_count, dtype=np.bool_)
    a = g6.id_of("a")
    lo, hi = g6.succ_offsets()[a:a + 2]
    colive[lo:hi] = True
    bad = ComposeState(g6, np.ones(g6.vertex_count, dtype=np.bool_), (),
                       colive, (phi3(g6),))
    monkeypatch.setattr(compose, "_fold_objective", lambda g, state, pf: bad)
    with pytest.raises(RuntimeError, match="conflicted template"):
        compose_templates(g6, ComposeState.initial(g6), [phi3(g6)])


def test_compose_rejects_a_measure_that_does_not_fall(g6, monkeypatch):
    # without relabeling the conflicts of the gap instance come back
    # unchanged, so the measure repeats
    monkeypatch.setattr(compose, "relabel", lambda pf, u: pf)
    with pytest.raises(RuntimeError, match="failed to decrease"):
        compose_templates(g6, ComposeState.initial(g6), [phi3(g6), phi4(g6)])


def test_compose_work_is_bounded_by_the_fold_memo(monkeypatch):
    # counted, not timed: the parity solver's steps in one compose call,
    # and the parity_parts calls of every round
    g, objectives = compose_shaped_game(2, 16)
    steps = counted_steps(monkeypatch)
    log = []
    solve, check = compose.parity_parts, compose.find_conflicts

    def logged_solve(g, vals, universe, memo):
        log.append("solve")
        return solve(g, vals, universe, memo)

    def logged_check(g, t):
        report = check(g, t)
        log.append(report.is_conflict_free)
        return report

    monkeypatch.setattr(compose, "parity_parts", logged_solve)
    monkeypatch.setattr(compose, "find_conflicts", logged_check)
    _, template = compose_templates(g, ComposeState.initial(g), objectives)
    assert steps[0] <= 43

    # rounds as (parity_parts calls, conflict-free); the last check is
    # compose_templates' own on the result
    rounds, calls = [], 0
    for entry in log:
        if entry == "solve":
            calls += 1
        else:
            rounds.append((calls, entry))
            calls = 0
    assert rounds[-1] == (0, True)
    # the entry round of the j-th fold solves the new objective, a
    # re-solve round all j of them
    folded, entry_round = 1, True
    for calls, free in rounds[:-1]:
        assert calls == (1 if entry_round else folded)
        entry_round = free
        folded += free
    assert folded == len(objectives) + 1
    assert sum(not free for _, free in rounds) == 1

    # the memo-less solver takes more steps for the same template
    monkeypatch.setattr(compose, "parity_parts",
                        lambda g, vals, universe, memo:
                        parity_parts_reference(g, vals, universe))
    steps[0] = 0
    _, want = compose_templates(g, ComposeState.initial(g), objectives)
    assert steps[0] > 43
    assert want == template
    assert np.array_equal(want.group_off, template.group_off)
    assert np.array_equal(want.group_ids, template.group_ids)


def test_fold_memo_runs_each_kernel_once(monkeypatch):
    # counted kernel runs of one compose call, with the composition's
    # memo and with a step memo alone (every kernel run forgotten at
    # once): the memo skips the attractors and reach_template runs that
    # objectives, folds and rounds repeat on one subgame, and the
    # template stays the same
    g, objectives = compose_shaped_game(2, 16)
    runs = counted_kernels(monkeypatch)
    _, template = compose_templates(g, ComposeState.initial(g), objectives)
    assert runs == {"attr_mask": 57, "reach_template": 18}

    remembered = solvers._remembered
    monkeypatch.setattr(solvers, "_remembered",
                        lambda memo, *args: remembered({}, *args))
    runs.update(attr_mask=0, reach_template=0)
    _, want = compose_templates(g, ComposeState.initial(g), objectives)
    assert runs == {"attr_mask": 64, "reach_template": 29}
    assert want == template
    assert np.array_equal(want.group_off, template.group_off)
    assert np.array_equal(want.group_ids, template.group_ids)


def _forget_between_folds(monkeypatch):
    """Drop the whole composition memo after every fold, as a memo per
    fold would, instead of pruning it to the new region."""
    monkeypatch.setattr(compose, "_prune", lambda memo, region: memo.clear())


def _chain(g, objectives, state=None):
    """add_objective over the objectives; returns the last state and
    the template of every step."""
    state = ComposeState.initial(g) if state is None else state
    templates = []
    for pf in objectives:
        state, t = add_objective(g, state, pf)
        templates.append(t)
    return state, templates


def _assert_same_templates(got, want):
    assert len(got) == len(want)
    for t, w in zip(got, want):
        assert t == w
        assert np.array_equal(t.group_off, w.group_off)
        assert np.array_equal(t.group_ids, w.group_ids)


def _memo_universes(state):
    """The universe mask of every entry of the state's memo: a step
    entry's key is its packed universe, a kernel entry's the last
    element of its key."""
    n = state.graph.vertex_count
    return [np.unpackbits(np.frombuffer(key if isinstance(key, bytes) else key[-1],
                                        np.uint8), count=n).view(np.bool_)
            for key in state._memo]


def test_carried_memo_saves_kernel_runs_across_folds(monkeypatch):
    # the same chain of add_objective calls, with the memo carried from
    # fold to fold and with it dropped after every fold: later folds hit
    # the entries of earlier ones, and every template stays the same
    g, objectives = compose_shaped_game(2, 16)
    runs = counted_kernels(monkeypatch)
    _, templates = _chain(g, objectives)
    carried = dict(runs)

    with monkeypatch.context() as m:
        _forget_between_folds(m)
        runs.update(attr_mask=0, reach_template=0)
        _, want = _chain(g, objectives)
    assert carried["attr_mask"] < runs["attr_mask"]
    assert carried["reach_template"] < runs["reach_template"]
    _assert_same_templates(templates, want)


def test_memo_holds_only_universes_inside_the_region():
    # after every fold the memo is pruned to the new region; the one
    # dict is handed on from state to state
    g, objectives = compose_shaped_game(2, 16)
    state = ComposeState.initial(g)
    memo = state._memo
    assert memo == {}
    held = []
    for pf in objectives:
        state, _ = add_objective(g, state, pf)
        assert state._memo is memo
        universes = _memo_universes(state)
        assert all((u <= state.w0_mask).all() for u in universes)
        held.append(len(universes))
    assert min(held) > 0
    # a state built directly starts with a fresh memo
    fresh = ComposeState(g, state.w0_mask, state.live_groups,
                         state.colive_mask, state.objectives)
    assert fresh._memo == {} and fresh._memo is not memo


@pytest.mark.parametrize("seed", range(4))
def test_branches_of_one_state_share_a_correct_memo(seed):
    # one state extended by two different objectives: both branches
    # share and prune one memo, and each gives the templates of a
    # replay from a fresh initial state
    g, objectives = compose_shaped_game(seed, 16)
    base, _ = _chain(g, objectives[:1])
    branches = [add_objective(g, base, pf) for pf in objectives[1:]]
    assert branches[0][0]._memo is branches[1][0]._memo is base._memo
    for (state, t), pf in zip(branches, objectives[1:]):
        replay, (_, want) = _chain(g, [objectives[0], pf])
        assert np.array_equal(state.w0_mask, replay.w0_mask)
        _assert_same_templates([t], [want])
    # and again in the other order, on a new base
    base, _ = _chain(g, objectives[:1])
    late = add_objective(g, base, objectives[2])[1]
    early = add_objective(g, base, objectives[1])[1]
    _assert_same_templates([early, late], [branches[0][1], branches[1][1]])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 4))
@example(seed=2266, k=2)
def test_carried_memo_keeps_every_template(seed, k):
    # a few games (seed 2266 alone among the first 3000) stop both
    # chains with the same failed-measure RuntimeError; that outcome
    # must match too
    def outcome():
        try:
            return [template_text(t) for t in _chain(g, objectives)[1]]
        except RuntimeError as e:
            return str(e)

    g, objectives = rand_game(seed, 20, 3, k=k)
    got = outcome()
    with pytest.MonkeyPatch.context() as m:
        _forget_between_folds(m)
        want = outcome()
    assert got == want
