"""Differential checks of the attractor kernel, reach_template and the
conflict check against the implementations they replaced.

The kernel and reach_template run small rounds and layers as scalar
steps and large ones with numpy; the kernel checks run every case with
all steps forced onto each form and with the two mixed (see ``FORMS``).

The references below are the earlier code, kept verbatim apart from
their names: two separate worklist loops for attr and uattr, a
reach_template that re-runs uattr and a full-edge cpre for every
layer (calling the uattr reference, and building its full universe
inline), and a find_conflicts that scans the live-groups one at a
time with a length-n bincount each.  Both now speak the template's
live-group format: reach_template gives one edge-id array per layer, and
a starved vertex maps to the indices of its groups.
"""
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ConflictReport, StrategyTemplate, conjoin,
                         find_conflicts, parity_template, reach_template,
                         transformers)
from pgtemplates.graph import PLAYER0
from pgtemplates.transformers import (_attractor, _gather_ranges,
                                      _restricted_degrees, attr_mask,
                                      cpre_mask, uattr_mask)
from conftest import rand_game


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
        b = cpre_mask(g, a, PLAYER0, universe) & ~a
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


@settings(deadline=None, max_examples=300)
@given(game_and_masks())
def test_uattr_mask_matches_reference(case):
    g, target, universe = case
    want = uattr_mask_reference(g, target, universe)
    kept = copies(target, universe)
    for limit in FORMS:
        with scalar_limit(limit):
            got = uattr_mask(g, target, universe)
        assert_unchanged([target, universe], kept)
        assert np.array_equal(got, want)


def resumed(g, target, extra, universe, limit):
    """uattr closure of target, then of the extra vertices added to it,
    by resuming the kernel with the same counters."""
    inside = np.ones(g.vertex_count, dtype=np.bool_) if universe is None else universe
    counter = _restricted_degrees(g, universe)
    in_a = target & inside
    touched = []
    with scalar_limit(limit):
        _attractor(g, in_a, counter, np.flatnonzero(in_a), universe, touched)
        more = extra & inside & ~in_a
        in_a |= more
        _attractor(g, in_a, counter, np.flatnonzero(more), universe, touched)
    return in_a, counter, touched


@settings(deadline=None, max_examples=300)
@given(game_and_masks(), st.data())
def test_resumed_attractor_counters_agree_across_forms(case, data):
    # counters of vertices left outside the set are what a resumption
    # reads, so both forms and any mix of them must leave them equal
    g, target, universe = case
    n = g.vertex_count
    extra = g.mask_of(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    want = uattr_mask_reference(g, target | extra, universe)
    src = g.edge_sources()
    dst = g.edge_targets
    ok = np.ones(g.edge_count, dtype=np.bool_) if universe is None else (
        universe[src] & universe[dst])
    results = [resumed(g, target, extra, universe, limit)
               for limit in FORMS]
    for in_a, counter, touched in results:
        assert np.array_equal(in_a, want)
        assert np.array_equal(counter[~in_a], results[0][1][~in_a])
        # every vertex left outside with an edge into the set is listed
        listed = np.zeros(n, dtype=np.bool_)
        for ids in touched:
            listed[np.asarray(ids, dtype=np.int64)] = True
        into = ok & ~in_a[src] & in_a[dst]
        assert listed[src[into]].all()


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
    lo, hi = g6.edge_range(a)
    t = StrategyTemplate.from_groups(
        g6, np.isin(np.arange(g6.edge_count), np.arange(lo, hi)),
        np.zeros(g6.edge_count, dtype=np.bool_), [np.arange(lo, hi)] * 2,
        np.ones(g6.vertex_count, dtype=np.bool_))
    got = find_conflicts(g6, t)
    assert_same_report(got, find_conflicts_reference(g6, t))
    assert got.starved[a] == (0, 1)
