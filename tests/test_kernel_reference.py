"""Differential checks of the attractor kernel, reach_template and the
conflict check against the implementations they replaced.

The references below are the earlier code, kept verbatim apart from
their names: two separate worklist loops for attr and uattr, a
reach_template that re-runs uattr and a full-edge cpre for every
layer (calling the uattr reference, and building its full universe
inline), and a find_conflicts that scans the live-groups one at a
time with a length-n bincount each.  Both now speak the template's
live-group format: reach_template gives one edge-id array per layer, and
a starved vertex maps to the indices of its groups.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (ConflictReport, StrategyTemplate, conjoin,
                         find_conflicts, parity_template, reach_template)
from pgtemplates.graph import PLAYER0
from pgtemplates.transformers import (_gather_ranges, _restricted_degrees,
                                      attr_mask, cpre_mask, uattr_mask)
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


@settings(deadline=None, max_examples=300)
@given(game_and_masks(), st.integers(0, 1))
def test_attr_mask_matches_reference(case, player):
    g, target, universe = case
    kept = copies(target, universe)
    got = attr_mask(g, target, player, universe)
    assert_unchanged([target, universe], kept)
    assert np.array_equal(got,
                          attr_mask_reference(g, target, player, universe))


@settings(deadline=None, max_examples=300)
@given(game_and_masks())
def test_uattr_mask_matches_reference(case):
    g, target, universe = case
    kept = copies(target, universe)
    got = uattr_mask(g, target, universe)
    assert_unchanged([target, universe], kept)
    assert np.array_equal(got, uattr_mask_reference(g, target, universe))


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
    kept = copies(goal, universe)
    got = outcome(reach_template, g, goal, universe)
    assert_unchanged([goal, universe], kept)
    assert got == outcome(reach_template_reference, g, goal, universe)


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
