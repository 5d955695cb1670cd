import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import attr, cpre, uattr, upre
from pgtemplates.transformers import attr_mask
from conftest import eight_game, names_of, rand_game, vset


def test_upre_goldens(g6):
    assert names_of(g6, upre(g6, vset(g6, "abcd"))) == list("abcf")
    assert upre(g6, g6.vertices()).all()
    assert not upre(g6, []).any()


def test_cpre_goldens(g6, g8):
    assert names_of(g6, cpre(g6, vset(g6, "cd"), 0)) == ["a"]
    assert cpre(g6, g6.vertices(), 0).all()
    g3, _ = g8
    assert names_of(g3, cpre(g3, vset(g3, "d"), 0)) == ["h"]


def test_cpre_rejects_bad_player(g6):
    with pytest.raises(ValueError, match="player"):
        cpre(g6, [], 2)


def test_attr_goldens(g6, g8):
    g3, _ = g8
    assert names_of(g3, attr(g3, vset(g3, "d"), 0)) == ["d", "h"]
    assert not attr(g6, [], 0).any()
    assert not attr(g6, [], 1).any()
    assert uattr(g6, g6.vertices()).all()
    assert names_of(g6, uattr(g6, vset(g6, "cd"))) == ["c", "d"]


def test_attr_universe_restriction(g6):
    # restricted to {a,b,d}, player 0 can still attract to d via a
    universe = g6.mask_of(vset(g6, "abd"))
    got = attr_mask(g6, g6.mask_of(vset(g6, "d")), 0, universe=universe)
    assert names_of(g6, got) == ["a", "b", "d"]
    # inside {b,d} the edge b->a is ignored, so b has only d left
    universe = g6.mask_of(vset(g6, "bd"))
    got = attr_mask(g6, g6.mask_of(vset(g6, "d")), 0, universe=universe)
    assert names_of(g6, got) == ["b", "d"]


def _cpre_by_definition(g, u_mask, player):
    out = np.zeros(g.vertex_count, dtype=np.bool_)
    for v in g.vertices():
        succ_in = u_mask[g.successors(v)]
        if g.owner_of(v) == player:
            out[v] = bool(succ_in.any())
        else:
            out[v] = bool(succ_in.all())
    return out


def _attr_by_definition(g, u_mask, player):
    cur = u_mask.copy()
    while True:
        nxt = cur | _cpre_by_definition(g, cur, player)
        if (nxt == cur).all():
            return cur
        cur = nxt


@settings(deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 1), st.data())
def test_operators_match_definitions(seed, player, data):
    g, _ = rand_game(seed, 50, 1)
    ids = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
    u = g.mask_of(sorted(ids))
    assert np.array_equal(cpre(g, u, player), _cpre_by_definition(g, u, player))
    assert np.array_equal(attr(g, u, player), _attr_by_definition(g, u, player))
    # a vertex whose successors all lie in U satisfies both players' cpre
    assert np.array_equal(upre(g, u),
                          _cpre_by_definition(g, u, 0)
                          & _cpre_by_definition(g, u, 1))


@settings(deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 1), st.data())
def test_fixpoint_properties(seed, player, data):
    g, _ = rand_game(seed, 30, 1)
    ids = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
    small = g.mask_of(sorted(ids))
    more = data.draw(st.sets(st.integers(0, g.vertex_count - 1)))
    big = small | g.mask_of(sorted(more))

    a_small = attr(g, small, player)
    assert (small <= a_small).all()
    assert (a_small <= attr(g, big, player)).all()
    assert np.array_equal(attr(g, a_small, player), a_small)

    ua = uattr(g, small)
    assert (small <= ua).all()
    assert (ua <= a_small).all()
    assert np.array_equal(uattr(g, ua), ua)

    assert (upre(g, small) <= upre(g, big)).all()
    assert (cpre(g, small, player) <= cpre(g, big, player)).all()
