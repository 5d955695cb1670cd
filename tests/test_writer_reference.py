"""Differential test of the writers against the per-token writers they
replaced.

The reference below is the text code as it was before the writers
rendered through the label table: one Python string per vertex label
and per edge token, joined.  ``emit_game``, ``template_text``,
``strategy_text`` and ``vertex_text`` must render every input byte for
byte as the reference does, or raise the same ValueError; the label
table's gather must hold no more memory than the strings it replaced.
"""
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (GeneratorConfig, PriorityFunction, Strategy, StrategyTemplate,
                         emit_game, extract_strategy, generate, parity_template,
                         strategy_text, template_text)
from pgtemplates import gameio
from pgtemplates.gameio import vertex_text
from pgtemplates.graph import GameGraph


# -- reference: the per-token writers -----------------------------------------

_REF_LABEL = re.compile(r"(?!#)[!#-'*+\--9;-~]+")


def ref_labels(g):
    names = g.names
    if names is None:
        return list(map(str, range(g.vertex_count)))
    seen = set()
    for label in names:
        if not _REF_LABEL.fullmatch(label) or label in seen:
            raise ValueError("vertex name %r not serializable" % label)
        seen.add(label)
    return names


def ref_emit_game(g, objectives):
    objectives = list(objectives)
    if not objectives:
        raise ValueError("need at least one objective")
    for pf in objectives:
        if len(pf) != g.vertex_count:
            raise ValueError("priority function does not cover the vertex set")
    n = g.vertex_count
    if len(objectives) == 1:
        header = "parity %d;" % (n - 1)
        prios = list(map(str, objectives[0].values.tolist()))
    else:
        header = "genparity %d %d;" % (n - 1, len(objectives))
        rows = np.stack([pf.values for pf in objectives], axis=1).tolist()
        prios = [",".join(map(str, row)) for row in rows]
    dst = list(map(str, g.edge_targets.tolist()))
    off = g.succ_offsets().tolist()
    succs = [",".join(dst[off[v]:off[v + 1]]) for v in range(n)]
    if g.names is None:
        names = [""] * n
    else:
        names = [' "%s"' % label for label in ref_labels(g)]
    lines = [header]
    lines.extend("%d %s %d %s%s;" % row for row in
                 zip(range(n), prios, g.owners.tolist(), succs, names))
    return "\n".join(lines) + "\n"


def _ref_edge_tokens(g, ids, names):
    src = g.edge_sources()[ids].tolist()
    dst = g.edge_targets[ids].tolist()
    return ["(" + names[u] + "," + names[v] + ")" for u, v in zip(src, dst)]


def _ref_sorted_edges(g, ids, group=None):
    order = np.argsort(g.edge_sources()[ids] * g.vertex_count + g.edge_targets[ids],
                       kind="stable")
    if group is not None:
        order = order[np.argsort(group[order], kind="stable")]
    return ids[order]


def ref_template_text(t):
    g = t.graph
    names = ref_labels(g)

    def edge_list(mask):
        ids = _ref_sorted_edges(g, np.flatnonzero(mask))
        return " ".join(_ref_edge_tokens(g, ids, names))

    lines = ["region:" + "".join(" " + names[v]
                                 for v in np.flatnonzero(t.region_mask).tolist())]
    lines.append(("unsafe: " + edge_list(t.unsafe_mask)).rstrip())
    lines.append(("colive: " + edge_list(t.colive_mask)).rstrip())
    tokens = _ref_edge_tokens(g, _ref_sorted_edges(g, t.group_ids, t.group_of_ids()), names)
    opens = np.zeros(len(tokens), dtype=np.bool_)
    opens[t.group_off[:-1]] = True
    groups = "".join(("\nlive-group: " if first else " ") + tok
                     for first, tok in zip(opens.tolist(), tokens))
    return "\n".join(lines) + groups + "\n"


def ref_strategy_text(s):
    g = s.graph
    names = ref_labels(g)
    tokens = _ref_edge_tokens(g, s._order, names)
    off = s._off.tolist()
    return "\n".join("%s: %s" % (names[v], " ".join(tokens[off[v]:off[v + 1]]))
                     for v in s.domain_vertices().tolist()) + "\n"


def ref_vertex_list(g, mask):
    """The region lines of the command line front end."""
    names = g.names
    return " ".join(map(str if names is None else names.__getitem__,
                        mask.nonzero()[0].tolist()))


def ref_lasso_line(g, vertices):
    """The counterexample lines of the command line front end."""
    return " ".join(g.name_of(v) for v in vertices)


# -- comparison ------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def agree(new, ref, *args):
    got, want = _outcome(new, *args), _outcome(ref, *args)
    assert got == want
    return got


def checked_list(ref):
    """A vertex list the command line printed without the writers'
    label check, which vertex_text runs first."""
    def run(g, *args):
        ref_labels(g)
        return ref(g, *args)
    return run


@contextmanager
def chunk_size(size):
    """Render with chunks of the given size, so that small texts cross
    chunk boundaries too."""
    saved = gameio._CHUNK
    gameio._CHUNK = size
    try:
        yield
    finally:
        gameio._CHUNK = saved


# -- inputs ------------------------------------------------------------------------

_LABEL_CHARS = "".join(chr(c) for c in range(0x21, 0x7f) if chr(c) not in '"(),:')
_good_labels = st.text(_LABEL_CHARS, min_size=1, max_size=300).filter(
    lambda label: label[0] != "#")
# labels the readers would not read back: blanks, a quote, parentheses,
# a comma or colon, a '#' first, no character, non-ASCII
_bad_labels = st.sampled_from(["a b", "", "#x", 'q"', "x(", "y)", "a,b", "a:b", "\t",
                               "\xe9", "x\n"])
_labels = st.one_of(_good_labels, _good_labels, _good_labels, _bad_labels)


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    owners = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    succs = [draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
             for _ in range(n)]
    names = None
    if draw(st.booleans()):
        names = draw(st.lists(_labels, min_size=n, max_size=n))
        if n > 1 and draw(st.integers(0, 9)) == 0:  # two vertices share a label
            names[draw(st.integers(1, n - 1))] = names[0]
    off = np.cumsum([0] + [len(s) for s in succs])
    return GameGraph(np.array(owners, dtype=np.int8), off,
                     np.array([v for s in succs for v in s], dtype=np.int64), names)


@st.composite
def objectives(draw, n):
    prio = st.one_of(st.integers(0, 9), st.integers(0, 2**63 - 1))
    return [PriorityFunction(draw(st.lists(prio, min_size=n, max_size=n)))
            for _ in range(draw(st.integers(1, 3)))]


@st.composite
def templates(draw, g):
    n, m = g.vertex_count, g.edge_count
    region = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    unsafe = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    colive = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    groups = draw(st.lists(st.lists(st.integers(0, m - 1), max_size=m), max_size=4))
    return StrategyTemplate.from_edges(
        g, unsafe=unsafe, colive=colive, region=np.flatnonzero(region),
        live_groups=[np.array(ids, dtype=np.int64) for ids in groups])


@st.composite
def strategies(draw, g):
    """A move list per vertex: a few of its edges in any order, or none."""
    off = g.succ_offsets().tolist()
    counts, order = [], []
    for v in g.vertices():
        moves = draw(st.permutations(range(off[v], off[v + 1])))
        k = draw(st.integers(0, len(moves)))
        counts.append(k)
        order.extend(moves[:k])
    n = g.vertex_count
    return Strategy(g, np.cumsum([0] + counts), np.array(order, dtype=np.int64),
                    np.ones(n, dtype=np.bool_))


# -- input 1: small graphs, with and without names ------------------------------


@settings(deadline=None, max_examples=300)
@given(st.data(), graphs(), st.sampled_from([1, 2, 5, 16384]))
def test_writers_render_like_the_reference(data, g, chunk):
    objs = data.draw(objectives(g.vertex_count))
    t = data.draw(templates(g))
    s = data.draw(strategies(g))
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=g.vertex_count,
                                       max_size=g.vertex_count)))
    lasso = data.draw(st.lists(st.integers(0, g.vertex_count - 1), max_size=12))
    with chunk_size(chunk):
        agree(emit_game, ref_emit_game, g, objs)
        agree(template_text, ref_template_text, t)
        agree(strategy_text, ref_strategy_text, s)
        agree(lambda g, mask: vertex_text(g, np.flatnonzero(mask)),
              checked_list(ref_vertex_list), g, mask)
        agree(vertex_text, checked_list(ref_lasso_line), g, lasso)


def test_edge_cases_render_like_the_reference():
    # one vertex; an empty region, empty unsafe and colive lines, no
    # live-groups, and a strategy without moves
    for names in (None, ["only"]):
        g = GameGraph(np.array([0], dtype=np.int8), np.array([0, 1]), np.array([0]), names)
        t = StrategyTemplate.from_edges(g, region=[])
        s = Strategy(g, np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64),
                     np.zeros(1, dtype=np.bool_))
        assert template_text(t) == ref_template_text(t) == "region:\nunsafe:\ncolive:\n"
        assert strategy_text(s) == ref_strategy_text(s) == "\n"
        assert emit_game(g, [PriorityFunction([0])]) == ref_emit_game(g, [PriorityFunction([0])])
        assert vertex_text(g, []) == ""
    # labels of 1 to 300 characters, and strategy lines of several moves
    n = 300
    names = [("v%d-" % v + "x" * v)[:v + 1] for v in range(n)]
    succs = [[(v + d) % n for d in range(1 + v % 5)] for v in range(n)]
    g = GameGraph(np.zeros(n, dtype=np.int8), np.cumsum([0] + [len(s) for s in succs]),
                  np.array([v for s in succs for v in s]), names)
    assert {len(label) for label in names} == set(range(1, n + 1))
    t = StrategyTemplate.from_edges(g, live_groups=[np.arange(g.edge_count)])
    s = extract_strategy(g, t)
    assert max(np.diff(s._off)) == 5
    for chunk in (1, 7, 16384):
        with chunk_size(chunk):
            assert template_text(t) == ref_template_text(t)
            assert strategy_text(s) == ref_strategy_text(s)
            assert emit_game(g, [PriorityFunction(np.arange(n))]) == \
                ref_emit_game(g, [PriorityFunction(np.arange(n))])
            assert vertex_text(g, np.arange(n)[::-1]) == ref_lasso_line(g, range(n - 1, -1, -1))


# -- input 2: generator output, several chunks per text ---------------------------


def _named(g):
    return GameGraph(g.owners, g.succ_offsets(), g.edge_targets,
                     ["v%d" % v for v in g.vertices()])


def test_generated_games_render_like_the_reference():
    for k in (1, 3):
        g0, objs = generate(GeneratorConfig(objective_count=k, max_priority=5, seed=k,
                                            vertex_count=10_000, edge_count=40_000))
        for g in (g0, _named(g0)):
            t = parity_template(g, objs[0]).template
            s = extract_strategy(g, t)
            # rows of 6 and 8 entries: each block takes several chunks
            assert 6 * t.unsafe_mask.sum() > 2 * gameio._CHUNK
            assert 8 * len(s._order) > 2 * gameio._CHUNK
            assert emit_game(g, objs) == ref_emit_game(g, objs)
            assert template_text(t) == ref_template_text(t)
            assert strategy_text(s) == ref_strategy_text(s)
            assert vertex_text(g, np.flatnonzero(t.region_mask)) == \
                ref_vertex_list(g, t.region_mask)


# -- memory ---------------------------------------------------------------------------


def _peak(fn, arg):
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_hold_no_more_memory_than_the_reference():
    """tracemalloc peaks on a game of the benchmark's random-large size,
    each call on a fresh copy of the graph, so that it builds the label
    table (and the edge sources) as the first writer of a command does."""
    g, objs = generate(GeneratorConfig(objective_count=1, max_priority=3, seed=5,
                                       vertex_count=25_000, edge_count=100_000))
    t = parity_template(g, objs[0]).template
    s = extract_strategy(g, t)

    def fresh_template():
        h = GameGraph(g.owners, g.succ_offsets(), g.edge_targets, g.names)
        return StrategyTemplate(h, t.unsafe_mask, t.colive_mask, t.group_off, t.group_ids,
                                t.region_mask)

    def fresh_strategy():
        h = GameGraph(g.owners, g.succ_offsets(), g.edge_targets, g.names)
        return Strategy(h, s._off, s._order, s.region_mask)

    assert _peak(template_text, fresh_template()) <= _peak(ref_template_text, fresh_template())
    assert _peak(strategy_text, fresh_strategy()) <= _peak(ref_strategy_text, fresh_strategy())
