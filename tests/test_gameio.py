import re

import numpy as np
import pytest

from pgtemplates import (GameGraph, ParseError, PriorityFunction, StrategyTemplate,
                         emit_game, extract_strategy, generate,
                         GeneratorConfig, parity_template, parse_game,
                         parse_strategy, parse_template, strategy_text,
                         template_text)
from pgtemplates import gameio
from conftest import (DATA, buchi_pf, edges, six_game, eight_game,
                      group_edge_sets, pf_by_name, vset)


def test_parse_six_vertex_file_matches_builder():
    g, objectives = parse_game((DATA / "six.gpg").read_text())
    want = six_game()
    assert g.names == want.names
    assert list(g.owners) == list(want.owners)
    assert sorted(g.edges()) == sorted(want.edges())
    assert len(objectives) == 3
    assert objectives[0] == pf_by_name(want, 0, f=1)
    assert objectives[1] == buchi_pf(want, vset(want, "cd"))
    assert objectives[2] == pf_by_name(want, 0, b=1)


def test_parse_eight_vertex_file_matches_builder():
    g, objectives = parse_game((DATA / "eight.gpg").read_text())
    want, pf = eight_game()
    assert g.names == want.names
    assert list(g.owners) == list(want.owners)
    assert sorted(g.edges()) == sorted(want.edges())
    assert objectives == [pf]


def test_parse_pair_file():
    g, objectives = parse_game((DATA / "six_pair.gpg").read_text())
    assert [pf.max_priority for pf in objectives] == [1, 2]
    assert list(objectives[1].values) == [0, 2, 1, 1, 1, 1]


def test_emit_parse_is_a_normal_form():
    text = (DATA / "six.gpg").read_text()
    once = emit_game(*parse_game(text))
    twice = emit_game(*parse_game(once))
    assert once == twice
    assert once.splitlines()[0] == "genparity 5 3;"


def test_pgsolver_header_equals_k1_genparity():
    plain = "parity 1;\n0 2 0 0,1 \"x\";\n1 1 1 0;\n"
    gen = "genparity 1 1;\n0 2 0 0,1 \"x\";\n1 1 1 0;\n"
    g1, o1 = parse_game(plain)
    g2, o2 = parse_game(gen)
    assert sorted(g1.edges()) == sorted(g2.edges())
    assert o1 == o2
    assert emit_game(g1, o1).splitlines()[0] == "parity 1;"


def test_parse_sparse_ids_are_renumbered():
    text = "parity 10;\n0 0 0 10;\n10 1 1 0,10;\n"
    g, (pf,) = parse_game(text)
    assert g.vertex_count == 2
    assert sorted(g.edges()) == [(0, 1), (1, 0), (1, 1)]
    assert list(pf.values) == [0, 1]


def test_parse_partial_names_fall_back_to_ids():
    text = 'parity 1;\n0 0 0 1 "start";\n1 1 1 0;\n'
    g, _ = parse_game(text)
    assert g.names == ["start", "1"]


def test_parse_comments_and_blank_lines():
    text = "# leading comment\n\nparity 0;\n  # indented comment\n0 0 0 0;\n\n"
    g, _ = parse_game(text)
    assert g.vertex_count == 1


_UNREADABLE = ['say "hi"', "caf\u00e9", "a\nb", "a\rb", "a b", "a\tb", "(a)", "a,b",
               "a:b", "#a", "", "v1"]


def _relabeled(g, label, at=3):
    names = ["v%d" % v for v in g.vertices()]
    names[at] = label
    return GameGraph(g.owners, g.succ_offsets(), g.edge_targets, names)


def test_emit_rejects_unserializable():
    g = six_game()
    with pytest.raises(ValueError, match="at least one objective"):
        emit_game(g, [])
    with pytest.raises(ValueError, match="cover"):
        emit_game(g, [PriorityFunction([0])])
    pf = PriorityFunction([0] * g.vertex_count)
    # "v1" is the label of vertex 1 as well
    for label in _UNREADABLE:
        with pytest.raises(ValueError, match=re.escape(
                "vertex name %r not serializable" % label)):
            emit_game(_relabeled(g, label), [pf])


@pytest.mark.parametrize("label", _UNREADABLE)
def test_template_and_strategy_text_reject_unserializable(label):
    named = _relabeled(six_game(), label)
    t = StrategyTemplate.unconstrained(named)
    s = extract_strategy(named, t)
    for write, value in [(template_text, t), (strategy_text, s)]:
        with pytest.raises(ValueError, match=re.escape(
                "vertex name %r not serializable" % label)):
            write(value)


def test_serializable_labels_read_back_in_every_format():
    g = six_game()
    pf = PriorityFunction([0] * g.vertex_count)
    # labels that are ids of other vertices, or hold '#' after the first
    # character, resolve to their own vertex
    named = GameGraph(g.owners, g.succ_offsets(), g.edge_targets,
                      ["3", "0", "a#b", "x'-+", "[v]", "!"])
    text = emit_game(named, [pf])
    g2, _ = parse_game(text)
    assert g2.names == named.names and emit_game(g2, [pf]) == text
    t = StrategyTemplate.from_edges(g2, unsafe=[(0, 1)], region=[0, 1, 2, 3])
    assert parse_template(template_text(t), g2) == t
    s = extract_strategy(g2, t)
    assert strategy_text(parse_strategy(strategy_text(s), g2)) == strategy_text(s)


@pytest.mark.parametrize("text,msg,line,col", [
    ("", "missing header", 1, 1),
    ("# only a comment\n", "missing header", 1, 1),
    ("party 5;\n", "header keyword", 1, 1),
    ("parity 5;\n", "no vertex records", 1, 1),
    ("parity 5\n0 0 0 0;\n", "expected ';'", 1, 9),
    ("genparity 5 0;\n", "at least 1", 1, 14),
    ("parity 1;\n0 0 0 1; 1 0 1 0;\n", "trailing text", 2, 10),
    ("parity 1;\n0 0,1 0 1;\n1 0 1 0;\n", "expected 1 comma-separated", 2, 3),
    ("genparity 1 2;\n0 0 0 1;\n1 0,1 1 0;\n", "expected 2", 2, 3),
    ("parity 1;\n0 0 2 1;\n", "owner", 2, 5),
    ("parity 1;\n0 0 0 1;\n0 0 1 0;\n", "duplicate record", 3, 1),
    ("parity 1;\n0 0 0 2;\n2 0 1 0;\n", "exceeds declared maximum", 3, 1),
    ("parity 1;\n0 0 0 3;\n1 0 1 0;\n", "successor 3 has no record", 2, 7),
    ("parity 1;\n0 0 0 1,1;\n1 0 1 0;\n", "duplicate edge", 2, 7),
    ('parity 0;\n0 0 0 0 "caf\xe9";\n', "non-ASCII", 2, 13),
    ("parity 1;\n0 99999999999999999999 0 1;\n1 0 1 0;\n",
     "priority 99999999999999999999 does not fit in 64 bits", 2, 3),
    ("genparity 1 2;\n0 0,0 0 1;\n1 7,9223372036854775808 1 0;\n",
     "priority 9223372036854775808 does not fit in 64 bits", 3, 5),
    ("parity 0;\n0 92233720368547758083 0 a;\n",
     "priority 92233720368547758083 does not fit in 64 bits", 2, 3),
])
def test_parse_errors_carry_position(text, msg, line, col):
    with pytest.raises(ParseError) as err:
        parse_game(text)
    assert msg in str(err.value)
    assert err.value.line == line
    assert err.value.column == col


def _spy(monkeypatch, name):
    """Calls of the line-walker loop `name` of pgtemplates.gameio."""
    calls = []
    inner = getattr(gameio, name)

    def spy(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(gameio, name, spy)
    return calls


def _same_strategy(a, b):
    return (np.array_equal(a._off, b._off) and np.array_equal(a._order, b._order)
            and np.array_equal(a.region_mask, b.region_mask))


@pytest.mark.parametrize("k", [1, 3])
def test_canonical_texts_take_the_whole_text_pass(monkeypatch, k):
    g, objectives = generate(GeneratorConfig(
        objective_count=k, max_priority=5, seed=k, vertex_count=2000, edge_count=8000))
    spies = [_spy(monkeypatch, name) for name in
             ("_parse_game_lines", "_parse_template_lines", "_parse_strategy_lines")]
    _check_whole_text_pass(g, objectives, *spies)
    for calls in spies:
        calls.clear()
    named = GameGraph(g.owners, g.succ_offsets(), g.edge_targets,
                      ["v%d" % v for v in g.vertices()])
    _check_whole_text_pass(named, objectives, *spies)


def _check_whole_text_pass(g, objectives, game_lines, template_lines, strategy_lines):
    """The texts the writers write for g take the whole-text pass and
    read back byte for byte; texts one edit away take the walker, whose
    calls the spies log."""
    named = g.names is not None
    text = emit_game(g, objectives)
    g2, parsed = parse_game(text)
    t = parity_template(g2, parsed[0]).template
    ttext = template_text(t)
    assert "live-group: " in ttext and "colive: (" in ttext
    back = parse_template(ttext, g2)
    s = extract_strategy(g2, t)
    stext = strategy_text(s)
    sback = parse_strategy(stext, g2)
    assert game_lines == [] and template_lines == [] and strategy_lines == []
    assert g2.names == g.names and emit_game(g2, parsed) == text
    assert back == t and template_text(back) == ttext
    assert np.array_equal(back.group_off, t.group_off)
    assert np.array_equal(back.group_ids, t.group_ids)
    assert np.array_equal(sback._off, s._off) and np.array_equal(sback._order, s._order)
    assert strategy_text(sback) == stext

    # one comment line, a doubled space or a name on only some records
    # leave the form the writers write; the walker reads them to the
    # same value
    head, first, rest = text.split("\n", 2)
    partial = (head + "\n" + first.replace(' "v0"', "") + "\n" + rest if named
               else head + "\n" + first[:-1] + ' "v0";\n' + rest)
    for other, names in [(head + "\n# comment\n" + first + "\n" + rest, g.names),
                         (head + "\n" + first.replace(" ", "  ", 1) + "\n" + rest, g.names),
                         (partial, ["0" if named else "v0"]
                          + ["v%d" % v if named else str(v) for v in range(1, 2000)])]:
        g3, parsed3 = parse_game(other)
        assert game_lines[-1] == other
        assert g3.names == names
        assert np.array_equal(g3.succ_offsets(), g2.succ_offsets())
        assert np.array_equal(g3.edge_targets, g2.edge_targets)
        assert np.array_equal(g3.owners, g2.owners)
        assert [pf.values.tolist() for pf in parsed3] == \
            [pf.values.tolist() for pf in parsed]
    region, rest = ttext.split("\n", 1)
    for other in ["# comment\n" + ttext, region.replace(" ", "  ", 1) + "\n" + rest]:
        again = parse_template(other, g2)
        assert template_lines[-1] == other
        assert again == t and np.array_equal(again.group_ids, t.group_ids)
    line, rest = stext.split("\n", 1)
    for other in ["# comment\n" + stext, line.replace(" ", "  ", 1) + "\n" + rest]:
        assert _same_strategy(parse_strategy(other, g2), sback)
        assert strategy_lines[-1] == other
    assert len(game_lines) == 3 and len(template_lines) == 2 and len(strategy_lines) == 2


def test_parse_error_rendering():
    err = ParseError("boom", 3, 7)
    assert "3" in str(err) and "7" in str(err)


def test_template_text_round_trip(g6):
    t = StrategyTemplate.from_edges(
        g6,
        unsafe=edges(g6, ("d", "e")),
        colive=edges(g6, ("a", "b"), ("d", "b")),
        live_groups=[edges(g6, ("a", "c"), ("a", "d"))],
        region=vset(g6, "abcd"))
    text = template_text(t)
    back = parse_template(text, g6)
    assert back.unsafe_edges == t.unsafe_edges
    assert back.colive_edges == t.colive_edges
    assert group_edge_sets(back) == group_edge_sets(t)
    assert np.array_equal(back.region_mask, t.region_mask)
    assert template_text(back) == text
    # b is a player-1 vertex: its edges leave their groups, and a group
    # of player-1 edges only is dropped; the other groups keep file order
    text = ("region: a b c d e f\nunsafe:\ncolive:\n"
            "live-group: (d,b) (a,c) (d,b) (b,a)\n"
            "live-group: (b,a) (b,d)\n"
            "live-group: (a,a)\n")
    t = parse_template(text, g6)
    assert t.live_groups == (frozenset(edges(g6, ("a", "c"), ("d", "b"))),
                             frozenset(edges(g6, ("a", "a"))))
    assert template_text(t) == ("region: a b c d e f\nunsafe:\ncolive:\n"
                                "live-group: (a,c) (d,b)\nlive-group: (a,a)\n")
    assert parse_template(template_text(t), g6) == t


def test_template_text_uses_names(g6):
    t = StrategyTemplate.from_edges(g6, unsafe=edges(g6, ("d", "e")),
                                    region=vset(g6, "abcd"))
    text = template_text(t)
    assert "region: a b c d" in text
    assert "unsafe: (d,e)" in text


def test_parse_template_errors(g6):
    with pytest.raises(ParseError, match="missing region"):
        parse_template("unsafe: (d,e)\n", g6)
    with pytest.raises(ParseError, match="duplicate region"):
        parse_template("region: a\nregion: b\n", g6)
    with pytest.raises(ParseError, match="unknown section"):
        parse_template("region: a\nbogus: x\n", g6)
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_template("region: z\n", g6)
    with pytest.raises(ParseError, match="no such edge"):
        parse_template("region: a\nunsafe: (c,b)\n", g6)


def test_strategy_text_errors(g6):
    with pytest.raises(ParseError, match="not player-0"):
        parse_strategy("b: (b,a)\n", g6)
    with pytest.raises(ParseError, match="duplicate line"):
        parse_strategy("a: (a,a)\na: (a,c)\n", g6)
    with pytest.raises(ParseError, match="empty move list"):
        parse_strategy("a:\n", g6)
    with pytest.raises(ParseError, match="does not start at"):
        parse_strategy("a: (d,a)\n", g6)


_XG = "parity 2;\n0 0 0 1,2 \"x\";\n1 1 1 0;\n2 0 0 2;\n"


@pytest.mark.parametrize("parse, text, sizes, error", [
    # a line the pattern rejects, after a line with one edge
    (parse_template, "region: x\ncolive: (x,1)\nunsafe: (x,1) (x,2) (2,2) junk\n",
     [1, 3], "line 3, column 27: edge of the form (u,v)"),
    # an edge that does not resolve, at the end of an accepted line
    (parse_template, "region: x\nunsafe: (x,1) (x,2) (2,2) (2,x)\n",
     [4], "line 2, column 27: no such edge (2,x)"),
    # an unknown vertex before a syntax error on the same line
    (parse_template, "region: x\nunsafe: (x,1) (x,2) (2,7) (2,x\n",
     [3], "line 2, column 21: unknown vertex '7'"),
    (parse_strategy, "x: (x,1) (x,2) (2,2)\n",
     [3], "line 1, column 1: edge (2,2) does not start at x"),
])
def test_walker_resolves_a_line_in_one_call(monkeypatch, parse, text, sizes, error):
    # the walker resolves the edges of each line it reads in one call
    g, _ = parse_game(_XG)
    calls = []
    inner = gameio.resolve_edges

    def spy(g, us, vs):
        calls.append(len(us))
        return inner(g, us, vs)

    monkeypatch.setattr(gameio, "resolve_edges", spy)
    with pytest.raises(ParseError) as err:
        parse(text, g)
    assert str(err.value) == error
    assert calls == sizes


def test_strategy_text_uses_ids_without_names():
    g, objectives = generate(GeneratorConfig(
        objective_count=1, max_priority=2, seed=5,
        vertex_count=6, edge_count=14))
    from pgtemplates import parity_template
    result = parity_template(g, objectives[0])
    if not result.w0_mask.any():
        return
    s = extract_strategy(g, result.template)
    text = strategy_text(s)
    back = parse_strategy(text, g)
    assert strategy_text(back) == text


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_fuzz(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    m = int(min(n * n, rng.integers(n, 4 * n)))
    k = int(rng.integers(1, 4))
    g, objectives = generate(GeneratorConfig(
        objective_count=k, max_priority=int(rng.integers(1, 6)),
        seed=seed, vertex_count=n, edge_count=m))
    text = emit_game(g, objectives)
    g2, parsed = parse_game(text)
    assert list(g2.owners) == list(g.owners)
    assert sorted(g2.edges()) == sorted(g.edges())
    assert [list(pf.values) for pf in parsed] == \
        [list(pf.values) for pf in objectives]
    assert emit_game(g2, parsed) == text
