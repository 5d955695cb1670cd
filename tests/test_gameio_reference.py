"""Differential test of the bulk text parsers against the per-line
reference parsers they replaced, and of the bulk game renderer against
the per-vertex one.

The reference walks each line with a cursor and resolves every token on
its own, with its own edge index; the bulk parsers in pgtemplates.gameio
must agree with it on every text: the same value, or the same ParseError
(message, line and column).  ``emit_game`` must render every game byte
for byte as ``emit_game_reference`` does, or raise the same ValueError.
"""
import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pgtemplates import (GeneratorConfig, ParseError, PriorityFunction, Strategy,
                         emit_game, extract_strategy, generate, parity_template,
                         parse_game, parse_strategy, parse_template,
                         strategy_text, template_text)
from pgtemplates.graph import GameGraph, GraphBuilder, PLAYER0
from pgtemplates.template import StrategyTemplate


# -- reference: the per-line parsers ------------------------------------------


class _Scanner:
    def __init__(self, text, lineno):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.lineno, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def take(self, pattern, what):
        m = re.compile(pattern).match(self.text, self.pos)
        if m is None:
            self.error("expected %s" % what)
        self.pos = m.end()
        return m

    def expect_end(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing text")


def _int_list(token):
    return [int(x) for x in token.split(",")]


def _content_lines(text):
    for lineno, raw in enumerate(text.split("\n"), 1):
        for i, ch in enumerate(raw):
            if ord(ch) > 127:
                raise ParseError("non-ASCII character", lineno, i + 1)
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, raw


def ref_parse_game(text):
    header = None
    records = {}
    for lineno, raw in _content_lines(text):
        s = _Scanner(raw, lineno)
        s.skip_ws()
        if header is None:
            kw = s.take(r"[A-Za-z]+", "header keyword 'parity' or 'genparity'")
            if kw.group(0) == "parity":
                s.skip_ws()
                max_id = int(s.take(r"\d+", "maximal vertex id").group(0))
                k = 1
            elif kw.group(0) == "genparity":
                s.skip_ws()
                max_id = int(s.take(r"\d+", "maximal vertex id").group(0))
                s.skip_ws()
                k = int(s.take(r"\d+", "objective count").group(0))
                if k < 1:
                    s.error("objective count must be at least 1")
            else:
                s.pos -= len(kw.group(0))
                s.error("header keyword 'parity' or 'genparity'")
            s.skip_ws()
            s.take(r";", "';'")
            s.expect_end()
            header = (max_id, k)
            continue

        max_id, k = header
        vid = int(s.take(r"\d+", "vertex id").group(0))
        if vid > max_id:
            s.pos -= len(str(vid))
            s.error("vertex id %d exceeds declared maximum %d" % (vid, max_id))
        if vid in records:
            s.pos -= len(str(vid))
            s.error("duplicate record for vertex %d" % vid)
        s.skip_ws()
        pcol = s.pos + 1
        plist = s.take(r"\d+(?:,\d+)*", "priority list").group(0)
        prios = _int_list(plist)
        if len(prios) != k:
            raise ParseError(
                "expected %d comma-separated priorities, got %d" % (k, len(prios)),
                lineno, pcol)
        for token in plist.split(","):
            if int(token) >= 2 ** 63:
                raise ParseError("priority %d does not fit in 64 bits" % int(token),
                                 lineno, pcol)
            pcol += len(token) + 1
        s.skip_ws()
        owner = int(s.take(r"[01]", "owner (0 or 1)").group(0))
        s.skip_ws()
        scol = s.pos + 1
        succs = _int_list(s.take(r"\d+(?:,\d+)*", "successor list").group(0))
        s.skip_ws()
        name = None
        if s.pos < len(s.text) and s.text[s.pos] == '"':
            name = s.take(r'"([^"]*)"', "closing quote").group(1)
            s.skip_ws()
        s.take(r";", "';'")
        s.expect_end()
        records[vid] = (prios, owner, succs, name, lineno, scol)

    if header is None:
        raise ParseError("missing header", 1, 1)
    if not records:
        raise ParseError("no vertex records", 1, 1)

    ids = sorted(records)
    dense = {vid: i for i, vid in enumerate(ids)}
    named = any(records[vid][3] is not None for vid in ids)
    builder = GraphBuilder()
    for vid in ids:
        prios, owner, succs, name, lineno, scol = records[vid]
        label = None
        if named:
            label = name if name is not None else str(vid)
        builder.add_vertex(owner, label)
    for vid in ids:
        prios, owner, succs, name, lineno, scol = records[vid]
        for t in succs:
            if t not in dense:
                raise ParseError("successor %d has no record" % t, lineno, scol)
            try:
                builder.add_edge(dense[vid], dense[t])
            except ValueError as exc:
                raise ParseError(str(exc), lineno, scol) from exc
    g = builder.build()
    objectives = []
    for i in range(header[1]):
        vals = np.array([records[vid][0][i] for vid in ids], dtype=np.int64)
        objectives.append(PriorityFunction(vals))
    return g, objectives


def _edge_index(g):
    src = g.edge_sources().tolist()
    return {(s, t): i for i, (s, t) in enumerate(zip(src, g.edge_targets.tolist()))}


def _resolve_vertex(g, token, lineno, col):
    if g.names is not None and token in g.names:
        return g.names.index(token)
    if token.isdigit():
        v = int(token)
        if v < g.vertex_count:
            return v
    raise ParseError("unknown vertex %r" % token, lineno, col)


_EDGE_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")


def _parse_edge_list(g, index, s):
    ids = []
    while True:
        s.skip_ws()
        if s.pos == len(s.text):
            return ids
        col = s.pos + 1
        m = _EDGE_RE.match(s.text, s.pos)
        if m is None:
            s.error("edge of the form (u,v)")
        s.pos = m.end()
        u = _resolve_vertex(g, m.group(1), s.lineno, col)
        v = _resolve_vertex(g, m.group(2), s.lineno, col)
        if (u, v) not in index:
            raise ParseError("no such edge (%s,%s)" % (m.group(1), m.group(2)),
                             s.lineno, col)
        ids.append(index[(u, v)])


def ref_parse_template(text, g):
    index = _edge_index(g)
    region = None
    unsafe = np.zeros(g.edge_count, dtype=np.bool_)
    colive = np.zeros(g.edge_count, dtype=np.bool_)
    groups = []
    for lineno, raw in _content_lines(text):
        s = _Scanner(raw, lineno)
        s.skip_ws()
        head = s.take(r"[a-z-]+:", "section label")
        label = head.group(0)[:-1]
        if label == "region":
            if region is not None:
                s.error("duplicate region section")
            region = np.zeros(g.vertex_count, dtype=np.bool_)
            while True:
                s.skip_ws()
                if s.pos == len(s.text):
                    break
                col = s.pos + 1
                tok = s.take(r"[^\s()]+", "vertex").group(0)
                region[_resolve_vertex(g, tok, lineno, col)] = True
        elif label == "unsafe":
            unsafe[_parse_edge_list(g, index, s)] = True
        elif label == "colive":
            colive[_parse_edge_list(g, index, s)] = True
        elif label == "live-group":
            ids = [e for e in _parse_edge_list(g, index, s)
                   if g.owner_of(int(g.edge_sources()[e])) == PLAYER0]
            if ids:
                groups.append(np.unique(np.array(ids, dtype=np.int64)))
        else:
            s.pos -= len(head.group(0))
            s.error("unknown section %r" % label)
    if region is None:
        raise ParseError("missing region section", 1, 1)
    return StrategyTemplate.from_groups(g, unsafe, colive, groups, region)


def ref_parse_strategy(text, g):
    index = _edge_index(g)
    per_vertex = {}
    for lineno, raw in _content_lines(text):
        s = _Scanner(raw, lineno)
        s.skip_ws()
        col = s.pos + 1
        tok = s.take(r"[^\s:]+", "vertex").group(0)
        v = _resolve_vertex(g, tok, lineno, col)
        if g.owner_of(v) != PLAYER0:
            raise ParseError("vertex %r is not player-0" % tok, lineno, col)
        if v in per_vertex:
            raise ParseError("duplicate line for vertex %r" % tok, lineno, col)
        s.skip_ws()
        s.take(r":", "':'")
        ids = _parse_edge_list(g, index, s)
        if not ids:
            s.error("empty move list")
        for e in ids:
            u, w = g.edge_of(e)
            if u != v:
                raise ParseError("edge (%s,%s) does not start at %s"
                                 % (g.name_of(u), g.name_of(w), tok), lineno, col)
        per_vertex[v] = ids
    n = g.vertex_count
    off = np.zeros(n + 1, dtype=np.int64)
    order = []
    for v in range(n):
        order.extend(per_vertex.get(v, []))
        off[v + 1] = len(order)
    region = np.zeros(n, dtype=np.bool_)
    region[list(per_vertex)] = True
    order = np.array(order, dtype=np.int64)
    return Strategy(g, off, order, region)


# -- comparison ------------------------------------------------------------------


def _outcome(parse, *args):
    try:
        return "ok", parse(*args)
    except ParseError as exc:
        return "error", (str(exc), exc.line, exc.column)
    except (ValueError, OverflowError) as exc:
        return "other", (type(exc).__name__, str(exc))


def _same_strategy(a, b):
    return (a.graph is b.graph and np.array_equal(a._off, b._off)
            and np.array_equal(a._order, b._order)
            and np.array_equal(a.region_mask, b.region_mask))


def _same_template(a, b):
    """Equal templates with the same live-groups in the same order."""
    return (a == b and np.array_equal(a.group_off, b.group_off)
            and np.array_equal(a.group_ids, b.group_ids))


def agree(bulk, ref, *args, same=lambda a, b: a == b):
    got, want = _outcome(bulk, *args), _outcome(ref, *args)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert same(got[1], want[1])
    else:
        assert got[1] == want[1]
    return got


def _game(seed, n, named):
    g, objectives = generate(GeneratorConfig(
        objective_count=1 + seed % 3, max_priority=2 + seed % 4, seed=seed,
        vertex_count=n, edge_count=min(n * n, 3 * n)))
    if named:
        g = GameGraph(g.owners, g.succ_offsets(), g.edge_targets,
                      ["v%d" % v for v in g.vertices()])
    return g, objectives


def _texts(seed, n, named):
    """A game text and the template and strategy texts of its solution."""
    g, objectives = _game(seed, n, named)
    game = emit_game(g, objectives)
    g, objectives = parse_game(game)
    t = parity_template(g, objectives[0]).template
    s = extract_strategy(g, t) if t.region_mask.any() else None
    return g, game, template_text(t), s and strategy_text(s)


# -- reference: the per-vertex game renderer ---------------------------------


def emit_game_reference(g, objectives):
    objectives = list(objectives)
    if not objectives:
        raise ValueError("need at least one objective")
    for pf in objectives:
        if len(pf) != g.vertex_count:
            raise ValueError("priority function does not cover the vertex set")
    k = len(objectives)
    if k == 1:
        lines = ["parity %d;" % (g.vertex_count - 1)]
    else:
        lines = ["genparity %d %d;" % (g.vertex_count - 1, k)]
    for v in g.vertices():
        prios = ",".join(str(pf.of(v)) for pf in objectives)
        succs = ",".join(str(int(t)) for t in g.successors(v))
        name = ""
        if g.names is not None:
            label = g.names[v]
            if '"' in label or any(ord(c) > 127 for c in label):
                raise ValueError("vertex name %r not serializable" % label)
            name = ' "%s"' % label
        lines.append("%d %s %d %s%s;" % (v, prios, g.owner_of(v), succs, name))
    return "\n".join(lines) + "\n"


# -- input 1: generator output ---------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000), st.integers(1, 30), st.booleans())
def test_generator_texts_round_trip_under_both_parsers(seed, n, named):
    g, objectives = _game(seed, n, named)
    game = emit_game(g, objectives)
    assert game == emit_game_reference(g, objectives)
    _, (g2, objectives2) = agree(
        parse_game, ref_parse_game, game,
        same=lambda a, b: a[0] == b[0] and a[1] == b[1])
    assert emit_game(g2, objectives2) == game
    t = parity_template(g2, objectives2[0]).template
    text = template_text(t)
    _, back = agree(parse_template, ref_parse_template, text, g2, same=_same_template)
    assert back == t
    assert template_text(back) == text
    if t.region_mask.any():
        stext = strategy_text(extract_strategy(g2, t))
        _, s = agree(parse_strategy, ref_parse_strategy, stext, g2, same=_same_strategy)
        assert strategy_text(s) == stext


# -- input 2: mutated texts ---------------------------------------------------------

_ALPHABET = "0123456789 \t,;\"#\n\r\x0b\x0c:()-aegilnoprtuvy"


@st.composite
def _mutated(draw, text):
    """The text after one to three of the edits below, so that errors
    can also meet on one text."""
    for _ in range(draw(st.integers(1, 3))):
        text = draw(_edited(text))
    return text


@st.composite
def _edited(draw, text):
    lines = text.split("\n")
    kind = draw(st.sampled_from(["delete", "insert", "replace", "dup-line", "swap",
                                 "non-ascii", "crlf", "no-record", "dup-edge"]))
    i = draw(st.integers(0, max(len(text) - 1, 0)))
    j = draw(st.integers(0, len(lines) - 1))
    k = draw(st.integers(0, len(lines) - 1))
    ch = draw(st.sampled_from(_ALPHABET))
    if kind == "delete":
        return text[:i] + text[i + 1:]
    if kind == "insert":
        return text[:i] + ch + text[i:]
    if kind == "replace":
        return text[:i] + ch + text[i + 1:]
    if kind == "dup-line":
        return "\n".join(lines[:j + 1] + lines[j:])
    if kind == "swap":
        lines[j], lines[k] = lines[k], lines[j]
        return "\n".join(lines)
    if kind == "non-ascii":
        return text[:i] + draw(st.sampled_from("\xe9\u2013\u0663")) + text[i:]
    if kind == "crlf":
        return "\n".join(line + "\r" if x == j else line for x, line in enumerate(lines))
    # a successor that has no record, or a copy of the last successor: in a
    # game record the last list before ';', in template or strategy text
    # the last edge of a line
    found = [(x, list(re.finditer(r"(\d+)(;|\))", line))) for x, line in enumerate(lines)]
    found = [(x, m[-1]) for x, m in found if m]
    if not found:
        return text
    x, last = found[j % len(found)]
    line = lines[x]
    if last.group(2) == ";":
        extra = ",%d" % draw(st.integers(0, 40)) if kind == "no-record" else "," + last.group(1)
        lines[x] = line[:last.end() - 1] + extra + line[last.end() - 1:]
    elif kind == "no-record":
        lines[x] = line + " (%s,%d)" % (last.group(1), draw(st.integers(0, 12)))
    else:
        lines[x] = line + " " + line[line.rfind("("):last.end()]
    return "\n".join(lines)


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_mutated_game_texts_agree(data, seed, n, named):
    g, objectives = _game(seed, n, named)
    text = data.draw(_mutated(emit_game(g, objectives)))
    agree(parse_game, ref_parse_game, text,
          same=lambda a, b: a[0] == b[0] and a[1] == b[1])


@settings(deadline=None, max_examples=300)
@given(st.data(), st.integers(0, 10_000), st.integers(1, 8), st.booleans())
def test_mutated_template_and_strategy_texts_agree(data, seed, n, named):
    g, _, ttext, stext = _texts(seed, n, named)
    agree(parse_template, ref_parse_template, data.draw(_mutated(ttext)), g,
          same=_same_template)
    if stext is not None:
        agree(parse_strategy, ref_parse_strategy, data.draw(_mutated(stext)), g,
              same=_same_strategy)


def test_hand_picked_texts_agree():
    games = [
        "parity 2;\n0 0 0 1,2;\n1 1 1 0;\n2 0 1 2;\n",
        "parity 99999999999999999999;\n99999999999999999999 1 0 99999999999999999999;\n",
        "parity 3;\n0 0 01;\n1 1 1 0;\n",
        "genparity 12;\n",
        "parity 1;\n007 0 0 1;\n1 0 1 7;\n",
        "parity 1;\n1 0 1 0;\n0 0 0 1;\n0 0 0 0;\n",
        "parity 1\r\n0 0 0 0;\n",
        "parity 2;\n0 0 0 1 \"a b\";\n1 1 1 0,1,0;\n",
        "\x0c\nparity 0;\n \x0c # c\n0 0 0 0;",
        "parity 1;\n0 0,1 0 1;\n1 0 1 0;\n",
        "genparity 1 0;\n0 0 0 0;\n",
        "genparity 1 2\n",
        "parity 1;\n0 0 0 1 \"abc;\n",
        "parity 1;\n0 0 0 1;\n1 0 1 0;\n2 0 0 0;\n0 0 0 0;\n",
        "parity 2;\n1 0 1 5;\n0 0 0 1,1;\n2 0 0 0;\n",
        "parity 2;\n0 0 0 1,9;\n2 0 1 2,2;\n1 0 0 0;\n",
        "parity 1;\n0 99999999999999999999 0 1;\n1 0 1 0;\n",
        "parity 0;\n0 92233720368547758083 0 a;\n",
        "genparity 1 2;\n1 0,9223372036854775807 1 0;\n0 007,18446744073709551616 0 9;\n",
        # the normal form emit_game writes, or one fault away from it
        "parity 0;\n0 0 0 0;\n",
        "parity 1;\n",
        "parity 1;\n0 0 0 2;\n1 0 1 0;\n",
        "parity 1;\n0 0 0 1;\n1 0 2 0;\n",
        "parity 0;\n0 0 0 1;\n1 0 1 0;\n",
        "genparity 0 4294967296;\n0 0 0 0;\n",
        "genparity 1 2;\n0 1,2 0 1;\n1 0 1 0;\n",
        "parity 1;\n1 0 1 0;\n0 0 0 1;\n",
        "parity 2;\n0 0 0 2;\n2 0 1 0;\n",
        "parity 1;\n0 0 0 1;\n1 0 1 0;",
        "parity 1;\n0 0 0 0;\n1 0 1 0",
        "parity 1;\n0 0 0 1;\n1 0 1 0;\n\n",
        "parity 1;\n0 0 0 0,1,0;\n1 0 1 0;\n",
        "parity 1;\n0 0 0 1,;\n1 0 1 0;\n",
        "parity 1;\n0 0 0 ,1;\n1 0 1 0;\n",
        "parity 1;\n0 0 0 1;\n1 0 1 0,;\n",
        "parity 1;\n0 0 0 0,,1;\n1 0 1 0;\n",
        "parity 1;\n0 0 0 18446744073709551616;\n1 0 1 0;\n",
        "parity 1;\n0 0 0 1;\n1 0 1 0;\n0 0 0 0;\n",
        "genparity 1 2;\n0 3,9223372036854775807 0 1;\n1 0,0 1 0,1;\n",
        # an accepted record line that fails a check, then a rejected line
        "parity 1;\n0 0 0 1;\n0 0 0 1;\n1 0 1 0 junk;\n",
        "parity 1;\n0 0 0 1;\n5 0 0 0;\n1 x;\n",
        "genparity 1 2;\n0 0,0 0 1;\n1 0 1 0;\n1 0,0 1 x;\n",
    ]
    for text in games:
        agree(parse_game, ref_parse_game, text,
              same=lambda a, b: a[0] == b[0] and a[1] == b[1])
    g, _ = ref_parse_game("parity 2;\n0 0 0 1,2 \"x\";\n1 1 1 0;\n2 0 0 2;\n")
    for text in ["region: x 1\nunsafe: (x,1)\nregion: 2\n",
                 "region: x 9\nunsafe: (x,z) (",
                 "unsafe: (x,2)\nregion: x,1",
                 "region:\nlive-group:\nlive-group: (1,0) (x,2)\n",
                 "region: x\ncolive: (x,2) (2,x)\n", "region: x\nunsafe: (x,1\n",
                 "region: x \t\nunsafe: (x,1) \t\n", "region: z\nunsafe: (x,9)\n",
                 "unsafe: (x,9)\nregion: z\n",
                 # an unknown vertex in the region line, before and after
                 # a line with an unknown edge, then a rejected line
                 "region: x 7\nunsafe: (x,9)\ncolive: (\n",
                 "unsafe: (x,9)\nregion: x 7\ncolive: (\n",
                 # a second region line, then a rejected line
                 "region: x\nunsafe: (x,1)\nregion: 1\ncolive: (\n"]:
        agree(parse_template, ref_parse_template, text, g, same=_same_template)
    # the normal form template_text writes for a graph without names, or
    # one fault away from it
    g1, _ = ref_parse_game("parity 2;\n0 0 0 1,2;\n1 1 1 0;\n2 0 0 2;\n")
    for text in ["region: 0 2\nunsafe: (0,1)\ncolive: (2,2)\n"
                 "live-group: (0,2) (0,1)\nlive-group: (1,0)\n",
                 "region:\nunsafe:\ncolive:\n",
                 "region: 0 3\nunsafe:\ncolive:\n",
                 "region: 0\nunsafe: (0,3)\ncolive:\n",
                 "region: 0\nunsafe: (1,2)\ncolive:\n",
                 "region: 0\nunsafe: (12)\ncolive:\n",
                 "region: 0\nunsafe (0,1)\ncolive:\n",
                 "region: 0\nunsafe:\ncolive:\nlive-group (0,1)\n",
                 "region: 0\nunsafe:\ncolive:\nlive-group:\n",
                 "region: 0\nunsafe:\ncolive:",
                 "region: 0\nunsafe:\ncolive:\nlive-group: (0,1)",
                 "region: 0\nunsafe:\ncolive:\nregion: 1\n",
                 "region: 99999999999999999999\nunsafe:\ncolive:\n",
                 "region: 0\nunsafe: (0,99999999999999999999)\ncolive:\n",
                 "region: 0 0\nunsafe: (0,1) (0,1)\ncolive: (0,1)\nlive-group: (1,0)\n",
                 "region: 0\ncolive:\nunsafe:\n"]:
        agree(parse_template, ref_parse_template, text, g1, same=_same_template)
    for text in ["x: (x,1) (x,2)\n2: (2,2)\n", "x:\n", "x: (x,1)\nx: (x,2)\n",
                 "2: (x,1)\n", "1: (1,0)\n", "x: (x,1) junk\n", "x (x,1)\n",
                 # an accepted line that fails a check, then a rejected line
                 "x:\n2: junk\n", "x: (x,1) (2,2)\n2: (2,2) junk\n",
                 "x: (x,1)\n2: (2,2)\nx: (x,2)\n2: junk\n"]:
        agree(parse_strategy, ref_parse_strategy, text, g, same=_same_strategy)
