"""Text formats: game files, template text, strategy text.

Game files follow the pgsolver layout, extended with an objective
count so one file can carry a conjunction of parity objectives:

    genparity <maxId> <k>;        (or: parity <maxId>;  meaning k=1)
    <id> <p1>,...,<pk> <owner> <t1>,<t2>,...[ "<name>"];

Owner 0 is the protagonist.  Lines whose first non-blank character is
'#' are comments.  Input must be ASCII.  Parsing normalizes: vertices
are renumbered densely in ascending id order and emit always writes
that normal form, so emit(parse(text)) is a fixpoint after one round.

Each format has two readers.  Text in the form the program writes it
(emit_game, template_text, strategy_text: single spaces, no comments
or blank lines, game records with ids 0..n-1 in order and a name on
every record or on none) is read in one pass over the whole text: one
fullmatch, then one numpy conversion of all numbers, or for a graph
with names one resolver call for all vertex tokens; where each game
record or strategy line starts among them comes from the byte
positions of its commas, parentheses and newlines.  A vertex label
the writers accept (_LABEL) is the token these passes accept.

Any other text, and any text that fails a check of the pass, is read
by the format's line walker: a cursor (_Scanner) that reads one line
at a time with the state of the lines before it (the ids seen, whether
a region line was seen, the strategy heads seen).  The walker is the
only code that builds a line's ParseError, with its 1-based line and
column; it resolves all tokens of a line in one resolver call and
reports the first that fails before a later syntax error on that line.
Errors of the whole text (a missing header, record or region, a
successor without a record, a repeated edge, a non-ASCII character)
are built by the walker's loop after the last line.
"""
from __future__ import annotations

import re
from itertools import repeat
from typing import NoReturn, Sequence

import numpy as np

from .graph import GameGraph, PLAYER0, PriorityFunction
from .strategy import Strategy
from .template import StrategyTemplate, _group_csr


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__("line %d, column %d: %s" % (line, column, message))


class _Scanner:
    """Cursor over one line; failures report the cursor column."""

    def __init__(self, text: str, lineno: int):
        self.text = text
        self.lineno = lineno
        self.pos = 0

    def error(self, message: str) -> NoReturn:
        raise ParseError(message, self.lineno, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def take(self, pattern: re.Pattern, what: str) -> re.Match:
        m = pattern.match(self.text, self.pos)
        if m is None:
            self.error("expected %s" % what)
        self.pos = m.end()
        return m

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing text")


# what the walkers take
_KEYWORD = re.compile(r"[A-Za-z]+")
_NUMBER = re.compile(r"\d+")
_NUMBER_LIST = re.compile(r"\d+(?:,\d+)*")
_OWNER = re.compile(r"[01]")
_QUOTED = re.compile(r'"([^"]*)"')
_SEMICOLON = re.compile(";")
_SECTION_LABEL = re.compile(r"[a-z-]+:")
_VERTEX_TOKEN = re.compile(r"[^\s()]+")
_HEAD = re.compile(r"[^\s:]+")
_COLON = re.compile(":")
_EDGE_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")

# a vertex label that every text format reads back to its vertex:
# printable ASCII but for the quote, parentheses, comma and colon, and
# no '#' first, which would open a comment on a strategy line
_LABEL = re.compile(r"(?!#)[!#-'*+\--9;-~]+")


# -- lines and numbers ----------------------------------------------------

_NON_ASCII = re.compile(r"[^\x00-\x7f]")
_INT64_MAX = np.iinfo(np.int64).max
_SHORT_NUMBERS = re.compile(r"[0-9]{1,18}(?:,[0-9]{1,18})*")


def _ascii_prefix(text: str) -> tuple[str, ParseError | None]:
    """The text before the first line holding a non-ASCII character, and
    the error for that character (None when the whole text is ASCII)."""
    if text.isascii():
        return text, None
    i = _NON_ASCII.search(text).start()
    start = text.rfind("\n", 0, i) + 1
    return text[:start], ParseError("non-ASCII character",
                                    text.count("\n", 0, i) + 1, i - start + 1)


def _lines(text: str):
    """The numbered lines of text other than blank lines and comments."""
    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if stripped and stripped[0] != "#":
            yield lineno, raw


def _int_array(joined: str) -> np.ndarray:
    """Comma-separated decimal numbers, already validated, as one array:
    int64, or Python ints when a number might not fit."""
    vals = np.fromstring(joined, dtype=np.int64, sep=",")
    if vals.size and vals.max() == _INT64_MAX:  # numbers that do not fit saturate
        return np.array([int(t) for t in joined.split(",")], dtype=object)
    return vals


def _counts(fields: Sequence[str]) -> np.ndarray:
    """Number of comma-separated items in each field."""
    return np.fromiter(map(str.count, fields, repeat(",")), dtype=np.int64,
                       count=len(fields)) + 1


def _offsets(counts: np.ndarray) -> np.ndarray:
    off = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def _regroup(counts: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Index array that lays the consecutive segments of the given
    lengths out again in the given segment order."""
    starts = _offsets(counts)[:-1]
    lens = counts[order]
    new_starts = _offsets(lens)[:-1]
    return (np.repeat(starts[order] - new_starts, lens)
            + np.arange(int(lens.sum()), dtype=np.int64))


def _line_starts(text: str, mark: str) -> np.ndarray:
    """For each newline of a text, the number of mark characters before
    it."""
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.searchsorted(np.flatnonzero(chars == ord(mark)),
                           np.flatnonzero(chars == ord("\n")))


# -- vertex labels -------------------------------------------------------------


def _labels(g: GameGraph) -> list[str]:
    """The tokens the writers use for the vertices of g: its labels, or
    decimal ids for a graph without names.  A label that is no _LABEL,
    or that two vertices share, raises ValueError: the readers would not
    resolve it back to its vertex."""
    names = g.names
    if names is None:
        return list(map(str, range(g.vertex_count)))
    seen = set()
    for label in names:
        if not _LABEL.fullmatch(label) or label in seen:
            raise ValueError("vertex name %r not serializable" % label)
        seen.add(label)
    return names


def _pass_token(g: GameGraph) -> str:
    """The vertex token of the whole-text passes: a decimal id for a
    graph without names, a label otherwise."""
    return "[0-9]+" if g.names is None else _LABEL.pattern


def _token_ids(g: GameGraph, joined: str) -> np.ndarray:
    """Vertex ids of the comma-separated tokens of a whole-text pass, -1
    where a token names no vertex: one numpy conversion for a graph
    without names (a number too long for 64 bits saturates, and names
    no vertex either), one resolver call otherwise."""
    if not joined:
        return np.zeros(0, dtype=np.int64)
    if g.names is not None:
        return _vertex_ids(g, joined.split(","))
    ids = np.fromstring(joined, dtype=np.int64, sep=",")
    return np.where(ids < g.vertex_count, ids, -1)


# -- game files ------------------------------------------------------------

_CANONICAL_HEADER = re.compile(r"(?:parity ([0-9]+)|genparity ([0-9]+) ([0-9]+));\n")
_RECORD_COMMAS = str.maketrans(" \n", ",,", ";")


def _walk_header(raw: str, lineno: int) -> tuple[int, int]:
    """(max_id, objective count) of a header line."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    kw = s.take(_KEYWORD, "header keyword 'parity' or 'genparity'").group(0)
    if kw not in ("parity", "genparity"):
        s.pos -= len(kw)
        s.error("header keyword 'parity' or 'genparity'")
    s.skip_ws()
    max_id = int(s.take(_NUMBER, "maximal vertex id").group(0))
    k = 1
    if kw == "genparity":
        s.skip_ws()
        k = int(s.take(_NUMBER, "objective count").group(0))
        if k < 1:
            s.error("objective count must be at least 1")
    s.skip_ws()
    s.take(_SEMICOLON, "';'")
    s.expect_end()
    return max_id, k


def _walk_record(raw: str, lineno: int, max_id: int, k: int, seen) -> tuple[int, tuple]:
    """The id of a record line, and its priorities, owner, successors,
    name (None without one) and the line and column of its successors;
    seen holds the ids of the records before it."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    vid = int(s.take(_NUMBER, "vertex id").group(0))
    if vid > max_id:
        s.pos -= len(str(vid))
        s.error("vertex id %d exceeds declared maximum %d" % (vid, max_id))
    if vid in seen:
        s.pos -= len(str(vid))
        s.error("duplicate record for vertex %d" % vid)
    s.skip_ws()
    pcol = s.pos + 1
    prios = s.take(_NUMBER_LIST, "priority list").group(0)
    got = prios.count(",") + 1
    if got != k:
        raise ParseError("expected %d comma-separated priorities, got %d" % (k, got),
                         lineno, pcol)
    for token in prios.split(","):
        if int(token) > _INT64_MAX:
            raise ParseError("priority %d does not fit in 64 bits" % int(token), lineno, pcol)
        pcol += len(token) + 1
    s.skip_ws()
    owner = s.take(_OWNER, "owner (0 or 1)").group(0)
    s.skip_ws()
    scol = s.pos + 1
    succs = s.take(_NUMBER_LIST, "successor list").group(0)
    s.skip_ws()
    name = None
    if s.pos < len(s.text) and s.text[s.pos] == '"':
        name = s.take(_QUOTED, "closing quote").group(1)
        s.skip_ws()
    s.take(_SEMICOLON, "';'")
    s.expect_end()
    return vid, (prios, owner, succs, name, (lineno, scol))


def _game_of_records(vids, prios, owners, deg, targets, name_f):
    """The graph and objectives of records that passed the per-record
    checks, given as arrays in record order (ids, priorities, owners,
    successor counts, all successors) and names: ((graph, objectives),
    None).  When a successor has no record or repeats an edge,
    (None, (record, message)) for the first such successor in ascending
    id order instead."""
    n = len(vids)
    if np.array_equal(vids, np.arange(n)):  # dense ids in order: nothing to renumber
        order = np.arange(n)
        missing = targets >= n
        dst = (targets if targets.dtype == np.int64
               else np.where(missing, 0, targets).astype(np.int64))
    else:  # dense ids in ascending id order; successors laid out in that order
        order = np.argsort(vids, kind="stable")
        ids = vids[order]
        targets = targets[_regroup(deg, order)]
        deg = deg[order]
        dst = np.minimum(np.searchsorted(ids, targets), n - 1).astype(np.int64)
        missing = ids[dst] != targets
    off = _offsets(deg)
    keys = np.repeat(np.arange(n, dtype=np.int64), deg) * n + dst
    bad = np.flatnonzero(missing)
    keys[bad] = -1 - bad
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():  # where they are, only if there are any
        by_key = np.argsort(keys, kind="stable")
        bad = np.concatenate([bad, by_key[1:][keys[by_key[1:]] == keys[by_key[:-1]]]])
    if bad.size:
        pos = int(bad.min())
        u = int(np.searchsorted(off, pos, side="right")) - 1
        if missing[pos]:
            return None, (int(order[u]), "successor %d has no record" % targets[pos])
        return None, (int(order[u]), "duplicate edge (%d, %d)" % (u, dst[pos]))

    owners = owners[order]
    names = None
    if name_f is not None and name_f.count(None) < n:
        names = [name_f[r] if name_f[r] is not None else str(vids[r])
                 for r in order.tolist()]
    g = GameGraph(owners, off, dst, names)
    prios = prios.reshape(n, -1)[order]
    return (g, [PriorityFunction(prios[:, i]) for i in range(prios.shape[1])]), None


def _canonical_game(text: str):
    """parse_game of a text in the normal form emit_game writes, in one
    pass over the whole text: single spaces, no comments or blank lines,
    ids 0..n-1 in order, a name on every record or on none.  None for
    any other text, and for a text with an error, which the walker
    reports."""
    head = _CANONICAL_HEADER.match(text)
    if head is None:
        return None
    max_id, k = int(head.group(1) or head.group(2)), int(head.group(3) or 1)
    start = head.end()
    name = ' "%s"' % _LABEL.pattern if '"' in text else ""
    # every line after the header is a record; [0-9,]+ is the faster
    # pattern for the successors
    if (not 1 <= k <= len(text)
            or not re.compile(r"(?:[0-9]+ [0-9]+(?:,[0-9]+){%d} [01] [0-9,]+%s;\n)+"
                              % (k - 1, name)).fullmatch(text, start)):
        return None
    names = None
    if name:  # a label holds no quote: every other part is a name
        parts = text.split('"')
        names, text = parts[1::2], "".join(parts[0::2]).replace(" ;", ";")
    # the finds rule out a successor list that starts, ends or doubles a comma
    if ",," in text or " ," in text or ",;" in text:
        return None
    # the numbers of all records: id, k priorities, owner, successors
    nums = np.fromstring(text[start:-1].translate(_RECORD_COMMAS), dtype=np.int64, sep=",")
    if nums.max() == _INT64_MAX:  # a number too long for 64 bits saturates
        return None
    # numbers per record: its commas and three spaces, plus one
    size = np.diff(_line_starts(text, ",")[1:], prepend=0) + 4
    first = _offsets(size)[:-1]
    n = len(first)
    if n - 1 > max_id or not np.array_equal(nums[first], np.arange(n)):
        return None
    fields = first[:, None] + np.arange(k + 2)  # id, priorities, owner
    succ = np.ones(len(nums), dtype=np.bool_)
    succ[fields] = False
    return _game_of_records(nums[first], nums[fields[:, 1:-1]].ravel(),
                            nums[fields[:, -1]].astype(np.int8), size - k - 2,
                            nums[succ], names)[0]


def parse_game(text: str) -> tuple[GameGraph, list[PriorityFunction]]:
    """Parse a parity/genparity file into a graph and its objectives."""
    parsed = _canonical_game(text)
    return parsed if parsed is not None else _parse_game_lines(text)


def _parse_game_lines(text: str) -> tuple[GameGraph, list[PriorityFunction]]:
    """parse_game by the line walker: any text, and the only source of
    its ParseErrors."""
    body, bad_char = _ascii_prefix(text)
    header = None  # (max_id, k)
    records = {}  # id -> what _walk_record returns for it
    for lineno, raw in _lines(body):
        if header is None:
            header = _walk_header(raw, lineno)
        else:
            vid, record = _walk_record(raw, lineno, *header, records)
            records[vid] = record
    if bad_char is not None:
        raise bad_char
    if header is None:
        raise ParseError("missing header", 1, 1)
    if not records:
        raise ParseError("no vertex records", 1, 1)

    prio_f, owner_f, succ_f, name_f, where = zip(*records.values())
    vids = np.array(list(records), dtype=np.int64 if max(records) <= _INT64_MAX else object)
    owners = (np.frombuffer("".join(owner_f).encode("ascii"), dtype=np.uint8)
              - ord("0")).astype(np.int8)
    parsed, error = _game_of_records(vids, _int_array(",".join(prio_f)), owners,
                                     _counts(succ_f), _int_array(",".join(succ_f)), name_f)
    if error is not None:
        r, message = error
        raise ParseError(message, *where[r])
    return parsed


def emit_game(g: GameGraph, objectives) -> str:
    """Serialize a graph with its objectives in the normal form."""
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
        names = [' "%s"' % label for label in _labels(g)]
    lines = [header]
    lines.extend("%d %s %d %s%s;" % row for row in
                 zip(range(n), prios, g.owners.tolist(), succs, names))
    return "\n".join(lines) + "\n"


# -- vertex and edge tokens ------------------------------------------------


def _vertex_ids(g: GameGraph, tokens: Sequence[str]) -> np.ndarray:
    """Vertex ids of tokens, -1 where a token names no vertex.  A token
    is a vertex label first, else a decimal id below the vertex count."""
    n = g.vertex_count
    index = g.name_index()
    if index:
        get = index.get
        ids = np.array([get(t, -1) for t in tokens], dtype=np.int64)
        miss = np.flatnonzero(ids < 0)
        rest = [tokens[i] for i in miss.tolist()]
    else:
        ids = np.full(len(tokens), -1, dtype=np.int64)
        miss = slice(None)
        rest = list(tokens)
    if rest:
        joined = ",".join(rest)
        if joined.count(",") == len(rest) - 1 and _SHORT_NUMBERS.fullmatch(joined):
            vals = np.fromstring(joined, dtype=np.int64, sep=",")
            ids[miss] = np.where(vals < n, vals, -1)
        else:
            ids[miss] = [int(t) if t.isascii() and t.isdigit() and int(t) < n else -1
                         for t in rest]
    return ids


def resolve_vertices(g: GameGraph, tokens: Sequence[str]) -> tuple[np.ndarray, int, str]:
    """Vertex ids of tokens, the index of the first token that names no
    vertex (-1 when all do) and the message for it."""
    ids = _vertex_ids(g, tokens)
    bad = np.flatnonzero(ids < 0)
    if not bad.size:
        return ids, -1, ""
    i = int(bad[0])
    return ids, i, "unknown vertex %r" % tokens[i]


def resolve_edges(g: GameGraph, us: Sequence[str], vs: Sequence[str]
                  ) -> tuple[np.ndarray, int, str]:
    """Edge ids of the token pairs (us[i], vs[i]), the index of the first
    pair that is no edge (-1 when all are) and the message for it."""
    u_ids = _vertex_ids(g, us)
    v_ids = _vertex_ids(g, vs)
    eids = g.edge_ids(u_ids, v_ids)
    bad = np.flatnonzero(eids < 0)
    if not bad.size:
        return eids, -1, ""
    i = int(bad[0])
    if u_ids[i] < 0:
        return eids, i, "unknown vertex %r" % us[i]
    if v_ids[i] < 0:
        return eids, i, "unknown vertex %r" % vs[i]
    return eids, i, "no such edge (%s,%s)" % (us[i], vs[i])


def _walk_items(s: _Scanner, item: re.Pattern) -> tuple[list[re.Match], list[int]]:
    """The items from the cursor on, each after optional blanks, with
    their columns; the cursor stops after the blanks where no item
    follows (the end of the line, or where the line goes wrong)."""
    found, cols = [], []
    while True:
        s.skip_ws()
        m = item.match(s.text, s.pos)
        if m is None:
            return found, cols
        found.append(m)
        cols.append(s.pos + 1)
        s.pos = m.end()


def _walk_edge_list(g: GameGraph, s: _Scanner) -> np.ndarray:
    """Walk an edge list to the end of the line: the ids of its edges.
    All its edges are resolved at once, and the first one that does not
    resolve is reported before a later syntax error."""
    found, cols = _walk_items(s, _EDGE_RE)
    eids, bad, why = resolve_edges(g, [m.group(1) for m in found],
                                   [m.group(2) for m in found])
    if bad >= 0:
        raise ParseError(why, s.lineno, cols[bad])
    if s.pos != len(s.text):
        s.error("edge of the form (u,v)")
    return eids


def _edge_tokens(g: GameGraph, ids: np.ndarray, names: list[str]) -> list[str]:
    src = g.edge_sources()[ids].tolist()
    dst = g.edge_targets[ids].tolist()
    return ["(" + names[u] + "," + names[v] + ")" for u, v in zip(src, dst)]


def _sorted_edges(g: GameGraph, ids: np.ndarray, group=None) -> np.ndarray:
    """Edge ids ordered by source and target, within each group when
    ascending group numbers are given."""
    order = np.argsort(g.edge_sources()[ids] * g.vertex_count + g.edge_targets[ids],
                       kind="stable")
    if group is not None:
        order = order[np.argsort(group[order], kind="stable")]
    return ids[order]


# -- template text -----------------------------------------------------------

_EDGE_SECTIONS = ("unsafe", "colive", "live-group")
_EDGE_TOKENS = str.maketrans(" ", ",", "()")


def template_text(t: StrategyTemplate) -> str:
    """Render a template: region vertices, unsafe and co-live edge lists,
    one live-group line per group."""
    g = t.graph
    names = _labels(g)

    def edge_list(mask) -> str:
        ids = _sorted_edges(g, np.flatnonzero(mask))
        return " ".join(_edge_tokens(g, ids, names))

    lines = ["region:" + "".join(" " + names[v]
                                 for v in np.flatnonzero(t.region_mask).tolist())]
    lines.append(("unsafe: " + edge_list(t.unsafe_mask)).rstrip())
    lines.append(("colive: " + edge_list(t.colive_mask)).rstrip())
    tokens = _edge_tokens(g, _sorted_edges(g, t.group_ids, t.group_of_ids()), names)
    # a group's first edge opens its line
    opens = np.zeros(len(tokens), dtype=np.bool_)
    opens[t.group_off[:-1]] = True
    groups = "".join(("\nlive-group: " if first else " ") + tok
                     for first, tok in zip(opens.tolist(), tokens))
    return "\n".join(lines) + groups + "\n"


def _walk_template_line(g: GameGraph, raw: str, lineno: int,
                        has_region: bool) -> tuple[str, np.ndarray]:
    """The section label of a template line and its ids: vertex ids on a
    region line, edge ids otherwise; has_region tells whether a region
    line came before it."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    head = s.take(_SECTION_LABEL, "section label").group(0)
    label = head[:-1]
    if label == "region":
        if has_region:
            s.error("duplicate region section")
        found, cols = _walk_items(s, _VERTEX_TOKEN)
        ids, bad, why = resolve_vertices(g, [m.group(0) for m in found])
        if bad >= 0:
            raise ParseError(why, lineno, cols[bad])
        if s.pos != len(s.text):
            s.error("expected vertex")
        return label, ids
    if label in _EDGE_SECTIONS:
        return label, _walk_edge_list(g, s)
    s.pos -= len(head)
    s.error("unknown section %r" % label)


def _template_of(g: GameGraph, region_ids: np.ndarray, eids: np.ndarray,
                 labels: list[str], sizes) -> StrategyTemplate:
    """The template of resolved region and edge ids, the edges in
    sections of the given labels and sizes; a live-group line is one
    group."""
    section = np.repeat(np.arange(len(labels)), sizes)
    labels = np.array(labels, dtype=str)
    unsafe = np.zeros(g.edge_count, dtype=np.bool_)
    unsafe[eids[(labels == "unsafe")[section]]] = True
    colive = np.zeros(g.edge_count, dtype=np.bool_)
    colive[eids[(labels == "colive")[section]]] = True
    in_group = (labels == "live-group")[section]
    region_mask = np.zeros(g.vertex_count, dtype=np.bool_)
    region_mask[region_ids] = True
    return StrategyTemplate(g, unsafe, colive,
                            *_group_csr(g, section[in_group], eids[in_group]),
                            region_mask)


def _canonical_template(text: str, g: GameGraph) -> StrategyTemplate | None:
    """parse_template of a text in the form template_text writes, in one
    pass over the whole text: the region, unsafe and colive lines, then
    the live-group lines, single spaces, no comments or blank lines.
    None for any other text, and for a text with an error, which the
    walker reports."""
    lines = text.split("\n")
    if (len(lines) < 4 or lines[-1]
            or not lines[0].startswith("region:") or not lines[1].startswith("unsafe:")
            or not lines[2].startswith("colive:")):
        return None
    bodies = [lines[1][7:], lines[2][7:]]
    for line in lines[3:-1]:
        if not line.startswith("live-group:"):
            return None
        bodies.append(line[11:])
    tok = _pass_token(g)
    edges = re.compile(r"(?: \(%s,%s\))*" % (tok, tok))
    if not (re.compile("(?: %s)*" % tok).fullmatch(lines[0], 7)
            and all(map(edges.fullmatch, bodies))):
        return None
    # " a b" reads "a,b" and " (u,v) (u,v)" reads "u,v,u,v"
    region_ids = _token_ids(g, lines[0][8:].replace(" ", ","))
    ends = _token_ids(g, "".join(bodies).translate(_EDGE_TOKENS)[1:])
    eids = g.edge_ids(ends[0::2], ends[1::2])
    if (region_ids < 0).any() or (eids < 0).any():
        return None
    labels = ["unsafe", "colive"] + ["live-group"] * (len(bodies) - 2)
    return _template_of(g, region_ids, eids, labels, [b.count("(") for b in bodies])


def parse_template(text: str, g: GameGraph) -> StrategyTemplate:
    parsed = _canonical_template(text, g)
    return parsed if parsed is not None else _parse_template_lines(text, g)


def _parse_template_lines(text: str, g: GameGraph) -> StrategyTemplate:
    """parse_template by the line walker: any text, and the only source
    of its ParseErrors."""
    body, bad_char = _ascii_prefix(text)
    region_ids = None
    labels = []
    sections = []  # the edge ids of each section line
    for lineno, raw in _lines(body):
        label, ids = _walk_template_line(g, raw, lineno, region_ids is not None)
        if label == "region":
            region_ids = ids
        else:
            labels.append(label)
            sections.append(ids)
    if bad_char is not None:
        raise bad_char
    if region_ids is None:
        raise ParseError("missing region section", 1, 1)
    eids = np.concatenate([np.zeros(0, dtype=np.int64), *sections])
    return _template_of(g, region_ids, eids, labels, list(map(len, sections)))


# -- strategy text -------------------------------------------------------------

_STRATEGY_TOKENS = str.maketrans(" \n", ",,", ":()")


def strategy_text(s: Strategy) -> str:
    """One line per vertex with moves, edges in rotation order."""
    g = s.graph
    names = _labels(g)
    tokens = _edge_tokens(g, s._order, names)
    off = s._off.tolist()
    return "\n".join("%s: %s" % (names[v], " ".join(tokens[off[v]:off[v + 1]]))
                     for v in s.domain_vertices().tolist()) + "\n"


def _walk_strategy_line(g: GameGraph, raw: str, lineno: int,
                        seen) -> tuple[int, np.ndarray]:
    """The vertex of a strategy line and the edge ids of its moves; seen
    holds the vertices of the lines before it."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    col = s.pos + 1
    tok = s.take(_HEAD, "vertex").group(0)
    ids, bad, why = resolve_vertices(g, [tok])
    if bad >= 0:
        raise ParseError(why, lineno, col)
    v = int(ids[0])
    if g.owner_of(v) != PLAYER0:
        raise ParseError("vertex %r is not player-0" % tok, lineno, col)
    if v in seen:
        raise ParseError("duplicate line for vertex %r" % tok, lineno, col)
    s.skip_ws()
    s.take(_COLON, "':'")
    eids = _walk_edge_list(g, s)
    if not eids.size:
        s.error("empty move list")
    foreign = eids[g.edge_sources()[eids] != v]
    if foreign.size:
        u, w = g.edge_of(int(foreign[0]))
        raise ParseError("edge (%s,%s) does not start at %s"
                         % (g.name_of(u), g.name_of(w), tok), lineno, col)
    return v, eids


def _strategy_of(g: GameGraph, vids: np.ndarray, counts: np.ndarray,
                 eids: np.ndarray) -> Strategy:
    """The strategy of lines for distinct player-0 vertices, given their
    numbers of moves and all move edge ids in line order."""
    n = g.vertex_count
    per_vertex = np.zeros(n, dtype=np.int64)
    per_vertex[vids] = counts
    order = eids[_regroup(counts, np.argsort(vids, kind="stable"))]
    region = np.zeros(n, dtype=np.bool_)
    region[vids] = True
    return Strategy(g, _offsets(per_vertex), order,
                    np.zeros(len(order), dtype=np.bool_), region)


def _canonical_strategy(text: str, g: GameGraph) -> Strategy | None:
    """parse_strategy of a text in the form strategy_text writes, in one
    pass over the whole text: a line "v: (v,w) ..." for each vertex with
    moves, single spaces, no comments or blank lines.  None for any
    other text, and for a text with an error, which the walker
    reports."""
    tok = _pass_token(g)
    if not re.compile(r"(?:%s:(?: \(%s,%s\))+\n)+" % (tok, tok, tok)).fullmatch(text):
        return None
    # "v: (v,w) (v,x)" reads "v,v,w,v,x": the head, then two per move
    moves = np.diff(_line_starts(text, "("), prepend=0)
    ids = _token_ids(g, text[:-1].translate(_STRATEGY_TOKENS))
    first = _offsets(2 * moves + 1)[:-1]
    heads = ids[first]
    is_end = np.ones(len(ids), dtype=np.bool_)
    is_end[first] = False
    ends = ids[is_end]
    us, vs = ends[0::2], ends[1::2]
    eids = g.edge_ids(us, vs)
    if ((heads < 0).any() or (eids < 0).any() or (g.owners[heads] != PLAYER0).any()
            or not np.array_equal(us, np.repeat(heads, moves))
            or len(np.unique(heads)) < len(heads)):
        return None
    return _strategy_of(g, heads, moves, eids)


def parse_strategy(text: str, g: GameGraph) -> Strategy:
    parsed = _canonical_strategy(text, g)
    return parsed if parsed is not None else _parse_strategy_lines(text, g)


def _parse_strategy_lines(text: str, g: GameGraph) -> Strategy:
    """parse_strategy by the line walker: any text, and the only source
    of its ParseErrors."""
    body, bad_char = _ascii_prefix(text)
    rows = {}  # vertex -> the edge ids of its line, in line order
    for lineno, raw in _lines(body):
        v, eids = _walk_strategy_line(g, raw, lineno, rows)
        rows[v] = eids
    if bad_char is not None:
        raise bad_char
    return _strategy_of(g, np.array(list(rows), dtype=np.int64),
                        np.array(list(map(len, rows.values())), dtype=np.int64),
                        np.concatenate([np.zeros(0, dtype=np.int64), *rows.values()]))
