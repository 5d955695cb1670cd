"""Text formats: game files, template text, strategy text.

Game files follow the pgsolver layout, extended with an objective
count so one file can carry a conjunction of parity objectives:

    genparity <maxId> <k>;        (or: parity <maxId>;  meaning k=1)
    <id> <p1>,...,<pk> <owner> <t1>,<t2>,...[ "<name>"];

Owner 0 is the protagonist.  Lines whose first non-blank character is
'#' are comments.  Input must be ASCII.  Parsing normalizes: vertices
are renumbered densely in ascending id order and emit always writes
that normal form, so emit(parse(text)) is a fixpoint after one round.

Game and template texts in the normal form, as emit_game and
template_text write them (single spaces, no comments or blank lines,
game records with ids 0..n-1 in order and no names, templates of a
graph without names), are read in one pass over the whole text: one
fullmatch of all game records, or of each template section, and one
numpy conversion of all their numbers; where each game record starts
in that array comes from the byte positions of its commas and
newlines.  Any other text, and any text that fails a check (a line
outside the normal form, a number beyond 64 bits, a successor without a
record, a repeated edge, an unknown vertex or edge), goes to the
line-by-line parsers, which are the only source of ParseErrors.

The line-by-line parsers also work on whole texts and arrays: one
ASCII check, one precompiled fullmatch per line, one numpy conversion
for all numeric tokens and vectorized checks over the resulting arrays.
They only locate the first line that fails, in line order: one its
pattern rejects, or one that fails a check (a record's id or
priorities, an unknown vertex or edge, a strategy line's head or
moves).  That line goes to the format's walker, a cursor (_Scanner),
with the state of the lines before it: the ids seen, whether a region
line was seen, the strategy heads seen.  The walker is the only code
that builds a line's ParseError, with its 1-based line and column.
Errors of the whole text (a missing header, record or region, a
successor without a record, a repeated edge, a non-ASCII character)
are built by the readers.
"""
from __future__ import annotations

import re
from itertools import repeat
from operator import itemgetter
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

    def error(self, message: str):
        raise ParseError(message, self.lineno, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def take(self, pattern: str, what: str) -> re.Match:
        m = re.compile(pattern).match(self.text, self.pos)
        if m is None:
            self.error("expected %s" % what)
        self.pos = m.end()
        return m

    def expect_end(self) -> None:
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing text")


def _accepted(lineno: int) -> NoReturn:
    raise RuntimeError("line %d: the cursor accepts a line its pattern "
                       "rejects" % lineno)


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
    """The lines of text, one at a time, without a list of them all."""
    start = 0
    while (end := text.find("\n", start)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


def _line(text: str, lineno: int) -> str:
    return text.split("\n")[lineno - 1]


def _skipped(raw: str) -> bool:
    """Blank lines and comments."""
    stripped = raw.strip()
    return not stripped or stripped[0] == "#"


def _int_array(joined: str) -> np.ndarray:
    """Comma-separated decimal numbers, already validated, as one array:
    int64, or Python ints when a number might not fit."""
    vals = np.fromstring(joined, dtype=np.int64, sep=",")
    if vals.size and vals.max() == _INT64_MAX:  # numbers that do not fit saturate
        return np.array([int(t) for t in joined.split(",")], dtype=object)
    return vals


def _numbers(joined: str, sep: str) -> np.ndarray:
    """Validated decimal numbers between single separators as int64,
    none for the empty string."""
    if not joined:
        return np.zeros(0, dtype=np.int64)
    return np.fromstring(joined, dtype=np.int64, sep=sep)


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


# -- game files ------------------------------------------------------------

_HEADER = re.compile(r"[ \t]*(?:parity[ \t]*([0-9]+)"
                     r"|genparity[ \t]*([0-9]+)(?![0-9])[ \t]*([0-9]+))"
                     r"[ \t]*;[ \t]*")
# id, priorities, owner, successors, optional name; the lookaheads make
# each number and list as long as the cursor would take it
_RECORD = re.compile(r"[ \t]*([0-9]+)(?![0-9])[ \t]*([0-9]+(?:,[0-9]+)*)(?!,?[0-9])"
                     r"[ \t]*([01])[ \t]*([0-9]+(?:,[0-9]+)*)(?!,?[0-9])"
                     r"[ \t]*(?:\"([^\"]*)\"[ \t]*)?;[ \t]*")
_CANONICAL_HEADER = re.compile(r"(?:parity ([0-9]+)|genparity ([0-9]+) ([0-9]+));\n")
_RECORD_COMMAS = str.maketrans(" \n", ",,", ";")


def _header_error(raw: str, lineno: int) -> NoReturn:
    s = _Scanner(raw, lineno)
    s.skip_ws()
    kw = s.take(r"[A-Za-z]+", "header keyword 'parity' or 'genparity'")
    if kw.group(0) not in ("parity", "genparity"):
        s.pos -= len(kw.group(0))
        s.error("header keyword 'parity' or 'genparity'")
    s.skip_ws()
    s.take(r"\d+", "maximal vertex id")
    if kw.group(0) == "genparity":
        s.skip_ws()
        if int(s.take(r"\d+", "objective count").group(0)) < 1:
            s.error("objective count must be at least 1")
    s.skip_ws()
    s.take(r";", "';'")
    s.expect_end()
    _accepted(lineno)


def _parse_header(raw: str, lineno: int) -> tuple[int, int]:
    """(max_id, objective count) of the header line."""
    m = _HEADER.fullmatch(raw)
    if m is None or (m.group(3) is not None and int(m.group(3)) < 1):
        _header_error(raw, lineno)
    if m.group(1) is not None:
        return int(m.group(1)), 1
    return int(m.group(2)), int(m.group(3))


def _record_error(raw: str, lineno: int, max_id: int, k: int, seen) -> NoReturn:
    """Walk the first record line that fails, given the ids of the
    records before it, making the checks a line-by-line reading makes on
    the way."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    vid = int(s.take(r"\d+", "vertex id").group(0))
    if vid > max_id:
        s.pos -= len(str(vid))
        s.error("vertex id %d exceeds declared maximum %d" % (vid, max_id))
    if vid in seen:
        s.pos -= len(str(vid))
        s.error("duplicate record for vertex %d" % vid)
    s.skip_ws()
    pcol = s.pos + 1
    prios = s.take(r"\d+(?:,\d+)*", "priority list").group(0)
    got = prios.count(",") + 1
    if got != k:
        raise ParseError("expected %d comma-separated priorities, got %d" % (k, got),
                         lineno, pcol)
    for token in prios.split(","):
        if int(token) > _INT64_MAX:
            raise ParseError("priority %d does not fit in 64 bits" % int(token), lineno, pcol)
        pcol += len(token) + 1
    s.skip_ws()
    s.take(r"[01]", "owner (0 or 1)")
    s.skip_ws()
    s.take(r"\d+(?:,\d+)*", "successor list")
    s.skip_ws()
    if s.pos < len(s.text) and s.text[s.pos] == '"':
        s.take(r'"[^"]*"', "closing quote")
        s.skip_ws()
    s.take(r";", "';'")
    s.expect_end()
    _accepted(lineno)


def _first_bad_record(vids, prio_f, prios, max_id: int, k: int) -> int:
    """Index of the first record, in line order, that fails a per-record
    check (id within the declared maximum, no second record for an id, k
    priorities, each of which fits in 64 bits); the record count when
    none does."""
    dup = np.ones(len(vids), dtype=np.bool_)
    dup[np.unique(vids, return_index=True)[1]] = False
    nprio = _counts(prio_f)
    big = np.zeros(len(vids), dtype=np.bool_)
    if prios.dtype == object:
        big[np.repeat(np.arange(len(vids)), nprio)[prios > _INT64_MAX]] = True
    bad = np.flatnonzero((vids > max_id) | dup | (nprio != k) | big)
    return int(bad[0]) if bad.size else len(vids)


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
    pass over the whole text: single spaces, no comments, blank lines or
    names, ids 0..n-1 in order.  None for any other text, and for a text
    with an error, which the per-line path reports."""
    head = _CANONICAL_HEADER.match(text)
    if head is None:
        return None
    max_id, k = int(head.group(1) or head.group(2)), int(head.group(3) or 1)
    start = head.end()
    # every line after the header is a record; [0-9,]+ is the faster
    # pattern for the successors, and the finds rule out a successor
    # list that starts, ends or doubles a comma
    if (not 1 <= k <= len(text)
            or not re.compile(r"(?:[0-9]+ [0-9]+(?:,[0-9]+){%d} [01] [0-9,]+;\n)+"
                              % (k - 1)).fullmatch(text, start)
            or ",," in text or " ," in text or ",;" in text):
        return None
    # the numbers of all records: id, k priorities, owner, successors
    nums = np.fromstring(text[start:-1].translate(_RECORD_COMMAS), dtype=np.int64, sep=",")
    if nums.max() == _INT64_MAX:  # a number too long for 64 bits saturates
        return None
    chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # numbers per record: its commas and three spaces, plus one
    commas = np.searchsorted(np.flatnonzero(chars == ord(",")),
                             np.flatnonzero(chars == ord("\n"))[1:])
    size = np.diff(commas, prepend=0) + 4
    first = _offsets(size)[:-1]
    n = len(first)
    if n - 1 > max_id or not np.array_equal(nums[first], np.arange(n)):
        return None
    fields = first[:, None] + np.arange(k + 2)  # id, priorities, owner
    succ = np.ones(len(nums), dtype=np.bool_)
    succ[fields] = False
    return _game_of_records(nums[first], nums[fields[:, 1:-1]].ravel(),
                            nums[fields[:, -1]].astype(np.int8), size - k - 2,
                            nums[succ], None)[0]


def parse_game(text: str) -> tuple[GameGraph, list[PriorityFunction]]:
    """Parse a parity/genparity file into a graph and its objectives."""
    parsed = _canonical_game(text)
    return parsed if parsed is not None else _parse_game_lines(text)


def _parse_game_lines(text: str) -> tuple[GameGraph, list[PriorityFunction]]:
    """parse_game line by line: any text, and the only source of its
    ParseErrors."""
    body, bad_char = _ascii_prefix(text)
    lines = body.split("\n")
    # id, priorities, owner, successors and name of every record line
    fields = [m.groups() if m else None for m in map(_RECORD.fullmatch, lines)]
    is_record = np.fromiter(map(bool, fields), dtype=np.bool_, count=len(lines))
    first_record = int(np.argmax(is_record)) if is_record.any() else len(lines)
    header = None  # (max_id, k)
    rejected = None
    for i in np.flatnonzero(~is_record).tolist():
        if _skipped(lines[i]):
            continue
        if header is None and i < first_record:
            header = _parse_header(lines[i], i + 1)
            continue
        rejected = i + 1
        break
    if header is None and first_record < len(lines):
        _header_error(lines[first_record], first_record + 1)

    stop = len(lines) if rejected is None else rejected - 1
    linenos = (np.flatnonzero(is_record[:stop]) + 1).tolist()
    vids = np.zeros(0, dtype=np.int64)
    bad = 0
    if linenos:
        vid_f, prio_f, owner_f, succ_f, name_f = zip(*filter(None, fields[:stop]))
        del fields
        vids = _int_array(",".join(vid_f))
        prios = _int_array(",".join(prio_f))
        bad = _first_bad_record(vids, prio_f, prios, *header)
    if bad < len(linenos) or rejected is not None:
        lineno = linenos[bad] if bad < len(linenos) else rejected
        _record_error(lines[lineno - 1], lineno, *header, set(vids[:bad].tolist()))
    if bad_char is not None:
        raise bad_char
    if header is None:
        raise ParseError("missing header", 1, 1)
    if not linenos:
        raise ParseError("no vertex records", 1, 1)

    owners = (np.frombuffer("".join(owner_f).encode("ascii"), dtype=np.uint8)
              - ord("0")).astype(np.int8)
    parsed, error = _game_of_records(vids, prios, owners, _counts(succ_f),
                                     _int_array(",".join(succ_f)), name_f)
    if error is not None:
        r, message = error
        lineno = linenos[r]
        raise ParseError(message, lineno, _RECORD.fullmatch(lines[lineno - 1]).start(4) + 1)
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
        for label in g.names:
            if '"' in label or not label.isascii():
                raise ValueError("vertex name %r not serializable" % label)
        names = [' "%s"' % label for label in g.names]
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


_EDGE_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")
# one edge with the blanks before it: (item, u, v)
_EDGE_ITEM = re.compile(r"([ \t]*%s)" % _EDGE_RE.pattern)


def _edge_list(raw: str, start: int) -> tuple[list[str], list[str]] | None:
    """The u and v tokens of the edge list raw[start:], or None when its
    edge items do not tile it, blanks at the end aside."""
    items = _EDGE_ITEM.findall(raw, start)
    if sum(map(len, map(itemgetter(0), items))) != len(raw.rstrip(" \t")) - start:
        return None
    return list(map(itemgetter(1), items)), list(map(itemgetter(2), items))


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


def _name_list(g: GameGraph) -> list[str]:
    return g.names if g.names is not None else list(map(str, range(g.vertex_count)))


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

_SECTION = re.compile(r"[ \t]*([a-z-]+):")
_REGION_BODY = re.compile(r"(?:[ \t]|[^\s()])*")
_VERTEX_TOKEN = re.compile(r"[^\s()]+")
_EDGE_SECTIONS = ("unsafe", "colive", "live-group")
_CANONICAL_REGION = re.compile(r"(?: [0-9]+)*")
_CANONICAL_EDGES = re.compile(r"(?: \([0-9]+,[0-9]+\))*")
_EDGE_DIGITS = str.maketrans(" ", ",", "()")


def template_text(t: StrategyTemplate) -> str:
    """Render a template: region vertices, unsafe and co-live edge lists,
    one live-group line per group."""
    g = t.graph
    names = _name_list(g)

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


def _template_line_error(g: GameGraph, raw: str, lineno: int, has_region: bool) -> NoReturn:
    """Walk the first template line that fails, given whether a region
    line came before it: a region line or a section line."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    head = s.take(r"[a-z-]+:", "section label")
    label = head.group(0)[:-1]
    if label == "region":
        if has_region:
            s.error("duplicate region section")
        found, cols = _walk_items(s, _VERTEX_TOKEN)
        _, bad, why = resolve_vertices(g, [m.group(0) for m in found])
        if bad >= 0:
            raise ParseError(why, lineno, cols[bad])
        if s.pos != len(s.text):
            s.error("expected vertex")
        _accepted(lineno)
    if label in _EDGE_SECTIONS:
        _walk_edge_list(g, s)
        _accepted(lineno)
    s.pos -= len(head.group(0))
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
    """parse_template of a text in the form template_text writes for a
    graph without names, in one pass over the whole text: the region,
    unsafe and colive lines, then the live-group lines, single spaces,
    no comments or blank lines.  None for any other text, and for a
    text with an error, which the per-line path reports."""
    lines = text.split("\n")
    if (g.names is not None or len(lines) < 4 or lines[-1]
            or not lines[0].startswith("region:") or not lines[1].startswith("unsafe:")
            or not lines[2].startswith("colive:")):
        return None
    bodies = [lines[1][7:], lines[2][7:]]
    for line in lines[3:-1]:
        if not line.startswith("live-group:"):
            return None
        bodies.append(line[11:])
    if not (_CANONICAL_REGION.fullmatch(lines[0], 7)
            and all(map(_CANONICAL_EDGES.fullmatch, bodies))):
        return None
    # " 3 5" reads "3 5" and " (u,v) (u,v)" reads "u,v,u,v"; numbers too
    # long for 64 bits saturate, so they fail the bound below
    region_ids = _numbers(lines[0][8:], " ")
    ends = _numbers("".join(bodies).translate(_EDGE_DIGITS)[1:], ",")
    if (region_ids >= g.vertex_count).any():
        return None
    eids = g.edge_ids(ends[0::2], ends[1::2])
    if (eids < 0).any():
        return None
    labels = ["unsafe", "colive"] + ["live-group"] * (len(bodies) - 2)
    return _template_of(g, region_ids, eids, labels, [b.count("(") for b in bodies])


def parse_template(text: str, g: GameGraph) -> StrategyTemplate:
    parsed = _canonical_template(text, g)
    return parsed if parsed is not None else _parse_template_lines(text, g)


def _parse_template_lines(text: str, g: GameGraph) -> StrategyTemplate:
    """parse_template line by line: any text, and the only source of its
    ParseErrors."""
    body, bad_char = _ascii_prefix(text)
    region = None  # (lineno, tokens)
    sections = []  # (lineno, label, index of its first edge)
    us: list[str] = []
    vs: list[str] = []
    rejected = None
    for lineno, raw in enumerate(_lines(body), 1):
        if _skipped(raw):
            continue
        m = _SECTION.match(raw)
        label = m.group(1) if m else None
        if label == "region" and region is None and _REGION_BODY.fullmatch(raw, m.end()):
            region = (lineno, raw[m.end():].split())
            continue
        found = _edge_list(raw, m.end()) if label in _EDGE_SECTIONS else None
        if found is None:
            rejected = lineno
            break
        sections.append((lineno, label, len(us)))
        us.extend(found[0])
        vs.extend(found[1])

    # the first line that fails, in line order: one holding a token that
    # does not resolve, or the rejected line
    failing = [] if rejected is None else [rejected]
    if region is not None:
        region_ids, bad, _ = resolve_vertices(g, region[1])
        if bad >= 0:
            failing.append(region[0])
    eids, bad, _ = resolve_edges(g, us, vs)
    firsts = [sec[2] for sec in sections]
    if bad >= 0:
        failing.append(sections[int(np.searchsorted(firsts, bad, side="right")) - 1][0])
    if failing:
        lineno = min(failing)
        _template_line_error(g, _line(text, lineno), lineno,
                             region is not None and region[0] < lineno)
    if bad_char is not None:
        raise bad_char
    if region is None:
        raise ParseError("missing region section", 1, 1)

    return _template_of(g, region_ids, eids, [sec[1] for sec in sections],
                        np.diff(firsts + [len(us)]))


# -- strategy text -------------------------------------------------------------

_STRATEGY_LINE = re.compile(r"[ \t]*([^\s:]+)[ \t]*:")


def strategy_text(s: Strategy) -> str:
    """One line per vertex with moves, edges in rotation order."""
    g = s.graph
    names = _name_list(g)
    tokens = _edge_tokens(g, s._order, names)
    off = s._off.tolist()
    return "\n".join("%s: %s" % (names[v], " ".join(tokens[off[v]:off[v + 1]]))
                     for v in s.domain_vertices().tolist()) + "\n"


def _strategy_line_error(g: GameGraph, raw: str, lineno: int, seen) -> NoReturn:
    """Walk the first strategy line that fails, given the vertices of
    the lines before it, making the checks a line-by-line reading makes
    on the way."""
    s = _Scanner(raw, lineno)
    s.skip_ws()
    col = s.pos + 1
    tok = s.take(r"[^\s:]+", "vertex").group(0)
    ids, bad, why = resolve_vertices(g, [tok])
    if bad >= 0:
        raise ParseError(why, lineno, col)
    v = int(ids[0])
    if g.owner_of(v) != PLAYER0:
        raise ParseError("vertex %r is not player-0" % tok, lineno, col)
    if v in seen:
        raise ParseError("duplicate line for vertex %r" % tok, lineno, col)
    s.skip_ws()
    s.take(r":", "':'")
    eids = _walk_edge_list(g, s)
    if not eids.size:
        s.error("empty move list")
    foreign = eids[g.edge_sources()[eids] != v]
    if foreign.size:
        u, w = g.edge_of(int(foreign[0]))
        raise ParseError("edge (%s,%s) does not start at %s"
                         % (g.name_of(u), g.name_of(w), tok), lineno, col)
    _accepted(lineno)


def parse_strategy(text: str, g: GameGraph) -> Strategy:
    body, bad_char = _ascii_prefix(text)
    rows = []  # (lineno, index of its first edge)
    heads: list[str] = []
    us: list[str] = []
    vs: list[str] = []
    rejected = None
    for lineno, raw in enumerate(_lines(body), 1):
        if _skipped(raw):
            continue
        m = _STRATEGY_LINE.match(raw)
        found = _edge_list(raw, m.end()) if m else None
        if found is None:
            rejected = lineno
            break
        rows.append((lineno, len(us)))
        heads.append(m.group(1))
        us.extend(found[0])
        vs.extend(found[1])

    vids = _vertex_ids(g, heads)
    eids, _, _ = resolve_edges(g, us, vs)
    counts = np.diff([r[1] for r in rows] + [len(us)]).astype(np.int64)
    row_of = np.repeat(np.arange(len(rows)), counts)
    dup = np.ones(len(vids), dtype=np.bool_)
    dup[np.unique(vids, return_index=True)[1]] = False
    bad_row = (vids < 0) | dup | (counts == 0)
    bad_row[vids >= 0] |= g.owners[vids[vids >= 0]] != PLAYER0
    src = g.edge_sources()
    bad_row[row_of[(eids < 0) | (src[eids] != vids[row_of])]] = True
    # the first line that fails: a row that fails a check, or the
    # rejected line after all rows
    r = int(np.argmax(bad_row)) if bad_row.any() else len(rows)
    if r < len(rows) or rejected is not None:
        lineno = rows[r][0] if r < len(rows) else rejected
        _strategy_line_error(g, _line(text, lineno), lineno, set(vids[:r].tolist()))
    if bad_char is not None:
        raise bad_char

    n = g.vertex_count
    per_vertex = np.zeros(n, dtype=np.int64)
    per_vertex[vids] = counts
    by_vertex = np.argsort(vids, kind="stable")
    order = eids[_regroup(counts, by_vertex)]
    region = np.zeros(n, dtype=np.bool_)
    region[vids] = True
    return Strategy(g, _offsets(per_vertex), order,
                    np.zeros(len(order), dtype=np.bool_), region)
