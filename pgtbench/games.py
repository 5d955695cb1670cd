"""The benchmark's own game families, game-file writer and output parsers.

Nothing here imports pgtemplates: inputs are made by these seeded
generators, so a change to the program cannot change them, and outputs
are read back with parsers that share no code with the program.

A game is held as plain lists: ``owner[v]`` in {0, 1}, ``succ[v]`` the
successor list, and ``prios`` one priority list per objective.  Families
with a winner known in closed form also return it (``w0``).
"""
from __future__ import annotations

import re

import numpy as np


class Game:
    __slots__ = ("owner", "succ", "prios", "w0", "pred", "edge_set")

    def __init__(self, owner, succ, prios, w0=None):
        self.owner = owner
        self.succ = succ
        self.prios = prios
        self.w0 = w0
        self.pred = None
        self.edge_set = None

    @property
    def n(self) -> int:
        return len(self.owner)

    def preds(self):
        if self.pred is None:
            pred = [[] for _ in range(self.n)]
            for u, ss in enumerate(self.succ):
                for v in ss:
                    pred[v].append(u)
            self.pred = pred
        return self.pred

    def edges(self) -> set:
        if self.edge_set is None:
            self.edge_set = {(u, v) for u, ss in enumerate(self.succ) for v in ss}
        return self.edge_set


def game_text(g: Game) -> str:
    """pgsolver-style text: 'parity' for one objective, else 'genparity'."""
    k = len(g.prios)
    head = ("parity %d;" % (g.n - 1) if k == 1
            else "genparity %d %d;" % (g.n - 1, k))
    cols = list(zip(*g.prios))
    lines = [head]
    for v in range(g.n):
        lines.append("%d %s %d %s;" % (v, ",".join(map(str, cols[v])),
                                      g.owner[v], ",".join(map(str, g.succ[v]))))
    return "\n".join(lines) + "\n"


def edge_list_arg(edges) -> str:
    return ",".join("(%d,%d)" % e for e in sorted(edges))


# -- families -----------------------------------------------------------


def random_game(rng: np.random.Generator, n: int, m: int, d: int,
                k: int = 1) -> Game:
    """n vertices, m distinct edges (every vertex has one), random owners
    and k priority functions drawn uniformly from 0..d-1."""
    base = np.arange(n, dtype=np.int64) * n + rng.integers(0, n, n)
    extra = np.unique(rng.integers(0, n * n, int((m - n) * 1.1) + 16))
    extra = np.setdiff1d(extra, base)
    extra = extra[rng.permutation(extra.size)][:m - n]
    keys = np.sort(np.concatenate([base, extra]))
    src, dst = (keys // n).tolist(), (keys % n).tolist()
    succ = [[] for _ in range(n)]
    for u, v in zip(src, dst):
        succ[u].append(v)
    owner = rng.integers(0, 2, n).tolist()
    prios = [rng.integers(0, d, n).tolist() for _ in range(k)]
    return Game(owner, succ, prios)


def _losing_spur(rng, succ, owner, prio, rail, length):
    """Append player-1 vertices s_0 -> s_1 -> ... -> s_{K-1} -> s_{K-1}
    (odd priority), each also with an edge back to a random rail vertex,
    and give every 8th rail vertex an edge into the spur.  Player 1 wins
    the spur by walking to its end, so the rail keeps its winner and the
    rail-to-spur edges are exactly the unsafe ones."""
    first = len(succ)
    for j in range(length):
        s = first + j
        nxt = s + 1 if j + 1 < length else s
        succ.append(sorted({nxt, rail[int(rng.integers(len(rail)))]}))
        owner.append(1)
        prio.append(1)
    for i in range(0, len(rail), 8):
        v = rail[i]
        succ[v].append(first + int(rng.integers(length)))
        succ[v].sort()


def chain_game(rng: np.random.Generator, length: int) -> Game:
    """Player-0 chain c_0 -> c_1 -> ... -> c_{L-1} -> c_0, every vertex
    with a self-loop, priority 2 on c_{L-1} and 1 elsewhere (Büchi on the
    last vertex), plus a losing spur.  Player 0 wins exactly the chain:
    walking forward visits c_{L-1} forever; the attractor to the goal has
    L layers, one vertex each."""
    succ = [[i, i + 1] for i in range(length - 1)] + [[0, length - 1]]
    owner = [0] * length
    prio = [1] * (length - 1) + [2]
    rail = list(range(length))
    _losing_spur(rng, succ, owner, prio, rail, max(length // 8, 2))
    return Game(owner, succ, [prio], w0=set(rail))


def ladder_game(rng: np.random.Generator, length: int) -> Game:
    """Two rails a_i (player 0, self-loop, edge to b_i) and b_i (player 1,
    edges to a_{i+1} and b_{i+1}); b_{L-1} has priority 2 and closes the
    ladder back to a_0 and b_0, every other vertex has priority 1, plus a
    losing spur.  Each move of player 0 off a_i raises the index, so
    player 0 wins the whole ladder; the attractor has about L layers."""
    succ, owner, prio = [], [], []
    for i in range(length):
        a, b = 2 * i, 2 * i + 1
        nxt = (2 * (i + 1), 2 * (i + 1) + 1) if i + 1 < length else (0, 1)
        succ.append([a, b])
        succ.append(sorted(nxt))
        owner += [0, 1]
        prio += [1, 2 if i == length - 1 else 1]
    rail = list(range(2 * length))
    _losing_spur(rng, succ, owner, prio, rail[0::2], max(length // 8, 2))
    return Game(owner, succ, [prio], w0=set(rail))


def chain_break(length: int, k: int) -> tuple[set, set]:
    """Fault set deleting the chain edge c_k -> c_{k+1}, and the winner
    after it: c_{k+1}..c_{L-1} still reach the even self-loop at c_{L-1};
    c_0..c_k can only end on an odd self-loop or in the spur."""
    return {(k, k + 1)}, set(range(k + 1, length))


def second_goal(g: Game, goal: int) -> Game:
    """A chain or ladder with a second Büchi objective on `goal`, a rail
    vertex every forward walk passes (c_{L/2}, or b_{L/2} of a ladder,
    which player 0 enters from a_{L/2} if player 1 does not).  Both
    objectives are won on the whole rail."""
    second = [1] * g.n
    second[goal] = 2
    g.prios.append(second)
    return g


# objective pairs (a, b) whose gadgets conflict when b is folded in, so
# the steps b+1 (1-based) of an incremental run need a relabel round
CONFLICT_PAIRS = ((0, 1), (1, 3), (2, 6), (4, 7), (5, 11), (8, 15))


def compose_game(rng: np.random.Generator, core: int, filler: int, k: int,
                 gadgets: int, traps: int) -> Game:
    """k parity objectives on one graph whose composition keeps a
    non-empty region, shrinks at every step and needs relabel-and-re-solve
    rounds at fixed steps.

    * core: a closed player-0 cycle with priority 0 in every objective;
      every objective is won there and a vertex with one edge cannot be
      in conflict, so the composed region always keeps it.
    * filler: player-0 vertices with two random filler edges and one edge
      into the core, random priorities 0..5, the same in every objective,
      so the objectives agree there and the sub-solves on it are real
      work.  Every filler vertex wins by entering the core.
    * per objective i, `traps` player-1 vertices with only a self-loop,
      priority 1 in objective i and 0 in the others, each entered from
      three filler vertices: objective i alone loses them, so each
      single-objective region differs and the composed one shrinks.
    * per pair (a, b) of CONFLICT_PAIRS with b < k, `gadgets` copies of a
      player-0 vertex x with two player-1 loops x->y1->x and x->y2->x.
      Objective a gives y1 priority 2 and y2 priority 3, objective b the
      reverse, every other objective 0.  Each objective alone wins at x
      and marks the edge to its odd loop co-live; together they leave x
      no edge, a conflict the relabel round resolves by giving x up,
      which is also right, since x loses the conjunction.

    Player 0 wins the conjunction of all k objectives exactly on the core
    and the filler (``w0``): every trap loses its objective, every gadget
    its pair.
    """
    n_fill = core + filler
    succ = [[(i + 1) % core] for i in range(core)]
    for v in range(core, n_fill):
        t = rng.integers(core, n_fill, 2).tolist() + [int(rng.integers(0, core))]
        succ.append(sorted(set(t)))
    owner = [0] * n_fill
    base = [0] * core + rng.integers(0, 6, filler).tolist()
    prios = [list(base) for _ in range(k)]
    for i in range(k):
        for _ in range(traps):
            t = len(succ)
            succ.append([t])
            owner.append(1)
            for j, p in enumerate(prios):
                p.append(1 if j == i else 0)
            for u in rng.integers(core, n_fill, 3).tolist():
                if t not in succ[u]:
                    succ[u].append(t)
    for a, b in CONFLICT_PAIRS:
        if b >= k:
            continue
        for _ in range(gadgets):
            x = len(succ)
            succ += [[x + 1, x + 2], [x], [x]]
            owner += [0, 1, 1]
            for i, p in enumerate(prios):
                p += [0, 2, 3] if i == a else [0, 3, 2] if i == b else [0, 0, 0]
    return Game(owner, succ, prios, w0=set(range(n_fill)))


# -- parsers for the program's outputs ----------------------------------

_EDGE = re.compile(r"\((\d+),(\d+)\)")


class Template:
    __slots__ = ("region", "unsafe", "colive", "groups")

    def __init__(self, region, unsafe, colive, groups):
        self.region = region
        self.unsafe = unsafe
        self.colive = colive
        self.groups = groups


def _edges(text: str) -> list:
    return [(int(a), int(b)) for a, b in _EDGE.findall(text)]


def parse_template(text: str) -> Template:
    region, unsafe, colive, groups = None, set(), set(), []
    for line in text.splitlines():
        if line.startswith("region:"):
            region = {int(t) for t in line[7:].split()}
        elif line.startswith("unsafe:"):
            unsafe = set(_edges(line))
        elif line.startswith("colive:"):
            colive = set(_edges(line))
        elif line.startswith("live-group:"):
            groups.append(set(_edges(line)))
    if region is None:
        raise ValueError("template text has no region line")
    return Template(region, unsafe, colive, groups)


def template_part(stdout: str) -> str:
    """The template text the CLI prints after its status lines."""
    at = stdout.find("region:")
    if at < 0:
        raise ValueError("no template in output")
    return stdout[at:]


def parse_strategy(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        head, _, rest = line.partition(":")
        v = int(head)
        if v in out:
            raise ValueError("two strategy lines for vertex %d" % v)
        out[v] = _edges(rest)
    return out


def vertex_line(stdout: str, prefix: str) -> set:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            rest = line[len(prefix):]
            return set() if rest.strip() == "(empty)" else {int(t) for t in rest.split()}
    raise ValueError("no line starting with %r" % prefix)


_STEP = re.compile(r"step (\d+): W0 = (.*) \(cumulative ")


def compose_steps(stdout: str) -> list:
    steps = []
    for m in _STEP.finditer(stdout):
        body = m.group(2).strip()
        steps.append(set() if body == "(empty)" else {int(t) for t in body.split()})
    return steps
