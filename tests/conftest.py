"""Shared builders for the running example games and small randomized
game helpers used across the suite."""
from pathlib import Path

import numpy as np
import pytest

from pgtemplates import (GeneratorConfig, PriorityFunction, Strategy,
                         extract_strategy, generate, solvers)
from pgtemplates.graph import GameGraph, GraphBuilder
from pgtemplates.template import _edge_mask

DATA = Path(__file__).parent / "data"


def six_game():
    """Six vertices a..f; player 0 owns a and d."""
    b = GraphBuilder()
    owners = {"a": 0, "b": 1, "c": 1, "d": 0, "e": 1, "f": 1}
    ids = {}
    for name in "abcdef":
        ids[name] = b.add_vertex(owners[name], name)
    for u, targets in [("a", "abcd"), ("b", "ad"), ("c", "ad"),
                       ("d", "abe"), ("e", "bf"), ("f", "b")]:
        for v in targets:
            b.add_edge(ids[u], ids[v])
    return b.build()


def six_sink_game():
    """The same graph with f's edge turned into a self-loop, so that
    entering f is an irrevocable loss and safety is parity-expressible."""
    b = GraphBuilder()
    owners = {"a": 0, "b": 1, "c": 1, "d": 0, "e": 1, "f": 1}
    ids = {}
    for name in "abcdef":
        ids[name] = b.add_vertex(owners[name], name)
    for u, targets in [("a", "abcd"), ("b", "ad"), ("c", "ad"),
                       ("d", "abe"), ("e", "bf"), ("f", "f")]:
        for v in targets:
            b.add_edge(ids[u], ids[v])
    return b.build()


def eight_game():
    """Eight-vertex parity game; returns (graph, priorities)."""
    b = GraphBuilder()
    owners = {"a": 0, "b": 0, "c": 1, "d": 0, "e": 1, "f": 0, "g": 0, "h": 0}
    prios = {"a": 1, "b": 4, "c": 5, "d": 6, "e": 2, "f": 2, "g": 1, "h": 3}
    ids = {}
    for name in "abcdefgh":
        ids[name] = b.add_vertex(owners[name], name)
    for u, targets in [("a", ["a", "b"]), ("b", ["a", "c"]), ("c", ["b"]),
                       ("d", ["c"]), ("e", ["d", "f"]), ("f", ["f"]),
                       ("g", ["g", "f"]), ("h", ["h", "d", "e"])]:
        for v in targets:
            b.add_edge(ids[u], ids[v])
    g = b.build()
    return g, PriorityFunction([prios[g.name_of(v)] for v in g.vertices()])


def edge(g, u, v):
    return (g.id_of(u), g.id_of(v))


def edges(g, *pairs):
    return [edge(g, u, v) for u, v in pairs]


def vset(g, names):
    return {g.id_of(c) for c in names}


def names_of(g, vertices):
    if isinstance(vertices, np.ndarray) and vertices.dtype == np.bool_:
        vertices = np.flatnonzero(vertices)
    return sorted(g.name_of(int(v)) for v in vertices)


def group_edge_sets(template):
    """Live groups as a list of frozensets of (u, v) pairs, order-free."""
    # plain sorted() would compare frozensets by inclusion, which is a
    # no-op for disjoint groups, so sort by the sorted edge list
    return sorted(template.live_groups, key=sorted)


def buchi_pf(g, goal):
    """Parity encoding of: visit `goal` infinitely often."""
    goal = set(goal)
    return PriorityFunction(
        [2 if v in goal else 1 for v in g.vertices()], 2)


def cobuchi_pf(g, stay):
    """Parity encoding of: eventually remain inside `stay`."""
    stay = set(stay)
    return PriorityFunction(
        [0 if v in stay else 1 for v in g.vertices()], 1)


def pf_by_name(g, default, maxp=None, **named):
    vals = [named.get(g.name_of(v), default) for v in g.vertices()]
    return PriorityFunction(vals, maxp)


def rand_game(seed, max_n, max_priority, k=1, min_n=2, density=4):
    """One seeded random game: n in [min_n, max_n], m up to density*n."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_n, max_n + 1))
    m = int(min(n * n, rng.integers(n, density * n + 1)))
    cfg = GeneratorConfig(objective_count=k, max_priority=max_priority,
                          seed=int(rng.integers(2 ** 31)),
                          vertex_count=n, edge_count=m)
    g, objectives = generate(cfg)
    return (g, objectives[0]) if k == 1 else (g, objectives)


def compose_shaped_game(seed, filler=24, k=3):
    """k objectives that agree on a shared filler and disagree on small
    gadgets, so that composing them takes relabel-and-re-solve rounds.
    Returns (graph, priority functions).

    A player-0 cycle 0 -> 1 -> 2 -> 0 has priority 0.  Each filler
    vertex is player 0's, with two random filler edges and one into the
    cycle, and a random priority 0..5 shared by every objective.  Each
    objective has one player-1 self-loop trap, priority 1 there and 0
    elsewhere, entered from two filler vertices.  A player-0 vertex x
    with loops x -> y1 -> x and x -> y2 -> x takes priorities 2, 3 on
    y1, y2 in objective 0 and 3, 2 in objective 1: each objective alone
    wins at x, together they leave it no edge.
    """
    rng = np.random.default_rng(seed)
    n_fill = 3 + filler
    succ = [[1], [2], [0]]
    for _ in range(filler):
        succ.append(sorted(set(rng.integers(3, n_fill, 2).tolist()
                               + [int(rng.integers(0, 3))])))
    owners = [0] * n_fill
    base = [0, 0, 0] + rng.integers(0, 6, filler).tolist()
    prios = [list(base) for _ in range(k)]
    for i in range(k):
        t = len(succ)
        succ.append([t])
        owners.append(1)
        for j, p in enumerate(prios):
            p.append(1 if j == i else 0)
        for u in rng.integers(3, n_fill, 2).tolist():
            if t not in succ[u]:
                succ[u].append(t)
    x = len(succ)
    succ += [[x + 1, x + 2], [x], [x]]
    owners += [0, 1, 1]
    for i, p in enumerate(prios):
        p += [0, 2, 3] if i == 0 else [0, 3, 2] if i == 1 else [0, 0, 0]
    return (GameGraph.from_lists(owners, succ),
            [PriorityFunction(p) for p in prios])


def counted_steps(monkeypatch):
    """Counts the parity solver's recursion steps as they are created;
    returns a one-element list holding the count."""
    steps = [0]
    step = solvers._parity_solve

    def counted(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(solvers, "_parity_solve", counted)
    return steps


def counted_kernels(monkeypatch):
    """Counts the real runs of attr_mask and reach_template that the
    solvers make; returns the counts by name."""
    runs = dict.fromkeys(("attr_mask", "reach_template"), 0)
    for name in runs:
        def counted(*args, kernel=getattr(solvers, name), name=name, **kwargs):
            runs[name] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(solvers, name, counted)
    return runs


def sample_compliant_strategy(g, t, rng):
    """A random rotation strategy that still follows the template: per
    vertex a nonempty subset of the allowed edges, keeping at least one
    edge of every live-group that has an allowed edge there."""
    base = extract_strategy(g, t)
    off = t.group_off.tolist()
    group_ids = [set(t.group_ids[a:b].tolist()) for a, b in zip(off[:-1], off[1:])]
    kept_ids = []
    counts = np.zeros(g.vertex_count, dtype=np.int64)
    for v in base.domain_vertices():
        ids = [int(e) for e in base.allowed_ids(v)]
        keep = {e for e in ids if rng.random() < 0.6}
        for members in group_ids:
            here = [e for e in ids if e in members]
            if here and not keep.intersection(here):
                keep.add(here[int(rng.integers(len(here)))])
        if not keep:
            keep.add(ids[int(rng.integers(len(ids)))])
        chosen = sorted(keep)
        kept_ids.extend(chosen)
        counts[v] = len(chosen)
    off = np.zeros(g.vertex_count + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    order = np.array(kept_ids, dtype=np.int64)
    return Strategy(g, off, order, t.region_mask.copy())


def periodic_buchi_check(g, online, goal, trace):
    """Model-check the online strategy against a periodic availability
    trace: explore the (vertex, cursor, phase) product and require that
    no reachable cycle avoids `goal`.  `trace` is a sequence of edge
    lists, one per phase."""
    goal = set(goal)
    period = len(trace)
    avail = [sorted(_edge_mask(g, step).nonzero()[0]) for step in trace]
    avail = [[g.edge_of(int(e)) for e in step] for step in avail]

    start_states = [(v, online.cursor_state(), 0) for v in g.vertices()]
    succs = {}
    stack = list(start_states)
    while stack:
        state = stack.pop()
        if state in succs:
            continue
        v, cursors, phase = state
        nxt = []
        if g.owner_of(v) == 0:
            online.set_cursor_state(cursors)
            e = online.move(v, avail[phase])
            nxt.append((e[1], online.cursor_state(), (phase + 1) % period))
        else:
            for t_ in g.successors(v):
                nxt.append((int(t_), cursors, (phase + 1) % period))
        succs[state] = nxt
        stack.extend(nxt)

    # cycle search restricted to states away from the goal
    color = {}
    for root in succs:
        if root in color or root[0] in goal:
            continue
        path = [(root, iter(succs[root]))]
        color[root] = 1
        while path:
            state, it = path[-1]
            advanced = False
            for child in it:
                if child[0] in goal:
                    continue
                if color.get(child) == 1:
                    return False
                if child not in color:
                    color[child] = 1
                    path.append((child, iter(succs[child])))
                    advanced = True
                    break
            if not advanced:
                color[state] = 2
                path.pop()
    return True


@pytest.fixture
def g6():
    return six_game()


@pytest.fixture
def g6_sink():
    return six_sink_game()


@pytest.fixture
def g8():
    return eight_game()
