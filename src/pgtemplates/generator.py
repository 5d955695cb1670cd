"""Seeded random game generation.

Graphs are total by construction: every vertex draws one mandatory
successor (self-loops allowed), then distinct extra edges are added
until the requested count is reached.  For each objective, half of the
vertices get stratified priorities: the half is split evenly over
0..max_priority, floor-sized strata, with the remainder going to the
highest priority.  The other half draws uniformly from [0; max_priority].
All randomness comes from one numpy generator, so a fixed seed gives a
byte-identical file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import GameGraph, PriorityFunction, _offsets


@dataclass(frozen=True)
class GeneratorConfig:
    objective_count: int
    max_priority: int
    seed: int
    vertex_count: int
    edge_count: int

    def __post_init__(self):
        if self.objective_count < 1:
            raise ValueError("objective count must be at least 1")
        if self.max_priority < 1:
            raise ValueError("max priority must be at least 1")
        n, m = self.vertex_count, self.edge_count
        if n < 1:
            raise ValueError("need at least one vertex")
        if m < n:
            raise ValueError("totality needs at least one edge per vertex")
        if m > n * n:
            raise ValueError("at most %d distinct edges exist" % (n * n,))


def _random_graph(rng: np.random.Generator, n: int, m: int) -> GameGraph:
    owners = rng.integers(0, 2, n, dtype=np.int8)
    forced = rng.integers(0, n, n, dtype=np.int64)
    codes = set((np.arange(n, dtype=np.int64) * n + forced).tolist())
    while len(codes) < m:
        batch = rng.integers(0, n * n, 2 * (m - len(codes)), dtype=np.int64)
        for c in batch.tolist():
            codes.add(c)
            if len(codes) == m:
                break
    arr = np.fromiter(codes, dtype=np.int64, count=m)
    arr.sort()
    src, dst = arr // n, arr % n
    return GameGraph(owners, _offsets(np.bincount(src, minlength=n)), dst)


def _random_priorities(rng: np.random.Generator, n: int, m: int) -> PriorityFunction:
    vals = rng.integers(0, m + 1, n, dtype=np.int64)
    half = n // 2
    selected = rng.choice(n, half, replace=False)
    per = half // (m + 1)
    strata = np.repeat(np.arange(m + 1, dtype=np.int64), per)
    vals[selected[:len(strata)]] = strata
    vals[selected[len(strata):]] = m
    return PriorityFunction(vals, m)


def generate(config: GeneratorConfig) -> tuple[GameGraph, list[PriorityFunction]]:
    """Draw a game from the config; pure in the config (seed included)."""
    rng = np.random.default_rng(config.seed)
    g = _random_graph(rng, config.vertex_count, config.edge_count)
    objectives = [
        _random_priorities(rng, config.vertex_count, config.max_priority)
        for _ in range(config.objective_count)
    ]
    return g, objectives
