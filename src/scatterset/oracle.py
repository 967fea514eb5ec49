"""Brute-force reference solvers and seeded random-instance generation.

The generators use Python's ``random.Random`` (Mersenne Twister, stable
across platforms and Python versions for the methods used here), so cited
seeds reproduce identical graphs everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .gadgets import _check_size
from .graph_core import VertexSet, WeightedGraph, distances_within

import random

_MAX_BRUTE_N = 26
_MAX_COUNT_N = 20


@dataclass(frozen=True)
class RandomSpec:
    """Reproducible Erdos-Renyi-style instance description."""

    n: int
    edge_probability: Fraction
    max_weight: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be positive")
        if not (0 <= self.edge_probability <= 1):
            raise ValueError("edge probability must lie in [0, 1]")
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")


def gen_random_graph(spec: RandomSpec) -> WeightedGraph:
    """Deterministic random graph: each pair independently with probability p.

    Pair (u, v) order is u < v, lexicographic.  Presence is decided by an
    exact integer draw against the rational probability; weights are uniform
    in [1, max_weight].  Before the first draw, n is checked against the
    generator limits as if p were 1, every pair an edge.
    """
    _check_size(spec.n, spec.n * (spec.n - 1) // 2)
    rng = random.Random(spec.seed)
    p = Fraction(spec.edge_probability)
    edges: list[tuple[int, int, int]] = []
    for u in range(spec.n):
        for v in range(u + 1, spec.n):
            if rng.randrange(p.denominator) < p.numerator:
                edges.append((u, v, rng.randint(1, spec.max_weight)))
    return WeightedGraph(n=spec.n, edges=tuple(edges))


def _conflict_masks(g: WeightedGraph, d: int) -> list[int]:
    """Per vertex, the mask of the other vertices closer than d (radius-d searches)."""
    masks = []
    for u in range(g.n):
        near = distances_within(g, u, range(g.n), d)
        masks.append(sum(1 << v for v in near if v != u))
    return masks


def brute_force_max(g: WeightedGraph, d: int) -> tuple[int, VertexSet]:
    """Exact maximum d-scattered set by pruned subset search (n <= 26)."""
    if g.n > _MAX_BRUTE_N:
        raise ValueError(f"brute force limited to n <= {_MAX_BRUTE_N}, got {g.n}")
    if d < 2:
        raise ValueError("d must be >= 2")
    conflicts = _conflict_masks(g, d)
    best_size = 0
    best_mask = 0

    def search(start: int, chosen: int, size: int, avail: int) -> None:
        nonlocal best_size, best_mask
        if size + bin(avail >> start).count("1") <= best_size:
            return
        for v in range(start, g.n):
            if avail & (1 << v):
                if size + 1 > best_size:
                    best_size = size + 1
                    best_mask = chosen | (1 << v)
                search(v + 1, chosen | (1 << v), size + 1, avail & ~conflicts[v])

    search(0, 0, 0, (1 << g.n) - 1)
    witness = tuple(v for v in range(g.n) if best_mask & (1 << v))
    return best_size, witness


def brute_force_count(g: WeightedGraph, d: int, k: int) -> list[int]:
    """Exact number of d-scattered sets of each size 0..k (n <= 20)."""
    if g.n > _MAX_COUNT_N:
        raise ValueError(f"brute-force counting limited to n <= {_MAX_COUNT_N}")
    if d < 2:
        raise ValueError("d must be >= 2")
    if k < 0:
        raise ValueError("k must be >= 0")
    conflicts = _conflict_masks(g, d)
    counts = [0] * (k + 1)
    counts[0] = 1

    def search(start: int, size: int, avail: int) -> None:
        if size == k:
            return
        for v in range(start, g.n):
            if avail & (1 << v):
                counts[size + 1] += 1
                search(v + 1, size + 1, avail & ~conflicts[v])

    search(0, 0, (1 << g.n) - 1)
    return counts
