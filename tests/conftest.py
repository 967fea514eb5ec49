"""Shared graph builders, seeded corpora, and acceptance-line reporting."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from scatterset.graph_core import INF, WeightedGraph, dijkstra_from
from scatterset.oracle import RandomSpec, gen_random_graph


def path_graph(n: int, weight: int = 1) -> WeightedGraph:
    return WeightedGraph(
        n=n, edges=tuple((i, i + 1, weight) for i in range(n - 1))
    )


def cycle_graph(n: int, weight: int = 1) -> WeightedGraph:
    edges = [(i, i + 1, weight) for i in range(n - 1)] + [(0, n - 1, weight)]
    return WeightedGraph(n=n, edges=tuple(edges))


def star_graph(leaves: int, weight: int = 1) -> WeightedGraph:
    return WeightedGraph(
        n=leaves + 1, edges=tuple((0, i, weight) for i in range(1, leaves + 1))
    )


def complete_graph(n: int, weight: int = 1) -> WeightedGraph:
    edges = tuple(
        (u, v, weight) for u in range(n) for v in range(u + 1, n)
    )
    return WeightedGraph(n=n, edges=edges)


def diameter(g: WeightedGraph) -> int:
    """Largest finite pairwise distance; INF if g is disconnected with n >= 2."""
    if g.n == 1:
        return 0
    best = 0
    for s in range(g.n):
        worst = max(dijkstra_from(g, s))
        if worst >= INF:
            return INF
        best = max(best, worst)
    return best


def max_finite_distance(g: WeightedGraph) -> int:
    """Largest distance among connected pairs (0 for edgeless graphs)."""
    return max((x for s in range(g.n) for x in dijkstra_from(g, s) if x < INF), default=0)


def floyd_warshall(g: WeightedGraph) -> list[list[int]]:
    """All-pairs distances by Floyd-Warshall over the raw edge list, INF between components.

    A distance reference of its own: it runs no `graph_core` search, so a
    bug in the search frontier cannot hide behind it.
    """
    dist = [[INF] * g.n for _ in range(g.n)]
    for v in range(g.n):
        dist[v][v] = 0
    for u, v, w in g.edges:
        dist[u][v] = dist[v][u] = min(dist[u][v], w)
    for k, via in enumerate(dist):
        for row in dist:
            to_k = row[k]
            if to_k == INF:
                continue
            for j, rest in enumerate(via):
                if to_k + rest < row[j]:
                    row[j] = to_k + rest
    return dist


def independent_set_counts(g: WeightedGraph, k: int) -> list[int]:
    """Per-size independent-set counts by direct subset enumeration.

    Deliberately shares no logic with brute_force_count: subsets are checked
    against the raw edge list, with no distance computation at all.
    """
    if g.n > 16:
        raise ValueError("subset enumeration limited to n <= 16")
    counts = [0] * (k + 1)
    pair_masks = [(1 << u) | (1 << v) for u, v, _ in g.edges]
    for mask in range(1 << g.n):
        size = bin(mask).count("1")
        if size > k:
            continue
        if all((mask & pm) != pm for pm in pair_masks):
            counts[size] += 1
    return counts


def seeded_corpus(
    count: int, max_n: int, max_weight: int, base_seed: int = 0
) -> list[WeightedGraph]:
    """Deterministic mixed-density corpus; same arguments, same graphs."""
    rng = random.Random(base_seed)
    graphs = []
    for i in range(count):
        n = rng.randint(2, max_n)
        p = Fraction(rng.randint(2, 9), 10)
        w = rng.randint(1, max_weight)
        spec = RandomSpec(n=n, edge_probability=p, max_weight=w, seed=base_seed + i)
        graphs.append(gen_random_graph(spec))
    return graphs


@pytest.fixture(scope="session")
def weighted_corpus() -> list[WeightedGraph]:
    # 200 graphs, n <= 12, weights <= 4.
    return seeded_corpus(200, 12, 4, base_seed=20600)


@pytest.fixture(scope="session")
def unit_corpus() -> list[WeightedGraph]:
    # 200 unit-weight graphs, n <= 14.
    return seeded_corpus(200, 14, 1, base_seed=31400)


# One visible pass/fail line per acceptance check at the end of the run.

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and (report.failed or report.skipped):
        _ACCEPTANCE[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, status in _ACCEPTANCE.items():
        terminalreporter.write_line(f"ACCEPTANCE {status}: {name}")
