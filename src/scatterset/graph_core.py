"""Weighted graphs, shortest-path distances, and scattered-set validation.

Vertices are integers 0..n-1.  Edge weights are strictly positive integers;
unit weights model the unweighted case.  Distances between vertices in
different components are represented by the sentinel ``INF``, which compares
larger than any realizable path length.

The solvers read radius-limited distances (`distances_within`): a d-scattered
set only asks whether a distance is below d.  The all-pairs matrix
(`all_pairs_distances`) serves the brute-force oracle alone.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Sequence

INF = 10**18

# Parsing rejects graphs whose total edge weight could collide with INF.
_MAX_TOTAL_WEIGHT = INF // 4

VertexSet = tuple[int, ...]


class DssParseError(ValueError):
    """Malformed DSS text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive integer edge weights."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        total = 0
        for u, v, w in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if w < 1:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            total += w
        if total > _MAX_TOTAL_WEIGHT:
            raise ValueError("total edge weight too large for exact distances")

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuples of (neighbor, weight)."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return tuple(tuple(sorted(a)) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_unit_weights(self) -> bool:
        return all(w == 1 for _, _, w in self.edges)


@dataclass(frozen=True)
class DistanceOracle:
    """Immutable all-pairs shortest-path matrix (INF for disconnected pairs)."""

    dist: tuple[tuple[int, ...], ...]

    def between(self, u: int, v: int) -> int:
        return self.dist[u][v]


def vertex_set(g: WeightedGraph, members: Iterable[int]) -> VertexSet:
    """Normalize an iterable of vertex ids to a sorted duplicate-free tuple."""
    out = tuple(sorted(set(members)))
    for v in out:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return out


def parse_graph(text: str) -> WeightedGraph:
    """Parse the DSS format.

    Header ``p dss <n> <m>``, then m lines ``e <u> <v> [<w>]`` with 1-based
    vertex ids and optional positive integer weight (default 1).  Lines
    starting with ``c`` are comments.
    """
    n = -1
    m = -1
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n >= 0:
                raise DssParseError(line_no, "duplicate header")
            if len(fields) != 4 or fields[1] != "dss":
                raise DssParseError(line_no, "malformed header, want 'p dss <n> <m>'")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DssParseError(line_no, "non-integer header fields") from None
            if n < 1 or m < 0:
                raise DssParseError(line_no, f"invalid sizes n={n} m={m}")
        elif fields[0] == "e":
            if n < 0:
                raise DssParseError(line_no, "edge before header")
            if len(fields) not in (3, 4):
                raise DssParseError(line_no, "malformed edge, want 'e <u> <v> [<w>]'")
            try:
                u, v = int(fields[1]), int(fields[2])
                w = int(fields[3]) if len(fields) == 4 else 1
            except ValueError:
                raise DssParseError(line_no, "non-integer edge fields") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise DssParseError(line_no, f"vertex id out of range in edge ({u},{v})")
            if u == v:
                raise DssParseError(line_no, f"self-loop at vertex {u}")
            if w < 1:
                raise DssParseError(line_no, f"weight {w} < 1")
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise DssParseError(line_no, f"duplicate edge ({u},{v})")
            seen.add(key)
            edges.append((u - 1, v - 1, w))
        else:
            raise DssParseError(line_no, f"unknown line type {fields[0]!r}")
    if n < 0:
        raise DssParseError(1, "missing header")
    if len(edges) != m:
        raise DssParseError(1, f"header declares {m} edges, found {len(edges)}")
    return WeightedGraph(n=n, edges=tuple(edges))


def format_dss(g: WeightedGraph) -> str:
    lines = [f"p dss {g.n} {len(g.edges)}"]
    for u, v, w in g.edges:
        lines.append(f"e {u + 1} {v + 1} {w}")
    return "\n".join(lines) + "\n"


def dijkstra_from(g: WeightedGraph, source: int, radius: int | None = None) -> list[int]:
    """Single-source distances; entries beyond `radius` may stay INF."""
    dist = [INF] * g.n
    dist[source] = 0
    heap = [(0, source)]
    adj = g.adjacency
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        if radius is not None and du >= radius:
            continue
        for v, w in adj[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def distances_within(
    g: WeightedGraph, source: int, targets: Collection[int], radius: int
) -> dict[int, int]:
    """Exact distances from `source` to the targets closer than `radius`.

    A target at distance >= radius has no entry.  The search stops as soon
    as every target is settled or the frontier reaches the radius, so its
    cost is bounded by the ball it explores, never by n.  `targets` is only
    tested for membership and counted: pass a set without repeats.
    """
    found: dict[int, int] = {}
    left = len(targets)
    dist = {source: 0}
    heap = [(0, source)]
    adj = g.adjacency
    while heap and left:
        du, u = heapq.heappop(heap)
        if du >= radius:
            break
        if du > dist[u]:
            continue
        if u in targets:
            found[u] = du
            left -= 1
        for v, w in adj[u]:
            nd = du + w
            if nd < radius and nd < dist.get(v, radius):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return found


def all_pairs_distances(g: WeightedGraph) -> DistanceOracle:
    """All-pairs shortest paths via one Dijkstra run per source."""
    return DistanceOracle(dist=tuple(tuple(dijkstra_from(g, s)) for s in range(g.n)))


def is_scattered(g: WeightedGraph, members: Iterable[int], d: int) -> bool:
    """True iff every pair of distinct members is at distance >= d.

    Vacuously true for at most one member; see `scattered_violation`.
    """
    return scattered_violation(g, members, d) is None


def scattered_violation(
    g: WeightedGraph, members: Iterable[int], d: int
) -> tuple[int, int, int] | None:
    """First violating pair (u, v, dist) at distance < d, or None.

    Pairs are ordered by u, then by v > u.  Each member's search stops at
    radius d and meets only the members inside that ball, so the work grows
    with the members' balls, not with n.
    """
    ms = vertex_set(g, members)
    chosen = set(ms)
    for u in ms:
        near = distances_within(g, u, chosen, d)
        later = [v for v in near if v > u]
        if later:
            v = min(later)
            return (u, v, near[v])
    return None


def diameter(g: WeightedGraph) -> int:
    """Largest finite pairwise distance; INF if g is disconnected with n >= 2."""
    if g.n == 1:
        return 0
    best = 0
    for s in range(g.n):
        row = dijkstra_from(g, s)
        worst = max(row)
        if worst >= INF:
            return INF
        best = max(best, worst)
    return best


def max_finite_distance(g: WeightedGraph) -> int:
    """Largest distance among connected pairs (0 for edgeless graphs)."""
    best = 0
    for s in range(g.n):
        for x in dijkstra_from(g, s):
            if x < INF:
                best = max(best, x)
    return best


def connected_components(g: WeightedGraph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted, in id order."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _ in g.adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(sorted(comp))
    return comps


def induced_subgraph(g: WeightedGraph, vertices: Sequence[int]) -> tuple[WeightedGraph, list[int]]:
    """Subgraph induced by `vertices`; returns (subgraph, old-id list)."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v], w)
        for u, v, w in g.edges
        if u in index and v in index
    ]
    return WeightedGraph(n=len(keep), edges=tuple(edges)), keep
