"""Weighted graphs, shortest-path distances, and scattered-set validation.

Vertices are integers 0..n-1.  Edge weights are strictly positive integers;
unit weights model the unweighted case.  Distances between vertices in
different components are ``INF = math.inf``, a true infinity: it compares
larger than every int, however large d or a path length grows, and
int/float comparisons are exact.

The solvers and the brute-force oracle read radius-limited distances
(`distances_within`): a d-scattered set only asks whether a distance is
below d.  The all-pairs matrix (`all_pairs_distances`) serves only the
tests' references and the benchmark tracer's wrap targets.

Every input file the package reads shares one line grammar, owned here:
`records` skips blank and comment lines, `ints` converts fields, and a bad
line raises `ParseError` with its line number.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence

INF = math.inf

VertexSet = tuple[int, ...]

# Refuse graphs beyond these sizes instead of thrashing: the parser, the
# generators and the random graphs all target desk-scale instances.
_MAX_VERTICES = 2_000_000
_MAX_EDGES = 8_000_000


def _check_size(vertices: int, edges: int) -> None:
    """Refuse a graph of these sizes if it passes either limit."""
    if vertices > _MAX_VERTICES or edges > _MAX_EDGES:
        raise ValueError("generated graph would be too large")


class ParseError(ValueError):
    """A malformed input line; carries its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(1-based line number, fields) of every line that is not blank or a comment.

    A comment is a line whose first field is ``c``.
    """
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and fields[0] != "c":
            yield line_no, fields


def ints(line_no: int, tokens: Sequence[str]) -> list[int]:
    """The tokens as integers, or a `ParseError` naming the line."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise ParseError(line_no, f"non-integer field in {' '.join(tokens)!r}") from None


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with strictly positive integer edge weights."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
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


def vertex_set(g: WeightedGraph, members: Iterable[int]) -> VertexSet:
    """Normalize an iterable of vertex ids to a sorted duplicate-free tuple."""
    out = tuple(sorted(set(members)))
    for v in out:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range for n={g.n}")
    return out


def uncovered_edge(g: WeightedGraph, cover: Collection[int]) -> tuple[int, int] | None:
    """The first edge with neither end in `cover`, or None if it is a vertex cover."""
    for u, v, _ in g.edges:
        if u not in cover and v not in cover:
            return (u, v)
    return None


def parse_graph(text: str) -> WeightedGraph:
    """Parse the DSS format.

    Header ``p dss <n> <m>``, then m lines ``e <u> <v> [<w>]`` with 1-based
    vertex ids and optional positive integer weight (default 1).  Lines
    whose first field is ``c`` are comments.  A malformed line raises
    `ParseError` naming its line; a missing header or too few edges is a
    file-level `ValueError`, as in the other readers.  A header past the
    size limit is refused on its own line, before any edge is read, and the
    first edge past the header's m on its line, so no more than m edges are
    ever held.
    """
    n = -1
    m = -1
    edges: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, fields in records(text):
        if fields[0] == "p":
            if n >= 0:
                raise ParseError(line_no, "duplicate header")
            if len(fields) != 4 or fields[1] != "dss":
                raise ParseError(line_no, "malformed header, want 'p dss <n> <m>'")
            n, m = ints(line_no, fields[2:])
            if n < 1 or m < 0:
                raise ParseError(line_no, f"invalid sizes n={n} m={m}")
            try:
                _check_size(n, m)
            except ValueError:
                limits = f"{_MAX_VERTICES} vertices and {_MAX_EDGES} edges"
                raise ParseError(line_no, f"sizes n={n} m={m} pass the limit of {limits}") from None
        elif fields[0] == "e":
            if n < 0:
                raise ParseError(line_no, "edge before header")
            if len(edges) == m:
                raise ParseError(line_no, f"edge {m + 1} past the header's count of {m}")
            if len(fields) not in (3, 4):
                raise ParseError(line_no, "malformed edge, want 'e <u> <v> [<w>]'")
            u, v, *weight = ints(line_no, fields[1:])
            w = weight[0] if weight else 1
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(line_no, f"vertex id out of range in edge ({u},{v})")
            if u == v:
                raise ParseError(line_no, f"self-loop at vertex {u}")
            if w < 1:
                raise ParseError(line_no, f"weight {w} < 1")
            key = (u - 1, v - 1) if u < v else (v - 1, u - 1)
            if key in seen:
                raise ParseError(line_no, f"duplicate edge ({u},{v})")
            seen.add(key)
            edges.append((u - 1, v - 1, w))
        else:
            raise ParseError(line_no, f"unknown line type {fields[0]!r}")
    if n < 0:
        raise ValueError("missing header")
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    return WeightedGraph(n=n, edges=tuple(edges))


def format_dss(g: WeightedGraph) -> str:
    lines = [f"p dss {g.n} {len(g.edges)}"]
    for u, v, w in g.edges:
        lines.append(f"e {u + 1} {v + 1} {w}")
    return "\n".join(lines) + "\n"


def dijkstra_from(g: WeightedGraph, source: int) -> list[int]:
    """Single-source distances, INF for unreachable vertices."""
    dist = distances_within(g, source, range(g.n), INF)
    return [dist.get(v, INF) for v in range(g.n)]


def distances_within(
    g: WeightedGraph, source: int, targets: Collection[int], radius: int
) -> dict[int, int]:
    """Exact distances from `source` to the targets closer than `radius`.

    A target at distance >= radius has no entry.  The search stops as soon
    as the last target is settled, before its edges are relaxed, or once
    the frontier reaches the radius, so its cost is bounded by the ball it
    explores, never by n.  `targets` is only tested for membership and
    counted: pass a set without repeats.

    The frontier is bucketed by distance (Dial's method): `layers` maps
    each tentative distance to the vertices reached at it, and a heap holds
    each distinct distance once.  Every weight is at least 1, so settling a
    layer only adds to later ones, and the whole layer is settled by one
    pop.  A vertex later reached at a smaller distance stays listed in its
    old layer and is skipped there.  The heap and the layers hold only the
    distances met, never a slot per value below the radius, so heavy
    weights, where nearly every layer holds one vertex, cost one small list
    per distance more than a heap of (distance, vertex) pairs would.
    """
    found: dict[int, int] = {}
    left = len(targets)
    if not left or radius <= 0:
        return found
    dist = {source: 0}
    layers = {0: [source]}
    heap = [0]
    adj = g.adjacency
    while heap:
        du = heapq.heappop(heap)
        for u in layers.pop(du):
            if dist[u] != du:
                continue
            if u in targets:
                found[u] = du
                left -= 1
                if not left:
                    return found
            for v, w in adj[u]:
                nd = du + w
                # Every stored distance is below the radius, so this test
                # keeps the frontier inside it too.
                if nd < dist.get(v, radius):
                    dist[v] = nd
                    layer = layers.get(nd)
                    if layer is None:
                        layers[nd] = [v]
                        heapq.heappush(heap, nd)
                    else:
                        layer.append(v)
    return found


def all_pairs_distances(g: WeightedGraph) -> tuple[tuple[int, ...], ...]:
    """All-pairs shortest paths via one Dijkstra run per source, row per source."""
    return tuple(tuple(dijkstra_from(g, s)) for s in range(g.n))


def is_scattered(g: WeightedGraph, members: Iterable[int], d: int) -> bool:
    """True iff the members are distinct and pairwise at distance >= d.

    A member listed twice counts as a pair at distance 0; see
    `scattered_violation`.
    """
    return scattered_violation(g, members, d) is None


def scattered_violation(
    g: WeightedGraph, members: Iterable[int], d: int
) -> tuple[int, int, int] | None:
    """First violating pair (u, v, dist) at distance < d, or None.

    A member listed twice comes first, as (v, v, 0) for the smallest
    repeated v.  Otherwise pairs are ordered by u, then by v > u.  Each
    member's search stops at radius d and meets only the members inside
    that ball, so the work grows with the members' balls, not with n.
    """
    listed = sorted(members)
    ms = vertex_set(g, listed)
    if len(ms) < len(listed):
        v = next(u for u, w in zip(listed, listed[1:]) if u == w)
        return (v, v, 0)
    chosen = set(ms)
    for u in ms:
        near = distances_within(g, u, chosen, d)
        later = [v for v in near if v > u]
        if later:
            v = min(later)
            return (u, v, near[v])
    return None
