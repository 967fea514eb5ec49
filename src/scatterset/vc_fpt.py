"""Unweighted d-scattered sets (d >= 3) parameterized by vertex cover size.

The graph is split into a minimum vertex cover C and the independent rest I.
Vertices of I that share the same neighborhood in C are interchangeable, so
one representative per neighborhood class suffices.  Selection then becomes
a set-packing question over the elements of C: each candidate vertex carries
a per-element integer code (how much of the distance budget around that
cover vertex it consumes, in halves for even d and thirds for odd d), and
two candidates may coexist iff their codes sum to at most the budget (2 or
3) on every element.  A forward DP over code profiles solves the packing in
O*(3^|C|) for even d and O*(4^|C|) for odd d.  Each code row and each
profile is one int of 4-bit fields, field i for element i, so the DP tests
and merges a row against a profile with a few whole-int operations.

The cover comes from a bounded branching search; each branch resumes its
scan for an uncovered edge just past the edge its parent branched on.
"""

from __future__ import annotations

from typing import Sequence

from .graph_core import (
    INF,
    VertexSet,
    WeightedGraph,
    distances_within,
    uncovered_edge,
)

# Unused here, but bench/tracing.py wraps these module-level names and the
# benchmark's tests require every name it wraps to exist.
from .graph_core import all_pairs_distances, is_scattered  # noqa: F401

# Distinct code profiles materialized by the most recent solve_packing
# run; lets tests confirm the 3^|C| / 4^|C| state bound.
LAST_PROFILE_COUNT = 0


# Largest greedy matching the cover search accepts.  A matching of m edges
# bounds the minimum cover size tau by m <= tau <= 2m, so a larger one means
# a cover, and a packing over 3^tau profiles, far past desk scale.
_MAX_MATCHING = 20


def compute_vertex_cover(g: WeightedGraph) -> VertexSet:
    """Minimum vertex cover by branching on the first uncovered edge.

    The cover only grows down a branch, so no edge before the one a node
    branches on can be uncovered below it: each child resumes the scan of
    `g.edges` just past that edge instead of starting at edge 0.  The
    higher-degree endpoint is tried first (ties toward the lower id) and
    only strictly smaller covers replace the incumbent, which keeps the
    result deterministic.  A greedy maximal matching M, taken in edge order,
    bounds the search: it is refused when |M| exceeds `_MAX_MATCHING`, and
    no branch grows past 2|M| vertices, which cuts no minimum cover.
    """
    if not g.has_unit_weights():
        raise ValueError("vertex cover solving expects unit weights")
    matched: set[int] = set()
    for u, v, _ in g.edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
    max_cover = len(matched)  # 2|M|
    if max_cover > 2 * _MAX_MATCHING:
        raise ValueError(
            f"vertex cover search refused: a greedy matching has {max_cover // 2} "
            f"edges, more than {_MAX_MATCHING}"
        )
    degree = [g.degree(v) for v in range(g.n)]
    edges = g.edges
    best: set[int] = {v for v in range(g.n) if degree[v] > 0}

    def branch(cover: set[int], start: int) -> None:
        # Every edge before `start` is covered: the cover only grows.
        nonlocal best
        if len(cover) >= len(best) or len(cover) > max_cover:
            return
        for i in range(start, len(edges)):
            u, v, _ = edges[i]
            if u not in cover and v not in cover:
                break
        else:
            best = set(cover)
            return
        first, second = (u, v) if (-degree[u], u) <= (-degree[v], v) else (v, u)
        for w in (first, second):
            cover.add(w)
            branch(cover, i + 1)
            cover.remove(w)

    branch(set(), 0)
    return tuple(sorted(best))


def neighborhood_classes(g: WeightedGraph, cover: VertexSet) -> VertexSet:
    """One representative (lowest id) per distinct neighborhood N(v) in C.

    An isolated vertex outside C is its own class: it is at infinite
    distance from every other vertex, so all of them can be chosen at once.
    """
    cset = frozenset(cover)
    bad = uncovered_edge(g, cset)
    if bad is not None:
        raise ValueError(f"not a vertex cover: edge {bad} is uncovered")
    reps: dict[frozenset[tuple[int, int]] | int, int] = {}
    for v in range(g.n):
        if v not in cset:
            reps.setdefault(frozenset(g.adjacency[v]) or v, v)
    return tuple(sorted(reps.values()))


def _code(dist_uv: int, d: int) -> int:
    """Budget share of a vertex at distance dist_uv from a cover vertex.

    Even d (budget 2): 2 below d/2, 1 at d/2, else 0.  Odd d (budget 3):
    3 below floor(d/2), 2 at it, 1 one past it, else 0.
    """
    return min(2 + d % 2, max(0, (d + 1) // 2 + 1 - dist_uv))


def reduce_to_packing(
    g: WeightedGraph, cover: VertexSet, reps: VertexSet, d: int
) -> tuple[int, list[tuple[int, tuple[int, ...]]]]:
    """Packing over the sorted cover vertices: (budget, [(origin, codes)]).

    One entry per candidate origin vertex, in increasing origin order.
    Even d uses codes {0, 1, 2} against budget 2 (halves); odd d uses
    {0, 1, 2, 3} against budget 3 (thirds).  A code is 0 at every distance
    of (d+1)//2 + 1 or more, so each origin's search stops at that radius.
    """
    if d < 3:
        raise ValueError("d must be >= 3 here; for d = 2 use the tw_exact module")
    if not g.has_unit_weights():
        raise ValueError("packing reduction expects unit weights")
    elements = tuple(sorted(cover))
    targets = set(elements)
    radius = (d + 1) // 2 + 1
    sets = []
    for origin in sorted(targets | set(reps)):
        near = distances_within(g, origin, targets, radius)
        sets.append((origin, tuple(_code(near.get(u, INF), d) for u in elements)))
    return 2 + d % 2, sets


def solve_packing(
    budget: int, sets: Sequence[tuple[int, tuple[int, ...]]]
) -> tuple[int, VertexSet]:
    """Maximum subfamily where per element the top two codes sum <= budget.

    Equivalently every pair of chosen sets is elementwise compatible, so a
    forward DP suffices: the profile keeps each element's maximum code among
    chosen sets, and a set may join iff profile + its code stays within the
    budget everywhere.

    Rows and profiles are packed into 4-bit fields (field i holds element
    i).  With ONES = sum of 1 << 4i and HIGH = 8 * ONES, a row C fits a
    profile P iff (P + C + (7 - budget) * ONES) & HIGH == 0: no field sum
    exceeds 3 + 3 + 7 < 16, so none carries.  Each field of (P | HIGH) - C
    is 8 + p - c >= 5, so none borrows, and its high bit is set iff p >= c;
    spreading those bits over their fields gives the mask K of the per-field
    max (P & K) | (C & ~K).  Codes must lie in 0..3 and the budget in 0..7.
    Each profile maps to the chosen origins alone, ascending because the
    sets are visited in sorted order; ties keep the longer tuple, then the
    lexicographically smaller one.
    """
    global LAST_PROFILE_COUNT
    if not 0 <= budget <= 7 or any(not 0 <= c <= 3 for _, row in sets for c in row):
        raise ValueError("packing expects codes in 0..3 and a budget in 0..7")
    universe = len(sets[0][1]) if sets else 0
    ones = (16**universe - 1) // 15  # 1 in every 4-bit field
    high = 8 * ones
    slack = (7 - budget) * ones
    profiles: dict[int, tuple[int, ...]] = {0: ()}
    for origin, codes in sorted(sets):
        row = 0
        for code in reversed(codes):
            row = row << 4 | code
        limit = row + slack
        additions: dict[int, tuple[int, ...]] = {}
        for profile, chosen in profiles.items():
            if (profile + limit) & high:
                continue
            keep = ((((profile | high) - row) & high) >> 3) * 15
            new_profile = (profile & keep) | (row & ~keep)
            candidate = chosen + (origin,)
            incumbent = additions.get(new_profile)
            if incumbent is None:
                incumbent = profiles.get(new_profile)
            if (
                incumbent is None
                or len(candidate) > len(incumbent)
                or (len(candidate) == len(incumbent) and candidate < incumbent)
            ):
                additions[new_profile] = candidate
        profiles.update(additions)
    LAST_PROFILE_COUNT = len(profiles)
    best = min(profiles.values(), key=lambda chosen: (-len(chosen), chosen))
    return len(best), best


def max_scattered_vc(g: WeightedGraph, d: int) -> tuple[int, VertexSet]:
    """Maximum d-scattered set via the cover reduction (unit weights, d >= 3).

    The witness is not re-checked here; the CLI re-validates every witness
    it prints.
    """
    if not g.has_unit_weights():
        raise ValueError("max_scattered_vc expects unit weights")
    if d < 3:
        raise ValueError("d must be >= 3 here; for d = 2 use the tw_exact module")
    cover = compute_vertex_cover(g)
    reps = neighborhood_classes(g, cover)
    return solve_packing(*reduce_to_packing(g, cover, reps, d))
