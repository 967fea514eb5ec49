"""Unweighted d-scattered sets (d >= 3) parameterized by vertex cover size.

The graph is split into a minimum vertex cover C and the independent rest I.
Vertices of I that share the same neighborhood in C are interchangeable, so
one representative per neighborhood class suffices.  Selection then becomes
a set-packing question over the elements of C: each candidate vertex carries
a per-element integer code (how much of the distance budget around that
cover vertex it consumes, in halves for even d and thirds for odd d), and
two candidates may coexist iff their codes sum to at most the budget (2 or
3) on every element.  A forward DP over code profiles solves the packing in
O*(3^|C|) for even d and O*(4^|C|) for odd d.
"""

from __future__ import annotations

from typing import Sequence

from .graph_core import (
    INF,
    VertexSet,
    WeightedGraph,
    distances_within,
    is_scattered,
    vertex_set,
)

# Unused here, but bench/tracing.py wraps this module-level name and the
# benchmark's tests require every name it wraps to exist.
from .graph_core import all_pairs_distances  # noqa: F401

# Distinct code profiles materialized by the most recent solve_packing
# run; lets tests confirm the 3^|C| / 4^|C| state bound.
LAST_PROFILE_COUNT = 0


def _cover_deficiency(g: WeightedGraph, cover: frozenset[int]) -> tuple[int, int] | None:
    for u, v, _ in g.edges:
        if u not in cover and v not in cover:
            return (u, v)
    return None


def compute_vertex_cover(g: WeightedGraph) -> VertexSet:
    """Minimum vertex cover by branching on an uncovered edge.

    The higher-degree endpoint is tried first (ties toward the lower id) and
    only strictly smaller covers replace the incumbent, which keeps the
    result deterministic.
    """
    if not g.has_unit_weights():
        raise ValueError("vertex cover solving expects unit weights")
    degree = [g.degree(v) for v in range(g.n)]
    best: set[int] = {v for v in range(g.n) if degree[v] > 0}

    def branch(cover: set[int]) -> None:
        nonlocal best
        if len(cover) >= len(best):
            return
        edge = _cover_deficiency(g, frozenset(cover))
        if edge is None:
            best = set(cover)
            return
        u, v = edge
        first, second = (u, v) if (-degree[u], u) <= (-degree[v], v) else (v, u)
        for w in (first, second):
            cover.add(w)
            branch(cover)
            cover.remove(w)

    branch(set())
    return tuple(sorted(best))


def neighborhood_classes(g: WeightedGraph, cover: VertexSet) -> VertexSet:
    """One representative (lowest id) per distinct neighborhood N(v) in C."""
    cset = frozenset(cover)
    bad = _cover_deficiency(g, cset)
    if bad is not None:
        raise ValueError(f"not a vertex cover: edge {bad} is uncovered")
    reps: dict[frozenset[int], int] = {}
    for v in range(g.n):
        if v in cset:
            continue
        signature = frozenset(g.adjacency[v])
        if signature not in reps:
            reps[signature] = v
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
    """
    global LAST_PROFILE_COUNT
    universe = len(sets[0][1]) if sets else 0
    profiles: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {
        (0,) * universe: (0, ())
    }
    for origin, codes in sorted(sets):
        additions: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
        for profile, (count, chosen) in profiles.items():
            if any(p + c > budget for p, c in zip(profile, codes)):
                continue
            new_profile = tuple(max(p, c) for p, c in zip(profile, codes))
            candidate = (count + 1, chosen + (origin,))
            incumbent = additions.get(new_profile)
            if incumbent is None:
                incumbent = profiles.get(new_profile)
            if (
                incumbent is None
                or candidate[0] > incumbent[0]
                or (candidate[0] == incumbent[0] and candidate[1] < incumbent[1])
            ):
                additions[new_profile] = candidate
        profiles.update(additions)
    LAST_PROFILE_COUNT = len(profiles)
    best_count, best_chosen = 0, ()
    for count, chosen in profiles.values():
        if count > best_count or (count == best_count and chosen < best_chosen):
            best_count, best_chosen = count, chosen
    return best_count, tuple(sorted(best_chosen))


def max_scattered_vc(
    g: WeightedGraph, d: int, cover: VertexSet | None = None
) -> tuple[int, VertexSet]:
    """Maximum d-scattered set via the cover reduction (unit weights, d >= 3)."""
    if not g.has_unit_weights():
        raise ValueError("max_scattered_vc expects unit weights")
    if d < 3:
        raise ValueError("d must be >= 3 here; for d = 2 use the tw_exact module")
    if cover is None:
        cover = compute_vertex_cover(g)
    else:
        cover = vertex_set(g, cover)
        bad = _cover_deficiency(g, frozenset(cover))
        if bad is not None:
            raise ValueError(f"provided set is not a vertex cover: edge {bad} uncovered")
    reps = neighborhood_classes(g, cover)
    # isolated non-cover vertices are all freely selectable, not one per
    # class: give each its own (all-zero) packing set
    cset = frozenset(cover)
    isolated = [v for v in range(g.n) if v not in cset and not g.adjacency[v]]
    reps_eff = tuple(sorted(set(reps) | set(isolated)))
    size, witness = solve_packing(*reduce_to_packing(g, cover, reps_eff, d))
    if not is_scattered(g, witness, d):
        raise AssertionError("internal error: packing produced an invalid witness")
    return size, witness
