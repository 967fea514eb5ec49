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
and merges a row against a profile with a few whole-int operations.  Each
profile maps to a bitmask over the sorted candidates, so recording a choice
is one OR; the witness's origins are read off the winning mask at the end.

The DP places rows one cover vertex at a time: the vertex with the fewest
unplaced rows that touch it (a nonzero code) first, all of those rows at
once, and rows with no nonzero code last.  Once no unplaced row touches a
vertex, its field can decide nothing more, so it is cleared in every
profile and profiles that then coincide keep the better mask.  The masks
keep their bits over the sorted candidates and the tie rule is a total
order on them, so the witness is the one the unforgetting DP finds.

The codes come from one radius-limited search per cover vertex, which
reads that vertex's column of every row, since distances are symmetric.

The cover comes from a bounded branching search; each branch resumes its
scan for an uncovered edge just past the edge its parent branched on, and
is cut once a greedy matching among its uncovered edges shows it cannot
beat the incumbent.  One matching routine serves the search's bound, over
the edges in file order, and the cut, over the edges sorted by the smaller
degree of their ends, so the cut's cost does not depend on the file's edge
order.
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

# Peak live profiles of the most recent solve_packing run: the most the
# profile dict held at once, before a forgetting step merged it.
LAST_PROFILE_COUNT = 0


# Largest greedy matching the cover search accepts.  A matching of m edges
# bounds the minimum cover size tau by m <= tau <= 2m, so a larger one means
# a cover past 40 vertices, whose packing may meet up to 3^tau or 4^tau
# profiles, far past desk scale.
_MAX_MATCHING = 20

# Most live profiles the packing holds before it refuses.  tracemalloc puts
# a packing's peak at 150-200 bytes per peak live profile (195 on a cover
# of 20 with 200 outside vertices at d = 3, 139,627 profiles), so the
# bound is about 190 MiB.  It is checked once per placed row, and a row at
# most doubles the dict, so a refused packing has held at most twice that.
_MAX_PROFILES = 1_000_000


def _greedy_matching(edges: Sequence[tuple[int, int, int]], cover: set[int], room: float) -> int:
    """Edges in a greedy matching of `edges` with no end in `cover`, at most `room`.

    The edges are taken in the given order; the scan stops once `room`
    edges are matched.
    """
    matched = set(cover)
    size = 0
    for u, v, _ in edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
            size += 1
            if size >= room:
                break
    return size


def compute_vertex_cover(g: WeightedGraph) -> VertexSet:
    """Minimum vertex cover by branching on the first uncovered edge.

    The cover only grows down a branch, so no edge before the one a node
    branches on can be uncovered below it: each child resumes the scan of
    `g.edges` just past that edge instead of starting at edge 0.  The
    higher-degree endpoint is tried first (ties toward the lower id) and
    only strictly smaller covers replace the incumbent, which keeps the
    result deterministic.  A greedy maximal matching M, taken in edge order,
    bounds the search: it is refused when |M| exceeds `_MAX_MATCHING`, and
    no branch grows past 2|M| vertices, which cuts no minimum cover.  Each
    branch also matches its uncovered edges greedily and returns once the
    matching has len(best) - len(cover) edges: each needs a cover vertex of
    its own, so the branch can at best tie the incumbent, and ties never
    replace it.  That matching takes the edges sorted once, stably, by the
    smaller degree of their two ends, so edges at a leaf come first and the
    cut does not depend on the order of `g.edges`; the cover it returns
    never depends on the cut.
    """
    if not g.has_unit_weights():
        raise ValueError("vertex cover solving expects unit weights")
    edges = g.edges
    size = _greedy_matching(edges, set(), INF)
    if size > _MAX_MATCHING:
        raise ValueError(
            f"vertex cover search refused: a greedy matching has {size} "
            f"edges, more than {_MAX_MATCHING}"
        )
    max_cover = 2 * size
    degree = [g.degree(v) for v in range(g.n)]
    by_degree = sorted(edges, key=lambda e: min(degree[e[0]], degree[e[1]]))
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
        room = len(best) - len(cover)
        if _greedy_matching(by_degree, cover, room) >= room:
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
    of (d+1)//2 + 1 or more, so each cover vertex's search stops at that
    radius; it runs once per cover vertex, with the origins as targets.
    """
    if d < 3:
        raise ValueError("d must be >= 3 here; for d = 2 use --algo tw")
    if not g.has_unit_weights():
        raise ValueError("packing reduction expects unit weights")
    elements = tuple(sorted(cover))
    origins = set(elements) | set(reps)
    radius = (d + 1) // 2 + 1
    # Distances are symmetric, so one search from each cover vertex gives
    # that vertex's column of every origin's row.
    columns = [distances_within(g, u, origins, radius) for u in elements]
    sets = [
        (origin, tuple(_code(column.get(origin, INF), d) for column in columns))
        for origin in sorted(origins)
    ]
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
    max (P & K) | (C & ~K).  Codes must lie in 0..3, the budget in 0..7,
    and each origin may appear once.

    Rows are placed one element at a time (see `_placement`), and once no
    unplaced row has a nonzero code on an element, its field is cleared in
    every profile and profiles that then collide are merged.  A cleared
    field is 0 in every later row, so it decides neither a fit nor a max:
    two profiles that differ only there have the same extensions S, and
    since S shares no bit with either mask, the better of M1 | S and
    M2 | S is the better of M1 and M2.  More than `_MAX_PROFILES` live
    profiles refuse the packing with ValueError.

    Each profile maps to the chosen sets as a bitmask, bit i for the i-th
    set in sorted order; the origin tuple is built once, from the winner.
    Ties keep the larger subfamily, then the one whose ascending origin
    tuple is lexicographically smaller.  Origins ascend with the bits, so
    for two masks with as many bits that is the one holding the lowest bit
    where they differ.  That order is total, so neither the placement
    order nor the merges change the winner.
    """
    global LAST_PROFILE_COUNT
    if not 0 <= budget <= 7 or any(not 0 <= c <= 3 for _, row in sets for c in row):
        raise ValueError("packing expects codes in 0..3 and a budget in 0..7")
    ordered = sorted(sets)
    if len({origin for origin, _ in ordered}) != len(ordered):
        raise ValueError("packing expects each origin at most once")
    universe = len(ordered[0][1]) if ordered else 0
    ones = (16**universe - 1) // 15  # 1 in every 4-bit field
    high = 8 * ones
    slack = (7 - budget) * ones
    rows = []
    for _, codes in ordered:
        row = 0
        for code in reversed(codes):
            row = row << 4 | code
        rows.append(row)
    profiles: dict[int, int] = {0: 0}
    peak = 1
    for group, live in _placement([codes for _, codes in ordered]):
        for i in group:
            bit = 1 << i
            row = rows[i]
            limit = row + slack
            additions: dict[int, int] = {}
            for profile, chosen in profiles.items():
                if (profile + limit) & high:
                    continue
                keep = ((((profile | high) - row) & high) >> 3) * 15
                new_profile = (profile & keep) | (row & ~keep)
                candidate = chosen | bit
                incumbent = additions.get(new_profile)
                if incumbent is None:
                    incumbent = profiles.get(new_profile)
                if incumbent is None or _better(candidate, incumbent):
                    additions[new_profile] = candidate
            profiles.update(additions)
            if len(profiles) > _MAX_PROFILES:
                raise ValueError(
                    f"vc packing refused: {len(profiles)} live profiles over a cover of "
                    f"{universe} vertices, more than {_MAX_PROFILES}"
                )
        peak = max(peak, len(profiles))
        merged: dict[int, int] = {}
        for profile, chosen in profiles.items():
            profile &= live
            incumbent = merged.get(profile)
            if incumbent is None or _better(chosen, incumbent):
                merged[profile] = chosen
        profiles = merged
    LAST_PROFILE_COUNT = peak
    best = 0
    for chosen in profiles.values():
        if _better(chosen, best):
            best = chosen
    witness = tuple(origin for i, (origin, _) in enumerate(ordered) if best >> i & 1)
    return len(witness), witness


def _placement(rows: Sequence[tuple[int, ...]]) -> list[tuple[list[int], int]]:
    """Row indices in groups, in placement order, each with the fields live after it.

    An element is live while an unplaced row has a nonzero code on it.  Each
    group holds the unplaced rows of the live element with the fewest of
    them (ties: lowest element), in index order; rows with no nonzero code
    form the last group.  The live mask has 15 in each field whose element
    is still live once the group is placed.
    """
    universe = len(rows[0]) if rows else 0
    touching = [[i for i, codes in enumerate(rows) if codes[e]] for e in range(universe)]
    left = [len(indices) for indices in touching]
    placed = [False] * len(rows)
    groups: list[tuple[list[int], int]] = []
    while any(left):
        element = min((e for e in range(universe) if left[e]), key=lambda e: (left[e], e))
        group = [i for i in touching[element] if not placed[i]]
        for i in group:
            placed[i] = True
            for e, code in enumerate(rows[i]):
                if code:
                    left[e] -= 1
        groups.append((group, sum(15 << 4 * e for e in range(universe) if left[e])))
    rest = [i for i in range(len(rows)) if not placed[i]]
    if rest:
        groups.append((rest, 0))
    return groups


def _better(candidate: int, incumbent: int) -> bool:
    """More bits, or as many and the lowest differing bit is the candidate's."""
    more = candidate.bit_count() - incumbent.bit_count()
    if more:
        return more > 0
    differ = candidate ^ incumbent
    return bool(candidate & differ & -differ)


def max_scattered_vc(g: WeightedGraph, d: int) -> tuple[int, VertexSet]:
    """Maximum d-scattered set via the cover reduction (unit weights, d >= 3).

    The witness is not re-checked here; the CLI re-validates every witness
    it prints.
    """
    if not g.has_unit_weights():
        raise ValueError("max_scattered_vc expects unit weights")
    if d < 3:
        raise ValueError("d must be >= 3 here; for d = 2 use --algo tw")
    cover = compute_vertex_cover(g)
    reps = neighborhood_classes(g, cover)
    return solve_packing(*reduce_to_packing(g, cover, reps, d))
