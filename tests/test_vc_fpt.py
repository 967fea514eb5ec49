"""Vertex-cover-parameterized solver: cover search, classes, packing DP."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

import scatterset.vc_fpt as vc
from conftest import (
    complete_graph,
    cycle_graph,
    max_finite_distance,
    path_graph,
    seeded_corpus,
    star_graph,
)
from scatterset.graph_core import (
    INF,
    WeightedGraph,
    distances_within,
    is_scattered,
    uncovered_edge,
)
from scatterset.oracle import brute_force_max
from scatterset.vc_fpt import (
    compute_vertex_cover,
    max_scattered_vc,
    neighborhood_classes,
    reduce_to_packing,
    solve_packing,
)


def _min_cover_size(g: WeightedGraph) -> int:
    # Reference: smallest subset touching every edge, by direct enumeration.
    for size in range(g.n + 1):
        for subset in combinations(range(g.n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v, _ in g.edges):
                return size
    raise AssertionError("unreachable")


@pytest.mark.parametrize(
    "g",
    [
        path_graph(6),
        cycle_graph(7),
        star_graph(5),
        complete_graph(5),
        WeightedGraph(n=5, edges=()),
    ],
)
def test_cover_is_minimum_on_shapes(g):
    cover = compute_vertex_cover(g)
    chosen = set(cover)
    assert all(u in chosen or v in chosen for u, v, _ in g.edges)
    assert len(cover) == _min_cover_size(g)


def test_cover_is_minimum_on_corpus():
    for g in seeded_corpus(20, 9, 1, base_seed=55):
        cover = compute_vertex_cover(g)
        chosen = set(cover)
        assert all(u in chosen or v in chosen for u, v, _ in g.edges)
        assert len(cover) == _min_cover_size(g)


def test_neighborhood_classes_pick_smallest_representatives():
    # All star leaves share the neighborhood {center}: one representative.
    reps = neighborhood_classes(star_graph(4), (0,))
    assert reps == (1,)
    reps = neighborhood_classes(path_graph(7), (1, 3, 5))
    assert reps == (0, 2, 4, 6)


def test_neighborhood_classes_keep_every_isolated_vertex():
    # 1 and 2 share the neighborhood {0}; 3, 4 and 5 are isolated, at
    # distance INF from everything, so each is a class of its own.
    g = WeightedGraph(n=6, edges=((0, 1, 1), (0, 2, 1)))
    assert neighborhood_classes(g, (0,)) == (1, 3, 4, 5)


def test_rejects_small_d_with_redirect():
    with pytest.raises(ValueError, match="d = 2"):
        max_scattered_vc(path_graph(4), 2)


def test_rejects_weighted_graphs():
    with pytest.raises(ValueError, match="unit weights"):
        max_scattered_vc(path_graph(4, weight=2), 3)


def test_isolated_vertices_always_join():
    g = WeightedGraph(n=4, edges=((0, 1, 1),))
    size, witness = max_scattered_vc(g, 5)
    assert size == 3
    assert {2, 3} <= set(witness)
    assert is_scattered(g, witness, 5)


def test_matches_enumeration_on_shapes():
    for g, d in (
        (path_graph(8), 3),
        (path_graph(8), 4),
        (cycle_graph(9), 3),
        (star_graph(6), 3),
        (complete_graph(5), 3),
    ):
        size, witness = max_scattered_vc(g, d)
        assert size == brute_force_max(g, d)[0]
        assert len(witness) == size
        assert is_scattered(g, witness, d)


def test_matches_enumeration_on_corpus():
    for i, g in enumerate(seeded_corpus(30, 12, 1, base_seed=56)):
        d = 3 + i % 3
        size, witness = max_scattered_vc(g, d)
        assert size == brute_force_max(g, d)[0]
        assert is_scattered(g, witness, d)


@pytest.mark.parametrize("d,allowed_dens", [(3, {1, 3}), (4, {1, 2}), (5, {1, 3}), (6, {1, 2})])
def test_coefficient_alphabet_parity(d, allowed_dens):
    # Even d: codes are halves, {0, 1, 2} against budget 2; odd d: thirds,
    # {0, 1, 2, 3} against budget 3.  Never mixed.
    g = path_graph(7)
    cover = compute_vertex_cover(g)
    reps = neighborhood_classes(g, cover)
    budget, sets = reduce_to_packing(g, cover, reps, d)
    assert budget == max(allowed_dens)
    codes = {c for _, row in sets for c in row}
    assert codes <= set(range(budget + 1))
    assert codes - {0, budget}  # a partial code occurs, so the claim is not vacuous


def test_profile_count_instrumentation_updates():
    g = path_graph(6)
    vc.LAST_PROFILE_COUNT = 0
    max_scattered_vc(g, 3)
    assert vc.LAST_PROFILE_COUNT > 0


def test_large_d_reduces_to_single_choice():
    g = path_graph(5)
    d = max_finite_distance(g) + 1
    size, witness = max_scattered_vc(g, d)
    assert size == 1 and len(witness) == 1


# -- references for the packed profiles and the resumed cover scan -----------


def _tuple_packing(budget, sets):
    # Reference: the profile DP over code tuples that the packed ints
    # replaced; returns (size, witness, profile count).
    universe = len(sets[0][1]) if sets else 0
    profiles = {(0,) * universe: (0, ())}
    for origin, codes in sorted(sets):
        additions = {}
        for profile, (count, chosen) in profiles.items():
            if any(p + c > budget for p, c in zip(profile, codes)):
                continue
            new_profile = tuple(max(p, c) for p, c in zip(profile, codes))
            candidate = (count + 1, chosen + (origin,))
            incumbent = additions.get(new_profile) or profiles.get(new_profile)
            if (
                incumbent is None
                or candidate[0] > incumbent[0]
                or (candidate[0] == incumbent[0] and candidate[1] < incumbent[1])
            ):
                additions[new_profile] = candidate
        profiles.update(additions)
    best_count, best_chosen = 0, ()
    for count, chosen in profiles.values():
        if count > best_count or (count == best_count and chosen < best_chosen):
            best_count, best_chosen = count, chosen
    return best_count, tuple(sorted(best_chosen)), len(profiles)


def _packing_instances():
    # Seeded rows with up to three nonzero codes each, at universes 0, 1, 2,
    # 5 and 17 (17 fields pass 64 bits).  Codes run to 3 at budget 2 too: a
    # row with a 3 there never fits.
    rng = random.Random(612)
    for budget in (2, 3):
        for universe in (0, 1, 2, 5, 17):
            for _ in range(8):
                sets = []
                for origin in rng.sample(range(40), rng.randint(0, 12)):
                    codes = [0] * universe
                    for e in rng.sample(range(universe), min(universe, rng.randint(0, 3))):
                        codes[e] = rng.randint(0, 3)
                    sets.append((origin, tuple(codes)))
                yield budget, sets
    # Rows at the carry boundary: at budget 3 the field sums 3+3 and 3+0,
    # at budget 2 the sums 2+2, 2+1 and 1+1, in the lowest, the 16th (bits
    # 60-63) and the highest field.
    for budget, top in ((3, 3), (2, 2)):
        for field in (0, 15, 16):
            rows = [top, top, 0, 1, 1, top - 1, 0]
            yield budget, [
                (origin, tuple(code if e == field else 0 for e in range(17)))
                for origin, code in enumerate(rows)
            ] + [(len(rows), (top,) * 17)]
    # Tie-heavy rows: the elements split into disjoint groups, and each row
    # puts one code on every element of one group (or on none), so supports
    # are identical or disjoint and many subfamilies of the best size reach
    # the same profile.  Origins are scattered and given out of order.
    for budget in (2, 3):
        for universe in (1, 4, 9, 17):
            for _ in range(6):
                elements = rng.sample(range(universe), universe)
                cuts = sorted(rng.sample(range(1, universe), min(universe - 1, rng.randint(0, 3))))
                groups = [elements[a:b] for a, b in zip([0] + cuts, cuts + [universe])]
                sets = []
                for origin in rng.sample(range(60), rng.randint(8, 14)):
                    group = rng.choice(groups + [[]])
                    # Mostly the full budget, so a group takes one row.
                    code = budget if rng.random() < 0.75 else rng.randint(1, budget - 1)
                    sets.append((origin, tuple(code if e in group else 0 for e in range(universe))))
                yield budget, sets
    # On those rows the first subfamily to reach a profile was the
    # lexicographically smallest in every instance tried, so the tie
    # comparison decided nothing.  Rows on partly overlapping supports of
    # six elements let a later subfamily of the same size win, and it does
    # in 6 of these 24 instances.
    for budget in (2, 3):
        for _ in range(12):
            yield budget, [
                (origin, tuple(rng.choice((0, rng.randint(1, budget))) for _ in range(6)))
                for origin in rng.sample(range(60), rng.randint(8, 14))
            ]


# The reference never forgets a field, so it ends with every profile a
# feasible subfamily reaches.  Each live profile of the packing is one of
# those with its dead fields cleared, so its peak can only be smaller.


def test_packed_profiles_match_the_tuple_reference():
    for budget, sets in _packing_instances():
        vc.LAST_PROFILE_COUNT = -1
        size, witness = solve_packing(budget, sets)
        reference = _tuple_packing(budget, sets)
        assert (size, witness) == reference[:2]
        assert 0 < vc.LAST_PROFILE_COUNT <= reference[2]


def test_packed_profiles_match_the_tuple_reference_on_reductions():
    for i, g in enumerate(seeded_corpus(30, 12, 1, base_seed=57)):
        d = 3 + i % 3
        cover = compute_vertex_cover(g)
        budget, sets = reduce_to_packing(g, cover, neighborhood_classes(g, cover), d)
        vc.LAST_PROFILE_COUNT = -1
        size, witness = solve_packing(budget, sets)
        reference = _tuple_packing(budget, sets)
        assert (size, witness) == reference[:2]
        assert 0 < vc.LAST_PROFILE_COUNT <= reference[2]


@pytest.mark.parametrize("cover,seed", [(10, 1), (11, 2), (12, 3)])
def test_forgetting_shrinks_the_peak_on_cover_graphs(cover, seed):
    # Cover vertices on a path with chords, 12 outside vertices per cover
    # vertex hanging from one or two of them: the shape the benchmark's
    # small-cover graphs have.  Forgetting must hold fewer profiles than
    # the reference ends with, for the same answer.
    g = _cover_style_graph(cover, 12 * cover, seed)
    cover_set = compute_vertex_cover(g)
    assert len(cover_set) == cover
    budget, sets = reduce_to_packing(g, cover_set, neighborhood_classes(g, cover_set), 3)
    size, witness = solve_packing(budget, sets)
    reference = _tuple_packing(budget, sets)
    assert (size, witness) == reference[:2]
    assert vc.LAST_PROFILE_COUNT < reference[2]


def test_packing_ignores_the_input_order_of_its_rows():
    rng = random.Random(613)
    instances = list(_packing_instances())
    for budget, sets in instances[:: max(1, len(instances) // 40)]:
        expected = solve_packing(budget, sets)
        for _ in range(3):
            assert solve_packing(budget, rng.sample(sets, len(sets))) == expected


@pytest.mark.parametrize(
    "budget,sets",
    [(2, [(0, (1, 4))]), (3, [(0, (-1,))]), (8, [(0, (1,))]), (-1, [(0, (0,))])],
)
def test_packing_refuses_codes_or_budgets_its_fields_cannot_hold(budget, sets):
    with pytest.raises(ValueError, match="codes in 0..3"):
        solve_packing(budget, sets)


def test_packing_refuses_a_repeated_origin():
    # The witness is read off a bitmask over the sorted rows, one bit per
    # origin, so an origin listed twice has no single bit.
    with pytest.raises(ValueError, match="each origin at most once"):
        solve_packing(2, [(4, (1,)), (4, (0,))])


def _rescanning_cover(g):
    # Reference: the cover search that rescanned g.edges from edge 0 at
    # every branch node.
    matched = set()
    for u, v, _ in g.edges:
        if u not in matched and v not in matched:
            matched.update((u, v))
    degree = [g.degree(v) for v in range(g.n)]
    best = {v for v in range(g.n) if degree[v] > 0}

    def branch(cover):
        nonlocal best
        if len(cover) >= len(best) or len(cover) > len(matched):
            return
        edge = uncovered_edge(g, cover)
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


def _cover_style_graph(cover, outside, seed):
    # Cover vertices 0..cover-1 on a path with random chords; each outside
    # vertex hangs from one or two of them.
    rng = random.Random(seed)
    edges = [(a, a + 1, 1) for a in range(cover - 1)]
    edges += [(a, b, 1) for a in range(cover) for b in range(a + 2, cover) if rng.randrange(4) == 0]
    for v in range(cover, cover + outside):
        edges += [(a, v, 1) for a in sorted(rng.sample(range(cover), rng.randint(1, 2)))]
    return WeightedGraph(n=cover + outside, edges=tuple(edges))


def test_resumed_cover_scan_matches_the_rescanning_reference():
    graphs = seeded_corpus(60, 14, 1, base_seed=58)
    graphs += [_cover_style_graph(c, 4 * c, 70 + c) for c in range(2, 12)]
    for g in graphs:
        assert compute_vertex_cover(g) == _rescanning_cover(g)


def _relabelled(g, seed):
    # The same graph with its vertices permuted and its edge lines shuffled.
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v], w) for u, v, w in g.edges]
    rng.shuffle(edges)
    return WeightedGraph(n=g.n, edges=tuple(edges))


@pytest.mark.parametrize("cover", [16, 18])
def test_cover_search_cost_does_not_depend_on_edge_order(monkeypatch, cover):
    # The base labelling lists the cover's own edges first; a cut that
    # matched in that order would pair cover vertices with each other and
    # search thousands of branches.
    calls = 0
    matching = vc._greedy_matching

    def counted(*args):
        nonlocal calls
        calls += 1
        return matching(*args)

    monkeypatch.setattr(vc, "_greedy_matching", counted)
    base = _cover_style_graph(cover, 4 * cover, 100 + cover)
    for g in (base, _relabelled(base, 1), _relabelled(base, 2)):
        calls = 0
        found = compute_vertex_cover(g)
        assert calls <= 4 * len(found)
        assert found == _rescanning_cover(g)


def _per_origin_reduction(g, cover, reps, d):
    # Reference: one bounded search from every origin to the cover vertices.
    elements = tuple(sorted(cover))
    targets = set(elements)
    radius = (d + 1) // 2 + 1
    sets = []
    for origin in sorted(targets | set(reps)):
        near = distances_within(g, origin, targets, radius)
        sets.append((origin, tuple(vc._code(near.get(u, INF), d) for u in elements)))
    return 2 + d % 2, sets


def test_reduction_rows_match_one_search_per_origin():
    # Two paths and an isolated vertex put some origins out of every cover
    # vertex's reach; the edgeless graph has an empty cover.
    apart = WeightedGraph(
        n=12, edges=tuple((a, a + 1, 1) for a in (0, 1, 2, 3, 5, 6, 7, 8, 9))
    )
    graphs = seeded_corpus(40, 14, 1, base_seed=4321) + [
        apart,
        WeightedGraph(n=3, edges=()),
        _cover_style_graph(6, 20, 5),
    ]
    for g in graphs:
        cover = compute_vertex_cover(g)
        reps = neighborhood_classes(g, cover)
        for d in range(3, 8):
            assert reduce_to_packing(g, cover, reps, d) == _per_origin_reduction(g, cover, reps, d)
