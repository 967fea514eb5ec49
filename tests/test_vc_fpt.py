"""Vertex-cover-parameterized solver: cover search, classes, packing DP."""

from __future__ import annotations

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
from scatterset.graph_core import WeightedGraph, is_scattered
from scatterset.oracle import brute_force_max
from scatterset.vc_fpt import (
    compute_vertex_cover,
    max_scattered_vc,
    neighborhood_classes,
    reduce_to_packing,
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
