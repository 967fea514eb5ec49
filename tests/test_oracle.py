"""Reference brute-force solvers and the seeded instance generator."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from conftest import cycle_graph, independent_set_counts, path_graph
from scatterset.graph_core import all_pairs_distances, is_scattered
from scatterset.oracle import (
    RandomSpec,
    brute_force_count,
    brute_force_max,
    gen_random_graph,
)


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(n=0, edge_probability=Fraction(1, 2))
    with pytest.raises(ValueError):
        RandomSpec(n=3, edge_probability=Fraction(3, 2))
    with pytest.raises(ValueError):
        RandomSpec(n=3, edge_probability=Fraction(1, 2), max_weight=0)


def test_generator_is_deterministic():
    spec = RandomSpec(n=10, edge_probability=Fraction(1, 3), max_weight=4, seed=7)
    assert gen_random_graph(spec) == gen_random_graph(spec)
    other = RandomSpec(n=10, edge_probability=Fraction(1, 3), max_weight=4, seed=8)
    assert gen_random_graph(spec) != gen_random_graph(other)


def test_generator_probability_extremes():
    empty = gen_random_graph(RandomSpec(n=6, edge_probability=Fraction(0)))
    assert empty.edges == ()
    full = gen_random_graph(RandomSpec(n=6, edge_probability=Fraction(1)))
    assert len(full.edges) == 15


def test_generator_weight_bounds():
    g = gen_random_graph(
        RandomSpec(n=12, edge_probability=Fraction(1), max_weight=3, seed=5)
    )
    assert all(1 <= w <= 3 for _, _, w in g.edges)


def test_brute_count_path_by_hand():
    # P5, d=3: sets of size two are {0,3}, {0,4}, {1,4}.
    g = path_graph(5)
    assert brute_force_count(g, 3, 3) == [1, 5, 3, 0]


def test_brute_count_agrees_with_direct_enumeration():
    g = cycle_graph(7)
    dist = all_pairs_distances(g)
    for d in (2, 3, 4):
        expected = [0] * (g.n + 1)
        for size in range(g.n + 1):
            for subset in combinations(range(g.n), size):
                if all(dist[u][v] >= d for u, v in combinations(subset, 2)):
                    expected[size] += 1
        assert brute_force_count(g, d, g.n) == expected


def test_brute_max_returns_valid_witness():
    g = cycle_graph(10)
    size, witness = brute_force_max(g, 3)
    assert size == 3
    assert len(witness) == size
    assert is_scattered(g, witness, 3)


def test_independent_set_counts_match_distance_two():
    g = cycle_graph(6)
    counts = independent_set_counts(g, g.n)
    assert counts == brute_force_count(g, 2, g.n)
    # The largest independent set is the last size with a nonzero count.
    assert max(m for m, c in enumerate(counts) if c) == brute_force_max(g, 2)[0]


def test_scattered_sets_total():
    g = path_graph(4)
    # d=2: independent sets of P4: 1 + 4 + 3 = 8.
    assert sum(brute_force_count(g, 2, g.n)) == 8


def test_brute_force_size_caps():
    big = gen_random_graph(RandomSpec(n=27, edge_probability=Fraction(1, 10)))
    with pytest.raises(ValueError):
        brute_force_max(big, 3)
    medium = gen_random_graph(RandomSpec(n=21, edge_probability=Fraction(1, 10)))
    with pytest.raises(ValueError):
        brute_force_count(medium, 3, 5)
