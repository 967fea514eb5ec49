"""Decomposition DP: the clearance engine, counting, maximizing."""

from __future__ import annotations

import pytest

import scatterset.tw_exact as tw
from conftest import complete_graph, cycle_graph, path_graph, seeded_corpus, star_graph
from scatterset.decomp import heuristic_decomposition, make_nice
from scatterset.graph_core import WeightedGraph, is_scattered
from scatterset.oracle import brute_force_count, brute_force_max
from scatterset.tw_exact import (
    ExactClearance,
    count_scattered,
    max_scattered,
    solve_via_treedepth,
)


def nice_for(g: WeightedGraph):
    return make_nice(heuristic_decomposition(g))


def test_exact_clearance_domain():
    dom = ExactClearance(4)
    assert dom.cap == 4
    assert dom.from_distance(9) == 4 and dom.from_distance(3) == 3
    assert dom.add(3, 2) == 4 and dom.add(1, 1) == 2
    assert dom.admit_distance(4) and not dom.admit_distance(3)
    assert dom.join_ok(2, 2) and not dom.join_ok(2, 1)


def test_count_path_pinned_values():
    # By enumeration: P5 with d=3 has 1/5/3 scattered sets of sizes 0/1/2.
    g = path_graph(5)
    assert count_scattered(g, nice_for(g), 3, 2) == [1, 5, 3]


def test_count_single_edge_pinned_values():
    # One edge of weight 1 at d=3: the empty set, either endpoint, never both.
    g = WeightedGraph(n=2, edges=((0, 1, 1),))
    assert count_scattered(g, nice_for(g), 3, 2) == [1, 2, 0]


def test_count_cycle_pinned_values():
    # By enumeration: C5 with d=2 has 5 independent pairs.
    g = cycle_graph(5)
    assert count_scattered(g, nice_for(g), 2, 2) == [1, 5, 5]


def test_count_pads_with_zeros_beyond_n():
    g = path_graph(4)
    counts = count_scattered(g, nice_for(g), 2, 7)
    assert len(counts) == 8
    assert counts == [1, 4, 3, 0, 0, 0, 0, 0]


def test_count_k_zero_and_negative():
    g = path_graph(3)
    assert count_scattered(g, nice_for(g), 2, 0) == [1]
    with pytest.raises(ValueError):
        count_scattered(g, nice_for(g), 2, -1)


def test_count_rejects_small_d():
    g = path_graph(3)
    with pytest.raises(ValueError):
        count_scattered(g, nice_for(g), 1, 2)


def test_count_modulus_matches_full_counts():
    g = cycle_graph(9)
    nd = nice_for(g)
    full = count_scattered(g, nd, 3, 9)
    for modulus in (2, 7, 1000):
        assert count_scattered(g, nd, 3, 9, modulus=modulus) == [
            c % modulus for c in full
        ]
    with pytest.raises(ValueError):
        count_scattered(g, nd, 3, 9, modulus=1)


def test_count_matches_enumeration_on_corpus():
    for i, g in enumerate(seeded_corpus(25, 10, 3, base_seed=42)):
        nd = nice_for(g)
        d = 2 + i % 5
        assert count_scattered(g, nd, d, g.n) == brute_force_count(g, d, g.n)


def test_max_matches_enumeration_on_corpus():
    for i, g in enumerate(seeded_corpus(25, 10, 3, base_seed=43)):
        nd = nice_for(g)
        d = 2 + i % 5
        size, witness = max_scattered(g, nd, d)
        assert size == brute_force_max(g, d)[0]
        assert len(witness) == size
        assert is_scattered(g, witness, d)


def test_max_on_star_any_two_leaves():
    g = star_graph(5)
    size, witness = max_scattered(g, nice_for(g), 2)
    assert size == 5 and 0 not in witness
    size, witness = max_scattered(g, nice_for(g), 3)
    assert size == 1


def test_treedepth_wrapper_skips_dp_on_small_diameter():
    g = cycle_graph(6)  # diameter 3
    before = tw.ENGINE_RUNS
    size, witness = solve_via_treedepth(g, 4)
    assert size == 1 and len(witness) == 1
    assert tw.ENGINE_RUNS == before  # answered by the diameter shortcut
    size, witness = solve_via_treedepth(g, 3)
    assert size == 2
    assert tw.ENGINE_RUNS == before + 1


def test_treedepth_wrapper_adds_up_components():
    g = WeightedGraph(n=7, edges=((0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1)))
    # Components: P3 + P3 + isolated vertex; d=3 gives 1 + 1 + 1.
    size, witness = solve_via_treedepth(g, 3)
    assert size == 3
    assert is_scattered(g, witness, 3)
    assert size == brute_force_max(g, 3)[0]


def test_treedepth_wrapper_requires_unit_weights():
    g = path_graph(3, weight=2)
    with pytest.raises(ValueError):
        solve_via_treedepth(g, 3)
