"""Decomposition DP: the clearance engine, counting, maximizing."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import scatterset.tw_exact as tw
from conftest import complete_graph, cycle_graph, path_graph, seeded_corpus, star_graph
from scatterset.decomp import (
    TreeDecomposition,
    balance,
    format_td,
    heuristic_decomposition,
    make_nice,
    parse_td,
    validate_decomposition,
)
from scatterset.graph_core import WeightedGraph, is_scattered, scattered_violation
from scatterset.oracle import RandomSpec, brute_force_count, brute_force_max, gen_random_graph
from scatterset.tw_approx import RoundedClearance
from scatterset.tw_exact import (
    ExactClearance,
    _HookMemo,
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


@pytest.mark.parametrize(
    "dom",
    [ExactClearance(2), ExactClearance(7), RoundedClearance(100, Fraction(1, 4), Fraction(1))],
    ids=["exact-2", "exact-7", "rounded-100"],
)
def test_join_threshold_is_least_accepted_partner(dom):
    hooks = _HookMemo(dom)
    for a in range(dom.cap + 1):
        accepted = [b for b in range(dom.cap + 1) if dom.join_ok(a, b)]
        assert hooks.threshold[a] == (accepted[0] if accepted else dom.cap + 1)
        assert accepted == list(range(hooks.threshold[a], dom.cap + 1))


def test_huge_d_builds_no_table_over_the_cap():
    # cap = d = 10**15: the hook memo only holds values the DP meets.
    g = path_graph(6)
    nd = nice_for(g)
    assert count_scattered(g, nd, 10**15, 3) == [1, 6, 0, 0]
    assert max_scattered(g, nd, 10**15)[0] == 1


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


def test_count_carry_free_where_slot_width_is_tight():
    # Every subset of an edgeless graph is scattered, so the count of size
    # 40 is C(80, 40) ~ 1.1e23 itself: the largest value a slot must hold.
    g = WeightedGraph(n=80, edges=())
    nd = nice_for(g)
    assert count_scattered(g, nd, 2, 80) == [math.comb(80, m) for m in range(81)]
    assert count_scattered(g, nd, 2, 3) == [math.comb(80, m) for m in range(4)]


def test_count_carry_free_through_joins():
    g = star_graph(40)
    nd = nice_for(g)
    assert any(node.kind == "join" for node in nd.nodes)
    # d=2: any set of leaves, or the centre alone.
    expected = [math.comb(40, m) + (m == 1) for m in range(42)]
    assert count_scattered(g, nd, 2, 41) == expected
    # d=3: leaves are 2 apart, so only singletons.
    assert count_scattered(g, nd, 3, 41) == [1, 41] + [0] * 40


def _decompositions(g: WeightedGraph):
    td = heuristic_decomposition(g)
    yield "heuristic", td
    yield "balanced", balance(td, g)
    yield "td round trip", parse_td(format_td(td, g.n))


def test_dp_matches_brute_force_on_other_decompositions():
    for seed in range(30):
        p = Fraction(2 + seed % 5, 10)
        spec = RandomSpec(n=4 + seed % 9, edge_probability=p, max_weight=4, seed=900 + seed)
        g = gen_random_graph(spec)
        d = 2 + seed % 5
        counts = brute_force_count(g, d, g.n)
        best = brute_force_max(g, d)[0]
        for name, td in _decompositions(g):
            nd = make_nice(td)
            assert count_scattered(g, nd, d, g.n) == counts, (seed, name)
            size, witness = max_scattered(g, nd, d)
            assert size == best and len(witness) == size, (seed, name)
            assert scattered_violation(g, witness, d) is None, (seed, name)


def _elimination_decomposition(g: WeightedGraph, order: list[int]) -> TreeDecomposition:
    """Decomposition of an arbitrary elimination order, built as the heuristic builds its own."""
    work: list[set[int]] = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        work[u].add(v)
        work[v].add(u)
    position = {v: step for step, v in enumerate(order)}
    bags = []
    for v in order:
        nb = work[v]
        for u in nb:
            work[u] |= nb
            work[u].discard(u)
            work[u].discard(v)
        bags.append(tuple(sorted([v, *nb])))
    edges = []
    for step, v in enumerate(order):
        later = [position[u] for u in bags[step] if u != v]
        if later:
            edges.append((step, min(later)))
        elif step + 1 < g.n:
            edges.append((step, step + 1))
    return TreeDecomposition(bags=tuple(bags), tree_edges=tuple(edges), root=g.n - 1)


def test_dp_matches_brute_force_on_random_elimination_orders():
    rng = random.Random(5150)
    for i, g in enumerate(seeded_corpus(40, 11, 5, base_seed=5150)):
        order = list(range(g.n))
        rng.shuffle(order)
        td = _elimination_decomposition(g, order)
        assert validate_decomposition(g, td) is None, i
        nd = make_nice(td)
        d = 2 + i % 6
        assert count_scattered(g, nd, d, g.n) == brute_force_count(g, d, g.n), (i, order)
        size, witness = max_scattered(g, nd, d)
        assert size == brute_force_max(g, d)[0] and len(witness) == size, (i, order)
        assert scattered_violation(g, witness, d) is None, (i, order)


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


def test_max_witness_on_wide_edgeless_graph():
    # Vertex ids up to 79 exercise mask bits beyond one machine word.
    g = WeightedGraph(n=80, edges=())
    assert max_scattered(g, nice_for(g), 2) == (80, tuple(range(80)))


def test_max_witness_on_long_path():
    g = path_graph(200)
    size, witness = max_scattered(g, nice_for(g), 3)
    assert size == 67 and len(witness) == 67
    assert scattered_violation(g, witness, 3) is None


def test_max_witness_on_forest_with_isolated_vertices():
    # P30 on 0..29, a 10-leaf star centred at 30, isolated 41..69, P20 on
    # 70..89 and isolated 90..99.  At d=3 each path gives ceil(len/3), the
    # star 1, and every isolated vertex belongs to every maximum set.
    edges = [(i, i + 1, 1) for i in range(29)]
    edges += [(30, leaf, 1) for leaf in range(31, 41)]
    edges += [(i, i + 1, 1) for i in range(70, 89)]
    g = WeightedGraph(n=100, edges=tuple(edges))
    size, witness = max_scattered(g, nice_for(g), 3)
    assert size == 10 + 1 + 29 + 7 + 10 and len(witness) == size
    assert scattered_violation(g, witness, 3) is None
    assert set(range(41, 70)) | set(range(90, 100)) <= set(witness)


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
