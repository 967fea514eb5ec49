"""Graph container, .dss parsing, distances, and scatteredness checks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import (
    complete_graph,
    cycle_graph,
    diameter,
    max_finite_distance,
    path_graph,
    star_graph,
)
from scatterset.graph_core import (
    INF,
    ParseError,
    WeightedGraph,
    all_pairs_distances,
    connected_components,
    dijkstra_from,
    distances_within,
    format_dss,
    induced_subgraph,
    is_scattered,
    parse_graph,
    scattered_violation,
    vertex_set,
)
from scatterset.oracle import RandomSpec, gen_random_graph


def test_graph_requires_positive_n():
    with pytest.raises(ValueError):
        WeightedGraph(n=0, edges=())


@pytest.mark.parametrize(
    "edges",
    [
        ((0, 0, 1),),  # self loop
        ((0, 1, 0),),  # non-positive weight
        ((0, 3, 1),),  # endpoint out of range
        ((0, 1, 1), (1, 0, 2)),  # duplicate pair
    ],
)
def test_graph_rejects_bad_edges(edges):
    with pytest.raises(ValueError):
        WeightedGraph(n=3, edges=edges)


def test_adjacency_and_degree():
    g = star_graph(4)
    assert g.degree(0) == 4
    assert sorted(v for v, _ in g.adjacency[0]) == [1, 2, 3, 4]
    assert g.adjacency[2] == ((0, 1),)


def test_has_unit_weights():
    assert path_graph(3).has_unit_weights()
    assert not path_graph(3, weight=2).has_unit_weights()


def test_dijkstra_weighted_path():
    # Distances along a 3-edge path with weights 2, 5, 1: 0, 2, 7, 8.
    g = WeightedGraph(n=4, edges=((0, 1, 2), (1, 2, 5), (2, 3, 1)))
    assert dijkstra_from(g, 0) == [0, 2, 7, 8]
    assert dijkstra_from(g, 3) == [8, 6, 1, 0]


def test_distances_within_matches_dijkstra_below_the_radius():
    rng = random.Random(2700)
    for i in range(60):
        spec = RandomSpec(rng.randint(1, 30), Fraction(rng.randint(1, 5), 20), rng.randint(1, 9), i)
        g = gen_random_graph(spec)
        for _ in range(4):
            source = rng.randrange(g.n)
            full = dijkstra_from(g, source)
            targets = set(rng.sample(range(g.n), rng.randint(0, g.n)))
            radius = rng.randint(0, 40)
            near = distances_within(g, source, targets, radius)
            assert near == {t: full[t] for t in targets if full[t] < radius}, (i, source)


def test_distances_within_stops_at_the_radius_and_the_last_target():
    g = path_graph(6)
    assert distances_within(g, 0, {2, 5}, 3) == {2: 2}
    assert distances_within(g, 0, {0, 1}, 10) == {0: 0, 1: 1}
    assert distances_within(g, 0, set(), 10) == {}
    assert distances_within(g, 0, {0}, 0) == {}


def test_disconnected_distance_is_inf():
    g = WeightedGraph(n=3, edges=((0, 1, 1),))
    assert dijkstra_from(g, 0)[2] == INF
    assert diameter(g) == INF
    assert max_finite_distance(g) == 1


def test_all_pairs_matches_single_source():
    g = cycle_graph(7, weight=3)
    dist = all_pairs_distances(g)
    for s in range(g.n):
        assert list(dist[s]) == dijkstra_from(g, s)
    assert dist[0][3] == 9


@pytest.mark.parametrize("n,expected", [(3, 1), (5, 2), (6, 3), (9, 4)])
def test_cycle_diameter(n, expected):
    assert diameter(cycle_graph(n)) == expected


def test_is_scattered_path_cases():
    g = path_graph(5)
    assert is_scattered(g, (0, 3), 3)
    assert is_scattered(g, (0, 4), 3)
    assert not is_scattered(g, (0, 2), 3)
    assert is_scattered(g, (), 9)
    assert is_scattered(g, (2,), 9)


def test_scattered_violation_reports_closest_offender():
    g = path_graph(5)
    assert scattered_violation(g, (0, 3), 3) is None
    bad = scattered_violation(g, (0, 2), 3)
    assert bad == (0, 2, 2)


def test_scattered_violation_reports_the_smallest_repeat_first():
    # A member listed twice is the pair (v, v, 0), ahead of any distance
    # violation (3 and 4 are adjacent) and wherever it is listed.
    g = path_graph(5)
    assert scattered_violation(g, [4, 0, 3, 1, 3, 0], 3) == (0, 0, 0)
    assert scattered_violation(g, [4, 2, 4], 2) == (4, 4, 0)
    assert not is_scattered(g, (0, 0), 2)


def test_disconnected_members_always_scattered():
    g = WeightedGraph(n=4, edges=((0, 1, 1), (2, 3, 1)))
    assert is_scattered(g, (0, 2), 10**9)


def test_vertex_set_sorts_and_dedups():
    g = path_graph(4)
    assert vertex_set(g, [2, 0, 2]) == (0, 2)
    with pytest.raises(ValueError):
        vertex_set(g, [4])


def test_format_parse_round_trip():
    g = WeightedGraph(n=5, edges=((0, 4, 2), (1, 2, 1), (3, 4, 7)))
    assert parse_graph(format_dss(g)) == g


def test_parse_graph_accepts_comments_and_blank_lines():
    text = "c a comment\n\np dss 2 1\nc mid\ne 1 2 3\n"
    g = parse_graph(text)
    assert g.n == 2 and g.edges == ((0, 1, 3),)


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("", None),  # missing header
        ("e 1 2 1\n", 1),  # edge before header
        ("p dss 3 1\ne 1 1 1\n", 2),  # self loop
        ("p dss 3 1\ne 1 2 0\n", 2),  # zero weight
        ("p dss 3 1\ne 1 4 1\n", 2),  # vertex out of range
        ("p dss 3 2\ne 1 2 1\ne 2 1 5\n", 3),  # duplicate edge
        ("p dss 3 9\ne 1 2 1\n", None),  # edge count mismatch
        ("p dss 2 0\ncfoo\n", 2),  # only a first field 'c' makes a comment
        ("p dss 2 0\ncomment-less line\n", 2),
        ("p dss 0 0\n", 1),  # no vertices
        ("p dss 3 -1\n", 1),  # negative edge count
    ],
)
def test_parse_graph_rejects_malformed_input(text, line_no):
    with pytest.raises(ValueError) as info:
        parse_graph(text)
    assert getattr(info.value, "line_no", None) == line_no
    assert isinstance(info.value, ParseError) == (line_no is not None)


def test_connected_components_partition():
    g = WeightedGraph(n=6, edges=((0, 1, 1), (1, 2, 1), (4, 5, 1)))
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3], [4, 5]]


def test_induced_subgraph_remaps_ids_and_weights():
    g = WeightedGraph(n=5, edges=((1, 3, 4), (3, 4, 2), (0, 2, 1)))
    sub, old_ids = induced_subgraph(g, [1, 3, 4])
    assert list(old_ids) == [1, 3, 4]
    assert sub.n == 3
    assert sorted(sub.edges) == [(0, 1, 4), (1, 2, 2)]
