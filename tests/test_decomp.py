"""Tree decompositions: heuristic, validation, nice form, balancing, I/O."""

from __future__ import annotations

import math

import pytest

from conftest import complete_graph, cycle_graph, path_graph, seeded_corpus, star_graph
from scatterset.decomp import (
    TreeDecomposition,
    balance,
    decomposition_depth,
    format_td,
    heuristic_decomposition,
    make_nice,
    max_introduce_depth,
    nice_to_tree,
    parse_td,
    validate_decomposition,
    validate_nice,
)


def _assert_valid(g, td):
    violation = validate_decomposition(g, td)
    assert violation is None, violation


@pytest.mark.parametrize(
    "g,width",
    [
        (path_graph(5), 1),
        (star_graph(6), 1),
        (cycle_graph(6), 2),
        (complete_graph(4), 3),
    ],
)
def test_heuristic_width_on_known_shapes(g, width):
    # Min-degree elimination is exact on trees, cycles, and cliques.
    td = heuristic_decomposition(g)
    _assert_valid(g, td)
    assert td.width == width


def test_heuristic_covers_disconnected_graphs():
    from scatterset.graph_core import WeightedGraph

    g = WeightedGraph(n=6, edges=((0, 1, 1), (3, 4, 2)))
    td = heuristic_decomposition(g)
    _assert_valid(g, td)


def test_validator_catches_missing_vertex():
    g = path_graph(3)
    td = TreeDecomposition(bags=((0, 1),), tree_edges=())
    violation = validate_decomposition(g, td)
    assert violation is not None and violation.kind == "vertex-coverage"


def test_validator_catches_missing_edge():
    g = path_graph(3)
    td = TreeDecomposition(bags=((0, 1), (2,)), tree_edges=((0, 1),))
    violation = validate_decomposition(g, td)
    assert violation is not None and violation.kind == "edge-coverage"


def test_validator_catches_disconnected_occurrence():
    g = path_graph(3)
    td = TreeDecomposition(
        bags=((0, 1), (1, 2), (0,)), tree_edges=((0, 1), (1, 2))
    )
    violation = validate_decomposition(g, td)
    assert violation is not None and violation.kind == "connectivity"


def test_validator_counts_a_repeated_bag_vertex_once():
    # Vertex 1 appears twice in bag 0; its two holder bags are adjacent.
    g = path_graph(2)
    td = TreeDecomposition(bags=((0, 1, 1), (1,)), tree_edges=((0, 1),))
    _assert_valid(g, td)


def test_validator_reports_violations_in_order():
    # The first three cases also break later properties; the earliest check wins.
    g = path_graph(4)
    edges = ((0, 1), (1, 2))
    cases = [
        (((0, 9), (1,), (2, 3)), "structure", (9,)),
        (((0, 1), (3,), (0,)), "vertex-coverage", (2,)),
        (((0, 1), (3, 2), (0,)), "edge-coverage", (1, 2)),
        (((0, 1), (1, 2, 3), (0,)), "connectivity", (0,)),
    ]
    for bags, kind, witness in cases:
        violation = validate_decomposition(g, TreeDecomposition(bags=bags, tree_edges=edges))
        assert violation is not None and (violation.kind, violation.witness) == (kind, witness)


def test_validator_catches_broken_tree():
    g = path_graph(2)
    td = TreeDecomposition(bags=((0, 1), (0, 1)), tree_edges=())
    violation = validate_decomposition(g, td)
    assert violation is not None and violation.kind == "structure"


def test_make_nice_validates_and_preserves_width():
    for g in (path_graph(6), cycle_graph(5), complete_graph(4)):
        td = heuristic_decomposition(g)
        nd = make_nice(td)
        assert validate_nice(nd) is None
        assert nd.width == td.width
        _assert_valid(g, nice_to_tree(nd))


def test_nice_round_trip_through_text():
    g = cycle_graph(6)
    nd = make_nice(heuristic_decomposition(g))
    text = format_td(nice_to_tree(nd), g.n)
    _assert_valid(g, parse_td(text))


def test_balance_bounds_on_long_path():
    # Pinned case: the 64-vertex path decomposes to depth <= 28.
    g = path_graph(64)
    td = heuristic_decomposition(g)
    btd = balance(td, g)
    _assert_valid(g, btd)
    assert btd.width <= 3 * td.width + 2
    assert decomposition_depth(btd) <= 28
    assert decomposition_depth(btd) <= 4 * math.ceil(math.log2(g.n + 1)) + 4


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_balance_bounds_on_random_graphs(seed):
    for g in seeded_corpus(10, 11, 3, base_seed=700 + seed):
        td = heuristic_decomposition(g)
        btd = balance(td, g)
        _assert_valid(g, btd)
        assert btd.width <= 3 * td.width + 2
        assert decomposition_depth(btd) <= 4 * math.ceil(math.log2(g.n + 1)) + 4


def test_depth_measures():
    td = TreeDecomposition(
        bags=((0,), (0, 1), (1, 2)), tree_edges=((0, 1), (1, 2))
    )
    # Depth counts edges on the longest root-to-leaf path.
    assert decomposition_depth(td) == 2
    assert decomposition_depth(TreeDecomposition(bags=((0,),), tree_edges=())) == 0
    nd = make_nice(td)
    assert max_introduce_depth(nd) >= 1


def test_format_parse_round_trip():
    td = TreeDecomposition(bags=((0, 2), (1, 2)), tree_edges=((0, 1),))
    parsed = parse_td(format_td(td, 3))
    assert parsed.bags == td.bags
    assert sorted(parsed.tree_edges) == sorted(td.tree_edges)


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "s td 1 2 3\nb 2 1\n",  # bag id out of range
        "s td x\n",  # malformed header
        "s td 2 2 2\nb 1 1\nb 2 2\n1 3\n",  # tree edge out of range
        # The id check must not build a set the size of the header's count.
        f"s td {10**12} 2 2\nb 1 1\nb 2 2\n1 2\n",
    ],
)
def test_parse_td_rejects_malformed_input(text):
    with pytest.raises(ValueError):
        parse_td(text)


@pytest.mark.parametrize(
    "text",
    [
        "s td 1 1 1\nb 1 1\n5\n",  # tree edge with one field
        "s td 2 2 2\nb 1 1\n1 2 3\n",  # tree edge with three fields
        "s td 1 1 1\nb 1\nb\n",  # bag line without an id
        "s td 2 2 2\nb 1 1\nb 2 x\n",  # non-integer bag vertex
        "s td 2 2 2\nb 1 1\n1 two\n",  # non-integer tree edge
        "s td 2 2 2\nb 1 1\nb 1 2\n",  # duplicate bag id
        "c one\nc two\ns td x 1 1\n",  # non-integer header field
        "c one\nc two\ns td -5 1 1\n",  # negative bag count
    ],
)
def test_parse_td_errors_name_the_line(text):
    with pytest.raises(ValueError, match="^line 3: "):
        parse_td(text)


def test_parse_td_skips_comments():
    td = parse_td("c note\ns td 1 1 1\nb 1 1\n")
    assert td.bags == ((0,),)
