"""Tree decompositions: heuristic, validation, nice form, balancing, I/O."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from conftest import complete_graph, cycle_graph, path_graph, seeded_corpus, star_graph
from scatterset.decomp import (
    NiceDecomposition,
    NiceNode,
    TreeDecomposition,
    Violation,
    _parents,
    balance,
    decomposition_depth,
    format_td,
    heuristic_decomposition,
    make_nice,
    max_introduce_depth,
    nice_to_tree,
    parse_td,
    postorder,
    validate_decomposition,
    validate_nice,
)
from scatterset.gadgets import gen_seth, parse_cnf
from scatterset.graph_core import ParseError, WeightedGraph
from scatterset.oracle import RandomSpec, brute_force_count, brute_force_max, gen_random_graph
from scatterset.tw_exact import count_scattered, max_scattered


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
    g = WeightedGraph(n=6, edges=((0, 1, 1), (3, 4, 2)))
    td = heuristic_decomposition(g)
    _assert_valid(g, td)


def _reference_min_fill(g: WeightedGraph) -> TreeDecomposition:
    """The quadratic min-fill: rescans every live vertex's fill at each step."""
    n = g.n
    work: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        work[u].add(v)
        work[v].add(u)
    alive = set(range(n))
    order: list[int] = []
    position = [0] * n
    elim_bags: list[tuple[int, ...]] = []
    for step in range(n):
        best_v = -1
        best_fill = -1
        for v in sorted(alive):
            nb = [u for u in work[v] if u in alive]
            fill = 0
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    if nb[j] not in work[nb[i]]:
                        fill += 1
            if best_fill < 0 or fill < best_fill:
                best_fill = fill
                best_v = v
        nb = sorted(u for u in work[best_v] if u in alive)
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                work[nb[i]].add(nb[j])
                work[nb[j]].add(nb[i])
        alive.remove(best_v)
        order.append(best_v)
        position[best_v] = step
        elim_bags.append(tuple(sorted([best_v] + nb)))
    edges: list[tuple[int, int]] = []
    for step, v in enumerate(order):
        later = [u for u in elim_bags[step] if u != v]
        if later:
            parent = min(later, key=lambda u: position[u])
            edges.append((step, position[parent]))
        elif step + 1 < n:
            edges.append((step, step + 1))
    return TreeDecomposition(bags=tuple(elim_bags), tree_edges=tuple(edges), root=n - 1)


def _banded(n: int, band: int, seed: int) -> WeightedGraph:
    """Path 0..n-1 plus each chord of span <= band with probability 1/2."""
    rng = random.Random(seed)
    edges = []
    for u in range(n - 1):
        edges.append((u, u + 1, 1 + rng.randrange(3)))
        for v in range(u + 2, min(n, u + band + 1)):
            if rng.randrange(2):
                edges.append((u, v, 1))
    return WeightedGraph(n=n, edges=tuple(edges))


def _cover_shape(cover: int, outside: int, seed: int) -> WeightedGraph:
    """Cover vertices on a path with chords; each outside vertex hangs from one or two."""
    rng = random.Random(seed)
    edges = [(a, a + 1, 1) for a in range(cover - 1)]
    edges += [(a, b, 1) for a in range(cover) for b in range(a + 2, cover) if rng.randrange(4) == 0]
    for v in range(cover, cover + outside):
        edges += [(a, v, 1) for a in sorted(rng.sample(range(cover), rng.randint(1, 2)))]
    return WeightedGraph(n=cover + outside, edges=tuple(edges))


def _min_fill_corpus():
    rng = random.Random(6100)
    for i in range(40):
        p = Fraction(rng.randint(1, 8), 20)
        yield f"random{i}", gen_random_graph(RandomSpec(rng.randint(1, 60), p, 1, 6100 + i))
    # Dense graphs: most eliminations add fill edges, which lower the fill
    # of every vertex adjacent to both ends.
    for i in range(30):
        p = Fraction(rng.randint(10, 19), 20)
        yield f"dense{i}", gen_random_graph(RandomSpec(rng.randint(2, 30), p, 1, 6200 + i))
    yield "band400", _banded(400, 4, 1)
    yield "band1000", _banded(1000, 4, 2)
    for cover in (6, 9, 12):
        yield f"cover{cover}", _cover_shape(cover, 12 * cover, cover)
    yield "seth", gen_seth(parse_cnf("p cnf 1 1\n1 0\n"), 4, Fraction(1)).graph


def test_heuristic_matches_quadratic_min_fill():
    # Same elimination order, bags, tree edges and root as a full rescan.
    for name, g in _min_fill_corpus():
        td = heuristic_decomposition(g)
        ref = _reference_min_fill(g)
        assert (td.bags, td.tree_edges, td.root) == (ref.bags, ref.tree_edges, ref.root), name


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


def test_validator_counts_each_separate_group_of_bags():
    # Bag 0 is joined to bags 1, 2 and 3.  Vertex 3's bags are connected
    # through bag 0; vertices 4 and 5 sit in bags 1, 2 and 3 only, three
    # separate groups whatever the root, and the lower one is reported.
    g = WeightedGraph(n=6, edges=())
    bags = ((0, 3), (1, 3, 4, 5), (2, 3, 4, 5), (4, 5))
    for root in range(4):
        td = TreeDecomposition(bags=bags, tree_edges=((0, 1), (0, 2), (3, 0)), root=root)
        violation = validate_decomposition(g, td)
        assert violation is not None
        assert (violation.kind, violation.witness) == ("connectivity", (4,)), root


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


@pytest.mark.parametrize(
    "td,message",
    [
        (TreeDecomposition(bags=(), tree_edges=()), "decomposition has no nodes"),
        (TreeDecomposition(bags=((0, 1),), tree_edges=(), root=1), "root 1 out of range"),
        (
            TreeDecomposition(bags=((0, 1), (1,)), tree_edges=((1, 1),)),
            "bad tree edge (1,1)",
        ),
    ],
    ids=["no-bags", "root-out-of-range", "self-edge"],
)
def test_validator_refuses_malformed_trees(td, message):
    violation = validate_decomposition(path_graph(2), td)
    assert violation is not None
    assert (violation.kind, violation.message) == ("structure", message)


def _reference_validate(g: WeightedGraph, td: TreeDecomposition) -> Violation | None:
    """The holders-based validator that `_check_tops` replaced, kept as a reference.

    Each bag vertex maps to the bags holding it; an edge is covered when its
    ends share a holder, and v's holders are connected when exactly one of
    them is the root or has a parent bag without v.
    """
    parent = _parents(td)
    if isinstance(parent, Violation):
        return parent
    holders: dict[int, list[int]] = {}
    for i, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < g.n):
                return Violation("structure", f"bag vertex {v} out of range", (v,))
            held = holders.setdefault(v, [])
            if not held or held[-1] != i:
                held.append(i)
    if len(holders) < g.n:
        v = next(v for v in range(g.n) if v not in holders)
        return Violation("vertex-coverage", f"vertex {v} in no bag", (v,))
    for u, v, _ in g.edges:
        if set(holders[u]).isdisjoint(holders[v]):
            return Violation("edge-coverage", f"edge ({u},{v}) in no bag", (u, v))
    owner = [-1] * len(td.bags)
    for v in range(g.n):
        held = holders[v]
        for i in held:
            owner[i] = v
        tops = sum(1 for i in held if parent[i] < 0 or owner[parent[i]] != v)
        if tops > 1:
            return Violation(
                "connectivity", f"bags containing vertex {v} are not connected in the tree", (v,)
            )
    return None


def _as_triple(bad: Violation | None):
    return None if bad is None else (bad.kind, bad.message, bad.witness)


MUTATIONS = ("drop", "add", "repeat", "out-of-range", "rewire", "move-root", "empty", "merge")


def _mutated_trees(seed: int, count: int):
    """`count` (mutation, graph, plain decomposition) triples, each broken one or two ways.

    The shapes are heuristic decompositions, their balanced forms and their
    nice forms viewed as plain trees.
    """
    rng = random.Random(seed)
    shapes = []
    for g in seeded_corpus(60, 14, 3, base_seed=seed):
        td = heuristic_decomposition(g)
        shapes += [(g, td), (g, balance(td, g)), (g, nice_to_tree(make_nice(td)))]
    for _ in range(count):
        g, td = rng.choice(shapes)
        bags, edges, root = [list(b) for b in td.bags], list(td.tree_edges), td.root
        names = []
        for _ in range(rng.randint(1, 2)):
            mutation = rng.choice(MUTATIONS)
            names.append(mutation)
            i, j = rng.randrange(len(bags)), rng.randrange(len(bags))
            if mutation == "drop" and bags[i]:
                bags[i].remove(rng.choice(bags[i]))
            elif mutation == "add":
                bags[i].append(rng.randrange(g.n))
            elif mutation == "repeat" and bags[i]:
                bags[i].insert(rng.randrange(len(bags[i]) + 1), rng.choice(bags[i]))
            elif mutation == "out-of-range":
                bags[i].append(rng.choice([-1, g.n, g.n + 3]))
            elif mutation == "rewire" and edges:
                e = rng.randrange(len(edges))
                a, b = edges[e]
                end = rng.randrange(-1, len(bags) + 1) if rng.randrange(8) == 0 else j
                edges[e] = (a, end) if rng.randrange(2) else (end, b)
            elif mutation == "move-root":
                root = j if rng.randrange(8) else len(bags)
            elif mutation == "empty":
                bags[i] = []
            elif mutation == "merge":
                bags[i] = sorted(set(bags[i]) | set(bags[j]))
        yield "+".join(names), g, TreeDecomposition(tuple(map(tuple, bags)), tuple(edges), root)


def test_top_bag_validator_matches_the_reference_on_mutated_trees():
    # Same first violation, kind, message and witness, as the holders-based
    # reference, and every outcome the plain validator has is reached.
    seen: dict[str, set] = {}
    cases = 0
    for mutation, g, td in _mutated_trees(9300, 3000):
        got = _as_triple(validate_decomposition(g, td))
        assert got == _as_triple(_reference_validate(g, td)), (mutation, td)
        for name in mutation.split("+"):
            seen.setdefault(name, set()).add(None if got is None else got[0])
        cases += 1
    assert cases == 3000
    kinds = set().union(*seen.values())
    assert kinds == {None, "structure", "vertex-coverage", "edge-coverage", "connectivity"}
    assert seen["out-of-range"] >= {"structure"} and seen["rewire"] >= {"structure"}
    assert seen["drop"] >= {"vertex-coverage", "edge-coverage"}
    assert seen["add"] >= {"connectivity"} and seen["merge"] >= {"connectivity"}
    assert seen["repeat"] >= {None} and seen["move-root"] >= {None}


def _three_call_check(g: WeightedGraph, nd: NiceDecomposition):
    """The engine's input check, spelled out as (kind, message, witness).

    The nice rules node by node, where a parent's bag is its child's with
    one vertex put in or taken out and the rest in order; the child lists
    as one tree under the root, counted and walked; then the holders-based
    reference on the nice form viewed as a plain tree.
    """
    nodes = nd.nodes
    for i, node in enumerate(nodes):
        kids = node.children
        if node.kind == "leaf":
            if kids or len(node.bag) != 1:
                return ("nice", f"node {i}: leaf must have no children and a size-1 bag", ())
        elif node.kind in ("introduce", "forget"):
            if len(kids) != 1:
                return ("nice", f"node {i}: {node.kind} needs exactly one child", ())
            child, own, v = nodes[kids[0]].bag, node.bag, node.vertex
            big, small = (own, child) if node.kind == "introduce" else (child, own)
            if v in small or len(big) != len(small) + 1 or tuple(x for x in big if x != v) != small:
                return ("nice", f"node {i}: {node.kind} bag mismatch", ())
        elif node.kind == "join":
            if len(kids) != 2:
                return ("nice", f"node {i}: join needs two children", ())
            if any(nodes[c].bag != node.bag for c in kids):
                return ("nice", f"node {i}: join children bags differ from own bag", ())
        else:
            return ("nice", f"node {i}: unknown kind {node.kind!r}", ())
    if nodes[nd.root].bag != ():
        return ("nice", "root bag is not empty", ())
    parents = [0] * len(nodes)
    for node in nodes:
        for c in node.children:
            parents[c] += 1
    reached, stack = {nd.root}, [nd.root]
    while stack:
        for c in nodes[stack.pop()].children:
            if c not in reached:
                reached.add(c)
                stack.append(c)
    others = [i for i in range(len(nodes)) if i != nd.root]
    if parents[nd.root] or any(parents[i] != 1 for i in others) or len(reached) < len(nodes):
        bad = _parents(nice_to_tree(nd))
        if isinstance(bad, Violation):
            return _as_triple(bad)
        orphan = min(i for i in others if not parents[i])
        return ("structure", f"node {orphan} is no node's child", (orphan,))
    return _as_triple(_reference_validate(g, nice_to_tree(nd)))


def _splice(nd: NiceDecomposition, at: int, chain) -> NiceDecomposition:
    """`nd` with (kind, bag, vertex) nodes put between node `at` and its parent.

    The first is `at`'s new parent and each next one the parent of the one
    before.  They take the ids after `at` and later ids move up, so every
    child still precedes its parent.
    """
    k = len(chain)

    def moved(c: int) -> int:
        return c + k if c > at else c

    nodes = []
    for i, node in enumerate(nd.nodes):
        kids = tuple(at + k if c == at else moved(c) for c in node.children)
        nodes.append(dataclasses.replace(node, children=kids))
        if i == at:
            nodes += [NiceNode(kind, bag, (at + j,), v) for j, (kind, bag, v) in enumerate(chain)]
    return NiceDecomposition(tuple(nodes), moved(nd.root))


def _with_bag(nd: NiceDecomposition, i: int, bag) -> NiceDecomposition:
    nodes = list(nd.nodes)
    nodes[i] = dataclasses.replace(nodes[i], bag=tuple(sorted(bag)))
    return NiceDecomposition(tuple(nodes), nd.root)


def _broken_nice_forms(seed: int):
    """(mutation, graph, nice form) triples, each nice form broken once."""
    rng = random.Random(seed)
    for i, g in enumerate(seeded_corpus(40, 12, 3, base_seed=seed)):
        td = heuristic_decomposition(g)
        nd = make_nice(balance(td, g) if i % 2 else td)
        nodes = nd.nodes
        inner = [j for j in range(len(nodes)) if j != nd.root]
        filled = [j for j in range(len(nodes)) if nodes[j].bag]
        j = rng.choice(filled)
        yield "dropped", g, _with_bag(nd, j, set(nodes[j].bag) - {rng.choice(nodes[j].bag)})
        j = rng.randrange(len(nodes))
        extra = [v for v in range(g.n) if v not in nodes[j].bag]
        if extra:
            yield "added", g, _with_bag(nd, j, {*nodes[j].bag, rng.choice(extra)})
        forgets = [j for j in inner if nodes[j].kind == "forget"]
        if forgets:
            j = rng.choice(forgets)
            v, bag = nodes[j].vertex, nodes[j].bag
            chain = [("introduce", tuple(sorted(bag + (v,))), v), ("forget", bag, v)]
            yield "forgotten-twice", g, _splice(nd, j, chain)
        j = rng.choice(inner)
        x, bag = rng.choice([-1, g.n, g.n + 2]), nodes[j].bag
        chain = [("introduce", tuple(sorted(bag + (x,))), x), ("forget", bag, x)]
        yield "out-of-range", g, _splice(nd, j, chain)
        joins = [j for j in range(len(nodes)) if nodes[j].kind == "join"]
        if joins:
            j = rng.choice(joins)
            kids = list(nodes[j].children)
            side = rng.randrange(2)
            kids[side] = rng.choice([c for c in range(len(nodes)) if c not in (j, kids[side])])
            shared = list(nodes)
            shared[j] = dataclasses.replace(nodes[j], children=tuple(kids))
            yield "shared-child", g, NiceDecomposition(tuple(shared), nd.root)
        orphan = NiceNode("leaf", (rng.randrange(g.n),), ())
        yield "orphaned", g, NiceDecomposition(nodes + (orphan,), nd.root)
        # A copy of some node's parent that no node lists: the plain view is
        # still a tree, one edge longer.
        parent = {c: p for p, node in enumerate(nodes) for c in node.children}
        copy = nodes[parent[rng.choice(inner)]]
        yield "dangling-parent", g, NiceDecomposition(nodes + (copy,), nd.root)
        # The same bag set in another order, which the engine's fields follow.
        wide = [
            j for j, node in enumerate(nodes)
            if node.kind in ("introduce", "forget") and len(node.bag) > 1
        ]
        if wide:
            j = rng.choice(wide)
            turn = rng.randrange(1, len(nodes[j].bag))
            reordered = list(nodes)
            reordered[j] = dataclasses.replace(nodes[j], bag=nodes[j].bag[turn:] + nodes[j].bag[:turn])
            yield "reordered-bag", g, NiceDecomposition(tuple(reordered), nd.root)
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        missing = sorted(set(pairs) - {(min(u, v), max(u, v)) for u, v, _ in g.edges})
        if missing:
            u, v = rng.choice(missing)
            edges = list(g.edges)
            edges.insert(rng.randint(0, len(edges)), (u, v, 1))
            yield "uncovered-edge", WeightedGraph(n=g.n, edges=tuple(edges)), nd
        yield "uncovered-vertex", WeightedGraph(n=g.n + 1, edges=g.edges), nd


def test_one_pass_nice_check_matches_the_three_calls(monkeypatch):
    # Same first violation, kind, message and witness as the nice rules, the
    # shape rule and the holders-based validator on the plain tree, and
    # never through `validate_decomposition`.
    import scatterset.decomp as decomp

    def refuse(g, td):
        raise AssertionError("validate_nice called validate_decomposition")

    # `balance` validates its input, so the forms are built first.
    forms = list(_broken_nice_forms(9100))
    monkeypatch.setattr(decomp, "validate_decomposition", refuse)
    seen: dict[str, set] = {}
    for mutation, g, nd in forms:
        bad = validate_nice(nd, g)
        got = None if bad is None else (bad.kind, bad.message, bad.witness)
        assert got == _three_call_check(g, nd), mutation
        seen.setdefault(mutation, set()).add(None if got is None else got[0])
    assert seen["forgotten-twice"] >= {"connectivity"}
    assert seen["out-of-range"] == {"structure"}
    assert seen["uncovered-edge"] >= {"edge-coverage"}
    assert seen["uncovered-vertex"] == {"vertex-coverage"}
    assert seen["dropped"] >= {"nice"} and seen["added"] >= {"nice"}
    assert seen["shared-child"] == {"structure", "nice"} and seen["orphaned"] == {"structure"}
    assert seen["dangling-parent"] == {"structure"} and seen["reordered-bag"] >= {"nice"}


def _index_breaks(nd: NiceDecomposition):
    """Copies of nd whose root, or one child of its first introduce and first
    join, is len(nodes) or -1: an index that names no node."""
    count = len(nd.nodes)
    for r in (count, -1):
        yield dataclasses.replace(nd, root=r)
    for kind in ("introduce", "join"):
        i = next((i for i, node in enumerate(nd.nodes) if node.kind == kind), None)
        if i is None:
            continue
        for side in range(len(nd.nodes[i].children)):
            for c in (count, -1):
                kids = list(nd.nodes[i].children)
                kids[side] = c
                nodes = list(nd.nodes)
                nodes[i] = dataclasses.replace(nodes[i], children=tuple(kids))
                yield NiceDecomposition(tuple(nodes), nd.root)


@pytest.mark.parametrize(
    "g, edges",
    [
        (path_graph(3), ("(1,6)", "(1,-1)")),
        (star_graph(3), ("(1,10)", "(1,-1)", "(6,10)", "(6,-1)")),
    ],
    ids=["path", "star"],
)
def test_nice_check_reports_indices_that_name_no_node(g, edges):
    # The plain validator's structure violation, with or without g, where an
    # unchecked index would raise IndexError or read the last node's bag.
    nd = make_nice(heuristic_decomposition(g))
    seen = set()
    for bad in _index_breaks(nd):
        want = validate_decomposition(g, nice_to_tree(bad))
        assert want is not None and want.kind == "structure"
        assert validate_nice(bad, g) == want
        assert validate_nice(bad) == want
        with pytest.raises(ValueError) as info:
            max_scattered(g, bad, 3)
        assert str(info.value) == f"invalid decomposition: {want.message}"
        seen.add(want.message)
    roots = {f"root {r} out of range" for r in (len(nd.nodes), -1)}
    assert seen == roots | {f"bad tree edge {e}" for e in edges}


def test_nice_check_refuses_child_lists_that_are_no_tree_under_the_root():
    # Two vertices, no edge.  Root 1 forgets leaf 0's vertex, and node 2,
    # which no node lists, introduces vertex 1 above the same leaf.  As an
    # undirected tree this is a path, which the plain validator accepts;
    # the engine read it as max 1 and counts [1, 1, 0], against 2 and
    # [1, 2, 1].  Adding a forget and an introduce that list each other
    # keeps one parent per node but leaves them out of the root's tree.
    g = WeightedGraph(n=2, edges=())
    leaf = NiceNode("leaf", (0,), ())
    root = NiceNode("forget", (), (0,), 0)
    dangling = (leaf, root, NiceNode("introduce", (0, 1), (0,), 1))
    looped = (leaf, root, NiceNode("forget", (), (3,), 1), NiceNode("introduce", (1,), (2,), 1))
    cases = [
        (NiceDecomposition(dangling, 1), Violation("structure", "node 2 is no node's child", (2,))),
        (NiceDecomposition(looped, 1), Violation("structure", "decomposition tree is not connected")),
    ]
    assert validate_decomposition(g, nice_to_tree(cases[0][0])) is None
    for nd, want in cases:
        assert validate_nice(nd) == want and validate_nice(nd, g) == want
        with pytest.raises(ValueError, match=f"^invalid decomposition: {want.message}$"):
            max_scattered(g, nd, 2)
        with pytest.raises(ValueError, match=f"^invalid decomposition: {want.message}$"):
            count_scattered(g, nd, 2, 2)


def test_nice_check_refuses_a_vertex_put_in_twice():
    # Bag (0, 0) above leaf (0,), forgotten twice down to the empty root:
    # without g no decomposition property would catch the repeat.
    nodes = (
        NiceNode("leaf", (0,), ()),
        NiceNode("introduce", (0, 0), (0,), 0),
        NiceNode("forget", (0,), (1,), 0),
        NiceNode("forget", (), (2,), 0),
    )
    assert validate_nice(NiceDecomposition(nodes, 3)) == Violation("nice", "node 1: introduce bag mismatch")


def _shuffled_bags(nd: NiceDecomposition, rng: random.Random) -> NiceDecomposition:
    """nd with each introduce and forget bag shuffled, except at joins and their children."""
    nodes = list(nd.nodes)
    kept = {j for i, node in enumerate(nodes) if node.kind == "join" for j in (i, *node.children)}
    for i, node in enumerate(nodes):
        if node.kind in ("introduce", "forget") and i not in kept:
            bag = list(node.bag)
            rng.shuffle(bag)
            nodes[i] = dataclasses.replace(node, bag=tuple(bag))
    return NiceDecomposition(tuple(nodes), nd.root)


def test_nice_check_accepts_only_bag_orders_the_engine_reads():
    # The engine splices and cuts a bag field at the vertex's position and
    # keeps the others in order.  A set comparison accepted all 300 of
    # these forms, and the engine got 119 of them wrong.
    rng = random.Random(2700)
    refused: set[str] = set()
    unsorted = 0
    for i, g in enumerate(seeded_corpus(300, 10, 3, base_seed=2700)):
        nd = _shuffled_bags(make_nice(heuristic_decomposition(g)), rng)
        bad = validate_nice(nd, g)
        if bad is not None:
            refused.add(bad.message.split(": ")[-1])
            continue
        unsorted += any(list(node.bag) != sorted(node.bag) for node in nd.nodes)
        d = 2 + i % 3
        assert count_scattered(g, nd, d, g.n) == brute_force_count(g, d, g.n), i
        assert max_scattered(g, nd, d)[0] == brute_force_max(g, d)[0], i
    assert refused == {"introduce bag mismatch", "forget bag mismatch"}
    assert unsorted > 0


def test_nice_check_accepts_children_after_their_parent():
    # make_nice's ids reversed: every child follows its parent, so the
    # shape is confirmed by a walk from the root, and the answers hold.
    for g in seeded_corpus(30, 10, 3, base_seed=2710):
        nd = make_nice(heuristic_decomposition(g))
        last = len(nd.nodes) - 1
        flipped = NiceDecomposition(
            tuple(
                dataclasses.replace(node, children=tuple(last - c for c in node.children))
                for node in reversed(nd.nodes)
            ),
            last - nd.root,
        )
        assert validate_nice(flipped) is None and validate_nice(flipped, g) is None
        for d in (2, 3, 5):
            assert max_scattered(g, flipped, d) == max_scattered(g, nd, d)
            assert count_scattered(g, flipped, d, g.n) == count_scattered(g, nd, d, g.n)


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


def _balance_corpus():
    for s in range(200):
        rng = random.Random(s)
        n = rng.randint(2, 60)
        p = Fraction(rng.randint(1, 6), 10 * rng.randint(1, 3))
        yield gen_random_graph(RandomSpec(n, p, rng.randint(1, 5), s))
    yield _banded(400, 4, 1)
    yield _banded(1000, 4, 2)
    yield gen_seth(parse_cnf("p cnf 1 1\n1 0\n"), 4, Fraction(1)).graph


def test_balance_pinned():
    # Every balanced .td, hashed; the digest was taken when each separator's
    # parts came to hang directly below it.  Each tree is then the earlier
    # binary-merged one with every merge node (an inner node holding its
    # parent's bag) contracted into its parent, so any change to the
    # separators, the portals or the order of the parts shows here.
    texts = [format_td(balance(heuristic_decomposition(g), g), g.n) for g in _balance_corpus()]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "d1c32af29ef910ab8a6a0fbbe9c8abc573529db2a66b76fe8ec795c2d5d4c688"


def test_balance_at_scale():
    # Banded n = 10,000: the subtree-size search keeps this well under a second.
    g = _banded(10_000, 4, 3)
    td = heuristic_decomposition(g)
    btd = balance(td, g)
    _assert_valid(g, btd)
    assert btd.width <= 3 * td.width + 2
    assert decomposition_depth(btd) <= 4 * math.ceil(math.log2(g.n + 1)) + 4


def _pruned_trees(count: int):
    """Random trees with empty bags inside and a pendant subtree of empty bags."""
    for s in range(count):
        rng = random.Random(4400 + s)
        m = rng.randint(1, 25)
        nv = rng.randint(1, 8)
        bags = [
            () if rng.randrange(3) == 0 else tuple(sorted(rng.sample(range(nv), rng.randint(1, nv))))
            for _ in range(m)
        ]
        bags[rng.randrange(m)] = (rng.randrange(nv),)
        edges = [(rng.randrange(i), i) for i in range(1, m)]
        for i in range(m, m + rng.randint(1, 4)):
            bags.append(())
            edges.append((rng.randrange(i), i))
        rng.shuffle(edges)
        yield TreeDecomposition(bags=tuple(bags), tree_edges=tuple(edges), root=rng.randrange(m))


def test_make_nice_pinned_on_pruned_trees():
    # Subtrees of empty bags are dropped; any change to the nice form, its
    # node ids included, shows here.
    parts = [repr(make_nice(td)) for td in _pruned_trees(400)]
    assert hashlib.sha256("\0".join(parts).encode()).hexdigest() == "2b469a98b9e53c0668bafcab264321d505ae8d7d1a4bf81abb5babcfa107ce1d"


def _heuristic_and_balanced(count: int, base_seed: int):
    for g in seeded_corpus(count, 14, 4, base_seed=base_seed):
        td = heuristic_decomposition(g)
        yield g, td
        yield g, balance(td, g)


def _canonical(nd) -> tuple:
    """The nice tree from its root as nested (kind, bag, vertex, sorted child forms)."""
    forms: dict[int, tuple] = {}
    for i in postorder([node.children for node in nd.nodes], nd.root):
        node = nd.nodes[i]
        forms[i] = (node.kind, node.bag, node.vertex, tuple(sorted(forms[c] for c in node.children)))
    return forms[nd.root]


def test_make_nice_maps_a_nice_input_onto_itself():
    # The benchmark's pinned nice .td files rely on this: their DP work is
    # fixed by the file, not by how `make_nice` joins children.
    checked = 0
    for g, td in _heuristic_and_balanced(60, 5600):
        nd = make_nice(td)
        assert nd.width == td.width
        _assert_valid(g, nice_to_tree(nd))
        again = make_nice(nice_to_tree(nd))
        assert validate_nice(again) is None
        assert _canonical(again) == _canonical(nd)
        checked += 1
    assert checked == 120


def test_introduce_depth_in_closed_form():
    # A path of the nice form introduces a leaf bag's vertices but its first,
    # then what each parent bag adds to its child's.  The approximation's
    # delta is read off this depth, so any nice form must keep it.
    checked = 0
    for g, td in _heuristic_and_balanced(60, 5700):
        assert all(td.bags)
        children = [[] for _ in td.bags]
        for a, b in td.tree_edges:
            children[a].append(b)
            children[b].append(a)
        best = 0
        stack = [(td.root, -1, 0)]
        while stack:
            u, parent, added = stack.pop()
            kids = [c for c in children[u] if c != parent]
            if not kids:
                best = max(best, len(set(td.bags[u])) - 1 + added)
            for c in kids:
                stack.append((c, u, added + len(set(td.bags[u]) - set(td.bags[c]))))
        assert max_introduce_depth(make_nice(td)) == best
        checked += 1
    assert checked == 120


def test_depth_measures():
    td = TreeDecomposition(
        bags=((0,), (0, 1), (1, 2)), tree_edges=((0, 1), (1, 2))
    )
    # Depth counts edges on the longest root-to-leaf path.
    assert decomposition_depth(td) == 2
    assert decomposition_depth(TreeDecomposition(bags=((0,),), tree_edges=())) == 0
    # A cycle plus a node it does not reach is no tree, so it has no depth.
    broken = TreeDecomposition(bags=((0,),) * 4, tree_edges=((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError, match="tree is not connected"):
        decomposition_depth(broken)
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
        "s td 1 3 2\nc one\nb 1 2 1 2\n",  # vertex repeated in a bag
        "s td 1 1 1\nb 1 1\ncfoo\n",  # only a first field 'c' makes a comment
        "s td 1 1 1\nb 1 1\ncomment-less line\n",
    ],
)
def test_parse_td_errors_name_the_line(text):
    with pytest.raises(ParseError, match="^line 3: ") as info:
        parse_td(text)
    assert info.value.line_no == 3


def test_parse_td_skips_comments():
    td = parse_td("c note\ns td 1 1 1\nb 1 1\n")
    assert td.bags == ((0,),)
