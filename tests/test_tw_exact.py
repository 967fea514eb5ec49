"""Decomposition DP: the clearance engine, counting, maximizing."""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import scatterset.tw_exact as tw
from conftest import complete_graph, cycle_graph, path_graph, seeded_corpus, star_graph
from scatterset.decomp import (
    NiceDecomposition,
    TreeDecomposition,
    balance,
    format_td,
    heuristic_decomposition,
    make_nice,
    max_introduce_depth,
    parse_td,
    postorder,
    validate_decomposition,
)
from scatterset.gadgets import gen_fvs_unweighted, gen_seth, parse_cnf, parse_mcis
from scatterset.graph_core import (
    WeightedGraph,
    all_pairs_distances,
    is_scattered,
    scattered_violation,
)
from scatterset.oracle import RandomSpec, brute_force_count, brute_force_max, gen_random_graph
from scatterset.tw_approx import (
    RoundedClearance,
    _delta_for,
    approx_max_scattered,
    slack_threshold,
)
from scatterset.tw_exact import (
    ExactClearance,
    _HookMemo,
    count_scattered,
    dp_over_decomposition,
    max_scattered,
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


def _closed_form_limit_matches_least(d: int, w: int, fields: list[int]) -> None:
    """The join's exact-domain limit for a key of `fields` is the per-field least sum.

    The limit is (d + 2) in each unselected field minus the key, in one
    subtraction; the sum is the memoized per-field path that the rounded
    domain keeps.
    """
    hooks = _HookMemo(ExactClearance(d), w)
    assert all(0 <= f <= hooks.top + 1 for f in fields), (d, w)
    width = (d + 1).bit_length() + 1
    field = (1 << width) - 1
    unit = ((1 << (len(fields) * width)) - 1) // field
    guards = unit << (width - 1)
    key = sum(f << (j * width) for j, f in enumerate(fields))
    mask = ((key | guards) - unit) & guards
    closed = ((d + 2) * unit & (mask >> (width - 1)) * field) - key
    assert closed == sum(hooks.least[f] << (j * width) for j, f in enumerate(fields)), (d, w)


@pytest.mark.parametrize(
    "dom",
    [
        *(ExactClearance(d) for d in (2, 3, 4, 6, 7, 8, 14, 15, 16, 17)),
        RoundedClearance(100, Fraction(1, 4), Fraction(1)),
    ],
    ids=lambda dom: f"exact-{dom.d}" if isinstance(dom, ExactClearance) else "rounded-100",
)
def test_join_threshold_is_least_accepted_partner(dom):
    # The memo speaks field units: clearance a is field a + 1.
    hooks = _HookMemo(dom)
    for a in range(dom.cap + 1):
        accepted = [b for b in range(dom.cap + 1) if dom.join_ok(a, b)]
        assert hooks.least[a + 1] - 1 == (accepted[0] if accepted else dom.cap + 1)
        assert accepted == list(range(hooks.least[a + 1] - 1, dom.cap + 1))
    if isinstance(dom, ExactClearance):
        # d sits at field-width edges: d = 3, 7 and 15 are the least d of
        # their width W, and at d = 2, 6 and 14 the constant d + 2 is a
        # field's guard bit, which every unselected field clears.
        d = dom.d
        for w in sorted({1, 2, d - 1}):
            top = _HookMemo(dom, w).top
            _closed_form_limit_matches_least(d, w, list(range(top + 2)))
            _closed_form_limit_matches_least(d, w, list(range(top + 1, -1, -1)))


def test_join_threshold_closed_form_at_a_huge_d():
    d = 10**12
    rng = random.Random(1012)
    for w in (1, 2, d - 1):
        top = _HookMemo(ExactClearance(d), w).top
        fields = [0, 1, 2, top // 2, top, top + 1]
        fields += [rng.randint(0, top + 1) for _ in range(20)]
        _closed_form_limit_matches_least(d, w, fields)


def _first(nd: NiceDecomposition, kind: str) -> int:
    return next(i for i, node in enumerate(nd.nodes) if node.kind == kind)


def _with_node(nd: NiceDecomposition, which: str, **changes) -> NiceDecomposition:
    """`nd` with its first node of kind `which` changed."""
    nodes = list(nd.nodes)
    i = _first(nd, which)
    nodes[i] = dataclasses.replace(nodes[i], **changes)
    return NiceDecomposition(tuple(nodes), nd.root)


# One break per rule of validate_nice, keyed by the end of its message.
NICE_BREAKS = {
    "leaf must have no children and a size-1 bag": lambda nd: _with_node(nd, "leaf", bag=()),
    "introduce needs exactly one child": lambda nd: _with_node(nd, "introduce", children=()),
    "forget needs exactly one child": lambda nd: _with_node(nd, "forget", children=()),
    "introduce bag mismatch": lambda nd: _with_node(nd, "introduce", vertex=None),
    "forget bag mismatch": lambda nd: _with_node(nd, "forget", vertex=None),
    "join needs two children": lambda nd: _with_node(
        nd, "join", children=nd.nodes[_first(nd, "join")].children[:1]
    ),
    "join children bags differ from own bag": lambda nd: _with_node(nd, "join", bag=()),
    "unknown kind 'bogus'": lambda nd: _with_node(nd, "leaf", kind="bogus"),
    "root bag is not empty": lambda nd: NiceDecomposition(nd.nodes, _first(nd, "leaf")),
}


@pytest.mark.parametrize("rule", list(NICE_BREAKS))
def test_engine_refuses_each_broken_nice_rule(rule):
    # A star's centre bag has two children, so make_nice emits every kind.
    g = star_graph(3)
    td = TreeDecomposition(bags=((0, 1), (0, 2), (0, 3)), tree_edges=((0, 1), (0, 2)))
    nd = make_nice(td)
    assert max_scattered(g, nd, 2)[0] == 3
    with pytest.raises(ValueError) as info:
        max_scattered(g, NICE_BREAKS[rule](nd), 2)
    message = str(info.value)
    assert message.startswith("invalid nice decomposition: ") and message.endswith(rule)


def test_engine_refuses_an_unknown_mode():
    g = path_graph(3)
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        dp_over_decomposition(g, nice_for(g), 2, mode="bogus")


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


@pytest.mark.parametrize(
    "root_bag,edges,join_bag",
    [
        # No child shares a vertex with the root: they join over the empty bag.
        ((0,), ((1, 2, 2), (3, 4, 1)), ()),
        # Each child shares one vertex; the root's vertex 0 comes above the join.
        ((0, 1, 3), ((0, 1, 1), (0, 3, 2), (1, 2, 2), (3, 4, 1)), (1, 3)),
    ],
)
def test_children_join_on_what_they_share_with_their_parent(root_bag, edges, join_bag):
    g = WeightedGraph(n=5, edges=edges)
    td = TreeDecomposition(bags=(root_bag, (1, 2), (3, 4)), tree_edges=((0, 1), (0, 2)))
    assert validate_decomposition(g, td) is None
    nd = make_nice(td)
    assert [node.bag for node in nd.nodes if node.kind == "join"] == [join_bag]
    for d in (2, 3, 5):
        assert count_scattered(g, nd, d, g.n) == brute_force_count(g, d, g.n), d
        size, witness = max_scattered(g, nd, d)
        assert size == brute_force_max(g, d)[0] and len(witness) == size, d
        assert scattered_violation(g, witness, d) is None, d


def _decompositions(g: WeightedGraph):
    td = heuristic_decomposition(g)
    yield "heuristic", td
    yield "balanced", balance(td, g)
    yield "td round trip", parse_td(format_td(td, g.n))
    # The validator accepts a bag that lists a vertex twice, so solvers must too.
    repeated = tuple(tuple(sorted(bag + bag[:1])) for bag in td.bags)
    yield "repeated bag vertex", dataclasses.replace(td, bags=repeated)


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


def test_counts_at_every_k_match_brute_force():
    # Below k = n the join skips the pairs whose product truncates to zero;
    # the other brute-force count tests run at k = n, where it skips none.
    rng = random.Random(3313)
    graphs = seeded_corpus(8, 14, 1, base_seed=3313) + seeded_corpus(8, 14, 4, base_seed=3413)
    for i, g in enumerate(graphs):
        td = heuristic_decomposition(g)
        order = list(range(g.n))
        rng.shuffle(order)
        forms = {
            "heuristic": td,
            "elimination": _elimination_decomposition(g, order),
            "balanced": balance(td, g),
        }
        for name, form in forms.items():
            nd = make_nice(form)
            for d in (2, 3, 4, 7):
                for k in range(g.n + 1):
                    expected = brute_force_count(g, d, k)
                    assert count_scattered(g, nd, d, k) == expected, (i, name, d, k)


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


def test_max_mode_builds_no_counting_constants():
    # Counting's slot mask has about n^2 bits when k is n; max mode must not
    # build it.  The engine peaks near 13 MiB here, and near 110 MiB with it.
    g = path_graph(20_000)
    nd = nice_for(g)
    tracemalloc.start()
    try:
        size, _ = max_scattered(g, nd, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 6_667
    assert peak < 32 * 2**20, peak


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


# -- packed state keys --------------------------------------------------------


def _fold_point(g: WeightedGraph, dom) -> int:
    """The engine's fold point, found without `_HookMemo`: a closed form or a scan."""
    w = min((w for _, _, w in g.edges), default=None)
    if w is None:
        return dom.cap
    if isinstance(dom, ExactClearance):
        return max(dom.d - w, -(-dom.d // 2))
    lo = dom.from_distance(w)
    passes = (
        t
        for t in range(dom.cap)
        if dom.admit_clearance(dom.add(t, w)) and dom.join_ok(t, min(t, lo))
    )
    return next(passes, dom.cap)


def _dominated(key: tuple, table: dict) -> bool:
    """Whether another entry of `table` dominates `key`'s.

    It does when it selects the same positions, has at least `key`'s
    clearance at every other position, and has at least its size.
    """
    size = table[key][0]
    return any(
        other != key
        and value[0] >= size
        and all((a == -1) == (b == -1) and a >= b for a, b in zip(other, key))
        for other, value in table.items()
    )


def _tuple_engine(
    g: WeightedGraph,
    nd: NiceDecomposition,
    d: int,
    mode: str,
    clearance=None,
    fold=False,
    prune=False,
):
    """The clearance engine on tuple keys (-1 = selected): the packed engine's reference.

    It visits nodes, fills tables and breaks ties in the engine's order, but
    calls the domain's hooks directly on an all-pairs matrix and keeps each
    count polynomial as a list of n + 1 counts.  With `fold`, it stores each
    clearance capped at the fold point (`_fold_point`), as the engine does;
    without, it keeps every clearance up to the domain's cap.  With `prune`
    in max mode, each forget table drops every entry that another entry
    dominates (`_dominated`), as the engine does; without, it keeps them all.
    """
    dom = clearance if clearance is not None else ExactClearance(d)
    cap, dist, sel, n = dom.cap, all_pairs_distances(g), -1, g.n
    top = _fold_point(g, dom) if fold else cap
    counting = mode == "count"
    tables: dict[int, dict] = {}
    for i in postorder([node.children for node in nd.nodes], nd.root):
        node = nd.nodes[i]
        table: dict = {}
        if node.kind == "leaf":
            v = node.bag[0]
            table[(top,)] = [1] + [0] * n if counting else (0, 0)
            table[(sel,)] = [0, 1] + [0] * (n - 1) if counting else (1, 1 << v)
        elif node.kind == "introduce":
            cbag, v = nd.nodes[node.children[0]].bag, node.vertex
            pos = node.bag.index(v)
            for states, value in tables[node.children[0]].items():
                pairs = list(zip(states, cbag))
                reach = min([dom.add(s, dist[v][u]) for s, u in pairs if s != sel], default=cap)
                table[states[:pos] + (min(reach, top),) + states[pos:]] = value
                clash = any(s == sel and not dom.admit_distance(dist[v][u]) for s, u in pairs)
                if dom.admit_clearance(reach) and not clash:
                    chosen = [0] + value[:-1] if counting else (value[0] + 1, value[1] | 1 << v)
                    table[states[:pos] + (sel,) + states[pos:]] = chosen
        elif node.kind == "forget":
            cbag, v = nd.nodes[node.children[0]].bag, node.vertex
            pos = cbag.index(v)
            others = cbag[:pos] + cbag[pos + 1 :]
            for states, value in tables[node.children[0]].items():
                rest = states[:pos] + states[pos + 1 :]
                if states[pos] == sel:
                    rest = tuple(
                        s if s == sel else min(s, dom.from_distance(dist[v][u]), top)
                        for s, u in zip(rest, others)
                    )
                if counting:
                    old = table.get(rest, [0] * (n + 1))
                    table[rest] = [a + b for a, b in zip(old, value)]
                elif rest not in table or value[0] > table[rest][0]:
                    table[rest] = value
            if prune and not counting:
                table = {key: value for key, value in table.items() if not _dominated(key, table)}
        else:
            outer, inner = (tables[c] for c in node.children)
            if len(outer) > len(inner):
                outer, inner = inner, outer
            for ostates, ovalue in outer.items():
                for istates, ivalue in inner.items():
                    if any(
                        (a == sel) != (b == sel) or (a != sel and not dom.join_ok(a, b))
                        for a, b in zip(ostates, istates)
                    ):
                        continue
                    merged = tuple(map(min, ostates, istates))
                    nsel = ostates.count(sel)
                    if counting:
                        product = [0] * (2 * n + 1)
                        for a, x in enumerate(ovalue):
                            for b, y in enumerate(ivalue):
                                product[a + b] += x * y
                        old = table.get(merged, [0] * (n + 1))
                        table[merged] = [a + b for a, b in zip(old, product[nsel : nsel + n + 1])]
                    else:
                        size = ovalue[0] + ivalue[0] - nsel
                        if merged not in table or size > table[merged][0]:
                            table[merged] = (size, ovalue[1] | ivalue[1])
        for c in node.children:
            del tables[c]
        tables[i] = table
    root = tables[nd.root][()]
    if counting:
        return root
    return root[0], tuple(v for v in range(n) if root[1] >> v & 1)


# The field width W = bit_length(cap + 1) + 1 steps up where cap + 1 reaches
# a power of two, so these d put cap + 1 at 6, 7, 8 and 14, 15, 16; 10**12
# makes each field 41 bits wide.
@pytest.mark.parametrize("d", [5, 6, 7, 13, 14, 15, 10**12])
def test_packed_keys_match_brute_force_at_field_width_boundaries(d):
    # Weights up to d / 3 spread the clearances over the whole 0..cap range.
    for i, g in enumerate(seeded_corpus(16, 11, max(2, d // 3), base_seed=7100 + d % 97)):
        counts = brute_force_count(g, d, g.n)
        best = brute_force_max(g, d)[0]
        for name, td in _decompositions(g):
            nd = make_nice(td)
            got = dp_over_decomposition(g, nd, d, mode="count")
            size, witness = dp_over_decomposition(g, nd, d, mode="max")
            assert got == counts == _tuple_engine(g, nd, d, "count"), (d, i, name)
            assert got == _tuple_engine(g, nd, d, "count", fold=True), (d, i, name)
            assert size == best and scattered_violation(g, witness, d) is None, (d, i, name)
            assert size == _tuple_engine(g, nd, d, "max")[0], (d, i, name)
            pruned = _tuple_engine(g, nd, d, "max", fold=True, prune=True)
            assert (size, witness) == pruned, (d, i, name)


# Doubling ladders with caps 6, 7 and 8.  cap + 1, the bound on every field
# value, is 7, 8 and 9, which gives W = 4, 5 and 5: it fills the bits below
# the guard at cap 6 and needs one more at cap 7.  At epsilon = 1/2 the top
# power still reaches the target 2d/3, but 1 + the next power does not, so
# the least partner of clearance 0 is the cap, field cap + 1, and on unit
# edges the fold point stays at the cap too.
DOUBLING = [RoundedClearance(d, Fraction(1), Fraction(1, 2)) for d in (64, 128, 256)]


@pytest.mark.parametrize("dom", DOUBLING, ids=["cap-6", "cap-7", "cap-8"])
def test_packed_keys_match_the_reference_on_a_doubling_ladder(dom):
    assert _HookMemo(dom).least[1] - 1 == dom.cap  # clearance 0 is field 1
    assert _HookMemo(dom, 1).top == dom.cap
    slack = slack_threshold(dom.d, dom.epsilon)
    for i, g in enumerate(seeded_corpus(16, 11, dom.d // 3, base_seed=7200 + dom.cap)):
        # Rounding only lowers clearances, so every set the rounded engine
        # accepts is pairwise at least the slackened target apart.
        slack_counts = brute_force_count(g, slack, g.n)
        for name, td in _decompositions(g):
            nd = make_nice(td)
            counts = dp_over_decomposition(g, nd, dom.d, mode="count", clearance=dom)
            size, witness = dp_over_decomposition(g, nd, dom.d, mode="max", clearance=dom)
            assert counts == _tuple_engine(g, nd, dom.d, "count", dom), (dom.cap, i, name)
            assert all(c <= b for c, b in zip(counts, slack_counts)), (dom.cap, i, name)
            assert size == _tuple_engine(g, nd, dom.d, "max", dom)[0], (dom.cap, i, name)
            # The engine folds and prunes, so its witness is the folded,
            # pruned reference's.
            pruned = _tuple_engine(g, nd, dom.d, "max", dom, fold=True, prune=True)
            assert (size, witness) == pruned, (dom.cap, i, name)
            assert size == len(witness) and scattered_violation(g, witness, slack) is None


@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 3), Fraction(1, 10)])
def test_rounded_engine_keeps_the_guarantee_on_every_decomposition_shape(epsilon):
    # Each form gets the domain `approx_max_scattered` builds for the form's
    # own introduce depth.  A leaf admits its vertex by the introduce's rule,
    # so the one-bag form, whose only leaf starts a chain of introduces,
    # answers as the forms with many leaves do.  Two isolated vertices at
    # d = 40 are both selected on every form.
    graphs = [(g, 2 + i % 6) for i, g in enumerate(seeded_corpus(30, 8, 4, base_seed=7400))]
    graphs.append((WeightedGraph(n=2, edges=()), 40))
    for i, (g, d) in enumerate(graphs):
        best = brute_force_max(g, d)[0]
        slack = slack_threshold(d, epsilon)
        one_bag = TreeDecomposition(bags=(tuple(range(g.n)),), tree_edges=())
        for name, td in [*_decompositions(g), ("one bag", one_bag)]:
            nd = make_nice(td)
            delta = _delta_for(epsilon, max(1, max_introduce_depth(nd)))
            dom = RoundedClearance(d, delta, epsilon)
            size, witness = dp_over_decomposition(g, nd, d, mode="max", clearance=dom)
            assert size >= best and size == len(witness), (epsilon, i, name)
            assert scattered_violation(g, witness, slack) is None, (epsilon, i, name)
    # A doubling ladder at epsilon = 1/10 tops out at 32 < 40 / (11/10): it
    # would refuse an isolated vertex on one bag and select it at a leaf.
    with pytest.raises(ValueError, match="below the target"):
        RoundedClearance(40, Fraction(1), Fraction(1, 10))


@pytest.mark.parametrize("d", [*range(2, 41), 10**12])
def test_exact_fold_point_closed_form(d):
    for w in range(1, d + 3) if d <= 40 else [1]:
        assert _HookMemo(ExactClearance(d), w).top == max(d - w, -(-d // 2)), (d, w)


@pytest.mark.parametrize("dom", [ExactClearance(2), ExactClearance(9)], ids=["exact-2", "exact-9"])
def test_fold_point_stays_at_the_cap_without_a_partner_or_an_edge(dom):
    assert _HookMemo(dom, None).top == dom.cap


def _heavy_graph(rng: random.Random, lo: int, hi: int) -> WeightedGraph:
    """Random graph on at most 11 vertices with every weight in lo..hi."""
    n = rng.randint(2, 11)
    p = rng.uniform(0.2, 0.9)
    edges = tuple(
        (u, v, rng.randint(lo, hi)) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return WeightedGraph(n=n, edges=edges)


@pytest.mark.parametrize("lo,hi,ds", [(3, 5, range(4, 8)), (4, 9, range(4, 13))])
def test_fold_below_twice_the_lightest_edge_matches_brute_force(lo, hi, ds):
    # With d < 2w the fold point is ceil(d / 2), not d - w.
    rng = random.Random(7300 + lo)
    for d in ds:
        for i in range(6):
            g = _heavy_graph(rng, lo, hi)
            w = min((w for _, _, w in g.edges), default=None)
            if w is not None and d < 2 * w:
                assert _HookMemo(ExactClearance(d), w).top == -(-d // 2), (d, i)
            nd = nice_for(g)
            assert count_scattered(g, nd, d, g.n) == brute_force_count(g, d, g.n), (d, i)
            size, witness = max_scattered(g, nd, d)
            assert size == brute_force_max(g, d)[0], (d, i)
            assert (size, witness) == _tuple_engine(g, nd, d, "max", fold=True, prune=True), (d, i)
            assert scattered_violation(g, witness, d) is None, (d, i)


def _banded_graph(n: int, seed: int) -> WeightedGraph:
    # Each vertex links to one or two of the four before it, so the
    # heuristic's width stays at most 4.
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        for u in rng.sample(range(max(0, v - 4), v), min(v, rng.randint(1, 2))):
            edges.add((u, v, rng.randint(1, 3)))
    return WeightedGraph(n=n, edges=tuple(sorted(edges)))


def test_witness_masks_past_one_machine_word_match_the_reference():
    # n >= 65 puts witness bits past bit 63, so the max-mode mask spans
    # more than one word.  The reference's all-pairs tables stay cheap at
    # width <= 5 only.
    for seed in range(4):
        g = _banded_graph(66 + 3 * seed, 9000 + seed)
        td = heuristic_decomposition(g)
        assert td.width <= 5
        nd = make_nice(td)
        for d in (2, 3, 5, 8):
            size, witness = dp_over_decomposition(g, nd, d, mode="max")
            assert size == _tuple_engine(g, nd, d, "max")[0], (seed, d)
            pruned = _tuple_engine(g, nd, d, "max", fold=True, prune=True)
            assert (size, witness) == pruned, (seed, d)
            assert size == len(witness) and max(witness) >= 64, (seed, d)
            assert scattered_violation(g, witness, d) is None, (seed, d)


# -- pinned bag-mates ---------------------------------------------------------


@pytest.mark.parametrize("d", range(2, 13))
def test_exact_pinned_distances_closed_form(d):
    # A mate at distance dist < d is pinned exactly when even the least
    # stored unselected field, min(w, top) + 1, reaches the fold point.
    for w in range(1, d + 2):
        hooks = _HookMemo(ExactClearance(d), w)
        top = max(d - w, -(-d // 2))
        for dist in range(1, d + 3):
            pinned = dist < d and dist >= top - min(w, top)
            threshold, read = hooks.gate[dist]
            assert read == (not pinned), (d, w, dist)
            if pinned:
                # The least field f >= 1 with f - 1 + dist >= d, if one is stored.
                assert threshold == min(d - dist, top + 1) + 1, (d, w, dist)
            else:
                # A read mate refuses v only when selected, and only below d.
                assert threshold == (1 if dist < d else 0), (d, w, dist)
    unit = _HookMemo(ExactClearance(d), 1)
    if d <= 3:
        assert not any(unit.gate[dist][1] for dist in range(1, d))
    if d == 4:
        assert [unit.gate[dist][1] for dist in (1, 2, 3)] == [True, False, False]
    # Rounded at epsilon = 1, distances ceil(d / 2)..d - 1 are admitted: a
    # read mate there never refuses v, and one below refuses it if selected.
    dom = RoundedClearance(d, Fraction(1, 4), Fraction(1))
    for w in range(1, d + 2):
        hooks = _HookMemo(dom, w)
        for dist in range(1, d):
            threshold, read = hooks.gate[dist]
            if dist >= -(-d // 2):
                assert (threshold, read) == (0, True), (d, w, dist)
            else:
                assert threshold == 1 if read else threshold >= 1, (d, w, dist)


def _mate_kinds(g: WeightedGraph, nd: NiceDecomposition, d: int, dom=None) -> set:
    """(has a pinned mate, has a read mate) for each introduce node of `nd`."""
    dom = dom if dom is not None else ExactClearance(d)
    hooks = _HookMemo(dom, min((w for _, _, w in g.edges), default=None))
    near = tw._bag_distances(g, nd, d)
    kinds = set()
    for node in nd.nodes:
        if node.kind == "introduce":
            dists = [near[node.vertex][u] for u in node.bag if u in near[node.vertex]]
            reads = [hooks.gate[x][1] for x in dists]
            kinds.add((not all(reads), any(reads)))
    return kinds


@pytest.mark.parametrize("d", range(2, 10))
def test_pinned_mates_match_the_reference_engine(d):
    # Weights 1..3 leave some mates of one introduce node pinned and others
    # read from d = 4 on, so both parts of the verdict meet in one node; the
    # banded graphs' longer paths spread the distances for the larger d.
    corpus = seeded_corpus(10, 11, 3, base_seed=7400 + d)
    banded = [_banded_graph(20 + 2 * s, 7400 + 10 * d + s) for s in range(3)]
    kinds = set()
    for i, g in enumerate(corpus + banded):
        nd = nice_for(g)
        kinds |= _mate_kinds(g, nd, d)
        counts = dp_over_decomposition(g, nd, d, mode="count")
        assert counts == _tuple_engine(g, nd, d, "count", fold=True, prune=True), (d, i)
        if i < len(corpus):
            assert counts == brute_force_count(g, d, g.n), (d, i)
        size, witness = dp_over_decomposition(g, nd, d, mode="max")
        assert (size, witness) == _tuple_engine(g, nd, d, "max", fold=True, prune=True), (d, i)
    # At d = 2 and 3 every close mate is pinned, whatever the weights.
    assert (True, True) in kinds if d >= 4 else (True, False) in kinds, d


def test_admitted_read_distance_is_never_pinned():
    # The slackened threshold ceil(10 / 2) = 5 admits distances 5..9, which
    # are still read (below d = 10): a mate there never clashes.
    dom = RoundedClearance(10, Fraction(1, 4), Fraction(1))
    assert slack_threshold(dom.d, dom.epsilon) == 5
    for w in range(1, 10):
        hooks = _HookMemo(dom, w)
        assert all(hooks.gate[dist][1] for dist in range(5, 10)), w
    for dist in range(5, 10):
        g = WeightedGraph(n=2, edges=((0, 1, dist),))
        nd = nice_for(g)
        # Both ends selected: the mate at an admitted distance lets v in.
        assert dp_over_decomposition(g, nd, 10, mode="max", clearance=dom) == (2, (0, 1)), dist
        assert dp_over_decomposition(g, nd, 10, mode="count", clearance=dom) == [1, 2, 1], dist
    # With the lightest edge at 2 or more, distances 3 and 4 are pinned.
    rng, kinds = random.Random(7500), set()
    for i in range(20):
        g = _heavy_graph(rng, 2, 6)
        nd = nice_for(g)
        kinds |= _mate_kinds(g, nd, dom.d, dom)
        for mode in ("count", "max"):
            got = dp_over_decomposition(g, nd, dom.d, mode=mode, clearance=dom)
            assert got == _tuple_engine(g, nd, dom.d, mode, dom, fold=True, prune=True), (i, mode)
    assert (True, True) in kinds


# -- dominance pruning --------------------------------------------------------

# Hand-built tables use 4-bit fields (3 value bits and a guard bit) over a
# bag of two positions; field 0 is "selected", field c + 1 the clearance c.
_W = 4
_UNIT = 1 | 1 << _W
_GUARDS = _UNIT << (_W - 1)


def _key(*fields: int) -> int:
    return sum(f << (j * _W) for j, f in enumerate(fields))


def _pruned(entries: list[tuple[tuple[int, ...], int]]) -> list[tuple[tuple[int, ...], int]]:
    table = {_key(*fields): mask for fields, mask in entries}
    tw._drop_dominated(table, _UNIT, _GUARDS)
    by_key = {_key(*fields): fields for fields, _ in entries}
    return [(by_key[key], mask) for key, mask in table.items()]


@pytest.mark.parametrize(
    "entries,survivors",
    [
        ([], []),
        ([((3, 2), 0b1)], [0]),
        # A strict dominator of equal size, in both orders of a two-entry bucket.
        ([((3, 2), 0b011), ((2, 2), 0b101)], [0]),
        ([((2, 2), 0b101), ((3, 2), 0b011)], [1]),
        # Equal sizes, neither key covering the other: both stay.
        ([((3, 1), 0b1), ((1, 3), 0b10)], [0, 1]),
        # A larger key with a smaller size, in both orders: both stay.
        ([((3, 3), 0b1), ((2, 2), 0b11)], [0, 1]),
        ([((2, 2), 0b11), ((3, 3), 0b1)], [0, 1]),
        # Different selection sets are never compared, though (1, 3) covers
        # (0, 3) field by field with more bits.
        ([((0, 3), 0b1), ((1, 3), 0b11)], [0, 1]),
        # In one bucket (3, 3) dominates (2, 2), both dominate (1, 1), and
        # (1, 4) dominates only (1, 1).  The other bucket's two entries
        # stand between them, neither dominating the other.  Only (2, 2)
        # and (1, 1) go, and the survivors keep their insertion order.
        (
            [
                ((2, 2), 0b11),
                ((0, 1), 0b111),
                ((3, 3), 0b111),
                ((1, 1), 0b11),
                ((0, 3), 0b10),
                ((1, 4), 0b110),
            ],
            [1, 2, 4, 5],
        ),
    ],
)
def test_drop_dominated_on_hand_built_tables(entries, survivors):
    assert _pruned(entries) == [entries[i] for i in survivors]


def test_drop_dominated_matches_the_definition_on_random_tables():
    rng = random.Random(7400)
    for _ in range(300):
        size = rng.randint(0, 12)
        entries = {(rng.randint(0, 4), rng.randint(0, 4)): rng.getrandbits(5) for _ in range(size)}
        # The reference's states: field 0 is selected (-1), any other a clearance.
        states = {fields: tuple(f or -1 for f in fields) for fields in entries}
        reference = {states[fields]: (mask.bit_count(), mask) for fields, mask in entries.items()}
        expected = [
            (fields, mask)
            for fields, mask in entries.items()
            if not _dominated(states[fields], reference)
        ]
        assert _pruned(list(entries.items())) == expected, entries


def test_drop_dominated_matches_the_definition_on_large_buckets():
    # Buckets of 50-300 keys over 6-12 positions, masks of 250 bits or more,
    # so that sizes span 2**8, and field widths from 4 bits up to the 41
    # that d = 10**12 gives.
    rng = random.Random(2602)
    widths = (4, 5, 9, 17, (10**12 + 2).bit_length() + 1)
    for trial in range(25):
        width = widths[trial % len(widths)]
        b = rng.randint(6, 12)
        unit = ((1 << (b * width)) - 1) // ((1 << width) - 1)
        # Few clearance levels and sizes, so that many pairs compare and tie.
        levels = rng.sample(range(1, 1 << (width - 1)), 4)
        sizes = range(250, 250 + rng.randint(1, 12))
        selections = [rng.sample(range(b), rng.randint(0, 2)) for _ in range(2)]
        target = rng.randint(50, 300)
        entries: dict[tuple[int, ...], int] = {}
        while len(entries) < target:
            if entries and rng.random() < 0.5:
                # A near copy of an entry: one field changed, with a smaller,
                # equal or larger size; or two fields swapped, with the same
                # size, which leaves the two incomparable if the fields differ.
                fields, mask = rng.choice(list(entries.items()))
                fields = list(fields)
                size = mask.bit_count()
                i, j = rng.sample([j for j, f in enumerate(fields) if f], 2)
                if rng.random() < 0.5:
                    fields[i] = rng.choice(levels)
                    size = max(250, size + rng.choice((-1, 0, 1)))
                else:
                    fields[i], fields[j] = fields[j], fields[i]
            else:
                selected = rng.choice(selections)
                fields = [0 if j in selected else rng.choice(levels) for j in range(b)]
                size = rng.choice(sizes)
            mask = sum(1 << v for v in rng.sample(range(4 * size), size))
            entries.setdefault(tuple(fields), mask)
        packed = {fields: sum(f << (j * width) for j, f in enumerate(fields)) for fields in entries}
        table = {packed[fields]: mask for fields, mask in entries.items()}
        tw._drop_dominated(table, unit, unit << (width - 1))
        states = {fields: tuple(f or -1 for f in fields) for fields in entries}
        reference = {states[fields]: (mask.bit_count(), mask) for fields, mask in entries.items()}
        expected = [
            (packed[fields], mask)
            for fields, mask in entries.items()
            if not _dominated(states[fields], reference)
        ]
        assert list(table.items()) == expected, (trial, width, b)


def _gadget_cases():
    seth = gen_seth(parse_cnf("p cnf 1 2\n1 0\n-1 0\n"), 4, Fraction(1))
    yield "seth 1 / -1 at d=4", seth.graph, seth.d
    fvs = gen_fvs_unweighted(parse_mcis("p mcis 2 2\ne 1.1 2.1\ne 1.2 2.2\n"))
    yield "fvs 2x2 YES", fvs.graph, fvs.d


def test_pruned_engine_keeps_the_unpruned_optimum_on_gadgets():
    # Pruning shrinks their largest tables from 552 to 99 and from 321 to 163 entries.
    for name, g, d in _gadget_cases():
        nd = nice_for(g)
        size, witness = max_scattered(g, nd, d)
        assert size == _tuple_engine(g, nd, d, "max")[0], name
        assert size == len(witness) and scattered_violation(g, witness, d) is None, name


def test_engine_output_pinned():
    # Sizes, witnesses and count vectors of the exact engine at six d, and
    # the approximation at one epsilon, hashed, so any change to an answer,
    # a witness or a tie shows here.  A new nice form or fold point may move
    # witnesses among equally large sets; `test_engine_sizes_and_counts_pinned`
    # then shows that nothing else moved.
    digest = hashlib.sha256()
    for i, g in enumerate(seeded_corpus(60, 16, 6, base_seed=1300)):
        td = heuristic_decomposition(g)
        nd = make_nice(td)
        for d in (2, 3, 4, 7, 17, 10**12):
            result = (i, d, max_scattered(g, nd, d), count_scattered(g, nd, d, g.n))
            digest.update(repr(result).encode())
        digest.update(repr((i, approx_max_scattered(g, td, 17, Fraction(1, 2)))).encode())
    assert digest.hexdigest() == "d98357b7bd0133350c23b5b402c53329d245d64147cc96be01db42bad2a1fe59"


def test_engine_sizes_and_counts_pinned():
    # The corpus of `test_engine_output_pinned` without witnesses: the exact
    # engine's sizes and count vectors at six d and the approximation's
    # size.  A change of decomposition may move a witness among equally
    # large ones, but never these.
    digest = hashlib.sha256()
    for i, g in enumerate(seeded_corpus(60, 16, 6, base_seed=1300)):
        td = heuristic_decomposition(g)
        nd = make_nice(td)
        for d in (2, 3, 4, 7, 17, 10**12):
            size, _ = max_scattered(g, nd, d)
            digest.update(repr((i, d, size, count_scattered(g, nd, d, g.n))).encode())
        digest.update(repr((i, approx_max_scattered(g, td, 17, Fraction(1, 2))[0])).encode())
    assert digest.hexdigest() == "192fb95364937b0351aa1e39ab1d25f52484c0c8b8b970edbf09f13b11e2099e"
