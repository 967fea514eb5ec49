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
    parse_td,
    postorder,
    validate_decomposition,
)
from scatterset.graph_core import (
    WeightedGraph,
    all_pairs_distances,
    is_scattered,
    scattered_violation,
)
from scatterset.oracle import RandomSpec, brute_force_count, brute_force_max, gen_random_graph
from scatterset.tw_approx import RoundedClearance, approx_max_scattered, slack_threshold
from scatterset.tw_exact import (
    ExactClearance,
    _HookMemo,
    count_scattered,
    dp_over_decomposition,
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
    # The memo speaks field units: clearance a is field a + 1.
    hooks = _HookMemo(dom)
    for a in range(dom.cap + 1):
        accepted = [b for b in range(dom.cap + 1) if dom.join_ok(a, b)]
        assert hooks.least[a + 1] - 1 == (accepted[0] if accepted else dom.cap + 1)
        assert accepted == list(range(hooks.least[a + 1] - 1, dom.cap + 1))


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


def _tuple_engine(
    g: WeightedGraph, nd: NiceDecomposition, d: int, mode: str, clearance=None, fold=False
):
    """The clearance engine on tuple keys (-1 = selected): the packed engine's reference.

    It visits nodes, fills tables and breaks ties in the engine's order, but
    calls the domain's hooks directly on an all-pairs matrix and keeps each
    count polynomial as a list of n + 1 counts.  With `fold`, it stores each
    clearance capped at the fold point (`_fold_point`), as the engine does;
    without, it keeps every clearance up to the domain's cap.
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


# The field width W = bit_length(cap + 2) + 1 steps up where cap + 2 reaches
# a power of two, so these d put cap + 2 at 7, 8, 9 and 15, 16, 17; 10**12
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
            assert (size, witness) == _tuple_engine(g, nd, d, "max", fold=True), (d, i, name)


# Doubling ladders whose slackened target exceeds 1 + the top power, so
# clearance 0 has no accepted partner (threshold cap + 1, packed as cap + 2),
# with cap + 2 at 7, 8 and 9.
PARTNERLESS = [
    RoundedClearance(40, Fraction(1), Fraction(1, 10)),
    RoundedClearance(100, Fraction(1), Fraction(1, 10)),
    RoundedClearance(140, Fraction(1), Fraction(1, 100)),
]


@pytest.mark.parametrize("dom", PARTNERLESS, ids=["cap-5", "cap-6", "cap-7"])
def test_packed_keys_match_the_reference_with_a_partnerless_clearance(dom):
    assert _HookMemo(dom).least[1] - 1 == dom.cap + 1  # clearance 0 is field 1
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
            assert (size, witness) == _tuple_engine(g, nd, dom.d, "max", dom), (dom.cap, i, name)
            assert size == len(witness) and scattered_violation(g, witness, slack) is None


@pytest.mark.parametrize("d", [*range(2, 41), 10**12])
def test_exact_fold_point_closed_form(d):
    for w in range(1, d + 3) if d <= 40 else [1]:
        assert _HookMemo(ExactClearance(d), w).top == max(d - w, -(-d // 2)), (d, w)


@pytest.mark.parametrize(
    "dom",
    [*PARTNERLESS, ExactClearance(2), ExactClearance(9)],
    ids=["cap-5", "cap-6", "cap-7", "exact-2", "exact-9"],
)
def test_fold_point_stays_at_the_cap_without_a_partner_or_an_edge(dom):
    assert _HookMemo(dom, None).top == dom.cap
    if isinstance(dom, RoundedClearance):
        # On a doubling ladder two clearances below the cap sum to at most the
        # top power, short of the target, so no t below the cap passes.
        for w in range(1, dom.d + 1):
            assert _HookMemo(dom, w).top == dom.cap, w


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
            assert (size, witness) == _tuple_engine(g, nd, d, "max", fold=True), (d, i)
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
            assert (size, witness) == _tuple_engine(g, nd, d, "max", fold=True), (seed, d)
            assert size == len(witness) and max(witness) >= 64, (seed, d)
            assert scattered_violation(g, witness, d) is None, (seed, d)


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
    assert digest.hexdigest() == "4bec59b98a2701b83cb5d0bb0c241884ca0632625e196dace53f0a2fd6c06960"


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
