"""Dynamic programming for d-scattered sets over nice tree decompositions.

One engine, `dp_over_decomposition`, runs a sparse clearance DP bottom-up
over a nice decomposition.  Every table is keyed by the bag's state tuple
alone: per bag vertex, either "selected" or the exact (capped) distance to
the nearest selection that has already been forgotten.  Sparse keys make it
output-sensitive, and the clearance semantics compose without correction
terms, which keeps counting exact.

In counting mode an entry's value is one big integer that packs the counts
of all selection sizes: the count of size m sits in bits [m*B, (m+1)*B).
Selecting a vertex shifts the packed polynomial up one slot, and a join
multiplies two of them in a single integer product.  Slots are wide enough
that no carry ever reaches a kept count; `dp_over_decomposition` gives the
bound and its proof.  In maximizing mode the value is a pair (best size,
mask): bit v of the int mask is set when vertex v is in one best partial
solution for that state, so the root's mask is the witness.  Both modes
free each child table once its parent has consumed it.

`count_scattered` and `max_scattered` run the engine in those two modes;
`solve_via_treedepth` adds a per-component diameter shortcut.  The
`clearance` hook lets the approximation module re-run the same engine over
a rounded value domain; the engine memoizes every hook call per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import ge, getitem

from .decomp import (
    NiceDecomposition,
    heuristic_decomposition,
    make_nice,
    nice_to_tree,
    validate_decomposition,
    validate_nice,
)
from .graph_core import (
    INF,
    VertexSet,
    WeightedGraph,
    connected_components,
    diameter,
    distances_within,
    induced_subgraph,
)

# Unused here, but bench/tracing.py wraps this module-level name and the
# benchmark's tests require every name it wraps to exist.
from .graph_core import all_pairs_distances  # noqa: F401

# Number of times the decomposition DP has actually executed; lets callers
# verify that trivial cases short-circuit without running it.
ENGINE_RUNS = 0

# State marker for a selected bag vertex in the clearance engine.
_SELECTED = -1


# ---------------------------------------------------------------------------
# Clearance engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactClearance:
    """Exact capped distances: values are integers 0..d, cap means ">= d"."""

    d: int

    @property
    def cap(self) -> int:
        return self.d

    def from_distance(self, dist: int) -> int:
        return self.d if dist >= self.d else dist

    def add(self, idx: int, w: int) -> int:
        total = idx + w
        return self.d if total >= self.d else total

    def admit_distance(self, dist: int) -> bool:
        return dist >= self.d

    def admit_clearance(self, idx: int) -> bool:
        return idx >= self.d

    def join_ok(self, i: int, j: int) -> bool:
        return i + j >= self.d


class _Memo(dict):
    """Dict that computes a missing key once with `fn` and keeps it."""

    __slots__ = ("fn",)

    def __init__(self, fn, seed=()) -> None:
        super().__init__(seed)
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


class _HookMemo:
    """Per-solve memo of a clearance domain's hooks, filled lazily.

    Only values the DP actually meets are computed, never a table over
    0..cap: in the exact domain cap = d, which the gadgets make huge.
    """

    def __init__(self, dom) -> None:
        self.cap = cap = dom.cap
        add, join_ok = dom.add, dom.join_ok
        # A selected position never lowers the reach of a new vertex, and an
        # unreachable one leaves it at the cap.
        self._unreachable = _Memo(lambda s: cap, {_SELECTED: cap})
        self._rows = _Memo(lambda w: _Memo(lambda s: add(s, w), {_SELECTED: cap}))
        self.from_distance = _Memo(dom.from_distance)
        self.admit_clearance = _Memo(dom.admit_clearance)

        def least_partner(a: int) -> int:
            # join_ok(a, b) is monotone in b, so binary search for the least
            # b that passes; cap + 1 means that none does.
            lo, hi = 0, cap + 1
            while lo < hi:
                mid = (lo + hi) // 2
                if join_ok(a, mid):
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        # A selected position meets a selected one (masks match), and
        # -1 >= -1 lets it through the same comparison.
        self.threshold = _Memo(least_partner, {_SELECTED: _SELECTED})

    def add_row(self, w: int) -> _Memo:
        """Clearance s -> add(s, w), with selected and unreachable folded in."""
        return self._unreachable if w >= INF else self._rows[w]


def _nice_postorder(nd: NiceDecomposition) -> list[int]:
    order: list[int] = []
    stack: list[tuple[int, bool]] = [(nd.root, False)]
    while stack:
        i, done = stack.pop()
        if done:
            order.append(i)
        else:
            stack.append((i, True))
            for c in nd.nodes[i].children:
                stack.append((c, False))
    return order


def _bag_distances(g: WeightedGraph, nd: NiceDecomposition, d: int) -> dict[int, dict[int, int]]:
    """Distances below d from each introduced or forgotten vertex to its bag-mates.

    One radius-d search per vertex, stopped once every bag-mate it meets at
    an introduce or forget node is settled.  A missing entry means ">= d":
    both clearance domains map every such distance to the cap and admit it,
    so it reads as INF without changing any state.
    """
    mates: dict[int, set[int]] = {}
    for node in nd.nodes:
        if node.kind in ("introduce", "forget"):
            mates.setdefault(node.vertex, set()).update(node.bag)
    return {v: distances_within(g, v, bag - {v}, d) for v, bag in mates.items()}


def _check_inputs(g: WeightedGraph, nd: NiceDecomposition, d: int) -> None:
    if d < 2:
        raise ValueError("d must be >= 2")
    msg = validate_nice(nd)
    if msg is not None:
        raise ValueError(f"invalid nice decomposition: {msg}")
    bad = validate_decomposition(g, nice_to_tree(nd))
    if bad is not None:
        raise ValueError(f"invalid decomposition: {bad.message}")


def dp_over_decomposition(
    g: WeightedGraph,
    nd: NiceDecomposition,
    d: int,
    *,
    mode: str,
    k: int | None = None,
    clearance: object | None = None,
):
    """Run the scattered-set DP bottom-up over a nice decomposition.

    Every table is keyed by the bag's state tuple: -1 marks a selected
    vertex, any other value is the clearance (capped distance to the nearest
    selection already forgotten), in the clearance domain's units.

    Max mode stores (best size, mask) per state, where bit v of the int mask
    is set when vertex v is in one best partial solution: a leaf gives
    {(cap,): (0, 0), (sel,): (1, 1 << v)}, selecting v ORs in 1 << v, forget
    and an unselected introduce pass the child's pair on unchanged, and a
    join adds the sizes less the nsel shared selections and ORs the masks.
    Ties keep the first entry found.

    Counting mode stores one int P per state, the generating polynomial of
    its partial solutions evaluated at 2^B: the number of partial solutions
    of size m sits in bits [m*B, (m+1)*B), for m <= k_cap = min(k, n), with
    B = bit length of max_{m <= k_cap} C(n, m).  Leaf: {(cap,): 1,
    (sel,): 1 << B}.  Introducing a selected vertex shifts P up one slot,
    forget adds, join multiplies and shifts down by the nsel shared
    selections, and every step truncates above slot k_cap.

    Why no carry corrupts a kept count: a state's partial solutions are
    distinct vertex sets, so its coefficient of degree m is at most
    C(n, m) < 2^B.  A forget sums disjoint families of sets, so the same
    bound holds.  In a join, each compatible pair (L, R) maps injectively
    to its union (L and R are the union's parts in the two subtrees), so
    the product's coefficient of degree m + nsel counts distinct unions of
    size m and stays below 2^B for every kept m.  Coefficients above the
    kept range may overflow their slots, but carries only move upward, so
    truncation removes them with everything above slot k_cap.  Both
    factors contain the nsel shared selections, so every degree below nsel
    is zero and the shift drops nothing; and since |L|, |R| <= |L u R|, the
    truncated factors still hold every pair that a kept union needs.

    The clearance hook is memoized per solve (`_HookMemo`), and each join
    pair is checked against per-position thresholds: the least partner
    clearance that `join_ok` accepts.

    Each child table is freed as soon as its parent has consumed it, in
    both modes.  Distances are read only between bag-mates and only below
    d (`_bag_distances`), so no n x n matrix is built.

    Returns per-size counts (counting) or (size, witness) (max).
    """
    global ENGINE_RUNS
    _check_inputs(g, nd, d)
    if mode not in ("count", "max"):
        raise ValueError(f"unknown mode {mode!r}")
    dom = clearance if clearance is not None else ExactClearance(d)
    ENGINE_RUNS += 1
    near = _bag_distances(g, nd, d)
    hooks = _HookMemo(dom)
    cap = hooks.cap
    counting = mode == "count"
    k_cap = g.n if k is None else min(k, g.n)
    # B of the docstring; C(n, m) is unimodal in m with its peak at n // 2.
    slot_bits = math.comb(g.n, min(k_cap, g.n // 2)).bit_length()
    trunc = (1 << (slot_bits * (k_cap + 1))) - 1
    admit_clearance = hooks.admit_clearance
    threshold = hooks.threshold.__getitem__

    tables: dict[int, dict] = {}

    def _node_table(i: int) -> dict:
        node = nd.nodes[i]
        table: dict = {}
        if node.kind == "leaf":
            v = node.bag[0]
            if counting:
                table[(cap,)] = 1
                if k_cap >= 1:
                    table[(_SELECTED,)] = 1 << slot_bits
            else:
                table[(cap,)] = (0, 0)
                table[(_SELECTED,)] = (1, 1 << v)
        elif node.kind == "introduce":
            ctable = tables[node.children[0]]
            cbag = nd.nodes[node.children[0]].bag
            v = node.vertex
            pos = node.bag.index(v)
            drow = near[v]
            rows = [hooks.add_row(drow.get(u, INF)) for u in cbag]
            # Positions where a selected vertex is too close to select v.
            clash = [j for j, u in enumerate(cbag) if not dom.admit_distance(drow.get(u, INF))]
            # Keys extend distinct child keys at one position, so none repeat.
            for states, value in ctable.items():
                reach = min(map(getitem, rows, states), default=cap)
                head, tail = states[:pos], states[pos:]
                table[head + (reach,) + tail] = value
                if not admit_clearance[reach]:
                    continue
                for j in clash:
                    if states[j] == _SELECTED:
                        break
                else:
                    if counting:
                        shifted = (value << slot_bits) & trunc
                        if shifted:
                            table[head + (_SELECTED,) + tail] = shifted
                    else:
                        table[head + (_SELECTED,) + tail] = (value[0] + 1, value[1] | 1 << v)
        elif node.kind == "forget":
            ctable = tables[node.children[0]]
            cbag = nd.nodes[node.children[0]].bag
            v = node.vertex
            pos = cbag.index(v)
            zrow = near[v]
            # The min keeps a selected position selected: -1 is below every clearance.
            fresh = [hooks.from_distance[zrow.get(u, INF)] for j, u in enumerate(cbag) if j != pos]
            for states, value in ctable.items():
                rest = states[:pos] + states[pos + 1 :]
                if states[pos] == _SELECTED:
                    rest = tuple([s if s < f else f for s, f in zip(rest, fresh)])
                if counting:
                    table[rest] = table.get(rest, 0) + value
                else:
                    old = table.get(rest)
                    if old is None or value[0] > old[0]:
                        table[rest] = value
        else:  # join
            # Bucket the larger child table by selection mask and walk the
            # smaller one, so the per-entry thresholds are built for fewer
            # keys; join_ok is symmetric, so either side may supply them.
            outer, inner = (tables[c] for c in node.children)
            if len(outer) > len(inner):
                outer, inner = inner, outer
            by_mask: dict[tuple[bool, ...], list] = {}
            for istates, ivalue in inner.items():
                mask = tuple([s == _SELECTED for s in istates])
                by_mask.setdefault(mask, []).append((istates, ivalue))
            for ostates, ovalue in outer.items():
                bucket = by_mask.get(tuple([s == _SELECTED for s in ostates]))
                if bucket is None:
                    continue
                nsel = ostates.count(_SELECTED)
                least = tuple(map(threshold, ostates))
                shift = slot_bits * nsel
                for istates, ivalue in bucket:
                    if not all(map(ge, istates, least)):
                        continue
                    merged = tuple([a if a < b else b for a, b in zip(ostates, istates)])
                    if counting:
                        product = ((ovalue * ivalue) >> shift) & trunc
                        if product:
                            table[merged] = table.get(merged, 0) + product
                    else:
                        size = ovalue[0] + ivalue[0] - nsel
                        old = table.get(merged)
                        if old is None or size > old[0]:
                            table[merged] = (size, ovalue[1] | ivalue[1])
        for c in node.children:
            del tables[c]
        return table

    for i in _nice_postorder(nd):
        tables[i] = _node_table(i)

    root_table = tables[nd.root]
    if counting:
        packed = root_table.get((), 0)
        slot = (1 << slot_bits) - 1
        return [(packed >> (m * slot_bits)) & slot for m in range(k_cap + 1)]
    size, mask = root_table[()]
    return size, tuple(v for v, bit in enumerate(reversed(f"{mask:b}")) if bit == "1")


# ---------------------------------------------------------------------------
# Solver layer
# ---------------------------------------------------------------------------


def count_scattered(g: WeightedGraph, nd: NiceDecomposition, d: int, k: int) -> list[int]:
    """Number of d-scattered sets of each size 0..k (exact, big integers)."""
    if k < 0:
        raise ValueError("k must be >= 0")
    inner = dp_over_decomposition(g, nd, d, mode="count", k=k)
    return inner + [0] * (k + 1 - len(inner))


def max_scattered(g: WeightedGraph, nd: NiceDecomposition, d: int) -> tuple[int, VertexSet]:
    """Maximum d-scattered set size and a witness of that size.

    The witness is read off the root entry's vertex bitmask and is not
    re-checked here; the CLI re-validates every witness it prints.
    """
    size, witness = dp_over_decomposition(g, nd, d, mode="max")
    return size, witness


def _solve_component(g: WeightedGraph, d: int) -> tuple[int, VertexSet]:
    nd = make_nice(heuristic_decomposition(g))
    return max_scattered(g, nd, d)


def solve_via_treedepth(g: WeightedGraph, d: int) -> tuple[int, VertexSet]:
    """Maximization with the diameter shortcut, per connected component.

    On a connected component whose diameter is below d the answer is a single
    vertex and the DP is skipped entirely (observable via ENGINE_RUNS);
    otherwise the component is solved by the decomposition DP.  Components
    combine additively since inter-component distances are infinite.
    """
    if not g.has_unit_weights():
        raise ValueError("treedepth-style solving expects unit weights")
    if d < 2:
        raise ValueError("d must be >= 2")
    total = 0
    chosen: list[int] = []
    for comp in connected_components(g):
        sub, old_ids = induced_subgraph(g, comp)
        if d > diameter(sub):
            total += 1
            chosen.append(old_ids[0])
            continue
        size, witness = _solve_component(sub, d)
        total += size
        chosen.extend(old_ids[v] for v in witness)
    return total, tuple(sorted(chosen))
