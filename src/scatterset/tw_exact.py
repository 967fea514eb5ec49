"""Dynamic programming for d-scattered sets over nice tree decompositions.

One engine, `dp_over_decomposition`, runs a sparse clearance DP bottom-up
over a nice decomposition: per bag vertex it tracks either "selected" or the
exact (capped) distance to the nearest selection that has already been
forgotten.  Sparse keys make it output-sensitive, and the clearance
semantics compose without correction terms, which keeps counting exact.
`count_scattered` and `max_scattered` run it in counting and maximizing
mode; `solve_via_treedepth` adds a per-component diameter shortcut.  The
`clearance` hook lets the approximation module re-run the same engine over
a rounded value domain.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    all_pairs_distances,
    connected_components,
    diameter,
    induced_subgraph,
)

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
    modulus: int | None = None,
):
    """Run the scattered-set DP bottom-up over a nice decomposition.

    Entries are keyed by the bag's state tuple: -1 marks a selected vertex,
    any other value is the clearance (capped distance to the nearest
    selection already forgotten), expressed in the clearance domain's units.
    Counting keys carry the selection count; in max mode the value holds the
    best count and a backtrack link.

    Returns per-size counts (counting) or (size, witness) (max).
    """
    global ENGINE_RUNS
    _check_inputs(g, nd, d)
    dom = clearance if clearance is not None else ExactClearance(d)
    k_cap = g.n if k is None else min(k, g.n)
    if modulus is not None and modulus < 2:
        raise ValueError("modulus must be >= 2")
    ENGINE_RUNS += 1
    dist = all_pairs_distances(g).dist
    cap = dom.cap
    counting = mode == "count"
    if mode not in ("count", "max"):
        raise ValueError(f"unknown mode {mode!r}")

    tables: dict[int, dict] = {}

    def _node_table(i: int) -> dict:
        node = nd.nodes[i]
        if node.kind == "leaf":
            v = node.bag[0]
            if counting:
                table = {(0, (cap,)): 1, (1, (_SELECTED,)): 1}
            else:
                table = {
                    (cap,): (0, ("leaf", v, False)),
                    (_SELECTED,): (1, ("leaf", v, True)),
                }
        elif node.kind == "introduce":
            child = node.children[0]
            ctable = tables[child]
            cbag = nd.nodes[child].bag
            v = node.vertex
            pos = node.bag.index(v)
            drow = dist[v]
            table = {}
            for key in sorted(ctable):
                states = key[1] if counting else key
                kappa = key[0] if counting else ctable[key][0]
                value = ctable[key]
                reach = cap
                sel_ok = True
                for j, u in enumerate(cbag):
                    s = states[j]
                    w = drow[u]
                    if s == _SELECTED:
                        if sel_ok and not dom.admit_distance(w):
                            sel_ok = False
                    elif w < INF:
                        c = dom.add(s, w)
                        if c < reach:
                            reach = c
                ext = states[:pos] + (reach,) + states[pos:]
                if counting:
                    _acc_count(table, (kappa, ext), value)
                else:
                    _acc_max(table, ext, value[0], ("intro", key, None))
                if sel_ok and dom.admit_clearance(reach) and kappa + 1 <= k_cap:
                    sel = states[:pos] + (_SELECTED,) + states[pos:]
                    if counting:
                        _acc_count(table, (kappa + 1, sel), value)
                    else:
                        _acc_max(table, sel, value[0] + 1, ("intro", key, v))
        elif node.kind == "forget":
            child = node.children[0]
            ctable = tables[child]
            cbag = nd.nodes[child].bag
            v = node.vertex
            pos = cbag.index(v)
            zrow = dist[v]
            table = {}
            for key in sorted(ctable):
                states = key[1] if counting else key
                value = ctable[key]
                s_v = states[pos]
                if s_v == _SELECTED:
                    rest = []
                    for j, u in enumerate(cbag):
                        if j == pos:
                            continue
                        s = states[j]
                        if s == _SELECTED:
                            rest.append(_SELECTED)
                        else:
                            rest.append(min(s, dom.from_distance(zrow[u])))
                    new_states = tuple(rest)
                else:
                    new_states = states[:pos] + states[pos + 1 :]
                if counting:
                    _acc_count(table, (key[0], new_states), value)
                else:
                    _acc_max(table, new_states, value[0], ("forget", key))
        else:  # join
            lchild, rchild = node.children
            ltable, rtable = tables[lchild], tables[rchild]
            table = {}
            by_mask: dict[tuple[int, ...], list] = {}
            for key in sorted(rtable):
                states = key[1] if counting else key
                mask = tuple(j for j, s in enumerate(states) if s == _SELECTED)
                by_mask.setdefault(mask, []).append(key)
            for lkey in sorted(ltable):
                lstates = lkey[1] if counting else lkey
                lmask = tuple(j for j, s in enumerate(lstates) if s == _SELECTED)
                lval = ltable[lkey]
                for rkey in by_mask.get(lmask, ()):
                    rstates = rkey[1] if counting else rkey
                    merged = []
                    ok = True
                    for j, a in enumerate(lstates):
                        b = rstates[j]
                        if a == _SELECTED:
                            merged.append(_SELECTED)
                        elif dom.join_ok(a, b):
                            merged.append(a if a < b else b)
                        else:
                            ok = False
                            break
                    if not ok:
                        continue
                    nsel = len(lmask)
                    if counting:
                        kappa = lkey[0] + rkey[0] - nsel
                        if kappa <= k_cap:
                            _acc_count(table, (kappa, tuple(merged)), lval * rtable[rkey])
                    else:
                        rval = rtable[rkey]
                        _acc_max(
                            table,
                            tuple(merged),
                            lval[0] + rval[0] - nsel,
                            ("join", lkey, rkey),
                        )
        if counting and modulus is not None:
            table = {key: value % modulus for key, value in table.items()}
        return table

    for i in _nice_postorder(nd):
        tables[i] = _node_table(i)

    root_table = tables[nd.root]
    if counting:
        return [root_table.get((kappa, ()), 0) for kappa in range(k_cap + 1)]
    size, _ = root_table[()]
    witness = _extract_witness(nd, tables, root_table)
    return size, tuple(sorted(witness))


def _acc_count(table: dict, key, value: int) -> None:
    if value:
        table[key] = table.get(key, 0) + value


def _acc_max(table: dict, key, size: int, link) -> None:
    old = table.get(key)
    if old is None or size > old[0]:
        table[key] = (size, link)


def _extract_witness(nd: NiceDecomposition, tables: dict[int, dict], root_table) -> set[int]:
    chosen: set[int] = set()
    stack: list[tuple[int, object]] = [(nd.root, ())]
    while stack:
        node_id, key = stack.pop()
        link = tables[node_id][key][1]
        kind = link[0]
        node = nd.nodes[node_id]
        if kind == "leaf":
            if link[2]:
                chosen.add(link[1])
        elif kind == "intro":
            if link[2] is not None:
                chosen.add(link[2])
            stack.append((node.children[0], link[1]))
        elif kind == "forget":
            stack.append((node.children[0], link[1]))
        else:  # join
            stack.append((node.children[0], link[1]))
            stack.append((node.children[1], link[2]))
    return chosen


# ---------------------------------------------------------------------------
# Solver layer
# ---------------------------------------------------------------------------


def count_scattered(
    g: WeightedGraph,
    nd: NiceDecomposition,
    d: int,
    k: int,
    modulus: int | None = None,
) -> list[int]:
    """Number of d-scattered sets of each size 0..k (exact, big integers).

    An optional modulus reduces every table value, trading exact counts for
    bounded memory on stress instances.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    inner = dp_over_decomposition(g, nd, d, mode="count", k=k, modulus=modulus)
    return inner + [0] * (k + 1 - len(inner))


def max_scattered(g: WeightedGraph, nd: NiceDecomposition, d: int) -> tuple[int, VertexSet]:
    """Maximum d-scattered set size and a witness of that size.

    The witness comes from backtracking and is not re-checked here; the CLI
    re-validates every witness it prints.
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
