"""Dynamic programming for d-scattered sets over nice tree decompositions.

One engine, `dp_over_decomposition`, runs a sparse clearance DP bottom-up
over a nice decomposition.  Every table is keyed by the bag's state alone:
per bag vertex, either "selected" or the exact distance to the nearest
selection that has already been forgotten, capped at a fold point above
which no later test tells clearances apart.  In a unit-weight graph that
leaves d states per bag vertex (selected, and clearances 1..d-1), as in the
paper's O*(d^tw) bound.  A state is one int with a bit field per bag
position, so the join's compatibility test and its fieldwise min are a few
whole-int operations, not a loop over the bag; in the exact domain so are
the per-entry partner limits that the test reads.  Sparse keys make it
output-sensitive, and the clearance semantics compose without correction
terms, which keeps counting exact.

In counting mode an entry's value is one big integer that packs the counts
of all selection sizes: the count of size m sits in bits [m*B, (m+1)*B).
Selecting a vertex shifts the packed polynomial up one slot, and a join
multiplies two of them in a single integer product.  Slots are wide enough
that no carry ever reaches a kept count; `dp_over_decomposition` gives the
bound and its proof.  Below k = n a join skips the pairs whose product
lies wholly above slot k.  In maximizing mode the value is an int mask
alone: bit v is set when vertex v is in one best partial solution for
that state, so the root's mask is the witness and its popcount the size.
Each forget table in maximizing mode keeps only its undominated entries:
an entry goes when another has the same selections, at least its
clearance at every bag position and at least its size.  Every later step
is monotone in each clearance, so no maximum changes
(`dp_over_decomposition` gives the proof); counting never prunes.  Both
modes free each child table once its parent has consumed it.

`count_scattered` and `max_scattered` run the engine in those two modes.
The `clearance` hook lets the approximation module re-run the same engine
over a rounded value domain; the engine memoizes every hook call per solve.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .decomp import NiceDecomposition, validate_nice
from .graph_core import INF, VertexSet, WeightedGraph, distances_within

# Unused here, but bench/tracing.py wraps these module-level names and the
# benchmark's tests require every name it wraps to exist.
from .decomp import nice_to_tree, validate_decomposition  # noqa: F401
from .graph_core import all_pairs_distances  # noqa: F401

# Number of times the decomposition DP has actually executed; only
# bench/run.py reads it, for its tw_exact.engine_runs count.
ENGINE_RUNS = 0

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


def _least(test, hi: int) -> int:
    """Least t in 0..hi - 1 that passes the monotone `test`; hi if none does."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


class _HookMemo:
    """Per-solve memo of a clearance domain's hooks, filled lazily.

    Keys and values are packed field values: 0 is "selected" and c + 1 the
    clearance c.  Only values the DP actually meets are computed, never a
    table over 0..cap: in the exact domain cap = d, which the gadgets make
    huge.

    `top` is the fold point for a graph whose lightest edge weighs `w`
    (None: no edges): the least t that passes admit_clearance(add(t, w))
    and join_ok(t, min(t, lo)), where lo = from_distance(w), or cap if none
    does.  No later test tells a clearance above `top` from `top` itself
    (`dp_over_decomposition` gives the proof), so the engine stores
    min(c, top).  In the exact domain top = max(d - w, ceil(d / 2)).

    `gate[dist]` is (t, read) for a bag-mate at distance dist below d (see
    `dp_over_decomposition`): v may be selected only if the mate's field is
    at least t, and read says whether the mate's field can lower v's reach.
    A read mate has t = 0 at an admitted distance and t = 1 at a refused
    one, where a selected mate (field 0) refuses v.  A pinned mate is not
    read; its t is the least f >= 1 whose reach add(f - 1, dist) is
    admitted, at most top + 1 at every distance dist >= w.
    """

    def __init__(self, dom, w: int | None = None) -> None:
        self.cap = cap = dom.cap
        add, join_ok = dom.add, dom.join_ok
        self.top = cap
        # The least field an unselected position can hold: min(lo, top) + 1.
        lo_field = cap + 1
        if w is not None:
            lo = dom.from_distance(w)
            # Both tests are monotone in t, so their conjunction is too.
            self.top = _least(
                lambda t: dom.admit_clearance(add(t, w)) and join_ok(t, min(t, lo)), cap
            )
            lo_field = min(lo, self.top) + 1
        top_field = self.top + 1
        # rows[w][f] is the field of add(f - 1, w).  A selected position never
        # lowers the reach of a new vertex, so it maps to the cap's field.
        self.rows = _Memo(lambda w: _Memo(lambda f: add(f - 1, w) + 1, {0: cap + 1}))
        # fresh[dist] is the folded field of the clearance at distance dist.
        self.fresh = _Memo(lambda dist: min(dom.from_distance(dist), self.top) + 1)
        # admit[f]: a new vertex whose reach has field f may be selected.
        self.admit = _Memo(lambda f: dom.admit_clearance(f - 1))
        # least[f] is the field of the least partner of clearance f - 1
        # (join_ok is monotone in the partner, and the cap partners every
        # clearance).  A selected position meets a selected one (the join
        # buckets by selection), and its 0 lets it through the same test.
        self.least = _Memo(lambda f: _least(lambda b: join_ok(f - 1, b), cap) + 1, {0: 0})

        def gate(dist: int) -> tuple[int, bool]:
            if dom.admit_distance(dist):
                return 0, True
            row = self.rows[dist]
            if row[lo_field] < top_field:
                return 1, True
            return _least(lambda t: self.admit[row[t + 1]], top_field) + 1, False

        self.gate = _Memo(gate)


def _bag_distances(g: WeightedGraph, nd: NiceDecomposition, d: int) -> dict[int, dict[int, int]]:
    """Distances below d from each introduced or forgotten vertex to its bag-mates.

    v's mates are the other vertices of the bags at its introduce and
    forget nodes: the engine reads v's row only there, at those vertices.
    A missing entry means ">= d": both clearance domains map every such
    distance to the cap and admit it, so it reads as INF without changing
    any state.

    One radius-d search per unordered pair of mates, from the end that is
    forgotten first: each forget node searches from its vertex to its own
    bag.  The engine has validated the form, so each vertex is forgotten at
    exactly one node, and the bags holding both ends of a pair form a
    subtree whose top's parent is the forget node of one of them, the one
    forgotten first; that node's bag still holds the other.  So every pair
    the engine reads meets exactly one search.  Distances are symmetric,
    so each distance found goes into both rows.  A row may hold a mate the
    engine never reads there, but every entry is a true distance below d.
    """
    rows: dict[int, dict[int, int]] = {}
    for node in nd.nodes:
        if node.kind == "forget":
            v = node.vertex
            row = rows.setdefault(v, {})
            for u, dist in distances_within(g, v, set(node.bag), d).items():
                row[u] = dist
                rows.setdefault(u, {})[v] = dist
    return rows


def _check_inputs(g: WeightedGraph, nd: NiceDecomposition, d: int) -> None:
    """Refuse d < 2 and a broken nice form.

    `validate_nice` given g checks the nice rules in one pass over the
    nodes, and the decomposition properties from the tops it meets there:
    the child bags of the forget nodes.  Its rules are the ones this engine
    relies on: bags in the order whose fields it splices and cuts by
    position, and child lists, each child before its parent, that form one
    tree under the root.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    bad = validate_nice(nd, g)
    if bad is not None:
        what = "nice decomposition" if bad.kind == "nice" else "decomposition"
        raise ValueError(f"invalid {what}: {bad.message}")


def _drop_dominated(table: dict[int, int], unit: int, guards: int) -> None:
    """Delete every max-mode entry that another entry of `table` dominates.

    Keys are packed as in `dp_over_decomposition`, with ONES = `unit` and
    H = `guards`.  X dominates Y when both have the same selection set
    (the join's bucket ((key | H) - ONES) & H), X >= Y in every field and
    X's mask has at least as many bits as Y's.  Distinct keys make this a
    strict partial order.

    Each key k is extended to x = popcount(mask) << a | k, a being H's bit
    length, so a bucket of extended keys sorted as plain ints, descending,
    is in (popcount, key) order.  A dominator ranks first in it: its size is
    at least Y's, and its key is larger, its fields being at least Y's.  So
    each dominated key meets an undominated dominator earlier in that order,
    and testing each key against the kept keys before it drops exactly the
    dominated entries.  Each of those kept keys has at least the tested
    key's size, so only their fields remain to compare.

    The kept keys form one packed front: slot i, of a bits, holds the i-th
    kept key K_i | H.  R has a 1 at the bottom of each slot and GG = H * R.
    In front - k * R no borrow crosses a field or a slot: field j of slot i
    computes 2^(W-1) + K_ij - k_j, which lies in [1, 2^W), as in the join's
    identities.  So slot i of Q = ~(front - k * R) & GG is zero exactly when
    K_i >= k in every field.  With HI the top bit of each slot (bit a - 1,
    the last field's guard), (Q - R) & ~Q & HI is nonzero exactly when some
    slot of Q is zero: below the lowest zero slot no slot borrows, and a
    nonzero slot minus one keeps its top bit only if it had it, which ~Q
    clears; the lowest zero slot turns all ones, top bit included.  So one
    test covers the whole front.  One loop serves every bucket of two or
    more keys, and deleting in place keeps the survivors' insertion order.
    """
    if len(table) < 2:
        return
    at = guards.bit_length()
    buckets: dict[int, list[int]] = {}
    for key, mask in table.items():
        buckets.setdefault(((key | guards) - unit) & guards, []).append(mask.bit_count() << at | key)
    if len(buckets) == len(table):
        return
    low = (1 << at) - 1
    # HI's bit in slot 0: the last field's guard.
    top = 1 << (at - 1)
    for bucket in buckets.values():
        if len(bucket) < 2:
            continue
        bucket.sort(reverse=True)
        # The largest x has no dominator: its key fills slot 0.
        front, rep, gg, high, shift = bucket[0] & low | guards, 1, guards, top, at
        for x in bucket[1:]:
            key = x & low
            q = ~(front - key * rep) & gg
            if (q - rep) & ~q & high:
                del table[key]
            else:
                front |= (key | guards) << shift
                rep |= 1 << shift
                gg |= guards << shift
                high |= top << shift
                shift += at


# Count mode refuses when (k_cap + 1) * B, the bits of one packed value with
# every slot full, exceeds this.  On a unit path at d = 3 with k = n, 16.0 M
# bits (n = 4,000) took 2.5 s of CPU on a 2-vCPU x86_64 VM, 64.0 M
# (n = 8,000) 17-24 s and 255.9 M (n = 16,000) 269 s, so the bound admits
# n = 8,000 and refuses 16,000.  The benchmark's largest product is 2,912 bits.
_MAX_COUNT_BITS = 64_000_000


def count_slots(n: int, k: int | None) -> tuple[int, int]:
    """Counting mode's k_cap = min(k, n) and slot width B, or a ValueError.

    B is the bit length of max_{m <= k_cap} C(n, m); C(n, m) is unimodal in
    m with its peak at n // 2.  A packed value of k_cap + 1 slots of more
    than `_MAX_COUNT_BITS` bits in all is refused.  It reads only n and k,
    so `count` refuses before it builds a decomposition.
    """
    k_cap = n if k is None else min(k, n)
    slot_bits = math.comb(n, min(k_cap, n // 2)).bit_length()
    if (k_cap + 1) * slot_bits > _MAX_COUNT_BITS:
        raise ValueError(
            f"count refused: n = {n} and k = {k_cap} give {k_cap + 1} slots of "
            f"B = {slot_bits} bits, more than {_MAX_COUNT_BITS} bits in all"
        )
    return k_cap, slot_bits


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

    Every table is keyed by the bag's state packed into one int.  Bag
    position j owns the W-bit field at bits [j*W, (j+1)*W), which holds the
    position's state plus one: 0 marks a selected vertex, and c + 1 a
    clearance c, the distance to the nearest selection already forgotten,
    in the clearance domain's units and folded at `top` (0 <= c <= top <=
    cap), so field values run 0..top + 1.  "Selected" is below every
    clearance under min; the hook memos (`_HookMemo`) take and return field
    values too.  W = bit length of (cap + 1), plus one, and the top bit of
    each field is a guard bit, 0 in every key: both domains admit the cap,
    so it partners every clearance, and no field value, threshold or least
    partner exceeds cap + 1.  Nodes run in index order, each child before
    its parent, and the last node is the root, whose key is 0.  An
    introduce without a child introduces into the empty bag, whose table
    maps key 0 to no selection.

    Why the fold changes no verdict.  Let w be the lightest edge weight and
    lo = from_distance(w).  An unselected bag vertex is at distance >= w
    from every selection, and add(c, w') >= from_distance(w') for every
    clearance c, so every unselected clearance is at least lo.  `top` is the
    least t with admit_clearance(add(t, w)) and join_ok(t, min(t, lo)).
    Take a clearance c >= top and its folded value top:
    - an introduce reads it as add(c, dist) with dist >= w.  Both add(c,
      dist) and add(top, dist) are at least add(top, w), which is admitted,
      and at least top, so the reach's admission and its folded value
      min(reach, top) are the same either way;
    - a join meets it with a partner b >= lo.  Both join_ok(c, b) and
      join_ok(top, min(b, top)) pass, since top and min(b, top) >= min(top,
      lo) do; and min(c, b) folds to min(min(c, top), min(b, top)), as
      forget's min against the fresh clearances does.
    Every hook is monotone, so each admission and join verdict, and with
    them every count and maximum size, is unchanged.  The introduce admits
    the new vertex on its reach before folding it: at d = 3 in a unit graph
    a reach of 3 is admitted, but its folded value 2 would not be.  The
    exact domain folds at max(d - w, ceil(d / 2)), d - 1 for unit weights;
    a graph without edges keeps top = cap.

    For a bag of b positions let ONES have a 1 in each field and
    H = ONES << (W - 1) be its guard bits.  For keys X and Y:
    - ((X | H) - Y) & H sets field j's guard bit iff x_j >= y_j.  No borrow
      crosses a field: field j computes 2^(W-1) + x_j - y_j, which lies in
      [1, 2^W) because x_j and y_j are both below 2^(W-1).
    - ((X | H) - ONES) & H (Y = ONES) sets the guard bits of the unselected
      fields.  It is the join's mask bucket, and nsel = b - its popcount.
    - K = ((((X | H) - Y) & H) >> (W - 1)) * (2^W - 1) fills each field
      where x_j >= y_j with ones, and X ^ ((X ^ Y) & K) is the fieldwise
      min(X, Y).
    A join pair passes when every inner field is at least the outer entry's
    least-partner field (the first identity equals H), and merges to the
    fieldwise min.  Forget cuts its field out with a mask and a shift and,
    if that field was 0, takes the fieldwise min against the packed fresh
    clearances.  Introduce splices a field in the same way.  Only bag-mates
    closer than d can lower the new vertex v's reach or forbid selecting
    it, and each of them is either pinned or read.

    Why one threshold per mate decides admission.  A mate at distance dist
    is pinned when dist is not admitted, so a selected mate there forbids
    selecting v, and add(lo', dist) >= top, where lo' = min(lo, top) is the
    least clearance an unselected position stores (the fold argument above).
    - Its reach folds to top.  add is monotone, so every stored unselected
      clearance c gives add(c, dist) >= top, and a selected mate gives the
      cap.  So min(reach, top), the stored field of an unselected v, is
      the min over the read mates alone (top if there are none).
    - Admission splits over the mates.  admit_clearance is monotone, so
      admitting the least reach admits every mate's reach.  v may be
      selected exactly when the read mates' least reach is admitted and
      each mate's field f reaches its threshold t (`_HookMemo.gate`).  A
      read mate at an admitted distance never refuses v: t = 0.  One at a
      refused distance refuses v only when selected: t = 1.  A pinned mate
      must be unselected with an admitted reach add(f - 1, dist): t is the
      least field >= 1 whose reach is admitted, at most top + 1: below the
      cap add(top, dist) >= add(top, w) is admitted, and so is the cap.
    With T the thresholds packed at the close mates' fields and H the child
    bag's guard bits, the first identity above gives ((X | H) - T) & H == H
    exactly when every field of X reaches its threshold (a field whose
    threshold is 0 subtracts nothing and borrows nothing), so one test
    decides every mate's threshold.  The read fields alone decide the
    stored reach and its admission, so both are memoized per introduce node
    by that part of the key.  The outputs are the same entries, in the same
    order, as when every close mate is read.  In the exact domain a mate is
    pinned when dist >= top - min(w, top): in a unit graph every mate at
    d <= 3, and every mate at distance 2 or more at d = 4.

    Max mode stores one int mask per state, where bit v is set when vertex
    v is in one best partial solution; the solution's size is the mask's
    popcount.  The empty bag's table is {0: 0}, selecting v ORs in 1 << v,
    forget and an unselected introduce pass the child's mask on unchanged,
    and a join ORs the two masks.  Forget and join keep the mask with more
    bits, and ties keep the first entry found.

    Why max mode may drop dominated entries.  Entry X dominates entry Y of
    the same table when both have the same selection set, X's clearance is
    at least Y's at every bag position, and X's mask has at least as many
    bits.  Every later step is monotone in each clearance field, in both
    domains:
    - the introduce's reach min(add(c, dist)), its admission, and the fold
      min(., top);
    - the forget's fieldwise min against the fresh clearances;
    - the join's least-partner test and its fieldwise-min merge.
    So every extension that Y's state admits, X's state admits too, into a
    state at least as large in every field, with at least as many selected
    vertices.  No maximum changes; a witness may, but only to another set
    of the same size.  Each max-mode forget table therefore drops its
    dominated entries (`_drop_dominated`), and the survivors keep their
    order, so ties still keep the first entry found among them.  A pruned
    table holds no dominated pair, and neither does an introduce's output
    of one: an output entry dominates another only if the child entries
    they extend did (both sizes grow by one when both select the new
    vertex, and neither does otherwise), so introduce needs no filter.
    The filter sorts each selection bucket once, by size and then key, and
    tests each entry against every entry kept before it in one packed-int
    test: the kept keys sit side by side in slots of b * W bits, and the
    first identity above, applied to all slots at once, sets every guard
    bit of a slot exactly when that kept key covers the entry field by
    field.  No borrow crosses a field or a slot, so a zero-slot test on the
    inverted guard bits is exact (`_drop_dominated` gives the argument).
    Join outputs are not filtered: measured on the benchmark's graphs, the
    filter there cost more than it saved.  Counting mode never prunes:
    every partial solution counts.

    Counting mode stores one int P per state, the generating polynomial of
    its partial solutions evaluated at 2^B: the number of partial solutions
    of size m sits in bits [m*B, (m+1)*B), for m <= k_cap = min(k, n), with
    B = bit length of max_{m <= k_cap} C(n, m).  The empty bag's table is
    {0: 1}.  Introducing a selected vertex shifts P up one slot, forget
    adds, join multiplies and shifts down by the nsel shared selections, and
    every step truncates above slot k_cap.  Only counting mode builds B and
    the truncation mask, which has about n^2 bits when k is None; a mask of
    more than `_MAX_COUNT_BITS` bits is refused by `count_slots`.

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
    pair is checked against the outer entry's packed limits: in each field
    the least partner field that `join_ok` accepts.

    Why the exact domain's limits are one subtraction.  There join_ok(c,
    c') is c + c' >= d, so the least partner of a clearance c <= cap = d is
    d - c, whose field is d + 2 - f for the field f = c + 1 in 1..top + 1;
    a selected field (f = 0) has limit 0, as in `_HookMemo.least`.  With M
    the join's bucket mask, (M >> (W - 1)) * (2^W - 1) fills the unselected
    fields with ones, so
        L = ((d + 2) * ONES & (M >> (W - 1)) * (2^W - 1)) - X
    holds d + 2 - f in each unselected field and 0 - 0 in each selected
    one.  d + 2 fits a field, since 2^(W-1) > cap + 1, and no borrow
    crosses a field: each unselected field computes d + 2 - f, which lies
    in [1, d + 1] because 1 <= f <= top + 1 <= d + 1.  So L is the sum of
    the per-field limits, built without a lookup per position.  The rounded
    domain has no such affine partner and sums `_HookMemo.least` per field.

    Why a count-mode join may skip pairs.  Let low(P) = i // B, for i the
    index of P's lowest set bit: the least size with a nonzero count in P
    (every stored P is nonzero).  Each kept count is below 2^B, so its
    lowest set bit lies in its own slot; (i + 1) // B would read one slot
    high when that count is exactly 2^(B-1).  Every term of a product P * Q
    has degree at least low(P) + low(Q), so after the shift by nsel slots
    the product is zero below slot low(P) + low(Q) - nsel, and truncation
    leaves 0 when that exceeds k_cap.  Such a pair adds nothing, so with
    k_cap < n the join sorts each inner bucket by low and each outer entry
    walks, found by bisection, only the inner entries with low <= k_cap +
    nsel - low(outer).  The tables hold the same counts; only their order
    may change, and counting reads no order.  At k_cap = n nothing can be
    skipped: a smallest partial solution of each side shares exactly the
    nsel bag selections with the other, so their union, a set of at most n
    vertices, has low(P) + low(Q) - nsel of them.  The join then keeps its
    buckets unsorted.

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
    hooks = _HookMemo(dom, min((w for _, _, w in g.edges), default=None))
    cap = hooks.cap
    # The fold point's field: no stored clearance field exceeds it.
    top_field = hooks.top + 1
    counting = mode == "count"
    # Whether count-mode joins skip the pairs that truncate to zero.
    skipping = False
    if counting:
        # B of the docstring.  Max mode builds neither B nor the mask: with
        # k = None the mask has about n^2 bits.
        k_cap, slot_bits = count_slots(g.n, k)
        trunc = (1 << (slot_bits * (k_cap + 1))) - 1

        def low_slot(value: int) -> int:
            """The slot of value's lowest set bit: its least nonzero degree."""
            return ((value & -value).bit_length() - 1) // slot_bits

        # At k_cap = n no join pair truncates to zero, so only a smaller
        # k_cap sorts the inner buckets by low slot.
        skipping = k_cap < g.n
    # The exact domain's least partners have a closed form; a rounded one
    # keeps the memoized per-field path.
    exact = isinstance(dom, ExactClearance)
    admit = hooks.admit

    # W of the docstring: every field value, up to cap + 1, sits below the
    # field's guard bit.
    width = (cap + 1).bit_length() + 1
    guard = width - 1
    field = (1 << width) - 1

    def ones(b: int) -> int:
        """ONES of the docstring: a 1 in each of b fields."""
        return ((1 << (b * width)) - 1) // field

    least = hooks.least
    tables: dict[int, dict] = {}
    # The empty bag's table, below every childless introduce: no selection,
    # count 1 or mask 0.
    empty = {0: 1 if counting else 0}

    def _node_table(i: int) -> dict:
        node = nd.nodes[i]
        table: dict = {}
        if node.kind == "forget":
            ctable = tables[node.children[0]]
            cbag = nd.nodes[node.children[0]].bag
            v = node.vertex
            pos = cbag.index(v)
            at = pos * width
            below = (1 << at) - 1
            zrow = near[v]
            unit = ones(len(node.bag))
            guards = unit << guard
            fresh = sum(
                hooks.fresh[zrow.get(u, INF)] << (j * width)
                for j, u in enumerate(cbag[:pos] + cbag[pos + 1 :])
            )
            fresh_guarded = fresh | guards
            for key, value in ctable.items():
                rest = (key & below) | (key >> (at + width) << at)
                if not key >> at & field:
                    # Fieldwise min(rest, fresh); a selected field is 0 and stays.
                    take = (((fresh_guarded - rest) & guards) >> guard) * field
                    rest = fresh ^ ((fresh ^ rest) & take)
                if counting:
                    table[rest] = table.get(rest, 0) + value
                else:
                    old = table.get(rest)
                    if old is None or value.bit_count() > old.bit_count():
                        table[rest] = value
            if not counting:
                _drop_dominated(table, unit, guards)
        elif node.kind == "join":
            # Bucket the larger child table by selection mask and walk the
            # smaller one, so the per-entry thresholds are built for fewer
            # keys; join_ok is symmetric, so either side may supply them.
            outer, inner = (tables[c] for c in node.children)
            if len(outer) > len(inner):
                outer, inner = inner, outer
            b = len(node.bag)
            unit = ones(b)
            guards = unit << guard
            if exact:
                # d + 2 in every field: minus an unselected field f, the
                # least partner's field d + 2 - f.
                partners = (dom.d + 2) * unit
            else:
                shifts = range(0, b * width, width)
            by_mask: dict[int, list] = {}
            for ikey, ivalue in inner.items():
                by_mask.setdefault(((ikey | guards) - unit) & guards, []).append((ikey, ivalue))
            if skipping:
                # Each bucket in ascending order of its entries' low slots,
                # with those slots alongside for the bisection.
                lows_by_mask = {}
                for mask, bucket in by_mask.items():
                    bucket.sort(key=lambda entry: low_slot(entry[1]))
                    lows_by_mask[mask] = [low_slot(ivalue) for _, ivalue in bucket]
            for okey, ovalue in outer.items():
                mask = ((okey | guards) - unit) & guards
                bucket = by_mask.get(mask)
                if bucket is None:
                    continue
                if counting:
                    # nsel, the shared selections.
                    nsel = b - mask.bit_count()
                    shift = slot_bits * nsel
                    if skipping:
                        # Only inner entries whose low slot is at most this
                        # reach a kept slot with this outer entry.
                        most = k_cap + nsel - low_slot(ovalue)
                        bucket = bucket[: bisect_right(lows_by_mask[mask], most)]
                if exact:
                    olimit = (partners & (mask >> guard) * field) - okey
                else:
                    olimit = sum([least[okey >> s & field] << s for s in shifts])
                for ikey, ivalue in bucket:
                    iguarded = ikey | guards
                    if (iguarded - olimit) & guards != guards:
                        continue
                    take = (((iguarded - okey) & guards) >> guard) * field
                    merged = ikey ^ ((ikey ^ okey) & take)
                    if counting:
                        product = ((ovalue * ivalue) >> shift) & trunc
                        if product:
                            table[merged] = table.get(merged, 0) + product
                    else:
                        union = ovalue | ivalue
                        old = table.get(merged)
                        if old is None or union.bit_count() > old.bit_count():
                            table[merged] = union
        else:  # introduce, into the empty bag if it has no child
            v = node.vertex
            if node.children:
                ctable, cbag = tables[node.children[0]], nd.nodes[node.children[0]].bag
            else:
                ctable, cbag = empty, ()
            at = node.bag.index(v) * width
            below = (1 << at) - 1
            drow = near[v]
            # Only bag-mates closer than d can lower v's reach below the cap,
            # and only they can be too close to a selected vertex: every
            # distance of d or more is admitted.  Each of them gates v by a
            # threshold on its field; a read mate also lowers the reach.
            reads = []
            read_mask = thresholds = 0
            for j, u in enumerate(cbag):
                dist = drow.get(u)
                if dist is None:
                    continue
                s = j * width
                threshold, read = hooks.gate[dist]
                thresholds |= threshold << s
                if read:
                    reads.append((s, hooks.rows[dist]))
                    read_mask |= field << s
            guards = ones(len(cbag)) << guard
            # The read fields alone decide v's reach, so it is memoized by
            # that part of the key, with its admission.  Half or more of the
            # lookups miss, yet computing every reach afresh made dp-midwidth
            # `pass_s` about 19% slower (2-vCPU x86_64 VM), so the memo stays.
            verdicts: dict[int, tuple[int, bool]] = {}
            # Keys extend distinct child keys at one field, so none repeat.
            for key, value in ctable.items():
                part = key & read_mask
                verdict = verdicts.get(part)
                if verdict is None:
                    reach = min([row[part >> s & field] for s, row in reads], default=cap + 1)
                    # Admit on the reach itself, then store it folded.
                    verdict = verdicts[part] = (min(reach, top_field), admit[reach])
                reach, selectable = verdict
                # The child's key with a 0 (v selected) field spliced in at v.
                spliced = (key & below) | (key >> at << (at + width))
                table[spliced | reach << at] = value
                # Every close mate's field at least its threshold, in one test.
                if not selectable or ((key | guards) - thresholds) & guards != guards:
                    continue
                if counting:
                    shifted = (value << slot_bits) & trunc
                    if shifted:
                        table[spliced] = shifted
                else:
                    table[spliced] = value | 1 << v
        for c in node.children:
            del tables[c]
        return table

    for i in range(len(nd.nodes)):
        tables[i] = _node_table(i)

    root_table = tables[nd.root]
    if counting:
        packed = root_table.get(0, 0)
        slot = (1 << slot_bits) - 1
        return [(packed >> (m * slot_bits)) & slot for m in range(k_cap + 1)]
    mask = root_table[0]
    return mask.bit_count(), tuple(v for v, bit in enumerate(reversed(f"{mask:b}")) if bit == "1")


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
    return dp_over_decomposition(g, nd, d, mode="max")
