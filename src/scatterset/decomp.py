"""Tree decompositions: validation, construction, nice form, balancing.

A decomposition node is identified by its index into `bags`.  Nice
decompositions are rooted binary trees of typed nodes (leaf / introduce /
forget / join) whose root bag is empty, so dynamic programs read their
answer from a single root entry.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .graph_core import ParseError, WeightedGraph, ints, records


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[tuple[int, ...], ...]
    tree_edges: tuple[tuple[int, int], ...]
    root: int = 0

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1


@dataclass(frozen=True)
class Violation:
    """First failed decomposition property, with witnesses."""

    kind: str  # "nice" | "structure" | "vertex-coverage" | "edge-coverage" | "connectivity"
    message: str
    witness: tuple[int, ...] = ()


@dataclass(frozen=True)
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple[int, ...]
    children: tuple[int, ...]
    vertex: int | None = None  # the vertex added (introduce) or removed (forget)


@dataclass(frozen=True)
class NiceDecomposition:
    """Typed nodes whose child lists form one tree under `root`.

    The root is no node's child and every other node is exactly one node's
    child.  An introduce or forget node's bag is its child's with `vertex`
    put in or taken out at one position, the rest in order; a join node's
    children have its bag.  The dynamic programs read and write bag fields
    by position, so the order is part of the form.
    """

    nodes: tuple[NiceNode, ...]
    root: int

    @property
    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1


def _parents(td: TreeDecomposition) -> list[int] | Violation:
    """Each node's parent (-1 at the root), or the first structure violation.

    This one rooting pass is the only code that reads a plain tree's shape:
    the validator, `make_nice` and `decomposition_depth` all start from it.
    `validate_nice` reads a nice form's shape from its child lists.
    """
    n = len(td.bags)
    if n == 0:
        return Violation("structure", "decomposition has no nodes")
    if not (0 <= td.root < n):
        return Violation("structure", f"root {td.root} out of range")
    if len(td.tree_edges) != n - 1:
        return Violation(
            "structure", f"{len(td.tree_edges)} edges for {n} nodes, want {n - 1}"
        )
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in td.tree_edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            return Violation("structure", f"bad tree edge ({a},{b})", (a, b))
        adj[a].append(b)
        adj[b].append(a)
    parent = [-2] * n  # -2 until the node is reached
    parent[td.root] = -1
    stack = [td.root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if parent[v] == -2:
                parent[v] = u
                stack.append(v)
    if -2 in parent:
        return Violation("structure", "decomposition tree is not connected")
    return parent


def _children(td: TreeDecomposition) -> list[list[int]]:
    """Each node's children in `tree_edges` order; raises on a malformed tree."""
    parent = _parents(td)
    if isinstance(parent, Violation):
        raise ValueError(f"invalid decomposition: {parent.message}")
    children: list[list[int]] = [[] for _ in td.bags]
    for a, b in td.tree_edges:
        if parent[b] == a:
            children[a].append(b)
        else:
            children[b].append(a)
    return children


def _check_tops(
    g: WeightedGraph,
    bags: Iterable[Sequence[int]],
    tops: dict[int, Collection[int]],
    split: Collection[int],
) -> Violation | None:
    """The first broken decomposition property, read off each vertex's top bags.

    A top of v is a bag holding v that is the root or whose parent bag lacks
    v.  `tops` maps each bag vertex to the union of its top bags, `split`
    holds the vertices with more than one top, and `bags` is scanned only to
    name the first out-of-range vertex.  Each node's parent chain ends at the
    root, so every bag vertex has a top: v is in some bag iff it has one,
    and its bags are connected iff it has exactly one, since each connected
    group of them has one.  An edge uv lies in a bag iff v is in a top bag
    of u or u in one of v: walking up from a bag holding both, the first
    bag whose parent lacks one of them is a top of that one.  The checks run
    in the validator's order: range, coverage, edges in `g.edges` order,
    connectivity, each reporting its lowest or first offender.
    """
    n = g.n
    if tops and (min(tops) < 0 or max(tops) >= n):
        v = next(v for bag in bags for v in bag if not 0 <= v < n)
        return Violation("structure", f"bag vertex {v} out of range", (v,))
    if len(tops) < n:
        v = next(v for v in range(n) if v not in tops)
        return Violation("vertex-coverage", f"vertex {v} in no bag", (v,))
    for u, v, _ in g.edges:
        if v not in tops[u] and u not in tops[v]:
            return Violation("edge-coverage", f"edge ({u},{v}) in no bag", (u, v))
    if split:
        v = min(split)
        return Violation(
            "connectivity", f"bags containing vertex {v} are not connected in the tree", (v,)
        )
    return None


def validate_decomposition(g: WeightedGraph, td: TreeDecomposition) -> Violation | None:
    """Check tree shape plus the three decomposition properties.

    Returns None when valid, otherwise the first violation found.  Node i
    is a top of the vertices its bag holds and its parent's lacks; the
    properties are read off those tops by `_check_tops`.
    """
    parent = _parents(td)
    if isinstance(parent, Violation):
        return parent
    bags = td.bags
    tops: dict[int, Collection[int]] = {}
    split: set[int] = set()
    for bag, p in zip(bags, parent):
        for v in set(bag).difference(bags[p] if p >= 0 else ()):
            if v in tops:
                split.add(v)
                tops[v] = set(tops[v]).union(bag)
            else:
                tops[v] = bag
    return _check_tops(g, bags, tops, split)


def _fill(work: list[set[int]], v: int) -> int:
    """Edges missing among v's neighbours: the fill that eliminating v adds."""
    nb = work[v]
    deg = len(nb)
    # Every edge inside the neighbourhood is seen from both of its ends.
    inside = sum(len(nb & work[u]) for u in nb)
    return deg * (deg - 1) // 2 - inside // 2


def heuristic_decomposition(g: WeightedGraph) -> TreeDecomposition:
    """Min-fill elimination ordering; ties broken by lowest vertex id.

    The bag of an eliminated vertex is the vertex plus its current
    neighborhood; each bag attaches to the bag of its earliest-eliminated
    surviving neighbor, which yields a valid decomposition.

    Fill counts are kept exact by deltas.  Eliminating v with neighbour set
    nb removes v from its neighbours' sets and joins nb into a clique.
    - fill(v) = 0: nb is already a clique, so each u in nb only loses v and
      the deg(u) - |nb| pairs of v with u's neighbours outside nb (deg taken
      before the removal).  No other vertex's neighbourhood changes.
    - fill(v) > 0: a vertex x outside nb + v keeps its neighbours, and
      loses one fill for each fill edge (a, b) with both a and b adjacent to
      x.  The members of nb are recomputed.
    Changed fills are pushed onto a lazy (fill, id) heap, whose stale
    entries are skipped when popped.
    """
    n = g.n
    work: list[set[int]] = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        work[u].add(v)
        work[v].add(u)
    fill = [_fill(work, v) for v in range(n)]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    eliminated = [False] * n
    position = [0] * n
    elim_bags: list[tuple[int, ...]] = []
    for step in range(n):
        while True:
            f, best_v = heapq.heappop(heap)
            if not eliminated[best_v] and f == fill[best_v]:
                break
        eliminated[best_v] = True
        position[best_v] = step
        nb = work[best_v]
        elim_bags.append(tuple(sorted([best_v, *nb])))
        if f == 0:
            size = len(nb)
            for u in nb:
                nu = work[u]
                if len(nu) > size:
                    fill[u] -= len(nu) - size
                    heapq.heappush(heap, (fill[u], u))
                nu.discard(best_v)
            continue
        members = sorted(nb)
        changed: set[int] = set()
        for i, a in enumerate(members):
            na = work[a]
            for b in members[i + 1 :]:
                if b not in na:
                    for x in na & work[b]:
                        if x != best_v and x not in nb:
                            fill[x] -= 1
                            changed.add(x)
        for u in nb:
            nu = work[u]
            nu |= nb
            nu.discard(u)
            nu.discard(best_v)
        for x in changed:
            heapq.heappush(heap, (fill[x], x))
        for u in nb:
            f = _fill(work, u)
            if f != fill[u]:
                fill[u] = f
                heapq.heappush(heap, (f, u))
    edges: list[tuple[int, int]] = []
    for step, bag in enumerate(elim_bags):
        later = [position[u] for u in bag if position[u] > step]
        if later:
            edges.append((step, min(later)))
        elif step + 1 < n:
            # isolated remainder: chain to the next eliminated node
            edges.append((step, step + 1))
    return TreeDecomposition(bags=tuple(elim_bags), tree_edges=tuple(edges), root=n - 1)


def postorder(children: Sequence[Sequence[int]], root: int) -> list[int]:
    """The nodes under `root`, each after its children.

    Sibling subtrees come in reverse child order, the last child's first;
    `make_nice`'s node ids and so its `.td` output depend on this order.
    """
    order: list[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(reversed(children[u]))
    order.reverse()
    return order


def make_nice(td: TreeDecomposition) -> NiceDecomposition:
    """Convert to a nice decomposition of identical width, empty root bag.

    Each original bag appears, as a set, as some nice node's bag.  Every
    chain is one `lift`, which forgets then introduces one vertex at a time
    in sorted order: from a leaf's lowest vertex up to its bag, from an only
    child's bag to its parent's, and from the root bag down to the empty bag.

    A node u with several children joins them on what they share with it.
    Each child c is lifted to S_c = bag_c ∩ bag_u, which only forgets; the
    children are then joined smallest S_c first (ties in child order) over
    the running union, each side introducing only what the other brings;
    the rest of bag_u is introduced once, above the last join.  Lifting
    every child to bag_u would introduce a vertex no child holds once per
    child, and double each child table for it.  Every path still introduces
    |bag_u ∖ bag_c| vertices between c and u, so `max_introduce_depth` is
    the same as with full lifts, and a nice input maps onto itself.
    """
    children = _children(td)
    if not any(td.bags):
        # Graphs have at least one vertex, so vertex 0 is left uncovered.
        raise ValueError("invalid decomposition: vertex 0 in no bag")

    nodes: list[NiceNode] = []

    def emit(kind: str, bag: Iterable[int], kids: tuple[int, ...], vertex: int | None = None) -> int:
        nodes.append(NiceNode(kind, tuple(sorted(bag)), kids, vertex))
        return len(nodes) - 1

    def lift(top: int, from_bag: Iterable[int], to_bag: Iterable[int]) -> int:
        cur, target = set(from_bag), set(to_bag)
        for v in sorted(cur - target):
            cur.remove(v)
            top = emit("forget", cur, (top,), v)
        for v in sorted(target - cur):
            cur.add(v)
            top = emit("introduce", cur, (top,), v)
        return top

    # A node stays if its bag is nonempty or a child stays: subtrees of
    # empty bags contribute nothing to a nice form.
    top_of: dict[int, int] = {}
    for u in postorder(children, td.root):
        kids = [c for c in children[u] if c in top_of]
        bag_u = td.bags[u]
        if not kids:
            if bag_u:
                first = (min(bag_u),)
                top_of[u] = lift(emit("leaf", first, ()), first, bag_u)
            continue
        if len(kids) == 1:
            top_of[u] = lift(top_of[kids[0]], td.bags[kids[0]], bag_u)
            continue
        shared = {c: set(td.bags[c]).intersection(bag_u) for c in kids}
        first, *rest = sorted(kids, key=lambda c: len(shared[c]))
        acc, acc_bag = lift(top_of[first], td.bags[first], shared[first]), shared[first]
        for c in rest:
            bag = acc_bag | shared[c]
            # Child c forgets down to shared[c], then introduces what acc brings.
            acc = emit("join", bag, (lift(acc, acc_bag, bag), lift(top_of[c], td.bags[c], bag)))
            acc_bag = bag
        top_of[u] = lift(acc, acc_bag, bag_u)
    root = lift(top_of[td.root], td.bags[td.root], ())
    return NiceDecomposition(nodes=tuple(nodes), root=root)


def nice_to_tree(nd: NiceDecomposition) -> TreeDecomposition:
    """View a nice decomposition as a plain TreeDecomposition."""
    edges = []
    for i, node in enumerate(nd.nodes):
        for c in node.children:
            edges.append((i, c))
    return TreeDecomposition(
        bags=tuple(node.bag for node in nd.nodes),
        tree_edges=tuple(edges),
        root=nd.root,
    )


def _adds(big: tuple[int, ...], small: tuple[int, ...], v: int | None) -> bool:
    """Whether big is small with v, not in small, put in at one position, the rest in order."""
    if v in small or v not in big:
        return False
    k = big.index(v)
    return big[:k] + big[k + 1 :] == small


def validate_nice(nd: NiceDecomposition, g: WeightedGraph | None = None) -> Violation | None:
    """First broken nice-form rule; given g, then the first broken decomposition property.

    A broken nice rule is a Violation of kind "nice": a node's kind,
    children or bag, where a parent's bag must be its child's with one
    vertex put in or taken out, the rest in order, or a root bag that is
    not empty.  The child lists must then form one tree under the root: a
    root or child index that names no node, or any other shape, is a
    structure violation, the one `_parents` reports for the plain-tree view
    where it has one and otherwise one naming a node that is no node's
    child.  Every child preceding its one parent, as in each nice form
    `make_nice` builds, proves the shape without a walk.

    With g, the rest is what `validate_decomposition(g, nice_to_tree(nd))`
    reports, from the same pass over the nodes: below an empty root bag, a
    node's parent lacks v only if it forgets v, so the tops of v are the
    child bags of its forget nodes, and `_check_tops` reads the properties
    off those.
    """
    nodes = nd.nodes
    count = len(nodes)
    has_parent = bytearray(count)
    ordered = True  # every child precedes its parent
    tree_edges = 0
    forgot: dict[int, Collection[int]] = {}  # v -> its forget nodes' child bags
    twice: set[int] = set()  # vertices forgotten more than once
    for i, node in enumerate(nodes):
        kids, kind, bag = node.children, node.kind, node.bag
        tree_edges += len(kids)
        for c in kids:
            if not 0 <= c < i:
                if not 0 <= c < count:
                    return _parents(nice_to_tree(nd))
                ordered = False
            has_parent[c] = 1
        if kind == "leaf":
            if kids or len(bag) != 1:
                return Violation("nice", f"node {i}: leaf must have no children and a size-1 bag")
        elif kind == "introduce" or kind == "forget":
            if len(kids) != 1:
                return Violation("nice", f"node {i}: {kind} needs exactly one child")
            v, child = node.vertex, nodes[kids[0]].bag
            if kind == "introduce":
                if not _adds(bag, child, v):
                    return Violation("nice", f"node {i}: introduce bag mismatch")
            else:
                if not _adds(child, bag, v):
                    return Violation("nice", f"node {i}: forget bag mismatch")
                if v in forgot:
                    twice.add(v)
                    forgot[v] = set(forgot[v]).union(child)
                else:
                    forgot[v] = child
        elif kind == "join":
            if len(kids) != 2:
                return Violation("nice", f"node {i}: join needs two children")
            if any(nodes[c].bag != bag for c in kids):
                return Violation("nice", f"node {i}: join children bags differ from own bag")
        else:
            return Violation("nice", f"node {i}: unknown kind {kind!r}")
    if not 0 <= nd.root < count:
        return _parents(nice_to_tree(nd))
    if nodes[nd.root].bag != ():
        return Violation("nice", "root bag is not empty")
    # n - 1 edges to distinct children, none of them the root: every other
    # node is one node's child.  Then all are below the root if every child
    # precedes its parent, as following parents from any node ends there;
    # otherwise iff a walk from the root, which meets no cycle, meets them all.
    tree = tree_edges == count - 1 == has_parent.count(1) and not has_parent[nd.root]
    if tree and not ordered:
        tree = len(postorder([node.children for node in nodes], nd.root)) == count
    if not tree:
        bad = _parents(nice_to_tree(nd))
        if isinstance(bad, Violation):
            return bad
        # A tree in the plain view whose child lists do not hang from the
        # root leaves some other node no node's child.
        orphan = next(i for i in range(count) if i != nd.root and not has_parent[i])
        return Violation("structure", f"node {orphan} is no node's child", (orphan,))
    if g is None:
        return None
    return _check_tops(g, (node.bag for node in nodes), forgot, twice)


def decomposition_depth(td: TreeDecomposition) -> int:
    """Edges on the longest root-to-leaf path; a malformed tree raises ValueError."""
    children = _children(td)
    depth = 0
    stack = [(td.root, 0)]
    while stack:
        u, h = stack.pop()
        depth = max(depth, h)
        for c in children[u]:
            stack.append((c, h + 1))
    return depth


def max_introduce_depth(nd: NiceDecomposition) -> int:
    """Largest number of introduce nodes on any root-to-leaf path."""
    best = 0
    stack = [(nd.root, 0)]
    while stack:
        i, acc = stack.pop()
        node = nd.nodes[i]
        if node.kind == "introduce":
            acc += 1
        if not node.children:
            best = max(best, acc)
        for c in node.children:
            stack.append((c, acc))
    return best


def _compress(td: TreeDecomposition) -> tuple[list[set[int]], list[set[int]]]:
    """Contract edges whose one bag is a subset of the other.

    Returns (bags, adjacency) of the contracted tree.
    """
    n = len(td.bags)
    bags = [set(b) for b in td.bags]
    adj = [set() for _ in range(n)]
    for a, b in td.tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(n))
    changed = True
    while changed:
        changed = False
        for u in sorted(alive):
            for v in sorted(adj[u]):
                if bags[u] <= bags[v] or bags[v] <= bags[u]:
                    # merge u into v (keep the superset bag on v)
                    if bags[v] <= bags[u]:
                        bags[v] = bags[u]
                    adj[v].discard(u)
                    for w in adj[u]:
                        if w != v:
                            adj[w].discard(u)
                            adj[w].add(v)
                            adj[v].add(w)
                    adj[u] = set()
                    alive.remove(u)
                    changed = True
                    break
    index = {u: i for i, u in enumerate(sorted(alive))}
    new_bags = [bags[u] for u in sorted(alive)]
    new_adj: list[set[int]] = [set() for _ in alive]
    for u in sorted(alive):
        for v in adj[u]:
            new_adj[index[u]].add(index[v])
    return new_bags, new_adj


def balance(td: TreeDecomposition, g: WeightedGraph) -> TreeDecomposition:
    """Rooted decomposition with width <= 3w+2 and logarithmic depth.

    Recursive splitting of the (subset-contracted) decomposition tree: each
    piece keeps at most two portal nodes whose bags are merged into the
    piece's emitted bag, so every emitted bag unions at most three original
    bags.  A piece with two portals splits at the median of the path
    between them, any other at its centroid; both come from one rooted pass
    that gives each node's parent and subtree size.  The parts left by a
    separator hang directly below its bag, in order of their lowest node,
    however many there are: `make_nice` joins any number of children.

    The input is validated here: on the approximation path no other layer
    checks it.  The result is checked for width <= 3w+2 and depth
    4*ceil(log2(n+1)) + 4, and a violation raises.  It is not
    validated again, because its consumers do that: the DP engine's input
    check, and `decompose`'s round-trip check of the file it writes.
    """
    bad = validate_decomposition(g, td)
    if bad is not None:
        raise ValueError(f"invalid decomposition: {bad.message}")
    width = td.width
    bags, adj = _compress(td)
    total_nodes = len(bags)

    out_bags: list[tuple[int, ...]] = []
    out_children: list[list[int]] = []
    # Separators already chosen; a piece is a component of the tree minus them.
    removed = [False] * total_nodes
    parent = [-1] * total_nodes
    size = [0] * total_nodes

    def emit(bag: set[int], children: list[int]) -> int:
        out_bags.append(tuple(sorted(bag)))
        out_children.append(children)
        return len(out_bags) - 1

    def rooted(root: int) -> list[int]:
        """BFS order of root's piece; fills parent and size for its nodes."""
        parent[root] = -1
        order = [root]
        for u in order:
            for v in adj[u]:
                if v != parent[u] and not removed[v]:
                    parent[v] = u
                    order.append(v)
        for u in order:
            size[u] = 1
        for u in reversed(order[1:]):
            size[parent[u]] += size[u]
        return order

    def centroid(piece: list[int]) -> int:
        """Lowest id whose removal leaves the smallest largest part."""
        order = rooted(min(piece))
        heavy = dict.fromkeys(order, 0)
        for u in order[1:]:
            heavy[parent[u]] = max(heavy[parent[u]], size[u])
        return min(order, key=lambda c: (max(len(order) - size[c], heavy[c]), c))

    def path_median(piece: list[int], a: int, b: int) -> int:
        """First node on the a-b path past which at most half the piece lies."""
        rooted(a)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        for q, nxt in zip(path, path[1:]):
            if 2 * size[nxt] <= len(piece):
                return q
        return b

    def split(piece: list[int], portals: tuple[int, ...]) -> int:
        s = path_median(piece, *portals) if len(portals) == 2 else centroid(piece)
        merged = set(bags[s])
        for p in portals:
            merged |= bags[p]
        removed[s] = True
        kids: list[int] = []
        # The parts of piece - s, one per neighbour of s, which heads its list.
        for comp in sorted((rooted(v) for v in adj[s] if not removed[v]), key=min):
            ports = sorted({p for p in portals if p in comp} | {comp[0]})
            if len(ports) > 2:
                raise RuntimeError("balance invariant breached: >2 portals")
            kids.append(split(comp, tuple(ports)))
        return emit(merged, kids)

    root = split(list(range(total_nodes)), ())
    edges = []
    for i, kids in enumerate(out_children):
        for c in kids:
            edges.append((i, c))
    result = TreeDecomposition(bags=tuple(out_bags), tree_edges=tuple(edges), root=root)

    if result.width > 3 * width + 2:
        raise RuntimeError(
            f"balance width {result.width} exceeds bound {3 * width + 2}"
        )
    depth_bound = 4 * (g.n).bit_length() + 4
    got_depth = decomposition_depth(result)
    if got_depth > depth_bound:
        raise RuntimeError(f"balance depth {got_depth} exceeds bound {depth_bound}")
    return result


def parse_td(text: str) -> TreeDecomposition:
    """Parse the PACE-style .td format (1-based ids, 'c' comments).

    Malformed lines, a bag that lists a vertex twice among them, raise
    `ParseError` naming the 1-based line number.
    """
    num_bags = -1
    bags: dict[int, tuple[int, ...]] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: list[int] = []
    for line_no, fields in records(text):
        if fields[0] == "s":
            if num_bags >= 0:
                raise ParseError(line_no, "duplicate solution line")
            if len(fields) != 5 or fields[1] != "td":
                raise ParseError(line_no, "malformed 's td' line")
            num_bags = ints(line_no, fields[2:])[0]
            if num_bags < 0:
                raise ParseError(line_no, f"negative bag count {num_bags}")
        elif fields[0] == "b":
            if len(fields) < 2:
                raise ParseError(line_no, "malformed bag, want 'b <id> <vertices...>'")
            idx, *members = ints(line_no, fields[1:])
            if idx in bags:
                raise ParseError(line_no, f"duplicate bag id {idx}")
            bag = tuple(sorted(v - 1 for v in members))
            if len(set(bag)) < len(bag):
                repeated = next(x for x, y in zip(bag, bag[1:]) if x == y)
                raise ParseError(line_no, f"vertex {repeated + 1} repeated in bag {idx}")
            bags[idx] = bag
        else:
            if len(fields) != 2:
                raise ParseError(line_no, "malformed tree edge, want '<a> <b>'")
            a, b = ints(line_no, fields)
            edges.append((a - 1, b - 1))
            edge_lines.append(line_no)
    if num_bags < 0:
        raise ValueError("missing 's td' line")
    # Duplicate ids were rejected above, so this is "ids are 1..num_bags"
    # without a set the size of the header's count.
    if len(bags) != num_bags or not all(1 <= i <= num_bags for i in bags):
        raise ValueError("bag ids must be 1..num_bags exactly")
    for (a, b), line_no in zip(edges, edge_lines):
        if not (0 <= a < num_bags and 0 <= b < num_bags):
            raise ParseError(line_no, f"tree edge ({a + 1},{b + 1}) references a missing bag")
    ordered = tuple(bags[i] for i in range(1, num_bags + 1))
    return TreeDecomposition(bags=ordered, tree_edges=tuple(edges), root=0)


def format_td(td: TreeDecomposition, n: int) -> str:
    lines = [f"s td {len(td.bags)} {td.width + 1} {n}"]
    for i, bag in enumerate(td.bags, start=1):
        lines.append("b " + " ".join([str(i)] + [str(v + 1) for v in bag]))
    for a, b in td.tree_edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"
