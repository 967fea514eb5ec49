"""Benchmark-instance generators with known scattered-set witnesses.

Four constructions turn small source instances (CNF formulas or k-partite
independence instances) into d-scattered-set benchmarks:

* ``gen_w1_vc``: edge-weighted graphs whose optimum reaches k*k exactly when
  the source admits one vertex per class with no edges between the choices.
* ``gen_fvs_unweighted``: the unit-weight subdivision of the same graphs.
* ``gen_seth``: unit-weight column chains built from a CNF formula at a
  chosen distance d, with the path count p and the group capacity gamma
  derived from (d, epsilon) by exact rational arithmetic.
* ``gen_td_eth``: unit-weight instances from 3-SAT whose clause groups are
  glued through pairwise-consistency verifier vertices.

``gen_w1_vc``, ``gen_fvs_unweighted`` and ``gen_td_eth`` share one
anchor-verifier layout, built by ``_anchor_verifier_layout``.  Every
family's target is the size of the witness a valid assignment yields; only
``gen_w1_vc`` claims it as a threshold.  Every family computes its vertex
and edge counts in closed form and passes them to ``_check_size`` before
it builds its first vertex.

Generators never solve the graphs they emit.  Witnesses are produced only
from a valid source assignment and re-validated with ``is_scattered`` before
release; structural certificates (vertex covers, feedback vertex sets) are
checked against their definitions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graph_core import (
    ParseError,
    VertexSet,
    WeightedGraph,
    ints,
    is_scattered,
    records,
    uncovered_edge,
    vertex_set,
)

# Refuse constructions beyond these sizes instead of thrashing; the
# generators target desk-scale benchmark instances.
_MAX_VERTICES = 2_000_000
_MAX_EDGES = 8_000_000


def _check_size(vertices: int, edges: int) -> None:
    """Refuse a graph of these sizes if it passes either limit."""
    if vertices > _MAX_VERTICES or edges > _MAX_EDGES:
        raise ValueError("generated graph would be too large")


@dataclass(frozen=True)
class CnfFormula:
    """Propositional CNF; clauses are tuples of nonzero signed variable ids."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        for idx, clause in enumerate(self.clauses, start=1):
            if not clause:
                raise ValueError(f"clause {idx} is empty")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"clause {idx}: literal {lit} out of range")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def max_clause_width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    def satisfied_by(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.num_vars:
            raise ValueError("assignment length must equal the variable count")
        return all(
            any(bool(assignment[abs(lit) - 1]) == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


@dataclass(frozen=True)
class McisInstance:
    """k classes of n vertices each; edges may only join distinct classes.

    Vertices are (class_id, index) pairs, both 1-based.  Every class is an
    independent set by construction, so an edge's lower class id comes first.
    """

    num_classes: int
    class_size: int
    edges: frozenset[tuple[tuple[int, int], tuple[int, int]]]

    def __post_init__(self) -> None:
        if self.num_classes < 1 or self.class_size < 1:
            raise ValueError("need at least one class and one vertex per class")
        for (i, l), (j, o) in self.edges:
            if i >= j:
                raise ValueError("edge endpoints must be in distinct classes, lower id first")
            if not (1 <= i <= self.num_classes and 1 <= j <= self.num_classes):
                raise ValueError(f"class id out of range in edge ({i}.{l}, {j}.{o})")
            if not (1 <= l <= self.class_size and 1 <= o <= self.class_size):
                raise ValueError(f"vertex index out of range in edge ({i}.{l}, {j}.{o})")

    def has_edge(self, i: int, l: int, j: int, o: int) -> bool:
        if i > j:
            i, l, j, o = j, o, i, l
        return ((i, l), (j, o)) in self.edges


@dataclass(frozen=True)
class GadgetOutput:
    """A generated benchmark graph plus everything needed to check it."""

    graph: WeightedGraph
    d: int
    target_size: int
    witness: VertexSet | None
    certificate: VertexSet
    certificate_kind: str  # "vertex-cover", "feedback-vertex-set" or "none"
    params: dict[str, object]
    vertex_names: tuple[str, ...]


def parse_cnf(text: str) -> CnfFormula:
    """Parse DIMACS CNF: 'c' comments, 'p cnf <vars> <clauses>', 0-terminated clauses."""
    num_vars: int | None = None
    declared = 0
    tokens: list[int] = []
    for line_no, fields in records(text):
        if fields[0] == "p":
            if num_vars is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(line_no, "expected 'p cnf <vars> <clauses>'")
            num_vars, declared = ints(line_no, fields[2:])
            continue
        if num_vars is None:
            raise ParseError(line_no, "clause before the problem line")
        tokens.extend(ints(line_no, fields))
    if num_vars is None:
        raise ValueError("missing 'p cnf' problem line")
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if not current:
                raise ValueError("empty clause")
            clauses.append(tuple(current))
            current = []
        else:
            current.append(tok)
    if current:
        raise ValueError("last clause is not 0-terminated")
    if declared != len(clauses):
        raise ValueError(f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def _parse_class_vertex(token: str, line_no: int) -> tuple[int, int]:
    cls, sep, idx = token.partition(".")
    if sep != ".":
        raise ParseError(line_no, f"vertex '{token}' is not <class>.<index>")
    try:
        return int(cls), int(idx)
    except ValueError:
        raise ParseError(line_no, f"vertex '{token}' is not <class>.<index>") from None


def parse_mcis(text: str) -> McisInstance:
    """Parse 'p mcis <k> <n>' plus 'e <class.index> <class.index>' lines."""
    header: list[int] | None = None
    edges: set[tuple[tuple[int, int], tuple[int, int]]] = set()
    for line_no, fields in records(text):
        if fields[0] == "p":
            if header is not None:
                raise ParseError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "mcis":
                raise ParseError(line_no, "expected 'p mcis <k> <n>'")
            header = ints(line_no, fields[2:])
        elif fields[0] == "e":
            if header is None:
                raise ParseError(line_no, "edge before the problem line")
            if len(fields) != 3:
                raise ParseError(line_no, "expected 'e <class.index> <class.index>'")
            a = _parse_class_vertex(fields[1], line_no)
            b = _parse_class_vertex(fields[2], line_no)
            if a[0] == b[0]:
                raise ParseError(line_no, f"edge inside class {a[0]}")
            if a[0] > b[0]:
                a, b = b, a
            edges.add((a, b))
        else:
            raise ParseError(line_no, f"unknown record '{fields[0]}'")
    if header is None:
        raise ValueError("missing 'p mcis' problem line")
    return McisInstance(header[0], header[1], frozenset(edges))


class _GraphBuilder:
    """Accumulates named vertices and positive-integer-weighted edges."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.edges: list[tuple[int, int, int]] = []

    def vertex(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def edge(self, u: int, v: int, w: int = 1) -> None:
        self.edges.append((u, v, w))

    def chain(self, labels: Iterable[str], start: int | None = None) -> list[int]:
        """Add a vertex per label, each joined to the one before it.

        The first new vertex is joined to ``start`` when one is given.
        Returns the new ids in label order.
        """
        ids: list[int] = []
        prev = start
        for label in labels:
            v = self.vertex(label)
            if prev is not None:
                self.edge(prev, v)
            ids.append(v)
            prev = v
        return ids

    def path(self, u: int, v: int, length: int, label: str) -> int:
        """Join u and v by a unit path of the given length (length-1 interior vertices).

        Interior vertices are named ``label:1`` onwards from u; returns v's
        neighbour on the path (u itself when length is 1).
        """
        if length < 1:
            raise ValueError("path length must be >= 1")
        inner = self.chain((f"{label}:{step}" for step in range(1, length)), u)
        last = inner[-1] if inner else u
        self.edge(last, v)
        return last

    def clique(self, members: Sequence[int]) -> None:
        for u, v in itertools.combinations(members, 2):
            self.edge(u, v)

    def build(self) -> WeightedGraph:
        _check_size(len(self.names), len(self.edges))
        return WeightedGraph(len(self.names), tuple(self.edges))


def _check_feedback_vertex_set(graph: WeightedGraph, removed: Iterable[int]) -> None:
    gone = set(removed)
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in graph.edges:
        if u in gone or v in gone:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            raise AssertionError(f"cycle survives certificate removal near edge ({u},{v})")
        parent[ru] = rv


def _check_witness(graph: WeightedGraph, witness: VertexSet, d: int, target: int) -> None:
    if len(witness) != target:
        raise AssertionError(f"witness has {len(witness)} vertices, expected {target}")
    if not is_scattered(graph, witness, d):
        raise AssertionError("constructed witness is not scattered at the emitted d")


def _class_choice(assignment: Sequence[int], k: int, n: int) -> list[int]:
    choice = list(assignment)
    if len(choice) != k:
        raise ValueError(f"assignment must pick one index per class ({k} values)")
    for idx in choice:
        if not (1 <= int(idx) <= n):
            raise ValueError(f"class choice {idx} out of range 1..{n}")
    return [int(idx) for idx in choice]


@dataclass(frozen=True)
class _Layout:
    """Vertex ids of one anchor-verifier layout, keyed by 1-based class ids."""

    graph: WeightedGraph
    names: tuple[str, ...]
    anchors: list[int]  # a[1..k], then b[1..k]
    hubs: list[int]  # g per verified class pair
    pendants: list[int]  # g' per verified class pair
    choices: dict[tuple[int, int], int]  # (i, l) -> p[i,l]
    verifiers: dict[tuple[int, int, int, int], int]  # (i, l, j, o) -> u


def _anchor_verifier_layout(
    sizes: Sequence[int],
    scale: int,
    matches: dict[tuple[int, int], list[tuple[int, int]]],
    weighted: bool,
) -> _Layout:
    """Lay out the choice-and-verifier encoding at scale N = ``scale``.

    Class i gets anchors a[i], b[i] and choices p[i,l], l = 1..sizes[i-1],
    at lengths N+l from a[i] and 2N-l from b[i].  ``matches[i, j]`` lists,
    for every class pair i < j, its compatible choice pairs (l, o) in
    lexicographic order; each gets a verifier u at lengths 5N-l, 4N+l, 5N-o
    and 4N+o from a[i], b[i], a[j] and b[j].  Each class pair with a
    verifier gets a hub g at 3N-1 from its verifiers and a pendant g' at
    3N+1 from g, so every verifier is 6N from g' and two of them are 6N-2
    apart.  A link is a unit path, or when ``weighted`` one edge of
    twice its length, except that the g-side edges weigh 6N-1 and 6N+1:
    verifiers stay 12N from g' and 12N-2 apart with integral weights.  The
    graph's size is checked from closed forms before its first vertex.
    """
    b = _GraphBuilder()

    def link(u: int, v: int, length: int, label: str, nudge: int = 0) -> None:
        if weighted:
            b.edge(u, v, 2 * length + nudge)
        else:
            b.path(u, v, length, label)

    k, n = len(sizes), scale
    # s choices, m verifiers and h verified pairs make 2s+5m+h links of total
    # length 3N*s + (21N-1)*m + (3N+1)*h between 2k+s+m+2h end vertices.
    s = sum(sizes)
    m = sum(len(lo_pairs) for lo_pairs in matches.values())
    h = sum(1 for lo_pairs in matches.values() if lo_pairs)
    links, ends = 2 * s + 5 * m + h, 2 * k + s + m + 2 * h
    length = 3 * n * s + (21 * n - 1) * m + (3 * n + 1) * h
    if weighted:
        _check_size(ends, links)
    else:
        _check_size(ends + length - links, length)
    av = [b.vertex(f"a[{i}]") for i in range(1, k + 1)]
    bv = [b.vertex(f"b[{i}]") for i in range(1, k + 1)]
    pv: dict[tuple[int, int], int] = {}
    for i in range(1, k + 1):
        for l in range(1, sizes[i - 1] + 1):
            pv[(i, l)] = b.vertex(f"p[{i},{l}]")
            link(av[i - 1], pv[(i, l)], n + l, f"ap[{i},{l}]")
            link(bv[i - 1], pv[(i, l)], 2 * n - l, f"bp[{i},{l}]")
    uv: dict[tuple[int, int, int, int], int] = {}
    hubs: list[int] = []
    pendants: list[int] = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        lo_pairs = matches[i, j]
        pair_us = []
        for l, o in lo_pairs:
            u = b.vertex(f"u[{i}.{l},{j}.{o}]")
            uv[(i, l, j, o)] = u
            link(u, av[i - 1], 5 * n - l, f"ua[{i}.{l},{j}.{o}]")
            link(u, bv[i - 1], 4 * n + l, f"ub[{i}.{l},{j}.{o}]")
            link(u, av[j - 1], 5 * n - o, f"ua[{j}.{o},{i}.{l}]")
            link(u, bv[j - 1], 4 * n + o, f"ub[{j}.{o},{i}.{l}]")
            pair_us.append(u)
        if pair_us:
            g = b.vertex(f"g[{i},{j}]")
            gp = b.vertex(f"g'[{i},{j}]")
            hubs.append(g)
            pendants.append(gp)
            for u in pair_us:
                link(g, u, 3 * n - 1, f"gu[{i},{j}]@{u}", nudge=1)
            link(g, gp, 3 * n + 1, f"gg[{i},{j}]", nudge=-1)
    return _Layout(b.build(), tuple(b.names), av + bv, hubs, pendants, pv, uv)


def _layout_witness(
    layout: _Layout, chosen: Sequence[int], d: int, target: int
) -> VertexSet | None:
    """Witness of one choice per class, re-checked with ``_check_witness``.

    It holds choice chosen[i-1] of every class i, the verifier of every
    chosen pair and every g'; None when some chosen pair has no verifier.
    """
    k = len(chosen)
    members = [layout.choices[(i, c)] for i, c in enumerate(chosen, start=1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            u = layout.verifiers.get((i, chosen[i - 1], j, chosen[j - 1]))
            if u is None:
                return None
            members.append(u)
    members.extend(layout.pendants)
    witness = vertex_set(layout.graph, members)
    _check_witness(layout.graph, witness, d, target)
    return witness


def _mcis_gadget(
    inst: McisInstance, assignment: Sequence[int] | None, weighted: bool
) -> GadgetOutput:
    """gen_w1_vc (weighted) or gen_fvs_unweighted: N = n, verifiers on non-edges."""
    k, n = inst.num_classes, inst.class_size
    d = 12 * n if weighted else 6 * n
    matches = {
        (i, j): [
            (l, o)
            for l in range(1, n + 1)
            for o in range(1, n + 1)
            if not inst.has_edge(i, l, j, o)
        ]
        for i, j in itertools.combinations(range(1, k + 1), 2)
    }
    layout = _anchor_verifier_layout([n] * k, n, matches, weighted)
    if weighted:
        kind = "vertex-cover"
        certificate = vertex_set(layout.graph, layout.anchors + layout.hubs)
        missed = uncovered_edge(layout.graph, set(certificate))
        if missed is not None:
            raise AssertionError(f"certificate misses edge {missed}")
    else:
        kind = "feedback-vertex-set"
        certificate = vertex_set(layout.graph, layout.anchors)
        _check_feedback_vertex_set(layout.graph, certificate)
    target = k * k
    witness: VertexSet | None = None
    accepted: bool | None = None
    if assignment is not None:
        witness = _layout_witness(layout, _class_choice(assignment, k, n), d, target)
        accepted = witness is not None
    params: dict[str, object] = {"k": k, "n": n, "d": d}
    if weighted:
        params["weight_scale"] = 2
    params.update(
        pair_verifiers=len(layout.verifiers),
        verified_pairs=len(layout.pendants),
        assignment_accepted=accepted,
    )
    return GadgetOutput(
        layout.graph, d, target, witness, certificate, kind, params, layout.names
    )


def gen_w1_vc(
    inst: McisInstance, assignment: Sequence[int] | None = None
) -> GadgetOutput:
    """Edge-weighted benchmark from a k-partite independence instance.

    Each class i gets two anchors a_i, b_i joined to its selection vertices
    p[i,l] with complementary weights; every cross-class non-edge gets a pair
    verifier u joined to the four anchors of its two classes; each class pair
    with at least one verifier gets a g vertex adjacent to its verifiers plus
    a pendant g'.  All weights are doubled so the two g-side weights stay
    integral, giving d = 12n.  The target k*k is reachable exactly when some
    choice of one vertex per class is pairwise non-adjacent; a valid
    assignment (1-based index per class) yields that witness, an invalid one
    is refused while the graph is still emitted.  The certificate is a
    vertex cover: all a, b and g vertices.
    """
    return _mcis_gadget(inst, assignment, weighted=True)


def gen_fvs_unweighted(
    inst: McisInstance, assignment: Sequence[int] | None = None
) -> GadgetOutput:
    """Unit-weight subdivision of the weighted construction, d = 6n.

    Every weighted anchor edge becomes a unit path of the undoubled length.
    The two half-integral g-side weights split into integral paths of
    lengths 3n-1 (g to each of its verifiers) and 3n+1 (g to the pendant
    g'), keeping verifier-to-g' distances at exactly 6n while two verifiers
    of the same pair stay within 6n-2 of each other.  The witness recipe
    carries over, so a valid assignment still yields a witness of size k*k;
    unlike ``gen_w1_vc``, k*k is not a threshold here, since NO sources
    whose optimum reaches it are known.  The certificate is a feedback
    vertex set: all a and b vertices.
    """
    return _mcis_gadget(inst, assignment, weighted=False)


def _floor_pow_log2(d: int, p: int) -> int:
    """Exact floor of (log2 d)**p, by rational bracketing of the logarithm.

    For d a power of two the logarithm is an integer.  Otherwise it is
    irrational, so some dyadic bracket [a/s, (a+1)/s] around it has both
    endpoint p-th powers in the same unit interval, which pins the floor.
    """
    if d & (d - 1) == 0:
        return (d.bit_length() - 1) ** p
    scale = 1
    power = d
    for _ in range(21):
        scale *= 2
        power *= power
        a = power.bit_length() - 1  # floor(scale * log2 d), exactly
        lo = math.floor(Fraction(a, scale) ** p)
        hi = math.floor(Fraction(a + 1, scale) ** p)
        if lo == hi:
            return lo
    raise ValueError("log bracketing for gamma needs an impractically fine scale")


def _base_digits(code: int, base: int, width: int) -> tuple[int, ...]:
    digits = []
    for _ in range(width):
        digits.append(code % base)
        code //= base
    return tuple(digits)


def gen_seth(
    phi: CnfFormula,
    d: int,
    epsilon: Fraction | int,
    assignment: Sequence[bool] | None = None,
) -> GadgetOutput:
    """Unit-weight column-chain benchmark from a CNF formula at distance d.

    Variables are cut into t groups of up to gamma = floor(log2(d)**p)
    variables, where p is the smallest integer with d**p >= 2*(d-epsilon)**p
    (all arithmetic exact).  The graph is a chain of m*(t*p*(d-1)+1)
    columns; each column holds one selection gadget per group (p paths of d
    vertices, chained to the next column) and one clause gadget whose input
    vertices stand for the group assignments satisfying one literal of the
    column's clause, encoded as base-d digit tuples of the assignment index
    modulo d**p.  Inputs reach the paths through per-input connector trees
    that leave exactly the encoded positions at distance d.  A satisfying
    assignment yields a witness selecting, per column, the encoded position
    on every path, the input matching the first satisfied literal, and the
    free end of the clause gadget: (t*p+2) vertices per column.  That count
    is the target; it is not a proven threshold, as some unsatisfiable
    formulas have d-scattered sets that reach it.
    """
    if d <= 2:
        raise ValueError("d must be at least 3")
    eps = Fraction(epsilon)
    if not 0 < eps < d:
        raise ValueError("epsilon must lie strictly between 0 and d")
    if not phi.clauses:
        raise ValueError("formula needs at least one clause")
    n, m = phi.num_vars, phi.num_clauses
    shortfall = Fraction(d) - eps
    p = 1
    while Fraction(d) ** p < 2 * shortfall**p:
        p += 1
        if p > 24:
            raise ValueError("epsilon is too small for this d: path count p > 24")
    assert Fraction(d) ** p >= 2 * shortfall**p
    gamma = _floor_pow_log2(d, p)
    t = -(-n // gamma)
    codes = d**p
    columns = m * (t * p * (d - 1) + 1)
    target = (t * p + 2) * columns

    group_vars = [
        list(range(g * gamma + 1, min((g + 1) * gamma, n) + 1)) for g in range(t)
    ]
    group_of = lambda var: (var - 1) // gamma
    tag_of = lambda code: ".".join(str(x) for x in code)

    # Distinct digit tuples per literal occurrence, smallest-first.
    clause_inputs: list[list[tuple[int, int, tuple[tuple[int, ...], ...]]]] = []
    for clause in phi.clauses:
        per_lit = []
        for lit_idx, lit in enumerate(clause, start=1):
            var = abs(lit)
            grp = group_of(var)
            gvars = group_vars[grp]
            if len(gvars) > 20:
                raise ValueError("group assignment space too large to enumerate")
            pos = gvars.index(var)
            want = 1 if lit > 0 else 0
            images: set[tuple[int, ...]] = set()
            for mask in range(1 << len(gvars)):
                if (mask >> pos) & 1 != want:
                    continue
                images.add(_base_digits(mask % codes, d, p))
                if len(images) == codes:
                    break
            per_lit.append((lit_idx, grp, tuple(sorted(images))))
        clause_inputs.append(per_lit)

    # Connector geometry; a_len may be zero (inputs then touch the hub).
    a_len = d // 2 - 1
    b_len = (d + 1) // 2 + 1
    w_len = d // 2 - 1 if d % 2 == 0 else d // 2

    # Column j wires clause (j-1) % m and columns is a multiple of m, so every
    # clause's inputs occur columns // m times.  Cliques exist for even d only.
    inputs_per_clause = [
        sum(len(images) for _, _, images in per_lit) for per_lit in clause_inputs
    ]
    inputs_total = columns // m * sum(inputs_per_clause)
    even = d % 2 == 0
    _check_size(
        columns * (t * p * d + b_len)
        + inputs_total * (1 + a_len + w_len + p * (d - 1) * w_len),
        columns * (t * p * (d - 1) + b_len - 1)
        + (columns - 1) * t * p
        + inputs_total * (a_len + 1 + w_len + p * (d - 1) * (w_len + 1))
        + even * inputs_total * p * math.comb(d - 1, 2)
        + even * (columns // m) * sum(math.comb(c, 2) for c in inputs_per_clause),
    )

    accepted = None if assignment is None else phi.satisfied_by(assignment)

    b = _GraphBuilder()
    prev_cells: dict[tuple[int, int], list[int]] = {}
    for j in range(1, columns + 1):
        col_cells: dict[tuple[int, int], list[int]] = {}
        for grp in range(t):
            for path in range(p):
                cells = b.chain(f"P[{j},{grp + 1},{path + 1},{i}]" for i in range(1, d + 1))
                if prev_cells:
                    b.edge(prev_cells[(grp, path)][-1], cells[0])
                col_cells[(grp, path)] = cells
        prev_cells = col_cells

        hub = b.chain(f"B[{j},{i}]" for i in range(1, b_len + 1))[-1]
        a_ends: list[int] = []
        for lit_idx, grp, images in clause_inputs[(j - 1) % m]:
            for s in images:
                label = f"{j},{lit_idx},{tag_of(s)}"
                v = b.vertex(f"in[{label}]")
                a_ends.append(b.path(v, hub, a_len + 1, f"A[{label}]"))
                wend = b.chain((f"W[{label}]:{step}" for step in range(1, w_len + 1)), v)[-1]
                for path in range(p):
                    y_ends = [
                        b.path(cell, wend, w_len + 1, f"Y[{label},{path + 1},{i}]")
                        for i, cell in enumerate(col_cells[(grp, path)], start=1)
                        if i != s[path] + 1
                    ]
                    if even:
                        b.clique(y_ends)
        if even:
            b.clique(a_ends)

    graph = b.build()
    witness: VertexSet | None = None
    if accepted:
        # Per column: the encoded cell of every path, the free end B[j,1] of
        # the clause gadget, and the input of the clause's first true literal.
        values = [bool(x) for x in assignment]
        digits = [
            _base_digits(
                sum(1 << idx for idx, var in enumerate(gvars) if values[var - 1]) % codes, d, p
            )
            for gvars in group_vars
        ]
        picks = []
        for clause in phi.clauses:
            lit_idx, lit = next(
                (idx, lit) for idx, lit in enumerate(clause, start=1)
                if values[abs(lit) - 1] == (lit > 0)
            )
            picks.append(f"{lit_idx},{tag_of(digits[group_of(abs(lit))])}")
        ids = {name: v for v, name in enumerate(b.names)}
        members = []
        for j in range(1, columns + 1):
            members += [
                ids[f"P[{j},{grp + 1},{path + 1},{digits[grp][path] + 1}]"]
                for grp in range(t)
                for path in range(p)
            ]
            members += [ids[f"B[{j},1]"], ids[f"in[{j},{picks[(j - 1) % m]}]"]]
        witness = vertex_set(graph, members)
        _check_witness(graph, witness, d, target)
    lam = math.log(float(shortfall)) / math.log(d)
    params: dict[str, object] = {
        "p": p,
        "t": t,
        "gamma": gamma,
        "lambda": lam,
        "d": d,
        "epsilon": str(eps),
        "codes": codes,
        "columns": columns,
        "inputs_total": inputs_total,
        "assignment_accepted": accepted,
    }
    return GadgetOutput(
        graph, d, target, witness, vertex_set(graph, ()), "none", params, tuple(b.names)
    )


def gen_td_eth(
    phi: CnfFormula, assignment: Sequence[bool] | None = None
) -> GadgetOutput:
    """Unit-weight benchmark from 3-SAT glued by assignment-consistency.

    The variable count is padded to a perfect square n (fresh variables with
    always-true clauses), clauses are cut into sqrt(n) contiguous groups,
    and each group contributes one vertex per satisfying partial assignment
    of its clause variables, hung between two anchors by complementary
    paths.  Every consistent assignment pair across two groups gets a
    verifier vertex wired to the four anchors; each group pair with at least
    one verifier gets a g vertex reaching its verifiers by paths of length
    3N-1 and a pendant g' on a path of length 3N+1, putting every verifier
    at exactly 6N from g' and two same-pair verifiers within 6N-2.  With
    capacity N = 8**sqrt(n) the distance is d = 6N and the target is n, the
    size of the witness a satisfying assignment yields (one vertex per
    group, one verifier per pair, every g').  The target is not a proven
    threshold: the unsatisfiable ``1 / -1`` has optimum 2.  The certificate
    is a feedback vertex set: all anchors.
    """
    if phi.max_clause_width() > 3:
        raise ValueError("only clauses of width <= 3 are supported")
    clauses = list(phi.clauses)
    nv = phi.num_vars
    while math.isqrt(nv) ** 2 != nv:
        nv += 1
        clauses.append((nv, -nv))  # always true, keeps the padding variable used
    r = math.isqrt(nv)
    cap = 8**r
    d = 6 * cap
    size = -(-len(clauses) // r)
    groups = [clauses[g * size : (g + 1) * size] for g in range(r)]
    group_vars = [sorted({abs(lit) for cl in grp for lit in cl}) for grp in groups]

    profiles: list[list[tuple[bool, ...]]] = []
    for grp, gvars in zip(groups, group_vars):
        if len(gvars) > 20:
            raise ValueError("group assignment space too large to enumerate")
        sats = []
        for mask in range(1 << len(gvars)):
            values = {v: bool((mask >> idx) & 1) for idx, v in enumerate(gvars)}
            if all(any(values[abs(lit)] == (lit > 0) for lit in cl) for cl in grp):
                sats.append(tuple(values[v] for v in gvars))
        if len(sats) > cap:
            raise ValueError("group has more satisfying assignments than its capacity")
        profiles.append(sats)
    if sum(len(s) for s in profiles) > 2000:
        raise ValueError("too many satisfying partial assignments to wire")

    def restrict(g: int, common: list[int]) -> list[tuple[bool, ...]]:
        # Group g's satisfying partial assignments, restricted to `common`.
        positions = [group_vars[g - 1].index(var) for var in common]
        return [tuple(sat[pos] for pos in positions) for sat in profiles[g - 1]]

    # Two partial assignments agree iff their restrictions to the variables
    # their groups share are equal, so each group pair is a hash join: the
    # right group's choices grouped by restriction, probed in order of l.
    matches = {}
    for i, j in itertools.combinations(range(1, r + 1), 2):
        common = sorted(set(group_vars[i - 1]) & set(group_vars[j - 1]))
        by_restriction: dict[tuple[bool, ...], list[int]] = {}
        for o, key in enumerate(restrict(j, common), start=1):
            by_restriction.setdefault(key, []).append(o)
        matches[i, j] = [
            (l, o)
            for l, key in enumerate(restrict(i, common), start=1)
            for o in by_restriction.get(key, ())
        ]

    layout = _anchor_verifier_layout(
        [len(sats) for sats in profiles], cap, matches, weighted=False
    )
    certificate = vertex_set(layout.graph, layout.anchors)
    _check_feedback_vertex_set(layout.graph, certificate)
    target = nv
    witness: VertexSet | None = None
    accepted: bool | None = None
    if assignment is not None:
        accepted = phi.satisfied_by(assignment)
        if accepted:
            full = [bool(v) for v in assignment] + [False] * (nv - phi.num_vars)
            chosen = [
                sats.index(tuple(full[v - 1] for v in gvars)) + 1
                for sats, gvars in zip(profiles, group_vars)
            ]
            witness = _layout_witness(layout, chosen, d, target)
    params: dict[str, object] = {
        "c": 8,
        "groups": r,
        "capacity": cap,
        "d": d,
        "padded_vars": nv,
        "original_vars": phi.num_vars,
        "clauses": len(clauses),
        "profile_counts": tuple(len(s) for s in profiles),
        "pair_verifiers": len(layout.verifiers),
        "assignment_accepted": accepted,
    }
    return GadgetOutput(
        layout.graph, d, target, witness, certificate, "feedback-vertex-set", params,
        layout.names,
    )
