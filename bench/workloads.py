"""Workload corpus: instance specs, seeded set-up, request lists and answer checks.

Every instance is built from fixed generator parameters, so its answers
(maximum size, count vector) are pinned in ``pinned.json``.  The workload
seed then relabels the vertices with a random permutation and shuffles the
edge lines of the written ``.dss`` file.  Relabelling leaves every answer
unchanged, so one pinned table serves every seed, and it keeps the work of
a pass close to constant across seeds, which keeps run-to-run spread low.

Where an instance pins its decomposition, the benchmark writes a ``.td``
file in nice form (one vertex introduced or forgotten per tree edge, leaf
bags of one vertex, joins over equal bags).  It is built by the benchmark's
own min-fill elimination in the base labelling, so a change to the
program's decomposition heuristic cannot change these inputs.  The program's
own nice conversion maps such a file node for node, and the relabelling of
these instances keeps the order of the vertices within every bag, so the
DP does exactly the same work for every seed.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")

WORKLOADS = ("dp-midwidth", "sparse-large", "alt-solvers")
PROFILES = ("full", "tiny")

# The CLI command class of each request; per-command times are summed per pass.
COMMANDS = ("solve_tw", "count", "solve_approx", "solve_vc", "decompose", "validate")


@dataclass(frozen=True)
class Spec:
    """One base instance and the requests made on it.

    ``family`` picks the generator: ``random`` (oracle.gen_random_graph with
    params n, p_num, p_den, max_weight, seed), ``banded`` (own generator with
    params n, band, max_weight, seed), ``seth`` (gadgets.gen_seth with params
    cnf_text, d, epsilon) or ``cover`` (own generator with params cover,
    outside, seed).  ``count_k`` of None means k = n.
    """

    name: str
    family: str
    params: tuple
    ds: tuple[int, ...]
    commands: tuple[str, ...]
    pinned_td: bool = False
    epsilons: tuple[str, ...] = ()
    count_k: int | None = None


_ONE_VARIABLE = "p cnf 1 1\n1 0\n"
_CHAIN = ("decompose", "validate", "solve_tw", "count")

SPECS: dict[str, dict[str, tuple[Spec, ...]]] = {
    # DP tables dominate: mid-width unit-weight random graphs, max and count.
    "dp-midwidth": {
        "full": (
            Spec("r60s6", "random", (60, 1, 14, 1, 6), (3, 4), ("solve_tw",), True),
            Spec("r55s5", "random", (55, 1, 12, 1, 5), (3, 4), ("solve_tw", "count"), True),
            Spec("r50s3", "random", (50, 1, 10, 1, 3), (3,), ("solve_tw", "count"), True),
        ),
        "tiny": (
            Spec("r18s3", "random", (18, 1, 4, 1, 3), (3, 4), ("solve_tw", "count"), True),
            Spec("r20s4", "random", (20, 1, 5, 1, 4), (3,), ("solve_tw", "count"), True),
        ),
    },
    # Layers that grow with n dominate: heuristic, validator, distance matrix, balance.
    "sparse-large": {
        "full": (
            Spec("band400", "banded", (400, 4, 3, 7), (6, 12), _CHAIN, count_k=3),
            Spec("seth270", "seth", (_ONE_VARIABLE, 4, 1), (4,), _CHAIN, count_k=3),
        ),
        "tiny": (
            Spec("band20", "banded", (20, 4, 3, 7), (3, 6), _CHAIN, count_k=3),
        ),
    },
    # Rounded-Fraction DP of the approximation and vc's cover branching plus packing.
    "alt-solvers": {
        "full": (
            Spec("w24s4", "random", (24, 1, 5, 200, 4), (100, 1000), ("solve_approx", "solve_tw"), True, ("1", "1/2")),
            Spec("c12s1", "cover", (12, 110, 1), (3, 4, 5), ("solve_vc", "solve_tw")),
            Spec("c12s2", "cover", (12, 110, 2), (3, 4, 5), ("solve_vc", "solve_tw")),
            Spec("c13s1", "cover", (13, 110, 1), (3, 4, 5), ("solve_vc", "solve_tw")),
        ),
        "tiny": (
            Spec("w16s5", "random", (16, 1, 4, 200, 5), (100, 300), ("solve_approx", "solve_tw"), True, ("1", "1/2")),
            Spec("c5s1", "cover", (5, 12, 1), (3, 4), ("solve_vc", "solve_tw")),
        ),
    },
}


# ---------------------------------------------------------------------------
# Generators owned by the benchmark
# ---------------------------------------------------------------------------


def banded_edges(n: int, band: int, max_weight: int, seed: int) -> list[tuple[int, int, int]]:
    """Path 0..n-1 plus each chord of span <= band with probability 1/2."""
    rng = random.Random(seed)
    edges = []
    for u in range(n - 1):
        edges.append((u, u + 1, rng.randint(1, max_weight)))
        for v in range(u + 2, min(n, u + band + 1)):
            if rng.randrange(2):
                edges.append((u, v, rng.randint(1, max_weight)))
    return edges


def cover_edges(cover: int, outside: int, seed: int) -> list[tuple[int, int, int]]:
    """Unit-weight graph whose vertices 0..cover-1 cover every edge.

    Cover vertices form a path plus random chords; every outside vertex gets
    one or two cover neighbours, so the outside set is independent.
    """
    rng = random.Random(seed)
    edges = [(a, a + 1, 1) for a in range(cover - 1)]
    for a in range(cover):
        for b in range(a + 2, cover):
            if rng.randrange(4) == 0:
                edges.append((a, b, 1))
    for v in range(cover, cover + outside):
        for a in sorted(rng.sample(range(cover), rng.randint(1, 2))):
            edges.append((a, v, 1))
    return edges


def min_fill_tree(n: int, edges) -> tuple[list[tuple[int, ...]], list[list[int]], int]:
    """Elimination-tree decomposition from a min-fill order (ties: lowest id).

    Returns (bags, children, root): bag i belongs to the i-th eliminated
    vertex and hangs below the earliest-eliminated vertex of its bag.
    """
    work = [set() for _ in range(n)]
    for u, v, _ in edges:
        work[u].add(v)
        work[v].add(u)
    alive = set(range(n))
    step_of = [0] * n
    bags: list[tuple[int, ...]] = []
    for step in range(n):
        best = None
        for v in sorted(alive):
            nb = sorted(work[v] & alive)
            fill = sum(1 for i, a in enumerate(nb) for b in nb[i + 1 :] if b not in work[a])
            if best is None or fill < best[0]:
                best = (fill, v)
        v = best[1]
        nb = sorted(work[v] & alive)
        for i, a in enumerate(nb):
            for b in nb[i + 1 :]:
                work[a].add(b)
                work[b].add(a)
        alive.remove(v)
        step_of[v] = step
        bags.append(tuple([v] + nb))
    children: list[list[int]] = [[] for _ in range(n)]
    for step, bag in enumerate(bags):
        later = bag[1:]
        if later:
            children[min(step_of[u] for u in later)].append(step)
        elif step + 1 < n:
            children[step + 1].append(step)
    return bags, children, n - 1


def nice_form(
    bags: list[tuple[int, ...]], children: list[list[int]], root: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """Nice-form bags and (parent, child) edges, the empty root bag first."""
    out: list[tuple[int, ...]] = []
    links: list[tuple[int, int]] = []

    def emit(bag, kids) -> int:
        out.append(tuple(sorted(bag)))
        links.extend((len(out) - 1, k) for k in kids)
        return len(out) - 1

    order, stack = [], [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])
    top: dict[int, int] = {}
    for u in reversed(order):
        target = set(bags[u])
        tops = []
        for c in children[u]:
            t, cur = top[c], set(bags[c])
            for x in sorted(cur - target):
                cur.discard(x)
                t = emit(cur, [t])
            for x in sorted(target - cur):
                cur.add(x)
                t = emit(cur, [t])
            tops.append(t)
        if not tops:
            first, *rest = sorted(target)
            cur = {first}
            t = emit(cur, [])
            for x in rest:
                cur.add(x)
                t = emit(cur, [t])
            tops.append(t)
        acc = tops[0]
        for t in tops[1:]:
            acc = emit(target, [acc, t])
        top[u] = acc
    t, cur = top[root], set(bags[root])
    for x in sorted(cur):
        cur.discard(x)
        t = emit(cur, [t])
    # Renumber so the root is node 0: the .td reader roots at the first bag.
    new_id = {t: 0}
    for i in range(len(out)):
        new_id.setdefault(i, len(new_id))
    bags_out = [()] * len(out)
    for i, bag in enumerate(out):
        bags_out[new_id[i]] = bag
    return bags_out, [(new_id[a], new_id[b]) for a, b in links]


# ---------------------------------------------------------------------------
# Set-up: build, relabel and write the instances
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    """A relabelled instance as the program receives it."""

    name: str
    n: int
    edges: list[tuple[int, int, int]]
    graph_path: str
    td_path: str | None = None
    adjacency: list[list[tuple[int, int]]] = field(init=False)

    def __post_init__(self) -> None:
        self.adjacency = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            self.adjacency[u].append((v, w))
            self.adjacency[v].append((u, w))


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what its answer must be."""

    command: str
    argv: tuple[str, ...]
    instance: Instance
    d: int | None = None
    epsilon: Fraction | None = None
    expected: object = None


def base_edges(spec: Spec, scatterset, span) -> tuple[int, list[tuple[int, int, int]]]:
    """Generate the base (unrelabelled) graph of a spec."""
    if spec.family == "random":
        n, p_num, p_den, max_weight, seed = spec.params
        rspec = scatterset.oracle.RandomSpec(n, Fraction(p_num, p_den), max_weight, seed)
        with span("oracle.gen"):
            g = scatterset.oracle.gen_random_graph(rspec)
        return g.n, list(g.edges)
    if spec.family == "seth":
        text, d, epsilon = spec.params
        with span("gadgets.gen"):
            g = scatterset.gadgets.gen_seth(scatterset.gadgets.parse_cnf(text), d, epsilon).graph
        return g.n, list(g.edges)
    if spec.family == "banded":
        return spec.params[0], banded_edges(*spec.params)
    if spec.family == "cover":
        cover, outside, seed = spec.params
        return cover + outside, cover_edges(cover, outside, seed)
    raise ValueError(f"unknown family {spec.family!r}")


def order_keeping_relabelling(n: int, bags, rng: random.Random) -> list[int]:
    """A random relabelling under which every bag keeps the order of its vertices.

    The DP visits a bag's vertices in label order, and its join stops at the
    first clashing vertex, so a free relabelling moves its work by a few
    percent from seed to seed.  A random topological order of the relation
    "shares a bag and has the lower label" still changes the labels, but
    leaves the DP's work the same.
    """
    later: list[set[int]] = [set() for _ in range(n)]
    for bag in bags:
        ordered = sorted(bag)
        for i, u in enumerate(ordered):
            later[u].update(ordered[i + 1 :])
    waiting = [0] * n
    for u in range(n):
        for v in later[u]:
            waiting[v] += 1
    ready = [v for v in range(n) if not waiting[v]]
    perm = [0] * n
    for label in range(n):
        v = ready.pop(rng.randrange(len(ready)))
        perm[v] = label
        for w in sorted(later[v]):
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    return perm


def write_instance(
    spec: Spec, n: int, edges, rng: random.Random, workdir: Path
) -> Instance:
    if spec.pinned_td:
        tree = min_fill_tree(n, edges)
        perm = order_keeping_relabelling(n, tree[0], rng)
    else:
        perm = list(range(n))
        rng.shuffle(perm)
    relabelled = [(perm[u], perm[v], w) for u, v, w in edges]
    rng.shuffle(relabelled)
    lines = [f"p dss {n} {len(relabelled)}"]
    lines += [f"e {u + 1} {v + 1} {w}" for u, v, w in relabelled]
    graph_path = workdir / f"{spec.name}.dss"
    graph_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    td_path = None
    if spec.pinned_td:
        bags, links = nice_form(*tree)
        width = max(len(b) for b in bags)
        lines = [f"s td {len(bags)} {width} {n}"]
        for i, bag in enumerate(bags, start=1):
            lines.append(" ".join(["b", str(i)] + [str(perm[v] + 1) for v in bag]))
        lines += [f"{a + 1} {b + 1}" for a, b in links]
        td_path = workdir / f"{spec.name}.td"
        td_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Instance(spec.name, n, relabelled, str(graph_path), td_path and str(td_path))


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def build_requests(
    workload: str, profile: str, seed: int, workdir: Path, scatterset, span, pinned: dict
) -> list[Request]:
    """Generate, relabel and write every instance; return the pass's request list.

    ``scatterset`` is a namespace holding the imported ``oracle`` and
    ``gadgets`` modules; ``span(name)`` is a context manager timing generator
    calls.  ``pinned`` is the content of ``pinned.json``.
    """
    rng = random.Random(seed)
    answers = pinned.get(profile, {})
    requests: list[Request] = []
    for spec in SPECS[workload][profile]:
        n, edges = base_edges(spec, scatterset, span)
        inst = write_instance(spec, n, edges, rng, workdir)
        pins = answers.get(spec.name, {})
        td = ("--td", inst.td_path) if inst.td_path else ()
        graph = ("--graph", inst.graph_path)

        def add(command: str, *argv: str, **answer) -> None:
            requests.append(Request(command, (*argv, "--json"), inst, **answer))

        if "decompose" in spec.commands:
            out = str(workdir / f"{spec.name}.out.td")
            add("decompose", "decompose", *graph, "--balance", "--nice", "--out", out)
            add("validate", "validate", *graph, "--td", out)
        for d in spec.ds:
            best = pins.get("max", {}).get(str(d))
            solve = ("solve", *graph, "--d", str(d))
            if "solve_tw" in spec.commands:
                add("solve_tw", *solve, "--algo", "tw", *td, d=d, expected=best)
            if "count" in spec.commands:
                k = n if spec.count_k is None else spec.count_k
                counts = pins.get("counts", {}).get(str(d))
                add("count", "count", *graph, "--d", str(d), "--k", str(k), *td, d=d, expected=counts)
            for eps in spec.epsilons:
                add("solve_approx", *solve, "--algo", "approx", "--epsilon", eps, *td,
                    d=d, epsilon=Fraction(eps), expected=best)
            if "solve_vc" in spec.commands:
                add("solve_vc", *solve, "--algo", "vc", d=d, expected=best)
    return requests


# ---------------------------------------------------------------------------
# Answer checks (independent of the program's own code)
# ---------------------------------------------------------------------------


def distances_within(inst: Instance, source: int, radius: int) -> dict[int, int]:
    """Dijkstra from source; only vertices at distance < radius are returned."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in inst.adjacency[u]:
            nd = du + w
            if nd < radius and nd < dist.get(v, radius):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def witness_error(inst: Instance, tokens, size: int, d: int, slack: Fraction) -> str | None:
    """Check that `tokens` name `size` distinct vertices pairwise at slack*dist >= d."""
    try:
        members = sorted({int(str(t).lstrip("vV")) for t in tokens})
    except ValueError:
        return f"unreadable witness {tokens!r}"
    if len(members) != size or len(tokens) != size:
        return f"witness has {len(tokens)} tokens for claimed size {size}"
    if members and not (0 <= members[0] and members[-1] < inst.n):
        return "witness vertex out of range"
    radius = d  # pairs at distance >= d always pass
    chosen = set(members)
    for u in members:
        for v, dv in distances_within(inst, u, radius).items():
            if v != u and v in chosen and slack * dv < d:
                return f"witness pair v{u} v{v} at distance {dv} breaks d={d}"
    return None


def td_error(inst: Instance, path: str) -> tuple[str | None, int]:
    """Validate a .td file against the instance; returns (error, width)."""
    bags: dict[int, list[int]] = {}
    links: list[tuple[int, int]] = []
    declared = -1
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if fields[0] == "s":
            declared = int(fields[2])
        elif fields[0] == "b":
            bags[int(fields[1]) - 1] = [int(x) - 1 for x in fields[2:]]
        else:
            links.append((int(fields[0]) - 1, int(fields[1]) - 1))
    count = len(bags)
    if declared != count or set(bags) != set(range(count)) or len(links) != count - 1:
        return "malformed tree", -1
    adj: list[list[int]] = [[] for _ in range(count)]
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for b in adj[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    if len(seen) != count:
        return "decomposition tree is not connected", -1
    holders: list[set[int]] = [set() for _ in range(inst.n)]
    for i, bag in bags.items():
        for v in bag:
            if not 0 <= v < inst.n:
                return f"bag vertex {v} out of range", -1
            holders[v].add(i)
    for v in range(inst.n):
        if not holders[v]:
            return f"vertex {v} in no bag", -1
    for u, v, _ in inst.edges:
        if not holders[u] & holders[v]:
            return f"edge ({u},{v}) in no bag", -1
    # A vertex's bags are connected iff they span len - 1 tree edges.
    spanned = [0] * inst.n
    for a, b in links:
        for v in set(bags[a]) & set(bags[b]):
            spanned[v] += 1
    for v in range(inst.n):
        if spanned[v] != len(holders[v]) - 1:
            return f"bags holding vertex {v} are not connected", -1
    return None, max(len(b) for b in bags.values()) - 1


def check(req: Request, code: int, report: dict | None) -> str | None:
    """None when the answer is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no JSON report"
    result = report.get("result", {})
    if req.expected is None and req.command not in ("decompose", "validate"):
        return "no pinned answer for this request"
    if req.command in ("solve_tw", "solve_vc", "solve_approx"):
        size = result.get("size")
        if not isinstance(size, int):
            return f"size {size!r} is not an integer"
        if req.command == "solve_approx":
            if size < req.expected:
                return f"approx size {size} below exact optimum {req.expected}"
            slack = 1 + req.epsilon
        else:
            if size != req.expected:
                return f"size {size} != pinned {req.expected}"
            slack = Fraction(1)
        return witness_error(req.instance, result.get("witness") or [], size, req.d, slack)
    if req.command == "count":
        try:
            counts = [int(c) for c in result.get("counts") or []]
        except ValueError:
            return "unreadable count vector"
        if counts != req.expected:
            return f"counts differ from pinned vector (got {len(counts)} entries)"
        return None
    if req.command == "decompose":
        files = result.get("files") or []
        if len(files) != 1:
            return "decompose reported no output file"
        err, width = td_error(req.instance, files[0])
        if err is None and result.get("width") != width:
            err = f"reported width {result.get('width')} != file width {width}"
        return err
    if req.command == "validate":
        if not report.get("validation", {}).get("ok"):
            return "valid decomposition rejected"
        path = req.argv[req.argv.index("--td") + 1]
        err, width = td_error(req.instance, path)
        if err is None and result.get("width") != width:
            err = f"reported width {result.get('width')} != file width {width}"
        return err
    raise ValueError(f"unknown command {req.command!r}")

