"""Hardness-instance generators: parsers, constructions, witnesses, formulas."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import scatterset.gadgets as gadgets
import scatterset.graph_core as graph_core
from scatterset.decomp import heuristic_decomposition, make_nice
from scatterset.gadgets import (
    CnfFormula,
    McisInstance,
    gen_fvs_unweighted,
    gen_seth,
    gen_td_eth,
    gen_w1_vc,
    parse_cnf,
    parse_mcis,
)
from scatterset.graph_core import ParseError, WeightedGraph, format_dss, is_scattered
from scatterset.oracle import brute_force_max
from scatterset.tw_exact import max_scattered

YES_MCIS = "p mcis 2 2\ne 1.1 2.2\n"
NO_MCIS = "p mcis 2 2\ne 1.1 2.1\ne 1.1 2.2\ne 1.2 2.1\ne 1.2 2.2\n"
MCIS_3X3 = "p mcis 3 3\ne 1.1 2.1\ne 1.2 3.3\ne 2.2 3.1\ne 1.3 2.3\n"


def _removal_is_acyclic(g: WeightedGraph, removed: tuple[int, ...]) -> bool:
    gone = set(removed)
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        if u in gone or v in gone:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _covers_all_edges(g: WeightedGraph, cover: tuple[int, ...]) -> bool:
    chosen = set(cover)
    return all(u in chosen or v in chosen for u, v, _ in g.edges)


# -- formula / instance containers -----------------------------------------


def test_cnf_formula_validation():
    phi = CnfFormula(num_vars=3, clauses=((1, -2), (3,)))
    assert phi.num_clauses == 2
    assert phi.max_clause_width() == 2
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((3,),))
    with pytest.raises(ValueError):
        CnfFormula(num_vars=2, clauses=((0,),))


def test_cnf_satisfied_by():
    phi = CnfFormula(num_vars=4, clauses=((1, 2, 3), (-1, 4)))
    assert phi.satisfied_by((True, False, False, True))
    assert not phi.satisfied_by((True, False, False, False))
    with pytest.raises(ValueError):
        phi.satisfied_by((True,))


def test_mcis_instance_normalizes_and_validates():
    inst = McisInstance(
        num_classes=3,
        class_size=2,
        edges=frozenset({((1, 2), (2, 1))}),
    )
    assert inst.has_edge(1, 2, 2, 1)
    assert inst.has_edge(2, 1, 1, 2)  # query order is normalized
    assert not inst.has_edge(1, 1, 2, 1)
    with pytest.raises(ValueError):
        McisInstance(
            num_classes=3, class_size=2, edges=frozenset({((2, 1), (1, 2))})
        )
    with pytest.raises(ValueError):
        McisInstance(num_classes=2, class_size=2, edges=frozenset({((1, 1), (1, 2))}))


def test_parse_cnf():
    phi = parse_cnf("c comment\np cnf 3 2\n1 -2 0\n3\n0\n")
    assert phi.num_vars == 3
    assert phi.clauses == ((1, -2), (3,))


# (text, line_no): line-level errors are ParseErrors naming their line, and
# the rest are plain ValueErrors.  Each case's id is its text alone.
CNF_MALFORMED = [
    ("1 2 0\n", 1),  # clause before header
    ("p cnf 2 1\np cnf 2 1\n1 0\n", 2),  # duplicate header
    ("p cnf 2 2\n1 0\n", None),  # clause count mismatch
    ("p cnf 2 1\n5 0\n", None),  # literal out of range
    ("p cnf 2 1\n1 2\n", None),  # unterminated clause
    ("p cnf 1 1\ncfoo\n1 0\n", 2),  # only a first field 'c' makes a comment
    ("p cnf 1 1\ncomment-less line\n1 0\n", 2),
]


@pytest.mark.parametrize("text,line_no", CNF_MALFORMED, ids=[t for t, _ in CNF_MALFORMED])
def test_parse_cnf_rejects_malformed(text, line_no):
    with pytest.raises(ValueError) as info:
        parse_cnf(text)
    assert getattr(info.value, "line_no", None) == line_no
    assert isinstance(info.value, ParseError) == (line_no is not None)


def test_parse_mcis():
    inst = parse_mcis(YES_MCIS)
    assert inst.num_classes == 2 and inst.class_size == 2
    assert inst.has_edge(1, 1, 2, 2)
    assert not inst.has_edge(1, 1, 2, 1)


def test_parse_mcis_puts_the_lower_class_first():
    inst = parse_mcis("p mcis 2 2\ne 2.1 1.2\n")
    assert inst.edges == frozenset({((1, 2), (2, 1))})


MCIS_MALFORMED = [
    ("e 1.1 2.1\n", 1),  # edge before header
    ("p mcis 2 2\ne 1.1 1.2\n", 2),  # intra-class edge
    ("p mcis 2 2\ne 1.3 2.1\n", None),  # index out of range
    ("p mcis 2 2\ne 1 2\n", 2),  # malformed endpoint
    ("p mcis 2 2\ncfoo\n", 2),  # only a first field 'c' makes a comment
    ("p mcis 2 2\ncomment-less line\n", 2),
]


@pytest.mark.parametrize("text,line_no", MCIS_MALFORMED, ids=[t for t, _ in MCIS_MALFORMED])
def test_parse_mcis_rejects_malformed(text, line_no):
    with pytest.raises(ValueError) as info:
        parse_mcis(text)
    assert getattr(info.value, "line_no", None) == line_no
    assert isinstance(info.value, ParseError) == (line_no is not None)


# -- weighted construction ---------------------------------------------------


def test_w1vc_yes_instance_pinned():
    out = gen_w1_vc(parse_mcis(YES_MCIS), assignment=(1, 1))
    assert out.d == 24  # 12 * class size, after doubling all weights
    assert out.target_size == 4  # k + 2*C(k,2) = k*k for k = 2
    names = [out.vertex_names[v] for v in out.witness]
    assert names == ["p[1,1]", "p[2,1]", "u[1.1,2.1]", "g'[1,2]"]
    assert is_scattered(out.graph, out.witness, out.d)
    assert not is_scattered(out.graph, out.witness, out.d + 1)  # bound is tight
    assert brute_force_max(out.graph, out.d)[0] == out.target_size
    assert out.params["assignment_accepted"] is True


def test_w1vc_no_instance_falls_short():
    out = gen_w1_vc(parse_mcis(NO_MCIS))
    assert out.witness is None
    assert brute_force_max(out.graph, out.d)[0] < out.target_size


def test_w1vc_certificate_is_vertex_cover():
    out = gen_w1_vc(parse_mcis(YES_MCIS))
    assert out.certificate_kind == "vertex-cover"
    assert _covers_all_edges(out.graph, out.certificate)


def test_w1vc_rejects_dependent_assignment():
    out = gen_w1_vc(parse_mcis(YES_MCIS), assignment=(1, 2))  # 1.1-2.2 is an edge
    assert out.witness is None
    assert out.params["assignment_accepted"] is False


def test_w1vc_optimum_reaches_target_iff_independent_choice_exists():
    # Exhaustive over every edge pattern on two classes of two vertices.
    pairs = [(1, 1, 2, 1), (1, 1, 2, 2), (1, 2, 2, 1), (1, 2, 2, 2)]
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            lines = ["p mcis 2 2"] + [f"e {a}.{b} {c}.{d}" for a, b, c, d in chosen]
            inst = parse_mcis("\n".join(lines) + "\n")
            solvable = any(
                not inst.has_edge(1, l, 2, o) for l in (1, 2) for o in (1, 2)
            )
            out = gen_w1_vc(inst)
            reached = brute_force_max(out.graph, out.d)[0] == out.target_size
            assert reached == solvable


def _mcis_sources():
    """Every source with k = 2 and n <= 3, then seeded samples at k = 3, n = 2 and 3."""
    for n in (1, 2, 3):
        pairs = [((1, l), (2, o)) for l in range(1, n + 1) for o in range(1, n + 1)]
        for bits in range(1 << len(pairs)):
            yield McisInstance(2, n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))
    rng = random.Random(3100)
    for n, samples in ((2, 400), (3, 60)):
        pairs = [
            ((i, l), (j, o))
            for i, j in combinations(range(1, 4), 2)
            for l in range(1, n + 1)
            for o in range(1, n + 1)
        ]
        for _ in range(samples):
            yield McisInstance(3, n, frozenset(p for p in pairs if rng.randrange(2)))


def test_w1vc_threshold_holds_on_a_seeded_corpus():
    # The exact engine on the heuristic's nice form decides each source:
    # the optimum reaches k*k exactly when one vertex per class can be
    # chosen pairwise non-adjacent.
    groups = Counter()
    for inst in _mcis_sources():
        k, n = inst.num_classes, inst.class_size
        class_pairs = list(combinations(range(k), 2))
        solvable = any(
            not any(inst.has_edge(i + 1, pick[i], j + 1, pick[j]) for i, j in class_pairs)
            for pick in product(range(1, n + 1), repeat=k)
        )
        out = gen_w1_vc(inst)
        size, _ = max_scattered(out.graph, make_nice(heuristic_decomposition(out.graph)), out.d)
        assert (size >= out.target_size) == solvable, (k, n, sorted(inst.edges))
        groups[k, n, solvable] += 1
    # Both answers occur in every group that can have both.
    assert all(groups[k, n, yes] for k, n in ((2, 2), (2, 3), (3, 2), (3, 3)) for yes in (0, 1))


def test_w1vc_bad_assignment_shape():
    with pytest.raises(ValueError):
        gen_w1_vc(parse_mcis(YES_MCIS), assignment=(1,))
    with pytest.raises(ValueError):
        gen_w1_vc(parse_mcis(YES_MCIS), assignment=(1, 3))


# -- unit-weight construction ------------------------------------------------


def test_fvs_yes_instance_pinned():
    out = gen_fvs_unweighted(parse_mcis(YES_MCIS), assignment=(1, 1))
    assert out.d == 12  # 6 * class size, unit weights
    assert out.target_size == 4
    assert out.graph.has_unit_weights()
    assert out.graph.n == 143
    names = [out.vertex_names[v] for v in out.witness]
    assert names == ["p[1,1]", "p[2,1]", "u[1.1,2.1]", "g'[1,2]"]
    assert is_scattered(out.graph, out.witness, out.d)
    assert not is_scattered(out.graph, out.witness, out.d + 1)


def test_fvs_no_instance_falls_short():
    out = gen_fvs_unweighted(parse_mcis(NO_MCIS))
    assert out.witness is None
    assert brute_force_max(out.graph, out.d)[0] < out.target_size


def test_fvs_certificate_breaks_all_cycles():
    out = gen_fvs_unweighted(parse_mcis(YES_MCIS))
    assert out.certificate_kind == "feedback-vertex-set"
    assert _removal_is_acyclic(out.graph, out.certificate)
    assert not _removal_is_acyclic(out.graph, ())


def test_fvs_wide_classes_keep_hub_detours_long():
    # Classes of four: hub detours between verifiers with far-apart indices
    # must not undercut the required distance.  Regression for the shared
    # verifier hub wiring.
    inst = parse_mcis("p mcis 2 4\ne 1.2 2.3\n")
    for choice in ((1, 1), (4, 4), (1, 4)):
        out = gen_fvs_unweighted(inst, assignment=choice)
        assert out.params["assignment_accepted"] is True
        assert is_scattered(out.graph, out.witness, out.d)
        assert len(out.witness) == out.target_size == 4


# -- CNF to bounded-pathwidth construction ------------------------------------


@pytest.mark.parametrize(
    "d,eps,p,gamma",
    [
        (4, Fraction(1), 3, 8),
        (3, Fraction(1), 2, 2),
        (5, Fraction(1), 4, 29),
        (6, Fraction(1), 4, 44),
        (4, Fraction(1, 2), 6, 64),
    ],
)
def test_seth_parameter_arithmetic(d, eps, p, gamma):
    # p is the smallest power with d^p >= 2*(d-eps)^p, checked exactly;
    # gamma = floor((log2 d)^p), decided by rational bracketing.
    phi = CnfFormula(num_vars=2, clauses=((1, 2), (-1, 2)))
    out = gen_seth(phi, d, eps)
    assert out.params["p"] == p
    assert out.params["gamma"] == gamma
    assert Fraction(d) ** p >= 2 * (Fraction(d) - eps) ** p
    if p > 1:
        assert Fraction(d) ** (p - 1) < 2 * (Fraction(d) - eps) ** (p - 1)


def test_seth_witness_size_formula():
    phi = CnfFormula(num_vars=2, clauses=((1, 2), (-1, 2)))
    out = gen_seth(phi, 3, Fraction(1), assignment=(True, True))
    p, t = out.params["p"], out.params["t"]
    columns = phi.num_clauses * (t * p * (3 - 1) + 1)
    assert out.params["columns"] == columns
    assert out.target_size == (t * p + 2) * columns
    assert len(out.witness) == out.target_size
    assert is_scattered(out.graph, out.witness, out.d)
    assert not is_scattered(out.graph, out.witness, out.d + 1)


def test_seth_even_d_witness_validates():
    phi = CnfFormula(num_vars=3, clauses=((1, -2), (2, 3)))
    out = gen_seth(phi, 4, Fraction(1), assignment=(True, False, True))
    assert len(out.witness) == out.target_size
    assert is_scattered(out.graph, out.witness, out.d)


def test_seth_without_assignment_builds_graph_only():
    out = gen_seth(CnfFormula(num_vars=2, clauses=((1, 2),)), 3, Fraction(1))
    assert out.witness is None
    assert out.graph.n > 0
    assert out.certificate_kind == "none"


def test_seth_rejects_unsatisfying_assignment():
    phi = CnfFormula(num_vars=1, clauses=((1,),))
    out = gen_seth(phi, 3, Fraction(1), assignment=(False,))
    assert out.witness is None
    assert out.params["assignment_accepted"] is False


@pytest.mark.parametrize(
    "d,eps",
    [(2, Fraction(1, 2)), (4, Fraction(0)), (4, Fraction(4)), (4, Fraction(-1))],
)
def test_seth_rejects_bad_parameters(d, eps):
    phi = CnfFormula(num_vars=1, clauses=((1,),))
    with pytest.raises(ValueError):
        gen_seth(phi, d, eps)


# (formula, d, epsilon, assignment): d = 3 has a_len = 0, even and odd d,
# 1-4 variables, and no, satisfying and unsatisfying assignments.
SETH_CORPUS = [
    (CnfFormula(1, ((1,),)), 3, Fraction(1), None),
    (CnfFormula(1, ((1,),)), 3, Fraction(1), (True,)),
    (CnfFormula(1, ((1,),)), 3, Fraction(1), (False,)),
    (CnfFormula(1, ((1,),)), 3, Fraction(2), (True,)),
    (CnfFormula(1, ((1,), (-1,))), 4, Fraction(1), (True,)),
    (CnfFormula(1, ((1,), (-1,))), 5, Fraction(1), None),
    (CnfFormula(2, ((1, 2), (-1, 2))), 3, Fraction(1), (True, True)),
    (CnfFormula(2, ((1, 2), (-1, 2))), 3, Fraction(1, 2), (False, True)),
    (CnfFormula(2, ((1, 2), (-1, 2))), 4, Fraction(1), (True, False)),
    (CnfFormula(2, ((1, 2), (-1, 2))), 4, Fraction(1, 2), (True, True)),
    (CnfFormula(3, ((1, -2), (2, 3))), 4, Fraction(1), (True, False, True)),
    (CnfFormula(3, ((1, -2), (2, 3))), 5, Fraction(2), (True, False, True)),
    (CnfFormula(3, ((1, -2), (2, 3))), 6, Fraction(1), None),
    (CnfFormula(4, ((1, -2, 3), (-3, 4), (2, -4))), 3, Fraction(2), (True,) * 4),
    (CnfFormula(4, ((1, -2, 3), (-3, 4), (2, -4))), 4, Fraction(1), (False,) * 4),
]


def test_seth_pinned():
    # Vertex names, witness, target, params and edges as (min, max, w) in
    # file order, hashed per instance and then over the corpus; the digest
    # was taken from the builder that predates _GraphBuilder.chain.
    corpus = hashlib.sha256()
    for phi, d, eps, assignment in SETH_CORPUS:
        out = gen_seth(phi, d, eps, assignment)
        parts = [
            "\n".join(out.vertex_names),
            repr(out.witness),
            repr(out.target_size),
            repr(out.params),
            repr([(min(u, v), max(u, v), w) for u, v, w in out.graph.edges]),
        ]
        corpus.update(hashlib.sha256("\0".join(parts).encode()).hexdigest().encode())
    assert corpus.hexdigest() == (
        "9af128c614f1d722bb9881e5f2f43fd0476ea3f0b92c17db1e5052f0784317fc"
    )


# -- CNF to bounded-treedepth construction ------------------------------------


def test_td_eth_pinned_four_variables():
    phi = CnfFormula(num_vars=4, clauses=((1, 2, 3), (-1, 4)))
    out = gen_td_eth(phi, assignment=(True, False, False, True))
    assert out.params["groups"] == 2
    assert out.params["capacity"] == 64  # 8^2 partial assignments per group
    assert out.d == 6 * 64
    assert out.target_size == 4
    assert len(out.witness) == 4
    assert is_scattered(out.graph, out.witness, out.d)
    assert not is_scattered(out.graph, out.witness, out.d + 1)


def test_td_eth_single_variable():
    out = gen_td_eth(CnfFormula(num_vars=1, clauses=((1,),)), assignment=(True,))
    assert out.d == 48 and out.target_size == 1
    assert len(out.witness) == 1
    assert is_scattered(out.graph, out.witness, out.d)


def test_td_eth_pads_to_perfect_square():
    out = gen_td_eth(CnfFormula(num_vars=2, clauses=((1, 2),)))
    assert out.params["original_vars"] == 2
    assert out.params["padded_vars"] == 4
    assert out.target_size == 4


def test_td_eth_certificate_breaks_all_cycles():
    out = gen_td_eth(CnfFormula(num_vars=1, clauses=((1,),)))
    assert out.certificate_kind == "feedback-vertex-set"
    assert _removal_is_acyclic(out.graph, out.certificate)


def test_td_eth_rejects_wide_clauses_and_bad_assignments():
    with pytest.raises(ValueError):
        gen_td_eth(CnfFormula(num_vars=4, clauses=((1, 2, 3, 4),)))
    out = gen_td_eth(CnfFormula(num_vars=1, clauses=((1,),)), assignment=(False,))
    assert out.witness is None
    assert out.params["assignment_accepted"] is False


def test_td_eth_refuses_an_oversized_layout_before_building_it():
    # 100 variables pad to 10 groups of capacity N = 8**10, so the first
    # anchor path alone, of length N+1, would pass the vertex limit.
    phi = parse_cnf("p cnf 100 2\n1 -2 0\n2 0\n")
    with pytest.raises(ValueError, match="generated graph would be too large"):
        gen_td_eth(phi)


# -- pinned layouts -----------------------------------------------------------


TDETH_SHARED = CnfFormula(4, ((2, -3, 4), (1, 2), (-1, -4), (3, -4, 1)))

LAYOUT_CASES = [
    (
        lambda: gen_w1_vc(parse_mcis(YES_MCIS), (1, 1)),
        "d34a95296c9b6e1fa6153919347c22d1cc2a86f60cdcba398c1757c80063c7a8",
    ),
    (
        lambda: gen_w1_vc(parse_mcis(NO_MCIS)),
        "4cdeb39c37ea2dd151c84ddf2f28e393ec16a93fea14ec6322ed58cfa6f92d08",
    ),
    (
        lambda: gen_w1_vc(parse_mcis(MCIS_3X3), (1, 2, 2)),
        "c1481591cccef950066b546258142de70dba996da918814c2af5e5a3e5f9c74d",
    ),
    (
        lambda: gen_fvs_unweighted(parse_mcis(YES_MCIS), (1, 1)),
        "1bd79c73d78be8df1b8ee525415c4a2b7060883adbf8b9f2374b875b5e3e6ba3",
    ),
    (
        lambda: gen_fvs_unweighted(parse_mcis(NO_MCIS)),
        "b502c083c1ebd1cf8567741bbec9fdbecff7ea6469e7dc8dcebdb244be33dcde",
    ),
    (
        lambda: gen_fvs_unweighted(parse_mcis(MCIS_3X3), (1, 2, 2)),
        "db788ea13484faaac487b19c4f64b658f9b9672b7f83138c1c7ba8b19857e9be",
    ),
    (
        lambda: gen_td_eth(CnfFormula(1, ((1,),))),
        "9f2ceb61fd0daeae2d12ba14e432f0746652870bb1c767774f180a094318aef9",
    ),
    (
        lambda: gen_td_eth(CnfFormula(1, ((1,),)), (True,)),
        "510cdaeea301903886cd005ab61b3aaddebfa69ee981b85e243ed32da2a9df71",
    ),
    (
        lambda: gen_td_eth(CnfFormula(4, ((1, 2, 3), (-1, 4)))),
        "11590b9cbffb23f3fecb0e37f8592bb903eea5c1400c6516669b9c24bb4b33d0",
    ),
    (
        lambda: gen_td_eth(CnfFormula(4, ((1, 2, 3), (-1, 4))), (True, False, False, True)),
        "f7a0a0fbf412dd447c9febb87f1e21bc5644d395011159db8f50f381c3f90bd8",
    ),
    # The groups share variables 1, 3 and 4 at different positions (0, 2, 3
    # in the first group, 0, 1, 2 in the second), so every verifier rests
    # on matching shared positions; digests taken before those positions
    # were precomputed per group pair.
    (
        lambda: gen_td_eth(TDETH_SHARED),
        "bc3b8391e1772be9ffad2b0d84a2b2d30bcae1e3b202ec5761c99c813cc91142",
    ),
    (
        lambda: gen_td_eth(TDETH_SHARED, (True, True, True, False)),
        "45bd1f427790187482f0b687c93564b236df3db2e99a43d5c59bab04103a1944",
    ),
]
LAYOUT_IDS = [
    "w1vc-yes", "w1vc-no", "w1vc-3x3", "fvs-yes", "fvs-no", "fvs-3x3",
    "tdeth-1var", "tdeth-1var-sat", "tdeth-4var", "tdeth-4var-sat",
    "tdeth-shared", "tdeth-shared-sat",
]


@pytest.mark.parametrize("build,digest", LAYOUT_CASES, ids=LAYOUT_IDS)
def test_layout_pinned(build, digest):
    # Graph text, vertex names, witness, certificate and params, hashed;
    # the digests were taken from the three separate builders this layout
    # replaced, so any change to ids, names, lengths or order shows here.
    out = build()
    parts = [
        format_dss(out.graph),
        "\n".join(out.vertex_names),
        repr(out.witness),
        repr(out.certificate),
        repr(out.params),
    ]
    assert hashlib.sha256("\0".join(parts).encode()).hexdigest() == digest


# -- size plan ----------------------------------------------------------------


def _no_vertex(builder, name):
    raise AssertionError(f"vertex {name} was built before the size check")


def _no_enumeration(*args):
    raise AssertionError("a source was enumerated before the size check")


SETH_SIZED = [
    lambda: gen_seth(CnfFormula(1, ((1,), (-1,))), 4, Fraction(1), (True,)),
    lambda: gen_seth(CnfFormula(1, ((1,), (-1,))), 5, Fraction(1)),
    lambda: gen_seth(CnfFormula(3, ((1, -2), (2, 3))), 6, Fraction(1)),
]


@pytest.mark.parametrize(
    "build",
    [build for build, _ in LAYOUT_CASES] + SETH_SIZED,
    ids=LAYOUT_IDS + ["seth-d4", "seth-d5", "seth-d6"],
)
def test_size_is_checked_before_the_first_vertex(build, monkeypatch):
    # At limits equal to the graph's sizes the same graph is built; one
    # vertex or one edge less is refused before any vertex exists.
    graph = build().graph
    n, m = graph.n, len(graph.edges)
    monkeypatch.setattr(graph_core, "_MAX_VERTICES", n)
    monkeypatch.setattr(graph_core, "_MAX_EDGES", m)
    assert build().graph == graph
    monkeypatch.setattr(gadgets._GraphBuilder, "vertex", _no_vertex)
    for limits in ((n - 1, m), (n, m - 1)):
        monkeypatch.setattr(graph_core, "_MAX_VERTICES", limits[0])
        monkeypatch.setattr(graph_core, "_MAX_EDGES", limits[1])
        with pytest.raises(ValueError, match="generated graph would be too large"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: gen_td_eth(parse_cnf("p cnf 10 2\n1 -2 0\n2 0\n")),
        lambda: gen_fvs_unweighted(parse_mcis("p mcis 8 30\n")),
        lambda: gen_seth(parse_cnf("p cnf 1 1\n1 0\n"), 10**12, 10**12 - 1),
        lambda: gen_w1_vc(parse_mcis("p mcis 2 3000\n")),
        lambda: gen_seth(parse_cnf("p cnf 1000000 1\n1 0\n"), 3, 1),
    ],
    ids=["tdeth", "fvs", "seth", "w1vc-pairs", "seth-vars"],
)
def test_oversized_sources_are_refused_with_no_vertex_built(build, monkeypatch):
    # Nor is a choice pair or a group assignment enumerated first: the mcis
    # gadgets count their verifiers in closed form, and seth bounds its
    # size from its columns before it lists the variables.
    monkeypatch.setattr(gadgets._GraphBuilder, "vertex", _no_vertex)
    monkeypatch.setattr(McisInstance, "has_edge", _no_enumeration)
    monkeypatch.setattr(gadgets, "_base_digits", _no_enumeration)
    with pytest.raises(ValueError, match="generated graph would be too large"):
        build()


# -- targets that are no thresholds ---------------------------------------------

MCIS_3X2_NO = "p mcis 3 2\ne 1.1 2.2\ne 1.2 2.1\ne 1.1 3.2\ne 1.2 3.1\ne 2.1 3.1\ne 2.2 3.2\n"
CNF_2X4_UNSAT = "p cnf 2 4\n1 2 0\n-1 2 0\n1 -2 0\n-1 -2 0\n"


@pytest.mark.parametrize(
    "family, source, n, target, optimum",
    [
        ("fvs", MCIS_3X2_NO, 282, 9, 13),
        ("seth", CNF_2X4_UNSAT, 2520, 200, 220),
        ("tdeth", "p cnf 1 2\n1 0\n-1 0\n", 2, 1, 2),
    ],
    ids=["fvs", "seth", "tdeth"],
)
def test_a_no_source_reaches_the_target(family, source, n, target, optimum):
    # The counterexamples behind "not a threshold" in the module docstring
    # and in the fvs, seth (d = 4, epsilon 1) and tdeth docstrings: the
    # source has no independent choice or no satisfying assignment, yet the
    # exact optimum on the heuristic's nice form reaches the target that a
    # valid one would give.
    if family == "fvs":
        inst = parse_mcis(source)
        pairs = list(combinations(range(1, inst.num_classes + 1), 2))
        picks = product(range(1, inst.class_size + 1), repeat=inst.num_classes)
        assert all(any(inst.has_edge(i, p[i - 1], j, p[j - 1]) for i, j in pairs) for p in picks)
        out = gen_fvs_unweighted(inst)
    else:
        phi = parse_cnf(source)
        assert not any(map(phi.satisfied_by, product((False, True), repeat=phi.num_vars)))
        out = gen_seth(phi, 4, Fraction(1)) if family == "seth" else gen_td_eth(phi)
    assert (out.graph.n, out.target_size) == (n, target)
    size, witness = max_scattered(out.graph, make_nice(heuristic_decomposition(out.graph)), out.d)
    assert is_scattered(out.graph, witness, out.d)
    assert size == optimum >= target
