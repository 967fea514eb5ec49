"""End-to-end acceptance checks, one test per advertised guarantee.

Every assertion here is exact: integer equality against brute-force
enumeration or exact rational slack checks.
The summary hook in conftest.py prints one PASS/FAIL line per test.
"""

from __future__ import annotations

import time
from fractions import Fraction

import pytest

import scatterset.tw_exact as tw_mod
from conftest import diameter, independent_set_counts, max_finite_distance, seeded_corpus
from scatterset.decomp import (
    TreeDecomposition,
    balance,
    decomposition_depth,
    heuristic_decomposition,
    make_nice,
    max_introduce_depth,
    nice_to_tree,
    validate_decomposition,
    validate_nice,
)
from scatterset.gadgets import (
    gen_fvs_unweighted,
    gen_seth,
    gen_td_eth,
    gen_w1_vc,
    parse_cnf,
    parse_mcis,
)
from scatterset.graph_core import (
    INF,
    all_pairs_distances,
    is_scattered,
)
from scatterset.oracle import (
    brute_force_count,
    brute_force_max,
)
from scatterset.tw_approx import approx_max_scattered
from scatterset.tw_exact import (
    count_scattered,
    max_scattered,
    solve_via_treedepth,
)
from scatterset.vc_fpt import (
    compute_vertex_cover,
    max_scattered_vc,
    neighborhood_classes,
    reduce_to_packing,
)

YES_MCIS = "p mcis 2 2\ne 1.1 2.2\n"
NO_MCIS = "p mcis 2 2\ne 1.1 2.1\ne 1.1 2.2\ne 1.2 2.1\ne 1.2 2.2\n"


def _d_range(g):
    """Every d from 2 through one past the largest finite distance."""
    return range(2, max(2, max_finite_distance(g)) + 2)


def test_counting_matches_brute_force_on_corpus(weighted_corpus):
    for g in weighted_corpus:
        nd = make_nice(heuristic_decomposition(g))
        for d in _d_range(g):
            assert count_scattered(g, nd, d, g.n) == brute_force_count(g, d, g.n)


def test_maximization_matches_brute_force_on_corpus(weighted_corpus):
    for g in weighted_corpus:
        nd = make_nice(heuristic_decomposition(g))
        for d in _d_range(g):
            opt, _ = brute_force_max(g, d)
            size, members = max_scattered(g, nd, d)
            assert size == opt
            assert len(members) == size and is_scattered(g, members, d)


def test_distance_two_counts_equal_independent_set_counts(unit_corpus):
    # At d = 2 a scattered set is exactly an independent set; the reference
    # side enumerates vertex subsets and checks edges, never distances.
    for g in unit_corpus:
        nd = make_nice(heuristic_decomposition(g))
        assert count_scattered(g, nd, 2, g.n) == independent_set_counts(g, g.n)


def test_vertex_cover_solver_matches_brute_and_keeps_coefficient_alphabet(
    unit_corpus,
):
    fractional_seen = 0
    for g in unit_corpus:
        for d in range(3, max_finite_distance(g) + 2):
            size, members = max_scattered_vc(g, d)
            opt, _ = brute_force_max(g, d)
            assert size == opt
            assert len(members) == size and is_scattered(g, members, d)
            # Distance shares attached to cover vertices: halves of budget 2
            # for even d, thirds of budget 3 for odd d.
            cover = compute_vertex_cover(g)
            reps = neighborhood_classes(g, cover)
            budget, sets = reduce_to_packing(g, cover, reps, d)
            assert budget == (2 if d % 2 == 0 else 3)
            for _, codes in sets:
                for c in codes:
                    assert 0 <= c <= budget
                    if 0 < c < budget:
                        fractional_seen += 1
    assert fractional_seen > 0  # the alphabet check must not be vacuous


def test_approximation_guarantee_holds_exactly(weighted_corpus):
    epsilons = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
    for g in weighted_corpus:
        dist = all_pairs_distances(g)
        td = heuristic_decomposition(g)
        for d in sorted({3, max(2, max_finite_distance(g)) + 1}):
            opt, _ = brute_force_max(g, d)
            for eps in epsilons:
                size, members = approx_max_scattered(g, td, d, eps)
                # Never smaller than the exact d-optimum...
                assert size >= opt
                # ...and every pair within the slackened distance bound,
                # checked in exact rational arithmetic.
                assert len(members) == size
                for i in range(size):
                    for j in range(i + 1, size):
                        duv = dist[members[i]][members[j]]
                        assert (1 + eps) * duv >= d
    assert len(weighted_corpus) == 200


def test_approximation_recovers_exact_optimum_below_granularity():
    # Distances are integers, so once the stacked rounding loss stays under
    # d/(d-1) no admitted pair can sit at distance d-1 or less: the rounded
    # run must return a genuinely d-scattered optimum.
    for g in seeded_corpus(40, 10, 4, base_seed=55000):
        td = heuristic_decomposition(g)
        for d in sorted({3, max(2, max_finite_distance(g)) + 1}):
            eps = Fraction(1, 2 * d)
            opt, _ = brute_force_max(g, d)
            size, members = approx_max_scattered(g, td, d, eps)
            assert size == opt
            assert is_scattered(g, members, d)


def test_generator_witness_sizes_match_formulas():
    yes = parse_mcis(YES_MCIS)
    no = parse_mcis(NO_MCIS)

    # Selection gadgets: a consistent choice pair yields k + 2*C(k,2) = k*k
    # selected vertices; with every cross pair in conflict nothing reaches 4.
    for gen in (gen_w1_vc, gen_fvs_unweighted):
        out = gen(yes, (1, 1))
        k = yes.num_classes
        assert out.witness is not None
        assert len(out.witness) == k * k == out.target_size
        assert is_scattered(out.graph, out.witness, out.d)
        short = gen(no, None)
        best, _ = brute_force_max(short.graph, short.d)
        assert best < short.target_size == 4

    # Clause-column gadget: witness picks one code vertex per group-row plus
    # both guards in each of m*(t*p*(d-1)+1) columns.
    phi3 = parse_cnf("p cnf 2 2\n1 2 0\n-1 2 0\n")
    out = gen_seth(phi3, 3, Fraction(1, 2), (True, True))
    rows, m = out.params["t"] * out.params["p"], len(phi3.clauses)
    assert out.params["columns"] == m * (rows * (out.d - 1) + 1)
    assert out.witness is not None
    assert len(out.witness) == (rows + 2) * out.params["columns"] == out.target_size
    assert is_scattered(out.graph, out.witness, out.d)

    started = time.perf_counter()
    phi8 = parse_cnf("p cnf 8 3\n1 2 3 0\n-1 4 5 0\n6 -7 8 0\n")
    sat8 = (True, True, True, True, True, True, False, True)
    big = gen_seth(phi8, 4, Fraction(1), sat8)
    rows, m = big.params["t"] * big.params["p"], len(phi8.clauses)
    assert big.witness is not None
    assert len(big.witness) == (rows + 2) * m * (rows * (big.d - 1) + 1)
    assert len(big.witness) == big.target_size
    assert is_scattered(big.graph, big.witness, big.d)
    assert time.perf_counter() - started < 60.0

    # Assignment-consistency gadget: one vertex per padded variable.
    phi = parse_cnf("p cnf 3 2\n1 -2 0\n2 3 0\n")
    out = gen_td_eth(phi, (True, True, True))
    assert out.witness is not None
    assert len(out.witness) == out.params["padded_vars"] == out.target_size
    assert is_scattered(out.graph, out.witness, out.d)


def test_decomposition_toolkit_bounds_and_dp_agreement(weighted_corpus):
    import math

    for g in weighted_corpus:
        td = heuristic_decomposition(g)
        assert validate_decomposition(g, td) is None
        bal = balance(td, g)
        assert validate_decomposition(g, bal) is None
        assert bal.width <= 3 * td.width + 2
        assert decomposition_depth(bal) <= 4 * math.ceil(math.log2(g.n + 1)) + 4
        nd = make_nice(td)
        assert validate_nice(nd) is None
        assert validate_decomposition(g, nice_to_tree(nd)) is None

    # The DP must not care which valid decomposition it is handed.
    small = [g for g in weighted_corpus if g.n <= 8][:30]
    assert len(small) == 30
    for g in small:
        td = heuristic_decomposition(g)
        shapes = (td, balance(td, g), TreeDecomposition((tuple(range(g.n)),), ()))
        for d in (2, 3):
            results = set()
            for shape in shapes:
                nd = make_nice(shape)
                counts = tuple(count_scattered(g, nd, d, g.n))
                size, members = max_scattered(g, nd, d)
                assert is_scattered(g, members, d)
                results.add((counts, size))
            assert len(results) == 1


def test_treedepth_wrapper_shortcuts_large_d(unit_corpus):
    shortcut_hits = 0
    for g in unit_corpus:
        diam = diameter(g)
        if diam < INF:
            before = tw_mod.ENGINE_RUNS
            size, members = solve_via_treedepth(g, diam + 1)
            assert size == 1 and len(members) == 1
            assert tw_mod.ENGINE_RUNS == before  # no DP ran
            shortcut_hits += 1
        for d in range(2, min(diam, 4) + 1):
            size, members = solve_via_treedepth(g, d)
            opt, _ = brute_force_max(g, d)
            assert size == opt
            assert is_scattered(g, members, d)
    assert shortcut_hits > 50
