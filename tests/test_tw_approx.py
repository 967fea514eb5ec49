"""Rounded-state approximation: domains, rounding, and the size guarantee."""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import cycle_graph, path_graph, seeded_corpus, star_graph
from scatterset.decomp import heuristic_decomposition
from scatterset.graph_core import INF, all_pairs_distances, scattered_violation
from scatterset.oracle import brute_force_max
from scatterset.tw_approx import (
    RoundedClearance,
    approx_max_scattered,
    choose_delta,
    slack_threshold,
)


def test_choose_delta_is_per_level_share():
    assert choose_delta(Fraction(1, 2), 10) == Fraction(1, 20)
    assert choose_delta(Fraction(3), 1) == 3
    with pytest.raises(ValueError):
        choose_delta(Fraction(0), 5)
    with pytest.raises(ValueError):
        choose_delta(Fraction(1, 2), 0)


def test_rounded_domain_is_exact_power_ladder():
    rc = RoundedClearance(7, Fraction(1, 4), Fraction(1, 2))
    base = Fraction(5, 4)
    for i, v in enumerate(rc.powers):
        assert v == base**i
    assert rc.cap == len(rc.powers) - 1
    assert rc.powers[-1] <= 7 < rc.powers[-1] * base
    assert all(a < b for a, b in zip(rc.powers, rc.powers[1:]))


def test_round_add_floors_to_ladder():
    rc = RoundedClearance(7, Fraction(1, 4), Fraction(1, 2))
    # Index 1 is 5/4; 5/4 + 2 = 13/4, and the largest power below is
    # (5/4)^5 = 3125/1024.
    assert rc.add(1, 2) == 5
    assert rc.powers[5] == Fraction(3125, 1024)
    assert rc.add(0, 1) == 3  # 1 + 1 = 2 floors to (5/4)^3 = 125/64
    assert rc.add(rc.cap, 1) == rc.cap  # saturates at the top of the ladder
    assert rc.add(rc.cap, 7) == rc.cap


def test_rounded_clearance_admission_uses_slack_target():
    rc = RoundedClearance(7, Fraction(1, 4), Fraction(1, 2))
    # Target is 7 / (3/2) = 14/3.
    assert rc.admit_distance(5)
    assert not rc.admit_distance(4)
    assert rc.from_distance(7) == rc.cap
    # Index l stands for (5/4)^l; distance 2 floors to (5/4)^3 = 125/64.
    assert rc.from_distance(1) == 0
    assert rc.from_distance(2) == 3
    assert rc.join_ok(rc.cap, rc.cap)


def test_approx_rejects_bad_arguments():
    g = path_graph(4)
    td = heuristic_decomposition(g)
    with pytest.raises(ValueError):
        approx_max_scattered(g, td, 3, Fraction(0))
    with pytest.raises(ValueError):
        approx_max_scattered(g, td, 1, Fraction(1, 2))


def _check_guarantee(g, d, epsilon):
    td = heuristic_decomposition(g)
    size, witness = approx_max_scattered(g, td, d, epsilon)
    exact, _ = brute_force_max(g, d)
    assert size >= exact
    assert len(witness) == size
    dist = all_pairs_distances(g).dist
    for i, u in enumerate(witness):
        for v in witness[i + 1 :]:
            if dist[u][v] < INF:
                assert (1 + epsilon) * dist[u][v] >= d
    # The integer threshold the solver and the CLI check against gives the
    # rational verdict on every pair, failing pairs included.
    threshold = slack_threshold(d, epsilon)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            rational_ok = dist[u][v] >= INF or (1 + epsilon) * dist[u][v] >= d
            assert rational_ok == (scattered_violation(g, (u, v), threshold) is None)


@pytest.mark.parametrize(
    "epsilon", [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)]
)
def test_guarantee_on_pinned_shapes(epsilon):
    for g, d in ((path_graph(5), 3), (cycle_graph(8), 4), (star_graph(6), 2)):
        _check_guarantee(g, d, epsilon)


def test_guarantee_on_random_corpus():
    for i, g in enumerate(seeded_corpus(12, 9, 3, base_seed=77)):
        _check_guarantee(g, 2 + i % 4, Fraction(1, 2))


def test_slack_lets_closer_pairs_through():
    # P5, d=3, epsilon=1: pairs at distance >= 3/2 qualify, so alternating
    # vertices (distance 2) are admissible and the result beats the exact
    # optimum of 2.
    g = path_graph(5)
    td = heuristic_decomposition(g)
    size, witness = approx_max_scattered(g, td, 3, Fraction(1))
    assert size >= 2
    dist = all_pairs_distances(g).dist
    assert all(
        2 * dist[u][v] >= 3 for i, u in enumerate(witness) for v in witness[i + 1 :]
    )


def test_tiny_epsilon_recovers_exact_optimum():
    for i, g in enumerate(seeded_corpus(8, 8, 2, base_seed=78)):
        d = 2 + i % 3
        td = heuristic_decomposition(g)
        # Below 1/(d-1) the slack admits no extra integer distance, so the
        # rounded solver must match the exact optimum exactly.
        size, _ = approx_max_scattered(g, td, d, Fraction(1, 50 * d))
        assert size == brute_force_max(g, d)[0]
