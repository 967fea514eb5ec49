"""Rounded-state approximation: domains, rounding, and the size guarantee."""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from conftest import cycle_graph, path_graph, seeded_corpus, star_graph
import scatterset.tw_approx as tw_approx
from scatterset.decomp import heuristic_decomposition
from scatterset.graph_core import INF, all_pairs_distances, scattered_violation
from scatterset.oracle import brute_force_max
from scatterset.tw_approx import (
    RoundedClearance,
    _delta_for,
    approx_max_scattered,
    slack_threshold,
)


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


def test_ladder_refuses_past_its_bit_bound(monkeypatch):
    # The cap loop bounds the ladder by (cap + 1) rungs of top's bits; at
    # exactly that bound the ladder is built, one bit less refuses it.
    rc = RoundedClearance(7, Fraction(1, 4), Fraction(1, 2))
    need = (rc.cap + 1) * rc._ladder[-1].bit_length()
    assert sum(x.bit_length() for x in rc._ladder) <= need
    monkeypatch.setattr(tw_approx, "_MAX_LADDER_BITS", need)
    assert RoundedClearance(7, Fraction(1, 4), Fraction(1, 2)).cap == rc.cap
    monkeypatch.setattr(tw_approx, "_MAX_LADDER_BITS", need - 1)
    with pytest.raises(ValueError, match=f"epsilon 1/2 gives delta 1/4, and {rc.cap + 1} rungs"):
        RoundedClearance(7, Fraction(1, 4), Fraction(1, 2))
    monkeypatch.undo()
    # At the module's bound, epsilon = 1/100 on a path of 40 at d = 5 fits
    # and epsilon = 1/1000 does not.
    assert RoundedClearance(5, Fraction(1, 2200), Fraction(1, 100)).cap == 3541
    with pytest.raises(ValueError, match="rounding ladder refused"):
        RoundedClearance(5, Fraction(1, 22000), Fraction(1, 1000))

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
    dist = all_pairs_distances(g)
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
    dist = all_pairs_distances(g)
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


# -- the integer ladder against the Fraction ladder it replaced ---------------


class _FractionClearance:
    """Reference: the rounded domain on a ladder of `Fraction` powers.

    The integer ladder of `RoundedClearance` replaced it; every hook must
    give the same answer.
    """

    def __init__(self, d, delta, epsilon):
        self.d = d
        self.target = Fraction(d) / (1 + epsilon)
        base = 1 + delta
        powers = [Fraction(1)]
        while powers[-1] * base <= d:
            powers.append(powers[-1] * base)
        self.powers = powers

    @property
    def cap(self):
        return len(self.powers) - 1

    def from_distance(self, dist):
        if dist >= self.d:
            return self.cap
        return bisect_right(self.powers, dist) - 1

    def add(self, idx, w):
        total = self.powers[idx] + w
        if total > self.powers[-1]:
            return self.cap
        return bisect_right(self.powers, total) - 1

    def admit_distance(self, dist):
        return dist >= self.target

    def admit_clearance(self, idx):
        return self.powers[idx] >= self.target

    def join_ok(self, i, j):
        return self.powers[i] + self.powers[j] >= self.target


def _ladder_grid():
    # Small d, two seeded d, and 10**12 (cap 5,540 at delta = 1/200).
    rng = random.Random(1604)
    ds = [2, 3, 4, 7, 17, 100] + [rng.randrange(10**k, 10 ** (k + 2)) for k in (3, 6)]
    for d in ds + [10**12]:
        for delta in (Fraction(1), Fraction(1, 4), Fraction(1, 200)):
            yield d, delta


def _least_passing(test, hi):
    # Least x in [0, hi] with test(x), or hi + 1; test must be monotone.
    lo = 0
    hi += 1
    while lo < hi:
        mid = (lo + hi) // 2
        if test(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_integer_ladder_matches_the_fraction_reference():
    rng = random.Random(1605)
    refused = 0
    for d, delta in _ladder_grid():
        ref = _FractionClearance(d, delta, Fraction(1))
        cap = ref.cap
        # A Fraction add costs milliseconds on the longest ladders, so past
        # 300 rungs a seeded sample stands in for every index; both ends
        # and both sides of each target boundary are always checked.
        sample = range(cap + 1) if cap <= 300 else rng.sample(range(cap + 1), 8)
        for epsilon in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            case = (d, delta, epsilon)
            # The ladder does not depend on epsilon, so one reference ladder
            # serves every epsilon.
            ref.target = Fraction(d) / (1 + epsilon)
            if ref.powers[-1] < ref.target:
                # A top rung below the target is refused.
                with pytest.raises(ValueError, match="below the target"):
                    RoundedClearance(d, delta, epsilon)
                refused += 1
                continue
            got = RoundedClearance(d, delta, epsilon)
            if epsilon == 1:
                # delta <= 1 = epsilon: every ladder of the grid is built here.
                ladder = got
            assert got.cap == cap, case
            assert [got.admit_clearance(i) for i in range(cap + 1)] == [
                ref.admit_clearance(i) for i in range(cap + 1)
            ], case
            # The target boundary: the least index whose power reaches it.
            flip = _least_passing(ref.admit_clearance, cap)
            indices = sorted({0, 1, cap - 1, cap, flip - 1, flip} & set(range(cap + 1)) | set(sample))
            for i in indices:
                # join_ok is monotone in its second index for both: agreeing
                # at the integer ladder's least partner and just below it,
                # and at both ends, is agreeing everywhere.
                partner = _least_passing(lambda j: got.join_ok(i, j), cap)
                for j in {0, partner - 1, partner, cap} & set(range(cap + 1)):
                    assert got.join_ok(i, j) == ref.join_ok(i, j), (case, i, j)
            threshold = slack_threshold(d, epsilon)
            for dist in {0, 1, threshold - 1, threshold, threshold + 1, d - 1, d, d + 1}:
                assert got.from_distance(dist) == ref.from_distance(dist), (case, dist)
                assert got.admit_distance(dist) == ref.admit_distance(dist), (case, dist)
        # The epsilon-free hooks, once per ladder.
        assert ladder.powers == ref.powers, (d, delta)
        for i in sorted({0, 1, cap - 1, cap} & set(range(cap + 1)) | set(sample)):
            for w in range(4):
                assert ladder.add(i, w) == ref.add(i, w), (d, delta, i, w)
            # Distances on both sides of the rung's value, where the floor
            # steps.
            below = ref.powers[i].numerator // ref.powers[i].denominator
            for dist in (below - 1, below, below + 1):
                assert ladder.from_distance(dist) == ref.from_distance(dist), (d, delta, dist)
    # 13 of the 81 cases are refused, each with epsilon < delta.
    assert refused == 13


def test_every_domain_the_approximation_builds_reaches_its_target():
    # delta = _delta_for(epsilon, depth) <= epsilon, so the top rung reaches
    # d/(1+epsilon), the cap is admitted and it partners clearance 0.  The
    # largest ladder here, delta = 1/90 at d = 10**12, holds 2,501 rungs in
    # 41 million bits, far below _MAX_LADDER_BITS, so no domain is refused.
    epsilons = [Fraction(n, m) for n, m in ((2, 1), (1, 1), (1, 2), (2, 3), (1, 3), (1, 5))]
    for d in [*range(2, 200), *(10**k for k in range(3, 13))]:
        for epsilon in epsilons:
            for depth in (1, 2, 3, 4, 6, 9):
                dom = RoundedClearance(d, _delta_for(epsilon, depth), epsilon)
                case = (d, epsilon, depth)
                assert dom.admit_clearance(dom.cap) and dom.join_ok(0, dom.cap), case


@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(1, 10)])
@pytest.mark.parametrize("depth", [1, 2, 3, 7, 40])
def test_delta_search_matches_fraction_halving(epsilon, depth):
    # The integer search must pick the delta that halving a Fraction picks.
    expected = epsilon / depth
    while (1 + expected) ** depth > 1 + epsilon:
        expected /= 2
    assert _delta_for(epsilon, depth) == expected
