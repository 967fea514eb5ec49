"""FPT approximation: scattered sets with a (1+epsilon) distance slack.

States are rounded down to exact powers of (1+delta), which shrinks each
bag coordinate's alphabet from d values to O(log(d)/delta).  Running the
max-mode DP over the rounded domain on a balanced decomposition returns a
set at least as large as the true d-optimum whose members are pairwise at
distance >= d/(1+epsilon).  The module does not re-check that bound; the
CLI re-checks every witness it prints, at `slack_threshold`.

All arithmetic is exact rational: rounding floors are found by comparisons
against precomputed powers, never by floating-point logarithms.  delta
starts at epsilon/depth and is halved until (1+delta)^depth <= 1+epsilon
holds exactly, so the per-level rounding losses provably compound to at
most (1+epsilon).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

from .decomp import TreeDecomposition, balance, make_nice, max_introduce_depth
from .graph_core import VertexSet, WeightedGraph
from .tw_exact import dp_over_decomposition

# Unused here, but bench/tracing.py wraps this module-level name and the
# benchmark's tests require every name it wraps to exist.
from .graph_core import all_pairs_distances  # noqa: F401


def slack_threshold(d: int, epsilon: Fraction) -> int:
    """Smallest integer distance t with (1+epsilon) * t >= d.

    Distances are integers, so a pair meets the slackened bound exactly when
    its distance is at least ceil(d / (1+epsilon)).
    """
    return math.ceil(Fraction(d) / (1 + epsilon))


class RoundedClearance:
    """Clearance domain over power-of-(1+delta) indices for the DP engine.

    Index l stands for the exact value (1+delta)^l; the cap is the largest
    power not exceeding d.  Every admission check compares against the
    slackened target d/(1+epsilon), exactly.
    """

    def __init__(self, d: int, delta: Fraction, epsilon: Fraction) -> None:
        self.d = d
        self.delta = Fraction(delta)
        self.epsilon = Fraction(epsilon)
        self.target = Fraction(d) / (1 + self.epsilon)
        base = 1 + self.delta
        powers = [Fraction(1)]
        while powers[-1] * base <= d:
            powers.append(powers[-1] * base)
        self.powers = powers

    @property
    def cap(self) -> int:
        return len(self.powers) - 1

    def from_distance(self, dist: int) -> int:
        if dist >= self.d:
            return self.cap
        return bisect_right(self.powers, dist) - 1

    def add(self, idx: int, w: int) -> int:
        total = self.powers[idx] + w
        if total > self.powers[-1]:
            return self.cap
        return bisect_right(self.powers, total) - 1

    def admit_distance(self, dist: int) -> bool:
        return dist >= self.target

    def admit_clearance(self, idx: int) -> bool:
        return self.powers[idx] >= self.target

    def join_ok(self, i: int, j: int) -> bool:
        return self.powers[i] + self.powers[j] >= self.target


def approx_max_scattered(
    g: WeightedGraph, td: TreeDecomposition, d: int, epsilon: Fraction
) -> tuple[int, VertexSet]:
    """Set of size >= the d-optimum, pairwise at distance >= d/(1+epsilon).

    Balances the decomposition, measures how many rounding steps can stack
    along a root-leaf path, picks delta so the stacked loss stays within
    (1+epsilon) (verified by exact powering), and runs the rounded DP.  The
    witness is not re-checked here; the CLI re-validates every witness it
    prints, against the slackened bound at its exact integer threshold
    (`slack_threshold`).
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if d < 2:
        raise ValueError("d must be >= 2")
    nd = make_nice(balance(td, g))
    depth = max(1, max_introduce_depth(nd))
    delta = epsilon / depth
    while (1 + delta) ** depth > 1 + epsilon:
        delta /= 2
    clearance = RoundedClearance(d, delta, epsilon)
    return dp_over_decomposition(g, nd, d, mode="max", clearance=clearance)
