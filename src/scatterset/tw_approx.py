"""FPT approximation: scattered sets with a (1+epsilon) distance slack.

States are rounded down to exact powers of (1+delta), which shrinks each
bag coordinate's alphabet from d values to O(log(d)/delta).  Running the
max-mode DP over the rounded domain on a balanced decomposition returns a
set at least as large as the true d-optimum whose members are pairwise at
distance >= d/(1+epsilon).  The module does not re-check that bound; the
CLI re-checks every witness it prints, at `slack_threshold`.

All arithmetic is exact and in integers: with delta = a/b, the ladder
stores (1+delta)^l scaled by b^cap, which is the integer (a+b)^l * b^(cap-l),
and every target is scaled the same way and rounded up.  Rounding floors are
found by bisecting those integers, never by floating-point logarithms.
delta starts at epsilon/depth and is halved until (1+delta)^depth <=
1+epsilon holds exactly, so the per-level rounding losses provably compound
to at most (1+epsilon).
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

# Most bits the rounding ladder may hold.  Its cap + 1 rungs each take up
# to cap * log2(a+b) bits, so it grows with cap squared.  tracemalloc puts
# a ladder at 1.03 bytes per 8 bits (17.8 MiB for 139 million bits at
# epsilon = 1/100 on a 40-vertex path at d = 5, 3,542 rungs), so the bound
# is about 200 MiB, near vc_fpt's profile bound; epsilon = 1/300 there
# (10,624 rungs, 182.5 MiB) still fits.  It is checked at each rung of the
# cap loop, before the ladder is built.
_MAX_LADDER_BITS = 1_600_000_000


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
    slackened target d/(1+epsilon), exactly.  The constructor raises
    ValueError unless the top power reaches that target, so the cap is
    admitted and partners every clearance, as in the exact domain.  Any
    delta <= epsilon passes, since (1+delta)^(cap+1) > d, so
    `approx_max_scattered` never builds a domain that fails.

    With delta = a/b in lowest terms, `_ladder[l]` is (1+delta)^l * b^cap =
    (a+b)^l * b^(cap-l), an integer, and `_unit` = b^cap stands for 1.  An
    integer x passes a test "value >= t" iff x >= ceil(t * b^cap), so each
    hook compares ints only.
    """

    def __init__(self, d: int, delta: Fraction, epsilon: Fraction) -> None:
        self.d = d
        self.delta = Fraction(delta)
        self.epsilon = Fraction(epsilon)
        a, b = self.delta.numerator, self.delta.denominator
        # (a+b)^l <= d * b^l is the exact test "(1+delta)^l <= d"; at the
        # end, unit = b^cap.
        top, unit, cap = 1, 1, 0
        while top * (a + b) <= d * unit * b:
            top, unit, cap = top * (a + b), unit * b, cap + 1
            # No rung exceeds top = (a+b)^cap.
            if (cap + 1) * top.bit_length() > _MAX_LADDER_BITS:
                raise ValueError(
                    f"rounding ladder refused: epsilon {self.epsilon} gives delta {self.delta}, "
                    f"and {cap + 1} rungs already need more than {_MAX_LADDER_BITS} bits"
                )
        # The top rung must reach the target d/(1+epsilon) = d*q / (p+q).
        p, q = self.epsilon.numerator, self.epsilon.denominator
        if top * (p + q) < d * q * unit:
            raise ValueError(
                f"delta {self.delta} tops out at (1+delta)^{cap}, "
                f"below the target d/(1+epsilon) = {Fraction(d) / (1 + self.epsilon)}"
            )
        # Going up one rung trades one factor b for one factor a+b.
        ladder = [unit]
        for _ in range(cap):
            ladder.append(ladder[-1] // b * (a + b))
        self._ladder = ladder
        self._unit = unit
        self._threshold = slack_threshold(d, self.epsilon)
        # ceil(target * b^cap).
        self._scaled_target = -(-d * q * unit // (p + q))

    @property
    def powers(self) -> list[Fraction]:
        """The ladder as exact values: powers[l] == (1+delta)^l."""
        base = 1 + self.delta
        powers = [Fraction(1)]
        for _ in range(self.cap):
            powers.append(powers[-1] * base)
        return powers

    @property
    def cap(self) -> int:
        return len(self._ladder) - 1

    def from_distance(self, dist: int) -> int:
        if dist >= self.d:
            return self.cap
        return bisect_right(self._ladder, dist * self._unit) - 1

    def add(self, idx: int, w: int) -> int:
        ladder = self._ladder
        total = ladder[idx] + w * self._unit
        if total > ladder[-1]:
            return self.cap
        return bisect_right(ladder, total, idx) - 1

    def admit_distance(self, dist: int) -> bool:
        return dist >= self._threshold

    def admit_clearance(self, idx: int) -> bool:
        return self._ladder[idx] >= self._scaled_target

    def join_ok(self, i: int, j: int) -> bool:
        return self._ladder[i] + self._ladder[j] >= self._scaled_target


def _delta_for(epsilon: Fraction, depth: int) -> Fraction:
    """Largest epsilon/(depth * 2^k) with (1+delta)^depth <= 1+epsilon.

    With delta = a/b in lowest terms and epsilon = p/q, the test is
    (a+b)^depth * q <= (p+q) * b^depth, in integers.  Halving keeps a/b in
    lowest terms: an even a is halved, else b is doubled.
    """
    p, q = epsilon.numerator, epsilon.denominator
    start = epsilon / depth
    a, b = start.numerator, start.denominator
    while (a + b) ** depth * q > (p + q) * b**depth:
        a, b = (a // 2, b) if a % 2 == 0 else (a, 2 * b)
    return Fraction(a, b)


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
    clearance = RoundedClearance(d, _delta_for(epsilon, depth), epsilon)
    return dp_over_decomposition(g, nd, d, mode="max", clearance=clearance)
