"""Recompute ``pinned.json``, the answers every benchmark request is checked against.

Run from the repository root:

    python3 bench/pin.py

Answers are label-invariant, so they are computed once on the unrelabelled
base graphs with the program's exact DP, and cross-checked before they are
written: against brute force where n <= 20, each full count vector against
the maximum, and the vc solver against the DP wherever a workload runs it.
"""

from __future__ import annotations

import json
import re
import sys

from run import _no_span, import_program
from workloads import PINNED_PATH, PROFILES, SPECS, WORKLOADS, base_edges


def _agree(got, want, spec, d: int, what: str) -> None:
    if got != want:
        raise RuntimeError(f"{spec.name} d={d}: {what} disagree ({got!r} vs {want!r})")


def pin_spec(spec, program) -> dict:
    n, edges = base_edges(spec, program, _no_span)
    g = program.graph_core.WeightedGraph(n=n, edges=tuple(edges))
    nd = program.decomp.make_nice(program.decomp.heuristic_decomposition(g))
    oracle = program.oracle
    answers: dict = {"max": {}, "counts": {}}
    for d in spec.ds:
        best, _ = program.tw_exact.max_scattered(g, nd, d)
        if n <= 20:
            _agree(best, oracle.brute_force_max(g, d)[0], spec, d, "DP and brute-force maxima")
        if "solve_vc" in spec.commands:
            _agree(best, program.vc_fpt.max_scattered_vc(g, d)[0], spec, d, "DP and vc maxima")
        answers["max"][str(d)] = best
        if "count" in spec.commands:
            k = n if spec.count_k is None else spec.count_k
            counts = program.tw_exact.count_scattered(g, nd, d, k)
            if n <= 20:
                _agree(counts, oracle.brute_force_count(g, d, k), spec, d, "DP and brute-force counts")
            if k == n:
                top = max(i for i, c in enumerate(counts) if c)
                _agree(top, best, spec, d, "largest counted size and maximum")
            answers["counts"][str(d)] = counts
    return answers


def main() -> int:
    program = import_program()
    pinned = {
        profile: {
            spec.name: pin_spec(spec, program)
            for workload in WORKLOADS
            for spec in SPECS[workload][profile]
        }
        for profile in PROFILES
    }
    text = json.dumps(pinned, indent=1)
    # One line per count vector keeps the file short and its diffs readable.
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: json.dumps(json.loads(m.group(0))), text)
    PINNED_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {PINNED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
